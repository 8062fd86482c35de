"""Verdicts of the paired-benchmark script ``tools/bench_pairs.py``."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                     "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"rate": {"name": "rate", "unit": "1/s", "better": "higher",
                 "bound": 0.25},
        "rss": {"name": "rss", "unit": "MB", "better": "lower",
                "bound": 0.1}}


NO_FAILURES = {"parent": 0, "change": 0}


def pairs(parent, change):
    return [{"parent": {"values": p}, "change": {"values": c}}
            for p, c in zip(parent, change)]


def summarize(parent, change, failed=NO_FAILURES):
    return bench_pairs.summarize(pairs(parent, change), SPEC, failed)


def test_parse_seeds():
    assert bench_pairs.parse_seeds("3-5,9") == [3, 4, 5, 9]
    assert bench_pairs.parse_seeds("7,8") == [7, 8]
    for text in ("a-b", "7", "7-7"):
        with pytest.raises(ValueError):
            bench_pairs.parse_seeds(text)


def test_one_seed_is_refused_before_any_run(monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs, "checkout_id", no_run)
    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", ".", "--change", ".", "--pr", "0",
                          "--seeds", "7"])
    assert exc.value.code == 2
    assert "at least two seeds" in capsys.readouterr().err


def test_summarize_counts_wins_by_direction_and_ties_for_neither():
    parent = [{"rate": 10.0 + i, "rss": 40.0} for i in range(10)]
    change = [{"rate": 20.0 + i, "rss": 40.0 if i < 5 else 43.0}
              for i in range(10)]
    rate, rss = (summarize(parent, change)[k] for k in ("rate", "rss"))
    assert rate["change_wins"] == 10 and rate["pairs"] == 10
    assert rate["parent"]["median"] == 14.5
    assert rate["parent"]["q1"] == 12.25 and rate["parent"]["q3"] == 16.75
    assert rate["gain"] and rate["within_bound"]
    assert rate["ratio"] == pytest.approx(24.5 / 14.5)
    # five ties and five losses: no win, and a 3.75% rise is inside 10%
    assert rss["change_wins"] == 0 and not rss["gain"]
    assert rss["within_bound"]


def test_summarize_gain_needs_nine_tenths_and_more_than_the_spread():
    parent = [{"rate": 10.0 + i, "rss": 40.0} for i in range(10)]
    # wins 8 of 10 pairs: no gain although the median is far better
    change = [{"rate": 30.0 if i < 8 else 0.0, "rss": 50.0}
              for i in range(10)]
    summary = summarize(parent, change)
    assert summary["rate"]["change_wins"] == 8 and not summary["rate"]["gain"]
    assert not summary["rss"]["within_bound"]  # 25% more memory
    # wins every pair by less than the parent's quartile distance
    change = [{"rate": 10.5 + i, "rss": 40.0} for i in range(10)]
    summary = summarize(parent, change)
    assert summary["rate"]["change_wins"] == 10
    assert not summary["rate"]["gain"]


def test_no_gain_when_the_change_fails_more_items():
    parent = [{"rate": 10.0 + i, "rss": 40.0} for i in range(10)]
    change = [{"rate": 20.0 + i, "rss": 40.0} for i in range(10)]
    assert summarize(parent, change, {"parent": 2, "change": 2})["rate"]["gain"]
    summary = summarize(parent, change, {"parent": 2, "change": 3})
    assert summary["rate"]["change_wins"] == 10
    assert not summary["rate"]["gain"]


def test_bound_is_unresolved_when_the_parent_spreads_wider_than_it():
    # parent quartiles 37 and 43 around 40 MB: 6 MB apart, wider than 10%
    spread = (35, 36, 37, 37, 39, 41, 43, 43, 44, 45)
    parent = [{"rate": 10.0, "rss": v} for v in spread]
    change = [{"rate": 10.0, "rss": v} for v in spread]
    rss = summarize(parent, change)["rss"]
    assert rss["parent"]["q3"] - rss["parent"]["q1"] == 6
    assert rss["within_bound"] == "unresolved"
    # every change run uses less memory than every parent run: resolved
    change = [{"rate": 10.0, "rss": 30.0 + 0.1 * i} for i in range(10)]
    assert summarize(parent, change)["rss"]["within_bound"] is True
    # a tight parent resolves the same medians either way
    tight = [{"rate": 10.0, "rss": 40.0} for _ in range(10)]
    assert summarize(tight, parent)["rss"]["within_bound"] is True
    worse = [{"rate": 10.0, "rss": 45.0} for _ in range(10)]
    assert summarize(tight, worse)["rss"]["within_bound"] is False
