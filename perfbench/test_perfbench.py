"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from harness import Item, Span, Tracer  # noqa: E402


@pytest.mark.parametrize("n, percentile, rank", [
    (1000, 99.0, 990),   # exactly 10 beyond the 990th value
    (999, 90.0, 900),    # one short of ten beyond p99
    (10000, 99.9, 9990),
    (100, 90.0, 90),
    (99, 75.0, 75),      # one short of ten beyond p90
    (40, 75.0, 30),
    (39, 50.0, 20),
    (20, 50.0, 10),
])
def test_tail_percentile_takes_highest_with_ten_beyond(n, percentile, rank):
    values = list(range(n, 0, -1))  # unsorted input, value == rank
    p, value, count = harness.tail_percentile(values)
    assert (p, value, count) == (percentile, rank, n)
    assert sum(v > value for v in values) >= 10


def test_tail_percentile_falls_back_to_max_for_few_samples():
    assert harness.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)


def _span(tracer, name, start, end, parent=None, **counts):
    s = Span(tracer, name, counts)
    s.start, s.end, s.parent = start, end, parent
    return s


def test_self_time_subtracts_covered_child_time():
    tr = Tracer()
    root = _span(tr, "bench.item", 0.0, 10.0)
    a = _span(tr, "layer.a", 1.0, 4.0, root, calls=2)
    b = _span(tr, "layer.b", 3.0, 6.0, root, calls=1)  # overlaps a
    inside = _span(tr, "layer.b", 3.5, 5.0, root)  # within b
    leaf = _span(tr, "layer.c", 1.5, 2.0, a)
    late = _span(tr, "layer.a", 8.0, 12.0, root, calls=5)  # clipped at 10
    spans = [root, a, b, inside, leaf, late]
    selfs = harness.self_times(spans)
    assert selfs[id(root)] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[id(a)] == pytest.approx(2.5)
    assert selfs[id(b)] == pytest.approx(3.0)
    assert selfs[id(leaf)] == pytest.approx(0.5)
    seconds, counts = harness.layer_totals(spans)
    assert seconds["layer.a"] == pytest.approx(2.5 + 4.0)
    assert seconds["layer.b"] == pytest.approx(3.0 + 1.5)
    assert counts == {"layer.a.calls": 7, "layer.b.calls": 1}


def test_recorded_spans_nest_and_disabled_tracer_records_nothing():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner", calls=1) as sp:
            sp.count(calls=2)
    assert tr.spans == []
    tr.enabled = True
    with tr.span("outer") as outer:
        with tr.span("inner", calls=1) as sp:
            sp.count(calls=2)
    inner = tr.spans[0]
    assert inner.parent is outer and inner.counts == {"calls": 3}
    assert outer.end >= inner.end >= inner.start >= outer.start


def test_failing_items_count_against_the_run():
    def boom(tr):
        raise RuntimeError("boom")

    items = [Item("ok", lambda tr: 1, lambda out: None),
             Item("wrong", lambda tr: 2, lambda out: "2 != 1"),
             Item("raises", boom, lambda out: None)]
    passes = harness.run_passes(items, 0.0)
    assert len(passes) == 1
    results = passes[0]
    failed = {r.id: r.witness for r in results if r.witness is not None}
    assert failed == {"wrong": "2 != 1", "raises": "raised RuntimeError('boom')"}
    assert all(r.scale > 0 for r in results)
    total = sum(r.wall for r in results)
    assert harness.items_per_s(results) == pytest.approx(1 / total)


def test_item_medians_scale_each_repeat_and_keep_failures():
    R = harness.ItemResult
    passes = [[R("a", 1.0, 0.5, None, 1.0), R("b", 4.0, 4.0, None, 0.5)],
              [R("a", 3.0, 3.0, None, 0.5), R("b", 2.0, 2.0, "bad", 1.0)],
              [R("a", 2.0, 1.0, None, 2.0), R("b", 9.0, 9.0, None, 0.1)]]
    a, b = harness.item_medians(passes)
    assert (a.id, a.wall, a.cpu, a.witness) == ("a", 1.5, 1.5, None)
    assert (b.id, b.wall, b.cpu, b.witness) == ("b", 2.0, 2.0, "bad")
    a, b = harness.item_medians(passes, scaled=False)
    assert (a.wall, a.cpu, b.wall) == (2.0, 1.0, 4.0)


def test_host_scale_is_nominal_over_median_sample():
    nominal = harness.REF_NOMINAL_S
    assert harness.host_scale([nominal, 2 * nominal, 9]) == pytest.approx(0.5)


def test_checkpoints_scale_each_stretch_by_its_neighbours(monkeypatch):
    samples = iter([0.5e-3, 0.5e-3, 1e-3, 1e-3, 2e-3, 2e-3])
    monkeypatch.setattr(harness, "reference_s", lambda: next(samples))
    clock = iter([10.0, 10.1, 11.1, 11.2, 13.2, 13.3])
    monkeypatch.setattr(harness.time, "perf_counter", lambda: next(clock))
    cp = harness.Checkpoints(2)
    for _ in range(3):
        cp()
    assert cp.start == 10.0 and cp.first_scale == pytest.approx(2.0)
    # 1 s between the first two checkpoints at median sample 0.75 ms, then
    # 2 s at median 1.5 ms
    assert cp.scaled_s == pytest.approx(1.0 / 0.75 + 2.0 / 1.5)


def test_lattice_shift_keeps_quotient_order_across_seeds():
    first = workloads.build_lattice(1).items[:40]
    second = workloads.build_lattice(2).items[:40]
    assert [i.id for i in first] == [i.id for i in second]
    moved = 0
    tr = Tracer()
    for a, b in zip(first, second):
        out_a, out_b = a.run(tr), b.run(tr)
        assert out_a["K_size"] == out_b["K_size"]
        assert a.id.endswith(f"-K{out_a['K_size']}")
        assert a.check(out_a) is None and b.check(out_b) is None
        moved += a.run.args[0]["M"] != b.run.args[0]["M"]
    assert moved > 0


def _pass_counts(name):
    """Counts of about a dozen items sampled across the pass."""
    wl = workloads.MAKE[name](5)
    tr = Tracer()
    tr.enabled = True
    for item in wl.items[::max(1, len(wl.items) // 12)]:
        assert harness.run_item(item, tr).witness is None
    return harness.layer_totals(tr.spans)[1]


@pytest.mark.parametrize("name", ["algebra", "lattice", "transform"])
def test_counts_repeat_exactly_across_runs(name):
    first = _pass_counts(name)
    assert first and first == _pass_counts(name)


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
