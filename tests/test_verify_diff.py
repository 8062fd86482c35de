"""The output comparison script ``tools/verify_diff.py``."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "verify_diff", os.path.join(ROOT, "tools", "verify_diff.py"))
verify_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verify_diff)


def test_the_repo_against_itself_differs_nowhere(capsys):
    rc = verify_diff.main(["--parent", ROOT, "--change", ROOT,
                           "--seeds", "0", "--scope", "fm"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[-1] == "0 of the outputs differ"
    # verify and verify --corrupt-phi on both grids, the cocycle and star
    # scopes on two PARAMS entries and both grids, and fm demo, text and
    # json, then four star products, five crossed products and five param
    # analyses
    assert len(out) == 1 + 8 + 8 + 2 + 4 + 5 + 5
    assert all(line.startswith("same ") for line in out[:-1])
    assert out[-2].startswith("same    (exit 2) nctorus param analyze")


def test_moved_dev_figures_are_listed_one_by_one():
    argv = ["verify", "--seed", "0", "--json"]

    def result(devs):
        return json.dumps({"results": [{"name": n, "max_dev": d}
                                       for n, d in devs.items()]})

    parent = (0, result({"a": 1e-15, "b": 0.0, "c": 2e-16}), "")
    change = (0, result({"a": 1.5e-15, "b": 0.0, "c": 3e-16}), "")
    lines = verify_diff.compare(argv, parent, change)
    moved = [line for line in lines if "dev moved" in line]
    assert moved == ["  dev moved: a 1e-15 -> 1.5e-15",
                     "  dev moved: c 2e-16 -> 3e-16"]
    assert verify_diff.compare(argv, parent, parent) == []
    assert verify_diff.compare(argv, parent, (1, parent[1], "error: x\n")) \
        == ["  exit code 0 -> 1", "  stderr '' -> 'error: x\\n'"]
    demo = verify_diff.compare(["fm", "demo", "--json"],
                               (0, '{"law_dev": 1.0, "ok": true}', ""),
                               (0, '{"law_dev": 2.0, "ok": true}', ""))
    assert "  dev moved: law_dev 1.0 -> 2.0" in demo


def test_a_changed_witness_shows_by_check_name():
    argv = ["verify", "--seed", "7", "--corrupt-phi", "--json"]

    def result(witness, ok, dev):
        return json.dumps({"ok": ok, "results": [
            {"max_dev": 0.0, "name": "a", "ok": True, "witness": None},
            {"max_dev": dev, "name": "b", "ok": ok, "witness": witness}],
            "seed": 7})

    parent = (1, result("(0, (0, 1), (1, 0))", False, 0.5), "")
    change = (0, result(None, True, 0.0), "")
    assert verify_diff.compare(argv, parent, change) == [
        "  exit code 1 -> 0",
        "  changed: ok False -> True",
        "  dev moved: b 0.5 -> 0.0",
        "  changed: b ok False -> True",
        "  changed: b witness '(0, (0, 1), (1, 0))' -> None"]
    dropped = (1, json.dumps({"ok": False, "results": [], "seed": 7}), "")
    assert "  changed: b max_dev 0.5 -> '<absent>'" in \
        verify_diff.compare(argv, parent, dropped)
    assert verify_diff.compare(["fm", "demo"], (0, "a\nb\n", ""),
                               (0, "a\nc\n", ""))[-2:] == ["  -b", "  +c"]
    # equal in value, not in bytes
    assert verify_diff.compare(argv, (0, '{"ok": true}', ""),
                               (0, '{"ok":true}', ""))[-2:] == [
        '  -{"ok": true}', '  +{"ok":true}']
