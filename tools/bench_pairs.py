"""Paired benchmark runs of a parent and a change checkout.

Usage, from the root of the change checkout::

    python3 tools/bench_pairs.py --parent DIR --change DIR --pr N \\
        --seeds 1001-1010

For every seed (at least two) and every workload of ``BENCHMARK.json`` it
runs ``perfbench/run.py --trace 0`` for the benchmark's ``run_seconds``
once in each checkout, alternating which side runs first from one pair to
the next, and writes ``BENCH_<N>.json`` at the root of this repository.
Both checkouts must be git work trees (``git clone``) whose ``src/`` has no
uncommitted change; the file records each side's commit and the git tree
hash of its ``src/``, which ``git rev-parse <commit>:src`` reproduces for
any commit with the same package source.  Each side runs the benchmark code
of its own checkout, so keep ``perfbench/`` identical on both sides.

For each workload and end-to-end metric the file holds each side's median
and quartiles over the pairs, the number of pairs the change won (ties
count for neither side), the ratio of the medians, and two verdicts:
``gain`` (the change won at least nine tenths of the pairs, its median is
better than the parent's by more than the distance between the parent's
quartiles, and no more of its items failed than the parent's) and
``within_bound`` (the change's median is not worse than the parent's by
more than the metric's bound; ``"unresolved"`` when the parent's quartile
distance is wider than the bound and not every change run beats every
parent run).  Every run's values are kept under ``runs``.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 400


def parse_seeds(text: str) -> list[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.strip().partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    if len(seeds) < 2:
        raise ValueError("give at least two seeds: quartiles need two runs")
    return seeds


def checkout_id(checkout: str) -> dict:
    """The commit of a git checkout and the tree hash of its ``src/``."""
    def git(*args: str) -> str:
        proc = subprocess.run(["git", *args], cwd=checkout,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode:
            raise RuntimeError(f"{checkout}: git {' '.join(args)}: "
                               f"{proc.stderr.strip()}")
        return proc.stdout.strip()

    if git("status", "--porcelain", "--", "src"):
        raise RuntimeError(f"{checkout}: src/ has uncommitted changes")
    return {"commit": git("rev-parse", "HEAD"),
            "src_tree": git("rev-parse", "HEAD:src")}


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run; returns its env, metric values and counts."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), {})
    result = json.loads(lines[-1])
    env.pop("commit", None)
    return {"env": env, "attempted": result["attempted"],
            "failed": result["failed"],
            "values": {name: m["value"]
                       for name, m in result["metrics"].items()}}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], spec: dict, failed: dict) -> dict:
    """Per-metric comparison of the paired runs of one workload.

    ``failed`` holds each side's number of failed items over the runs."""
    out = {}
    for name, metric in spec.items():
        sign = 1 if metric["better"] == "higher" else -1
        sides = {side: [r[side]["values"][name] for r in runs]
                 for side in SIDES}
        wins = sum(sign * (c - p) > 0
                   for p, c in zip(sides["parent"], sides["change"]))
        parent, change = spread(sides["parent"]), spread(sides["change"])
        gain = sign * (change["median"] - parent["median"])
        worse = -gain / abs(parent["median"]) if parent["median"] else 0.0
        parent_iqr = parent["q3"] - parent["q1"]
        dominates = (min(sign * c for c in sides["change"])
                     > max(sign * p for p in sides["parent"]))
        if (parent_iqr > metric["bound"] * abs(parent["median"])
                and not dominates):
            within_bound = "unresolved"
        else:
            within_bound = worse <= metric["bound"]
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "parent": parent, "change": change,
            "change_wins": wins, "pairs": len(runs),
            "ratio": (change["median"] / parent["median"]
                      if parent["median"] else None),
            "gain": (wins >= 0.9 * len(runs) and gain > parent_iqr
                     and failed["change"] <= failed["parent"]),
            "within_bound": within_bound,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True,
                        help="checkout of the change")
    parser.add_argument("--pr", required=True,
                        help="names the output file BENCH_<pr>.json")
    parser.add_argument("--seeds", required=True,
                        help='at least two, e.g. "1001-1010"')
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(f"--seeds {args.seeds!r}: {exc}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    ids = {side: checkout_id(path) for side, path in checkouts.items()}

    runs = {w: [] for w in workloads}
    envs = {}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                res = run_once(checkouts[side], workload, seed, seconds)
                envs[side] = res.pop("env")
                pair[side] = res
            runs[workload].append(pair)
            line = "  ".join(
                f"{name} {pair['parent']['values'][name]:.4g} -> "
                f"{pair['change']['values'][name]:.4g}"
                for name in ("items_per_s", "peak_rss_mb"))
            print(f"{workload} seed {seed} ({order[0]} first): {line}",
                  flush=True)

    failed = {w: {side: sum(r[side]["failed"] for r in runs[w])
                  for side in SIDES}
              for w in workloads}
    report = {
        "about": "paired perfbench/run.py --trace 0 runs of a parent and "
                 "a change checkout; see tools/bench_pairs.py",
        "pr": args.pr,
        "date": datetime.date.today().isoformat(),
        "command": (f"python3 tools/bench_pairs.py --parent PARENT "
                    f"--change CHANGE --pr {args.pr} --seeds {args.seeds}"),
        "env": envs["change"],
        "checkouts": ids,
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {
            w: {"metrics": summarize(runs[w], spec, failed[w]),
                "failed": failed[w],
                "attempted": {side: sum(r[side]["attempted"] for r in runs[w])
                              for side in SIDES},
                "runs": [{"seed": r["seed"], "first": r["first"],
                          **{side: r[side]["values"] for side in SIDES}}
                         for r in runs[w]]}
            for w in workloads},
    }
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
