"""One workload process: set-up, then the measured run.

Started by ``run.py`` from a fresh interpreter.  It prints ``READY`` once
set-up (imports, input generation, warm-up) is done, so the parent can time
set-up from process start, followed on the same line by the set-up time
that ``harness.Checkpoints`` scaled, from the first checkpoint on; with
``--setup-only`` it exits there.  Otherwise it runs the
workload and prints one JSON line with the raw results.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Reference-kernel runs at each set-up checkpoint: start, after the import,
# after input generation, after each warm-up item and at the end.
SETUP_REF_SAMPLES = 3


def write_spans(reps, workload: str, seed: int) -> str:
    """Write the spans of every traced pass as JSON lines, with the scale
    of their item."""
    path = os.path.join(ROOT, ".perfbench", f"trace-{workload}-{seed}.jsonl")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for rep, (spans, scales) in enumerate(reps):
            for s in spans:
                fh.write(json.dumps({
                    "rep": rep, "id": id(s), "name": s.name,
                    "parent": None if s.parent is None else id(s.parent),
                    "item": s.item, "start": s.start, "end": s.end,
                    "scale": scales[s.item], "counts": s.counts}) + "\n")
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    checkpoints = harness.Checkpoints(SETUP_REF_SAMPLES)
    checkpoints()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    importlib.import_module("nctorus.cli" if args.workload == "cli"
                            else "nctorus")
    checkpoints()
    import_s = checkpoints.scaled_s  # the stretch between the first two

    import numpy as np

    import workloads

    wl = workloads.build(args.workload, args.seed, checkpoints)
    checkpoints()
    print("READY", json.dumps({"start": checkpoints.start,
                               "first_scale": checkpoints.first_scale,
                               "scaled_s": checkpoints.scaled_s}),
          flush=True)
    if args.setup_only:
        return 0

    out = {"env": {"nproc": len(os.sched_getaffinity(0)),
                   "python": platform.python_version(),
                   "numpy": np.__version__,
                   "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
           "pass_items": len(wl.items)}
    if args.trace:
        plain, traced, reps = harness.run_traced(wl.items, args.seconds)
        passes = plain + traced
        layers = harness.per_layer(reps, plain, traced)
        if args.workload == "cli":
            layers["cli.import_s"] = import_s
        out["layers"] = layers
        out["passes"] = len(reps)
        out["trace_file"] = write_spans(reps, args.workload, args.seed)
    else:
        passes = harness.run_passes(wl.items, args.seconds)
        out["e2e"] = harness.end_to_end(harness.item_medians(passes))
        out["e2e_raw"] = harness.end_to_end(
            harness.item_medians(passes, scaled=False))
        out["host_scale"] = statistics.median(r.scale for p in passes
                                              for r in p)
        out["passes"] = len(passes)
    results = [r for p in passes for r in p]
    out["attempted"] = len(results)
    out["failures"] = [[r.id, str(r.witness)] for r in results
                       if r.witness is not None]
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
