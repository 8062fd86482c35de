"""nctorus benchmark: four seeded closed-loop workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {algebra,lattice,transform,cli} \\
        --seed N --seconds S --trace {0,1}

One client runs a fixed, seeded list of items back to back, in passes
over the whole list, in one process that calls the package's public
functions directly, with BLAS pinned to one thread.  ``--trace 0`` prints
the end-to-end metrics, computed from the median repeat of each item in
the run.  Each item's times are scaled by the speed of a fixed reference
kernel timed just before and after it (``harness.host_scale``): the
shared host runs the same code at two speeds nearly a factor of two
apart, and the scale keeps the figures on the items' own cost.
``--trace 1`` repeats the passes, running each item twice in a row,
untraced and traced, and prints the per-layer metrics taken from spans
around the benchmark's calls into each layer, plus the tracing overhead
(the ``items_per_s`` difference between the two).  Spans are written to
``.perfbench/`` when the run ends.  Report lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any item failed, and 2
when the package source is missing.

Set-up time is measured five times, each from the start of a fresh
interpreter to the moment the first item could run, scaled piece by piece
by reference samples at checkpoints of the set-up (which are left out of
the time); the median is reported.  The report lines give the unscaled
figures too.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("algebra", "lattice", "transform", "cli")
BLAS_THREADS = "1"
SETUP_SAMPLES = 5
TIMEOUT_S = 170.0

END_TO_END = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "cpu_s_per_item": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Self seconds (``.s``) are per pass over the items; counts are exact per
# pass.
PER_LAYER = {
    "cocycle.check_cocycle.s": "s",
    "cocycle.check_cocycle.calls": "count",
    "laurent.star_mul.s": "s",
    "laurent.star_mul.calls": "count",
    "laurent.star_mul.term_pairs": "count",
    "laurent.majorant_norm.s": "s",
    "qweyl.mul_crossed.s": "s",
    "qweyl.mul_crossed.calls": "count",
    "qweyl.mul_crossed.term_pairs": "count",
    "qweyl.mul_W.s": "s",
    "lattice.compute_H_hat.s": "s",
    "lattice.compute_K_hat.s": "s",
    "lattice.descend_cocycle.s": "s",
    "lattice.lambda_sharp.s": "s",
    "lattice.construct.calls": "count",
    "lattice.table_pairing.s": "s",
    "lattice.table_pairing.calls": "count",
    "lattice.project_lift.s": "s",
    "lattice.contains.s": "s",
    "lattice.query.calls": "count",
    "equivariant.from_bilinear.s": "s",
    "equivariant.free.s": "s",
    "equivariant.check_linearization.s": "s",
    "equivariant.hom_space.s": "s",
    "equivariant.hom_space.calls": "count",
    "equivariant.hom_space.dim_sum": "count",
    "finitefm.random_sheaf.s": "s",
    "finitefm.fm_lambda.s": "s",
    "finitefm.fm_lambda.calls": "count",
    "finitefm.fm_lambda.module_dim_sum": "count",
    "finitefm.fm_lambda_inverse.s": "s",
    "finitefm.module_hom_space.s": "s",
    "finitefm.verify_factorization.s": "s",
    "finitefm.points_product.s": "s",
    "verify.cocycle.s": "s",
    "verify.weyl.s": "s",
    "verify.lattice.s": "s",
    "verify.star.s": "s",
    "verify.equivariant.s": "s",
    "verify.fm.s": "s",
    "cli.param_analyze.s": "s",
    "cli.star_mul.s": "s",
    "cli.qweyl_mul.s": "s",
    "cli.fm_demo.s": "s",
    "cli.import_s": "s",
    "bench.unattributed_s": "s",
    "bench.trace_overhead_pct": "%",
}


def commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class WorkerError(RuntimeError):
    pass


def run_worker(args, env, setup_only: bool, deadline: float):
    """Start a worker; return its set-up time (process start to ``READY``)
    unscaled and scaled, and, unless ``setup_only``, its parsed result
    line."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    word, _, setup = ready.partition(" ")
    if word != "READY" or proc.returncode != 0:
        raise WorkerError(f"worker failed (exit {proc.returncode})")
    setup = json.loads(setup)
    # perf_counter is the system-wide monotonic clock, shared with the child
    scaled = ((setup["start"] - t0) * setup["first_scale"]
              + setup["scaled_s"])
    if setup_only:
        return (setup_s, scaled), None
    return (setup_s, scaled), json.loads(rest.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "nctorus", "__init__.py")):
        print("error: package source src/nctorus not found", file=sys.stderr)
        return 2

    # SIGTERM ends the run through SystemExit, so that the worker is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.perf_counter() + TIMEOUT_S
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS,
               PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    setups = []  # (unscaled, scaled) seconds
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, env, True, deadline)[0])
        setup, res = run_worker(args, env, False, deadline)
        setups.append(setup)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = res["attempted"]
    failed = len(res["failures"])
    env_info = dict(res["env"], commit=commit())
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"env {json.dumps(env_info, sort_keys=True)}")
    if args.trace:
        values = {name: res["layers"].get(name, 0) for name in PER_LAYER}
        units = PER_LAYER
        print(f"per-layer: seconds and counts per pass of "
              f"{res['pass_items']} items, {res['passes']} traced passes; "
              f"spans in {res['trace_file']}")
    else:
        e2e, raw = res["e2e"], res["e2e_raw"]
        values = {name: e2e.get(name) for name in END_TO_END}
        values["setup_s"] = statistics.median(s for _, s in setups)
        values["peak_rss_mb"] = res["peak_rss_mb"]
        units = END_TO_END
        n = f"n={e2e['n']} items, median of {res['passes']} passes"
        notes = {
            "items_per_s": n,
            "item_p50_ms": n,
            "item_tail_ms": f"p{e2e['tail_percentile']:g} {n}",
            "cpu_s_per_item": n,
            "setup_s": "median of " + ", ".join(f"{s:.3f}"
                                                for _, s in setups),
            "peak_rss_mb": "",
        }
        for name in ("items_per_s", "item_p50_ms", "item_tail_ms",
                     "cpu_s_per_item"):
            notes[name] += f"; {raw[name]:.6g} unscaled"
        notes["setup_s"] += "; unscaled, sampling included, " + ", ".join(
            f"{s:.3f}" for s, _ in setups)
        print(f"host scale {res['host_scale']:.4f} (median over items)")
    for name, value in values.items():
        note = "" if args.trace else notes[name]
        print(f"  {name:<38} {value:>14.6g} {units[name]:<6} {note}")
    print(f"  {'fail_ratio':<38} {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} items)")
    for item_id, witness in res["failures"][:20]:
        print(f"FAILED {item_id}: {witness}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
