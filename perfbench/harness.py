"""Closed-loop item runner, in-memory span tracer and summary statistics.

A workload is a list of *items*: one seeded unit of user work with a timed
``run(tracer)`` and an untimed ``check(output)`` oracle.  One client runs
the items one after another (a closed loop), in passes over the whole
list; the harness times each item, runs its oracle outside the timing,
and counts an item that raises or is rejected by its oracle as failed.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction
from typing import Any, Callable, NamedTuple


class Item(NamedTuple):
    """``run(tracer)`` does the timed work; ``check(out)`` returns ``None``
    when the output is correct and a short witness string otherwise."""

    id: str
    run: Callable[["Tracer"], Any]
    check: Callable[[Any], Any]


# ---------------------------------------------------------------------------
# tracing

class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def count(self, **counts):
        pass


_NULL = _NullSpan()


class Span:
    __slots__ = ("tracer", "name", "start", "end", "parent", "item", "counts")

    def __init__(self, tracer, name, counts):
        self.tracer = tracer
        self.name = name
        self.counts = counts
        self.start = self.end = 0.0
        self.parent = None
        self.item = tracer.item

    def __enter__(self):
        stack = self.tracer.stack
        self.parent = stack[-1] if stack else None
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.tracer.stack.pop()
        self.tracer.spans.append(self)
        return False

    def count(self, **counts):
        for key, n in counts.items():
            self.counts[key] = self.counts.get(key, 0) + n


class Tracer:
    """Spans kept in memory: name, start, end, parent span, item id and
    attached counts.  A disabled tracer hands out one shared no-op span."""

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.item = None

    def span(self, name: str, **counts):
        if not self.enabled:
            return _NULL
        return Span(self, name, dict(counts))


def self_times(spans) -> dict:
    """Self time per span: its duration minus the part of its interval that
    its direct children cover (overlapping children are merged first)."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(id(s), ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[id(s)] = (s.end - s.start) - covered
    return out


def layer_totals(spans, scales=None) -> tuple[dict, dict]:
    """Summed self time per span name, each span's multiplied by the scale
    of its item in ``scales`` when given, and summed counts per
    ``<span name>.<count key>``."""
    selfs = self_times(spans)
    seconds: dict[str, float] = {}
    counts: dict[str, int] = {}
    for s in spans:
        k = scales[s.item] if scales else 1.0
        seconds[s.name] = seconds.get(s.name, 0.0) + selfs[id(s)] * k
        for key, n in s.counts.items():
            name = f"{s.name}.{key}"
            counts[name] = counts.get(name, 0) + n
    return seconds, counts


# ---------------------------------------------------------------------------
# statistics

# Standard percentiles only, so that the reported one stays put when the
# sample count moves a little between runs.
PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)


def tail_percentile(values, min_beyond: int = 10) -> tuple[float, float, int]:
    """``(percentile, value, n)`` at the highest of :data:`PERCENTILES`
    whose nearest-rank value has at least ``min_beyond`` samples beyond it.
    With too few samples for any of them, the maximum (percentile 100)."""
    vals = sorted(values)
    n = len(vals)
    for p in PERCENTILES:
        rank = max(1, math.ceil(n * p / 100.0 - 1e-9))
        if n - rank >= min_beyond:
            return p, vals[rank - 1], n
    return 100.0, vals[-1], n


# ---------------------------------------------------------------------------
# host speed
#
# A host shared with other tenants runs the same code at changing speeds.
# On a 2-CPU Xeon VM the reference kernel below takes either about 0.56 ms
# or about 1.0 ms, switching from one second to the next and staying at
# either for anything from a tenth of a second to minutes.  The runner
# times the kernel between items and scales each item's times to a host on
# which the kernel takes REF_NOMINAL_S, so that the reported times follow
# the items' own cost and not the host's load.

REF_NOMINAL_S = 0.001


def reference_kernel():
    """Fixed pure-Python work of the kind the package does: integer
    arithmetic, tuple keys, dict updates and ``Fraction`` sums."""
    acc: dict = {}
    x = 1
    for i in range(1200):
        x = (x * 1103515245 + 12345) % 2147483648
        key = (x % 97, i % 13)
        acc[key] = acc.get(key, 0) + 1
    f = Fraction(0)
    for i in range(1, 50):
        f += Fraction(i % 7, i)
    return len(acc), f


def reference_s() -> float:
    """Wall seconds of one run of :func:`reference_kernel`."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def host_scale(samples) -> float:
    """``REF_NOMINAL_S`` over the median of reference samples: the factor
    that turns seconds measured alongside them into nominal seconds."""
    return REF_NOMINAL_S / statistics.median(samples)


class Checkpoints:
    """Reference samples taken at checkpoints of set-up, which does not
    split into items.  The time between two checkpoints is scaled by the
    samples on both sides of it, as an item's time is; sampling time is
    left out.  ``start`` and ``first_scale`` let the caller scale the time
    before the first checkpoint."""

    def __init__(self, per_checkpoint: int):
        self.per_checkpoint = per_checkpoint
        self.start = 0.0
        self.first_scale = 1.0
        self.scaled_s = 0.0
        self._last = None  # end time and samples of the last checkpoint

    def __call__(self):
        t0 = time.perf_counter()
        samples = [reference_s() for _ in range(self.per_checkpoint)]
        if self._last is None:
            self.start, self.first_scale = t0, host_scale(samples)
        else:
            end, before = self._last
            self.scaled_s += (t0 - end) * host_scale(before + samples)
        self._last = (time.perf_counter(), samples)


# ---------------------------------------------------------------------------
# running items

class ItemResult(NamedTuple):
    id: str
    wall: float
    cpu: float
    witness: Any  # None when the item passed
    scale: float = 1.0  # host_scale of the reference samples around it


def run_item(item: Item, tracer: Tracer) -> ItemResult:
    """Time one item (wall and process CPU), then run its oracle untimed."""
    tracer.item = item.id
    error = None
    out = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    with tracer.span("bench.item"):
        try:
            out = item.run(tracer)
        except Exception as exc:  # a raising item is a failed item
            error = f"raised {exc!r}"
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    tracer.item = None
    witness = error
    if witness is None:
        try:
            witness = item.check(out)
        except Exception as exc:
            witness = f"oracle raised {exc!r}"
    return ItemResult(item.id, wall, cpu, witness)


def run_passes(items, seconds: float) -> list[list[ItemResult]]:
    """Run every item in order, pass after pass, until ``seconds`` of wall
    time have passed (at least one pass).  The reference kernel runs
    between items, untimed as item work, and each item's scale is taken
    from the samples just before and just after it."""
    tracer = Tracer()
    passes: list[list[ItemResult]] = []
    deadline = time.perf_counter() + seconds
    before = reference_s()
    while True:
        results = []
        for item in items:
            result = run_item(item, tracer)
            after = reference_s()
            results.append(result._replace(
                scale=host_scale((before, after))))
            before = after
        passes.append(results)
        if time.perf_counter() >= deadline:
            return passes


def item_medians(passes, scaled: bool = True) -> list[ItemResult]:
    """One result per item: the median over its repeats of wall and of CPU
    time, each multiplied by the repeat's scale unless ``scaled`` is off.
    The item counts as failed if any repeat failed."""
    out = []
    for reps in zip(*passes):
        witness = next((r.witness for r in reps if r.witness is not None),
                       None)
        ks = [r.scale if scaled else 1.0 for r in reps]
        out.append(ItemResult(
            reps[0].id,
            statistics.median(r.wall * k for r, k in zip(reps, ks)),
            statistics.median(r.cpu * k for r, k in zip(reps, ks)),
            witness))
    return out


def run_traced(items, seconds: float):
    """Repeat the pass until ``seconds`` have passed (at least once),
    running every item twice in a row, once untraced and once traced, in
    alternating order, and the reference kernel after each pair.  Returns
    the untraced passes, the traced passes and, for each traced pass, its
    spans and the scale of each item id."""
    tracer = Tracer()
    plain: list[list[ItemResult]] = []
    traced: list[list[ItemResult]] = []
    reps: list[tuple[list[Span], dict]] = []
    deadline = time.perf_counter() + seconds
    before = reference_s()
    while True:
        tracer.spans = []
        scales = {}
        plain.append([])
        traced.append([])
        for i, item in enumerate(items):
            order = (False, True) if (len(reps) + i) % 2 else (True, False)
            pair = {}
            for enabled in order:
                tracer.enabled = enabled
                pair[enabled] = run_item(item, tracer)
            tracer.enabled = False
            after = reference_s()
            k = scales[item.id] = host_scale((before, after))
            before = after
            plain[-1].append(pair[False]._replace(scale=k))
            traced[-1].append(pair[True]._replace(scale=k))
        reps.append((tracer.spans, scales))
        if time.perf_counter() >= deadline:
            return plain, traced, reps


def items_per_s(results) -> float:
    done = sum(r.witness is None for r in results)
    return done / sum(r.wall for r in results)


def end_to_end(results) -> dict:
    """The per-run metrics computed from one result per item, as
    :func:`item_medians` gives them (``setup_s`` and ``peak_rss_mb`` are
    measured by the caller)."""
    ms = [r.wall * 1e3 for r in results]
    pct, tail, n = tail_percentile(ms)
    return {
        "items_per_s": items_per_s(results),
        "item_p50_ms": statistics.median(ms),
        "item_tail_ms": tail,
        "tail_percentile": pct,
        "cpu_s_per_item": sum(r.cpu for r in results) / len(results),
        "n": n,
    }


def per_layer(reps, plain, traced) -> dict:
    """Per-layer metrics of a traced run: scaled self seconds per pass (mean
    over the traced passes), counts of one pass (they repeat exactly), item
    time no layer span covers, and the tracing overhead, compared on the
    median repeat of each item."""
    nrep = len(reps)
    seconds: dict[str, float] = {}
    for spans, scales in reps:
        secs, _ = layer_totals(spans, scales)
        for name, s in secs.items():
            seconds[name] = seconds.get(name, 0.0) + s / nrep
    _, counts = layer_totals(reps[0][0])
    out = {f"{name}.s": s for name, s in seconds.items()
           if name != "bench.item"}
    out.update(counts)
    out["bench.unattributed_s"] = seconds.get("bench.item", 0.0)
    base = items_per_s(item_medians(plain))
    out["bench.trace_overhead_pct"] = (
        100.0 * (base - items_per_s(item_medians(traced))) / base
        if base else 0.0)
    return out
