"""Exact-arithmetic tests for phases, windows, and lattice 2-cocycles.

The cocycle-identity tests below were frozen from a brute-force oracle: the
four-factor identity is evaluated directly from the tables, with no reference
to the library's own checker, before the checker's verdict is asserted.
"""

import cmath
import importlib.util
import itertools
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus import cocycle, verify
from nctorus.cocycle import (
    BilinearCocycle,
    CochainTable,
    ExponentWindow,
    Phase,
    WindowError,
    bounding_cochain,
    check_cocycle,
    coboundary,
    normal_order_representative,
)
from nctorus.laurent import LaurentPoly, star_mul
from nctorus.verify import params_from_dict

fractions_st = st.fractions(min_value=-10, max_value=10, max_denominator=24)
phases_st = fractions_st.map(Phase)


def identity_defect(lam, t1, t2, t3):
    """Direct four-factor evaluation of the 2-cocycle identity (the oracle)."""
    s12 = tuple(a + b for a, b in zip(t1, t2))
    s23 = tuple(a + b for a, b in zip(t2, t3))
    return (lam(t1, t2) + lam(s12, t3)) - (lam(t1, s23) + lam(t2, t3))


# ---------------------------------------------------------------------------
# Phase

@given(fractions_st)
def test_phase_reduces_mod_one(q):
    p = Phase(q)
    assert 0 <= p.q < 1
    assert Phase(q + 3) == p


@given(phases_st, phases_st, phases_st)
def test_phase_group_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + Phase.zero() == a
    assert a + (-a) == Phase.zero()
    assert a - b == a + (-b)


@given(phases_st, st.integers(min_value=-7, max_value=7))
def test_phase_integer_multiple(a, n):
    total = Phase.zero()
    for _ in range(abs(n)):
        total = total + a
    if n < 0:
        total = -total
    assert n * a == total
    assert a * n == total


@given(phases_st, phases_st)
def test_phase_embed_is_multiplicative(a, b):
    assert abs((a + b).embed() - a.embed() * b.embed()) < 1e-12


def test_phase_embed_landmarks():
    assert Phase.zero().embed() == 1
    assert abs(Phase(1, 2).embed() - (-1)) < 1e-15
    assert abs(Phase(1, 4).embed() - 1j) < 1e-15
    assert abs(Phase(1, 3).embed() - complex(-0.5, np.sqrt(3) / 2)) < 1e-15


def test_phase_order():
    assert Phase(2, 6).order() == 3
    assert Phase.zero().order() == 1
    assert Phase(5, 12).order() == 12


def parse_phase(text):
    """Inverse of ``str``: ``"p/q"`` or a bare integer string."""
    return Phase(Fraction(text.strip()))


@given(phases_st)
def test_phase_str_parse_round_trip(a):
    assert parse_phase(str(a)) == a


def test_phase_parse_accepts_integers():
    assert parse_phase("2") == Phase.zero()
    assert parse_phase(" -1/4 ") == Phase(3, 4)


def test_phase_hashable():
    assert len({Phase(1, 2), Phase(2, 4), Phase(1, 3)}) == 2


# Exactness of the integer-pair representation, against a Fraction oracle.
# Numerators and denominators reach negative values and sizes around 2**70.
ints_st = st.one_of(st.integers(-60, 60),
                    st.integers(2 ** 70 - 60, 2 ** 70 + 60),
                    st.integers(-2 ** 70 - 60, -2 ** 70 + 60),
                    st.integers(-2 ** 80, 2 ** 80))
denominators_st = ints_st.filter(bool)


def assert_phase_is(p, exponent):
    """``p`` shows exactly what a Fraction-backed phase of ``exponent``
    showed: ``q``, order, equality, hash, ``str``, ``repr`` and ``embed``."""
    q = exponent % 1
    assert p.q == q and p.order() == q.denominator
    assert p == Phase(q)
    assert hash(p) == hash(q)
    assert str(p) == str(q) and repr(p) == f"Phase({q})"
    assert p.embed() == cmath.exp(2j * math.pi * float(q))
    assert bool(p) == (q != 0)


@given(ints_st, denominators_st)
def test_phase_pair_matches_fraction_oracle(n, d):
    assert_phase_is(Phase(n, d), Fraction(n, d))
    assert_phase_is(Phase(Fraction(n, d)), Fraction(n, d))
    assert Phase(n, d) == Phase(Fraction(n, d))
    assert Phase(n, d) == Phase(-n, -d)


@given(ints_st, denominators_st, ints_st, denominators_st,
       st.one_of(ints_st, st.booleans()))
def test_phase_arithmetic_matches_fraction_oracle(a, b, c, d, k):
    x, y = Phase(a, b), Phase(c, d)
    fx, fy = Fraction(a, b), Fraction(c, d)
    assert_phase_is(x + y, fx + fy)
    assert_phase_is(x - y, fx - fy)
    assert_phase_is(-x, -fx)
    assert_phase_is(k * x, k * fx)
    assert_phase_is(x * k, k * fx)


@pytest.mark.parametrize("n", [0, 1, -1, 7, 2 ** 70])
def test_phase_zero_denominator_raises(n):
    for args in [(n, 0), (np.int64(1), 0), (n, np.int64(0)),
                 (Fraction(1, 2), 0)]:
        with pytest.raises(ZeroDivisionError):
            Phase(*args)


def test_phase_numpy_and_bool_inputs():
    cases = [(np.int64(3), 4), (np.int64(3), np.int64(-4)),
             (np.int32(-5), np.int64(6)), (np.int64(2 ** 62 + 1), 3),
             (np.uint8(200), 7), (np.int64(-7), np.int64(-21)),
             (True, 2), (False, 3), (3, True), (True, 1)]
    for n, d in cases:
        p = Phase(n, d)
        assert_phase_is(p, Fraction(int(n), int(d)))
        assert type(p.order()) is int
    assert_phase_is(Phase(True), Fraction(0))
    assert_phase_is(Phase(np.int64(-3)), Fraction(0))
    with pytest.raises(TypeError):
        Phase(0.5)
    with pytest.raises(TypeError):
        Phase("1/2")


# ---------------------------------------------------------------------------
# ExponentWindow / CochainTable

def test_window_membership_and_iteration():
    w = ExponentWindow([(-1, 1), (0, 2)])
    assert w.g == 2
    assert len(w) == 9
    assert (0, 0) in w and (-1, 2) in w
    assert (2, 0) not in w and (0, 3) not in w
    assert (0,) not in w  # wrong rank
    assert sorted(w) == sorted((a, b) for a in (-1, 0, 1) for b in (0, 1, 2))


def test_window_centered_and_sample():
    w = ExponentWindow.centered(3, 2)
    assert w.bounds == ((-2, 2),) * 3
    rng = np.random.default_rng(7)
    for _ in range(50):
        assert w.sample(rng) in w


def test_window_rejects_empty_ranges():
    with pytest.raises(ValueError):
        ExponentWindow([(1, 0)])
    with pytest.raises(ValueError):
        ExponentWindow([])


def test_cochain_table_lookup_and_window_error():
    w = ExponentWindow.centered(1, 2)
    alpha = CochainTable.from_function(w, lambda t: Phase(t[0], 5), arity=1)
    assert alpha((2,)) == Phase(2, 5)
    assert alpha((-1,)) == Phase(4, 5)
    with pytest.raises(WindowError):
        alpha((3,))
    with pytest.raises(ValueError):
        alpha((1,), (1,))


def test_cochain_table_arity_two_domain():
    w = ExponentWindow.centered(1, 1)
    lam = CochainTable.from_function(w, lambda s, t: Phase(s[0] * t[0], 3),
                                     arity=2)
    assert lam((1,), (-1,)) == Phase(-1, 3)
    # (1,) + (1,) leaves the window, so the pair is not in the domain
    with pytest.raises(WindowError):
        lam((1,), (1,))


# ---------------------------------------------------------------------------
# BilinearCocycle

def test_bilinear_worked_example():
    lam = BilinearCocycle([[0, 1], [0, 0]], 4)
    e1, e2 = (1, 0), (0, 1)
    assert lam(e1, e2) == Phase(1, 4)
    assert lam(e2, e1) == Phase.zero()
    assert lam(e1, e2).embed() == pytest.approx(1j)
    assert lam.antisymmetrized() == ((0, 1), (3, 0))


def test_bilinear_entries_reduced_mod_n():
    lam = BilinearCocycle([[5, -1], [7, 3]], 3)
    assert lam.M == ((2, 2), (1, 0))
    assert lam == BilinearCocycle([[2, 2], [1, 0]], 3)


small_mats = st.integers(min_value=1, max_value=3).flatmap(
    lambda g: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=g, max_size=g),
        min_size=g, max_size=g))


@given(small_mats, st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=60)
def test_bilinearity(M, N, data):
    lam = BilinearCocycle(M, N)
    vec = st.tuples(*[st.integers(min_value=-4, max_value=4)] * lam.g)
    s, s2, t = data.draw(vec), data.draw(vec), data.draw(vec)
    ss2 = tuple(a + b for a, b in zip(s, s2))
    assert lam(ss2, t) == lam(s, t) + lam(s2, t)
    assert lam(t, ss2) == lam(t, s) + lam(t, s2)


@given(small_mats, st.integers(min_value=1, max_value=12))
@settings(max_examples=40)
def test_every_bilinear_table_is_a_cocycle(M, N):
    lam = BilinearCocycle(M, N)
    ok, witness = check_cocycle(lam, samples=40, rng=np.random.default_rng(3))
    assert ok and witness is None


def test_bilinear_roots_table():
    lam = BilinearCocycle([[1]], 6)
    assert lam.roots() == {}
    star_mul(LaurentPoly(1, {(k,): 1.0 for k in range(6)}),
             LaurentPoly(1, {(1,): 1.0}), lam)
    roots = lam.roots()
    assert sorted(roots) == list(range(6))
    for k, root in roots.items():
        assert root == pytest.approx(Phase(k, 6).embed())


def test_bilinear_roots_table_is_lazy():
    N = 2 ** 64
    lam = BilinearCocycle([[1]], N)
    prod = star_mul(LaurentPoly(1, {(1,): 1.0}),
                    LaurentPoly(1, {(N // 4,): 1.0, (-1,): 1.0}), lam)
    roots = lam.roots()
    assert roots.keys() == {N // 4, N - 1}
    assert roots[N // 4] == pytest.approx(1j)
    assert roots[N - 1] == pytest.approx(Phase(N - 1, N).embed())
    assert prod.coeff((N // 4 + 1,)) == roots[N // 4]
    assert prod.coeff((0,)) == roots[N - 1]


def test_bilinear_json_round_trip():
    """The CLI's parameter parser reads back what ``json`` wrote."""
    lam = BilinearCocycle([[0, 2], [1, 3]], 4)
    text = json.dumps({"M": [list(r) for r in lam.M], "N": lam.N, "g": lam.g})
    assert params_from_dict(json.loads(text)) == lam
    assert params_from_dict({"M": [[1]], "N": 2}) == BilinearCocycle([[1]], 2)
    with pytest.raises(ValueError):
        params_from_dict({"M": [[1]], "N": 2, "g": 5})


def eval_cocycle(M, N, s, t):
    """One-shot ``zeta_N ** (s . M t)`` summed term by term (the oracle)."""
    total = sum(int(si) * int(m) * int(tj)
                for si, row in zip(s, M) for m, tj in zip(row, t))
    return Phase(total, N)


def test_eval_cocycle_matches_class():
    M = [[1, 2, 0], [0, 1, 1], [3, 0, 2]]
    lam = BilinearCocycle(M, 5)
    rng = np.random.default_rng(11)
    for _ in range(25):
        s = tuple(int(x) for x in rng.integers(-5, 6, size=3))
        t = tuple(int(x) for x in rng.integers(-5, 6, size=3))
        assert eval_cocycle(M, 5, s, t) == lam(s, t)


def test_bilinear_rejects_bad_shapes():
    with pytest.raises(ValueError):
        BilinearCocycle([[1, 2]], 3)
    with pytest.raises(ValueError):
        BilinearCocycle([[1]], 0)
    with pytest.raises(ValueError):
        BilinearCocycle([[1]], 3).exponent((1, 2), (1,))
    for samples in (None, 5):
        with pytest.raises(ValueError, match="expected vectors of length 1"):
            check_cocycle(BilinearCocycle([[1]], 3), samples=samples,
                          window=ExponentWindow.centered(2, 1))


# ---------------------------------------------------------------------------
# check_cocycle on explicit tables (oracle-verified expectations)

def test_constant_cochain_is_a_cocycle():
    # Oracle: the identity telescopes for any constant table, since each side
    # contributes the constant exactly twice.  Verified by brute force below.
    w = ExponentWindow.centered(1, 2)
    const = CochainTable.from_function(w, lambda s, t: Phase(1, 3), arity=2)
    for t1 in w:
        for t2 in w:
            for t3 in w:
                try:
                    defect = identity_defect(const, t1, t2, t3)
                except WindowError:
                    continue
                assert defect == Phase.zero()
    ok, witness = check_cocycle(const, samples=None)
    assert ok and witness is None


def test_single_spike_table_violates_identity():
    w = ExponentWindow.centered(1, 2)
    spike = CochainTable.from_function(
        w, lambda s, t: Phase(1, 3) if (s, t) == ((1,), (1,)) else Phase.zero(),
        arity=2)
    # Oracle: cross-check one violating triple by hand before asking the
    # checker.  At (t1, t2, t3) = ((1,), (1,), (-1,)) the left side picks up
    # the spike and the right side does not.
    assert identity_defect(spike, (1,), (1,), (-1,)) == Phase(1, 3)
    ok, witness = check_cocycle(spike, samples=None)
    assert not ok
    assert identity_defect(spike, *witness) != Phase.zero()


def test_check_cocycle_seeded_runs_agree():
    w = ExponentWindow.centered(2, 2)
    lam = BilinearCocycle([[0, 1], [2, 0]], 5)
    r1 = check_cocycle(lam, window=w, samples=60, rng=np.random.default_rng(9))
    r2 = check_cocycle(lam, window=w, samples=60, rng=np.random.default_rng(9))
    assert r1 == r2 == (True, None)


def test_check_cocycle_requires_some_window():
    with pytest.raises(ValueError):
        check_cocycle(lambda s, t: Phase.zero())


def unbuilt(window):
    raise AssertionError("the window was enumerated")


def test_exhaustive_check_refuses_an_oversized_window_unbuilt(monkeypatch):
    """A window past the limit is refused before a single point is
    enumerated; one at the limit, or a sampled check of any window, goes
    on to its triples."""
    limit = cocycle.MAX_EXHAUSTIVE_POINTS
    lam = BilinearCocycle([[0, 1], [0, 0]], 6)
    monkeypatch.setattr(ExponentWindow, "__iter__", unbuilt)
    for window in (ExponentWindow([(1, limit + 1), (0, 0)]),
                   ExponentWindow.centered(2, 10 ** 6)):
        for cochain in (lam, lambda s, t: Phase.zero()):
            with pytest.raises(ValueError, match=f"at most {limit}$"):
                check_cocycle(cochain, window, samples=None)
        assert check_cocycle(lam, window, samples=50) == (True, None)
    with pytest.raises(AssertionError, match="enumerated"):
        check_cocycle(lam, ExponentWindow([(1, limit), (0, 0)]),
                      samples=None)


@pytest.mark.parametrize("params", [None, {"M": [[1]], "N": 5}])
def test_verify_checks_every_triple_only_far_below_the_limit(monkeypatch,
                                                             params):
    """The exhaustive check of the full grid still runs with a limit 40
    times lower."""
    monkeypatch.setattr(cocycle, "MAX_EXHAUSTIVE_POINTS",
                        cocycle.MAX_EXHAUSTIVE_POINTS // 40)
    results = verify.run_battery("cocycle", grid="full", params=params)
    assert results[0].name == "cocycle-identity"
    assert all(r.ok for r in results)


# ---------------------------------------------------------------------------
# check_cocycle against the loop it replaced

def loop_sample(window, rng):
    """One vector drawn one ``rng.integers`` call per coordinate (the
    stream oracle for ``ExponentWindow.sample``)."""
    return tuple(int(rng.integers(lo, hi + 1)) for lo, hi in window.bounds)


def loop_check_cocycle(lam, window=None, samples=200, rng=None):
    """The triple-at-a-time checker the array version replaced (the oracle):
    per-coordinate draws, four exponent evaluations per bilinear triple,
    and a stop at the first violation."""
    if window is None:
        window = getattr(lam, "window", None)
    if window is None:
        window = ExponentWindow.centered(lam.g, 2)

    def add(s, t):
        return tuple(a + b for a, b in zip(s, t))

    if isinstance(lam, BilinearCocycle):
        e = lam.exponent

        def violates(t1, t2, t3):
            return (e(t1, t2) + e(add(t1, t2), t3) - e(t1, add(t2, t3))
                    - e(t2, t3)) % lam.N != 0
    else:
        def violates(t1, t2, t3):
            try:
                lhs = lam(t1, t2) + lam(add(t1, t2), t3)
                rhs = lam(t1, add(t2, t3)) + lam(t2, t3)
            except WindowError:
                return False
            return lhs != rhs

    if samples is None:
        for t1, t2, t3 in itertools.product(window, repeat=3):
            if violates(t1, t2, t3):
                return False, (t1, t2, t3)
        return True, None
    if rng is None:
        rng = np.random.default_rng(0)
    for _ in range(samples):
        t1, t2, t3 = (loop_sample(window, rng) for _ in range(3))
        if violates(t1, t2, t3):
            return False, (t1, t2, t3)
    return True, None


STREAM_WINDOWS = [
    ExponentWindow.centered(1, 2),
    ExponentWindow([(-3, 1), (0, 4)]),
    ExponentWindow([(-2, 2), (5, 5), (-1, 0)]),
    ExponentWindow([(-10 ** 12, 10 ** 12), (0, 1)]),
    ExponentWindow([(0, 2 ** 32 - 1), (-2 ** 62, 2 ** 62)]),
]


@pytest.mark.parametrize("window", STREAM_WINDOWS, ids=repr)
@pytest.mark.parametrize("count", [0, 1, 2, 7, 300])
def test_batch_draw_is_the_per_coordinate_stream(window, count):
    batch_rng, loop_rng = np.random.default_rng(5), np.random.default_rng(5)
    batch = window.sample(batch_rng, (count, 3))
    assert batch.shape == (count, 3, window.g) and batch.dtype == np.int64
    assert batch.tolist() == [[list(loop_sample(window, loop_rng))
                               for _ in range(3)] for _ in range(count)]
    assert window.sample(batch_rng) == loop_sample(window, loop_rng)
    assert window.sample(batch_rng, (2,)).tolist() == [
        list(loop_sample(window, loop_rng)) for _ in range(2)]
    assert batch_rng.integers(0, 1000, 9).tolist() == \
        loop_rng.integers(0, 1000, 9).tolist()
    assert batch_rng.random() == loop_rng.random()


def spike_table():
    w = ExponentWindow.centered(1, 2)
    return CochainTable.from_function(
        w, lambda s, t: Phase(1, 3) if (s, t) == ((1,), (1,)) else Phase.zero(),
        arity=2)


def random_table():
    rng = np.random.default_rng(4)
    return CochainTable.from_function(
        ExponentWindow.centered(2, 1),
        lambda s, t: Phase(int(rng.integers(0, 2)), 2), arity=2)


def twisted_coboundary():
    alpha = bounding_cochain([[2, 1], [1, 0]], 5,
                             window=ExponentWindow.centered(2, 2))
    return coboundary(alpha, BilinearCocycle([[0, 3], [1, 1]], 5))


COCHAINS = {
    "bilinear-g1": BilinearCocycle([[3]], 7),
    "bilinear-g2": BilinearCocycle([[1, 2], [3, 1]], 4),
    "bilinear-g3": BilinearCocycle([[0, 1, 2], [0, 0, 3], [0, 0, 0]], 12),
    "bilinear-2**64": BilinearCocycle([[0, 1], [0, 0]], 2 ** 64),
    "constant": CochainTable.from_function(
        ExponentWindow.centered(1, 2), lambda s, t: Phase(1, 3), arity=2),
    "spike": spike_table(),
    "table": random_table(),
    "coboundary": twisted_coboundary(),
    "callable": lambda s, t: Phase(s[0] * s[0] * t[0], 5),
}


@pytest.mark.parametrize("name", COCHAINS)
@pytest.mark.parametrize("samples", [None, 0, 1, 40, 300])
def test_check_cocycle_matches_the_loop_oracle(name, samples):
    lam = COCHAINS[name]
    if samples is None and name == "bilinear-g3":
        samples = 2000
    window = ExponentWindow.centered(1, 2) if name == "callable" else None
    for seed in (0,) if samples is None else (0, 3, 7):
        want = loop_check_cocycle(lam, window, samples,
                                  np.random.default_rng(seed))
        got = check_cocycle(lam, window, samples, np.random.default_rng(seed))
        assert got == want
        if got[1] is not None:
            assert all(type(x) is int for t in got[1] for x in t)
    if name in ("spike", "table", "callable"):
        assert check_cocycle(lam, window, samples=None)[0] is False


def test_check_cocycle_draws_every_sample_whatever_it_finds():
    spike = spike_table()
    rng, ref = np.random.default_rng(1), np.random.default_rng(1)
    ok, witness = check_cocycle(spike, samples=200, rng=rng)
    assert not ok and witness is not None
    spike.window.sample(ref, (200, 3))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_check_cocycle_refuses_before_drawing():
    lam = BilinearCocycle([[1, 2], [0, 1]], 5)
    rng = np.random.default_rng(2)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="samples must be non-negative"):
        check_cocycle(lam, samples=-1, rng=rng)
    with pytest.raises(ValueError, match="expected vectors of length 2"):
        check_cocycle(lam, window=ExponentWindow.centered(3, 1), samples=5,
                      rng=rng)
    assert rng.bit_generator.state == before
    assert check_cocycle(lam, samples=0, rng=rng) == (True, None)
    assert rng.bit_generator.state == before


def quadratic_exponent(a, b):
    """``a_0^2 b_0 + a_1 b_1``: quadratic in ``a``, so not a cocycle."""
    return a[0] * a[0] * b[0] + a[1] * b[1]


@pytest.mark.parametrize("samples", [None, 300])
def test_first_violation_names_the_oracles_first_triple(samples):
    N = 7
    window = ExponentWindow.centered(2, 2)
    lam = CochainTable.from_function(
        window, lambda s, t: Phase(quadratic_exponent(s, t), N), arity=2)
    unbounded = lambda s, t: Phase(quadratic_exponent(s, t), N)
    ok, witness = loop_check_cocycle(unbounded, window, samples,
                                     np.random.default_rng(11))
    assert not ok
    if samples is None:
        triples = np.array(list(itertools.product(window, repeat=3)))
    else:
        triples = window.sample(np.random.default_rng(11), (samples, 3))
    row = cocycle._first_violation(quadratic_exponent, N,
                                   *triples.transpose(1, 2, 0))
    assert tuple(map(tuple, triples[row].tolist())) == witness
    # the table stops at its window, so its own first violation can be later
    assert check_cocycle(lam, window, samples,
                         np.random.default_rng(11)) == loop_check_cocycle(
        lam, window, samples, np.random.default_rng(11))


@pytest.mark.parametrize("N, radius, dtype", [
    (2 ** 70, 10 ** 6, object), (2 ** 64, 2, object), (12, 2, np.int64),
    (2 ** 40, 2 ** 7, np.int64), (2 ** 40, 2 ** 8, object)])
def test_large_exponents_take_python_ints(monkeypatch, N, radius, dtype):
    seen = []
    first = cocycle._first_violation

    def spy(exponent, N, t1, t2, t3):
        seen.append(t1.dtype)
        return first(exponent, N, t1, t2, t3)

    monkeypatch.setattr(cocycle, "_first_violation", spy)
    lam = BilinearCocycle([[0, 1], [N - 1, 3]], N)
    window = ExponentWindow.centered(2, radius)
    assert check_cocycle(lam, window, samples=200,
                         rng=np.random.default_rng(0)) == (True, None)
    assert seen == [np.dtype(dtype)]
    assert loop_check_cocycle(lam, window, 200,
                              np.random.default_rng(0)) == (True, None)


# ---------------------------------------------------------------------------
# coboundary / bounding_cochain / normal order

def test_coboundary_of_quadratic_cochain_shifts_matrix():
    N = 6
    S = [[2, 3], [3, 4]]
    M = [[1, 5], [2, 3]]
    w = ExponentWindow.centered(2, 4)
    alpha = bounding_cochain(S, N, window=w)
    twisted = coboundary(alpha, BilinearCocycle(M, N))
    target = BilinearCocycle(
        [[M[i][j] - S[i][j] for j in range(2)] for i in range(2)], N)
    for s in w:
        for t in w:
            if tuple(a + b for a, b in zip(s, t)) in w:
                assert twisted(s, t) == target(s, t)


def test_bare_coboundary_is_minus_s_pairing():
    N = 4
    S = [[1, 2], [2, 3]]
    alpha = bounding_cochain(S, N, window=ExponentWindow.centered(2, 3))
    d_alpha = coboundary(alpha)
    lam_S = BilinearCocycle(S, N)
    rng = np.random.default_rng(5)
    for _ in range(40):
        s = tuple(int(x) for x in rng.integers(-1, 2, size=2))
        t = tuple(int(x) for x in rng.integers(-1, 2, size=2))
        assert d_alpha(s, t) == -lam_S(s, t)


def test_twisted_cocycle_still_passes_checker():
    alpha = bounding_cochain([[2, 1], [1, 0]], 5,
                             window=ExponentWindow.centered(2, 3))
    twisted = coboundary(alpha, BilinearCocycle([[0, 3], [1, 1]], 5))
    ok, witness = check_cocycle(twisted, samples=150,
                                rng=np.random.default_rng(13))
    assert ok and witness is None


def test_bounding_cochain_validates_symmetry():
    with pytest.raises(ValueError):
        bounding_cochain([[0, 1], [2, 0]], 5)
    # symmetric only after reduction mod N: 1 == 4 mod 3
    alpha = bounding_cochain([[0, 1], [4, 0]], 3)
    assert alpha.window == ExponentWindow.centered(2, 8)


def test_materialized_coboundary_matches_lazy():
    alpha = bounding_cochain([[1]], 3, window=ExponentWindow.centered(1, 2))
    lazy = coboundary(alpha)
    table = CochainTable.from_function(lazy.window, lazy.fn, lazy.arity)
    assert table((1,), (1,)) == lazy((1,), (1,))
    with pytest.raises(WindowError):
        lazy((2,), (2,))


# ---------------------------------------------------------------------------
# verify's coboundary check against the pair loop it replaced

_spec = importlib.util.spec_from_file_location(
    "verify_diff", os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tools", "verify_diff.py"))
verify_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verify_diff)


def loop_coboundary_shift(alpha, lam, target):
    """The first pair of the radius-2 window, in product order, where the
    twist of ``lam`` by the coboundary of ``alpha`` differs from
    ``target``, one ``Phase`` comparison at a time (the oracle)."""
    shifted = coboundary(alpha, lam)
    for s, t in itertools.product(ExponentWindow.centered(lam.g, 2),
                                  repeat=2):
        if shifted(s, t) != target(s, t):
            return False, (s, t)
    return True, None


def coboundary_run(monkeypatch, params, seed, grid, spoil):
    """The battery's ``coboundary-shifts-matrix`` result with the cochain
    ``spoil(S, N)`` in place of the bounding cochain of its random ``S``,
    and the oracle's verdict on the same cochain."""
    drawn = []

    def spoiled(S, N, window=None):
        # the battery passes the window it reads; ``spoil``'s default
        # window contains it
        drawn.append((S, N))
        return spoil(S, N)

    monkeypatch.setattr(verify, "bounding_cochain", spoiled)
    result, = [r for r in verify.battery_cocycle(seed, grid, params)
               if r.name == "coboundary-shifts-matrix"]
    (S, N), = drawn
    lam = params_from_dict(params)
    target = BilinearCocycle([[lam.M[i][j] - S[i][j] for j in range(lam.g)]
                              for i in range(lam.g)], N)
    return result, loop_coboundary_shift(spoil(S, N), lam, target)


def bump(i, j, step):
    """The bounding cochain of ``S`` with ``step`` added at ``(i, j)`` and
    ``(j, i)``."""
    def spoil(S, N):
        S = [row[:] for row in S]
        S[i][j] += step
        S[j][i] = S[i][j]
        return bounding_cochain(S, N)
    return spoil


def finer(S, N):
    """The bounding cochain of ``2S + E_00`` at ``2N``: that of ``S`` plus
    ``t_0 (t_0 - 1) / 4N``, phases of order ``2N``."""
    return bounding_cochain([[2 * x + (i == j == 0) for j, x in enumerate(row)]
                             for i, row in enumerate(S)], 2 * N)


def with_character(S, N):
    """The bounding cochain of ``S`` times the character ``t_0 / 2N``, of
    order ``2N`` but with no coboundary."""
    alpha = bounding_cochain(S, N)
    return CochainTable(alpha.window, {t: p + Phase(t[0], 2 * N)
                                       for t, p in alpha.table.items()}, 1)


@pytest.mark.parametrize("spoil", [
    bump(0, 1, 2), bump(0, 1, 1), bump(1, 1, 1), bump(0, 0, 3), finer],
    ids=["S01+2", "S01+1", "S11+1", "S00+3", "finer"])
@pytest.mark.parametrize("params", [None, {"M": [[1, 2], [0, 3]], "N": 8}],
                         ids=["default", "N8"])
def test_coboundary_check_names_the_pair_loop_first_witness(monkeypatch,
                                                            params, spoil):
    """A spoiled cochain fails the check at the oracle's first pair, which
    prints the same (a numpy int would print as ``np.int64(...)``)."""
    params = params or verify.default_params()
    result, (ok, witness) = coboundary_run(monkeypatch, params, 0, "small",
                                           spoil)
    assert not ok
    assert (result.ok, result.max_dev, result.witness) == (False, 1.0,
                                                           witness)
    assert str(result.witness) == str(witness)
    assert result.to_dict()["witness"] == str(witness)
    assert all(type(x) is int for v in result.witness for x in v)


def test_a_spoiled_cochain_can_first_fail_past_the_first_pair(monkeypatch):
    """At ``N = 4`` a step of 2 off the diagonal first shows where
    ``s_0 t_1 + s_1 t_0`` is odd: at the 31st pair.  An order running
    ``t`` slower than ``s`` would name the transposed pair."""
    result, oracle = coboundary_run(monkeypatch, verify.default_params(), 0,
                                    "small", bump(0, 1, 2))
    assert result.witness == oracle[1] == ((-2, -1), (-1, -2))


@pytest.mark.parametrize("grid", ["small", "full"])
@pytest.mark.parametrize("params", [
    None, verify_diff.PARAMS[1], verify_diff.PARAMS[3]],
    ids=["default", "g3", "N2pow64"])
def test_coboundary_check_agrees_with_the_pair_loop(monkeypatch, params,
                                                    grid):
    """The default parameters and the g = 3 and ``N = 2**64`` entries that
    ``tools/verify_diff.py`` compares: both pass, and a spoiled cochain
    fails at the same pair in both.  A character times the cochain, of
    order ``2N``, passes: exponents are read over the phases' common
    order."""
    params = params or verify.default_params()
    for seed, spoil, ok in [(7, bounding_cochain, True),
                            (5, with_character, True),
                            (3, bump(0, 0, 1), False)]:
        with monkeypatch.context() as m:
            result, oracle = coboundary_run(m, params, seed, grid, spoil)
        assert (result.ok, result.witness) == oracle
        assert result.ok == ok


def test_normal_order_representative_shape_and_class():
    lam = BilinearCocycle([[0, 1], [0, 0]], 4)
    L = normal_order_representative(lam)
    assert L.M == ((0, 0), (3, 0))
    assert L.antisymmetrized() == lam.antisymmetrized()
    assert L.N == lam.N


@given(small_mats, st.integers(min_value=1, max_value=12))
@settings(max_examples=40)
def test_normal_order_representative_properties(M, N):
    lam = BilinearCocycle(M, N)
    L = normal_order_representative(lam)
    for i in range(L.g):
        for j in range(i, L.g):
            assert L.M[i][j] == 0
    assert L.antisymmetrized() == lam.antisymmetrized()
    assert normal_order_representative(L) == L
