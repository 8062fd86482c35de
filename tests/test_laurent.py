"""Star-product tests, checked against an independent brute-force convolution."""

import cmath
import math
from operator import add, mul

import numpy as np
import pytest

from nctorus import laurent
from nctorus.cocycle import (
    BilinearCocycle,
    ExponentWindow,
    Phase,
    WindowError,
    bounding_cochain,
    coboundary,
    normal_order_representative,
)
from nctorus.laurent import (
    LaurentPoly,
    coboundary_transform,
    majorant_norm,
    max_coeff_diff,
    star_mul,
    translate,
)


def oracle_star(f, h, M, N):
    """Reference product computed from scratch with cmath only."""
    zeta = cmath.exp(2j * math.pi / N)
    out = {}
    for t1, a in f.coeffs.items():
        for t2, b in h.coeffs.items():
            t = tuple(x + y for x, y in zip(t1, t2))
            e = sum(t1[i] * M[i][j] * t2[j]
                    for i in range(len(t1)) for j in range(len(t2)))
            out[t] = out.get(t, 0j) + zeta ** (e % N) * a * b
    return LaurentPoly(f.g, out)


def random_poly(rng, g, terms=4, radius=2):
    coeffs = {}
    for _ in range(terms):
        t = tuple(int(x) for x in rng.integers(-radius, radius + 1, size=g))
        coeffs[t] = complex(rng.normal(), rng.normal())
    return LaurentPoly(g, coeffs)


def test_construction_drops_exact_zeros():
    f = LaurentPoly(2, {(0, 0): 1.0, (1, 0): 0.0, (0, 1): 2j})
    assert f.support() == [(0, 0), (0, 1)]
    assert f.coeff((1, 0)) == 0
    assert LaurentPoly.zero(2) == LaurentPoly(2, {})
    assert not LaurentPoly.zero(2)
    assert LaurentPoly.one(1).coeffs == {(0,): 1.0 + 0j}


def test_construction_merges_duplicate_keys():
    f = LaurentPoly(1, {(1,): 2.0})
    h = LaurentPoly(1, {(1,): -2.0})
    assert (f + h) == LaurentPoly.zero(1)


def test_construction_takes_integer_exponents_only():
    """Exponents pass ``operator.index``: numpy integers and ``bool`` are
    integers, a float (``np.float64`` too, even an integral one) is refused
    instead of truncated."""
    f = LaurentPoly(2, {(np.int64(3), True): 2.0, (np.int64(-1), 0): 1j})
    assert f.coeffs == {(3, 1): 2 + 0j, (-1, 0): 1j}
    assert all(type(a) is int for t in f.coeffs for a in t)
    for bad in [(1.5,), (np.float64(2.0),), (2.0,)]:
        with pytest.raises(TypeError):
            LaurentPoly(1, {bad: 2.0, (1,): 1.0})
    with pytest.raises(TypeError):
        LaurentPoly(2, {(True, 0.9): 1.0})


def test_vector_space_operations():
    x = LaurentPoly.monomial(1, (1,))
    y = LaurentPoly.monomial(1, (-1,), 3.0)
    assert (x + y).coeff((1,)) == 1.0
    assert (x - y).coeff((-1,)) == -3.0
    assert (2j * x).coeff((1,)) == 2j
    assert (x * 2j) == (2j * x)
    with pytest.raises(TypeError):
        x * y  # noqa: B018 -- polynomials need a cocycle to multiply


def test_trivial_cocycle_is_plain_multiplication():
    one_plus_x = LaurentPoly(1, {(0,): 1.0, (1,): 1.0})
    sq = star_mul(one_plus_x, one_plus_x, BilinearCocycle.trivial(1, 2))
    assert sq == LaurentPoly(1, {(0,): 1.0, (1,): 2.0, (2,): 1.0})
    # a coefficient that cancels to exactly 0 leaves no key behind
    one_minus_x = LaurentPoly(1, {(0,): 1.0, (1,): -1.0})
    prod = star_mul(one_plus_x, one_minus_x, BilinearCocycle.trivial(1, 2))
    assert prod.coeffs == {(0,): 1.0 + 0j, (2,): -1.0 + 0j}


def test_generator_commutation_convention():
    # with relation constant i on the (1,2) pair: t2 * t1 = (1/i) * t1 * t2
    lam = normal_order_representative(BilinearCocycle([[0, 1], [0, 0]], 4))
    t1 = LaurentPoly.monomial(2, (1, 0))
    t2 = LaurentPoly.monomial(2, (0, 1))
    forward = star_mul(t1, t2, lam)
    backward = star_mul(t2, t1, lam)
    assert forward == LaurentPoly.monomial(2, (1, 1))
    assert max_coeff_diff(backward, LaurentPoly.monomial(2, (1, 1), -1j)) < 1e-15


def test_star_matches_brute_force_oracle():
    rng = np.random.default_rng(4)
    for g, N in [(1, 2), (2, 3), (2, 4), (3, 6)]:
        M = [[int(rng.integers(0, N)) for _ in range(g)] for _ in range(g)]
        lam = BilinearCocycle(M, N)
        for _ in range(5):
            f = random_poly(rng, g)
            h = random_poly(rng, g)
            assert max_coeff_diff(star_mul(f, h, lam),
                                  oracle_star(f, h, M, N)) < 1e-12


def test_star_exact_for_exponents_beyond_int64():
    # 2**70 * 2**65 * M[0][1] overflows any fixed-width integer; the phase
    # must still be the exact residue mod N
    big = 2 ** 70
    for g, M, N in [(1, [[1]], 3), (2, [[3, 5], [7, 11]], 12)]:
        lam = BilinearCocycle(M, N)
        f = LaurentPoly(g, {(big,) + (-3,) * (g - 1): 1.5 - 2j,
                            (1,) + (2 ** 65,) * (g - 1): -0.25j,
                            (0,) * g: 1.0})
        h = LaurentPoly(g, {(1,) * g: 2.0, (-big,) * g: 0.5j})
        for x, y in [(f, h), (h, f), (f, f)]:
            prod = star_mul(x, y, lam)
            want = oracle_star(x, y, M, N)
            assert set(prod.coeffs) == set(want.coeffs)
            assert max_coeff_diff(prod, want) < 1e-12


def test_star_associative_sampled():
    rng = np.random.default_rng(5)
    for g, N in [(1, 4), (2, 3), (2, 12), (3, 2)]:
        M = [[int(rng.integers(0, N)) for _ in range(g)] for _ in range(g)]
        lam = BilinearCocycle(M, N)
        for _ in range(5):
            f, h, k = (random_poly(rng, g) for _ in range(3))
            left = star_mul(star_mul(f, h, lam), k, lam)
            right = star_mul(f, star_mul(h, k, lam), lam)
            assert max_coeff_diff(left, right) < 1e-9


def test_star_generic_cochain_path():
    # a window-bounded cochain multiplies like its bilinear counterpart
    N, S = 5, [[2, 1], [1, 3]]
    alpha = bounding_cochain(S, N, window=ExponentWindow.centered(2, 6))
    lam2 = coboundary(alpha, BilinearCocycle.trivial(2, N))
    target = BilinearCocycle([[-s for s in row] for row in S], N)
    rng = np.random.default_rng(6)
    f = random_poly(rng, 2)
    h = random_poly(rng, 2)
    assert max_coeff_diff(star_mul(f, h, lam2),
                          star_mul(f, h, target)) < 1e-12


def test_star_window_overflow_raises():
    alpha = bounding_cochain([[1]], 3, window=ExponentWindow.centered(1, 2))
    lam2 = coboundary(alpha, None)
    big = LaurentPoly.monomial(1, (2,))
    with pytest.raises(WindowError):
        star_mul(big, big, lam2)


def test_majorant_norm_values():
    f = LaurentPoly(1, {(0,): 2.0, (-1,): 3.0})
    assert majorant_norm(f) == 5.0
    assert majorant_norm(f, (2.0,)) == pytest.approx(2.0 + 3.0 / 2.0)
    assert majorant_norm(LaurentPoly.zero(2)) == 0.0
    with pytest.raises(ValueError):
        majorant_norm(f, (0.0,))
    with pytest.raises(ValueError):
        majorant_norm(f, (1.0, 1.0))


def test_majorant_norm_submultiplicative_sampled():
    rng = np.random.default_rng(7)
    for g, N in [(1, 3), (2, 4), (3, 6)]:
        M = [[int(rng.integers(0, N)) for _ in range(g)] for _ in range(g)]
        lam = BilinearCocycle(M, N)
        for _ in range(8):
            f = random_poly(rng, g)
            h = random_poly(rng, g)
            w = tuple(float(x) for x in rng.uniform(0.3, 3.0, size=g))
            assert majorant_norm(star_mul(f, h, lam), w) <= \
                majorant_norm(f, w) * majorant_norm(h, w) + 1e-12


def test_translate_values_and_composition():
    x = LaurentPoly.monomial(1, (1,))
    assert translate(x, (2.0,)).coeff((1,)) == pytest.approx(0.5)
    f = LaurentPoly(2, {(1, -2): 4.0})
    a, b = (2.0, 1j), (0.5j, -1.0)
    ab = tuple(p * q for p, q in zip(a, b))
    assert max_coeff_diff(translate(translate(f, a), b), translate(f, ab)) < 1e-12
    assert translate(f, (1.0, 1.0)) == f
    with pytest.raises(ValueError):
        translate(f, (0.0, 1.0))


def test_translate_commutes_with_star():
    rng = np.random.default_rng(8)
    lam = BilinearCocycle([[1, 2], [0, 3]], 4)
    f = random_poly(rng, 2)
    h = random_poly(rng, 2)
    z = (1.5 + 0.5j, -0.25 + 1j)
    assert max_coeff_diff(translate(star_mul(f, h, lam), z),
                          star_mul(translate(f, z), translate(h, z), lam)) < 1e-9


def test_coboundary_transform_intertwines_products():
    # T maps the twisted product to the base product:
    #   T(f *_{lam'} h) == T(f) *_lam T(h)   with lam' = coboundary(alpha, lam)
    N = 6
    M = [[0, 4], [1, 2]]
    S = [[2, 5], [5, 0]]
    lam = BilinearCocycle(M, N)
    alpha = bounding_cochain(S, N)  # default window is wide enough
    lam2 = coboundary(alpha, lam)
    rng = np.random.default_rng(9)
    for _ in range(6):
        f = random_poly(rng, 2)
        h = random_poly(rng, 2)
        left = coboundary_transform(star_mul(f, h, lam2), alpha)
        right = star_mul(coboundary_transform(f, alpha),
                         coboundary_transform(h, alpha), lam)
        assert max_coeff_diff(left, right) < 1e-9
        # and the twisted product agrees with the shifted matrix directly
        shifted = BilinearCocycle(
            [[M[i][j] - S[i][j] for j in range(2)] for i in range(2)], N)
        assert max_coeff_diff(star_mul(f, h, lam2),
                              star_mul(f, h, shifted)) < 1e-12


def test_coboundary_transform_outside_window_raises():
    alpha = bounding_cochain([[1]], 4, window=ExponentWindow.centered(1, 1))
    with pytest.raises(WindowError):
        coboundary_transform(LaurentPoly.monomial(1, (5,)), alpha)


def test_commutes_when_supported_on_commutant():
    # antisymmetrization [[0,1],[1,0]] mod 2: the commutant is 2 Z^2,
    # so even-exponent polynomials commute while generators do not
    lam = BilinearCocycle([[0, 1], [0, 0]], 2)
    rng = np.random.default_rng(10)
    f = LaurentPoly(2, {(2 * int(a), 2 * int(b)): complex(rng.normal(), rng.normal())
                        for a, b in rng.integers(-2, 3, size=(4, 2))})
    h = LaurentPoly(2, {(2 * int(a), 2 * int(b)): complex(rng.normal(), rng.normal())
                        for a, b in rng.integers(-2, 3, size=(4, 2))})
    assert max_coeff_diff(star_mul(f, h, lam), star_mul(h, f, lam)) < 1e-12
    t1 = LaurentPoly.monomial(2, (1, 0))
    t2 = LaurentPoly.monomial(2, (0, 1))
    assert max_coeff_diff(star_mul(t1, t2, lam), star_mul(t2, t1, lam)) > 0.5


def test_max_coeff_diff_basics():
    f = LaurentPoly(1, {(0,): 1.0})
    h = LaurentPoly(1, {(0,): 1.0, (3,): 2.0})
    assert max_coeff_diff(f, f) == 0.0
    assert max_coeff_diff(f, h) == 2.0


def test_max_coeff_diff_counts_a_nan_as_infinite():
    """Python's ``max`` keeps a NaN only when it comes first."""
    nan = float("nan")
    f = LaurentPoly(1, {(0,): 1.0, (1,): nan})
    h = LaurentPoly(1, {(0,): 1.5, (1,): 1.0})
    assert max_coeff_diff(f, h) == max_coeff_diff(h, f) == math.inf
    assert max_coeff_diff(f, f) == math.inf


# ---------------------------------------------------------------------------
# star_mul against the per-pair loop it replaced

def loop_star_mul(f, h, lam):
    """The product one term pair at a time (the oracle): the root index of
    a bilinear cocycle from the row ``u = t1 . M``, other cochains phase by
    phase, each pair's ``phase * a * b`` added in ``(t1, t2)`` order."""
    if f.g != h.g:
        raise ValueError("rank mismatch")
    out = {}
    if isinstance(lam, BilinearCocycle):
        if lam.g != f.g:
            raise ValueError("cocycle rank mismatch")
        roots, N, cols = lam.roots(), lam.N, tuple(zip(*lam.M))
        for t1, a in f.coeffs.items():
            u = [sum(map(mul, t1, col)) for col in cols]
            for t2, b in h.coeffs.items():
                t = tuple(map(add, t1, t2))
                k = sum(map(mul, u, t2)) % N
                try:
                    root = roots[k]
                except KeyError:
                    root = roots[k] = cmath.exp(2j * math.pi * k / N)
                out[t] = out.get(t, 0j) + root * a * b
    else:
        for t1, a in f.coeffs.items():
            for t2, b in h.coeffs.items():
                t = tuple(x + y for x, y in zip(t1, t2))
                out[t] = out.get(t, 0j) + lam(t1, t2).embed() * a * b
    return LaurentPoly(f.g, out)


def assert_same_product(f, h, lam, oracle_lam=None):
    """``star_mul`` equals the loop exactly, key order included; the loop
    runs on its own copy of a bilinear cocycle, so both fill a root cache
    from empty and must fill it alike."""
    got = star_mul(f, h, lam)
    want = loop_star_mul(f, h, lam if oracle_lam is None else oracle_lam)
    assert got.g == want.g
    assert got.coeffs == want.coeffs
    assert list(got.coeffs) == list(want.coeffs)
    if oracle_lam is not None:
        assert lam.roots() == oracle_lam.roots()
    return got


def test_star_mul_equals_the_loop_on_the_benchmark_shapes():
    """g 1-3, N in {2, 3, 4, 6, 12}: 8 x 8 terms, then 64 x 8 and 8 x 64
    with the 64-term product as one factor, as the algebra workload runs."""
    rng = np.random.default_rng(21)
    for g in (1, 2, 3):
        for N in (2, 3, 4, 6, 12):
            M = rng.integers(0, N, size=(g, g)).tolist()
            lam, twin = BilinearCocycle(M, N), BilinearCocycle(M, N)
            f, h, p = (random_poly(rng, g, terms=8, radius=3)
                       for _ in range(3))
            fh = assert_same_product(f, h, lam, twin)
            assert_same_product(fh, p, lam, twin)
            assert_same_product(p, fh, lam, twin)


def test_star_mul_equals_the_loop_on_empty_factors():
    lam = BilinearCocycle([[0, 1], [0, 0]], 4)
    alpha = bounding_cochain([[2, 1], [1, 3]], 5,
                             window=ExponentWindow.centered(2, 3))
    f = LaurentPoly(2, {(1, -1): 2.0, (0, 1): 1j})
    zero = LaurentPoly.zero(2)
    for cochain in (lam, coboundary(alpha, None)):
        for x, y in [(zero, f), (f, zero), (zero, zero)]:
            assert assert_same_product(x, y, cochain) == zero


def test_star_mul_equals_the_loop_on_a_window_bounded_cochain():
    N, S = 6, [[2, 5], [5, 0]]
    alpha = bounding_cochain(S, N, window=ExponentWindow.centered(2, 4))
    lam2 = coboundary(alpha, BilinearCocycle([[0, 4], [1, 2]], N))
    rng = np.random.default_rng(22)
    for _ in range(4):
        f, h = random_poly(rng, 2, terms=6), random_poly(rng, 2, terms=6)
        assert_same_product(f, h, lam2)
    # (2, 0) + (3, 0) leaves the window: both raise, on the same pair
    f = LaurentPoly(2, {(0, 0): 1.0, (2, 0): 2.0})
    h = LaurentPoly(2, {(1, 1): 1.0, (3, 0): 0.5j})
    for product in (star_mul, loop_star_mul):
        with pytest.raises(WindowError, match=r"\(5, 0\)"):
            product(f, h, lam2)


def test_star_mul_equals_the_loop_beyond_int64():
    big = 2 ** 70
    for g, M, N in [(1, [[1]], 3), (2, [[3, 5], [7, 11]], 12),
                    (2, [[0, 1], [0, 0]], 2 ** 64),
                    (3, [[1, 2, 3], [0, 5, 2 ** 63 + 1], [7, 0, 1]], 2 ** 64)]:
        f = LaurentPoly(g, {(big,) + (-3,) * (g - 1): 1.5 - 2j,
                            (1,) + (2 ** 65,) * (g - 1): -0.25j,
                            (0,) * g: 1.0, (-1,) * g: 3.0})
        h = LaurentPoly(g, {(1,) * g: 2.0, (-big,) * g: 0.5j,
                            (2,) * g: -1.0})
        small = LaurentPoly(g, {(1,) * g: 1.0, (2, -1, 3)[:g]: 2j})
        for x, y in [(f, h), (h, f), (f, f), (small, small), (small, h)]:
            assert_same_product(x, y, BilinearCocycle(M, N),
                                BilinearCocycle(M, N))
    # a cochain that is no bilinear cocycle, on keys beyond int64
    f = LaurentPoly(1, {(big,): 1.0, (-2,): 2j})

    def quadratic(s, t):
        return Phase(s[0] * s[0] * t[0], 7)

    assert_same_product(f, f, quadratic)


class SpyNumpy:
    """``numpy`` with ``array`` recording the dtype of each array made."""

    def __init__(self):
        self.dtypes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def array(self, *args, **kwargs):
        out = np.array(*args, **kwargs)
        self.dtypes.append(out.dtype)
        return out


@pytest.mark.parametrize("g, N, R, dtype", [
    (2, 12, 3, np.int64), (2, 2 ** 40, 2 ** 21 - 2, np.int64),
    (2, 2 ** 40, 2 ** 21 - 1, object), (1, 2 ** 64, 1, object),
    (1, 1, 2 ** 62 - 2, np.int64), (1, 1, 2 ** 62 - 1, object)])
def test_star_mul_takes_python_ints_from_the_bound(monkeypatch, g, N, R,
                                                   dtype):
    """int64 while ``g * N * (R + 1) < 2**62``, Python ints from there on;
    the product equals the loop on either side.  ``N = 1`` is also the
    bound of a cochain that is no bilinear cocycle."""
    spy = SpyNumpy()
    monkeypatch.setattr(laurent, "np", spy)
    f = LaurentPoly(g, {(R,) + (1,) * (g - 1): 1.5j, (-1,) * g: 2.0})
    h = LaurentPoly(g, {(-R // 2,) * g: 0.5, (1,) * g: -1j})
    M = [[N - 1 - i - j for j in range(g)] for i in range(g)]
    assert_same_product(f, h, BilinearCocycle(M, N), BilinearCocycle(M, N))
    assert set(spy.dtypes) == {np.dtype(dtype)}
