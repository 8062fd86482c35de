"""Star-product tests, checked against an independent brute-force convolution."""

import cmath
import math

import numpy as np
import pytest

from nctorus.cocycle import (
    BilinearCocycle,
    ExponentWindow,
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
