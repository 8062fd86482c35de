"""q-Weyl algebra tests: exact phase bookkeeping, both crossed products,
and the bimodule actions, with hand-computed monomial relations frozen in,
the former per-entry power loops as the oracle of the exchange rule, and
the relations holding with ``==`` when the exchange rule is a cocycle."""

import math

import numpy as np
import pytest

from nctorus.cocycle import BilinearCocycle, Phase, normal_order_representative
from nctorus.laurent import LaurentPoly, max_coeff_diff, star_mul
from nctorus.qweyl import (
    Coeff,
    PeriodMatrix,
    PModuleElement,
    QPolynomial,
    gamma_action,
    max_value_diff,
    mul_W,
    mul_crossed,
    _reorder_exponent,
    pmodule_act_gamma,
    pmodule_act_gammahat,
)


def random_q(rng, g):
    return PeriodMatrix([[complex(rng.uniform(0.5, 2.0)) *
                          np.exp(2j * np.pi * rng.uniform())
                          for _ in range(g)] for _ in range(g)])


def random_qpoly(rng, g, gammas=True, terms=3, radius=2):
    out = {}
    for _ in range(terms):
        a = tuple(int(x) for x in rng.integers(-radius, radius + 1, size=g))
        b = tuple(int(x) for x in rng.integers(-radius, radius + 1, size=g)) \
            if gammas else (0,) * g
        out[(a, b)] = Coeff(complex(rng.normal(), rng.normal()),
                            Phase(int(rng.integers(0, 12)), 12))
    return QPolynomial(g, out)


# ---------------------------------------------------------------------------
# Coeff

def test_coeff_merges_equal_phases_exactly():
    a = Coeff(2.0, Phase(1, 3))
    b = Coeff(3.0, Phase(1, 3))
    assert a + b == Coeff(5.0, Phase(1, 3))


def test_coeff_collapses_distinct_phases():
    c = Coeff(1.0, Phase(1, 2)) + Coeff(1.0)
    assert c.phase == Phase.zero()
    assert abs(c.value()) < 1e-12


def test_coeff_multiplication_keeps_phase_exact():
    c = Coeff(2.0, Phase(1, 4)) * Coeff(3.0, Phase(1, 4))
    assert c == Coeff(6.0, Phase(1, 2))
    assert Coeff(2.0) * Phase(1, 3) == Coeff(2.0, Phase(1, 3))
    assert 2.0 * Coeff(1.5) == Coeff(3.0)
    assert (-Coeff(1.0, Phase(1, 5))).scalar == -1.0


def test_coeff_zero_normalizes_phase():
    assert Coeff(0.0, Phase(1, 3)).phase == Phase.zero()
    assert Coeff(0.0, Phase(1, 3)).is_zero
    assert (Coeff(1.0, Phase(1, 7)) + Coeff(-1.0, Phase(1, 7))).is_zero


def test_coeff_value():
    assert Coeff(2.0, Phase(1, 2)).value() == pytest.approx(-2.0)


# ---------------------------------------------------------------------------
# PeriodMatrix / QPolynomial plumbing

def test_period_matrix_validation():
    with pytest.raises(ValueError):
        PeriodMatrix([[1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        PeriodMatrix([[1.0, 2.0]])
    assert PeriodMatrix.ones(2).entry(0, 1) == 1.0
    for g in (1, 3):
        ones = PeriodMatrix.ones(g)
        assert ones == PeriodMatrix([[1.0] * g] * g) and ones.g == g


def test_qpolynomial_merges_and_drops():
    g2 = QPolynomial(1, {((1,), (0,)): Coeff(1.0), ((1,), (0,)): Coeff(2.0)})
    # dict literal collapses keys; build by addition instead
    f = QPolynomial.monomial(1, (1,)) + QPolynomial.monomial(1, (1,))
    assert f.coeff((1,)) == Coeff(2.0)
    assert (f - f) == QPolynomial.zero(1)
    assert g2.coeff((1,)) == Coeff(2.0)
    assert QPolynomial.one(1).coeff((0,)) == Coeff()


def test_qpolynomial_scalar_multiplication():
    f = QPolynomial.monomial(2, (1, 0), (0, 1), Coeff(2.0))
    assert (f * Phase(1, 2)).coeff((1, 0), (0, 1)) == Coeff(2.0, Phase(1, 2))
    with pytest.raises(TypeError):
        f * f  # noqa: B018


# ---------------------------------------------------------------------------
# mul_W

def test_mul_w_generator_relations_exact():
    lam = BilinearCocycle([[0, 1], [0, 0]], 4)  # A12 = 1, A21 = 3
    t1 = QPolynomial.monomial(2, (1, 0))
    t2 = QPolynomial.monomial(2, (0, 1))
    ordered = mul_W(t1, t2, lam)
    reversed_ = mul_W(t2, t1, lam)
    assert ordered.coeff((1, 1)) == Coeff()  # no phase on the ordered product
    assert reversed_.coeff((1, 1)) == Coeff(1.0, Phase(3, 4))  # exact zeta^-1


def test_mul_w_matches_star_under_normal_order():
    rng = np.random.default_rng(20)
    for g, N in [(1, 3), (2, 4), (3, 6)]:
        M = [[int(rng.integers(0, N)) for _ in range(g)] for _ in range(g)]
        lam = BilinearCocycle(M, N)
        L = normal_order_representative(lam)
        for _ in range(4):
            f = random_qpoly(rng, g, gammas=False)
            h = random_qpoly(rng, g, gammas=False)
            prod = mul_W(f, h, lam)
            fl = LaurentPoly(g, {a: c.value() for (a, _), c in f.terms.items()})
            hl = LaurentPoly(g, {a: c.value() for (a, _), c in h.terms.items()})
            pl = star_mul(fl, hl, L)
            got = LaurentPoly(g, {a: c for (a, _), c in prod.value_dict().items()})
            assert max_coeff_diff(got, pl) < 1e-12


def test_mul_w_unit_and_associativity():
    rng = np.random.default_rng(21)
    lam = BilinearCocycle([[0, 2], [1, 0]], 6)
    one = QPolynomial.one(2)
    for _ in range(5):
        f, h, k = (random_qpoly(rng, 2, gammas=False) for _ in range(3))
        assert mul_W(one, f, lam) == f
        assert mul_W(f, one, lam) == f
        assert max_value_diff(mul_W(mul_W(f, h, lam), k, lam),
                              mul_W(f, mul_W(h, k, lam), lam)) < 1e-9


def test_mul_w_rejects_shift_generators():
    lam = BilinearCocycle.trivial(1, 2)
    has_gamma = QPolynomial.monomial(1, (0,), (1,))
    with pytest.raises(ValueError):
        mul_W(has_gamma, QPolynomial.one(1), lam)


# ---------------------------------------------------------------------------
# mul_crossed

def test_crossed_nc_exchange_relation():
    # gamma_j t_i = q[i][j] t_i gamma_j
    rng = np.random.default_rng(22)
    Q = random_q(rng, 2)
    lam = BilinearCocycle([[0, 1], [0, 0]], 4)
    for i in range(2):
        for j in range(2):
            ti = QPolynomial.monomial(2, tuple(int(k == i) for k in range(2)))
            gj = QPolynomial.monomial(2, (0, 0), tuple(int(k == j) for k in range(2)))
            left = mul_crossed(gj, ti, lam, Q, side="nc")
            right = mul_crossed(ti, gj, lam, Q, side="nc") * Q.entry(i, j)
            assert max_value_diff(left, right) < 1e-12


def test_crossed_gerby_exchange_relation():
    # mirror flavor: the exchange scalar transposes
    rng = np.random.default_rng(23)
    Q = random_q(rng, 2)
    lam = BilinearCocycle([[0, 1], [0, 0]], 4)
    for i in range(2):
        for j in range(2):
            ti = QPolynomial.monomial(2, tuple(int(k == i) for k in range(2)))
            gj = QPolynomial.monomial(2, (0, 0), tuple(int(k == j) for k in range(2)))
            left = mul_crossed(gj, ti, lam, Q, side="gerby")
            right = mul_crossed(ti, gj, lam, Q, side="gerby") * Q.entry(j, i)
            assert max_value_diff(left, right) < 1e-12


def test_crossed_which_side_carries_the_phases():
    lam = BilinearCocycle([[0, 1], [0, 0]], 4)
    Q = PeriodMatrix.ones(2)
    t1 = QPolynomial.monomial(2, (1, 0))
    t2 = QPolynomial.monomial(2, (0, 1))
    g1 = QPolynomial.monomial(2, (0, 0), (1, 0))
    g2 = QPolynomial.monomial(2, (0, 0), (0, 1))
    # nc: t's q-commute, gamma's commute
    assert mul_crossed(t2, t1, lam, Q, "nc").coeff((1, 1), (0, 0)) \
        == Coeff(1.0, Phase(3, 4))
    assert mul_crossed(g2, g1, lam, Q, "nc") == mul_crossed(g1, g2, lam, Q, "nc")
    # gerby: t's commute, gamma's q-commute
    assert mul_crossed(t2, t1, lam, Q, "gerby") \
        == mul_crossed(t1, t2, lam, Q, "gerby")
    assert mul_crossed(g2, g1, lam, Q, "gerby").coeff((0, 0), (1, 1)) \
        == Coeff(1.0, Phase(3, 4))


def test_crossed_reduces_to_mul_w_without_shifts():
    rng = np.random.default_rng(24)
    lam = BilinearCocycle([[1, 2], [0, 3]], 6)
    Q = random_q(rng, 2)
    for _ in range(5):
        f = random_qpoly(rng, 2, gammas=False)
        h = random_qpoly(rng, 2, gammas=False)
        assert mul_crossed(f, h, lam, Q, "nc") == mul_W(f, h, lam)


def test_crossed_associative_both_sides():
    rng = np.random.default_rng(25)
    for side in ("nc", "gerby"):
        for g, N in [(1, 4), (2, 3), (2, 6)]:
            M = [[int(rng.integers(0, N)) for _ in range(g)] for _ in range(g)]
            lam = BilinearCocycle(M, N)
            Q = random_q(rng, g)
            for _ in range(4):
                f, h, k = (random_qpoly(rng, g, terms=2) for _ in range(3))
                left = mul_crossed(mul_crossed(f, h, lam, Q, side), k, lam, Q, side)
                right = mul_crossed(f, mul_crossed(h, k, lam, Q, side), lam, Q, side)
                assert max_value_diff(left, right) < 1e-9


def test_crossed_unit():
    rng = np.random.default_rng(26)
    lam = BilinearCocycle([[0, 5], [2, 1]], 6)
    Q = random_q(rng, 2)
    one = QPolynomial.one(2)
    for side in ("nc", "gerby"):
        f = random_qpoly(rng, 2)
        assert mul_crossed(one, f, lam, Q, side) == f
        assert mul_crossed(f, one, lam, Q, side) == f


def test_crossed_rejects_bad_side():
    lam = BilinearCocycle.trivial(1, 2)
    with pytest.raises(ValueError):
        mul_crossed(QPolynomial.one(1), QPolynomial.one(1), lam,
                    PeriodMatrix.ones(1), side="left")


# ---------------------------------------------------------------------------
# gamma_action

def test_gamma_action_values():
    Q = PeriodMatrix([[2.0, 3.0], [5.0, 7.0]])
    f = QPolynomial.monomial(2, (1, 2))
    acted = gamma_action(f, 0, Q)
    # prod_i q[i][0]^{-a_i} = 2^-1 * 5^-2
    assert acted.coeff((1, 2)).value() == pytest.approx((1 / 2) * (1 / 25))


def test_gamma_action_matches_sandwich():
    rng = np.random.default_rng(27)
    lam = BilinearCocycle([[0, 3], [1, 0]], 4)
    Q = random_q(rng, 2)
    for j in range(2):
        f = random_qpoly(rng, 2, gammas=False)
        gj = QPolynomial.monomial(2, (0, 0), tuple(int(k == j) for k in range(2)))
        gj_inv = QPolynomial.monomial(2, (0, 0),
                                      tuple(-int(k == j) for k in range(2)))
        sandwich = mul_crossed(mul_crossed(gj_inv, f, lam, Q), gj, lam, Q)
        assert max_value_diff(sandwich, gamma_action(f, j, Q)) < 1e-12


def test_gamma_action_validates():
    f = QPolynomial.monomial(1, (0,), (1,))
    with pytest.raises(ValueError):
        gamma_action(f, 0, PeriodMatrix.ones(1))
    with pytest.raises(ValueError):
        gamma_action(QPolynomial.one(1), 3, PeriodMatrix.ones(1))


# ---------------------------------------------------------------------------
# bimodule actions

def test_pmodule_act_gamma_frozen():
    Q = PeriodMatrix([[3.0]])
    v = PModuleElement.basis(1, (0,), (2,))
    w = pmodule_act_gamma(v, 0, Q)
    assert set(w.terms) == {((-1,), (2,))}
    assert w.terms[((-1,), (2,))].value() == pytest.approx(1 / 9)


def test_pmodule_act_gammahat_frozen():
    lam = BilinearCocycle([[0, 1], [0, 0]], 4)  # A[1][0] = 3
    Q = PeriodMatrix([[2.0, 3.0], [5.0, 7.0]])
    v = PModuleElement.basis(2, (1, 0), (1, 0))
    w = pmodule_act_gammahat(v, 1, lam, Q)
    assert set(w.terms) == {((1, 0), (1, 1))}
    c = w.terms[((1, 0), (1, 1))]
    assert c.phase == Phase(3, 4)          # exact reordering phase
    assert c.scalar == pytest.approx(5.0)  # q[1][0]^ahat_0


def test_pmodule_dual_shifts_q_commute_exactly():
    lam = BilinearCocycle([[0, 1], [0, 0]], 4)
    rng = np.random.default_rng(28)
    Q = random_q(rng, 2)
    A = lam.antisymmetrized()
    for _ in range(6):
        ahat = tuple(int(x) for x in rng.integers(-2, 3, size=2))
        a = tuple(int(x) for x in rng.integers(-2, 3, size=2))
        v = PModuleElement.basis(2, ahat, a)
        lhs = pmodule_act_gammahat(pmodule_act_gammahat(v, 1, lam, Q), 0, lam, Q)
        rhs = pmodule_act_gammahat(pmodule_act_gammahat(v, 0, lam, Q), 1, lam, Q)
        assert max_value_diff(lhs, rhs * Phase(A[0][1], lam.N)) < 1e-12


def test_pmodule_left_right_actions_commute():
    lam = BilinearCocycle([[0, 2], [1, 1]], 5)
    rng = np.random.default_rng(29)
    Q = random_q(rng, 2)
    for i in range(2):
        for j in range(2):
            for _ in range(4):
                ahat = tuple(int(x) for x in rng.integers(-2, 3, size=2))
                a = tuple(int(x) for x in rng.integers(-2, 3, size=2))
                v = PModuleElement.basis(2, ahat, a,
                                         Coeff(complex(rng.normal(), rng.normal())))
                one_way = pmodule_act_gamma(pmodule_act_gammahat(v, i, lam, Q), j, Q)
                other = pmodule_act_gammahat(pmodule_act_gamma(v, j, Q), i, lam, Q)
                assert max_value_diff(one_way, other) < 1e-12


def test_pmodule_linearity_and_validation():
    v = PModuleElement.basis(1, (0,), (1,)) + PModuleElement.basis(1, (0,), (1,))
    assert v.terms[((0,), (1,))] == Coeff(2.0)
    with pytest.raises(ValueError):
        pmodule_act_gamma(v, 5, PeriodMatrix.ones(1))
    with pytest.raises(ValueError, match="do not have length 1"):
        PModuleElement(1, {((0, 0), (1,)): Coeff(1.0)})


def test_polynomials_and_module_elements_do_not_mix():
    key = ((1,), (0,))
    p = QPolynomial(1, {key: Coeff(2.0)})
    v = PModuleElement(1, {key: Coeff(2.0)})
    assert p.terms == v.terms
    assert p != v and v != p
    for x, y in ((p, v), (v, p)):
        with pytest.raises(TypeError):
            x + y
        with pytest.raises(TypeError):
            x - y
    assert max_value_diff(v - v, PModuleElement(1)) == 0.0
    assert not (v - v) and v


def test_max_value_diff_counts_a_nan_as_infinite():
    """Python's ``max`` keeps a NaN only when it comes first."""
    nan = float("nan")
    keys = [((0,), (0,)), ((1,), (0,))]
    for cls in (QPolynomial, PModuleElement):
        f = cls(1, {keys[0]: Coeff(1.0), keys[1]: Coeff(nan)})
        h = cls(1, {keys[0]: Coeff(1.5), keys[1]: Coeff(1.0)})
        assert max_value_diff(f, h) == max_value_diff(h, f) == math.inf
        assert max_value_diff(f, f) == math.inf


# ---------------------------------------------------------------------------
# the exchange rule against the per-entry power loops it replaced

def loop_mul_crossed(f, h, lam, Q, side="nc"):
    """Crossed product raising each period entry to its power in place."""
    A = lam.antisymmetrized()
    out = {}
    for (a, b), ca in f.terms.items():
        for (a2, b2), cb in h.terms.items():
            scalar = 1.0 + 0j
            for i in range(f.g):
                if not a2[i]:
                    continue
                for j in range(f.g):
                    if b[j]:
                        base = Q.q[i][j] if side == "nc" else Q.q[j][i]
                        scalar *= base ** (a2[i] * b[j])
            e = _reorder_exponent(A, a, a2) if side == "nc" \
                else _reorder_exponent(A, b, b2)
            key = (tuple(x + y for x, y in zip(a, a2)),
                   tuple(x + y for x, y in zip(b, b2)))
            c = ca * cb * Coeff(scalar, Phase(e, lam.N))
            out[key] = out[key] + c if key in out else c
    return QPolynomial(f.g, out)


def loop_gamma_action(f, j, Q):
    out = {}
    for (a, b), c in f.terms.items():
        scalar = 1.0 + 0j
        for i, ai in enumerate(a):
            if ai:
                scalar *= Q.q[i][j] ** (-ai)
        out[(a, b)] = c * Coeff(scalar)
    return QPolynomial(f.g, out)


def loop_pmodule_act_gamma(v, i, Q):
    out = {}
    for (ahat, a), c in v.terms.items():
        scalar = 1.0 + 0j
        for k, ak in enumerate(a):
            if ak:
                scalar *= Q.q[k][i] ** (-ak)
        key = (tuple(x - int(k == i) for k, x in enumerate(ahat)), a)
        add = c * Coeff(scalar)
        out[key] = out[key] + add if key in out else add
    return PModuleElement(v.g, out)


def loop_pmodule_act_gammahat(v, i, lam, Q):
    A = lam.antisymmetrized()
    out = {}
    for (ahat, a), c in v.terms.items():
        scalar = 1.0 + 0j
        for k, hk in enumerate(ahat):
            if hk:
                scalar *= Q.q[i][k] ** hk
        e = sum(A[i][w] * a[w] for w in range(i))
        key = (ahat, tuple(x + int(k == i) for k, x in enumerate(a)))
        add = c * Coeff(scalar, Phase(e, lam.N))
        out[key] = out[key] + add if key in out else add
    return PModuleElement(v.g, out)


def random_cocycle(rng, max_g=3, max_N=8):
    g, N = int(rng.integers(1, max_g + 1)), int(rng.integers(1, max_N + 1))
    return BilinearCocycle(rng.integers(0, N, size=(g, g)).tolist(), N)


def random_module_element(rng, g, terms=3):
    return PModuleElement(g, {
        (tuple(int(x) for x in rng.integers(-2, 3, size=g)),
         tuple(int(x) for x in rng.integers(-2, 3, size=g))):
        Coeff(complex(rng.normal(), rng.normal()),
              Phase(int(rng.integers(0, 12)), 12))
        for _ in range(terms)})


def test_exchange_rule_matches_the_power_loops_bit_for_bit():
    """The nc product, ``gamma_action`` and both bimodule actions multiply
    the same factors in the same order as the loops did."""
    rng = np.random.default_rng(31)
    for _ in range(100):
        lam = random_cocycle(rng)
        g = lam.g
        Q = random_q(rng, g)
        f, h = random_qpoly(rng, g), random_qpoly(rng, g)
        assert mul_crossed(f, h, lam, Q) == loop_mul_crossed(f, h, lam, Q)
        t = random_qpoly(rng, g, gammas=False)
        v = random_module_element(rng, g)
        for j in range(g):
            assert gamma_action(t, j, Q) == loop_gamma_action(t, j, Q)
            assert pmodule_act_gamma(v, j, Q) == loop_pmodule_act_gamma(v, j, Q)
            assert pmodule_act_gammahat(v, j, lam, Q) \
                == loop_pmodule_act_gammahat(v, j, lam, Q)


def test_gerby_exchange_rule_matches_the_power_loops_to_rounding():
    """On the gerby side ``Q(b, a')`` multiplies the factors with the loop
    over ``b`` outermost, the loop took ``a'`` outermost: the scalars agree
    to within 1e-15 relative and the phases exactly."""
    rng = np.random.default_rng(32)
    for _ in range(300):
        lam = random_cocycle(rng)
        g = lam.g
        Q = random_q(rng, g)
        f = random_qpoly(rng, g, terms=1)
        h = random_qpoly(rng, g, terms=1)
        got = mul_crossed(f, h, lam, Q, "gerby")
        want = loop_mul_crossed(f, h, lam, Q, "gerby")
        assert got.terms.keys() == want.terms.keys()
        for key, c in want.terms.items():
            assert got.terms[key].phase == c.phase
            assert abs(got.terms[key].scalar - c.scalar) <= 1e-15 * abs(c.scalar)


def test_period_matrix_exchange_rule_values():
    Q = PeriodMatrix([[2.0, 3.0], [5.0, 7.0]])
    assert Q((1, -2), (0, 1)) == 3.0 * 7.0 ** -2
    assert Q((0, 0), (4, 4)) == Q((4, 4), (0, 0)) == 1.0


# ---------------------------------------------------------------------------
# a cocycle as the exchange rule: every relation holds exactly

def test_cocycle_exchange_rule_makes_every_relation_exact():
    """With ``Q = lam``, i.e. ``q[i][j] = zeta_N^{M_ij}``, each exchange
    scalar is an exact phase, and the exchange relations, the gamma
    sandwich and both bimodule relations hold with ``==``."""
    rng = np.random.default_rng(33)
    for _ in range(200):
        lam = random_cocycle(rng)
        g, N, A = lam.g, lam.N, lam.antisymmetrized()
        i, j = (int(x) for x in rng.integers(0, g, size=2))
        zero = (0,) * g
        ti = QPolynomial.monomial(g, tuple(int(k == i) for k in range(g)))
        gj = QPolynomial.monomial(g, zero, tuple(int(k == j) for k in range(g)))
        gj_inv = QPolynomial.monomial(g, zero,
                                      tuple(-int(k == j) for k in range(g)))
        for side, (x, y) in (("nc", (i, j)), ("gerby", (j, i))):
            assert mul_crossed(gj, ti, lam, lam, side) \
                == mul_crossed(ti, gj, lam, lam, side) * Phase(lam.M[x][y], N)
        f = random_qpoly(rng, g, gammas=False)
        sandwich = mul_crossed(mul_crossed(gj_inv, f, lam, lam), gj, lam, lam)
        assert sandwich == gamma_action(f, j, lam)
        v = random_module_element(rng, g)
        assert pmodule_act_gammahat(pmodule_act_gammahat(v, j, lam, lam),
                                    i, lam, lam) \
            == pmodule_act_gammahat(pmodule_act_gammahat(v, i, lam, lam),
                                    j, lam, lam) * Phase(A[i][j], N)
        assert pmodule_act_gamma(pmodule_act_gammahat(v, i, lam, lam), j, lam) \
            == pmodule_act_gammahat(pmodule_act_gamma(v, j, lam), i, lam, lam)


def test_cocycle_exchange_rule_is_exact_at_huge_exponents():
    """A float period scalar raised to a huge power loses every digit;
    the cocycle keeps the exponent in Python ints."""
    E = 10 ** 40
    lam = BilinearCocycle([[0, 1], [0, 0]], 3)
    g2 = QPolynomial.monomial(2, (0, 0), (0, E))
    t1 = QPolynomial.monomial(2, (E, 0))
    assert mul_crossed(g2, t1, lam, lam) \
        == QPolynomial.monomial(2, (E, 0), (0, E), Phase(1, 3))
