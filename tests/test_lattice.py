"""Lattice-duality tests against brute-force enumeration oracles.

Smith normal form is cross-checked against sympy's (which returns only the
diagonal; the transform matrices are checked by multiplying out).  The
commutant sublattice and its quotient are compared with residue enumeration.
"""

import copy
import itertools
import math
import operator
import pickle
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from nctorus.cocycle import BilinearCocycle, Phase
from nctorus.lattice import (
    DualPairData,
    FiniteAbelianGroup,
    GroupBilinearTable,
    SublatticeBasis,
    _add_index,
    _smith_rows,
    compute_H_hat,
    compute_K_hat,
    descend_cocycle,
    lambda_sharp,
    smith_normal_form,
    subgroup_presentation,
)


def int_matmul(A, B):
    """Product of two matrices given as rows of Python ints."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def assert_tracked_inverse(A):
    """``_smith_rows`` returns ``U A V == D`` and the exact inverse of ``U``."""
    D, U, V, Uinv = _smith_rows(A)
    assert int_matmul(int_matmul(U, A), V) == D
    identity = [[int(i == j) for j in range(len(U))] for i in range(len(U))]
    assert int_matmul(U, Uinv) == identity
    assert int_matmul(Uinv, U) == identity


def brute_kernel_residues(Lam, N, g):
    """Oracle: residues t mod N with Lam . t == 0 mod N, by full enumeration."""
    out = set()
    for t in itertools.product(range(N), repeat=g):
        if all(sum(row[j] * t[j] for j in range(g)) % N == 0 for row in Lam):
            out.add(t)
    return out


def fraction_pairing(factors, x, chi):
    """Oracle: ``sum_i x_i chi_i / d_i`` mod 1, one Fraction per term, on the
    coordinates as given."""
    return sum((Fraction(a * c, d) for a, c, d in zip(x, chi, factors)),
               Fraction(0)) % 1


def fraction_rows(omega, x):
    """Oracle helper: the row ``x . omega`` of Fraction exponents, so that
    ``table(x, y)`` is ``sum_j row_j y_j`` mod 1."""
    return [sum((xi * omega[i][j].q for i, xi in enumerate(x)), Fraction(0))
            for j in range(len(omega))]


# The per-call loops the queries ran before an enumerated group's own
# tuples got kept rows and lifts: every argument counted and passed
# through ``operator.index`` on each call.

def loop_pairing(G, x, chi):
    r = len(G.factors)
    if len(x) != r or len(chi) != r:
        raise ValueError(f"expected {r} coordinates")
    return Phase(sum(map(operator.mul, map(operator.index, x), map(
        operator.mul, map(operator.index, chi), G._weights))), G.exponent)


def loop_table(table, x, y):
    r = table.group.rank
    if len(x) != r or len(y) != r:
        raise ValueError(f"expected {r} coordinates")
    y = list(map(operator.index, y))
    total = 0
    for xi, row in zip(map(operator.index, x), table._E):
        if xi:
            total += xi * sum(map(operator.mul, row, y))
    return Phase(total, table.group.exponent)


def loop_project(quo, t):
    if len(t) != quo.sublattice.g:
        raise ValueError(f"expected a length-{quo.sublattice.g} vector")
    t = list(map(operator.index, t))
    return tuple(sum(map(operator.mul, row, t)) % d
                 for row, d in quo._kept_rows)


def loop_lift(quo, k):
    factors = quo.group.factors
    if len(k) != len(factors):
        raise ValueError(f"expected {len(factors)} coordinates")
    k = tuple(operator.index(a) % d for a, d in zip(k, factors))
    return tuple(sum(map(operator.mul, row, k)) for row in quo._lift_rows)


def loop_sharp(table):
    group = table.group
    rows = [[e // w for e, w in zip(row, group._weights)] for row in table._E]
    return {x: tuple(sum(a * row[j] for a, row in zip(x, rows)) % d
                     for j, d in enumerate(group.factors))
            for x in itertools.product(*(range(d) for d in group.factors))}


def is_own(G, x):
    """``x`` is one of the enumerated group ``G``'s own element tuples."""
    return G._elements[G._index[x]] is x


def random_antisymmetric(rng, g, N):
    A = [[0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i + 1, g):
            v = int(rng.integers(0, N))
            A[i][j] = v
            A[j][i] = (-v) % N
    return A


# ---------------------------------------------------------------------------
# Smith normal form

def test_snf_small_known_case():
    D, U, V = smith_normal_form([[2, 1], [0, 4]])
    assert (U @ np.array([[2, 1], [0, 4]]) @ V == D).all()
    assert D.tolist() == [[1, 0], [0, 8]]


def test_snf_random_matrices_have_all_invariants():
    rng = np.random.default_rng(0)
    for _ in range(80):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        A = rng.integers(-9, 10, size=(m, n))
        D, U, V = smith_normal_form(A)
        assert (U @ A @ V == D).all()
        assert_tracked_inverse(A.tolist())
        assert abs(round(float(np.linalg.det(U)))) == 1
        assert abs(round(float(np.linalg.det(V)))) == 1
        diag = [int(D[i, i]) for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i, j] == 0
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0


def test_snf_diagonal_matches_sympy():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        A = rng.integers(-9, 10, size=(n, n))
        D, _, _ = smith_normal_form(A)
        ours = [abs(int(D[i, i])) for i in range(n)]
        ref = sympy_snf(Matrix(A.tolist()))
        theirs = sorted(abs(int(ref[i, i])) for i in range(n))
        assert sorted(ours) == theirs


def test_snf_zero_and_identity():
    D, U, V = smith_normal_form([[0, 0], [0, 0]])
    assert D.tolist() == [[0, 0], [0, 0]]
    D, _, _ = smith_normal_form([[1, 0], [0, 1]])
    assert D.tolist() == [[1, 0], [0, 1]]


def test_snf_outside_int64_is_a_value_error():
    """The second invariant of ``diag(2**62, 3)`` is ``3 * 2**62``."""
    with pytest.raises(ValueError, match="int64"):
        smith_normal_form([[2 ** 62, 0], [0, 3]])
    with pytest.raises(ValueError, match="int64"):
        smith_normal_form([[2 ** 64, 1], [0, 1]])


# ---------------------------------------------------------------------------
# FiniteAbelianGroup

def test_group_basics():
    G = FiniteAbelianGroup((4, 2))
    assert G.size == 8 and G.rank == 2 and len(G) == 8
    assert G.zero() == (0, 0)
    assert G.add((3, 1), (2, 1)) == (1, 0)
    assert G.neg((1, 1)) == (3, 1)
    assert G.scale(3, (2, 1)) == (2, 1)
    assert G.reduce((-1, 5)) == (3, 1)
    assert len(list(G.elements())) == 8
    assert (3, 1) in G and (4, 0) not in G and (1,) not in G


@pytest.mark.parametrize("factors", [(), (5,), (4, 2), (2, 3, 4)])
def test_indexed_arithmetic_matches_tuple_oracle(factors):
    """Once a group is enumerated, ``reduce``, ``add`` and ``neg`` answer
    from its element index; they must still agree with plain modular tuple
    arithmetic on every accepted form of input."""
    G = FiniteAbelianGroup(factors)
    r = len(factors)
    order = list(itertools.product(*(range(d) for d in factors)))
    assert list(G.elements()) == order
    assert list(G.elements()) == order and list(G) == order

    def oracle(x):
        return tuple(int(a) % d for a, d in zip(x, factors))

    rng = np.random.default_rng(len(order))
    inputs = order + [list(x) for x in order]
    inputs += [tuple(np.int64(a) for a in x) for x in order]
    inputs += [np.array(x, dtype=np.int64) for x in order[:5]]
    inputs += [tuple(int(v) for v in rng.integers(-30, 30, size=r))
               for _ in range(40)]
    inputs += [tuple(a + 2 ** 70 * d for a, d in zip(x, factors))
               for x in order[:5]]
    for x in inputs:
        want = oracle(x)
        got = G.reduce(x)
        assert got == want and type(got) is tuple, x
        assert all(type(a) is int for a in got), x
        assert G.neg(x) == tuple((-a) % d for a, d in zip(want, factors))
        for y in inputs[::7]:
            assert G.add(x, y) == tuple(
                (a + b) % d for a, b, d in zip(want, oracle(y), factors))
    for bad in [(0,) * (r + 1), [0] * (r + 1), (1,) * (r + 2)] \
            + ([(0,) * (r - 1)] if r else []):
        for call in (G.reduce, G.neg, lambda x: G.add(x, G.zero()),
                     lambda x: G.add(G.zero(), x)):
            with pytest.raises(ValueError, match=f"expected {r} coordinates"):
                call(bad)


def test_group_builds_its_index_only_when_enumerated():
    G = FiniteAbelianGroup((4, 6))
    assert G.reduce((5, -1)) == (1, 5) and G.add((3, 5), (1, 1)) == (0, 0)
    assert G.neg((1, 1)) == (3, 5) and (1, 2) in G
    assert G.pairing((1, 1), (1, 1)) == Phase(5, 12)
    assert G._elements is None and G._index is None
    assert len(list(G.elements())) == 24
    assert len(G._elements) == len(G._index) == 24


def fresh_add_index(factors):
    """The addition index built afresh, as ``_add_index`` did per call."""
    size = math.prod(factors)
    X = np.indices(factors).reshape(len(factors), size)
    return np.ravel_multi_index(X[:, :, None] + X[:, None], factors,
                                mode="wrap").reshape(size, size)


def test_the_addition_index_is_kept_read_only():
    rng = np.random.default_rng(2905)
    shapes = [()] + [tuple(int(d) for d in rng.integers(1, 7, rank))
                     for rank in rng.integers(1, 4, 40)]
    for factors in shapes:
        G = FiniteAbelianGroup(factors)
        assert G._add is None
        add = _add_index(G)
        assert np.array_equal(add, fresh_add_index(factors)), factors
        assert _add_index(G) is add and not add.flags.writeable
        with pytest.raises(ValueError):
            add[0, 0] = 1
        elts = list(G.elements())
        i, j = rng.integers(G.size, size=2)
        assert elts[add[i, j]] == G.add(elts[i], elts[j])


@pytest.mark.parametrize("clone", [lambda G: pickle.loads(pickle.dumps(G)),
                                   copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_a_copied_group_does_not_carry_the_addition_index(clone):
    G = FiniteAbelianGroup((2, 6))
    add = _add_index(G)
    G2 = clone(G)
    assert G2 == G and G2._add is None
    assert np.array_equal(_add_index(G2), add) and _add_index(G2) is not add


def test_quotient_queries_build_no_addition_index():
    """``param analyze`` needs no addition index: the 4 096-element
    quotient of a rank-2 form with ``N = 64`` and its sharp map enumerate
    the group but leave the index unbuilt."""
    lam = BilinearCocycle([[0, 1], [0, 0]], 64)
    quo = compute_K_hat(compute_H_hat(lam.antisymmetrized(), lam.N))
    assert quo.group.size == 4096
    lambda_sharp(descend_cocycle(lam, quo))
    assert quo.group._elements is not None and quo.group._add is None


def test_group_pairing_is_bimultiplicative_and_separates():
    G = FiniteAbelianGroup((2, 4))
    assert G.pairing((1, 0), (1, 0)) == Phase(1, 2)
    assert G.pairing((0, 1), (0, 1)) == Phase(1, 4)
    rng = np.random.default_rng(2)
    for _ in range(40):
        x, y, chi = (G.random_element(rng) for _ in range(3))
        assert G.pairing(G.add(x, y), chi) == G.pairing(x, chi) + G.pairing(y, chi)
    for x in G.elements():
        if x != G.zero():
            assert any(G.pairing(x, chi) != Phase.zero() for chi in G.elements())


def test_trivial_group():
    G = FiniteAbelianGroup(())
    assert G.size == 1
    assert list(G.elements()) == [()]
    assert G.pairing((), ()) == Phase.zero()


@pytest.mark.parametrize("factors", [(), (4, 6), (6, 4, 10)])
def test_table_and_pairing_match_fraction_oracle(factors):
    """Integer-exponent evaluation against per-term Fraction sums, on every
    element pair and on unreduced, negative and ~2**70 coordinates."""
    rng = np.random.default_rng(sum(factors) + 11)
    G = FiniteAbelianGroup(factors)
    omega = [[Phase(int(rng.integers(0, 60)), math.gcd(a, b))
              for b in factors] for a in factors]
    table = GroupBilinearTable(G, omega)
    elems = list(G.elements())
    for x in elems:
        row = fraction_rows(omega, x)
        for y in elems:
            want = sum((r * b for r, b in zip(row, y)), Fraction(0)) % 1
            assert table(x, y).q == want, (x, y)
            assert G.pairing(x, y).q == fraction_pairing(factors, x, y)
    rank = len(factors)
    odd = [tuple(int(v) for v in rng.integers(-3 * 60, 3 * 60, size=rank))
           for _ in range(30)]
    odd += [tuple(2 ** 70 + int(v) for v in rng.integers(-60, 60, size=rank))
            for _ in range(10)]
    odd += [tuple(-2 ** 70 - int(v) for v in rng.integers(0, 60, size=rank))
            for _ in range(10)]
    for x in odd:
        row = fraction_rows(omega, x)
        for y in odd + elems[:20]:
            want = sum((r * b for r, b in zip(row, y)), Fraction(0)) % 1
            assert table(x, y) == Phase(want), (x, y)
            assert table(x, y) == table(G.reduce(x), G.reduce(y))
            assert G.pairing(x, y) == Phase(fraction_pairing(factors, x, y))
            assert G.pairing(y, x) == Phase(fraction_pairing(factors, y, x))


@pytest.mark.parametrize("factors", [(4, 6), (6, 4, 10)])
def test_table_and_pairing_on_int64_coordinates_near_2_pow_62(factors):
    """numpy int64 coordinates whose products overflow int64 are converted
    to Python ints before any arithmetic."""
    rng = np.random.default_rng(len(factors) + 62)
    G = FiniteAbelianGroup(factors)
    omega = [[Phase(int(rng.integers(0, 60)), math.gcd(a, b))
              for b in factors] for a in factors]
    table = GroupBilinearTable(G, omega)
    rank = len(factors)
    vecs = [np.int64(2 ** 62) + rng.integers(-60, 60, size=rank)
            for _ in range(8)]
    vecs += [-v for v in vecs[:4]]
    assert all(v.dtype == np.int64 for v in vecs)
    for x in vecs:
        xi = [int(a) for a in x]
        row = fraction_rows(omega, xi)
        for y in vecs:
            yi = [int(b) for b in y]
            want = sum((r * b for r, b in zip(row, yi)), Fraction(0)) % 1
            assert table(x, y) == Phase(want), (xi, yi)
            assert G.pairing(x, y) == Phase(fraction_pairing(factors, xi, yi))


def test_table_and_pairing_reject_wrong_length():
    G = FiniteAbelianGroup((4, 6))
    table = GroupBilinearTable(G, [[Phase(1, 4), Phase(1, 2)],
                                   [Phase.zero(), Phase(1, 6)]])
    for x, y in [((1,), (1, 2)), ((1, 2), (1, 2, 3)), ((), ())]:
        with pytest.raises(ValueError):
            table(x, y)
        with pytest.raises(ValueError):
            G.pairing(x, y)


@pytest.mark.parametrize("enumerated", [False, True])
def test_queries_take_integer_coordinates_only(enumerated):
    """Coordinates pass ``operator.index``: numpy integers and ``bool``
    are integers, a float (``np.float64`` too) is refused instead of
    truncated, and is never a member."""
    G = FiniteAbelianGroup((4, 6))
    if enumerated:
        list(G.elements())
    table = GroupBilinearTable(G, [[Phase(1, 4), Phase(1, 2)],
                                   [Phase.zero(), Phase(1, 6)]])
    quo = compute_K_hat(compute_H_hat([[0, 1], [3, 0]], 4))
    if enumerated:
        list(quo.group.elements())
    fractional = [(1.5, 0), (0, 0.5), (np.float64(1.5), 0),
                  np.array([0.5, 1.0])]
    # equal to element tuples, so an enumerated group's index finds them
    integral = [(1.0, 0), (0, np.float64(2.0)), (Fraction(1), 0)]
    for bad in fractional + integral:
        assert bad not in G
        for query in (lambda x: G.pairing(x, (1, 1)),
                      lambda x: G.pairing((1, 1), x),
                      lambda x: table(x, (1, 1)),
                      lambda x: table((1, 1), x),
                      quo.project, quo.lift, G.reduce):
            with pytest.raises(TypeError):
                query(bad)
    # a 0-d array coordinate makes the tuple unhashable
    for x in [(np.int64(5), True), np.array([1, 7], dtype=np.int64),
              (np.array(5), 1)]:
        assert G.reduce(x) == (1, 1)
        assert G.pairing(x, (1, 1)) == G.pairing((1, 1), (1, 1))
        assert table(x, x) == table((1, 1), (1, 1))
        assert quo.project(x) == quo.project(tuple(map(int, x)))
        assert quo.lift(x) == quo.lift(tuple(map(int, x)))
    assert (np.int64(3), True) in G and (True, np.int64(6)) not in G
    assert G.pairing((True, False), (1, 0)) == Phase(1, 4)


def factor_tuples(limit):
    """Every tuple of cyclic factors ``>= 2`` whose product is at most
    ``limit``, the empty tuple included."""
    out = [()]
    for d in range(2, limit + 1):
        out += [(d,) + rest for rest in factor_tuples(limit // d)]
    return out


def coordinate_variant(x, factors, i):
    """``x`` as given, unreduced, negative or as an ``np.int64`` array, in
    turn with ``i``."""
    shift = (0, 3, -5, -2)[i % 4]
    v = tuple(a + shift * d for a, d in zip(x, factors))
    return np.array(v, dtype=np.int64) if i % 4 == 3 else v


def test_enumerated_and_fresh_groups_agree_on_every_pair():
    """An enumerated group answers from its roots table, a fresh one reduces
    each exponent: both give equal phases, for every factor tuple of order
    at most 36, on every element pair and on coordinate variants."""
    rng = np.random.default_rng(36)
    tuples = factor_tuples(36) + [(1,), (1, 3), (2, 1, 2)]
    for factors in tuples:
        fresh, enumerated = (FiniteAbelianGroup(factors) for _ in range(2))
        elems = list(enumerated.elements())
        L = enumerated.exponent
        assert len(enumerated._roots) == L <= enumerated.size
        assert enumerated._roots == tuple(Phase(n, L) for n in range(L))
        omega = [[Phase(int(rng.integers(0, 60)), math.gcd(a, b))
                  for b in factors] for a in factors]
        tables = [GroupBilinearTable(G, omega) for G in (fresh, enumerated)]
        i = 0
        for x in elems:
            for y in elems:
                xv = coordinate_variant(x, factors, i)
                yv = coordinate_variant(y, factors, i + 1)
                i += 1
                p0, p1 = fresh.pairing(xv, yv), enumerated.pairing(xv, yv)
                t0, t1 = (table(xv, yv) for table in tables)
                assert type(p0) is type(p1) is Phase, factors
                assert (p0.n, p0.d) == (p1.n, p1.d), (factors, x, y)
                assert (t0.n, t0.d) == (t1.n, t1.d), (factors, x, y)
                assert p1 == enumerated.pairing(x, y)
                assert t1 == tables[1](x, y)
        assert fresh._roots is None and fresh._elements is None, factors


def test_huge_group_pairs_without_a_roots_table():
    m = 2 ** 32
    G = FiniteAbelianGroup([m, m])
    for x, chi in [((m - 1, 3), (5, m - 7)), ((-1, 2 * m + 1), (m + 1, -3))]:
        want = Phase(fraction_pairing(G.factors, x, chi))
        assert G.pairing(x, chi) == want
        assert G.pairing(np.array(x, dtype=np.int64),
                         np.array(chi, dtype=np.int64)) == want
    table = GroupBilinearTable(G, [[Phase(1, m), Phase(3, m)],
                                   [Phase.zero(), Phase(1, 2)]])
    assert table((m - 1, 1), (1, 1)) == Phase(-1 + 3 * (m - 1), m) + Phase(1, 2)
    assert G._roots is None and G._elements is None


def test_group_rejects_bad_factors():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((0, 2))


# ---------------------------------------------------------------------------
# GroupBilinearTable

def test_table_worked_values():
    G = FiniteAbelianGroup((3, 3))
    t = GroupBilinearTable(G, [[Phase(1, 3), Phase(1, 3)],
                               [Phase.zero(), Phase(1, 3)]])
    assert t((1, 0), (0, 1)) == Phase(1, 3)
    assert t((0, 1), (1, 0)) == Phase.zero()
    assert t((2, 1), (1, 2)) == Phase(2 * 1 + 2 * 2 + 1 * 2, 3)


def test_table_bimultiplicative():
    G = FiniteAbelianGroup((2, 4))
    t = GroupBilinearTable(G, [[Phase(1, 2), Phase(1, 2)],
                               [Phase(1, 2), Phase(1, 4)]])
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y, z = (G.random_element(rng) for _ in range(3))
        assert t(G.add(x, y), z) == t(x, z) + t(y, z)
        assert t(z, G.add(x, y)) == t(z, x) + t(z, y)


def test_table_validates_orders():
    G = FiniteAbelianGroup((2,))
    with pytest.raises(ValueError):
        GroupBilinearTable(G, [[Phase(1, 3)]])
    G2 = FiniteAbelianGroup((2, 4))
    with pytest.raises(ValueError):
        # order 4 value on the Z/2 generator pair
        GroupBilinearTable(G2, [[Phase(1, 4), Phase.zero()],
                                [Phase.zero(), Phase(1, 4)]])


def is_alternating(table):
    """True when every value pairs an element against itself trivially."""
    r, omega = table.group.rank, table.omega
    return (all(omega[i][i] == Phase.zero() for i in range(r))
            and all(omega[i][j] + omega[j][i] == Phase.zero()
                    for i in range(r) for j in range(i + 1, r)))


def test_table_alternating_and_antisymmetrized():
    G = FiniteAbelianGroup((2, 2))
    alt = GroupBilinearTable(G, [[Phase.zero(), Phase(1, 2)],
                                 [Phase(1, 2), Phase.zero()]])
    assert is_alternating(alt)
    diag = GroupBilinearTable(G, [[Phase(1, 2), Phase.zero()],
                                  [Phase.zero(), Phase.zero()]])
    assert not is_alternating(diag)
    anti = diag.antisymmetrized()
    assert anti == GroupBilinearTable.trivial(G)


def test_table_dict_round_trip():
    G = FiniteAbelianGroup((3, 6))
    t = GroupBilinearTable(G, [[Phase(1, 3), Phase(2, 3)],
                               [Phase.zero(), Phase(5, 6)]])
    data = t.as_dict()
    back = GroupBilinearTable(FiniteAbelianGroup(data["factors"]),
                              [[Phase(Fraction(w)) for w in row]
                               for row in data["omega"]])
    assert back == t


# ---------------------------------------------------------------------------
# commutant sublattice vs. enumeration

@pytest.mark.parametrize("g,N", [(1, 2), (1, 4), (2, 2), (2, 3), (2, 4),
                                 (2, 6), (3, 2), (3, 3)])
def test_H_hat_matches_enumeration(g, N):
    rng = np.random.default_rng(100 * g + N)
    mats = [random_antisymmetric(rng, g, N) for _ in range(4)]
    mats.append([[0] * g for _ in range(g)])
    for A in mats:
        sub = compute_H_hat(A, N)
        kernel = brute_kernel_residues(A, N, g)
        for t in itertools.product(range(-N, N + 1), repeat=g):
            expected = tuple(x % N for x in t) in kernel
            assert sub.contains(t) == expected, (A, t)
        assert sub.index * len(kernel) == N ** g
        for i in range(g):
            assert sub.contains(tuple(N * int(k == i) for k in range(g)))


def test_H_hat_even_half_diagonal_allowed():
    # antisymmetric mod 4 with a 2 on the diagonal is legal input
    A = [[2, 1], [3, 2]]
    sub = compute_H_hat(A, 4)
    kernel = brute_kernel_residues(A, 4, 2)
    for t in itertools.product(range(4), repeat=2):
        assert sub.contains(t) == (t in kernel)


def smith_H_hat(Lam, N):
    """The dual kernel from a Smith reduction of ``Lam`` alone: the columns
    of ``V`` scaled by ``N / gcd(d_i, N)`` (the oracle)."""
    L = [[int(x) % N for x in row] for row in Lam]
    g = len(L)
    D, _, V, _ = _smith_rows(L)
    mult = [N // math.gcd(D[i][i], N) for i in range(g)]
    return SublatticeBasis([[V[i][j] * mult[j] for j in range(g)]
                            for i in range(g)], N)


def test_H_hat_matches_the_smith_route():
    rng = random.Random(27)  # Python ints, for N beyond int64
    cases = [(6, 2**64 + 13)] + [
        (rng.randint(1, 5), rng.choice([2, 3, 4, 6, 8, 12, 16, 30, 64, 97,
                                        2**64]))
        for _ in range(400)]
    for g, N in cases:
        M = [[rng.randrange(N) if rng.random() < 0.7 else 0
              for _ in range(g)] for _ in range(g)]
        A = BilinearCocycle(M, N).antisymmetrized()
        assert compute_H_hat(A, N) == smith_H_hat(A, N), (A, N)


def test_H_hat_at_large_rank_and_order():
    """The Smith route took minutes here: its entries swell."""
    rng = random.Random(16)
    g, N = 16, 10**40
    M = [[rng.randrange(-10**30, 10**30) for _ in range(g)] for _ in range(g)]
    A = BilinearCocycle(M, N).antisymmetrized()
    start = time.perf_counter()
    sub = compute_H_hat(A, N)
    assert time.perf_counter() - start < 5
    for col in sub.columns():
        assert all(sum(a * t for a, t in zip(row, col)) % N == 0
                   for row in A)
    for i in range(g):
        assert sub.contains(tuple(N * int(k == i) for k in range(g)))


def test_H_hat_validates_antisymmetry():
    with pytest.raises(ValueError):
        compute_H_hat([[0, 1], [1, 0]], 3)


def test_contains_matches_enumeration_for_random_bases():
    """``contains`` against the lattice enumerated modulo its determinant D
    (a full-rank lattice contains D Z^g), inside and outside the lattice."""
    rng = np.random.default_rng(21)
    for g in (1, 2, 3):
        for _ in range(20):
            B = rng.integers(-3, 4, size=(g, g))
            D = abs(round(float(np.linalg.det(B))))
            if D == 0 or D > 12:
                continue
            sub = SublatticeBasis(B.tolist(), 12)
            assert sub.index == D
            cols = [[int(B[i][j]) for i in range(g)] for j in range(g)]
            residues = {tuple(sum(c * col[i] for c, col in zip(cs, cols)) % D
                              for i in range(g))
                        for cs in itertools.product(range(D), repeat=g)}
            box = range(-D - 1, D + 2)
            for t in itertools.product(box, repeat=g):
                want = tuple(x % D for x in t) in residues
                assert sub.contains(t) == want, (B.tolist(), t)
                far = tuple(x + 7 * D * 2 ** 64 for x in t)
                assert sub.contains(far) == want


def test_sublattice_basis_is_canonical():
    # two bases of the same lattice: index-6 sublattice of Z^2
    a = SublatticeBasis([[2, 0], [0, 3]], 6)
    b = SublatticeBasis([[2, 2], [0, 3]], 6)
    assert a == b and a.index == 6


# ---------------------------------------------------------------------------
# quotient presentation

@pytest.mark.parametrize("g,N", [(1, 3), (2, 2), (2, 4), (2, 6), (3, 2)])
def test_K_hat_round_trips(g, N):
    rng = np.random.default_rng(17 * g + N)
    for _ in range(4):
        A = random_antisymmetric(rng, g, N)
        sub = compute_H_hat(A, N)
        quo = compute_K_hat(sub)
        assert quo.group.size == sub.index
        for col in sub.columns():
            assert quo.project(col) == quo.group.zero()
        for k in quo.group.elements():
            assert quo.project(quo.lift(k)) == k
        # projection is a homomorphism
        for _ in range(10):
            s = tuple(int(x) for x in rng.integers(-6, 7, size=g))
            t = tuple(int(x) for x in rng.integers(-6, 7, size=g))
            st = tuple(a + b for a, b in zip(s, t))
            assert quo.project(st) == quo.group.add(quo.project(s),
                                                    quo.project(t))


@pytest.mark.parametrize("M,m", [([[0, 1], [0, 0]], 2 ** 64),
                                 ([[0, 2], [0, 0]], 2 ** 63)])
def test_H_hat_and_K_hat_beyond_int64(M, m):
    """``N = 2**64`` overflows int64; Smith reduction stays in Python ints.
    The commutant is ``m Z^2`` with ``m = N / gcd(M_01, N)``."""
    N = 2 ** 64
    lam = BilinearCocycle(M, N)
    for A in (lam.antisymmetrized(), [[N, 3], [2 * N + 1, N - 5]],
              [[m, 0, 1], [N, 2 * m, 7]]):
        assert_tracked_inverse(A)
    sub = compute_H_hat(lam.antisymmetrized(), N)
    assert sub.index == m * m
    assert sub.rows == ((m, 0), (0, m))
    quo = compute_K_hat(sub)
    assert quo.group.factors == (m, m)
    assert quo.group.size == sub.index
    assert sub.contains((m, -m)) and sub.contains((3 * m, 5 * N))
    assert not sub.contains((1, 0)) and not sub.contains((m, m - 1))
    assert quo.project(quo.lift((m - 1, 2))) == (m - 1, 2)
    table = descend_cocycle(lam, quo)
    assert table((1, 0), (0, 1)) == Phase(M[0][1], N)
    # nothing above enumerated the quotient, so it built no element index
    # and keeps no per-element row or lift
    assert quo.group._elements is None and quo.group._index is None
    assert quo.group._roots is None
    assert table._rows == {} and quo._lifted == {}


def test_K_hat_surjective_small():
    A = [[0, 1], [2, 0]]
    quo = compute_K_hat(compute_H_hat(A, 3))
    image = {quo.project(t) for t in itertools.product(range(3), repeat=2)}
    assert image == set(quo.group.elements())
    assert quo.group.factors == (3, 3)


def test_K_hat_trivial_when_everything_commutes():
    quo = compute_K_hat(compute_H_hat([[0, 0], [0, 0]], 5))
    assert quo.group.size == 1
    assert quo.group.factors == ()
    assert quo.project((2, 3)) == ()


@pytest.mark.parametrize("g", [1, 2, 3])
def test_quotient_maps_against_the_commutant_oracle(g):
    """Every upper-triangular form with N <= 4 (N = 1 and the zero form give
    the trivial quotient, with no lifts): ``project`` kills exactly the
    residues the enumeration oracle puts in the commutant, ``lift`` is a
    section of it on reduced and unreduced coordinates, both maps take
    numpy ints and both reject a wrong length."""
    for N in range(1, 5):
        for upper in itertools.product(range(N), repeat=g * (g - 1) // 2):
            it = iter(upper)
            M = [[next(it) if j > i else 0 for j in range(g)]
                 for i in range(g)]
            A = BilinearCocycle(M, N).antisymmetrized()
            quo = compute_K_hat(compute_H_hat(A, N))
            K = quo.group
            if K.size == 1:
                assert quo.lifts == [] and K.factors == ()
            kernel = brute_kernel_residues(A, N, g)

            def in_commutant(t):
                return tuple(a % N for a in t) in kernel

            for k in itertools.product(*(range(d) for d in K.factors)):
                assert quo.project(quo.lift(k)) == k
                for shift in (1, -2):
                    odd = tuple(a + shift * d for a, d in zip(k, K.factors))
                    assert quo.lift(odd) == quo.lift(k)
                    assert quo.project(quo.lift(np.array(odd))) == k
            for t in itertools.product(range(-1, N + 1), repeat=g):
                k = quo.project(t)
                assert (k == K.zero()) == in_commutant(t), (M, N, t)
                back = quo.lift(k)
                assert in_commutant([b - a for a, b in zip(t, back)])
                assert quo.project(np.array(t, dtype=np.int64)) == k
                assert quo.lift(np.array(k, dtype=np.int64)) == back
            for bad in [(0,) * (g + 1), (0,) * (g - 1)]:
                with pytest.raises(ValueError):
                    quo.project(bad)
            for bad in [(0,) * (K.rank + 1)] + (
                    [(0,) * (K.rank - 1)] if K.rank else []):
                with pytest.raises(ValueError):
                    quo.lift(bad)


def element_variants(x, factors):
    """``x`` itself, then equal or congruent forms that are not the group's
    own tuple: a freshly built tuple, a list, an int64 array, unreduced and
    negative coordinates, ``np.int64`` and ``bool`` coordinates."""
    return [x, tuple(list(x)), list(x), np.array(x, dtype=np.int64),
            tuple(a + 2 * d for a, d in zip(x, factors)),
            tuple(a - 3 * d for a, d in zip(x, factors)),
            tuple(map(np.int64, x)),
            tuple(bool(a) if a < 2 else a for a in x)]


def test_queries_match_the_per_call_loops():
    """On a seeded sample of the benchmark's ``(g, N, M)`` grid, ``table``,
    ``pairing``, ``project``, ``lift`` and ``lambda_sharp`` give exactly the
    values of the per-call loops, on every element pair in every argument
    form, before the group is enumerated and after."""
    rng = np.random.default_rng(2601)
    for g, N, _ in itertools.product((1, 2, 3), range(1, 7), range(3)):
        M = [[int(rng.integers(0, N)) if j > i else 0 for j in range(g)]
             for i in range(g)]
        lam = BilinearCocycle(M, N)
        quo = compute_K_hat(compute_H_hat(lam.antisymmetrized(), N))
        table = descend_cocycle(lam, quo)
        K = quo.group
        elems = list(itertools.product(*(range(d) for d in K.factors)))
        points = list(itertools.product(range(-1, N + 2), repeat=g))
        for enumerated in (False, True):
            if enumerated:
                assert K._elements is None and table._rows == {}
                assert lambda_sharp(table).sharp == loop_sharp(table)
                assert table._rows == {}  # sharp keeps no rows
                elems = list(K.elements())
            forms = [element_variants(x, K.factors) for x in elems]
            pairs = itertools.product(forms, repeat=2)
            for i, (xs, ys) in enumerate(pairs):
                for x, y in [(xs[0], ys[0]), (xs[i % 8], ys[(i + 3) % 8])]:
                    assert table(x, y) == loop_table(table, x, y), (M, N)
                    assert K.pairing(x, y) == loop_pairing(K, x, y)
            for xs in forms:
                for x in xs:
                    assert quo.lift(x) == loop_lift(quo, x), (M, N, x)
            for t in points:
                for tv in (t, list(t), np.array(t, dtype=np.int64),
                           tuple(map(np.int64, t))):
                    assert quo.project(tv) == loop_project(quo, t)


def test_kept_rows_match_the_loops_on_the_commutant_grid():
    """Own-tuple ``table`` and ``pairing`` on every pair, and
    ``lambda_sharp``, equal the per-call loops on every upper-triangular
    form with ``g <= 3`` and ``N <= 6``.  A table keeps, under each
    element ``x``, the group's row of its character ``sharp[x]``, the row
    the pairing keeps under ``sharp[x]``."""
    for g, N in itertools.product((1, 2, 3), range(1, 7)):
        for upper in itertools.product(range(N), repeat=g * (g - 1) // 2):
            it = iter(upper)
            M = [[next(it) if j > i else 0 for j in range(g)]
                 for i in range(g)]
            lam = BilinearCocycle(M, N)
            quo = compute_K_hat(compute_H_hat(lam.antisymmetrized(), N))
            table, K = descend_cocycle(lam, quo), quo.group
            sharp = lambda_sharp(table).sharp
            assert sharp == loop_sharp(table), (M, N)
            for x, y in itertools.product(K, repeat=2):
                assert table(x, y) == loop_table(table, x, y), (M, N, x, y)
                assert K.pairing(x, y) == loop_pairing(K, x, y), (M, N)
                assert K.pairing(y, sharp[x]) == table(x, y)
            for x in K:
                k = K._ids[id(sharp[x])]
                assert table._rows[K._ids[id(x)]] is K._chars[k] \
                    is K.pairing._rows[k]


def test_a_large_quotient_keeps_rows_of_the_queried_elements_only():
    """On the 4 096-element quotient that ``param analyze`` still lists,
    ``lambda_sharp`` keeps no row and ten own-tuple queries keep at most
    ten rows: none, since a character's row of 4 096 phases is built on
    its 64th read.  The pairing of ``sharp[x]`` then reads ``x``'s row."""
    lam = BilinearCocycle([[0, 1], [0, 0]], 64)
    quo = compute_K_hat(compute_H_hat(lam.antisymmetrized(), lam.N))
    table, K = descend_cocycle(lam, quo), quo.group
    sharp = lambda_sharp(table).sharp
    assert K.size == 4096 and table._rows == {} and K._chars == {}
    elems = list(K)
    rng = np.random.default_rng(4096)
    for i, j in rng.integers(0, K.size, size=(10, 2)).tolist():
        x, y = elems[i], elems[j]
        assert table(x, y) == loop_table(table, x, y)
        assert K.pairing(y, sharp[x]) == table(x, y)
    assert len(table._rows) <= 10 and len(K._chars) <= 10
    x = elems[1234]
    k = K._ids[id(sharp[x])]
    assert k not in K._reads
    for n, y in enumerate(elems[:64], 1):
        assert table(x, y) == loop_table(table, x, y)
        assert len(K._chars) == (n == 64)
    assert list(table._rows) == [1234] and list(K._chars) == [k]
    row = K._chars[k]
    assert table._rows[1234] is row and len(row) == K.size
    assert [K.pairing(sharp[x], y) for y in elems] == row
    assert K.pairing._rows[k] is row


def test_a_pairing_loop_over_a_large_group_keeps_one_row():
    """``<y, a>`` for every ``a`` of a 4 096-element group, the loop of
    ``character_twist``, reads the row of ``y`` 4 096 times and reads no
    other: it builds ``y``'s row of phases on its 64th read, and no more."""
    B = FiniteAbelianGroup((64, 64))
    elems = list(B)
    for n, y in enumerate(elems[:3], 1):
        assert [B.pairing(y, a) for a in elems] == [
            loop_pairing(B, y, a) for a in elems]
        assert list(B._chars) == list(B.pairing._rows) == list(range(n))


def test_enumerated_queries_return_the_groups_own_tuples():
    """``sharp`` values, ``flat`` keys and ``project`` outputs are the
    group's own tuples once it is enumerated, so queries on them skip every
    per-coordinate check; ``reduce`` answers with them too."""
    lam = BilinearCocycle([[0, 1, 2], [0, 0, 3], [0, 0, 0]], 6)
    quo = compute_K_hat(compute_H_hat(lam.antisymmetrized(), 6))
    table = descend_cocycle(lam, quo)
    pair = lambda_sharp(table)
    K = quo.group
    assert all(is_own(K, x) and is_own(K, pair.sharp[x]) for x in K)
    assert all(is_own(K, v) for v in pair.flat)
    for t in itertools.product(range(-1, 8), repeat=3):
        assert is_own(K, quo.project(t))
        assert is_own(K, quo.project(np.array(t)))
    for x in K:
        assert is_own(K, K.reduce(list(x)))
        assert quo.lift(x) is quo.lift(x)
    assert len(quo._lifted) == K.size


def test_add_neg_and_scale_return_the_groups_own_tuples():
    K = FiniteAbelianGroup((4, 6, 2))
    elems = list(K.elements())
    for x, y in zip(elems, elems[::-1]):
        for xv, yv in [(x, y), (list(x), np.array(y)), (tuple(list(x)), y)]:
            assert is_own(K, K.add(xv, yv))
            assert is_own(K, K.neg(xv))
            assert is_own(K, K.scale(-7, xv))
        assert K.add(x, y) == tuple(
            (a + b) % d for a, b, d in zip(x, y, K.factors))
        assert K.scale(-7, x) == tuple((-7 * a) % d
                                       for a, d in zip(x, K.factors))


def quotient_queries():
    """An enumerated ``K = (Z/4)^2`` with its table, quotient, pairing and
    every own-tuple query answered once, so rows and lifts are kept."""
    lam = BilinearCocycle([[0, 1], [0, 0]], 4)
    quo = compute_K_hat(compute_H_hat(lam.antisymmetrized(), 4))
    table = descend_cocycle(lam, quo)
    pair = lambda_sharp(table)
    K = quo.group
    values = {(x, y): (table(x, y), K.pairing(x, pair.sharp[y]))
              for x in K for y in K}
    lifts = {x: quo.lift(x) for x in K}
    assert K.factors == (4, 4) and len(table._rows) == len(lifts) == 16
    return quo, table, values, lifts


@pytest.mark.parametrize("clone", [lambda obj: pickle.loads(pickle.dumps(obj)),
                                   copy.deepcopy], ids=["pickle", "deepcopy"])
def test_pickled_and_copied_groups_answer_alike(clone):
    """A group pickles and copies as its factors, so a copy holds none of
    the original's element ids: its queries on the original's tuples, on
    its own tuples once enumerated and on refused coordinates behave as
    the original's do."""
    quo, table, values, lifts = quotient_queries()
    K = quo.group
    quo2, table2 = clone((quo, table))
    K2 = quo2.group
    assert table2.group is K2 and K2 == K
    assert K2._elements is None and K2._ids == {} and K2._chars == {}
    sharp = lambda_sharp(table).sharp  # the original's own tuples
    for enumerated in (False, True):
        if enumerated:
            assert list(K2.elements()) == list(K)
            assert not set(K2._ids) & set(K._ids)
            sharp = lambda_sharp(table2).sharp
        else:
            assert K2._elements is None
        for x, y in itertools.product(list(K) + list(K2._elements or ()),
                                      repeat=2):
            assert table2(x, y) == values[x, y][0]
            assert K2.pairing(x, sharp[y]) == values[x, y][1]
            assert quo2.lift(x) == lifts[x]
        for query in (lambda x: table2(x, (1, 1)), lambda x: table2((1, 1), x),
                      lambda x: K2.pairing(x, (1, 1)),
                      lambda x: K2.pairing((1, 1), x), quo2.lift, K2.reduce):
            with pytest.raises(TypeError):
                query((1.0, 0))


def test_an_equal_tuple_that_is_not_own_takes_the_checked_path(monkeypatch):
    """Own tuples are recognised by identity: once rows and lifts are kept
    they answer without passing their coordinates through the checks, and
    an equal tuple built afresh is checked on every call, with the same
    values."""
    quo, table, values, lifts = quotient_queries()
    K = quo.group
    pair = lambda_sharp(table)
    checked = []
    ints = FiniteAbelianGroup._ints

    def counting(self, x):
        checked.append(x)
        return ints(self, x)

    monkeypatch.setattr(FiniteAbelianGroup, "_ints", counting)
    for x, y in itertools.product(K, repeat=2):
        table(x, y), K.pairing(x, pair.sharp[y]), quo.lift(x)
    assert checked == []
    for x, y in itertools.product(K, repeat=2):
        xe, ye = tuple(list(x)), tuple(list(y))
        assert xe == x and xe is not x and not is_own(K, xe)
        assert table(xe, ye) == values[x, y][0]
        assert table(x, ye) == values[x, y][0]
        assert K.pairing(xe, tuple(list(pair.sharp[y]))) == values[x, y][1]
        assert quo.lift(xe) == lifts[x]
        assert checked[-1] is xe
    # xe and ye twice each in the tables, xe and the character in the
    # pairing, xe in the lift
    assert len(checked) == 16 * 16 * 6


@pytest.mark.parametrize("enumerated", [False, True])
def test_unhashable_coordinates_are_refused(enumerated):
    """A tuple with an unhashable coordinate that is no integer is refused
    with ``TypeError`` by every query and is never a member."""
    quo = compute_K_hat(compute_H_hat([[0, 1], [3, 0]], 4))
    K = quo.group
    table = GroupBilinearTable(K, [[Phase(1, 4), Phase(1, 2)],
                                   [Phase.zero(), Phase(1, 4)]])
    if enumerated:
        list(K.elements())
    for bad in [([1], 0), (0, {}), (np.array([1, 2]), 0)]:
        assert bad not in K
        for query in (lambda x: K.pairing(x, (1, 1)),
                      lambda x: K.pairing((1, 1), x),
                      lambda x: table(x, (1, 1)), lambda x: table((1, 1), x),
                      quo.project, quo.lift, K.reduce, K.neg,
                      lambda x: K.add(x, (1, 1))):
            with pytest.raises(TypeError):
                query(bad)


# ---------------------------------------------------------------------------
# descent and sharp

def check_descent_invariants(lam):
    """Shared battery: antisymmetrization oracle + sharp duality identity."""
    quo = compute_K_hat(compute_H_hat(lam.antisymmetrized(), lam.N))
    table = descend_cocycle(lam, quo)
    A = lam.antisymmetrized()
    K = quo.group
    for x in K.elements():
        for y in K.elements():
            lx, ly = quo.lift(x), quo.lift(y)
            pair = sum(a * v for a, v in
                       zip(lx, (sum(r * c for r, c in zip(row, ly))
                                for row in A)))
            assert table(x, y) - table(y, x) == Phase(pair, lam.N), (x, y)
    dual = lambda_sharp(table)
    for x in K.elements():
        for y in K.elements():
            assert table(x, y) == K.pairing(y, dual.sharp[x])
    assert sorted(dual.sharp.values()) == sorted(K.elements())
    return table, dual


def test_descend_full_rank_example():
    lam = BilinearCocycle([[0, 1], [0, 0]], 3)
    table, dual = check_descent_invariants(lam)
    assert table.group.factors == (3, 3)
    # triangular with primitive diagonal
    assert table.omega[0][0] == Phase(1, 3)
    assert table.omega[1][1] == Phase(1, 3)
    assert table.omega[1][0] == Phase.zero()


def test_descend_degenerate_directions():
    # one generator central: quotient collapses to a smaller group
    lam = BilinearCocycle([[0, 0, 2], [0, 0, 0], [0, 0, 0]], 4)
    table, dual = check_descent_invariants(lam)
    assert table.group.size == 4  # (Z/2)^2 from the order-2 pairing


def test_descend_rejects_foreign_quotient():
    lam = BilinearCocycle([[0, 1], [0, 0]], 4)
    wrong = compute_K_hat(compute_H_hat([[0, 0], [0, 0]], 4))
    with pytest.raises(ValueError):
        descend_cocycle(lam, wrong)


def test_descend_n_mismatch():
    lam = BilinearCocycle([[0, 1], [0, 0]], 4)
    quo = compute_K_hat(compute_H_hat([[0, 1], [2, 0]], 3))
    with pytest.raises(ValueError):
        descend_cocycle(lam, quo)


def test_lambda_sharp_rejects_degenerate():
    G = FiniteAbelianGroup((2,))
    with pytest.raises(ValueError):
        lambda_sharp(GroupBilinearTable.trivial(G))


def test_lambda_sharp_z2_nontrivial():
    G = FiniteAbelianGroup((2,))
    t = GroupBilinearTable(G, [[Phase(1, 2)]])
    dual = lambda_sharp(t)
    assert dual.sharp[(1,)] == (1,)
    assert dual.flat[(1,)] == (1,)
    assert dual.dual_pairing((1,), (1,)) == Phase(1, 2)


# ---------------------------------------------------------------------------
# subgroup presentation

def test_subgroup_klein_inside_z4_z2():
    G = FiniteAbelianGroup((4, 2))
    sub = subgroup_presentation(G, [(2, 0), (0, 1)])
    assert set(sub.elements) == {(0, 0), (2, 0), (0, 1), (2, 1)}
    assert sub.group.size == 4
    assert sorted(sub.group.factors) == [2, 2]
    for k in sub.group.elements():
        assert sub.restrict(sub.embed(k)) == k
    for x in sub.elements:
        assert sub.embed(sub.restrict(x)) == x
    with pytest.raises(ValueError):
        sub.restrict((1, 0))


def test_subgroup_cyclic_diagonal():
    G = FiniteAbelianGroup((4, 2))
    sub = subgroup_presentation(G, [(1, 1)])
    assert set(sub.elements) == {(0, 0), (1, 1), (2, 0), (3, 1)}
    assert sub.group.factors == (4,)


def test_subgroup_trivial_and_full():
    G = FiniteAbelianGroup((2, 2))
    empty = subgroup_presentation(G, [])
    assert empty.elements == ((0, 0),)
    assert empty.group.size == 1
    full = subgroup_presentation(G, [(1, 0), (0, 1)])
    assert full.group.factors == (2, 2)
    assert len(full.elements) == 4


def test_subgroup_restrict_matches_enumeration():
    """``restrict`` is defined exactly on the subgroup enumerated from the
    generators' multiples, inverts ``embed`` there and raises elsewhere."""
    rng = np.random.default_rng(9)
    for factors in [(4, 2), (6, 4), (2, 2, 3)]:
        G = FiniteAbelianGroup(factors)
        for _ in range(8):
            k = int(rng.integers(0, 3))
            gens = [G.random_element(rng) for _ in range(k)]
            span = {G.zero()}
            for cs in itertools.product(range(math.lcm(*factors)),
                                        repeat=len(gens)):
                x = G.zero()
                for c, gen in zip(cs, gens):
                    x = G.add(x, G.scale(c, gen))
                span.add(x)
            sub = subgroup_presentation(G, gens)
            assert set(sub.elements) == span
            assert len(sub.elements) == len(span)
            for x in G.elements():
                if x in span:
                    k = sub.restrict(x)
                    assert k in sub.group and sub.embed(k) == x
                    shifted = tuple(a - 3 * d for a, d in zip(x, factors))
                    assert sub.restrict(shifted) == k
                else:
                    with pytest.raises(ValueError):
                        sub.restrict(x)


def test_subgroup_random_property():
    rng = np.random.default_rng(8)
    G = FiniteAbelianGroup((6, 4))
    for _ in range(15):
        k = int(rng.integers(0, 3))
        gens = [G.random_element(rng) for _ in range(k)]
        sub = subgroup_presentation(G, gens)
        assert G.size % sub.group.size == 0
        assert sub.group.size == len(sub.elements)
        assert {sub.embed(a) for a in sub.group.elements()} == set(sub.elements)
        for x in sub.elements:
            assert sub.embed(sub.restrict(x)) == x
