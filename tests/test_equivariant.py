import itertools
import math
import re
import time

import numpy as np
import pytest

from nctorus import equivariant
from nctorus.cocycle import Phase
from nctorus.equivariant import (
    TOL,
    EquivariantObject,
    GroupCocycleTable,
    GSet,
    LinearizationReport,
    check_linearization,
    forget,
    free,
    from_module,
    hom_dim,
    hom_space,
    retwist,
    to_module,
    twisted_algebra,
)
from nctorus.finitefm import TorusModel, free_sheaf, random_sheaf
from nctorus.lattice import FiniteAbelianGroup, GroupBilinearTable, _add_index

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def klein():
    return FiniteAbelianGroup((2, 2))


def pauli_phi():
    G = klein()
    omega = [[Phase.zero(), Phase(1, 2)], [Phase.zero(), Phase.zero()]]
    return GroupCocycleTable.from_bilinear(GroupBilinearTable(G, omega))


def pauli_object():
    G = klein()
    gset = GSet.trivial(G)
    rho = {
        (0, 0): {"*": np.eye(2, dtype=complex)},
        (1, 0): {"*": X},
        (0, 1): {"*": Z},
        (1, 1): {"*": X @ Z},
    }
    return EquivariantObject(gset, {"*": 2}, rho)


def random_bilinear_phi(group, rng):
    g = group.rank
    d = group.factors
    omega = [[Phase(int(rng.integers(0, 12)), int(np.gcd(d[i], d[j])))
              for j in range(g)] for i in range(g)]
    return GroupCocycleTable.from_bilinear(GroupBilinearTable(group, omega))


def random_unitary(n, rng):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


# ---------------------------------------------------------------------------
# G-sets

def test_gset_regular():
    G = FiniteAbelianGroup((4,))
    S = GSet.regular(G)
    assert len(S.points) == 4
    assert S.act((1,), (3,)) == (0,)


def test_gset_trivial():
    S = GSet.trivial(klein(), ("a", "b"))
    assert S.act("a", (1, 1)) == "a"


def unreduced_forms(G, g, rng):
    """``g`` as the caller may pass it: shifted by multiples of the factors
    (also negative ones), as a list, and in numpy ints."""
    shift = [int(v) for v in rng.integers(-3, 4, size=G.rank)]
    moved = tuple(a + m * d for a, m, d in zip(g, shift, G.factors))
    return [g, moved, list(moved), tuple(np.int64(a) for a in moved)]


def test_gset_act_matches_the_action_callable():
    """``act`` reads the table filled at construction; it must give what
    the callable gives on every point and element, reduced or not, and
    ``action`` the same by index."""
    rng = np.random.default_rng(5)
    cases = []
    for factors in [(4,), (2, 2), (2, 3)]:
        G = FiniteAbelianGroup(factors)
        cases.append((G, tuple(G.elements()), G.add))
        cases.append((G, ("a", "b"), lambda s, g: s))
    for factors in [(4,), (2, 4)]:
        G = FiniteAbelianGroup(factors)
        Q = FiniteAbelianGroup(factors[:-1] + (2,))
        cases.append((G, tuple(Q.elements()), Q.add))
    for model in torus_models():
        B, K = model.B, model.Khat

        def shift(beta, k, B=B, K=K, embed=model.embed):
            return B.add(beta, tuple(
                sum(e * c for e, c in zip(row, K.reduce(k))) for row in embed))
        cases.append((K, model.gset.points, shift))
        assert GSet(K, model.gset.points, shift).table == model.gset.table
    for G, points, act in cases:
        gset = GSet(G, points, act)
        assert list(gset.table) == list(points)
        assert not gset.action.flags.writeable
        assert gset.action.tolist() == [
            [points.index(act(s, g)) for g in G.elements()] for s in points]
        for s in points:
            assert list(gset.table[s]) == list(G.elements())
            for g in G.elements():
                for form in unreduced_forms(G, g, rng):
                    assert gset.act(s, form) == act(s, g), (s, form)


def test_gset_rejects_escaping_action():
    G = FiniteAbelianGroup((4,))
    with pytest.raises(ValueError,
                       match=r"^action leaves the point set at a\.\(1,\)$"):
        GSet(G, ("a", "b"), lambda s, g: "c" if g[0] else s)
    # escaping only at a later element: associativity breaks first
    with pytest.raises(ValueError, match=r"^action is not associative at "
                                         r"\(0, \(1,\), \(3,\)\)$"):
        GSet(G, (0, 1, 2, 3), lambda s, g: s + g[0])


def test_gset_rejects_non_action():
    G = FiniteAbelianGroup((4,))
    with pytest.raises(ValueError, match=r"^action is not associative at "
                                         r"\(0, \(1,\), \(1,\)\)$"):
        GSet(G, (0, 1, 2, 3), lambda s, g: (s + g[0] ** 2) % 4)
    with pytest.raises(ValueError, match=r"^identity does not fix 1$"):
        GSet(G, (0, 1), lambda s, g: 0)


def test_gset_rejects_duplicate_points():
    with pytest.raises(ValueError):
        GSet.trivial(klein(), ("a", "a"))


def loop_gset_check(group, points, act):
    """The former validation of ``GSet``, kept as its oracle: the callable
    tabulated into ``table[s][g]``, the identity checked at every point,
    then closure and associativity at each ``(s, g1)`` in order, values
    compared with ``!=``.  Returns the table."""
    table = {s: {g: act(s, g) for g in group.elements()} for s in points}
    zero = group.zero()
    for s, row in table.items():
        if row[zero] != s:
            raise ValueError(f"identity does not fix {s}")
    for s, row in table.items():
        for g1, mid in row.items():
            if mid not in table:
                raise ValueError(f"action leaves the point set at {s}.{g1}")
            for g2, t in table[mid].items():
                if t != row[group.add(g1, g2)]:
                    raise ValueError(
                        f"action is not associative at ({s}, {g1}, {g2})")
    return table


def random_gset_map(rng):
    """A group, at most five points and a seeded map on them: translation
    of ``Z/m`` orbits along a homomorphism from the group, then one of:
    unchanged, one entry moved to another point, one identity entry moved,
    two or three entries moved to the outside values ``"x"`` and ``"y"``
    (both used), or every entry drawn at random."""
    G = FiniteAbelianGroup([(2,), (3,), (4,), (2, 2), (6,)][rng.integers(5)])
    elts, points, rows = list(G.elements()), [], []
    while not points or (len(points) < 5 and rng.random() < 0.5):
        m = int(rng.integers(1, 6 - len(points)))
        c = [int(rng.integers(m)) * (m // math.gcd(m, d)) for d in G.factors]
        orbit = [(len(rows), r) for r in range(m)]
        for r in range(m):
            rows.append([orbit[(r + sum(a * b for a, b in zip(c, g))) % m]
                         for g in elts])
        points += orbit
    kind = int(rng.integers(5))
    cells = [(p, i) for p in range(len(points)) for i in range(len(elts))]
    if kind == 1 and len(elts) > 1:
        p, i = cells[rng.integers(len(cells))]
        rows[p][max(i, 1)] = points[rng.integers(len(points))]
    elif kind == 2:
        rows[rng.integers(len(points))][0] = points[rng.integers(len(points))]
    elif kind == 3:
        for n, j in enumerate(rng.choice(len(cells), min(len(cells), 3),
                                         replace=False)):
            p, i = cells[j]
            rows[p][i] = "xy"[n] if n < 2 else "xy"[rng.integers(2)]
    elif kind == 4:
        pool = points + ["x", "y"]
        rows = [[pool[rng.integers(len(pool))] for _ in elts]
                for _ in points]
    table = {s: dict(zip(elts, row)) for s, row in zip(points, rows)}
    return G, tuple(points), lambda s, g: table[s][g]


def assert_gset_check_matches_the_loop(rng, maps):
    """On ``maps`` seeded random maps the array check of ``GSet`` raises
    the message of the former loop, or accepts what it accepted with the
    same action."""
    seen = set()
    for _ in range(maps):
        G, points, act = random_gset_map(rng)
        try:
            table = loop_gset_check(G, points, act)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                GSet(G, points, act)
            assert str(got.value) == str(exc), (G, points)
            seen.add(str(exc).split(" at ")[0].split(" fix ")[0])
            continue
        gset = GSet(G, points, act)
        assert gset.action.tolist() == [[points.index(t) for t in row.values()]
                                        for row in table.values()]
        assert gset.table == table
        seen.add("accepted")
    assert seen == {"accepted", "identity does not",
                    "action leaves the point set",
                    "action is not associative"}


def test_gset_array_check_matches_the_loop_oracle_on_random_maps():
    assert_gset_check_matches_the_loop(np.random.default_rng(26), 1500)


@pytest.mark.parametrize("budget", [1, 100])
def test_gset_check_in_batches_of_elements_matches_the_loop_oracle(
        monkeypatch, budget):
    """The axioms compared one element ``g1`` at a time (a budget of one
    byte) or in batches of one or more with a ragged last one (100 bytes
    fit at most 12 entries of ``action`` per batch) give the same
    messages and actions as the former loop."""
    monkeypatch.setattr(equivariant, "LAW_BATCH_BYTES", budget)
    assert_gset_check_matches_the_loop(np.random.default_rng(2901), 500)


def test_gset_views_are_read_only():
    G = FiniteAbelianGroup((4,))
    gset = GSet.regular(G)
    assert "table" not in GSet.__slots__
    with pytest.raises(TypeError):
        gset.table[(0,)][(1,)] = (3,)
    with pytest.raises(TypeError):
        gset.table[(0,)] = {}
    with pytest.raises(ValueError):
        gset.action[0, 1] = 3
    assert gset.act((0,), (5,)) == (1,)
    obj = free({s: 1 for s in gset.points}, GroupCocycleTable.trivial(G),
               gset)
    with pytest.raises(ValueError,
                       match=r"^to_module needs a trivial underlying action$"):
        to_module(obj)


# ---------------------------------------------------------------------------
# cocycle tables

def test_from_bilinear_satisfies_cocycle_identity():
    ok, witness = pauli_phi().check()
    assert ok and witness is None


def test_trivial_table_values():
    phi = GroupCocycleTable.trivial(klein())
    assert phi((1, 0), (0, 1)) == 1.0
    assert phi.check()[0]


def test_check_flags_corrupted_entry():
    phi = pauli_phi()
    table = dict(phi.table)
    table[((1, 0), (0, 1))] = -table[((1, 0), (0, 1))]
    bad = GroupCocycleTable(klein(), table)
    ok, witness = bad.check()
    assert not ok
    assert witness is not None
    g1, g2, g3 = witness
    lhs = bad(g1, g2) * bad(klein().add(g1, g2), g3)
    rhs = bad(g1, klein().add(g2, g3)) * bad(g2, g3)
    assert abs(lhs - rhs) > 1e-9


def test_twisted_by_stays_a_cocycle():
    rng = np.random.default_rng(5)
    G = klein()
    alpha = {g: np.exp(2j * np.pi * rng.random()) for g in G.elements()}
    phi2 = pauli_phi().twisted_by(alpha)
    assert phi2.check()[0]


def test_inverse_and_opposite():
    phi = pauli_phi()
    inv = phi.inverse()
    for key, value in phi.table.items():
        assert abs(value * inv.table[key] - 1) < 1e-12
    opp = GroupCocycleTable(phi.group, {(g2, g1): v
                                        for (g1, g2), v in phi.table.items()})
    assert opp((1, 0), (0, 1)) == phi((0, 1), (1, 0))
    assert abs(phi((1, 0), (0, 1)) - opp((1, 0), (0, 1))) > 1


def test_table_rejects_missing_and_zero_entries():
    G = klein()
    full = {k: 1.0 for k in pauli_phi().table}
    partial = dict(full)
    del partial[((1, 1), (1, 1))]
    with pytest.raises(ValueError):
        GroupCocycleTable(G, partial)
    zeroed = dict(full)
    zeroed[((1, 0), (1, 0))] = 0.0
    with pytest.raises(ValueError):
        GroupCocycleTable(G, zeroed)


def test_table_rejects_non_finite_entries():
    """A NaN entry would pass every ``> TOL`` comparison of ``check``."""
    G = klein()
    for value in (float("nan"), complex(1, float("nan")), float("inf")):
        table = dict(GroupCocycleTable.trivial(G).table)
        table[((1, 0), (0, 1))] = value
        with pytest.raises(ValueError, match="not finite"):
            GroupCocycleTable(G, table)


def invariant_factors(limit):
    """Every abelian group of order at most ``limit``, up to isomorphism:
    its invariant factors ``d_1 | d_2 | ...``, the trivial group first."""
    out = [()]

    def extend(prefix, size):
        for d in range(2, limit // size + 1):
            if not prefix or d % prefix[-1] == 0:
                out.append(prefix + (d,))
                extend(prefix + (d,), size * d)

    extend((), 1)
    return out


def bits(values):
    return np.asarray(values, dtype=complex).reshape(-1).view(np.uint64)


def test_from_bilinear_is_the_embedded_per_pair_table():
    """Bit for bit against ``bil(g1, g2).embed()`` on every abelian group of
    order at most 16, and ``__call__`` returns that Python complex."""
    groups = invariant_factors(16)
    assert len(groups) == 25
    rng = np.random.default_rng(16)
    for factors in groups:
        G = FiniteAbelianGroup(factors)
        forms = [GroupBilinearTable.trivial(G)] + [
            GroupBilinearTable(G, [[Phase(int(rng.integers(0, 16)),
                                          int(np.gcd(di, dj)))
                                    for dj in factors] for di in factors])
            for _ in range(3)]
        for bil in forms:
            phi = GroupCocycleTable.from_bilinear(bil)
            want = {(g1, g2): bil(g1, g2).embed()
                    for g1 in G.elements() for g2 in G.elements()}
            assert phi.values.shape == (G.size, G.size)
            assert list(phi.table) == list(want)
            assert np.array_equal(bits(list(phi.table.values())),
                                  bits(list(want.values())))
            for (g1, g2), v in want.items():
                got = phi(g1, g2)
                assert type(got) is complex
                assert np.array_equal(bits(got), bits(v))


def test_table_dict_rebuilds_an_equal_table():
    rng = np.random.default_rng(17)
    for factors in [(2, 2), (3,), (2, 4), ()]:
        G = FiniteAbelianGroup(factors)
        phi = random_bilinear_phi(G, rng)
        again = GroupCocycleTable(G, dict(phi.table))
        assert np.array_equal(bits(again.values), bits(phi.values))
        assert again.table == phi.table
        assert np.array_equal(
            bits(GroupCocycleTable(G, phi.values).values), bits(phi.values))


def test_table_refusals_name_the_first_bad_pair_in_row_major_order():
    """A missing pair, a zero and a non-finite value planted at three
    places: each arrangement names the earliest, with its own reason."""
    G = FiniteAbelianGroup((2, 3))
    keys = list(itertools.product(G.elements(), repeat=2))
    reasons = {"missing": "is missing the pair", "zero": "vanishes at",
               "nan": "is not finite at"}
    rng = np.random.default_rng(23)
    for _ in range(12):
        places = sorted(rng.choice(len(keys), size=3, replace=False))
        kinds = list(rng.permutation(list(reasons)))
        table = {k: 1.0 for k in keys}
        for i, kind in zip(places, kinds):
            if kind == "missing":
                del table[keys[i]]
            else:
                table[keys[i]] = 0.0 if kind == "zero" else float("nan")
        g1, g2 = keys[places[0]]
        with pytest.raises(ValueError) as err:
            GroupCocycleTable(G, table)
        assert str(err.value) == f"table {reasons[kinds[0]]} ({g1}, {g2})"
        # the array form has no missing pairs
        values = np.ones((G.size, G.size), dtype=complex)
        present = [(i, kind) for i, kind in zip(places, kinds)
                   if kind != "missing"]
        for i, kind in present:
            values.flat[i] = 0 if kind == "zero" else np.inf
        (first, kind), = present[:1]
        g1, g2 = keys[first]
        with pytest.raises(ValueError, match=re.escape(
                f"table {reasons[kind]} ({g1}, {g2})")):
            GroupCocycleTable(G, values)


def loop_check(phi):
    """The cocycle identity triple by triple (the oracle)."""
    G = phi.group
    for g1, g2, g3 in itertools.product(G.elements(), repeat=3):
        lhs = phi(g1, g2) * phi(G.add(g1, g2), g3)
        rhs = phi(g1, G.add(g2, g3)) * phi(g2, g3)
        if abs(lhs - rhs) > TOL:
            return False, (g1, g2, g3)
    return True, None


def test_check_witness_matches_the_triple_loop():
    rng = np.random.default_rng(101)
    for factors in [(2, 2), (4,), (2, 3), (3, 3), (2, 4), (2, 2, 2)]:
        G = FiniteAbelianGroup(factors)
        phi = random_bilinear_phi(G, rng)
        assert phi.check() == loop_check(phi) == (True, None)
        keys = list(phi.table)
        for _ in range(4):
            table = dict(phi.table)
            for i in rng.choice(len(keys), size=int(rng.integers(1, 4)),
                                replace=False):
                table[keys[i]] *= np.exp(2j * np.pi * rng.uniform(0.1, 0.9))
            bad = GroupCocycleTable(G, table)
            ok, witness = bad.check()
            assert not ok
            assert (ok, witness) == loop_check(bad)


# ---------------------------------------------------------------------------
# the transport law

def test_pauli_triple_satisfies_law_exactly():
    report = check_linearization(pauli_object(), pauli_phi())
    assert report.ok
    assert report.max_dev < 1e-12
    assert report.witness is None


def test_pauli_triple_fails_trivial_twist():
    report = check_linearization(pauli_object(),
                                 GroupCocycleTable.trivial(klein()))
    assert not report.ok
    assert report.witness is not None
    assert report.max_dev > 1.0


def test_report_keeps_the_worst_deviation_and_the_first_witness():
    report = LinearizationReport()
    assert tuple(report) == (True, 0.0, None)
    report.note(TOL, "at tolerance")
    assert report.ok and report.max_dev == TOL
    report.note(0.5, "first")
    report.note(0.25, "smaller")
    report.note(2.0, "worst")
    assert tuple(report) == (False, 2.0, "first")
    report.note(float("nan"), "nan")
    assert report.max_dev == float("inf") and report.witness == "first"


def with_transport(obj, g, s, m):
    """``obj`` with ``rho[g][s]`` replaced by ``m``, built through the
    constructor (the transports of an object are read-only)."""
    rho = {h: dict(per) for h, per in obj.rho.items()}
    rho[g][s] = m
    return EquivariantObject(obj.gset, obj.dims, rho)


def test_nan_transport_fails_the_law():
    G = klein()
    phi = GroupCocycleTable.trivial(G)
    obj = free({s: 1 for s in G.elements()}, phi, GSet.regular(G))
    assert check_linearization(obj, phi).ok
    m = obj.rho[(1, 0)][(0, 1)].copy()
    m[0, 0] = np.nan
    obj = with_transport(obj, (1, 0), (0, 1), m)
    report = check_linearization(obj, phi)
    assert not report.ok
    assert report.max_dev == float("inf")
    assert report.witness == ((0, 0), (1, 0), (0, 1))


def test_transports_are_read_only_views_into_one_padded_stack():
    """``stack[p, i]`` holds ``rho_g[s]`` in its corner and zeros around
    it; neither the mapping nor the views can be written, and the
    constructor packs a copy of what it is given."""
    rng = np.random.default_rng(1501)
    model = torus_models()[1]
    points, elts = model.gset.points, list(model.Khat.elements())
    dims = {s: int(rng.integers(0, 4)) for s in points}
    # fibers of several dimensions along each orbit
    uneven = EquivariantObject(model.gset, dims, {g: {
        s: rng.normal(size=(dims[model.gset.act(s, g)], dims[s]))
        for s in points} for g in elts})
    obj = random_sheaf(model, rng)
    for x in (uneven, obj):
        d = max(x.dims.values())
        assert x.stack.shape == (len(points), len(elts), d, d)
        assert not x.stack.flags.writeable
        for p, s in enumerate(points):
            for i, g in enumerate(elts):
                view, t = x.rho[g][s], model.gset.act(s, g)
                assert view.shape == (x.dims[t], x.dims[s])
                assert view.base is x.stack
                assert not view.flags.writeable
                padded = x.stack[p, i].copy()
                padded[:x.dims[t], :x.dims[s]] = 0
                assert not padded.any()
    g, s = elts[1], points[0]
    with pytest.raises(TypeError):
        obj.rho[g][s] = np.zeros_like(obj.rho[g][s])
    with pytest.raises(TypeError):
        obj.rho[g] = {}
    with pytest.raises(ValueError, match="read-only"):
        obj.rho[g][s][0, 0] = 0
    m = np.array(X)
    pauli = EquivariantObject(GSet.trivial(klein()), {"*": 2},
                              {h: {"*": m} for h in klein().elements()})
    m[0, 1] = 5
    assert pauli.rho[(1, 0)]["*"][0, 1] == 1
    assert not pauli.rho[(1, 0)]["*"].flags.writeable


def test_shape_validation():
    G = klein()
    gset = GSet.trivial(G)
    rho = {g: {"*": np.eye(2)} for g in G.elements()}
    rho[(1, 0)] = {"*": np.eye(3)}
    with pytest.raises(ValueError):
        EquivariantObject(gset, {"*": 2}, rho)


def test_free_objects_satisfy_law():
    rng = np.random.default_rng(11)
    for factors in [(2,), (4,), (2, 2), (3, 3)]:
        G = FiniteAbelianGroup(factors)
        phi = random_bilinear_phi(G, rng)
        assert phi.check()[0]
        for gset in (GSet.regular(G), GSet.trivial(G, ("a", "b"))):
            dims = {s: int(rng.integers(0, 3)) for s in gset.points}
            obj = free(dims, phi, gset)
            report = check_linearization(obj, phi)
            assert report.ok, (factors, report)


def test_free_detects_non_cocycle():
    G = klein()
    table = dict(pauli_phi().table)
    table[((1, 0), (0, 1))] = -table[((1, 0), (0, 1))]
    bad = GroupCocycleTable(G, table)
    assert not bad.check()[0]
    obj = free({s: 1 for s in G.elements()}, bad, GSet.regular(G))
    report = check_linearization(obj, bad)
    assert not report.ok
    assert report.witness is not None


def test_free_dimension_bookkeeping():
    G = klein()
    gset = GSet.regular(G)
    dims = {s: i for i, s in enumerate(gset.points)}
    obj = free(dims, pauli_phi(), gset)
    total = sum(dims.values())
    for s in gset.points:
        assert obj.dims[s] == total
    single = free({"*": 3}, pauli_phi(), GSet.trivial(G))
    assert single.dims["*"] == 3 * G.size


def test_forget_returns_dims():
    obj = pauli_object()
    assert forget(obj) == {"*": 2}


def loop_check_linearization(obj, phi):
    """The transport law one ``(g1, g2, s)`` at a time (the oracle)."""
    G = obj.group
    table = obj.gset.table
    rho = obj.rho
    report = LinearizationReport()
    for g1 in G.elements():
        for g2 in G.elements():
            rho1, rho2, rho12 = rho[g1], rho[g2], rho[G.add(g1, g2)]
            scale = phi(g1, g2)
            for s in obj.gset.points:
                lhs = rho2[table[s][g1]] @ rho1[s]
                rhs = scale * rho12[s]
                report.note(float(np.max(np.abs(lhs - rhs)))
                            if lhs.size else 0.0, (g1, g2, s))
    return report


def loop_free(dims, phi, gset):
    """The induced object one identity block per summand (the oracle)."""
    G = gset.group
    table = gset.table
    order = list(G.elements())
    pos = {g: i for i, g in enumerate(order)}
    base = {s: int(dims.get(s, 0)) for s in gset.points}
    offsets, total = {}, {}
    for s in gset.points:
        offs, run = [], 0
        for gp in order:
            offs.append(run)
            run += base[table[s][gp]]
        offsets[s], total[s] = offs, run
    rho = {}
    for g in order:
        src = [pos[G.add(g, gp)] for gp in order]
        mats = {}
        for s in gset.points:
            t = table[s][g]
            m = np.zeros((total[t], total[s]), dtype=complex)
            for i, gp in enumerate(order):
                d = base[table[t][gp]]
                if d:
                    r0, c0 = offsets[t][i], offsets[s][src[i]]
                    m[r0:r0 + d, c0:c0 + d] = phi(g, gp) * np.eye(d)
            mats[s] = m
        rho[g] = mats
    return EquivariantObject(gset, total, rho)


def abelian_groups(limit):
    """Invariant factors ``d1 | d2 | ...`` of every abelian group of order
    at most ``limit``; the trivial group is ``()``."""
    def chains(n, prev):
        if n == 1:
            yield ()
        for d in range(2, n + 1):
            if n % d == 0 and d % prev == 0:
                for rest in chains(n // d, d):
                    yield (d,) + rest
    return [f for n in range(1, limit + 1) for f in chains(n, 1)]


def assert_reports_agree(obj, phi):
    """``ok`` and the witness exactly, ``max_dev`` within a few ulps of the
    product entries (the batched product may sum in another order)."""
    got = check_linearization(obj, phi)
    want = loop_check_linearization(obj, phi)
    assert (got.ok, got.witness) == (want.ok, want.witness)
    big = max((np.max(np.abs(m), initial=0.0)
               for mats in obj.rho.values() for m in mats.values()),
              default=0.0)
    d = max(obj.dims.values())
    slack = 4 * np.finfo(float).eps * max(1.0, big) ** 2 * max(1, d)
    assert (got.max_dev == want.max_dev
            or abs(got.max_dev - want.max_dev) <= slack), (got, want)
    return got


def transport_cases(rng):
    """Free objects on every abelian group of order <= 16, on the regular
    and on a three-point trivial G-set (uneven fibers, zeros among them),
    with a conjugate and a retwist of each: ``(object, phi)`` pairs."""
    for factors in abelian_groups(16):
        G = FiniteAbelianGroup(factors)
        phi = (random_bilinear_phi(G, rng) if factors
               else GroupCocycleTable.trivial(G))
        for gset in (GSet.regular(G), GSet.trivial(G, ("a", "b", "c"))):
            dims = {s: int(rng.integers(0, 3)) for s in gset.points}
            obj = free(dims, phi, gset)
            yield obj, phi
            yield obj.conjugate({s: rng.normal(size=(d, d))
                                 + 1j * rng.normal(size=(d, d))
                                 for s, d in obj.dims.items()}), phi
            alpha = {g: np.exp(2j * np.pi * rng.random())
                     for g in G.elements()}
            yield retwist(obj, alpha), phi.twisted_by(alpha)


def test_check_linearization_matches_the_loop_oracle():
    rng = np.random.default_rng(1407)
    calls = 0
    for obj, phi in transport_cases(rng):
        assert assert_reports_agree(obj, phi).ok
        calls += 1
    # the 25 classes of order <= 16, two G-sets each, three objects each
    assert calls == 150


def test_check_linearization_witness_under_a_corrupted_twist():
    """Both the check and the oracle must name the same first triple."""
    rng = np.random.default_rng(1409)
    for factors in [(2, 2), (4,), (2, 3), (2, 4), (3, 3)]:
        G = FiniteAbelianGroup(factors)
        phi = random_bilinear_phi(G, rng)
        keys = list(phi.table)
        for gset in (GSet.regular(G), GSet.trivial(G, ("a", "b"))):
            obj = free({s: 1 + int(rng.integers(0, 2)) for s in gset.points},
                       phi, gset)
            for _ in range(3):
                table = dict(phi.table)
                key = keys[int(rng.integers(len(keys)))]
                table[key] *= np.exp(2j * np.pi * rng.uniform(0.1, 0.9))
                report = assert_reports_agree(obj,
                                              GroupCocycleTable(G, table))
                assert not report.ok and report.witness[:2] == key


def test_check_linearization_counts_nan_as_infinite_deviation():
    """A NaN also meets the zero padding of empty maps, where it must not
    count; the trivial G-set with a zero fiber has such maps."""
    G = FiniteAbelianGroup((2, 2))
    phi = pauli_phi()
    cases = [(GSet.regular(G), {s: 1 for s in G.elements()}),
             (GSet.trivial(G, ("a", "b", "c")), {"a": 0, "b": 1, "c": 2})]
    for gset, dims in cases:
        for g in G.elements():
            for s in gset.points:
                obj = free(dims, phi, gset)
                m = obj.rho[g][s].copy()
                if not m.size:
                    continue
                m[-1, 0] = np.nan
                obj = with_transport(obj, g, s, m)
                report = assert_reports_agree(obj, phi)
                assert not report.ok and report.max_dev == float("inf")


def test_check_linearization_on_zero_and_uneven_fibers():
    rng = np.random.default_rng(1411)
    G = FiniteAbelianGroup((2, 3))
    phi = random_bilinear_phi(G, rng)
    points = ("a", "b", "c", "d")
    for dims in ({s: 0 for s in points}, {"a": 0, "b": 1, "c": 0, "d": 3}):
        gset = GSet.trivial(G, points)
        obj = free(dims, phi, gset)
        report = assert_reports_agree(obj, phi)
        assert report.ok
        if not any(dims.values()):
            assert tuple(report) == (True, 0.0, None)
        # a perturbed transport into the largest fiber only
        m = obj.rho[(1, 2)]["d"]
        obj = with_transport(obj, (1, 2), "d",
                             m + 1e-6 * rng.normal(size=m.shape))
        report = assert_reports_agree(obj, phi)
        assert report.ok == (not dims["d"])


def per_g1_check_linearization(obj, phi):
    """The law check one product per element ``g1`` (the former
    ``check_linearization``, kept as its oracle)."""
    G, P = obj.group, obj.stack
    elts, add, ph = list(G.elements()), _add_index(G), phi.values
    act, points, (k, n, d) = obj.gset.action, obj.gset.points, P.shape[:3]
    src = np.argsort(act, axis=0)  # [t, g]: the point that g moves onto t
    dev = np.empty((n, k, n))
    for i in range(n):
        diff = (P.reshape(k, n * d, d) @ P[src[:, i], i]).reshape(P.shape)
        rhs = P[src[:, i, None], add[i]]
        rhs *= ph[i][:, None, None]
        diff -= rhs
        np.abs(diff).max(axis=(2, 3), initial=0.0, out=dev[i])
    dims = np.array([obj.dims[s] for s in points])
    empty = dims[act] * dims[:, None] == 0
    dev = np.where(empty[:, add], 0.0,
                   dev[np.arange(n), act]).transpose(1, 2, 0)
    report = LinearizationReport()
    for j in (np.argmax(~(dev <= TOL)), np.argmax(dev)):
        g1, g2, p = np.unravel_index(j, dev.shape)
        report.note(float(dev[g1, g2, p]), (elts[g1], elts[g2], points[p]))
    return report


def batch_cases(rng):
    """``(object, phi)`` pairs on regular and trivial G-sets: lawful free
    objects and conjugates of them, the same under a corrupted twist, with
    a NaN in one transport, and with zero fibers, all or some."""
    for factors in [(), (2,), (4,), (2, 2), (2, 3), (2, 4), (3, 3), (4, 4)]:
        G = FiniteAbelianGroup(factors)
        phi = (random_bilinear_phi(G, rng) if factors
               else GroupCocycleTable.trivial(G))
        for gset in (GSet.regular(G), GSet.trivial(G, ("a", "b", "c"))):
            points = gset.points
            obj = free({s: int(rng.integers(1, 3)) for s in points}, phi,
                       gset)
            yield obj, phi
            yield obj.conjugate({s: rng.normal(size=(d, d))
                                 + 1j * rng.normal(size=(d, d))
                                 for s, d in obj.dims.items()}), phi
            if G.size > 1:
                table = dict(phi.table)
                key = list(table)[int(rng.integers(1, len(table)))]
                table[key] *= np.exp(2j * np.pi * rng.uniform(0.1, 0.9))
                yield obj, GroupCocycleTable(G, table)
            g = list(G.elements())[int(rng.integers(G.size))]
            s = points[int(rng.integers(len(points)))]
            m = obj.rho[g][s].copy()
            m[-1, 0] = np.nan
            yield with_transport(obj, g, s, m), phi
            yield free({s: 0 for s in points}, phi, gset), phi
            yield free({s: int(rng.integers(0, 2)) * (p % 2)
                        for p, s in enumerate(points)}, phi, gset), phi


@pytest.mark.parametrize("per_batch", [None, 1, 2, 3],
                         ids=["one-batch", "one-g1", "twos", "ragged-threes"])
def test_batched_law_check_matches_the_per_g1_loop(monkeypatch, per_batch):
    """With the byte budget set to hold every ``g1`` of an object, one,
    two or three of them (a ragged last batch where three do not divide
    ``|G|``), the report equals the per-``g1`` loop's bit for bit and
    agrees with the per-triple loop."""
    rng = np.random.default_rng(2903)
    batches, kinds = set(), set()
    for obj, phi in batch_cases(rng):
        n, size = obj.group.size, max(obj.stack.nbytes, 1)
        monkeypatch.setattr(equivariant, "LAW_BATCH_BYTES",
                            size * (per_batch or n))
        lengths = [len(i) for i in equivariant._batches(
            n, obj.stack.nbytes)]
        assert lengths[0] == min(n, per_batch or n)
        batches.add((len(lengths) > 1, lengths[-1] < lengths[0]))
        want = per_g1_check_linearization(obj, phi)
        assert tuple(check_linearization(obj, phi)) == tuple(want)
        assert_reports_agree(obj, phi)
        kinds.add((want.ok, want.max_dev == math.inf,
                   len(obj.gset.points) == n))
    if per_batch is None:
        assert batches == {(False, False)}
    elif per_batch == 3:
        assert (True, True) in batches
    assert kinds == {(ok, inf, regular) for ok, inf in
                     [(True, False), (False, False), (False, True)]
                     for regular in (True, False)}


def reindexed_check_linearization(obj, phi):
    """The batched law check reordering every deviation by ``(g1, g2, s)``
    and locating a witness on a pass too (the former report, kept as the
    oracle of the one-max pass)."""
    G, P = obj.group, obj.stack
    elts, add, ph = list(G.elements()), _add_index(G), phi.values
    act, points, (k, n, d) = obj.gset.action, obj.gset.points, P.shape[:3]
    src = np.argsort(act, axis=0)
    dev, rows = np.empty((n, k, n)), P.reshape(k, n * d, d)
    for i in equivariant._batches(n, P.nbytes):
        s = src[:, i].T
        diff = (rows @ P[s, i[:, None]]).reshape(len(i), *P.shape)
        rhs = P[s[..., None], add[i, None]]
        rhs *= ph[i, None, :, None, None]
        diff -= rhs
        dev[i] = np.abs(diff).max(axis=(3, 4), initial=0.0)
    dims = np.array([obj.dims[s] for s in points])
    empty = dims[act] * dims[:, None] == 0
    dev = np.where(empty[:, add], 0.0,
                   dev[np.arange(n), act]).transpose(1, 2, 0)
    report = LinearizationReport()
    for j in (np.argmax(~(dev <= TOL)), np.argmax(dev)):
        g1, g2, p = np.unravel_index(j, dev.shape)
        report.note(float(dev[g1, g2, p]), (elts[g1], elts[g2], points[p]))
    return report


@pytest.mark.parametrize("per_batch", [None, 1, 3],
                         ids=["one-batch", "one-g1", "threes"])
def test_one_max_pass_reports_as_the_full_reindex(monkeypatch, per_batch):
    """``(ok, max_dev, witness)`` equal to the oracle's on lawful objects,
    under a flipped twist entry, with a NaN or an inf transport entry and
    with zero fibers, in one batch and in several."""
    rng = np.random.default_rng(3107)
    cases = list(batch_cases(rng))
    for obj, phi in cases[:12]:
        g = list(obj.group.elements())[-1]
        s = obj.gset.points[-1]
        m = obj.rho[g][s].copy()
        if m.size:
            m[0, -1] = -np.inf
            cases.append((with_transport(obj, g, s, m), phi))
    kinds = set()
    for obj, phi in cases:
        n = obj.group.size
        monkeypatch.setattr(equivariant, "LAW_BATCH_BYTES",
                            max(obj.stack.nbytes, 1) * (per_batch or n))
        with np.errstate(invalid="ignore"):  # inf meets the zero padding
            got = check_linearization(obj, phi)
            want = reindexed_check_linearization(obj, phi)
        assert (got.max_dev, got.witness) == (want.max_dev, want.witness)
        kinds.add((want.ok, want.max_dev == 0.0, math.isinf(want.max_dev)))
    assert kinds == {(True, True, False), (True, False, False),
                     (False, False, False), (False, False, True)}


def test_free_matches_the_loop_oracle():
    """Bit for bit, also for a non-cocycle twist, which ``free`` detects."""
    rng = np.random.default_rng(1413)
    cases = []
    for factors in abelian_groups(16):
        G = FiniteAbelianGroup(factors)
        phi = (random_bilinear_phi(G, rng) if factors
               else GroupCocycleTable.trivial(G))
        cases.append((G, phi))
    G = klein()
    table = dict(pauli_phi().table)
    table[((1, 0), (0, 1))] = -table[((1, 0), (0, 1))]
    bad = GroupCocycleTable(G, table)
    assert not bad.check()[0]
    cases.append((G, bad))
    for G, phi in cases:
        gsets = [GSet.regular(G), GSet.trivial(G, ("a", "b", "c"))]
        if G.factors and G.factors[-1] % 2 == 0:
            gsets.append(quotient_gset(G.factors))
        for gset in gsets:
            dims = {s: int(rng.integers(0, 3)) for s in gset.points}
            got, want = free(dims, phi, gset), loop_free(dims, phi, gset)
            assert got.dims == want.dims
            for g in G.elements():
                for s in gset.points:
                    assert np.array_equal(got.rho[g][s], want.rho[g][s]), \
                        (G, g, s)
    obj = free({s: 1 for s in G.elements()}, bad, GSet.regular(G))
    report = assert_reports_agree(obj, bad)
    assert not report.ok


def pair_loop_free(dims, phi, gset):
    """``free`` one transport ``(g, s)`` at a time, each placed in a matrix
    of its own (the oracle)."""
    G, act = gset.group, gset.action
    elts, add, ph = list(G.elements()), _add_index(G), phi.values
    base = np.array([int(dims.get(s, 0)) for s in gset.points], dtype=int)
    size = base[act]  # [p, i]: the summand of element i in the fiber at p
    offset = np.cumsum(size, axis=1) - size
    total = size.sum(axis=1)
    # per fiber and row: the summand it lies in and its rank there
    rows = [np.arange(n) for n in total]
    label = [np.repeat(np.arange(len(elts)), row) for row in size]
    rank = [r - off[lab] for r, off, lab in zip(rows, offset, label)]
    rho = {}
    for i, g in enumerate(elts):
        rho[g] = {}
        for p, s in enumerate(gset.points):
            t = act[p, i]
            lab = label[t]
            m = rho[g][s] = np.zeros((total[t], total[p]), dtype=complex)
            # row k of summand g' of the target is column k of summand
            # g + g' of the source
            m[rows[t], offset[p][add[i][lab]] + rank[t]] = ph[i][lab]
    return EquivariantObject(gset, dict(zip(gset.points, total.tolist())),
                             rho)


def pair_loop_conjugate(obj, T):
    """``conjugate`` one transport ``(g, s)`` at a time (the oracle)."""
    inv = {s: np.linalg.inv(np.asarray(T[s], dtype=complex))
           for s in obj.gset.points}
    rho = {g: {s: np.asarray(T[obj.gset.table[s][g]], dtype=complex)
               @ obj.rho[g][s] @ inv[s]
               for s in obj.gset.points}
           for g in obj.group.elements()}
    return EquivariantObject(obj.gset, obj.dims, rho)


def transform_gsets():
    """The G-sets of the benchmark's transform models: dual translation by
    ``Khat`` in {1, Z/2, (Z/2)^2, Z/4} on coordinate groups of order at
    most 8."""
    cases = [((2,), (), [[]]), ((4,), (), [[]]), ((2, 2), (), [[], []])]
    cases += [(B, (2,), emb) for B, emb in [
        ((2,), [[1]]), ((4,), [[2]]), ((8,), [[4]]), ((2, 2), [[1], [0]]),
        ((2, 4), [[0], [2]])]]
    cases += [(B, (2, 2), emb) for B, emb in [
        ((2, 2), [[1, 0], [0, 1]]), ((2, 4), [[1, 0], [0, 2]]),
        ((2, 2, 2), [[1, 0], [0, 1], [0, 0]])]]
    cases += [(B, (4,), emb) for B, emb in [
        ((4,), [[1]]), ((8,), [[2]]), ((2, 4), [[0], [1]])]]
    return [TorusModel(FiniteAbelianGroup(B), FiniteAbelianGroup(K),
                       emb).gset for B, K, emb in cases]


def test_free_and_conjugate_match_the_pair_loops():
    """``free`` only places phases, so it must agree bit for bit; the
    batched ``conjugate`` sums its products over padded squares, within
    1e-13 of the largest entry."""
    rng = np.random.default_rng(1503)
    gsets = transform_gsets() + [quotient_gset(factors) for factors in
                                 [(4,), (2, 4), (4, 4), (2, 2, 4)]]
    for gset in gsets:
        for _ in range(2):
            phi = (random_bilinear_phi(gset.group, rng) if gset.group.rank
                   else GroupCocycleTable.trivial(gset.group))
            dims = {s: int(rng.integers(0, 3)) for s in gset.points}
            got, want = free(dims, phi, gset), pair_loop_free(dims, phi, gset)
            assert got.dims == want.dims
            assert np.array_equal(got.stack, want.stack)
            T = {s: random_unitary(n, rng) * (0.5 + rng.random(n))
                 for s, n in got.dims.items()}
            got, want = got.conjugate(T), pair_loop_conjugate(got, T)
            scale = max(1.0, np.abs(want.stack).max(initial=0.0))
            assert got.dims == want.dims
            assert np.abs(got.stack - want.stack).max(initial=0.0) \
                <= 1e-13 * scale, gset


def test_twist_on_another_group_is_refused():
    """A ``Z/2`` table reduces a ``Z/4`` element mod 2, so without the check
    it would pass; a table of another rank would fail on coordinates."""
    G = FiniteAbelianGroup((4,))
    gset = GSet.regular(G)
    obj = free({s: 1 for s in gset.points}, GroupCocycleTable.trivial(G),
               gset)
    for other in [(2,), (2, 2)]:
        phi = GroupCocycleTable.trivial(FiniteAbelianGroup(other))
        with pytest.raises(ValueError,
                           match="^twist lives on a different group$"):
            check_linearization(obj, phi)
        with pytest.raises(ValueError,
                           match="^twist lives on a different group$"):
            free({s: 1 for s in gset.points}, phi, gset)


# ---------------------------------------------------------------------------
# hom spaces

def averaging_rank(a, b):
    """Independent count of the joint commutant via the group-averaged
    projector on the space of all per-point matrix families."""
    gset = a.gset
    G = a.group
    points = gset.points
    sizes = {s: b.dims[s] * a.dims[s] for s in points}
    offsets = {}
    run = 0
    for s in points:
        offsets[s] = run
        run += sizes[s]
    if run == 0:
        return 0
    acc = np.zeros((run, run), dtype=complex)
    for g in G.elements():
        act = np.zeros((run, run), dtype=complex)
        for s in points:
            t = gset.act(s, g)
            ra_inv = np.linalg.inv(a.matrix(g, s))
            rb = b.matrix(g, s)
            block = np.kron(rb, ra_inv.T)
            act[offsets[t]:offsets[t] + sizes[t],
                offsets[s]:offsets[s] + sizes[s]] = block
        acc += act
    acc /= G.size
    svals = np.linalg.svd(acc, compute_uv=False)
    return int(sum(sv > 0.5 for sv in svals))


def test_hom_space_of_simple_object_is_scalars():
    obj = pauli_object()
    basis = hom_space(obj, obj)
    assert len(basis) == 1
    mat = basis[0]["*"]
    assert abs(mat[0, 1]) < 1e-9 and abs(mat[1, 0]) < 1e-9
    assert abs(mat[0, 0] - mat[1, 1]) < 1e-9


def test_hom_space_matches_averaging_oracle():
    rng = np.random.default_rng(23)
    G = klein()
    phi = pauli_phi()
    gset = GSet.regular(G)
    for _ in range(4):
        dims_a = {s: int(rng.integers(0, 2)) for s in gset.points}
        dims_b = {s: int(rng.integers(0, 2)) for s in gset.points}
        dims_a[gset.points[0]] = max(dims_a[gset.points[0]], 1)
        dims_b[gset.points[0]] = max(dims_b[gset.points[0]], 1)
        a = free(dims_a, phi, gset)
        b = free(dims_b, phi, gset)
        a = a.conjugate({s: random_unitary(a.dims[s], rng)
                         for s in gset.points})
        b = b.conjugate({s: random_unitary(b.dims[s], rng)
                         for s in gset.points})
        assert check_linearization(a, phi).ok
        assert check_linearization(b, phi).ok
        assert len(hom_space(a, b)) == averaging_rank(a, b)


def test_hom_space_members_intertwine():
    rng = np.random.default_rng(31)
    G = klein()
    phi = pauli_phi()
    gset = GSet.regular(G)
    a = free({s: 1 for s in gset.points}, phi, gset)
    b = a.conjugate({s: random_unitary(a.dims[s], rng) for s in gset.points})
    basis = hom_space(a, b)
    assert basis
    for fam in basis:
        for g in G.elements():
            for s in gset.points:
                t = gset.act(s, g)
                resid = fam[t] @ a.matrix(g, s) - b.matrix(g, s) @ fam[s]
                assert np.max(np.abs(resid)) < 1e-9


def test_hom_dim_is_isomorphism_invariant():
    rng = np.random.default_rng(41)
    obj = pauli_object()
    twisted = obj.conjugate({"*": random_unitary(2, rng)})
    assert hom_dim(obj, twisted) == hom_dim(obj, obj) == 1


def mismatched_gset_pair():
    G = klein()
    a = free({"*": 1}, pauli_phi(), GSet.trivial(G))
    H = FiniteAbelianGroup((4,))
    return a, free({"*": 1}, GroupCocycleTable.trivial(H), GSet.trivial(H))


def test_hom_space_rejects_mismatched_gsets():
    with pytest.raises(ValueError):
        hom_space(*mismatched_gset_pair())


def test_hom_dim_rejects_mismatched_gsets():
    with pytest.raises(ValueError, match="different G-sets"):
        hom_dim(*mismatched_gset_pair())


def _null_space_rows(blocks: list, nvars: int, tol: float) -> list:
    """Orthonormal null-space vectors of a stacked linear system; an empty
    system means every vector qualifies."""
    if not blocks:
        return [row for row in np.eye(nvars, dtype=complex)]
    system = np.vstack(blocks)
    wide = system.shape[0] < system.shape[1]
    try:
        _, svals, vh = np.linalg.svd(system, full_matrices=wide)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge on tall stacked systems;
        # fall back to the Hermitian spectrum of the Gram matrix.  Squaring
        # costs half the precision, so zero eigenvalues only come out at
        # the eigh noise floor and the cut must sit above it.
        gram = system.conj().T @ system
        evals, evecs = np.linalg.eigh(gram)
        lmax = max(float(evals[-1]), 1.0)
        floor = np.finfo(float).eps * max(gram.shape) * lmax
        cut = max((tol ** 2) * lmax, floor)
        return [evecs[:, i] for i in range(evecs.shape[1])
                if evals[i] <= cut]
    scale = max(1.0, float(svals[0]) if len(svals) else 1.0)
    return [vh[i].conj() for i in range(vh.shape[0])
            if i >= len(svals) or svals[i] <= tol * scale]


def stacked_hom_dim(a, b, tol=1e-9):
    """Oracle: the hom dimension as the null space of one stacked system
    over every point, with the constraints of each group generator."""
    gset = a.gset
    points = gset.points
    sizes = {s: b.dims[s] * a.dims[s] for s in points}
    offsets = {}
    run = 0
    for s in points:
        offsets[s] = run
        run += sizes[s]
    nvars = run
    if nvars == 0:
        return 0
    blocks = []
    for g in a.group.generators():
        for s in points:
            t = gset.act(s, g)
            rows = b.dims[t] * a.dims[s]
            if rows == 0:
                continue
            eq = np.zeros((rows, nvars), dtype=complex)
            eq[:, offsets[t]:offsets[t] + sizes[t]] += \
                np.kron(np.eye(b.dims[t]), a.matrix(g, s).T)
            eq[:, offsets[s]:offsets[s] + sizes[s]] -= \
                np.kron(b.matrix(g, s), np.eye(a.dims[s]))
            blocks.append(eq)
    return len(_null_space_rows(blocks, nvars, tol))


def torus_models():
    def G(*factors):
        return FiniteAbelianGroup(factors)
    half = GroupBilinearTable(G(2), [[Phase(1, 2)]])
    upper = GroupBilinearTable(
        G(2, 2), [[Phase.zero(), Phase(1, 2)], [Phase.zero(), Phase.zero()]])
    return [TorusModel(G(4), G(2), [[2]], half),
            TorusModel(G(8), G(4), [[2]],
                       GroupBilinearTable(G(4), [[Phase(1, 4)]])),
            TorusModel(G(2, 4), G(2, 2), [[1, 0], [0, 2]], upper),
            TorusModel(G(2, 2, 2), G(2, 2), [[1, 0], [0, 1], [0, 0]])]


def quotient_gset(factors):
    """``G`` acting by translation on the group with the last factor of
    ``G`` cut down to 2: more than one point per orbit when ``G`` has
    another factor, and the stabilizer ``{0, 2, ...}`` in the last factor
    when that factor exceeds 2."""
    G = FiniteAbelianGroup(factors)
    Q = FiniteAbelianGroup(factors[:-1] + (2,))
    return GSet(G, tuple(Q.elements()), Q.add)


def conjugated_free(dims, phi, gset, rng):
    obj = free(dims, phi, gset)
    return obj.conjugate({s: rng.normal(size=(d, d))
                          + 1j * rng.normal(size=(d, d))
                          for s, d in obj.dims.items()})


def orbit_representatives(gset):
    reps, seen = [], set()
    for s in gset.points:
        if s not in seen:
            reps.append(s)
            seen.update(gset.act(s, g) for g in gset.group.elements())
    return reps


def test_hom_dim_matches_the_stacked_oracle_on_gsets():
    """Graded dims 0-2, except 0-1 on the quotient G-sets: there every
    fiber of a free object sums the graded dims over eight points, and the
    dense oracle grows with the square of the fibers."""
    rng = np.random.default_rng(67)
    gsets = [(quotient_gset(factors), 1)
             for factors in [(4,), (2, 4), (4, 4), (2, 2, 4)]]
    for factors in [(2,), (4,), (2, 2)]:
        G = FiniteAbelianGroup(factors)
        gsets += [(GSet.regular(G), 2), (GSet.trivial(G, ("p", "q")), 2)]
    gsets += [(GSet.trivial(FiniteAbelianGroup(factors), ("p", "q")), 2)
              for factors in [(3, 3), (2, 4)]]
    for gset, top in gsets:
        for _ in range(2):
            phi = random_bilinear_phi(gset.group, rng)
            a, b = (conjugated_free(
                {s: int(rng.integers(0, top + 1)) for s in gset.points},
                phi, gset, rng) for _ in range(2))
            assert hom_dim(a, b) == len(hom_space(a, b)) \
                == stacked_hom_dim(a, b), gset


def test_hom_dim_on_torus_models_is_the_orbit_formula():
    rng = np.random.default_rng(71)
    for model in torus_models():
        reps = orbit_representatives(model.gset)
        assert len(reps) < len(model.gset.points)
        for _ in range(3):
            s1, s2 = random_sheaf(model, rng), random_sheaf(model, rng)
            want = sum(s1.dims[s] * s2.dims[s] for s in reps)
            assert hom_dim(s1, s2) == want == len(hom_space(s1, s2)) \
                == stacked_hom_dim(s1, s2)


def test_hom_space_is_frobenius_orthonormal():
    rng = np.random.default_rng(73)
    G = FiniteAbelianGroup((2, 4))
    cases = [(random_sheaf(model, rng), random_sheaf(model, rng))
             for model in torus_models()]
    phi = random_bilinear_phi(G, rng)
    gset = quotient_gset((2, 4))
    cases.append(tuple(conjugated_free(
        {s: 1 for s in gset.points}, phi, gset, rng) for _ in range(2)))
    for a, b in cases:
        basis = hom_space(a, b)
        assert basis
        flat = np.array([np.concatenate([fam[s].ravel()
                                         for s in a.gset.points])
                         for fam in basis])
        gram = flat.conj() @ flat.T
        assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-9
        for fam in basis:
            for g in a.group.elements():
                for s in a.gset.points:
                    t = a.gset.act(s, g)
                    resid = fam[t] @ a.matrix(g, s) - b.matrix(g, s) @ fam[s]
                    assert np.max(np.abs(resid), initial=0.0) < 1e-9


def per_orbit_hom_space(a, b):
    """:func:`hom_space` inverting ``a``'s transports orbit by orbit, inside
    the walk (the former routine, kept as its oracle)."""
    out = []
    for s, orbit, rho_b, rho_a, fixing in equivariant._orbit_walk(a, b):
        da, db = a.dims[s], b.dims[s]
        if not da * db:
            continue
        if fixing is not None:
            rb, ra_inv = fixing
            P = np.einsum("hij,hlk->ikjl", rb, ra_inv) / len(rb)
            sol = equivariant._projector_images(
                P.reshape(1, db * da, -1), [s])[0].T
        else:
            sol = np.eye(db * da)
        chi = sol.reshape(-1, 1, db, da)
        moved = rho_b @ chi @ np.linalg.inv(rho_a)
        q, _ = np.linalg.qr(moved.reshape(len(sol), len(orbit) * db * da).T)
        for fam in q.T.reshape(-1, len(orbit), db, da):
            full = {p: np.zeros((b.dims[p], a.dims[p]), dtype=complex)
                    for p in a.gset.points}
            full.update(zip(orbit, fam))
            out.append(full)
    return out


def test_hom_space_matches_the_per_orbit_inverse_oracle_byte_for_byte():
    """Random sheaves on the torus models and conjugated free objects on
    G-sets with stabilizers; some pairs put two orbits of one shape into
    one inverse call."""
    rng = np.random.default_rng(83)
    cases = [(random_sheaf(model, rng), random_sheaf(model, rng))
             for model in torus_models() for _ in range(3)]
    for gset in [quotient_gset((2, 4)), quotient_gset((4, 4)),
                 GSet.trivial(FiniteAbelianGroup((2, 2)), ("p", "q", "r"))]:
        phi = random_bilinear_phi(gset.group, rng)
        cases += [tuple(conjugated_free(
            {s: int(rng.integers(0, 2)) for s in gset.points}, phi, gset,
            rng) for _ in range(2)) for _ in range(2)]
    merged = 0
    for a, b in cases:
        shapes = [rho_a.shape for s, _, _, rho_a, _ in
                  equivariant._orbit_walk(a, b) if a.dims[s] * b.dims[s]]
        merged += len(shapes) > len(set(shapes))
        got, want = hom_space(a, b), per_orbit_hom_space(a, b)
        assert len(got) == len(want)
        for fam, oracle in zip(got, want):
            assert list(fam) == list(oracle)
            assert all(fam[s].shape == oracle[s].shape
                       and fam[s].tobytes() == oracle[s].tobytes()
                       for s in oracle)
    assert merged >= 3


def test_gset_builds_its_orbit_decomposition_once():
    """``orbits`` is built on first use, kept, and lists every point once,
    each reached from its orbit's first point by the recorded element."""
    for gset in [quotient_gset((2, 4)), torus_models()[2].gset,
                 GSet.trivial(FiniteAbelianGroup((3,)), ("p", "q"))]:
        orbits, P, I = gset.orbits
        assert gset.orbits is gset.orbits
        assert not (P.flags.writeable or I.flags.writeable)
        assert sorted(t for _, orbit, _ in orbits for t in orbit) == \
            list(range(len(gset.points)))
        assert gset.action[P, I].tolist() == [t for _, orbit, _ in orbits
                                               for t in orbit]
        for p, orbit, stab in orbits:
            assert orbit[0] == p == min(orbit)
            assert stab == [i for i in range(gset.group.size)
                            if gset.action[p, i] == p]


def singular_transport_pairs():
    """A free sheaf on a free G-set against its copy with every transport
    zeroed, both ways round."""
    model = torus_models()[0]
    obj = free_sheaf(model, {s: 1 for s in model.gset.points})
    zero = EquivariantObject(
        obj.gset, obj.dims,
        {g: {s: np.zeros_like(m) for s, m in per.items()}
         for g, per in obj.rho.items()})
    return [(zero, obj), (obj, zero)]


def test_hom_space_rejects_singular_transports():
    for a, b in singular_transport_pairs():
        with pytest.raises(ValueError, match="not invertible"):
            hom_space(a, b)


def test_hom_dim_rejects_singular_transports():
    """The action is free, so the count needs no numerics but the check."""
    for a, b in singular_transport_pairs():
        with pytest.raises(ValueError, match="not invertible"):
            hom_dim(a, b)


def test_the_first_singular_transport_in_orbit_order_is_named():
    """Two orbits, {0, 2} and {1, 3}: a zero transport out of (1,), or
    fibers of two dimensions along that orbit, spoil the second, which the
    refusal names; the first is counted clean.  A transport fixing a point
    is tested on the trivial G-set."""
    model = torus_models()[0]
    obj = free_sheaf(model, {s: 1 for s in model.gset.points})
    zero = with_transport(obj, (1,), (1,), np.zeros((2, 2)))
    rng = np.random.default_rng(1505)
    dims = {**obj.dims, (3,): 3}
    uneven = EquivariantObject(model.gset, dims, {
        k: {s: obj.rho[k][s] if s in {(0,), (2,)} else rng.normal(
            size=(dims[model.gset.act(s, k)], dims[s])) for s in per}
        for k, per in obj.rho.items()})
    for spoiled in (zero, uneven):
        for a, b in ((obj, spoiled), (spoiled, obj)):
            for count in (hom_dim, hom_space):
                with pytest.raises(ValueError, match=r"^a transport out "
                                   r"of \(1,\) is not invertible$"):
                    count(a, b)
    pauli = pauli_object()
    fixing = with_transport(pauli, (1, 0), "*", np.zeros((2, 2)))
    for a, b in ((pauli, fixing), (fixing, pauli)):
        for count in (hom_dim, hom_space):
            with pytest.raises(ValueError, match=r"^a transport fixing "
                               r"\* is not invertible$"):
                count(a, b)


def different_twist_pairs():
    """Pauli against trivial on the Klein trivial G-set, both ways round:
    the stabilizer is the whole group, and the trace of the stabilizer
    average comes out an integral 4 all the same."""
    G = klein()
    gset = GSet.trivial(G, ("p", "q"))
    dims = {"p": 1, "q": 0}
    a = free(dims, pauli_phi(), gset)
    b = free(dims, GroupCocycleTable.trivial(G), gset)
    return [(a, b), (b, a)]


def test_hom_space_rejects_objects_of_different_twists():
    for x, y in different_twist_pairs():
        with pytest.raises(ValueError, match="averaging at p"):
            hom_space(x, y)


def test_hom_dim_rejects_objects_of_different_twists():
    for x, y in different_twist_pairs():
        with pytest.raises(ValueError, match="averaging at p"):
            hom_dim(x, y)


def test_hom_rejects_identity_transports_that_differ_on_a_free_orbit():
    """The stabilizer of a free orbit is trivial, and its law ``rho_0
    rho_0 = c rho_0`` still tells an object from its retwist by 2 at
    zero; a retwist by 1 at zero is accepted."""
    G = FiniteAbelianGroup((2,))
    gset = GSet.regular(G)
    a = free({s: 1 for s in gset.points}, GroupCocycleTable.trivial(G), gset)
    b = retwist(a, {(0,): 2, (1,): 1})
    for x, y in [(a, b), (b, a)]:
        with pytest.raises(ValueError, match=r"averaging at \(0,\)"):
            hom_dim(x, y)
        with pytest.raises(ValueError, match=r"averaging at \(0,\)"):
            hom_space(x, y)
    c = retwist(a, {(0,): 1, (1,): 2})
    assert hom_dim(a, c) == len(hom_space(a, c)) == 4


def test_hom_dims_agree_on_the_eigh_fallback(monkeypatch):
    rng = np.random.default_rng(61)
    pairs = []
    for factors in [(2, 2), (2, 4)]:
        G = FiniteAbelianGroup(factors)
        gset = GSet.trivial(G, ("p", "q"))
        for _ in range(2):
            phi = random_bilinear_phi(G, rng)
            pairs.append(tuple(conjugated_free(
                {s: int(rng.integers(0, 3)) for s in gset.points},
                phi, gset, rng) for _ in range(2)))
    expected = [len(hom_space(a, b)) for a, b in pairs]
    calls = []

    def failing_svd(*args, **kwargs):
        calls.append(1)
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    assert [len(hom_space(a, b)) for a, b in pairs] == expected
    assert calls and any(expected)


# ---------------------------------------------------------------------------
# retwisting

def test_retwist_follows_the_coboundary():
    G = klein()
    alpha = {g: 1.0 + 0j for g in G.elements()}
    alpha[(1, 0)] = 1j
    obj = retwist(pauli_object(), alpha)
    phi2 = pauli_phi().twisted_by(alpha)
    assert check_linearization(obj, phi2).ok
    assert not check_linearization(obj, pauli_phi()).ok


def test_retwist_roundtrip():
    rng = np.random.default_rng(7)
    G = klein()
    alpha = {g: np.exp(2j * np.pi * rng.random()) for g in G.elements()}
    back = {g: 1.0 / alpha[g] for g in G.elements()}
    obj = pauli_object()
    again = retwist(retwist(obj, alpha), back)
    for g in G.elements():
        assert np.max(np.abs(again.matrix(g, "*") - obj.matrix(g, "*"))) < 1e-12


# ---------------------------------------------------------------------------
# the twisted function algebra

def test_algebra_trivial_twist_is_commutative_functions():
    G = FiniteAbelianGroup((4,))
    alg = twisted_algebra(("p", "q"), GroupCocycleTable.trivial(G))
    assert alg.dim == 8
    assert alg.is_commutative()
    assert alg.center_dim() == 8
    assert gram_trace_form_rank(alg) == 8
    prod = alg.multiply({("p", (1,)): 1.0}, {("p", (2,)): 1.0})
    assert prod == {("p", (3,)): 1.0 + 0j}
    assert alg.multiply({("p", (1,)): 1.0}, {("q", (1,)): 1.0}) == {}


def test_algebra_nondegenerate_point_twist_is_matrix_algebra():
    alg = twisted_algebra(("*",), pauli_phi())
    assert alg.dim == 4
    assert not alg.is_commutative()
    assert alg.center_dim() == 1
    assert gram_trace_form_rank(alg) == 4


def left_regular_matrix(alg, key):
    """The matrix of left multiplication by the basis vector ``key``."""
    index = {k: i for i, k in enumerate(alg.basis)}
    m = np.zeros((alg.dim, alg.dim), dtype=complex)
    for k2 in alg.basis:
        hit = alg.product_on_basis(key, k2)
        if hit is not None:
            coeff, target = hit
            m[index[target], index[k2]] = coeff
    return m


def kron_center_dim(alg, tol=1e-9):
    """Oracle: an element is central exactly when its left regular matrix
    commutes with every basis one (the representation is faithful, the
    algebra being unital), so the center is the null space of the stacked
    commutator system."""
    mats = [left_regular_matrix(alg, k) for k in alg.basis]
    stacked = np.stack([m.reshape(-1) for m in mats], axis=1)
    eye = np.eye(alg.dim)
    total = np.vstack([(np.kron(eye, m.T) - np.kron(m, eye)) @ stacked
                       for m in mats])
    svals = np.linalg.svd(total, compute_uv=False)
    scale = max(1.0, float(svals[0]) if len(svals) else 1.0)
    return sum(1 for i in range(total.shape[1])
               if i >= len(svals) or svals[i] <= tol * scale)


def gram_trace_form_rank(alg, tol=1e-9):
    """Oracle: the rank of the Gram matrix of the left regular trace form."""
    mats = [left_regular_matrix(alg, k) for k in alg.basis]
    gram = np.array([[np.trace(m1 @ m2) for m2 in mats] for m1 in mats])
    svals = np.linalg.svd(gram, compute_uv=False)
    scale = max(1.0, float(svals[0]) if len(svals) else 1.0)
    return int(sum(sv > tol * scale for sv in svals))


SMALL_ABELIAN = [(), (2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,),
                 (2, 4), (2, 2, 2), (9,), (3, 3), (10,), (11,), (12,),
                 (2, 6)]


@pytest.mark.parametrize("factors", SMALL_ABELIAN)
def test_algebra_invariants_match_the_regular_oracles(factors):
    """Every abelian group of order at most 12, a random bilinear twist and
    a retwist of it by a 1-cochain of moduli in [0.5, 2], on one point and
    on two."""
    rng = np.random.default_rng(89 + len(factors) + sum(factors))
    G = FiniteAbelianGroup(factors)
    phi = random_bilinear_phi(G, rng)
    alpha = {g: rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
             for g in G.elements()}
    for twist in (phi, phi.twisted_by(alpha)):
        for points in (("*",), ("p", "q")):
            alg = twisted_algebra(points, twist)
            center = kron_center_dim(alg)
            assert alg.center_dim() == center
            assert alg.is_commutative() == (center == alg.dim)
            assert gram_trace_form_rank(alg) == alg.dim


def test_algebra_rejects_a_non_cocycle():
    rng = np.random.default_rng(97)
    G = FiniteAbelianGroup((2, 2))
    table = GroupCocycleTable(
        G, {(g1, g2): complex(*rng.uniform(0.5, 2.0, size=2))
            for g1 in G.elements() for g2 in G.elements()})
    assert not table.check()[0]
    with pytest.raises(ValueError, match="not a 2-cocycle"):
        twisted_algebra(("*",), table)


def test_algebra_invariants_at_order_36_are_fast():
    rng = np.random.default_rng(101)
    phi = random_bilinear_phi(FiniteAbelianGroup((6, 6)), rng)
    start = time.perf_counter()
    alg = twisted_algebra(("p", "q"), phi)
    center = alg.center_dim()
    commutative = alg.is_commutative()
    assert alg.dim == 72
    assert time.perf_counter() - start < 1.0
    assert gram_trace_form_rank(alg) == 72
    assert center == 2 * sum(
        all(phi(g, h) == phi(h, g) for h in alg.group.elements())
        for g in alg.group.elements())
    assert commutative == (center == alg.dim)


def test_left_regular_is_a_homomorphism():
    alg = twisted_algebra(("*",), pauli_phi())
    for k1 in alg.basis:
        for k2 in alg.basis:
            lhs = left_regular_matrix(alg, k1) @ left_regular_matrix(alg, k2)
            coeff, key = alg.product_on_basis(k1, k2)
            rhs = coeff * left_regular_matrix(alg, key)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_algebra_multiplication_is_associative():
    rng = np.random.default_rng(13)
    alg = twisted_algebra(("a", "b"), pauli_phi())
    for _ in range(5):
        vecs = []
        for _ in range(3):
            vecs.append({k: complex(rng.normal(), rng.normal())
                         for k in alg.basis})
        x, y, z = vecs
        left = alg.multiply(alg.multiply(x, y), z)
        right = alg.multiply(x, alg.multiply(y, z))
        keys = set(left) | set(right)
        assert all(abs(left.get(k, 0) - right.get(k, 0)) < 1e-9 for k in keys)


# ---------------------------------------------------------------------------
# module round trips

def two_point_module_object(rng):
    G = klein()
    gset = GSet.trivial(G, ("a", "b"))
    base = pauli_object()
    T = random_unitary(2, rng)
    Tinv = np.linalg.inv(T)
    rho = {g: {"a": base.matrix(g, "*"),
               "b": T @ base.matrix(g, "*") @ Tinv}
           for g in G.elements()}
    return EquivariantObject(gset, {"a": 2, "b": 2}, rho)


def test_to_module_roundtrip():
    rng = np.random.default_rng(17)
    obj = two_point_module_object(rng)
    assert check_linearization(obj, pauli_phi()).ok
    data = to_module(obj)
    back = from_module(klein(), data)
    assert set(back.gset.points) == {"a", "b"}
    for g in klein().elements():
        for s in ("a", "b"):
            assert np.array_equal(back.matrix(g, s), obj.matrix(g, s))
    assert check_linearization(back, pauli_phi()).ok


def test_to_module_requires_trivial_action():
    G = klein()
    obj = free({s: 1 for s in G.elements()}, pauli_phi(), GSet.regular(G))
    with pytest.raises(ValueError):
        to_module(obj)


def test_two_point_homs_split_by_point():
    rng = np.random.default_rng(19)
    obj = two_point_module_object(rng)
    assert hom_dim(obj, obj) == 2
