import itertools
import tracemalloc

import numpy as np
import pytest

import nctorus.finitefm as finitefm
import nctorus.verify as verify
from nctorus.cocycle import BilinearCocycle, Phase
from nctorus.equivariant import (
    TOL,
    EquivariantObject,
    GroupCocycleTable,
    LinearizationReport,
    check_linearization,
    free,
    from_module,
    hom_dim,
)
from nctorus.finitefm import (
    BRepresentation,
    DeformedKernel,
    ModuleOnXLambda,
    TorusModel,
    character_projectors,
    character_twist,
    check_fm_ab_equivariance,
    dual_side_product,
    fm_ab,
    fm_ab_equivariance_iso,
    fm_ab_inverse,
    fm_lambda,
    fm_lambda_inverse,
    free_sheaf,
    module_hom_dim,
    module_hom_space,
    random_sheaf,
    star_on_points,
    translate_graded,
    verify_factorization,
)
from nctorus.lattice import (FiniteAbelianGroup, GroupBilinearTable,
                             compute_H_hat, compute_K_hat, descend_cocycle,
                             lambda_sharp)


def random_dims(B, rng, max_dim=2, ensure=True):
    dims = {b: int(rng.integers(0, max_dim + 1)) for b in B.elements()}
    if ensure and not any(dims.values()):
        dims[B.zero()] = 1
    return dims


def model_point():
    B = FiniteAbelianGroup((4,))
    K = FiniteAbelianGroup(())
    return TorusModel(B, K, [[]])


def model_halved(nontrivial):
    B = FiniteAbelianGroup((4,))
    K = FiniteAbelianGroup((2,))
    lam = GroupBilinearTable(K, [[Phase(1, 2)]]) if nontrivial else None
    return TorusModel(B, K, [[2]], lam)


def model_full_z4():
    B = FiniteAbelianGroup((4,))
    K = FiniteAbelianGroup((4,))
    return TorusModel(B, K, [[1]], GroupBilinearTable(K, [[Phase(1, 4)]]))


def model_klein():
    B = FiniteAbelianGroup((2, 2))
    K = FiniteAbelianGroup((2, 2))
    lam = GroupBilinearTable(
        K, [[Phase.zero(), Phase(1, 2)], [Phase.zero(), Phase.zero()]])
    return TorusModel(B, K, [[1, 0], [0, 1]], lam)


ALL_MODELS = [model_halved(False), model_halved(True),
              model_full_z4(), model_klein()]


def model_regular(n):
    """``Khat = B``, twisted by the form that ``[[0, 1], [0, 0]]`` at root
    order ``n`` descends to: ``(Z/n)^2``."""
    lam = BilinearCocycle([[0, 1], [0, 0]], n)
    quo = compute_K_hat(compute_H_hat(lam.antisymmetrized(), n))
    K = quo.group
    identity = [[int(i == j) for j in range(K.rank)] for i in range(K.rank)]
    return TorusModel(K, K, identity, descend_cocycle(lam, quo))


# ---------------------------------------------------------------------------
# plain transform

def graded_layout(dims, B):
    """Canonical block order for a dual-graded space: group element order,
    returning ``[(beta, offset, dim), ...]`` and the total dimension."""
    d = finitefm._graded_dims(dims, B)
    return list(zip(B.elements(), (np.cumsum(d) - d).tolist(),
                    d.tolist())), int(d.sum())


def fm_ab_phase_table(dims, B):
    """Exact diagonal of the transform: for each group element the list of
    pairing phases down the canonical block basis."""
    layout, _ = graded_layout(dims, B)
    return layout, {a: [B.pairing(beta, a) for beta, _, d in layout
                        for _ in range(d)] for a in B.elements()}


def conjugate_rep(rep, T):
    """The representation ``T pi(a) T^-1``."""
    T = np.asarray(T, dtype=complex)
    Tinv = np.linalg.inv(T)
    return BRepresentation(rep.group,
                           {a: T @ m @ Tinv for a, m in rep.pi.items()})


def representation_check(rep):
    """The identity at zero, then the homomorphism property ``pi(b) pi(a)
    == pi(a + b)`` as the transport law of the one-point object with the
    trivial twist; the witness is ``("zero",)`` or the first failing pair
    ``(a, b)``."""
    report = LinearizationReport()
    report.note(float(np.abs(rep.matrix(rep.group.zero())
                             - np.eye(rep.dim)).max(initial=0.0)), ("zero",))
    law = check_linearization(from_module(rep.group, {"*": rep.pi}),
                              GroupCocycleTable.trivial(rep.group))
    report.note(law.max_dev, law.witness and law.witness[:2])
    return report


def test_fm_ab_gives_exact_representation():
    rng = np.random.default_rng(3)
    for factors in [(4,), (2, 2), (6,)]:
        B = FiniteAbelianGroup(factors)
        dims = random_dims(B, rng)
        rep = fm_ab(dims, B)
        ok, dev, _ = representation_check(rep)
        assert ok and dev < 1e-12
        assert rep.dim == sum(dims.values())


def test_fm_ab_inverse_roundtrip():
    rng = np.random.default_rng(5)
    B = FiniteAbelianGroup((2, 4))
    dims = random_dims(B, rng)
    back = fm_ab_inverse(fm_ab(dims, B))
    assert back == {b: d for b, d in dims.items() if d}


def test_character_projectors_match_the_per_character_loop():
    """Oracle: one averaged projector per character, summed term by term."""
    rng = np.random.default_rng(9)
    for factors in [(4,), (2, 2), (2, 3)]:
        B = FiniteAbelianGroup(factors)
        dims = random_dims(B, rng)
        T = rng.normal(size=(sum(dims.values()),) * 2)
        rep = conjugate_rep(fm_ab(dims, B), T)
        stacked = character_projectors(rep)
        assert stacked.shape == (B.size, rep.dim, rep.dim)
        # both sum |B| terms, in different orders
        tol = 4 * B.size * np.finfo(float).eps * max(
            np.max(np.abs(m)) for m in rep.pi.values())
        for P, beta in zip(stacked, B.elements()):
            loop = sum((-B.pairing(beta, a)).embed() * rep.matrix(a)
                       for a in B.elements()) / B.size
            assert np.max(np.abs(P - loop)) <= tol
            assert abs(np.trace(P) - dims[beta]) < 1e-9


def factor_tuples(limit):
    """Every tuple of cyclic factors ``>= 2`` whose product is at most
    ``limit``, the empty tuple included."""
    out = [()]
    for d in range(2, limit + 1):
        out += [(d,) + rest for rest in factor_tuples(limit // d)]
    return out


def test_character_table_is_the_embedded_pairing():
    """Bit for bit, on every group of order at most 36: the table is
    ``B.pairing(beta, a).embed()``, its inverse the embedded negation, and
    ``fm_ab`` the embedded exact phase table."""
    rng = np.random.default_rng(36)
    for factors in factor_tuples(36) + [(1,), (2, 1, 2)]:
        B = FiniteAbelianGroup(factors)
        elts = list(B.elements())
        table = finitefm._character_table(B)
        inverse = finitefm._character_table(B, inverse=True)
        assert table.shape == inverse.shape == (B.size, B.size)
        for i, beta in enumerate(elts):
            for j, a in enumerate(elts):
                assert table[i, j] == B.pairing(beta, a).embed()
                assert inverse[i, j] == (-B.pairing(beta, a)).embed()
        dims = random_dims(B, rng)
        _, phases = fm_ab_phase_table(dims, B)
        rep = fm_ab(dims, B)
        for a in elts:
            want = np.diag([p.embed() for p in phases[a]]).astype(complex)
            assert np.array_equal(rep.pi[a], want)


def test_fm_ab_inverse_rejects_non_representation():
    B = FiniteAbelianGroup((2,))
    rep = BRepresentation(B, {(0,): np.eye(2), (1,): np.array([[1, 1], [0, 1]])})
    with pytest.raises(ValueError):
        fm_ab_inverse(rep)
    for what, bad in broken_modules(model_halved(True)).items():
        with pytest.raises(ValueError, match=what):
            fm_ab_inverse(bad.rep())


def dft_matrix(B):
    """Unitary character table of ``B`` in element order."""
    elts = list(B.elements())
    F = np.array([[B.pairing(b, a).embed() for a in elts] for b in elts])
    return F / np.sqrt(len(elts))


def test_dft_matrix_is_unitary_with_character_entries():
    for factors in [(4,), (2, 2), (3,)]:
        B = FiniteAbelianGroup(factors)
        F = dft_matrix(B)
        n = B.size
        assert np.max(np.abs(F @ F.conj().T - np.eye(n))) < 1e-12
    Z4 = FiniteAbelianGroup((4,))
    F = dft_matrix(Z4)
    assert abs(F[1, 1] - 1j / 2) < 1e-12
    assert abs(F[2, 2] - 1 / 2) < 1e-12


def test_translate_graded_shifts_blocks():
    B = FiniteAbelianGroup((4,))
    dims = {(0,): 1, (1,): 2}
    out = translate_graded(dims, (1,), B)
    assert out[(1,)] == 1 and out[(2,)] == 2 and out[(0,)] == 0
    twice = translate_graded(translate_graded(dims, (1,), B), (2,), B)
    assert twice == translate_graded(dims, (3,), B)


def test_equivariance_iso_intertwines_numerically():
    rng = np.random.default_rng(7)
    for factors in [(4,), (2, 2)]:
        B = FiniteAbelianGroup(factors)
        dims = random_dims(B, rng)
        for yhat in B.elements():
            E = fm_ab_equivariance_iso(dims, yhat, B)
            shifted = fm_ab(translate_graded(dims, yhat, B), B)
            twisted = character_twist(fm_ab(dims, B), yhat)
            for a in B.elements():
                dev = np.max(np.abs(E @ shifted.matrix(a)
                                    - twisted.matrix(a) @ E))
                assert dev < 1e-12


def test_equivariance_law_exact_in_phases():
    rng = np.random.default_rng(11)
    for factors in [(4,), (2, 2), (6,)]:
        B = FiniteAbelianGroup(factors)
        dims = random_dims(B, rng)
        for yhat in B.elements():
            assert check_fm_ab_equivariance(dims, yhat, B)


def test_equivariance_iso_composition_coherence():
    rng = np.random.default_rng(13)
    for factors in [(4,), (2, 2)]:
        B = FiniteAbelianGroup(factors)
        dims = random_dims(B, rng)
        for y1 in B.elements():
            for y2 in B.elements():
                lhs = fm_ab_equivariance_iso(dims, B.add(y1, y2), B)
                rhs = fm_ab_equivariance_iso(dims, y1, B) \
                    @ fm_ab_equivariance_iso(translate_graded(dims, y1, B),
                                             y2, B)
                assert np.array_equal(lhs, rhs)


def test_graded_maps_refuse_stray_keys_and_negative_dimensions():
    """Every routine reading a graded map refuses a key that is not a
    canonical element of the group (where it used to drop it) and a
    negative dimension (where ``translate_graded`` used to return it)."""
    B = FiniteAbelianGroup((4,))
    readers = [lambda d: fm_ab(d, B), lambda d: fm_ab_phase_table(d, B),
               lambda d: translate_graded(d, (1,), B),
               lambda d: fm_ab_equivariance_iso(d, (1,), B),
               lambda d: check_fm_ab_equivariance(d, (1,), B)]
    for dims, what in [({(5,): 2, (0,): 1}, "not a canonical element"),
                       ({(-1,): 1}, "not a canonical element"),
                       ({(0, 0): 1}, "not a canonical element"),
                       ({(0,): -1}, "nonnegative")]:
        for read in readers:
            with pytest.raises(ValueError, match=what):
                read(dims)
    assert fm_ab({(0,): 1, (3,): 0}, B).dim == 1
    assert translate_graded({(0,): 1, (3,): 0}, (5,), B) == {
        (0,): 0, (1,): 1, (2,): 0, (3,): 0}


def minus(B, yhat):
    """``beta -> beta - yhat``, one element at a time."""
    return lambda beta: B.add(beta, B.neg(yhat))


def loop_translate_graded(dims, yhat, B, shift=minus):
    """The grading translated one block at a time (the oracle)."""
    move = shift(B, B.reduce(yhat))
    return {beta: int(dims.get(move(beta), 0)) for beta in B.elements()}


def loop_equivariance_iso(dims, yhat, B):
    """The comparison permutation placed one identity block at a time
    (the oracle)."""
    move = minus(B, B.reduce(yhat))
    src, total = graded_layout(loop_translate_graded(dims, yhat, B), B)
    dst = {beta: off for beta, off, _ in graded_layout(dims, B)[0]}
    E = np.zeros((total, total))
    for beta, off, d in src:
        t0 = dst[move(beta)]
        E[t0:t0 + d, off:off + d] = np.eye(d)
    return E


def loop_check_fm_ab_equivariance(dims, yhat, B, shift=minus):
    """Two tables of ``Phase``s compared entry by entry along the shift
    (the oracle)."""
    yhat = B.reduce(yhat)
    move = shift(B, yhat)
    src, table_src = fm_ab_phase_table(
        loop_translate_graded(dims, yhat, B, shift), B)
    dst, table_dst = fm_ab_phase_table(dims, B)
    dst_offset = {beta: off for beta, off, _ in dst}
    src = [(off, dst_offset[move(beta)], d) for beta, off, d in src]
    for a in B.elements():
        twist = B.pairing(yhat, a)
        for off, t0, d in src:
            for p in range(d):
                if table_src[a][off + p] != twist + table_dst[a][t0 + p]:
                    return False
    return True


def every_shift(B):
    """Every element, then unreduced forms of the first three: shifted by
    5 (``(5,)`` on ``Z/4``), by minus the factor, and as ``np.int64``."""
    elts = list(B.elements())
    return elts + [form for y in elts[:3] for form in (
        tuple(a + 5 for a in y), tuple(a - d for a, d in zip(y, B.factors)),
        tuple(np.int64(a) for a in y))]


def test_plain_transform_routines_match_the_loop_oracles():
    """On every group of order at most 36, random dims with a zero block
    (listed, or left out on every other group) and every shift: the same
    grading and the same permutation as the per-element loops, and the
    same verdict as the phase-table loop.  That loop takes about
    ``|B|**3`` ``Phase`` additions per group (18 s over all of them), so
    it runs on the groups of order at most 16 and on ``Z/36`` and
    ``(Z/6)^2``."""
    rng = np.random.default_rng(21)
    for i, factors in enumerate(factor_tuples(36)):
        B = FiniteAbelianGroup(factors)
        dims = random_dims(B, rng)
        dims[max(dims)] = 0
        if i % 2:
            dims = {beta: d for beta, d in dims.items() if d}
        for yhat in every_shift(B):
            assert translate_graded(dims, yhat, B) \
                == loop_translate_graded(dims, yhat, B)
            assert np.array_equal(fm_ab_equivariance_iso(dims, yhat, B),
                                  loop_equivariance_iso(dims, yhat, B))
            got = check_fm_ab_equivariance(dims, yhat, B)
            assert type(got) is bool
            if B.size <= 16 or factors in [(36,), (6, 6)]:
                assert got == loop_check_fm_ab_equivariance(dims, yhat, B)


def test_equivariance_check_fails_where_the_oracle_does_on_a_wrong_shift(
        monkeypatch):
    """With ``beta -> beta + yhat`` in place of ``beta - yhat`` (in the
    translated grading too), the check reports ``False`` exactly where the
    loop oracle along the same map does: wherever ``2 yhat`` pairs
    nontrivially with a live block."""
    right = finitefm._shift
    monkeypatch.setattr(finitefm, "_shift", lambda B, yhat: (
        *right(B, yhat)[:2], right(B, B.neg(yhat))[2]))

    def plus(B, yhat):
        return lambda beta: B.add(beta, yhat)

    rng = np.random.default_rng(22)
    verdicts = set()
    for factors in [(4,), (2, 2), (6,), (2, 4), (3, 3), (12,)]:
        B = FiniteAbelianGroup(factors)
        dims = random_dims(B, rng)
        for yhat in every_shift(B):
            got = check_fm_ab_equivariance(dims, yhat, B)
            assert got == loop_check_fm_ab_equivariance(dims, yhat, B, plus)
            verdicts.add(got)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# model data

def test_model_rejects_bad_embeddings():
    B = FiniteAbelianGroup((4,))
    order = r"^embedding does not respect the order of generator {}$"
    with pytest.raises(ValueError, match=order.format(0)):
        TorusModel(B, FiniteAbelianGroup((2,)), [[1]])   # 2*1 != 0 mod 4
    with pytest.raises(ValueError, match=order.format(1)):
        TorusModel(B, FiniteAbelianGroup((2, 2)), [[2, 1]])
    with pytest.raises(ValueError, match=r"^embedding is not injective: "
                                         r"\(2,\) maps to 0$"):
        TorusModel(B, FiniteAbelianGroup((4,)), [[2]])   # kernel contains 2
    with pytest.raises(ValueError, match=r"^embedding is not injective: "
                                         r"\(1, 1\) maps to 0$"):
        TorusModel(FiniteAbelianGroup((2,)), FiniteAbelianGroup((2, 2)),
                   [[1, 1]])
    with pytest.raises(ValueError,
                       match=r"^embedding matrix has the wrong shape$"):
        TorusModel(B, FiniteAbelianGroup((2,)), [[1], [0]])
    with pytest.raises(ValueError,
                       match=r"^embedding matrix has the wrong shape$"):
        TorusModel(B, FiniteAbelianGroup((2,)), [[2, 0]])
    with pytest.raises(ValueError,
                       match=r"^twist lives on a different group$"):
        TorusModel(B, FiniteAbelianGroup((2,)), [[2]],
                   GroupBilinearTable.trivial(FiniteAbelianGroup((4,))))


def test_model_iota_table_matches_the_embedding_formula():
    """Every integer embedding of ``Khat`` in {1, Z/2, (Z/2)^2, Z/4} into a
    ``B`` of order at most 8 (entries reduced per row, which covers the
    acceptance family): the model exists exactly when the embedding
    respects the generator orders and is injective, and then ``iota`` is
    the matrix formula on every element, reduced or not."""
    built = 0
    for b in [(2,), (4,), (8,), (2, 2), (2, 4), (2, 2, 2)]:
        B = FiniteAbelianGroup(b)
        for k in [(), (2,), (2, 2), (4,)]:
            K = FiniteAbelianGroup(k)
            for entries in itertools.product(
                    *(range(d) for d in b for _ in k)):
                embed = [list(entries[i * len(k):(i + 1) * len(k)])
                         for i in range(len(b))]

                def formula(x):
                    return tuple(sum(e * c for e, c in zip(row, x)) % d
                                 for row, d in zip(embed, b))
                images = [formula(x) for x in K.elements()]
                valid = len(set(images)) == K.size and all(
                    formula(tuple(dj * (i == j) for i in range(len(k))))
                    == B.zero() for j, dj in enumerate(k))
                if not valid:
                    with pytest.raises(ValueError):
                        TorusModel(B, K, embed)
                    continue
                model = TorusModel(B, K, embed)
                built += 1
                for x in K.elements():
                    for form in (x, [a + 3 * d for a, d in zip(x, k)],
                                 tuple(np.int64(a - d) for a, d in zip(x, k))):
                        assert model.iota(form) == formula(x), (embed, form)
                    for beta in B.elements():
                        assert model.gset.act(beta, x) == B.add(beta,
                                                                formula(x))
    assert built > 25


def test_model_translation_orbits():
    model = model_halved(True)
    assert model.iota((1,)) == (2,)
    assert model.gset.act((1,), (1,)) == (3,)
    assert model.B.pairing(model.iota((1,)), (1,)) == Phase(1, 2)


# ---------------------------------------------------------------------------
# deformed kernel

def test_kernel_matrices_frozen_for_z2():
    model = model_halved(True)
    kernel = DeformedKernel(model)
    left = kernel.left_matrix((1,))
    right = kernel.right_matrix((1,))
    assert np.allclose(left, np.array([[0, -1], [1, 0]]), atol=1e-12)
    assert np.allclose(right, np.array([[0, 1], [-1, 0]]), atol=1e-12)


def test_kernel_relations_hold_on_all_models():
    for model in ALL_MODELS:
        assert DeformedKernel(model).check()


def test_kernel_check_fails_when_one_law_breaks(monkeypatch):
    model = model_halved(True)
    kernel = DeformedKernel(model)
    left, right = DeformedKernel.left_matrix, DeformedKernel.right_matrix
    rng = np.random.default_rng(23)
    T = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    Tinv = np.linalg.inv(T)
    phi = model.phi
    breaks = {
        # a scalar on one operator breaks its law and keeps the commutation
        "left law": ("left_matrix", lambda self, k: (
            2.0 if k != (0,) else 1.0) * left(self, k)),
        "right law": ("right_matrix", lambda self, k: (
            2.0 if k != (0,) else 1.0) * right(self, k)),
        # a change of basis on one side keeps both laws, not the commutation
        "commutation": ("right_matrix",
                        lambda self, k: T @ right(self, k) @ Tinv),
    }
    for what, (name, broken) in breaks.items():
        with monkeypatch.context() as m:
            m.setattr(DeformedKernel, name, broken)
            assert not kernel.check(), what
            laws = [check_linearization(
                from_module(model.Khat, {"*": {
                    k: getattr(kernel, side)(k)
                    for k in model.Khat.elements()}}), twist).ok
                for side, twist in (("left_matrix", phi.inverse()),
                                    ("right_matrix", phi))]
            assert laws == {"left law": [False, True],
                            "right law": [True, False],
                            "commutation": [True, True]}[what]
    assert kernel.check()


def loop_left_matrix(kernel, k):
    """``e_j -> lam(j, k) e_{j-k}`` one basis vector at a time (the
    oracle)."""
    K, lam = kernel.model.Khat, kernel.model.lam
    k = K.reduce(k)
    m = np.zeros((kernel.size, kernel.size), dtype=complex)
    for j in kernel.order:
        m[kernel.index[K.add(j, K.neg(k))], kernel.index[j]] = \
            lam(j, k).embed()
    return m


def loop_right_matrix(kernel, k):
    """``e_j -> lam(k, k)^-1 lam(k, j)^-1 e_{j+k}`` one basis vector at a
    time (the oracle)."""
    K, lam = kernel.model.Khat, kernel.model.lam
    k = K.reduce(k)
    m = np.zeros((kernel.size, kernel.size), dtype=complex)
    for j in kernel.order:
        m[kernel.index[K.add(j, k)], kernel.index[j]] = \
            (-(lam(k, k) + lam(k, j))).embed()
    return m


def test_kernel_matrices_match_the_loop_oracles_bit_for_bit():
    for model in ALL_MODELS + [model_regular(3), model_point()]:
        kernel = DeformedKernel(model)
        for k in every_shift(model.Khat):
            assert np.array_equal(kernel.left_matrix(k),
                                  loop_left_matrix(kernel, k))
            assert np.array_equal(kernel.right_matrix(k),
                                  loop_right_matrix(kernel, k))


# ---------------------------------------------------------------------------
# deformed transform

def loop_random_sheaf(model, rng):
    """The sheaf of :func:`random_sheaf` with one QR and one diagonal
    product per point (the oracle)."""
    dims = {s: int(rng.integers(0, 3)) for s in model.gset.points}
    if not any(dims.values()):
        dims[model.gset.points[0]] = 1
    obj = free_sheaf(model, dims)
    T = {}
    for s in model.gset.points:
        n = obj.dims[s]
        q, _ = np.linalg.qr(rng.normal(size=(n, n))
                            + 1j * rng.normal(size=(n, n)))
        T[s] = q @ np.diag(0.5 + rng.random(n))
    return obj.conjugate(T)


def test_random_sheaf_matches_the_loop_oracle_bit_for_bit():
    for model in [model_point()] + ALL_MODELS + [model_regular(3)]:
        for seed in range(5):
            rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
            sheaf = random_sheaf(model, rng)
            oracle = loop_random_sheaf(model, oracle_rng)
            assert sheaf.dims == oracle.dims
            assert all(np.array_equal(sheaf.rho[g][s], oracle.rho[g][s])
                       for g in oracle.rho for s in model.gset.points)
            # the same draws, so the generators stay in step
            assert rng.random() == oracle_rng.random()


def former_random_sheaf(model, rng):
    """:func:`random_sheaf` drawing into a dict, with one QR per fiber
    dimension and ``conjugate`` (the former routine, kept as its oracle)."""
    dims = {s: int(rng.integers(0, 3)) for s in model.gset.points}
    if not any(dims.values()):
        dims[model.gset.points[0]] = 1
    obj = free_sheaf(model, dims)
    draws = {s: (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
                 0.5 + rng.random(n)) for s, n in obj.dims.items()}
    T = {}
    for n in set(obj.dims.values()):
        points = [s for s, d in obj.dims.items() if d == n]
        q, _ = np.linalg.qr(np.array([draws[s][0] for s in points]))
        T.update(zip(points, q * np.array([[draws[s][1]] for s in points])))
    return obj.conjugate(T)


def test_random_sheaf_matches_the_former_routine_byte_for_byte():
    """The padded stacks give the former stack byte for byte, padding
    included, on the acceptance family and the order 9 regular model, two
    sheaves per generator, and leave the generators in step."""
    from test_acceptance import transform_model_family

    for model in transform_model_family() + [model_regular(3)]:
        for seed in (0, 5, 17, 31):
            rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
            for _ in range(2):
                sheaf = random_sheaf(model, rng)
                oracle = former_random_sheaf(model, oracle_rng)
                assert sheaf.dims == oracle.dims
                assert sheaf.stack.shape == oracle.stack.shape
                assert sheaf.stack.tobytes() == oracle.stack.tobytes()
            assert rng.random() == oracle_rng.random()


def test_random_sheaves_satisfy_transport_law():
    rng = np.random.default_rng(17)
    for model in ALL_MODELS:
        sheaf = random_sheaf(model, rng)
        assert check_linearization(sheaf, model.phi).ok


def test_trivial_subgroup_reduces_to_plain_transform():
    rng = np.random.default_rng(19)
    model = model_point()
    dims = random_dims(model.B, rng)
    sheaf = free_sheaf(model, dims)
    mod = fm_lambda(model, sheaf)
    plain = fm_ab(dims, model.B)
    for a in model.B.elements():
        assert np.max(np.abs(mod.pi_matrix(a) - plain.matrix(a))) < 1e-9
    # with a nontrivial subgroup the B-action is still exactly the plain one
    for model in ALL_MODELS:
        sheaf = random_sheaf(model, rng)
        mod = fm_lambda(model, sheaf)
        plain = fm_ab(sheaf.dims, model.B)
        for a in model.B.elements():
            assert np.array_equal(mod.pi[a], plain.pi[a])


def test_fm_lambda_produces_valid_modules():
    rng = np.random.default_rng(23)
    for model in ALL_MODELS:
        sheaf = random_sheaf(model, rng)
        mod = fm_lambda(model, sheaf)
        assert mod.dim == sheaf.total_dim()
        report = mod.check()
        assert report.ok, (model, report)


def dense_fm_lambda(model, sheaf):
    """The transform with every operator stored dense, each transport
    block placed at ``beta + iota(k)`` (the oracle)."""
    layout, total = graded_layout(sheaf.dims, model.B)
    offset = {beta: off for beta, off, _ in layout}
    table = model.gset.table
    n = {}
    for k, rho in sheaf.rho.items():
        m = np.zeros((total, total), dtype=complex)
        for beta, off, d in layout:
            u = rho[beta]
            t0 = offset[table[beta][k]]
            m[t0:t0 + u.shape[0], off:off + d] = u
        n[k] = m
    return ModuleOnXLambda(model, fm_ab(sheaf.dims, model.B).pi, n)


def dense_copy(module):
    return ModuleOnXLambda(module.model, module.pi, module.n)


def test_fm_lambda_keeps_blocks_and_its_dense_views_match_the_oracle():
    rng = np.random.default_rng(67)
    for model in ALL_MODELS + [model_regular(3)]:
        for _ in range(3):
            sheaf = random_sheaf(model, rng)
            module = fm_lambda(model, sheaf)
            assert module.blocks is sheaf and module.dim == sheaf.total_dim()
            # no dense operator until a view is read
            assert module._pi is None and module._n is None
            assert module.check().ok
            assert fm_lambda_inverse(model, module) is sheaf
            assert module._pi is None and module._n is None
            oracle = dense_fm_lambda(model, sheaf)
            for view, want in ((module.pi, oracle.pi), (module.n, oracle.n)):
                assert list(view) == list(want)
                assert all(np.array_equal(view[x], want[x]) for x in want)
            assert module.pi is module.pi and module.n is module.n


def test_inverse_over_an_equal_model_decomposes_the_dense_views():
    rng = np.random.default_rng(79)
    model, twin = model_klein(), model_klein()
    sheaf = random_sheaf(model, rng)
    back = fm_lambda_inverse(twin, fm_lambda(model, sheaf))
    assert back is not sheaf and back.gset is twin.gset
    assert back.dims == sheaf.dims
    assert check_linearization(back, twin.phi).ok


def test_block_check_names_the_pair_the_dense_check_names():
    """A block spoiled after the transform breaks only the twisted
    composition, at the first pair the dense check of the same operators
    finds."""
    rng = np.random.default_rng(53)
    for model in (model_halved(True), model_full_z4(), model_klein()):
        sheaf = random_sheaf(model, rng)
        module = fm_lambda(model, sheaf)
        k = list(model.Khat.elements())[-1]
        s = next(p for p in model.gset.points if sheaf.dims[p])
        rho = {g: dict(per) for g, per in sheaf.rho.items()}
        rho[k][s] = 2.0 * rho[k][s]
        module.blocks = EquivariantObject(sheaf.gset, sheaf.dims, rho)
        blocks, dense = module.check(), dense_copy(module).check()
        assert not blocks.ok and not dense.ok
        assert blocks.witness[0] == "twisted composition"
        assert blocks.witness == dense.witness


def zero_transport_sheaf(model, dims):
    """The object with every transport zero: the transport law holds, with
    both sides zero, yet no transport is invertible."""
    gset = model.gset
    return EquivariantObject(
        gset, dims, {k: {s: np.zeros((dims[gset.table[s][k]], dims[s]))
                         for s in gset.points}
                     for k in model.Khat.elements()})


def test_zero_transports_pass_the_law_but_no_hom_count():
    rng = np.random.default_rng(62)
    for model in (model_halved(True), model_klein(), model_regular(3)):
        mod = fm_lambda(model, random_sheaf(model, rng))
        zero = fm_lambda(model, zero_transport_sheaf(model, mod.blocks.dims))
        assert tuple(zero.check()) == (True, 0.0, None)
        assert dense_copy(zero).check().ok
        for a, b in ((zero, mod), (mod, zero), (zero, zero)):
            for m1, m2 in ((a, b), (dense_copy(a), b), (a, dense_copy(b))):
                for count in (module_hom_dim, module_hom_space):
                    with pytest.raises(ValueError, match="not invertible"):
                        count(m1, m2)


def test_mixed_pairs_count_as_dense_pairs():
    rng = np.random.default_rng(73)
    for model in ALL_MODELS + [model_regular(3)]:
        s1, s2 = (random_sheaf(model, rng) for _ in range(2))
        m1, m2 = fm_lambda(model, s1), fm_lambda(model, s2)
        d1, d2 = dense_copy(m1), dense_copy(m2)
        assert d1.blocks is None and d2.blocks is None
        assert module_hom_dim(m1, m2) == module_hom_dim(m1, d2) \
            == module_hom_dim(d1, m2) == module_hom_dim(d1, d2) \
            == hom_dim(s1, s2)


def test_fm_lambda_rejects_wrong_twist():
    rng = np.random.default_rng(29)
    model = model_halved(True)
    dims = {s: int(rng.integers(1, 3)) for s in model.gset.points}
    wrong = free(dims, GroupCocycleTable.trivial(model.Khat), model.gset)
    with pytest.raises(ValueError):
        fm_lambda(model, wrong)


def test_fm_lambda_rejects_a_nan_transport():
    rng = np.random.default_rng(29)
    model = model_halved(True)
    sheaf = random_sheaf(model, rng)
    s = next(p for p in model.gset.points if sheaf.dims[p])
    rho = {g: dict(per) for g, per in sheaf.rho.items()}
    rho[(1,)][s] = np.nan * rho[(1,)][s]
    sheaf = EquivariantObject(sheaf.gset, sheaf.dims, rho)
    with pytest.raises(ValueError, match="transport law"):
        fm_lambda(model, sheaf)


def test_roundtrip_recovers_the_sheaf():
    rng = np.random.default_rng(31)
    for model in ALL_MODELS:
        sheaf = random_sheaf(model, rng)
        back = fm_lambda_inverse(model, fm_lambda(model, sheaf))
        assert back.dims == sheaf.dims
        assert check_linearization(back, model.phi).ok
        assert hom_dim(sheaf, back) == hom_dim(sheaf, sheaf)


def test_transform_preserves_hom_dimensions():
    rng = np.random.default_rng(37)
    for model in ALL_MODELS:
        for _ in range(2):
            s1 = random_sheaf(model, rng)
            s2 = random_sheaf(model, rng)
            m1 = fm_lambda(model, s1)
            m2 = fm_lambda(model, s2)
            assert hom_dim(s1, s2) == module_hom_dim(m1, m2)


def test_module_hom_members_intertwine():
    rng = np.random.default_rng(41)
    model = model_full_z4()
    m1 = fm_lambda(model, random_sheaf(model, rng))
    m2 = fm_lambda(model, random_sheaf(model, rng))
    basis = module_hom_space(m1, m2)
    for chi in basis:
        for a in model.B.elements():
            dev = np.max(np.abs(chi @ m1.pi_matrix(a)
                                - m2.pi_matrix(a) @ chi))
            assert dev < 1e-9
        for k in model.Khat.elements():
            dev = np.max(np.abs(chi @ m1.n_matrix(k)
                                - m2.n_matrix(k) @ chi))
            assert dev < 1e-9


def test_factorization_through_plain_transform():
    rng = np.random.default_rng(43)
    for model in ALL_MODELS:
        sheaf = random_sheaf(model, rng)
        report = verify_factorization(model, sheaf)
        assert report.ok, (model, report)
        assert report.max_dev < 1e-9
    for model in ALL_MODELS:
        empty = verify_factorization(model, free_sheaf(model, {}))
        assert empty.ok and empty.max_dev == 0.0


def conjugated_transform(model, sheaf, rng):
    """The block module of ``sheaf`` conjugated by a random fiberwise
    unitary: the graded dimensions of ``sheaf`` with other transports, a
    wrong module for its factorization."""
    T = {s: np.linalg.qr(rng.normal(size=(d, d))
                         + 1j * rng.normal(size=(d, d)))[0]
         for s, d in sheaf.dims.items()}
    return fm_lambda(model, sheaf.conjugate(T))


@pytest.mark.parametrize("make", [model_full_z4, model_klein])
def test_factorization_flags_a_conjugated_block_module(make):
    rng = np.random.default_rng(59)
    model = make()
    sheaf = random_sheaf(model, rng)
    assert sheaf.total_dim() >= 2
    assert verify_factorization(model, sheaf).ok
    wrong = conjugated_transform(model, sheaf, rng)
    assert wrong.blocks.dims == sheaf.dims
    report = verify_factorization(model, sheaf, wrong)
    assert not report.ok
    assert report.witness[0] == "translation"
    assert report.witness[1] in set(model.Khat.elements())
    oracle = kron_factorization(model, sheaf, wrong)
    assert report.witness == oracle.witness
    assert abs(report.max_dev - oracle.max_dev) <= 1e-15


def test_factorization_rejects_a_sheaf_breaking_the_transport_law():
    rng = np.random.default_rng(29)
    model = model_halved(True)
    dims = {s: int(rng.integers(1, 3)) for s in model.gset.points}
    wrong = free(dims, GroupCocycleTable.trivial(model.Khat), model.gset)
    with pytest.raises(ValueError, match="transport law"):
        verify_factorization(model, wrong)


def test_factorization_refuses_a_module_it_cannot_read():
    """A dense module, a block module of other graded dimensions, and a
    sheaf or module on another model's points are refused."""
    rng = np.random.default_rng(61)
    model, other = model_full_z4(), model_halved(True)
    sheaf = random_sheaf(model, rng)
    module = fm_lambda(model, sheaf)
    assert verify_factorization(model, sheaf, module).ok
    with pytest.raises(ValueError, match="dense module"):
        verify_factorization(model, sheaf, dense_copy(module))
    empty = fm_lambda(model, free_sheaf(model, {}))
    with pytest.raises(ValueError, match="graded dimensions"):
        verify_factorization(model, sheaf, empty)
    elsewhere = random_sheaf(other, rng)
    with pytest.raises(ValueError, match="object does not live"):
        verify_factorization(model, elsewhere, module)
    with pytest.raises(ValueError, match="module does not live"):
        verify_factorization(model, sheaf, fm_lambda(other, elsewhere))


def test_a_round_trip_checks_each_transport_law_once(monkeypatch):
    """``fm_round_trip`` transforms its sheaf and the second sheaf once
    each and hands the block module to ``verify_factorization``."""
    calls, right = [], finitefm.fm_lambda

    def counted(model, sheaf):
        calls.append(sheaf)
        return right(model, sheaf)

    monkeypatch.setattr(finitefm, "fm_lambda", counted)
    monkeypatch.setattr(verify, "fm_lambda", counted)
    for model in ALL_MODELS:
        calls.clear()
        run = verify.fm_round_trip(model, np.random.default_rng(5))
        assert run.law.ok and run.fact.ok
        assert len(calls) == 2 and calls[0] is run.sheaf


def permuted_fm_lambda(model, sheaf):
    """The transform with each translation built as the comparison
    permutation times the transport placed into the grading translated by
    ``-iota(k)`` (the oracle)."""
    B = model.B
    dims = sheaf.dims
    layout, total = graded_layout(dims, B)
    n = {}
    for k, rho in sheaf.rho.items():
        yhat = B.neg(model.iota(k))
        mid_layout, mid_total = graded_layout(
            translate_graded(dims, yhat, B), B)
        mid_offset = {beta: off for beta, off, _ in mid_layout}
        blockwise = np.zeros((mid_total, total), dtype=complex)
        for beta, off, d in layout:
            u = rho[beta]
            r0 = mid_offset[beta]
            blockwise[r0:r0 + u.shape[0], off:off + d] = u
        n[k] = fm_ab_equivariance_iso(dims, yhat, B) @ blockwise
    return ModuleOnXLambda(model, fm_ab(dims, B).pi, n)


def kron_factorization(model, sheaf, module):
    """The kernel check of ``module`` with dense operators on the whole
    tensor space: ``kron(I, R_k)`` and the character diagonal (the
    oracle)."""
    kernel = DeformedKernel(model)
    layout, total = graded_layout(sheaf.dims, model.B)
    nK = kernel.size
    big = total * nK
    offset = {beta: off for beta, off, _ in layout}
    zero = kernel.index[model.Khat.zero()]
    table = model.gset.table
    emb = np.zeros((big, total), dtype=complex)
    for k, rho in sheaf.rho.items():
        tau = kernel.left_matrix(k)[:, zero:zero + 1]
        for beta, off, d in layout:
            u = rho[beta]
            t0 = offset[table[beta][k]]
            emb[t0 * nK:(t0 + u.shape[0]) * nK, off:off + d] += np.kron(u, tau)
    emb /= nK
    report = LinearizationReport()

    def dev(big_op, op) -> float:
        return float(np.max(np.abs(big_op @ emb - emb @ op))) if big else 0.0

    for k in model.Khat.elements():
        report.note(dev(np.kron(np.eye(total), kernel.right_matrix(k)),
                        module.n[k]), ("translation", k))
    for a in model.B.elements():
        diag = np.zeros(big, dtype=complex)
        for beta, off, d in layout:
            for j_pos, j in enumerate(kernel.order):
                diag[off * nK + j_pos:(off + d) * nK:nK] = \
                    model.B.pairing(table[beta][j], a).embed()
        report.note(dev(np.diag(diag), module.pi[a]), ("character", a))
    return report


def emb_factorization(model, sheaf, module):
    """The kernel check of ``module`` on the kernel embedding, a ``(total,
    |Khat|, total)`` tensor: each right kernel operator a matmul broadcast
    over the graded basis, the character diagonal a broadcast product, and
    ``|Khat| + |B|`` dense ``(total |Khat|) x total x total`` products (the
    oracle for sizes that ``kron_factorization`` cannot reach)."""
    kernel = DeformedKernel(model)
    d, act, nK = list(sheaf.dims.values()), model.gset.action, kernel.size
    at = np.cumsum([0, *d]).tolist()
    total, zero = at[-1], kernel.index[model.Khat.zero()]
    # rows indexed by (graded basis vector, kernel basis vector)
    emb = np.zeros((total, nK, total), dtype=complex)
    for i, (k, rho) in enumerate(sheaf.rho.items()):
        tau = kernel.left_matrix(k)[:, zero]
        for (p, u), t in zip(enumerate(rho.values()), act[:, i].tolist()):
            emb[at[t]:at[t + 1], :, at[p]:at[p + 1]] += \
                u[:, None, :] * tau[:, None]
    emb /= nK
    flat = emb.reshape(total * nK, total)
    report = LinearizationReport()

    def dev(moved, op) -> float:
        return float(np.max(np.abs(moved.reshape(flat.shape) - flat @ op))) \
            if total else 0.0

    for k in model.Khat.elements():
        report.note(dev(kernel.right_matrix(k) @ emb, module.n[k]),
                    ("translation", k))
    # [row, j, a]: <beta + iota(j), a> down the rows of the block of beta
    chars = np.repeat(finitefm._character_table(model.B)[act], d, axis=0)
    for i, a in enumerate(model.B.elements()):
        report.note(dev(chars[:, :, i, None] * emb, module.pi[a]),
                    ("character", a))
    return report


def test_transform_and_factorization_match_the_dense_oracles():
    rng = np.random.default_rng(67)
    for model in ALL_MODELS + [model_regular(3)]:
        for _ in range(3):
            sheaf = random_sheaf(model, rng)
            module = fm_lambda(model, sheaf)
            oracle = permuted_fm_lambda(model, sheaf)
            assert module.n.keys() == oracle.n.keys()
            assert all(np.array_equal(module.n[k], oracle.n[k])
                       for k in oracle.n)
            assert module.pi.keys() == oracle.pi.keys()
            assert all(np.array_equal(module.pi[a], oracle.pi[a])
                       for a in oracle.pi)
            report = verify_factorization(model, sheaf)
            dense = kron_factorization(model, sheaf, oracle)
            assert report.ok and dense.ok
            assert report.witness == dense.witness
            assert abs(report.max_dev - dense.max_dev) <= 1e-15


def test_factorization_memory_on_the_order_16_regular_model():
    """One dense `kron(I, R_k)` alone would take 225 MiB here."""
    model = model_regular(4)
    sheaf = random_sheaf(model, np.random.default_rng(0))
    assert model.Khat.size == 16 and sheaf.total_dim() == 240
    tracemalloc.start()
    try:
        report = verify_factorization(model, sheaf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 150 * 2**20


@pytest.mark.parametrize("wrong, witness, dev", [
    (None, None, 8.37e-17),
    (conjugated_transform, ("translation", (0, 1)), 0.13237704844620757),
], ids=["valid", "conjugated"])
def test_factorization_matches_the_emb_oracle_on_the_order_16_regular_model(
        wrong, witness, dev):
    """At a size where one ``kron(I, R_k)`` alone would take 225 MiB."""
    model = model_regular(4)
    rng = np.random.default_rng(0)
    sheaf = random_sheaf(model, rng)
    module = None if wrong is None else wrong(model, sheaf, rng)
    report = verify_factorization(model, sheaf, module)
    oracle = emb_factorization(model, sheaf, module or fm_lambda(model, sheaf))
    assert report.witness == oracle.witness == witness
    assert abs(report.max_dev - oracle.max_dev) <= 1e-15
    assert abs(report.max_dev - dev) <= 1e-15


def test_factorization_memory_on_the_order_25_regular_model():
    """The tensor check peaked at 900 MiB here, its kernel embedding
    alone 149 MiB."""
    model = model_regular(5)
    sheaf = random_sheaf(model, np.random.default_rng(0))
    assert model.Khat.size == 25 and sheaf.total_dim() == 625
    tracemalloc.start()
    try:
        report = verify_factorization(model, sheaf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 64 * 2**20


def test_transport_law_memory_on_the_order_16_regular_model():
    """The check builds one ``g1`` slice at a time: with all slices at
    once, the products and the twisted right-hand sides would each be a
    ``(|G|, |G|, |S|, d, d)`` stack of 14 MiB (fibers of 15 here)."""
    model = model_regular(4)
    sheaf = random_sheaf(model, np.random.default_rng(0))
    assert model.Khat.size == 16 and sheaf.total_dim() == 240
    tracemalloc.start()
    try:
        report = check_linearization(sheaf, model.phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 16 * 2**20


def test_block_modules_carry_no_frame():
    """A block module is read through its blocks alone: no ``dim x dim``
    identity frame is built for the inverse or the hom count, and blocks
    on another model's points are refused."""
    model = model_regular(4)
    rng = np.random.default_rng(1507)
    m1, m2 = (fm_lambda(model, random_sheaf(model, rng)) for _ in range(2))
    blocks, frame = finitefm._framed(model, m1)
    assert blocks is m1.blocks and frame is None
    tracemalloc.start()
    try:
        assert fm_lambda_inverse(model, m1) is m1.blocks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * m1.dim ** 2 / 16
    assert module_hom_dim(m1, m2) == hom_dim(m1.blocks, m2.blocks)
    # the blocks are re-wrapped unchecked, so other points are refused
    for other in (model_regular(3), model_klein()):
        with pytest.raises(ValueError, match="model's dual points"):
            fm_lambda_inverse(other, m1)


def test_module_hom_space_refuses_an_oversized_basis_before_allocating(
        monkeypatch):
    """The basis is 16 bytes per entry of each ``dim2 x dim1`` map: a
    call that needs more than ``MAX_HOM_BASIS_BYTES`` raises before it
    places any map, one that needs exactly that builds."""
    model = model_regular(4)
    rng = np.random.default_rng(1509)
    m1, m2 = (fm_lambda(model, random_sheaf(model, rng)) for _ in range(2))
    size = 16 * module_hom_dim(m1, m2) * m1.dim * m2.dim
    monkeypatch.setattr(finitefm, "MAX_HOM_BASIS_BYTES", size - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_HOM_BASIS_BYTES"):
            module_hom_space(m1, m2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 4, (peak, size)
    model = model_regular(3)
    m1, m2 = (fm_lambda(model, random_sheaf(model, rng)) for _ in range(2))
    hom = module_hom_dim(m1, m2)
    monkeypatch.setattr(finitefm, "MAX_HOM_BASIS_BYTES",
                        16 * hom * m1.dim * m2.dim)
    assert len(module_hom_space(m1, m2)) == hom


def test_module_hom_space_is_frobenius_orthonormal():
    rng = np.random.default_rng(61)
    for model in ALL_MODELS:
        m1, m2 = (fm_lambda(model, random_sheaf(model, rng)) for _ in range(2))
        n = m2.dim
        m2 = m2.conjugate(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        basis = module_hom_space(m1, m2)
        assert basis
        flat = np.array([X.ravel() for X in basis])
        gram = flat.conj() @ flat.T
        assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-9


def einsum_module_hom_space(m1, m2):
    """Oracle, the orbit extension ``module_hom_space`` used before it
    read the blocks: every map between the ``beta``-eigenspaces, at the
    least ``beta`` of each translation orbit, extends to the intertwiner
    ``sum_k n2[k] X n1[k]^-1``; one QR over all of them."""
    d1, d2 = m1.dim, m2.dim
    n1_inv = np.linalg.inv(np.array(list(m1.n.values())))
    n2 = np.array(list(m2.n.values()))
    projs1 = character_projectors(m1.rep())
    (bases1, r1), (bases2, r2) = (finitefm._eigenspace_bases(m.rep())
                                  for m in (m1, m2))
    maps = [np.zeros((0, d2 * d1))]
    for p, (beta, row) in enumerate(m1.model.gset.table.items()):
        if beta == min(row.values()):
            proj1 = projs1[p]
            W1, W2 = bases1[p, :, :r1[p]], bases2[p, :, :r2[p]]
            # X_ij = W2[:, i] (x) (W1^H proj1)[j], moved by every translation
            moved = np.einsum("kai,kjb->ijab", n2 @ W2,
                              W1.conj().T @ proj1 @ n1_inv)
            maps.append(moved.reshape(-1, d2 * d1))
    q, _ = np.linalg.qr(np.concatenate(maps).T)
    return [q[:, i].reshape(d2, d1) for i in range(q.shape[1])]


def test_module_hom_space_spans_the_einsum_oracle_span():
    """On block, conjugated (dense) and mixed pairs the basis read from the
    blocks through the frames is Frobenius-orthonormal and spans what the oracle spans: of
    equal length, and each oracle vector is fixed by the orthogonal
    projector onto the basis, so the two projectors are equal."""
    rng = np.random.default_rng(89)

    def unitary(n):
        return np.linalg.qr(rng.normal(size=(n, n))
                            + 1j * rng.normal(size=(n, n)))[0]

    for model in ALL_MODELS + [model_regular(3)]:
        blocks = [fm_lambda(model, random_sheaf(model, rng)) for _ in range(2)]
        # condition number below 3, eigenspaces not orthogonal
        dense = [m.conjugate(unitary(m.dim) @ np.diag(0.5 + rng.random(m.dim))
                             @ unitary(m.dim))
                 for m in blocks]
        want = hom_dim(blocks[0].blocks, blocks[1].blocks)
        for m1, m2 in itertools.product(*zip(blocks, dense)):
            Q, O = (np.array(b).reshape(len(b), m2.dim * m1.dim).T
                    for b in (module_hom_space(m1, m2),
                              einsum_module_hom_space(m1, m2)))
            assert Q.shape == O.shape == (m2.dim * m1.dim, want)
            assert np.max(np.abs(Q.conj().T @ Q - np.eye(want)),
                          initial=0.0) <= TOL
            assert np.max(np.abs(O - Q @ (Q.conj().T @ O)),
                          initial=0.0) <= TOL


def test_a_translation_singular_on_one_block_is_refused():
    """A dense module whose translation is zero on the block of one
    character off the orbit representatives: the blocks' hom count
    inverts only the transports out of a representative and would miss it,
    so the dense translations are inverted first."""
    rng = np.random.default_rng(83)
    model = model_full_z4()
    mod = fm_lambda(model, random_sheaf(model, rng))
    layout, _ = graded_layout(mod.blocks.dims, model.B)
    off, d = next((off, d) for beta, off, d in layout
                  if d and beta != model.B.zero())
    n = dict(mod.n)
    n[(1,)] = n[(1,)].copy()
    n[(1,)][:, off:off + d] = 0
    bad = ModuleOnXLambda(model, mod.pi, n)
    for m1, m2 in ((bad, mod), (mod, bad), (bad, dense_copy(mod))):
        for count in (module_hom_dim, module_hom_space):
            with pytest.raises(ValueError, match="not invertible"):
                count(m1, m2)


def test_module_hom_space_rejects_singular_translations():
    rng = np.random.default_rng(62)
    model = model_halved(True)
    mod = fm_lambda(model, random_sheaf(model, rng))
    zero = ModuleOnXLambda(model, mod.pi,
                           {k: np.zeros_like(m) for k, m in mod.n.items()})
    for m1, m2 in ((zero, mod), (mod, zero)):
        for count in (module_hom_space, module_hom_dim):
            with pytest.raises(ValueError, match="not invertible"):
                count(m1, m2)


def test_module_hom_dim_counts_the_hom_space_basis():
    """Oracle: the hom count of the blocks is the length of the
    intertwiner basis, on modules from the transform, on modules
    conjugated by non-unitary maps, on the zero module, and on the derived
    model of order 9."""
    rng = np.random.default_rng(71)
    for model in ALL_MODELS + [model_regular(3)]:
        empty = fm_lambda(model, free_sheaf(model, {}))
        for _ in range(2):
            s1, s2 = (random_sheaf(model, rng) for _ in range(2))
            m1, m2 = fm_lambda(model, s1), fm_lambda(model, s2)
            d = module_hom_dim(m1, m2)
            assert d == len(module_hom_space(m1, m2)) == hom_dim(s1, s2)
            c1, c2 = (m.conjugate(rng.normal(size=(m.dim, m.dim))
                                  + 1j * rng.normal(size=(m.dim, m.dim)))
                      for m in (m1, m2))
            assert module_hom_dim(c1, c2) == len(module_hom_space(c1, c2)) \
                == d
            assert module_hom_dim(c1, m2) == module_hom_dim(m1, c2) == d
            assert module_hom_dim(empty, c2) == module_hom_dim(c1, empty) \
                == len(module_hom_space(empty, c2)) == 0


def broken_modules(model):
    """Two-dimensional modules over ``model`` (with cyclic ``B``) whose
    ``B``-action is no representation, labelled by the refusal they must
    meet: averages that are no projectors, a non-integral trace, ranks
    that miss the dimension."""
    B = model.B
    J = np.array([[1.0, 1.0], [0.0, 1.0]])
    one = {k: np.eye(2) for k in model.Khat.elements()}
    pis = {
        "no projector": {a: np.linalg.matrix_power(J, a[0])
                         for a in B.elements()},
        "non-integral rank": {a: np.diag([1.0, 0.5]) for a in B.elements()},
        "ranks sum to 0": {a: np.zeros((2, 2)) for a in B.elements()},
    }
    return {what: ModuleOnXLambda(model, pi, one) for what, pi in pis.items()}


def test_module_hom_dim_refuses_broken_actions_and_foreign_models():
    rng = np.random.default_rng(62)
    model = model_halved(True)
    mod = fm_lambda(model, random_sheaf(model, rng))
    other = fm_lambda(model_full_z4(), random_sheaf(model_full_z4(), rng))
    cases = [("different models", other)]
    cases += list(broken_modules(model).items())
    for match, bad in cases:
        for m1, m2 in ((bad, mod), (mod, bad)):
            for count in (module_hom_dim, module_hom_space):
                with pytest.raises(ValueError, match=match):
                    count(m1, m2)


def test_frame_check_memory_on_the_order_16_regular_model():
    """The check of a framed dense module reads its residuals from the
    padded frame and the blocks' stack; the ``|Khat|`` dense translation
    views of the blocks alone would take 14 MiB."""
    model = model_regular(4)
    rng = np.random.default_rng(0)
    mod = fm_lambda(model, random_sheaf(model, rng))
    q, _ = np.linalg.qr(rng.normal(size=(mod.dim,) * 2)
                        + 1j * rng.normal(size=(mod.dim,) * 2))
    conj = mod.conjugate(q)
    finitefm._framed(model, conj)
    tracemalloc.start()
    try:
        report = conj.check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 6 * 2**20


def former_framed_blocks(module):
    """Oracle, the compression ``_framed`` ran before it kept one padded
    frame: ``W_t^H n[k] W_p`` per block, ``W_p`` the eigenspace basis of
    the point ``p`` cut to its rank and ``t = p + iota(k)``, packed by the
    validating constructor."""
    W, ranks = finitefm._eigenspace_bases(module.rep())
    bases = [w[:, :r] for w, r in zip(W, ranks)]
    gset = module.model.gset
    act = gset.action.tolist()
    rho = {k: {beta: bases[act[p][i]].conj().T @ n @ bases[p]
               for p, beta in enumerate(gset.points)}
           for i, (k, n) in enumerate(module.n.items())}
    return EquivariantObject(gset, dict(zip(gset.points, ranks)), rho)


def test_framed_blocks_match_the_per_block_oracle():
    """The batched compression of a dense module's translations gives the
    per-block compression's dimensions and stack, within rounding, on
    modules conjugated by non-unitary maps."""
    rng = np.random.default_rng(3511)
    for model in ALL_MODELS + [model_regular(3)]:
        mod = fm_lambda(model, random_sheaf(model, rng))
        T = rng.normal(size=(mod.dim,) * 2) + 1j * rng.normal(
            size=(mod.dim,) * 2)
        conj = mod.conjugate(T)
        blocks, _ = finitefm._framed(model, conj)
        want = former_framed_blocks(conj)
        assert blocks.dims == want.dims == mod.blocks.dims
        assert blocks.stack.shape == want.stack.shape
        assert np.max(np.abs(blocks.stack - want.stack), initial=0.0) <= 1e-12


def test_inverse_handles_conjugated_modules():
    rng = np.random.default_rng(47)
    model = model_klein()
    sheaf = random_sheaf(model, rng)
    mod = fm_lambda(model, sheaf)
    n = mod.dim
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    conj = mod.conjugate(q @ np.diag(0.5 + rng.random(n)))
    assert conj.check().ok
    back = fm_lambda_inverse(model, conj)
    assert back.dims == sheaf.dims
    assert check_linearization(back, model.phi).ok


def test_a_dense_module_finds_its_eigenspace_bases_once(monkeypatch):
    """The check of a dense module, its inverse and then its hom space or
    hom count take one stacked SVD between them and read one set of
    compressed blocks, and give what fresh copies framed afresh give.
    Block modules, fresh copies and conjugates keep no frame."""
    calls = []
    right = finitefm._eigenspace_bases
    monkeypatch.setattr(finitefm, "_eigenspace_bases",
                        lambda rep: calls.append(rep) or right(rep))
    rng = np.random.default_rng(2907)
    for model in (model_klein(), model_full_z4(), model_halved(True)):
        block, target = (fm_lambda(model, random_sheaf(model, rng))
                         for _ in range(2))
        for hom in (module_hom_space, module_hom_dim):
            module = dense_copy(block)
            assert module._frame is None
            calls.clear()
            assert module.check().ok
            back, got = fm_lambda_inverse(model, module), hom(module, target)
            assert len(calls) == 1
            assert back is module._frame[0] \
                is finitefm._framed(model, module)[0]
            back2 = fm_lambda_inverse(model, dense_copy(block))
            want = hom(dense_copy(block), target)
            assert len(calls) == 3
            assert back.dims == back2.dims
            assert np.array_equal(back.stack, back2.stack)
            assert np.array_equal(got, want)
            assert module.conjugate(np.eye(module.dim))._frame is None
        assert block._frame is None and target._frame is None


def test_module_check_flags_corruption():
    rng = np.random.default_rng(53)
    model = model_halved(True)
    mod = fm_lambda(model, random_sheaf(model, rng))
    bad_n = {k: m.copy() for k, m in mod.n.items()}
    bad_n[(1,)] = 2.0 * bad_n[(1,)]
    bad = ModuleOnXLambda(model, mod.pi, bad_n)
    report = bad.check()
    assert not report.ok
    assert report.witness is not None


def test_module_check_flags_a_nan_operator():
    rng = np.random.default_rng(53)
    model = model_halved(True)
    mod = fm_lambda(model, random_sheaf(model, rng))
    bad_n = dict(mod.n)
    bad_n[(1,)] = np.nan * bad_n[(1,)]
    report = ModuleOnXLambda(model, mod.pi, bad_n).check()
    assert not report.ok
    assert report.max_dev == float("inf")
    assert report.witness == ("twisted composition", (0,), (1,))


def dense_relations_check(module):
    """Oracle, the dense check ``ModuleOnXLambda.check`` ran before it read
    a dense module through its frame: ``representation_check`` of ``pi``
    (``|B|^2`` products), the transport law of ``n`` on a one-point object,
    then ``n[k] pi(a) == <iota(k), a>^-1 pi(a) n[k]`` for every ``(k,
    a)``."""
    model, report = module.model, LinearizationReport()
    rep = representation_check(module.rep())
    report.note(rep.max_dev, ("representation", rep.witness))
    law = check_linearization(from_module(model.Khat, {"*": module.n}),
                              model.phi)
    report.note(law.max_dev, law.witness
                and ("twisted composition", *law.witness[:2]))
    for k, a in itertools.product(model.Khat.elements(), model.B.elements()):
        n, pi = module.n_matrix(k), module.pi_matrix(a)
        phase = (-model.B.pairing(model.iota(k), a)).embed()
        report.note(float(np.abs(n @ pi - phase * pi @ n).max(initial=0.0)),
                    ("exchange", k, a))
    return report


def test_module_check_agrees_with_the_dense_relations_oracle():
    """On conjugated valid modules, spoiled translations, broken actions
    and two modules that break only the exchange, the check through the
    frame passes exactly when the dense oracle does; the exchange breakers
    fail at the witnesses the frame gives them."""
    rng = np.random.default_rng(3307)
    cases = []
    for model in ALL_MODELS + [model_regular(3)]:
        mod = fm_lambda(model, random_sheaf(model, rng))
        T = rng.normal(size=(mod.dim,) * 2) + 1j * rng.normal(
            size=(mod.dim,) * 2)
        cases.append((mod.conjugate(T), None))
    model = model_halved(True)
    mod = fm_lambda(model, random_sheaf(model, rng))
    for scale in (2.0, np.nan):
        cases.append((ModuleOnXLambda(
            model, mod.pi, {**mod.n, (1,): scale * mod.n[(1,)]}), None))
    cases += [(bad, None) for bad in broken_modules(model).values()]
    # the translations fix every eigenspace, which iota((1,)) = (2,) moves
    plain = TorusModel(model.B, model.Khat, [[2]])
    pi = fm_ab(random_dims(plain.B, rng), plain.B).pi
    one = np.eye(len(pi[(0,)]))
    cases.append((ModuleOnXLambda(plain, pi, {(0,): one, (1,): one}),
                  ("twisted composition", (1,), (1,))))
    cases.append((ModuleOnXLambda(
        model, mod.pi, {**mod.n, (1,): mod.n[(1,)] + 0.1 * mod.pi[(1,)]}),
        ("exchange", (1,))))
    verdicts = []
    for module, witness in cases:
        report = module.check()
        assert report.ok == dense_relations_check(module).ok
        if witness is not None:
            assert report.witness == witness
        verdicts.append(report.ok)
    assert verdicts == [True] * 5 + [False] * 7


def test_representation_check_names_a_wrong_identity():
    B = FiniteAbelianGroup((2,))
    rep = BRepresentation(B, {(0,): 2 * np.eye(2), (1,): np.eye(2)})
    ok, dev, witness = representation_check(rep)
    assert not ok and dev == pytest.approx(2.0)
    assert witness == ("zero",)


def test_zero_dimensional_representation_and_module_check_ok():
    model = model_full_z4()
    empty = np.zeros((0, 0))
    rep = BRepresentation(model.B, {a: empty for a in model.B.elements()})
    assert rep.dim == 0
    assert tuple(representation_check(rep)) == (True, 0.0, None)
    mod = ModuleOnXLambda(model, {a: empty for a in model.B.elements()},
                          {k: empty for k in model.Khat.elements()})
    assert mod.dim == 0 and tuple(mod.check()) == (True, 0.0, None)


def test_representation_check_names_a_failing_pair():
    B = FiniteAbelianGroup((4,))
    rng = np.random.default_rng(29)
    T = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    Tinv = np.linalg.inv(T)
    pi = {(a,): T @ np.diag([1j ** a, (-1) ** a]) @ Tinv for a in range(4)}
    assert representation_check(BRepresentation(B, pi)).ok
    pi[(1,)] = pi[(1,)] @ np.diag([1, 2])
    ok, dev, witness = representation_check(BRepresentation(B, pi))
    assert not ok and dev > 0.1
    a, b = witness
    assert a in pi and b in pi
    assert np.max(np.abs(pi[b] @ pi[a] - pi[B.add(a, b)])) > 0.1


# ---------------------------------------------------------------------------
# products on points

def nondegenerate_forms():
    Z2 = FiniteAbelianGroup((2,))
    Z3 = FiniteAbelianGroup((3,))
    Z4 = FiniteAbelianGroup((4,))
    Z33 = FiniteAbelianGroup((3, 3))
    return [
        GroupBilinearTable(Z2, [[Phase(1, 2)]]),
        GroupBilinearTable(Z3, [[Phase(1, 3)]]),
        GroupBilinearTable(Z4, [[Phase(1, 4)]]),
        GroupBilinearTable(
            Z33, [[Phase(1, 3), Phase(1, 3)], [Phase.zero(), Phase(1, 3)]]),
    ]


def random_function(K, rng):
    return {x: complex(rng.normal(), rng.normal()) for x in K.elements()}


def test_star_of_constants_is_constant():
    omega = nondegenerate_forms()[0]
    K = omega.group
    one = {x: 1.0 + 0j for x in K.elements()}
    out = star_on_points(one, one, omega)
    for x in K.elements():
        assert abs(out[x] - 1.0) < 1e-12


def test_star_of_delta_functions_frozen():
    omega = nondegenerate_forms()[0]
    K = omega.group
    delta = {(0,): 1.0 + 0j, (1,): 0j}
    out = star_on_points(delta, delta, omega)
    assert abs(out[(0,)] - 0.5) < 1e-12
    assert abs(out[(1,)] + 0.5) < 1e-12


def test_star_matches_dual_side_product():
    rng = np.random.default_rng(59)
    for omega in nondegenerate_forms():
        K = omega.group
        pair = lambda_sharp(omega)
        for _ in range(10):
            f = random_function(K, rng)
            g = random_function(K, rng)
            lhs = star_on_points(f, g, omega)
            rhs = dual_side_product(f, g, pair)
            for x in K.elements():
                assert abs(lhs[x] - rhs[x]) < 1e-9


def test_star_is_associative():
    rng = np.random.default_rng(61)
    for omega in nondegenerate_forms():
        K = omega.group
        for _ in range(3):
            f = random_function(K, rng)
            g = random_function(K, rng)
            h = random_function(K, rng)
            lhs = star_on_points(star_on_points(f, g, omega), h, omega)
            rhs = star_on_points(f, star_on_points(g, h, omega), omega)
            for x in K.elements():
                assert abs(lhs[x] - rhs[x]) < 1e-9


def loop_star_on_points(phi_vals, psi_vals, omega):
    """Oracle: the double sum over translate pairs, term by term."""
    K = omega.group
    out = {}
    for x in K.elements():
        acc = 0j
        for k1 in K.elements():
            y1 = phi_vals[K.add(x, k1)]
            for k2 in K.elements():
                acc += (-omega(k1, k2)).embed() * y1 * psi_vals[K.add(x, k2)]
        out[x] = acc / K.size
    return out


def fourier_component(vals, khat, K):
    """Isotypic piece of a function: averaging against the character of
    ``khat`` leaves the component transforming by it under translation."""
    inverse = finitefm._character_table(K, inverse=True)[
        :, K._index[K.reduce(khat)]]
    comp = finitefm._translates(K, vals)[0] @ inverse / K.size
    return dict(zip(K.elements(), comp.tolist()))


def loop_fourier_component(vals, khat, K):
    """Oracle: one component, averaged term by term."""
    khat = K.reduce(khat)
    return {x: sum((-K.pairing(k, khat)).embed() * vals[K.add(x, k)]
                   for k in K.elements()) / K.size
            for x in K.elements()}


def loop_dual_side_product(phi_vals, psi_vals, pair):
    """Oracle: every pair of loop components, weighted point by point."""
    K = pair.group
    comps_phi = {kh: loop_fourier_component(phi_vals, kh, K)
                 for kh in K.elements()}
    comps_psi = {kh: loop_fourier_component(psi_vals, kh, K)
                 for kh in K.elements()}
    out = {x: 0j for x in K.elements()}
    for kh1 in K.elements():
        c1 = comps_phi[kh1]
        for kh2 in K.elements():
            w = pair.dual_pairing(kh1, kh2).embed()
            c2 = comps_psi[kh2]
            for x in K.elements():
                out[x] += w * c1[x] * c2[x]
    return out


def triangular_form(factors):
    """Nondegenerate form: a primitive root of each generator's order on
    the diagonal and ``1 / gcd`` above it, as :func:`descend_cocycle`
    builds them."""
    K = FiniteAbelianGroup(factors)
    return GroupBilinearTable(K, [
        [Phase(int(i <= j), d if i == j else int(np.gcd(d, e)))
         for j, e in enumerate(factors)] for i, d in enumerate(factors)])


ORACLE_FACTORS = [(2,), (3,), (2, 4), (2, 6), (3, 3), (6, 6)]


def max_gap(lhs, rhs):
    return max(abs(lhs[x] - rhs[x]) for x in lhs)


@pytest.mark.parametrize("factors", ORACLE_FACTORS)
def test_point_products_match_the_loop_oracles(factors):
    omega = triangular_form(factors)
    K = omega.group
    pair = lambda_sharp(omega)
    rng = np.random.default_rng(sum(factors))
    for _ in range(2):
        f = random_function(K, rng)
        h = random_function(K, rng)
        star = star_on_points(f, h, omega)
        assert list(star) == list(K.elements())
        assert all(type(v) is complex for v in star.values())
        assert max_gap(star, loop_star_on_points(f, h, omega)) < 1e-13
        dual = dual_side_product(f, h, pair)
        assert list(dual) == list(K.elements())
        assert max_gap(dual, loop_dual_side_product(f, h, pair)) < 1e-13
        for khat in K.elements():
            assert max_gap(fourier_component(f, khat, K),
                           loop_fourier_component(f, khat, K)) < 1e-13


def test_star_on_points_matches_the_loop_oracle_on_degenerate_forms():
    """``star_on_points`` takes any form, not only one ``lambda_sharp``
    inverts."""
    rng = np.random.default_rng(72)
    for factors, omega in [((2, 4), [[Phase.zero(), Phase(1, 2)],
                                     [Phase.zero(), Phase.zero()]]),
                           ((3, 3), [[Phase.zero()] * 2] * 2)]:
        K = FiniteAbelianGroup(factors)
        table = GroupBilinearTable(K, omega)
        f, h = random_function(K, rng), random_function(K, rng)
        assert max_gap(star_on_points(f, h, table),
                       loop_star_on_points(f, h, table)) < 1e-13


def test_star_matches_dual_side_product_on_z12_squared():
    """Out of the loops' reach in test time: the two contractions agree."""
    omega = triangular_form((12, 12))
    K = omega.group
    pair = lambda_sharp(omega)
    rng = np.random.default_rng(144)
    for _ in range(3):
        f, h = random_function(K, rng), random_function(K, rng)
        assert max_gap(star_on_points(f, h, omega),
                       dual_side_product(f, h, pair)) < 1e-9


def test_fourier_components_resum():
    rng = np.random.default_rng(67)
    K = FiniteAbelianGroup((3, 3))
    f = random_function(K, rng)
    total = {x: 0j for x in K.elements()}
    for khat in K.elements():
        comp = fourier_component(f, khat, K)
        for x in K.elements():
            total[x] += comp[x]
    for x in K.elements():
        assert abs(total[x] - f[x]) < 1e-12
