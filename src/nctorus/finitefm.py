"""Finite Fourier transforms between graded spaces and group representations.

The coordinate side is a finite abelian group ``B``; its dual is presented
on the same tuples through :meth:`FiniteAbelianGroup.pairing`.  The plain
transform :func:`fm_ab` turns a vector space graded by dual points into a
representation of ``B`` acting by characters, and :func:`fm_ab_inverse`
recovers the grading from character eigenspaces.  Translating the grading
corresponds to twisting the representation by a character; the comparison
isomorphism is an exact block permutation (:func:`fm_ab_equivariance_iso`).

The deformed version adds a subgroup of the dual acting by translation and
a bilinear twist ``lam`` on it.  Twisted-equivariant objects on the dual
(:class:`~nctorus.equivariant.EquivariantObject` over the translation
G-set, transport law ``lam``) correspond to representations of ``B``
equipped with twisted translation operators (:class:`ModuleOnXLambda`).
:func:`fm_lambda` computes the correspondence through its factorization:
the plain transform, with each translation placing the object's transport
blocks at ``beta + iota(k)``, the index map of the comparison permutation.
It keeps those blocks and builds no dense operator; its dense ``pi`` and
``n`` are views built on first use.  A module made from dense matrices
(the constructor, ``conjugate``) stays dense; its frame, bases of its
character eigenspaces in one zero-padded stack laid out as the blocks'
stack, compresses its translations into blocks.  A module is checked as
its blocks, a dense one through its frame, and module homs are the sheaf
homs of the blocks; one routine finds blocks and frame once per module for
:meth:`ModuleOnXLambda.check`, :func:`fm_lambda_inverse`,
:func:`module_hom_dim` and :func:`module_hom_space`.  Tensoring with a
:class:`DeformedKernel` slices the invariants into placed transports, the
independent oracle that :func:`verify_factorization` checks the transform
against block by block.

:func:`star_on_points` is the function-algebra shadow of the same twist: a
double sum over translates weighted by the inverse of a nondegenerate
bilinear form, which diagonalizes into a dual-side twisted product on
Fourier components (:func:`dual_side_product`).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .equivariant import (
    EquivariantObject,
    GroupCocycleTable,
    GSet,
    LinearizationReport,
    _inverse,
    _projector_images,
    _projector_ranks,
    check_linearization,
    free,
    from_module,
    hom_dim,
    hom_space,
)
from .lattice import (DualPairData, FiniteAbelianGroup, GroupBilinearTable,
                      _add_index, _matvec, _phase_matrix)


# ---------------------------------------------------------------------------
# the untwisted transform

class BRepresentation:
    """Finite-dimensional representation of a finite abelian group ``B``.

    Stores one matrix per group element; nothing checks that they multiply
    like the group (:func:`fm_ab` builds ones that do).
    """

    __slots__ = ("group", "dim", "pi")

    def __init__(self, group: FiniteAbelianGroup, pi: Mapping):
        self.group = group
        mats = {}
        dim = None
        for a in group.elements():
            try:
                m = np.asarray(pi[a], dtype=complex)
            except KeyError:
                raise ValueError(f"matrix missing for {a}") from None
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("representation matrices must be square")
            if dim is None:
                dim = m.shape[0]
            elif m.shape[0] != dim:
                raise ValueError("representation matrices differ in size")
            mats[a] = m
        self.dim = dim if dim is not None else 0
        self.pi = mats

    def matrix(self, a) -> np.ndarray:
        return self.pi[self.group.reduce(a)]

    def __repr__(self) -> str:
        return f"BRepresentation(B={list(self.group.factors)}, dim={self.dim})"


def _graded_dims(dims: Mapping, B: FiniteAbelianGroup) -> np.ndarray:
    """Block dimensions of a dual-graded space in element order, zero
    where ``dims`` has no key; ``ValueError`` for a key that is not a
    canonical element of ``B`` and for a negative dimension."""
    for beta in set(dims).difference(B.elements()):
        raise ValueError(f"graded dimension at {beta!r}, which is not a "
                         f"canonical element of {B!r}")
    d = np.array([int(dims.get(beta, 0)) for beta in B.elements()],
                 dtype=np.int64)
    if (d < 0).any():
        raise ValueError("graded dimensions must be nonnegative")
    return d


def _shift(B: FiniteAbelianGroup, yhat):
    """Coordinates of ``B``'s elements, column ``i`` for element ``i``,
    those of ``yhat`` reduced, and the index map from element ``i`` to
    ``beta_i - yhat``, all on coordinate arrays."""
    X = np.indices(B.factors).reshape(B.rank, B.size)
    y = np.array(B.reduce(yhat), dtype=np.int64)
    return X, y, np.reshape(np.ravel_multi_index(
        X - y[:, None], B.factors, mode="wrap"), B.size)


def _character_table(B: FiniteAbelianGroup, inverse: bool = False):
    """Character values ``<beta, a>`` (or their inverses), rows ``beta`` and
    columns ``a`` in element order: the standard pairing's weights
    ``L / d_i`` on the diagonal, bit-identical to
    ``B.pairing(beta, a).embed()``."""
    return _phase_matrix(B, np.diag(B._weights) * (-1 if inverse else 1))


def fm_ab(dims: Mapping, B: FiniteAbelianGroup) -> BRepresentation:
    """Send a space graded by dual points to the representation of ``B``
    where ``a`` acts on the block of ``beta`` by the character value
    ``<beta, a>``: the rows of the character table repeated down the
    graded layout."""
    diag = np.repeat(_character_table(B), _graded_dims(dims, B), axis=0)
    return BRepresentation(B, {a: np.diag(col)
                               for a, col in zip(B.elements(), diag.T)})


def character_projectors(rep: BRepresentation) -> np.ndarray:
    """Averaged projectors onto the character eigenspaces, stacked in
    element order: ``P[beta] = (1/|B|) sum_a <beta, a>^-1 pi(a)``."""
    B = rep.group
    pi = np.array([rep.pi[a] for a in B.elements()])
    return np.tensordot(_character_table(B, inverse=True), pi,
                        axes=1) / B.size


def _eigenspace_bases(rep: BRepresentation) -> tuple:
    """Orthonormal bases of the character eigenspaces, in element order,
    zero-padded into one stack ``W[beta]`` of shape ``(|B|, dim, D)``,
    and their ranks; ``ValueError`` unless the images exhaust ``rep``."""
    return _projector_images(character_projectors(rep),
                             list(rep.group.elements()), rep.dim)


def fm_ab_inverse(rep: BRepresentation) -> dict:
    """Recover the graded dimensions from character ranks.

    Raises ``ValueError`` unless the averaged character projectors are
    projectors whose ranks exhaust the representation (it was not a true
    character decomposition).
    """
    elts = list(rep.group.elements())
    ranks = _projector_ranks(character_projectors(rep), elts, rep.dim)
    return {beta: r for beta, r in zip(elts, ranks) if r}


def translate_graded(dims: Mapping, yhat, B: FiniteAbelianGroup) -> dict:
    """Shift a dual-graded dimension profile: the new block at ``beta``
    is the old one at ``beta - yhat``."""
    shift = _shift(B, yhat)[2]
    return dict(zip(B.elements(), _graded_dims(dims, B)[shift].tolist()))


def character_twist(rep: BRepresentation, yhat) -> BRepresentation:
    """Multiply the action of each ``a`` by the character value ``<yhat, a>``."""
    B = rep.group
    return BRepresentation(
        B, {a: B.pairing(yhat, a).embed() * rep.matrix(a)
            for a in B.elements()})


def fm_ab_equivariance_iso(dims: Mapping, yhat, B: FiniteAbelianGroup) -> np.ndarray:
    """Permutation matrix comparing the transform of a translated grading
    with the character-twisted transform of the original.

    Maps the canonical basis of ``fm_ab(translate_graded(dims, yhat))`` to
    that of ``fm_ab(dims)``: the block sitting at ``beta`` on the
    translated side is the original block of ``beta - yhat`` and goes
    there identically.
    """
    shift = _shift(B, yhat)[2]
    d = _graded_dims(dims, B)
    src = d[shift]
    # column c moves from the start of its translated block to the original's
    rows = np.arange(src.sum()) + np.repeat(
        (np.cumsum(d) - d)[shift] - (np.cumsum(src) - src), src)
    return np.eye(src.sum())[:, rows]


def check_fm_ab_equivariance(dims: Mapping, yhat, B: FiniteAbelianGroup) -> bool:
    """Exact phase-level intertwining law for the comparison permutation.

    Moving basis vectors along the permutation, the diagonal phase of the
    translated transform must equal the twist phase plus the original
    diagonal phase.  Each block of the translated side is checked once
    against every ``a``, on pairing exponents ``beta . diag(L/d_i) . a``
    compared as integers mod ``L``, not floats.
    """
    X, y, shift = _shift(B, yhat)
    live = np.flatnonzero(_graded_dims(dims, B)[shift])
    # <beta, a> - <yhat, a> - <beta - yhat, a> for each live block beta
    gap = X[:, live] - y[:, None] - X[:, shift[live]]
    return not ((gap.T * B._weights) @ X % B.exponent).any()


# ---------------------------------------------------------------------------
# the twisted model

class TorusModel:
    """Finite fiber data: coordinate group ``B``, a subgroup of the dual
    acting by translation, and a bilinear twist on it.

    ``embed`` is an integer matrix taking coordinates on ``Khat`` to dual
    tuples; it must be injective.  ``lam`` defaults to the trivial form.
    """

    __slots__ = ("B", "Khat", "embed", "lam", "phi", "gset")

    def __init__(self, B: FiniteAbelianGroup, Khat: FiniteAbelianGroup,
                 embed, lam: GroupBilinearTable = None):
        embed = [[int(x) for x in row] for row in embed]
        if len(embed) != B.rank or any(len(row) != Khat.rank for row in embed):
            raise ValueError("embedding matrix has the wrong shape")
        self.B = B
        self.Khat = Khat
        self.embed = embed
        if lam is None:
            lam = GroupBilinearTable.trivial(Khat)
        if lam.group != Khat:
            raise ValueError("twist lives on a different group")
        self.lam = lam
        self.phi = GroupCocycleTable.from_bilinear(lam)
        for j, dj in enumerate(Khat.factors):
            rel = B.reduce(tuple(dj * self.embed[i][j] for i in range(B.rank)))
            if rel != B.zero():
                raise ValueError(
                    f"embedding does not respect the order of generator {j}")
        points, elts = tuple(B.elements()), list(Khat.elements())
        # the element index of iota(k) for each k; element 0 is the zero
        iota = [B._index[B.reduce(_matvec(embed, k))] for k in elts]
        if 0 in iota[1:]:
            raise ValueError(f"embedding is not injective: "
                             f"{elts[iota.index(0, 1)]} maps to 0")
        self.gset = GSet(Khat, points, _add_index(B)[:, iota])

    def iota(self, k):
        """Image of a ``Khat`` element among the dual tuples."""
        K = self.Khat
        return self.gset.points[self.gset.action[0, K._index[K.reduce(k)]]]

    def __repr__(self) -> str:
        return (f"TorusModel(B={list(self.B.factors)}, "
                f"Khat={list(self.Khat.factors)})")


def free_sheaf(model: TorusModel, base_dims: Mapping) -> EquivariantObject:
    """Induced twisted-equivariant object over the dual points."""
    return free(base_dims, model.phi, model.gset)


def random_sheaf(model: TorusModel, rng) -> EquivariantObject:
    """Free object on a random grading of dimensions 0 to 2, conjugated by
    random invertible fiberwise maps: a generic object satisfying the
    transport law.

    The grading is one draw over the points, the same stream as one draw
    per point.  Then per point, in order, one draw of the real and
    imaginary parts of a square matrix and one of its column scales, each
    written straight into a padded stack: the matrices padded with the
    identity, the scales with ones.  One QR of the stack orthonormalizes
    the matrices (on the padding it is the identity), and the batched
    product of :meth:`~nctorus.equivariant.EquivariantObject.conjugate`
    applies them, the inverses taken per fiber dimension.
    """
    points = model.gset.points
    dims = dict(zip(points, rng.integers(0, 3, size=len(points)).tolist()))
    if not any(dims.values()):
        dims[points[0]] = 1
    obj = free_sheaf(model, dims)
    fibers, D = list(obj.dims.values()), obj.stack.shape[2]
    draws = np.zeros((len(fibers), D, D), dtype=complex)
    draws[:] = np.eye(D)
    parts = draws.view(float).reshape(len(fibers), D, D, 2)  # real, imag
    scales = np.full((len(fibers), 1, D), 0.5)  # u of each scale 0.5 + u
    for p, n in enumerate(fibers):
        parts[p, :n, :n] = rng.normal(size=(2, n, n)).transpose(1, 2, 0)
        scales[p, 0, :n] = rng.random(n)
    return obj._conjugated(np.linalg.qr(draws)[0] * (scales + 0.5))


class DeformedKernel:
    """The ``|Khat|``-dimensional space mediating the twisted transform,
    the oracle of :func:`verify_factorization`.

    Basis vectors ``e_j`` are indexed by the translation subgroup.  The
    kernel action ``left_matrix`` sends ``e_j`` to ``lam(j, k) e_{j-k}``
    and composes up to the inverse twist, which is exactly what cancels
    the twist of an equivariant object when the two are tensored.  The
    commuting ``right_matrix`` sends ``e_j`` to ``lam(k, k)^-1 lam(k, j)^-1
    e_{j+k}``; its normalization is chosen so that the operators it induces
    on invariants satisfy the module relations and match the plain
    transform without any residual scalar.  On the invariants of an object
    tensored with the kernel, slice ``j`` is the placed ``rho[-j] / |Khat|``
    (``left_matrix(k)`` sends ``e_0`` to ``e_{-k}``), and ``right_matrix(k)``
    moves it to slice ``j + k`` times ``c = right_matrix(k)[j + k, j]``.
    """

    __slots__ = ("model", "order", "index", "_phases")

    def __init__(self, model: TorusModel):
        self.model = model
        self.order = list(model.Khat.elements())
        self.index = model.Khat._index
        E = np.array(model.lam._E, dtype=np.int64)
        # [j, k]: lam(j, k) and its inverse, embedded
        self._phases = (_phase_matrix(model.Khat, E),
                        _phase_matrix(model.Khat, -E))

    @property
    def size(self) -> int:
        return len(self.order)

    def _placed(self, rows, values) -> np.ndarray:
        """The matrix sending ``e_j`` to ``values[j] e_{rows[j]}``."""
        m = np.zeros((self.size, self.size), dtype=complex)
        m[rows, np.arange(self.size)] = values
        return m

    def left_matrix(self, k) -> np.ndarray:
        K = self.model.Khat
        return self._placed(_shift(K, k)[2],
                            self._phases[0][:, self.index[K.reduce(k)]])

    def right_matrix(self, k) -> np.ndarray:
        K = self.model.Khat
        rows = _shift(K, K.neg(k))[2]
        return self._placed(rows, self._phases[1][self.index[K.reduce(k)],
                                                  rows])

    def check(self, tol: float = 1e-12) -> bool:
        """Left action composes up to the inverse twist, right action up to
        the twist itself (each the transport law of a one-point object),
        and the two commute."""
        K = self.model.Khat
        phi = self.model.phi
        left = {k: self.left_matrix(k) for k in K.elements()}
        right = {k: self.right_matrix(k) for k in K.elements()}
        return (check_linearization(from_module(K, {"*": left}),
                                    phi.inverse()).max_dev <= tol
                and check_linearization(from_module(K, {"*": right}),
                                        phi).max_dev <= tol
                and all(np.max(np.abs(L @ R - R @ L)) <= tol
                        for L in left.values() for R in right.values()))


class ModuleOnXLambda:
    """Representation of ``B`` together with twisted translation operators.

    The operators ``n[k]`` satisfy ``n[k2] n[k1] = lam(k1, k2) n[k1+k2]``
    and exchange with the ``B``-action against the character of the
    embedded element: ``n[k] pi(a) = <iota(k), a>^-1 pi(a) n[k]``.

    The constructor stores dense ``pi`` and ``n``.  :func:`fm_lambda`
    instead keeps the checked object, sharing its matrices, as ``blocks``:
    ``rho[k][beta]`` is the block of ``n[k]`` from the character ``beta``
    to ``beta + iota(k)``, placed by the index map of the comparison
    permutation (:func:`fm_ab_equivariance_iso`); ``pi`` and ``n`` are
    dense views, each built on first use.  A dense module has its blocks
    in its character eigenspaces, compressed through its frame, bases of
    those eigenspaces zero-padded into one stack in the layout of the
    blocks' stack; both are found on first use and kept.  A module is
    checked as its blocks, a dense one through its frame, and module homs
    are the sheaf homs of the blocks.
    """

    __slots__ = ("model", "dim", "blocks", "_pi", "_n", "_frame")

    def __init__(self, model: TorusModel, pi: Mapping, n: Mapping):
        # the operators are one family of square matrices of one size
        rep, ops = BRepresentation(model.B, pi), BRepresentation(model.Khat, n)
        if ops.dim != rep.dim:
            raise ValueError("translation operators must match the "
                             "representation dimension")
        self.model, self.dim, self.blocks = model, rep.dim, None
        self._pi, self._n, self._frame = rep.pi, ops.pi, None

    @property
    def pi(self) -> dict:
        if self._pi is None:
            self._pi = fm_ab(self.blocks.dims, self.model.B).pi
        return self._pi

    @property
    def n(self) -> dict:
        if self._n is None:
            at = np.cumsum([0, *self.blocks.dims.values()]).tolist()
            act = self.model.gset.action.T.tolist()
            self._n = {}
            for i, (k, rho) in enumerate(self.blocks.rho.items()):
                m = self._n[k] = np.zeros((at[-1], at[-1]), dtype=complex)
                for (p, block), t in zip(enumerate(rho.values()), act[i]):
                    m[at[t]:at[t + 1], at[p]:at[p + 1]] = block
        return self._n

    def rep(self) -> BRepresentation:
        return BRepresentation(self.model.B, self.pi)

    def pi_matrix(self, a) -> np.ndarray:
        return self.pi[self.model.B.reduce(a)]

    def n_matrix(self, k) -> np.ndarray:
        return self.n[self.model.Khat.reduce(k)]

    def check(self) -> LinearizationReport:
        """Verify all three families of relations on the module's blocks
        (:func:`_framed`); the witness labels which one broke first.  Blocks
        satisfy the ``B``-action and the exchange by construction, so only
        their transport law is checked.  A dense module is checked through
        its frame ``W[beta]``, read off the stacks: ``pi[a] W[beta] ==
        <beta, a> W[beta]`` (``("representation", a)``) and ``n[k] W[beta]
        == W[beta + iota(k)] rho[k][beta]`` (``("exchange", k)``).  One that
        cannot be framed fails as ``("representation", reason)``."""
        model, report = self.model, LinearizationReport()
        try:
            blocks, W = _framed(model, self)
        except ValueError as exc:
            report.note(np.inf, ("representation", str(exc)))
            return report
        if W is not None:
            chars = _character_table(model.B).T[:, :, None, None]
            for (a, m), col in zip(self.pi.items(), chars):
                report.note(float(np.abs(m @ W - col * W).max(initial=0.0)),
                            ("representation", a))
        law = check_linearization(blocks, model.phi)
        report.note(law.max_dev, law.witness
                    and ("twisted composition", *law.witness[:2]))
        if W is not None:
            for i, (k, m) in enumerate(self.n.items()):
                moved = W[model.gset.action[:, i]] @ blocks.stack[:, i]
                report.note(float(np.abs(m @ W - moved).max(initial=0.0)),
                            ("exchange", k))
        return report

    def conjugate(self, T) -> "ModuleOnXLambda":
        T = np.asarray(T, dtype=complex)
        Tinv = np.linalg.inv(T)
        return ModuleOnXLambda(
            self.model,
            {a: T @ m @ Tinv for a, m in self.pi.items()},
            {k: T @ m @ Tinv for k, m in self.n.items()})

    def __repr__(self) -> str:
        return f"ModuleOnXLambda({self.model!r}, dim={self.dim})"


# ---------------------------------------------------------------------------
# the deformed transform

def fm_lambda(model: TorusModel, sheaf: EquivariantObject) -> ModuleOnXLambda:
    """Transform a twisted-equivariant object on the dual points into a
    module with twisted translations, through the factorization.

    The ``B``-action is the plain transform of the graded dimensions.  The
    operator of ``k`` is the object's transport placed blockwise: the
    block ``rho[k][beta]`` goes from the block of ``beta`` to that of
    ``beta + iota(k)``.  The module keeps the object as its ``blocks`` and
    builds no dense operator.  Raises ``ValueError`` when the object
    violates the transport law.
    """
    report = check_linearization(sheaf, model.phi)
    if not report.ok:
        raise ValueError(
            f"object violates the transport law at {report.witness} "
            f"(deviation {report.max_dev:.3g})")
    if not sheaf.gset.matches(model.gset):
        raise ValueError("object does not live on this model's dual points")
    module = ModuleOnXLambda.__new__(ModuleOnXLambda)
    module.model, module.dim, module.blocks = model, sheaf.total_dim(), sheaf
    module._pi = module._n = module._frame = None
    return module


def _framed(model: TorusModel, module: ModuleOnXLambda):
    """A module's blocks, on ``model``'s dual points, and its frame.  A
    block module needs none (``None``); a dense one is framed by
    orthonormal bases ``W[beta]`` of its character eigenspaces, one stack
    zero-padded to the largest rank as the blocks' stack is, and its
    translations compress to ``rho[k][beta] = W[beta + iota(k)]^H n[k]
    W[beta]``, one batched product per ``k``: blocks and frame are found
    once per module and kept.  ``ValueError`` as from
    :func:`_projector_images`, or for blocks on other points."""
    if module.blocks is None and module._frame is None:
        W, ranks = _eigenspace_bases(module.rep())
        gset, D, WH = module.model.gset, W.shape[2], W.conj().swapaxes(1, 2)
        stack = np.empty((len(ranks), len(module.n), D, D), dtype=complex)
        for i, n in enumerate(module.n.values()):
            stack[:, i] = WH[gset.action[:, i]] @ (n @ W)
        # zeros around the blocks, even where a NaN met the padding
        r, at = np.array(ranks)[:, None, None], np.arange(D)
        stack[(at[:, None] >= r[gset.action]) | (at >= r[:, None])] = 0
        module._frame = (EquivariantObject._stacked(
            gset, dict(zip(gset.points, ranks)), stack), W)
    blocks, frame = module._frame or (module.blocks, None)
    if not blocks.gset.matches(model.gset):
        raise ValueError("module does not live on this model's dual points")
    if blocks.gset is not model.gset:
        blocks = EquivariantObject._stacked(model.gset, blocks.dims,
                                            blocks.stack)
    return blocks, frame


def fm_lambda_inverse(model: TorusModel,
                      module: ModuleOnXLambda) -> EquivariantObject:
    """Recover a twisted-equivariant object from a module: its blocks,
    which a dense module has in its character eigenspaces."""
    return _framed(model, module)[0]


def _hom_frames(m1: ModuleOnXLambda, m2: ModuleOnXLambda) -> tuple:
    """The blocks and frames of two modules over one model.  Raises
    ``ValueError`` when the models differ, when a translation of a dense
    module is singular (a block module's law was checked by
    :func:`fm_lambda`), or as :func:`_framed` does."""
    a, b = ((m.model.B, m.model.Khat, m.model.embed, m.model.lam.omega)
            for m in (m1, m2))
    if m1.model is not m2.model and a != b:
        raise ValueError("modules live over different models")
    for m in (m1, m2):
        if m.blocks is None:
            _inverse(list(m.n.values()), "a translation operator")
    return _framed(m1.model, m1), _framed(m1.model, m2)


# Largest basis, in bytes, that module_hom_space builds
MAX_HOM_BASIS_BYTES = 512 * 2**20


def module_hom_space(m1: ModuleOnXLambda, m2: ModuleOnXLambda) -> list:
    """Orthonormal basis of maps intertwining both the ``B``-action and
    the twisted translations.

    An intertwiner is block diagonal over the characters, and on the
    blocks it is a hom of the sheaves: ``X = W2 blockdiag(chi) W1^-1``
    for each family ``chi`` of :func:`~nctorus.equivariant.hom_space` of
    the blocks, ``W1`` and ``W2`` the frames of :func:`_framed` with their
    columns in the graded layout, square as the eigenspaces exhaust each
    module (a block module has none).  One QR makes the result
    Frobenius-orthonormal.  Raises ``ValueError`` as :func:`_hom_frames`
    and ``hom_space`` do, and before allocating a basis of more than
    ``MAX_HOM_BASIS_BYTES`` (512 MiB, 16 bytes per entry of each ``dim2 x
    dim1`` map).
    """
    (b1, W1), (b2, W2) = _hom_frames(m1, m2)
    families = hom_space(b1, b2)
    if 16 * len(families) * m1.dim * m2.dim > MAX_HOM_BASIS_BYTES:
        raise ValueError(f"a basis of {len(families)} maps {m2.dim} x "
                         f"{m1.dim} exceeds MAX_HOM_BASIS_BYTES")
    at1, at2 = (np.cumsum([0, *b.dims.values()]) for b in (b1, b2))
    chi = np.zeros((len(families), m2.dim, m1.dim), dtype=complex)
    for X, family in zip(chi, families):
        for p, block in enumerate(family.values()):
            X[at2[p]:at2[p + 1], at1[p]:at1[p + 1]] = block

    def square(b, W):  # the frame's columns in the graded layout
        r = np.array(list(b.dims.values()))
        return W.swapaxes(1, 2)[np.arange(W.shape[2]) < r[:, None]].T
    # independent maps, orthonormal only if the eigenspaces are orthogonal
    if W2 is not None:
        chi = square(b2, W2) @ chi
    if W1 is not None:
        chi = chi @ np.linalg.inv(square(b1, W1))
    q, _ = np.linalg.qr(chi.reshape(len(chi), m2.dim * m1.dim).T)
    return list(q.T.reshape(chi.shape))


def module_hom_dim(m1: ModuleOnXLambda, m2: ModuleOnXLambda) -> int:
    """Dimension of :func:`module_hom_space`, the
    :func:`~nctorus.equivariant.hom_dim` of the two modules' blocks.
    Raises ``ValueError`` where :func:`module_hom_space` does."""
    (b1, _), (b2, _) = _hom_frames(m1, m2)
    return hom_dim(b1, b2)


def verify_factorization(model: TorusModel, sheaf: EquivariantObject,
                         module: ModuleOnXLambda = None
                         ) -> LinearizationReport:
    """Check the block module of ``sheaf`` (by default ``fm_lambda(model,
    sheaf)``) against the kernel construction: on each slice ``g = -j`` of
    the invariants (:class:`DeformedKernel`), the block ``X[t]`` of
    ``n[k]`` in row ``t``, read from the module's stack, must give
    ``rho[g][t] X[t] == c rho[g + k][p]`` at ``t = p + iota(k)``, ``c =
    right_matrix(k)[j, j - k]``.  The ``B``-action of a block module is
    the plain transform, so the character part holds by construction.  The
    witness names the first failing translation.  Raises ``ValueError``
    for a dense module, for a sheaf or module on other points than the
    model's, for graded dimensions that differ from the sheaf's and, with
    no module given, as :func:`fm_lambda` does.
    """
    if module is None:
        module = fm_lambda(model, sheaf)
    elif module.blocks is None:
        raise ValueError("a dense module has no blocks to check")
    for obj, what in ((sheaf, "object"), (module.blocks, "module")):
        if not obj.gset.matches(model.gset):
            raise ValueError(f"{what} does not live on the model's points")
    if module.blocks.dims != sheaf.dims:
        raise ValueError("module and object differ in graded dimensions")
    kernel, P, add = DeformedKernel(model), sheaf.stack, _add_index(model.Khat)
    S, nK, D = P.shape[:3]
    # [k, g]: c at the slice j = -g, the one entry of row j
    c = np.array([kernel.right_matrix(k).sum(axis=1) for k in kernel.order])[
        :, np.argmax(add == 0, axis=1)]
    # [k, t]: the point p with p + iota(k) = t, whose block is row t of n[k]
    src = np.argsort(model.gset.action, axis=0).T
    X = module.blocks.stack[src, np.arange(nK)[:, None]]
    report, rows = LinearizationReport(), P.reshape(S, nK * D, D)
    for l, k in enumerate(kernel.order):
        want = c[l, :, None, None] * P[src[l][:, None], add[l]]
        dev = np.abs((rows @ X[l]).reshape(want.shape) - want)
        report.note(float(dev.max(initial=0.0)) / nK, ("translation", k))
    return report


# ---------------------------------------------------------------------------
# the function-algebra shadow

def _translates(K: FiniteAbelianGroup, *funcs: Mapping) -> list:
    """``F[x, k] = f[x + k]`` for each function ``f``, in element order."""
    add = _add_index(K)
    return [np.array([f[x] for x in K.elements()], dtype=complex)[add]
            for f in funcs]


def star_on_points(phi_vals: Mapping, psi_vals: Mapping,
                   omega: GroupBilinearTable) -> dict:
    """Twisted product of functions on the group: average over translate
    pairs weighted by the inverse of the bilinear form, one contraction."""
    K = omega.group
    F, H = _translates(K, phi_vals, psi_vals)
    out = ((F @ _phase_matrix(K, -np.array(omega._E))) * H).sum(1) / K.size
    return dict(zip(K.elements(), out.tolist()))


def dual_side_product(phi_vals: Mapping, psi_vals: Mapping,
                      pair: DualPairData) -> dict:
    """Reassemble the twisted product from Fourier components (one product
    with the inverse character table): pairs of components multiply
    pointwise, weighted by the dual pairing, in one contraction."""
    K = pair.group
    inverse = _character_table(K, inverse=True) / K.size
    C1, C2 = (F @ inverse for F in _translates(K, phi_vals, psi_vals))
    flat = [K._index[pair.flat[kh]] for kh in K.elements()]
    W = _phase_matrix(K, pair.lam._E)[np.ix_(flat, flat)]
    return dict(zip(K.elements(), ((C1 @ W) * C2).sum(1).tolist()))
