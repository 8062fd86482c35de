"""Twisted-equivariant linear algebra over finite group actions.

An :class:`EquivariantObject` is a family of vector spaces over the points
of a finite G-set together with maps ``rho_g[s]: fiber(s) -> fiber(s.g)``.
Composing two of them is only required to close up to a scalar,

    rho_{g2}[s.g1] . rho_{g1}[s] == phi(g1, g2) * rho_{g1+g2}[s],

and :func:`check_linearization` verifies exactly this law against a given
scalar table ``phi``.  An object keeps its transports in one zero-padded
array ``stack[p, i]`` (point by element), which every routine here reads
whole; its ``rho`` is a read-only view.  The law is consistent precisely
when ``phi`` satisfies the 2-cocycle identity: :func:`free` objects obey
it for a cocycle and visibly break it otherwise.

:func:`hom_space` computes the maps commuting with the twisted action (the
scalar twists cancel between source and target), :func:`retwist` moves an
object between cohomologous twists, and :func:`twisted_algebra` builds the
finite-dimensional algebra of ``phi``-twisted group-algebra-valued
functions whose modules these objects are.
"""

from __future__ import annotations

import itertools
import math
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .lattice import (FiniteAbelianGroup, GroupBilinearTable, _add_index,
                      _phase_matrix)

Elt = tuple[int, ...]

# the largest deviation any numerical check in the package accepts
TOL = 1e-9

# Most bytes that one batch of elements g1 gathers in check_linearization
# and in the G-set axioms; a batch holds at least one g1
LAW_BATCH_BYTES = 2**20


def _batches(count: int, nbytes: int) -> list:
    """``range(count)`` in runs of as many indices as fit
    ``LAW_BATCH_BYTES`` at ``nbytes`` each, and at least one."""
    step = max(1, LAW_BATCH_BYTES // max(nbytes, 1))
    return [np.arange(count)[lo:lo + step] for lo in range(0, count, step)]


class GSet:
    """Finite set with a right action of a finite abelian group, stored
    once as the read-only index array ``action[p, i]`` (point ``p`` moved
    by element ``i``), given as such or as a callable ``act(s, g)`` called
    once per point and element, each distinct value outside the point set
    indexed past it.  The axioms are checked on the array on construction,
    so downstream code can rely on them.  ``table[s][g] = s.g`` is a
    read-only view and ``orbits`` the orbit decomposition, each built on
    first use."""

    __slots__ = ("group", "points", "action", "_table", "_orbits")

    def __init__(self, group: FiniteAbelianGroup, points: Sequence,
                 act: Callable | np.ndarray):
        points = tuple(points)
        if len(set(points)) != len(points):
            raise ValueError("points must be distinct")
        if not points:
            raise ValueError("a G-set needs at least one point")
        elts, n = list(group.elements()), len(points)
        if callable(act):
            index = {s: p for p, s in enumerate(points)}
            act = [index.setdefault(act(s, g), len(index))
                   for s in points for g in elts]
        A = np.array(act, dtype=np.int64).reshape(n, len(elts))
        moved = np.flatnonzero(A[:, 0] != np.arange(n))  # 0 is the zero
        if moved.size:
            raise ValueError(f"identity does not fix {points[moved[0]]}")
        # at each (s, g1) in order: closure, then s.g1.g2 == s.(g1+g2) for
        # every g2, compared on a batch of columns g1 at a time
        fail, add = (A < 0) | (A >= n), _add_index(group)
        for i in _batches(len(elts), A.nbytes):
            fail[:, i] |= (A[np.where(fail[:, i], 0, A[:, i])]
                           != A[:, add[i]]).any(axis=2)
        p, i = divmod(int(np.argmax(fail)), len(elts))
        if not 0 <= A[p, i] < n:
            raise ValueError(
                f"action leaves the point set at {points[p]}.{elts[i]}")
        if fail[p, i]:
            g2 = int(np.argmax(A[A[p, i]] != A[p, add[i]]))
            raise ValueError(f"action is not associative at ({points[p]}, "
                             f"{elts[i]}, {elts[g2]})")
        A.flags.writeable = False
        self.group, self.points, self.action = group, points, A
        self._table = self._orbits = None

    @property
    def table(self) -> Mapping:
        """Read-only ``{s: {g: s.g}}``, built on first use."""
        if self._table is None:
            elts, at = list(self.group.elements()), self.points.__getitem__
            self._table = MappingProxyType({s: MappingProxyType(dict(zip(
                elts, map(at, row)))) for s, row in zip(
                    self.points, self.action.tolist())})
        return self._table

    @property
    def orbits(self) -> tuple:
        """``(orbits, P, I)``, built on first use: per orbit its first
        point ``p``, its points in the order the elements first reach them
        from ``p`` and the stabilizer of ``p``; then, orbit after orbit,
        the index arrays of ``(p, element)`` moving ``p`` onto each point
        (point indices, element order)."""
        if self._orbits is None:
            orbits, seen, pairs = [], set(), []
            for p, row in enumerate(self.action.tolist()):
                if p not in seen:
                    orbit = list(dict.fromkeys(row))
                    seen.update(orbit)
                    pairs += [(p, row.index(t)) for t in orbit]
                    orbits.append((p, orbit,
                                   [i for i, t in enumerate(row) if t == p]))
            pairs = np.array(pairs).T
            pairs.flags.writeable = False
            self._orbits = (orbits, *pairs)
        return self._orbits

    def matches(self, other: "GSet") -> bool:
        """Whether ``other`` has the same points, group and action."""
        return self is other or (
            self.points == other.points and self.group == other.group
            and np.array_equal(self.action, other.action))

    def act(self, s, g):
        return self.table[s][self.group.reduce(g)]

    @classmethod
    def trivial(cls, group: FiniteAbelianGroup, points: Sequence = ("*",)) -> "GSet":
        return cls(group, points, lambda s, g: s)

    @classmethod
    def regular(cls, group: FiniteAbelianGroup) -> "GSet":
        return cls(group, tuple(group.elements()), _add_index(group))

    def __repr__(self) -> str:
        return f"GSet({self.group!r}, {len(self.points)} points)"


class GroupCocycleTable:
    """Scalar-valued 2-cochain on a finite abelian group, one complex array
    ``values[g1, g2]`` in element order.  ``table`` maps every pair ``(g1,
    g2)`` to a number or is the array of them; ``ValueError`` names the first
    pair in row-major order that is missing, vanishes or is not finite."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteAbelianGroup, table):
        elts = list(group.elements())
        n = len(elts)
        if not isinstance(table, np.ndarray):
            table = [complex(table[key]) for key in itertools.takewhile(
                table.__contains__, itertools.product(elts, repeat=2))]
        flat = np.array(table, dtype=complex).reshape(-1)
        bad = np.flatnonzero(~np.isfinite(flat) | (flat == 0))
        first = bad[0] if len(bad) else len(flat)
        if first < n * n:
            where = f"({elts[first // n]}, {elts[first % n]})"
            raise ValueError(f"table is missing the pair {where}"
                             if first == len(flat) else
                             f"table vanishes at {where}" if flat[first] == 0
                             else f"table is not finite at {where}")
        self.group = group
        self.values = flat.reshape(n, n)

    @classmethod
    def trivial(cls, group: FiniteAbelianGroup) -> "GroupCocycleTable":
        return cls(group, np.ones(group.size ** 2))

    @classmethod
    def from_bilinear(cls, bil: GroupBilinearTable) -> "GroupCocycleTable":
        return cls(bil.group, _phase_matrix(bil.group, bil._E))

    @property
    def table(self) -> dict:
        """The values as a new dict ``{(g1, g2): complex}``."""
        return dict(zip(itertools.product(self.group.elements(), repeat=2),
                        self.values.ravel().tolist()))

    def __call__(self, g1, g2) -> complex:
        G = self.group
        return complex(self.values[G._index[G.reduce(g1)],
                                   G._index[G.reduce(g2)]])

    def check(self):
        """Test the 2-cocycle identity on every triple, within ``TOL``,
        one row of triples ``(g1, *, *)`` at a time.

        Returns ``(True, None)`` or ``(False, (g1, g2, g3))`` for the first
        violating triple in ``itertools.product`` order.
        """
        elts = list(self.group.elements())
        phi, add = self.values, _add_index(self.group)
        for i, g1 in enumerate(elts):
            # [j, l]: phi(g1, g2) phi(g1+g2, g3) - phi(g1, g2+g3) phi(g2, g3)
            bad = np.abs(phi[i][:, None] * phi[add[i]]
                         - phi[i][add] * phi) > TOL
            if bad.any():
                j, l = divmod(int(np.argmax(bad)), len(elts))
                return False, (g1, elts[j], elts[l])
        return True, None

    def twisted_by(self, alpha: Mapping) -> "GroupCocycleTable":
        """Multiply by the coboundary of the scalar 1-cochain ``alpha``:
        ``phi'(g1, g2) = phi(g1, g2) alpha(g1) alpha(g2) / alpha(g1+g2)``."""
        G = self.group
        return GroupCocycleTable(
            G, {(g1, g2): v * alpha[g1] * alpha[g2] / alpha[G.add(g1, g2)]
                for (g1, g2), v in self.table.items()})

    def inverse(self) -> "GroupCocycleTable":
        # Python's complex division, as the values were always divided
        return GroupCocycleTable(self.group, np.array(
            [1.0 / v for v in self.values.ravel().tolist()]))


class EquivariantObject:
    """Graded vector spaces over a G-set with twisted transport maps.

    ``dims[s]`` is the fiber dimension at the point ``s`` and
    ``rho[g][s]`` the transport matrix from the fiber at ``s`` to the fiber
    at ``s.g``.  All live in one read-only complex array ``stack[p, i]``
    of shape ``(points, |G|, d, d)``, ``d`` the largest fiber dimension:
    ``rho_g[s]`` for point ``p`` and element ``i`` in order, zeros around
    it.  ``rho`` is a read-only mapping of views into ``stack``, built on
    first use.  The constructor checks each transport's shape and packs the
    stack once.  Which scalar law the transports satisfy is *not* fixed
    here; pass the object to :func:`check_linearization` with a candidate
    table.
    """

    __slots__ = ("gset", "dims", "stack", "_rho")

    def __init__(self, gset: GSet, dims: Mapping, rho: Mapping):
        dims = {s: int(dims[s]) for s in gset.points}
        if any(d < 0 for d in dims.values()):
            raise ValueError("fiber dimensions must be nonnegative")
        d, act = max(dims.values()), gset.action.tolist()
        stack = np.zeros((len(gset.points), gset.group.size, d, d),
                         dtype=complex)
        for i, g in enumerate(gset.group.elements()):
            try:
                per_point = rho[g]
            except KeyError:
                raise ValueError(f"transport missing for group element {g}") \
                    from None
            for p, s in enumerate(gset.points):
                m = np.asarray(per_point[s], dtype=complex)
                want = (dims[gset.points[act[p][i]]], dims[s])
                if m.shape != want:
                    raise ValueError(
                        f"transport for ({g}, {s}) has shape {m.shape}, "
                        f"expected {want}")
                stack[p, i, :want[0], :want[1]] = m
        stack.flags.writeable = False
        self.gset, self.dims, self.stack, self._rho = gset, dims, stack, None

    @classmethod
    def _stacked(cls, gset: GSet, dims: dict, stack) -> "EquivariantObject":
        """The object of a stack laid out as above, taken unchecked."""
        obj = cls.__new__(cls)
        stack.flags.writeable = False
        obj.gset, obj.dims, obj.stack, obj._rho = gset, dims, stack, None
        return obj

    @property
    def rho(self) -> Mapping:
        """Read-only ``{g: {s: rho_g[s]}}``, views into ``stack``."""
        if self._rho is None:
            d, act = list(self.dims.values()), self.gset.action.tolist()
            self._rho = MappingProxyType({g: MappingProxyType({
                s: self.stack[p, i, :d[act[p][i]], :d[p]]
                for p, s in enumerate(self.gset.points)})
                for i, g in enumerate(self.group.elements())})
        return self._rho

    @property
    def group(self) -> FiniteAbelianGroup:
        return self.gset.group

    def matrix(self, g, s) -> np.ndarray:
        return self.rho[self.group.reduce(g)][s]

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def conjugate(self, T: Mapping) -> "EquivariantObject":
        """Change basis in every fiber: ``rho'_g[s] = T[s.g] rho_g[s] T[s]^-1``.

        Produces an isomorphic object satisfying the same scalar law: the
        ``T[s]`` zero-padded into one stack for :meth:`_conjugated`.
        """
        Tp = np.zeros((len(self.gset.points), *self.stack.shape[2:]), complex)
        for p, (s, n) in enumerate(self.dims.items()):
            Tp[p, :n, :n] = T[s]
        return self._conjugated(Tp)

    def _conjugated(self, Tp: np.ndarray) -> "EquivariantObject":
        """Conjugate by a stack ``Tp[p]`` of fiber maps, padded with zeros
        or the identity: one batched product, the inverses taken per fiber
        dimension."""
        dims = list(self.dims.values())
        Tinv = np.zeros_like(Tp)
        for n in set(dims):
            at = [p for p, d in enumerate(dims) if d == n]
            Tinv[at, :n, :n] = np.linalg.inv(Tp[at, :n, :n])
        return EquivariantObject._stacked(
            self.gset, self.dims, Tp[self.gset.action] @ self.stack
            @ Tinv[:, None])

    def __repr__(self) -> str:
        return (f"EquivariantObject(dims={self.dims}, "
                f"|G|={self.group.size})")


class LinearizationReport:
    """Outcome of a numerical check: the worst deviation seen and the first
    place it exceeded ``TOL``, if any.  The check passes while no deviation
    exceeds ``TOL``.  Starts empty; unpacks as ``(ok, max_dev, witness)``."""

    __slots__ = ("max_dev", "witness")

    def __init__(self):
        self.max_dev = 0.0
        self.witness = None

    def note(self, dev: float, where) -> None:
        """Record the deviation ``dev`` observed at ``where``; a NaN counts
        as an infinite deviation."""
        if math.isnan(dev):
            dev = math.inf
        if dev > self.max_dev:
            self.max_dev = dev
            if dev > TOL and self.witness is None:
                self.witness = where

    @property
    def ok(self) -> bool:
        return self.max_dev <= TOL

    def __iter__(self):
        return iter((self.ok, self.max_dev, self.witness))

    def __repr__(self) -> str:
        return (f"LinearizationReport(ok={self.ok}, max_dev={self.max_dev:.3g},"
                f" witness={self.witness})")


def _indexed(gset: GSet, phi: GroupCocycleTable):
    """Element order of ``gset``'s group, the sum ``add[i, j]`` of elements
    ``i`` and ``j`` and the twist ``ph[i, j]``; ``ValueError`` when ``phi``
    lives on another group."""
    G = gset.group
    if phi.group != G:
        raise ValueError("twist lives on a different group")
    return list(G.elements()), _add_index(G), phi.values


def check_linearization(obj: EquivariantObject,
                        phi: GroupCocycleTable) -> LinearizationReport:
    """Verify ``rho_{g2}[s.g1] rho_{g1}[s] == phi(g1,g2) rho_{g1+g2}[s]``
    entrywise within ``TOL`` for all group pairs and points; the witness is
    the first violating ``(g1, g2, s)``.

    On the object's stack ``P[s, g]``, each ``g1`` takes one product per
    target point ``t = s.g1``: ``P[t]``, all ``g2`` stacked down its rows,
    times ``rho_{g1}[s]``.  The products of as many ``g1`` as keep their
    differences (the size of ``P`` each) within ``LAW_BATCH_BYTES`` run as
    one batch.  A pass is decided by one max over the deviations as
    computed, per ``(g1, t, g2)``: ``s -> s.g1`` is a bijection, and an
    empty map deviates by exactly 0 while the entries are finite.  Only a
    failure (or a NaN) reorders them by ``(g1, g2, s)`` to locate the
    witness.  ``ValueError`` when ``phi`` lives on another group.
    """
    (elts, add, ph), P = _indexed(obj.gset, phi), obj.stack
    act, points, (k, n, d) = obj.gset.action, obj.gset.points, P.shape[:3]
    src = np.argsort(act, axis=0)  # [t, g]: the point that g moves onto t
    dev, rows = np.empty((n, k, n)), P.reshape(k, n * d, d)
    for i in _batches(n, P.nbytes):
        # [g1, t, g2]: rho_{g2}[t] rho_{g1}[s] - phi(g1, g2) rho_{g1+g2}[s]
        # for g1 = elts[i] and s = src[t, i]
        s = src[:, i].T
        diff = (rows @ P[s, i[:, None]]).reshape(len(i), *P.shape)
        rhs = P[s[..., None], add[i, None]]
        rhs *= ph[i, None, :, None, None]
        diff -= rhs
        dev[i] = np.abs(diff).max(axis=(3, 4), initial=0.0)
    report, worst = LinearizationReport(), dev.max()
    if worst <= TOL:
        report.note(float(worst), None)
        return report
    # [g1, g2, s], back from the target points; an empty map deviates by
    # nothing, even where a NaN met the padding
    dims = np.array([obj.dims[s] for s in points])
    empty = dims[act] * dims[:, None] == 0
    dev = np.where(empty[:, add], 0.0,
                   dev[np.arange(n), act]).transpose(1, 2, 0)
    # the first deviation above TOL (or NaN) is the witness, then the largest
    for j in (np.argmax(~(dev <= TOL)), np.argmax(dev)):
        g1, g2, p = np.unravel_index(j, dev.shape)
        report.note(float(dev[g1, g2, p]), (elts[g1], elts[g2], points[p]))
    return report


def forget(obj: EquivariantObject) -> dict:
    """Underlying graded dimensions, transport data dropped."""
    return dict(obj.dims)


def free(dims: Mapping, phi: GroupCocycleTable,
         gset: GSet) -> EquivariantObject:
    """Induce a twisted-equivariant object from a bare graded space.

    The fiber at ``s`` is the direct sum over group elements ``g'`` of the
    input space at ``s.g'``; the transport for ``g`` sends the summand
    ``g + g'`` of the source identically onto the summand ``g'`` of the
    target, scaled by ``phi(g, g')``.  The transport law for the result
    holds for a given table exactly when that table is a 2-cocycle, which
    makes this both the basic supply of examples and a detector of
    non-cocycles.  ``ValueError`` when ``phi`` lives on another group.
    """
    (_, add, ph), act = _indexed(gset, phi), gset.action
    base = np.array([int(dims.get(s, 0)) for s in gset.points], dtype=int)
    size = base[act]  # [p, j]: the summand of element j in the fiber at p
    offset = np.cumsum(size, axis=1) - size
    total = size.sum(axis=1)
    d = int(total.max())
    stack = np.zeros((*act.shape, d, d), dtype=complex)
    # entry m of summand j of the target t = p.i is entry m of summand
    # i + j of the source p, scaled by phi(i, j)
    p, i, j, m = np.nonzero(np.arange(base.max()) < size[act][..., None])
    stack[p, i, offset[act[p, i], j] + m, offset[p, add[i, j]] + m] = ph[i, j]
    return EquivariantObject._stacked(
        gset, dict(zip(gset.points, total.tolist())), stack)


def _projector_ranks(P: np.ndarray, where: Sequence,
                     total: int = None) -> list:
    """Ranks of a stack of projectors ``P``, each its trace (an idempotent's
    rank).  Raises ``ValueError`` naming ``where[i]`` unless the trace of
    ``P[i]`` is integral and ``max|P^2 - P| <= TOL * max(1, max|P|)``, and,
    given ``total``, unless the ranks sum to it."""
    traces = np.trace(P, axis1=1, axis2=2)
    ranks = np.rint(traces.real)
    idempotent = (np.max(np.abs(P @ P - P), axis=(1, 2), initial=0.0)
                  <= TOL * np.max(np.abs(P), axis=(1, 2), initial=1.0))
    for w, trace, r, ok in zip(where, traces, ranks, idempotent):
        if not abs(trace - r) <= 1e-6:
            raise ValueError(f"non-integral rank {trace:.6g} at {w}")
        if not ok:
            raise ValueError(f"averaging at {w} is no projector")
    ranks = [int(r) for r in ranks]
    if total is not None and sum(ranks) != total:
        raise ValueError(f"projector ranks sum to {sum(ranks)}, not to the "
                         f"dimension {total}")
    return ranks


def _projector_images(P: np.ndarray, where: Sequence,
                      total: int = None) -> tuple:
    """Orthonormal bases of the images of a stack of projectors ``P``, as
    one stack ``W[i]`` zero-padded to the largest rank, and the ranks.

    Each rank ``r`` comes from :func:`_projector_ranks`, and the basis is
    the leading ``r`` left singular vectors.  Raises ``ValueError`` as
    :func:`_projector_ranks` does, or naming ``where[i]`` unless ``P[i]``
    has exactly ``r`` singular values above the cut and fixes the columns
    returned.
    """
    ranks = _projector_ranks(P, where, total)
    try:
        U, svals, _ = np.linalg.svd(P)
        floor = 0.0
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; fall back to the Hermitian
        # spectrum of P P^H.  Squaring costs half the precision, so zero
        # singular values only come out at the root of the eigh noise floor
        # and the cut must sit above it.
        evals, U = np.linalg.eigh(P @ P.conj().swapaxes(-1, -2))
        U, svals = U[..., ::-1], np.sqrt(np.clip(evals[..., ::-1], 0, None))
        floor = float(np.sqrt(np.finfo(float).eps * P.shape[-1]))
    W = U[..., :max(ranks, default=0)].copy()
    for w, p, r, basis, s in zip(where, P, ranks, W, svals):
        cut = max(TOL, floor) * max(1.0, s[0] if len(s) else 1.0)
        basis[:, r:] = 0
        if (np.count_nonzero(s > cut) != r
                or np.max(np.abs(p @ basis - basis), initial=0.0) > cut):
            raise ValueError(f"averaging at {w} is no projector of rank {r}")
    return W, ranks


def _inverse(mats: list, what: str) -> np.ndarray:
    """Inverses of a list of square matrices of one size; ``ValueError``
    naming ``what`` when one is singular or they are not all square."""
    try:
        return np.linalg.inv(np.array(mats))
    except (np.linalg.LinAlgError, ValueError):
        raise ValueError(f"{what} is not invertible") from None


def _deviation(prod: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Per matrix of two stacks: how far ``prod`` is from its projection
    onto the multiples of ``want`` (NaN for a zero ``want``)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        c = (np.einsum("jkl,jkl->j", want.conj(), prod)
             / np.einsum("jkl,jkl->j", want.conj(), want))
    return np.abs(prod - c[:, None, None] * want).max(axis=(1, 2),
                                                      initial=0.0)


def _orbit_walk(a: EquivariantObject, b: EquivariantObject):
    """Per orbit of the G-set of ``a`` and ``b``: its first point ``s``,
    its points in the order the group's elements first reach them, ``b``'s
    and ``a``'s transports out of ``s`` along these elements, then ``None``
    for a trivial stabilizer or a zero fiber at ``s``, else ``b``'s
    transports fixing ``s`` with the inverses of ``a``'s.  The transports
    out of every orbit are gathered from both stacks at once, padded with
    the identity and tested for a zero pivot by one LU factorization.
    Raises ``ValueError`` when the objects live on different G-sets, when a
    transport out of ``s`` or fixing it is singular or joins fibers of two
    dimensions (the first such ``s`` in orbit order is named), or when the
    two follow no common law on the stabilizer: on the direct sum of their
    fibers each ``rho_{h2}[s] rho_{h1}[s]`` must be a scalar multiple of
    ``rho_{h1+h2}[s]``, within ``TOL`` of its largest entry.  On the free
    orbits that is ``rho_0[s] rho_0[s]``, checked for all of them in one
    zero-padded stack.
    """
    gset = a.gset
    if not gset.matches(b.gset):
        raise ValueError("objects live on different G-sets")
    points, fa, fb = gset.points, list(a.dims.values()), list(b.dims.values())
    orbits, P, I = gset.orbits  # the transports out of every orbit at P, I
    # on free orbits, the law on the direct sum of the fibers at rho_0
    # (element 0 is the group's zero)
    free = [p for p, _, stab in orbits if len(stab) == 1 and fa[p] * fb[p]]
    Da, Db = a.stack.shape[2], b.stack.shape[2]
    D = np.zeros((len(free), Da + Db, Da + Db), dtype=complex)
    D[:, :Da, :Da], D[:, Da:, Da:] = a.stack[free, 0], b.stack[free, 0]
    prod = D @ D
    lawful = dict(zip(free, _deviation(prod, D) <= TOL * np.fmax(
        1.0, np.abs(prod).max(axis=(1, 2), initial=0.0))))
    # [0] for a and [1] for b, zero-padded to one size d, then padded with
    # the identity along the diagonal (a view) for one LU of them all; a
    # transport joining fibers of two dimensions is singular too
    d = max(Da, Db)
    M = np.zeros((2, len(P), d, d), dtype=complex)
    M[0, :, :Da, :Da], M[1, :, :Db, :Db] = a.stack[P, I], b.stack[P, I]
    M.reshape(2, len(P), d * d)[..., ::d + 1] += \
        np.arange(d) >= np.array([fa, fb])[:, P][..., None]
    bad = [fa[t] != fa[p] or fb[t] != fb[p] for p, orbit, _ in orbits
           for t in orbit]
    bad = (bad | (np.linalg.slogdet(M)[0] == 0).any(axis=0)).tolist()
    start = 0
    for p, orbit, stab in orbits:
        s, da, db = points[p], fa[p], fb[p]
        out = slice(start, start + len(orbit))
        start = out.stop
        if any(bad[out]):
            raise ValueError(f"a transport out of {s} is not invertible")
        fixing, ok = None, lawful.get(p, True)
        if da * db and len(stab) > 1:
            D = np.zeros((len(stab), da + db, da + db), dtype=complex)
            D[:, :da, :da] = a.stack[p, stab, :da, :da]
            D[:, da:, da:] = b.stack[p, stab, :db, :db]
            D_inv = _inverse(D, f"a transport fixing {s}")
            fixing = D[:, da:, da:], D_inv[:, :da, :da]
            pos, add = {h: k for k, h in enumerate(stab)}, _add_index(a.group)
            for k, h1 in enumerate(stab):
                prod = D @ D[k]  # [j]: rho_{h2} rho_{h1} for h2 = stab[j]
                want = D[[pos[h] for h in add[h1, stab].tolist()]]
                ok = ok and (_deviation(prod, want).max()
                             <= TOL * max(1.0, np.abs(prod).max()))
        if not ok:
            raise ValueError(f"averaging at {s} is no projector: "
                             f"the two laws differ on its stabilizer")
        yield (s, [points[t] for t in orbit], M[1, out, :db, :db],
               M[0, out, :da, :da], fixing)


def hom_space(a: EquivariantObject, b: EquivariantObject) -> list[dict]:
    """Basis of the maps commuting with the twisted transports.

    Solves ``chi[s.g] rho^a_g[s] == rho^b_g[s] chi[s]`` for families of
    matrices ``chi[s]: fiber_a(s) -> fiber_b(s)``; any common scalar twist
    cancels between the two sides, so this is meaningful whenever ``a`` and
    ``b`` satisfy the same law.  A solution is fixed on each orbit by its
    value at one point ``s``, which need only commute with the transports
    of the stabilizer of ``s``: it lies in the image of the projector that
    averages ``chi -> rho^b_h[s] chi rho^a_h[s]^-1`` over the stabilizer.
    Transport gives the rest, ``chi[s.g] = rho^b_g[s] chi[s]
    rho^a_g[s]^-1`` (Frobenius reciprocity).  ``a``'s transports out of
    every orbit are inverted in one call per shape, after the walk.
    Returns Frobenius-orthonormal basis families, one QR per orbit.  Raises
    ``ValueError`` as :func:`_orbit_walk` does, or when the average is not
    a projector.
    """
    walked, shapes = [], {}
    for s, orbit, rho_b, rho_a, fixing in _orbit_walk(a, b):
        da, db = a.dims[s], b.dims[s]
        if not da * db:
            continue
        if fixing is not None:
            rb, ra_inv = fixing
            # chi -> rb chi ra^-1 averaged over the stabilizer projects onto
            # the solutions, the scalars of the one law cancelling; chi is
            # vectorized row-major
            P = np.einsum("hij,hlk->ikjl", rb, ra_inv) / len(rb)
            sol = _projector_images(P.reshape(1, db * da, -1), [s])[0][0].T
        else:
            sol = np.eye(db * da)
        shapes.setdefault(rho_a.shape, []).append(len(walked))
        walked.append((orbit, sol.reshape(-1, 1, db, da), rho_b, rho_a))
    inverse = {}
    for at in shapes.values():
        inverse.update(zip(at, np.linalg.inv(np.array(
            [walked[k][3] for k in at]))))
    out = []
    for k, (orbit, chi, rho_b, _) in enumerate(walked):
        (db, da), moved = chi.shape[2:], rho_b @ chi @ inverse[k]
        q, _ = np.linalg.qr(moved.reshape(len(chi), len(orbit) * db * da).T)
        for fam in q.T.reshape(-1, len(orbit), db, da):
            at = dict(zip(orbit, fam))
            out.append({p: at[p] if p in at else np.zeros(
                (b.dims[p], a.dims[p]), dtype=complex) for p in a.gset.points})
    return out


def hom_dim(a: EquivariantObject, b: EquivariantObject) -> int:
    """Dimension of :func:`hom_space`, counted without building a basis.

    Each orbit adds the trace of the stabilizer average at its
    representative ``s``, ``(1/|Stab s|) sum_h tr rho^b_h[s]
    tr(rho^a_h[s]^-1)``; a free orbit adds the product of the two fiber
    dimensions at ``s``.  Raises ``ValueError`` as :func:`_orbit_walk`
    does (different G-sets, a singular transport, laws that differ on a
    stabilizer), or when a trace is not integral.
    """
    total = 0
    for s, _, _, _, fixing in _orbit_walk(a, b):
        if fixing is None:
            total += a.dims[s] * b.dims[s]
            continue
        rb, ra_inv = fixing
        trace = (np.trace(rb, axis1=1, axis2=2)
                 @ np.trace(ra_inv, axis1=1, axis2=2)) / len(rb)
        rank = round(trace.real)
        if not abs(trace - rank) <= 1e-6:
            raise ValueError(f"non-integral hom dimension {trace:.6g} at {s}")
        total += rank
    return total


def retwist(obj: EquivariantObject, alpha: Mapping) -> EquivariantObject:
    """Rescale each transport by a scalar of its group element:
    ``rho'_g = alpha(g) rho_g``.

    If ``obj`` satisfies the law for ``phi`` then the result satisfies it
    for ``phi.twisted_by(alpha)``; objects of cohomologous twists are
    exactly the retwists of each other.
    """
    scale = np.array([alpha[g] for g in obj.group.elements()], dtype=complex)
    return EquivariantObject._stacked(obj.gset, obj.dims,
                                      obj.stack * scale[:, None, None])


# ---------------------------------------------------------------------------
# the twisted function algebra and its modules

class TwistedAlgebra:
    """Functions on a finite set valued in a twisted group algebra.

    Basis vectors are pairs ``(s, g)``; the product is pointwise in ``s``
    and ``phi``-twisted in ``g``:

        e_(s,g1) e_(s',g2) = 0 if s != s' else phi(g1,g2) e_(s, g1+g2).

    With the trivial twist this is the commutative algebra of functions on
    ``S x G``; a nondegenerate twist at a point gives a matrix algebra.
    ``phi`` must be a 2-cocycle, which makes the product associative and
    lets the invariants below be read off the twist.
    """

    __slots__ = ("points", "group", "phi", "basis")

    def __init__(self, points: Sequence, group: FiniteAbelianGroup,
                 phi: GroupCocycleTable):
        if phi.group != group:
            raise ValueError("twist lives on a different group")
        ok, witness = phi.check()
        if not ok:
            raise ValueError(f"twist is not a 2-cocycle at {witness}")
        self.points = tuple(points)
        self.group = group
        self.phi = phi
        self.basis = [(s, g) for s in self.points for g in group.elements()]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def product_on_basis(self, k1, k2):
        """``(coefficient, basis key)`` of the product, or ``None`` when the
        points differ."""
        (s1, g1), (s2, g2) = k1, k2
        if s1 != s2:
            return None
        return self.phi(g1, g2), (s1, self.group.add(g1, g2))

    def multiply(self, x: Mapping, y: Mapping) -> dict:
        out: dict = {}
        for k1, c1 in x.items():
            for k2, c2 in y.items():
                hit = self.product_on_basis(k1, k2)
                if hit is None:
                    continue
                coeff, key = hit
                out[key] = out.get(key, 0j) + coeff * c1 * c2
        return {k: v for k, v in out.items() if v != 0}

    def _radical_size(self) -> int:
        """Number of ``g`` with ``phi(g, h) = phi(h, g)`` for every ``h``.
        The commutator ``phi(g, h) / phi(h, g)`` of a 2-cocycle is a
        bicharacter, so its values are roots of unity of order dividing the
        group exponent ``L``, at least ``2 sin(pi/L)`` apart from 1."""
        phi = self.phi.values
        return int(np.count_nonzero(
            np.all(np.abs(phi / phi.T - 1) <= TOL, axis=1)))

    def is_commutative(self) -> bool:
        return self._radical_size() == self.group.size

    def center_dim(self) -> int:
        """Dimension of the center: ``sum_g c_g e_(s,g)`` commutes with
        ``e_(s,h)`` exactly when ``c_g (phi(g, h) - phi(h, g)) = 0``, so the
        center is spanned by the ``e_(s,g)`` with ``g`` in the radical of
        the commutator, at every point."""
        return len(self.points) * self._radical_size()

    def __repr__(self) -> str:
        return (f"TwistedAlgebra({len(self.points)} points, "
                f"G={list(self.group.factors)}, dim={self.dim})")


def twisted_algebra(points: Sequence, phi: GroupCocycleTable) -> TwistedAlgebra:
    return TwistedAlgebra(points, phi.group, phi)


def to_module(obj: EquivariantObject) -> dict:
    """Collect a trivial-action object into per-point matrix families.

    The family at each point is a (right) module over the twisted algebra
    on that point set; requires the underlying action to be trivial.
    """
    if (obj.gset.action.T != np.arange(len(obj.gset.points))).any():
        raise ValueError("to_module needs a trivial underlying action")
    return {s: {g: obj.matrix(g, s).copy() for g in obj.group.elements()}
            for s in obj.gset.points}


def from_module(group: FiniteAbelianGroup, data: Mapping) -> EquivariantObject:
    """Rebuild a trivial-action object from per-point matrix families; the
    constructor refuses a matrix that is not square of the size of its
    family's matrix at zero."""
    points = tuple(sorted(data))
    dims = {s: len(np.atleast_1d(data[s][group.zero()])) for s in points}
    return EquivariantObject(GSet.trivial(group, points), dims, {
        g: {s: data[s][g] for s in points} for g in group.elements()})
