"""Finite-lattice duality data for cocycles at a root of unity.

From the antisymmetrized exponent matrix of a
:class:`~nctorus.cocycle.BilinearCocycle` this module computes, in exact
integer/rational arithmetic:

* the sublattice of exponents whose phases commute with everything
  (:func:`compute_H_hat`, by one Hermite form),
* the finite quotient it cuts out, presented as a direct sum of cyclic
  groups with an explicit section (:func:`compute_K_hat`),
* a representative of the cocycle on that quotient whose ``sharp`` map
  into the character group is a bijection (:func:`descend_cocycle`,
  :func:`lambda_sharp`).

Smith normal form is implemented here because the unimodular transform
matrices are part of the contract, not just the diagonal.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterator, Sequence

import numpy as np

from .cocycle import BilinearCocycle, Phase

Vec = tuple[int, ...]


# ---------------------------------------------------------------------------
# integer linear algebra helpers (pure Python ints; matrices as row tuples)

def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _matvec(rows: Sequence[Sequence[int]], t: Sequence[int]) -> list[int]:
    return [sum(a * b for a, b in zip(row, t)) for row in rows]


def _triangular_solve(rows: Sequence[Sequence[int]],
                      rhs: Sequence[int]) -> list[int] | None:
    """Integer solution of ``rows . x = rhs`` for a lower-triangular ``rows``
    with positive diagonal (a :func:`_hermite_columns` basis), by forward
    substitution; ``None`` when ``rhs`` is not in the span of the columns."""
    x: list[int] = []
    for row, r in zip(rows, rhs):
        q, rem = divmod(r - sum(a * b for a, b in zip(row, x)), row[len(x)])
        if rem:
            return None
        x.append(q)
    return x


def _smith_rows(A: Sequence[Sequence[int]]):
    """:func:`smith_normal_form` with ``D``, ``U`` and ``V`` returned as
    lists of Python-int rows, so entries of any size stay exact, followed
    by ``U``'s inverse: every row operation on ``U`` is matched by the
    inverse column operation on it."""
    M = [[int(x) for x in row] for row in A]
    m = len(M)
    n = len(M[0]) if m else 0
    if any(len(row) != n for row in M):
        raise ValueError("ragged matrix")
    U = _identity(m)
    Uinv = _identity(m)
    V = _identity(n)

    def swap_rows(a, b):
        M[a], M[b] = M[b], M[a]
        U[a], U[b] = U[b], U[a]
        for row in Uinv:
            row[a], row[b] = row[b], row[a]

    def swap_cols(a, b):
        for row in M:
            row[a], row[b] = row[b], row[a]
        for row in V:
            row[a], row[b] = row[b], row[a]

    def add_row(dst, src, q):  # row_dst += q * row_src
        M[dst] = [x + q * y for x, y in zip(M[dst], M[src])]
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]
        for row in Uinv:  # col_src -= q * col_dst
            row[src] -= q * row[dst]

    def add_col(dst, src, q):
        for row in M:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    t = 0
    size = min(m, n)
    while t < size:
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                v = M[i][j]
                if v and (pivot is None or abs(v) < abs(M[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = False
        for i in range(t + 1, m):
            if M[i][t]:
                add_row(i, t, -(M[i][t] // M[t][t]))
                if M[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if M[t][j]:
                add_col(j, t, -(M[t][j] // M[t][t]))
                if M[t][j]:
                    dirty = True
        if dirty:
            continue
        p = M[t][t]
        stain = next(((i, j) for i in range(t + 1, m) for j in range(t + 1, n)
                      if M[i][j] % p), None)
        if stain is not None:
            add_row(t, stain[0], 1)
            continue
        t += 1
    for i in range(size):
        if M[i][i] < 0:
            M[i] = [-x for x in M[i]]
            U[i] = [-x for x in U[i]]
            for row in Uinv:
                row[i] = -row[i]
    return M, U, V, Uinv


def smith_normal_form(A: Sequence[Sequence[int]]):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns ``(D, U, V)`` as int64 arrays with ``U @ A @ V == D``, ``U`` and
    ``V`` unimodular, and ``D`` diagonal with nonnegative entries each
    dividing the next.  Raises ``ValueError`` when an entry leaves int64.
    """
    try:
        return tuple(np.array(X, dtype=np.int64) for X in _smith_rows(A)[:3])
    except OverflowError:
        raise ValueError("Smith form has an entry outside int64") from None


def _hermite_columns(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Column-style Hermite form of an integer matrix whose columns span a
    full-rank lattice: returns the square lower-triangular basis with
    positive diagonal and reduced entries left of it."""
    r = len(rows)
    M = [list(map(int, row)) for row in rows]
    k = len(M[0]) if M else 0

    def add_col(dst, src, q):
        for row in M:
            row[dst] += q * row[src]

    for i in range(r):
        while True:
            cols = [j for j in range(i, k) if M[i][j]]
            if not cols:
                raise ValueError("columns do not span a full-rank lattice")
            j0 = min(cols, key=lambda j: abs(M[i][j]))
            if j0 != i:
                for row in M:
                    row[i], row[j0] = row[j0], row[i]
            done = True
            for j in range(i + 1, k):
                if M[i][j]:
                    add_col(j, i, -(M[i][j] // M[i][i]))
                    if M[i][j]:
                        done = False
            if done:
                break
        if M[i][i] < 0:
            for row in M:
                row[i] = -row[i]
        for j in range(i):
            q = M[i][j] // M[i][i]
            if q:
                add_col(j, i, -q)
    return [[M[i][j] for j in range(r)] for i in range(r)]


# ---------------------------------------------------------------------------
# finite abelian groups

class FiniteAbelianGroup:
    """Direct sum ``Z/d_1 + ... + Z/d_r`` with exact character pairing.

    Elements are coordinate tuples reduced modulo the factors.  The
    character group is identified with the group itself through ``pairing``,
    the table of the standard form ``diag(L/d_i)`` over
    ``L = lcm(d_1, ..., d_r)``: ``(x, chi)`` goes to ``sum_i x_i chi_i / d_i``.
    The first :meth:`elements` call caches the elements, their index, the
    map ``id(x) -> index`` and the ``L`` phases ``n / L``.  From then on the
    element tuples are the group's own: :meth:`reduce`, :meth:`add`,
    :meth:`neg` and :meth:`scale` return them, and a query takes ``x`` as
    it is when ``id(x)`` is in that map.  That is sound because the group
    keeps its own tuples alive, and it pickles and copies as its factors.
    Any other argument, an equal tuple too, is counted and its coordinates
    pass ``operator.index``, so a float or ``Fraction`` raises ``TypeError``
    on every group.  A group never enumerated (such as a quotient of order
    ``2**64``) builds no cache and reduces each exponent into a new ``Phase``.
    Its :func:`_add_index`, once built, is kept and not pickled either.
    """

    __slots__ = ("factors", "exponent", "_weights", "_diag", "_elements",
                 "_index", "_ids", "_roots", "_chars", "_add")

    def __init__(self, factors: Sequence[int]):
        fs = tuple(int(d) for d in factors)
        if any(d < 1 for d in fs):
            raise ValueError("cyclic factors must be positive")
        self.factors = fs
        self.exponent = math.lcm(*fs)
        self._weights = tuple(self.exponent // d for d in fs)
        self._diag = [[w * (i == j) for j in range(len(fs))]
                      for i, w in enumerate(self._weights)]
        self._elements = self._index = self._roots = self._add = None
        self._ids, self._chars = {}, {}  # _chars: kept rows of the pairing

    def __reduce__(self):
        return FiniteAbelianGroup, (self.factors,)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def size(self) -> int:
        return math.prod(self.factors)

    def zero(self) -> Vec:
        return (0,) * len(self.factors)

    def _ints(self, x: Sequence[int]) -> Sequence[int]:
        """``x`` if it is one of the group's own tuples, else a list of its
        coordinates, counted and passed through ``operator.index``."""
        if id(x) in self._ids:
            return x
        if len(x) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} coordinates")
        return list(map(operator.index, x))

    def _own(self, x: Vec) -> Vec:
        """The group's own tuple equal to the reduced tuple ``x``, if any."""
        return x if self._index is None else self._elements[self._index[x]]

    def _row(self, E, rows: dict, x: Sequence[int]) -> list[int]:
        """The row ``x . E mod L`` of an integer matrix ``E``: kept in
        ``rows`` under the position of an own ``x``, computed for any other."""
        i = self._ids.get(id(x))
        row = rows.get(i)
        if row is None:
            x, L = self._ints(x), self.exponent
            row = [sum(map(operator.mul, x, col)) % L for col in zip(*E)]
            if i is not None:
                rows[i] = row
        return row

    def reduce(self, x: Sequence[int]) -> Vec:
        x = self._ints(x)  # a tuple only when it is the group's own
        return x if type(x) is tuple else self._own(
            tuple(map(operator.mod, x, self.factors)))

    def add(self, x: Sequence[int], y: Sequence[int]) -> Vec:
        return self.reduce(list(map(operator.add, self.reduce(x),
                                    self.reduce(y))))

    def neg(self, x: Sequence[int]) -> Vec:
        return self.scale(-1, x)

    def scale(self, n: int, x: Sequence[int]) -> Vec:
        return self.reduce([n * a for a in self.reduce(x)])

    def elements(self) -> Iterator[Vec]:
        if self._elements is None:
            self._elements = tuple(
                itertools.product(*(range(d) for d in self.factors)))
            self._index = {x: i for i, x in enumerate(self._elements)}
            L = self.exponent
            self._roots = tuple(Phase._reduced(n, L) for n in range(L))
            self._ids = {id(x): i for i, x in enumerate(self._elements)}
        return iter(self._elements)

    def generators(self) -> list[Vec]:
        """One standard generator per cyclic factor."""
        return [tuple(int(i == j) for i in range(self.rank))
                for j in range(self.rank)]

    def pairing(self, x: Sequence[int], chi: Sequence[int]) -> Phase:
        # unreduced is fine: x_i -> x_i + d_i adds chi_i * L to the sum
        ids = self._ids
        row = self._chars.get(ids.get(id(chi)))
        if row is not None and id(x) in ids:
            return self._roots[sum(map(operator.mul, row, x)) % self.exponent]
        return self._root(sum(map(operator.mul, self._ints(x),
                                  self._row(self._diag, self._chars, chi))))

    def _root(self, e: int) -> Phase:
        """The phase ``e / L``, from the roots table once enumerated."""
        return (Phase._reduced(e, self.exponent) if self._roots is None
                else self._roots[e % self.exponent])

    def random_element(self, rng: np.random.Generator) -> Vec:
        return tuple(int(rng.integers(0, d)) for d in self.factors)

    def __iter__(self) -> Iterator[Vec]:
        return self.elements()

    def __len__(self) -> int:
        return self.size

    def __contains__(self, x) -> bool:
        try:
            seq = tuple(map(operator.index, x))
        except TypeError:
            return False
        return len(seq) == len(self.factors) and all(
            0 <= a < d for a, d in zip(seq, self.factors))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteAbelianGroup):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup({list(self.factors)})"


class GroupBilinearTable:
    """Bimultiplicative phase pairing on a finite abelian group.

    Stored as the matrix of values on the standard generators and extended
    by bilinearity; construction validates that each ``omega[i][j]`` has
    order dividing both generator orders so the extension is well defined.
    Evaluation runs in integer exponents over the group exponent
    ``L = lcm(factors)``: the validated orders make every ``omega[i][j] * L``
    an integer, and ``table(x, y)`` is ``(x . E mod L) . y / L`` for that
    integer matrix ``E``.  The row ``x . E mod L`` of each of the group's
    own tuples is kept once computed: ``O(|G| rank)`` ints.
    """

    __slots__ = ("group", "omega", "_E", "_rows")

    def __init__(self, group: FiniteAbelianGroup, omega):
        r = group.rank
        rows = []
        for row in omega:
            rows.append(tuple(w if isinstance(w, Phase) else Phase(w)
                              for w in row))
        if len(rows) != r or any(len(row) != r for row in rows):
            raise ValueError(f"omega must be {r}x{r}")
        for i in range(r):
            for j in range(r):
                w = rows[i][j]
                if group.factors[i] * w != Phase.zero() \
                        or group.factors[j] * w != Phase.zero():
                    raise ValueError(
                        f"omega[{i}][{j}] = {w} has order incompatible with "
                        f"the generator orders")
        self.group = group
        self.omega = tuple(rows)
        L = group.exponent
        self._E = tuple(tuple(w.n * (L // w.d) for w in row) for row in rows)
        self._rows = {}

    @classmethod
    def trivial(cls, group: FiniteAbelianGroup) -> "GroupBilinearTable":
        z = Phase.zero()
        return cls(group, [[z] * group.rank for _ in range(group.rank)])

    def __call__(self, x: Sequence[int], y: Sequence[int]) -> Phase:
        # unreduced is fine: d_i * E[i][j] and d_j * E[i][j] are 0 mod L
        G = self.group
        ids = G._ids
        row = self._rows.get(ids.get(id(x)))
        if row is not None and id(y) in ids:
            return G._roots[sum(map(operator.mul, row, y)) % G.exponent]
        return G._root(sum(map(operator.mul, G._row(self._E, self._rows, x),
                               G._ints(y))))

    def antisymmetrized(self) -> "GroupBilinearTable":
        r = self.group.rank
        return GroupBilinearTable(
            self.group,
            [[self.omega[i][j] - self.omega[j][i] for j in range(r)]
             for i in range(r)])

    def as_dict(self) -> dict:
        return {"factors": list(self.group.factors),
                "omega": [[str(w) for w in row] for row in self.omega]}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupBilinearTable):
            return NotImplemented
        return self.group == other.group and self.omega == other.omega

    def __repr__(self) -> str:
        return (f"GroupBilinearTable({self.group!r}, "
                f"{[[str(w) for w in row] for row in self.omega]})")


def _add_index(group: FiniteAbelianGroup) -> np.ndarray:
    """``[i, j]``: the index of the sum of elements ``i`` and ``j``, a
    read-only array that the group keeps from the first call on."""
    if group._add is None:
        X = np.indices(group.factors).reshape(group.rank, group.size)
        group._add = np.ravel_multi_index(
            X[:, :, None] + X[:, None], group.factors,
            mode="wrap").reshape(group.size, group.size)
        group._add.flags.writeable = False
    return group._add


def _phase_matrix(group: FiniteAbelianGroup, E) -> np.ndarray:
    """Embedded values ``x . E . y / L`` of an integer matrix ``E``, rows
    ``x`` and columns ``y`` in element order: the ``L`` roots indexed by the
    exponent matrix ``(X E X^T) mod L`` of the element array ``X``, reduced
    after each product.  ``E = table._E`` embeds a
    :class:`GroupBilinearTable` bit for bit, ``diag(L / d_i)`` the pairing."""
    X = np.indices(group.factors).reshape(group.rank, group.size).T
    L = group.exponent
    roots = np.array([group._root(n).embed() for n in range(L)])
    E = np.array(E, dtype=np.int64).reshape(group.rank, group.rank)
    return roots[X @ E % L @ X.T % L]


# ---------------------------------------------------------------------------
# the commutant sublattice and its quotient

class SublatticeBasis:
    """Finite-index sublattice of Z^g given by the columns of a basis matrix.

    The basis is put into column Hermite form on construction, so two equal
    sublattices compare equal no matter which generating basis was passed.
    """

    __slots__ = ("g", "N", "rows", "index")

    def __init__(self, rows: Sequence[Sequence[int]], N: int):
        g = len(rows)
        if any(len(row) != g for row in rows):
            raise ValueError("basis matrix must be square")
        canon = _hermite_columns(rows)
        self.rows = tuple(tuple(row) for row in canon)
        self.g = g
        self.N = int(N)
        self.index = math.prod(canon[i][i] for i in range(g))

    def columns(self) -> list[Vec]:
        return [tuple(self.rows[i][j] for i in range(self.g))
                for j in range(self.g)]

    def contains(self, t: Sequence[int]) -> bool:
        """Membership by integer forward substitution in the triangular
        Hermite basis."""
        if len(t) != self.g:
            raise ValueError(f"expected a length-{self.g} vector")
        return _triangular_solve(self.rows, t) is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SublatticeBasis):
            return NotImplemented
        return self.N == other.N and self.rows == other.rows

    def __repr__(self) -> str:
        return f"SublatticeBasis({[list(r) for r in self.rows]}, N={self.N})"


def compute_H_hat(Lam: Sequence[Sequence[int]], N: int) -> SublatticeBasis:
    """Sublattice of exponent vectors commuting with everything.

    Solves ``Lam . t == 0 (mod N)`` for an integer matrix ``Lam`` that is
    antisymmetric modulo ``N`` (typically an
    :meth:`~nctorus.cocycle.BilinearCocycle.antisymmetrized` table).  The
    result always contains ``N Z^g``, and its index in ``Z^g`` is the size
    of the finite quotient computed by :func:`compute_K_hat`.

    The solutions are read off one Hermite form: the columns
    ``(Lam t + N s, t)`` of ``Z^2g`` with a zero top half are the ``(0, t)``
    for the solutions ``t``, and the column Hermite form puts a basis of
    them in its last ``g`` columns.
    """
    N = int(N)
    if N < 1:
        raise ValueError("N must be positive")
    L = [[int(x) % N for x in row] for row in Lam]
    g = len(L)
    if any(len(row) != g for row in L):
        raise ValueError("Lam must be square")
    for i in range(g):
        for j in range(g):
            if (L[i][j] + L[j][i]) % N:
                raise ValueError("Lam must be antisymmetric modulo N")
    top = [row + [N * (i == j) for j in range(g)] for i, row in enumerate(L)]
    canon = _hermite_columns(top + [row + [0] * g for row in _identity(g)])
    return SublatticeBasis([row[g:] for row in canon[g:]], N)


def _cyclic_factors(relations: Sequence[Sequence[int]]):
    """Smith-reduce a square relation matrix whose columns span a full-rank
    lattice.  ``Z^g`` modulo that span is the sum of ``Z/d_i`` over the
    diagonal entries ``d_i > 1``: row ``U[i] . t`` gives coordinate ``i``
    of ``t``, and column ``i`` of ``U``'s inverse lifts generator ``i``.

    Returns ``(group, kept_rows, lifts)``; ``kept_rows`` pairs ``(U[i], d_i)``.
    """
    D, U, _, Uinv = _smith_rows(relations)
    kept = [i for i in range(len(D)) if D[i][i] > 1]
    lifts = [tuple(row[i] for row in Uinv) for i in kept]
    return (FiniteAbelianGroup([D[i][i] for i in kept]),
            [(U[i], D[i][i]) for i in kept], lifts)


class QuotientPresentation:
    """``Z^g`` modulo a finite-index sublattice, as a sum of cyclic groups.

    ``project`` maps exponent vectors onto quotient coordinates and
    ``lift`` is an explicit section of it; the lifts of the quotient
    generators are stored in ``lifts``.  The arguments after
    ``sublattice`` are those :func:`_cyclic_factors` returns.  Once
    ``group`` is enumerated, ``project`` returns its own tuples and ``lift``
    keeps the lift of each: ``O(|G| g)`` ints.
    """

    __slots__ = ("sublattice", "group", "lifts", "_kept_rows", "_lift_rows",
                 "_lifted")

    def __init__(self, sublattice, group, kept_rows, lifts):
        self.sublattice = sublattice
        self.group = group
        self.lifts = lifts
        self._kept_rows = kept_rows
        self._lift_rows = list(zip(*lifts)) if lifts else [()] * sublattice.g
        self._lifted = {}

    def project(self, t: Sequence[int]) -> Vec:
        if len(t) != self.sublattice.g:
            raise ValueError(f"expected a length-{self.sublattice.g} vector")
        t = list(map(operator.index, t))
        return self.group._own(tuple(sum(map(operator.mul, row, t)) % d
                                     for row, d in self._kept_rows))

    def lift(self, k: Sequence[int]) -> Vec:
        i = self.group._ids.get(id(k))
        v = self._lifted.get(i)
        if v is None:
            k = self.group.reduce(k)
            v = tuple(sum(map(operator.mul, row, k)) for row in self._lift_rows)
            if i is not None:
                self._lifted[i] = v
        return v

    def __repr__(self) -> str:
        return (f"QuotientPresentation(factors={list(self.group.factors)}, "
                f"of {self.sublattice!r})")


def compute_K_hat(sub: SublatticeBasis) -> QuotientPresentation:
    """Present ``Z^g`` modulo the given sublattice as cyclic factors."""
    return QuotientPresentation(sub, *_cyclic_factors(sub.rows))


def descend_cocycle(lam: BilinearCocycle,
                    quo: QuotientPresentation) -> GroupBilinearTable:
    """Represent a bilinear cocycle on the finite quotient of its lattice.

    First checks the descent obstruction: the antisymmetrization must pair
    the sublattice trivially against everything (automatic when ``quo`` was
    built from this cocycle's own commutant).  The representative returned
    is triangular on the quotient generators -- generator pairs ``i < j``
    carry the pairing of their lifts, each diagonal entry is a primitive
    root of that generator's order, and entries below the diagonal are
    trivial.  Its antisymmetrization is the descended pairing of
    ``lam.antisymmetrized()``, and the primitive diagonal guarantees that
    :func:`lambda_sharp` is a bijection.
    """
    A = lam.antisymmetrized()
    N = lam.N
    if quo.sublattice.g != lam.g:
        raise ValueError("quotient and cocycle rank differ")
    if quo.sublattice.N != N:
        raise ValueError("quotient and cocycle root order differ")
    for col in quo.sublattice.columns():
        img = _matvec(A, col)
        if any(x % N for x in img):
            raise ValueError(
                f"cocycle does not descend: basis vector {col} pairs "
                f"nontrivially")
    factors = quo.group.factors
    r = len(factors)
    omega = [[Phase.zero()] * r for _ in range(r)]
    for i in range(r):
        omega[i][i] = Phase(1, factors[i])
        for j in range(i + 1, r):
            pair = sum(a * x for a, x in zip(_matvec(A, quo.lifts[j]),
                                             quo.lifts[i]))
            omega[i][j] = Phase(pair, N)
    return GroupBilinearTable(quo.group, omega)


class DualPairData:
    """A pairing on a finite abelian group together with its inverted form.

    ``sharp`` sends each element to the character it pairs with (encoded in
    the same coordinate tuples through the standard pairing), ``flat`` is
    the inverse bijection, and :meth:`dual_pairing` transports the pairing
    to the character side.
    """

    __slots__ = ("group", "lam", "sharp", "flat")

    def __init__(self, group, lam, sharp, flat):
        self.group = group
        self.lam = lam
        self.sharp = sharp
        self.flat = flat

    def dual_pairing(self, k1: Sequence[int], k2: Sequence[int]) -> Phase:
        """The pairing seen from the character side."""
        k1 = self.group.reduce(k1)
        k2 = self.group.reduce(k2)
        return self.lam(self.flat[k1], self.flat[k2])

    def __repr__(self) -> str:
        return f"DualPairData(group={self.group!r})"


def lambda_sharp(table: GroupBilinearTable) -> DualPairData:
    """Invert a pairing: each element's row becomes a character.

    ``sharp(x)`` is the character ``y -> table(x, y)``.  Raises
    ``ValueError`` when the pairing is degenerate, i.e. when two elements
    induce the same character.  Tables built by :func:`descend_cocycle`
    never are, thanks to their primitive diagonal.
    """
    group = table.group
    # The character of x has coordinate (x . E mod L)_j / (L / d_j) on
    # generator j; the table's order validation makes every E[i][j]
    # divisible by L / d_j.
    sharp = {x: group._own(tuple(map(operator.floordiv, group._row(
                 table._E, table._rows, x), group._weights)))
             for x in group.elements()}
    if len(set(sharp.values())) != group.size:
        raise ValueError("pairing is degenerate: sharp is not a bijection")
    flat = {v: k for k, v in sharp.items()}
    return DualPairData(group, table, sharp, flat)


# ---------------------------------------------------------------------------
# subgroups of finite abelian groups

class SubgroupPresentation:
    """A subgroup of a finite abelian group, presented abstractly.

    ``group`` carries the subgroup's own cyclic factors; :meth:`embed` maps
    abstract coordinates into the ambient group and :meth:`restrict` maps
    ambient members of the subgroup back.  ``elements`` lists the subgroup
    inside the ambient group in sorted order.

    In the coordinates of the Hermite ``basis`` of its integer lifts the
    subgroup is ``Z^r`` modulo the ambient relations, which ``quotient``
    presents.
    """

    __slots__ = ("ambient", "group", "elements", "_basis", "_quotient")

    def __init__(self, ambient: FiniteAbelianGroup, basis,
                 quotient: QuotientPresentation):
        self.ambient = ambient
        self.group = quotient.group
        self._basis = basis
        self._quotient = quotient
        self.elements = tuple(sorted(map(self.embed, self.group.elements())))

    def embed(self, k: Sequence[int]) -> Vec:
        return self.ambient.reduce(_matvec(self._basis, self._quotient.lift(k)))

    def restrict(self, x: Sequence[int]) -> Vec:
        x = self.ambient.reduce(x)
        sol = _triangular_solve(self._basis, x)
        if sol is None:
            raise ValueError(f"{x} is not in the subgroup")
        return self._quotient.project(sol)

    def __repr__(self) -> str:
        return (f"SubgroupPresentation(factors={list(self.group.factors)} "
                f"inside {self.ambient!r})")


def subgroup_presentation(G: FiniteAbelianGroup,
                          gens: Sequence[Sequence[int]]) -> SubgroupPresentation:
    """Present the subgroup of ``G`` generated by ``gens``.

    The presentation is computed from the lattice of integer lifts: the
    subgroup is the span of the generator lifts plus the relation lattice of
    ``G``, modulo those relations, which :func:`_cyclic_factors` turns into
    cyclic factors with explicit coordinate maps in both directions.
    """
    r = G.rank
    rels = [tuple(d * int(i == j) for i in range(r))
            for j, d in enumerate(G.factors)]
    cols = [G.reduce(g) for g in gens] + rels
    basis = _hermite_columns([[col[i] for col in cols] for i in range(r)])
    # the relation vectors are among the spanning columns, so each solves
    rel_cols = [_triangular_solve(basis, rel) for rel in rels]
    relations = [[col[i] for col in rel_cols] for i in range(r)]
    quotient = QuotientPresentation(SublatticeBasis(relations, G.exponent),
                                    *_cyclic_factors(relations))
    return SubgroupPresentation(G, basis, quotient)
