"""Exact root-of-unity phases and 2-cocycles on integer lattices.

A :class:`Phase` stores the exponent of ``e^{2*pi*i*n/d}`` as the reduced
integer pair ``(n, d)``, ``0 <= n < d``, so root-of-unity identities can be
tested with ``==`` instead of floating-point tolerances, and phase
arithmetic stays in Python ints; the rational exponent ``Phase.q`` is
derived from the pair, and complex numbers enter only through
:meth:`Phase.embed`.

The cocycles of interest are the commutation data of quantum tori at a root
of unity: ``lambda(s, t) = zeta_N ** (s . M t)`` for an integer matrix ``M``
(:class:`BilinearCocycle`).  Only the antisymmetrization ``M - M^T`` survives
modulo coboundaries; :func:`bounding_cochain` produces the explicit quadratic
cochain realizing that, and :func:`normal_order_representative` picks the
canonical lower-triangular representative of a class.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

Vec = tuple[int, ...]


def _vadd(s: Sequence[int], t: Sequence[int]) -> Vec:
    return tuple(a + b for a, b in zip(s, t))


def _reduce_pair(n: int, d: int) -> tuple[int, int]:
    """``(n, d)`` for ints with ``d > 0`` -> ``(n', d')``, ``0 <= n' < d'``,
    ``gcd(n', d') == 1``, ``n'/d' == n/d mod 1``."""
    n %= d
    g = math.gcd(n, d)
    return n // g, d // g


class Phase:
    """A root of unity ``e^{2*pi*i*n/d}`` stored as its reduced exponent.

    The exponent is kept as the integer pair ``(n, d)`` with ``0 <= n < d``
    and ``gcd(n, d) == 1``, so root-of-unity identities can be tested with
    ``==`` on the pair instead of floating-point tolerances; read ``n`` and
    ``d``, never assign them.  ``q`` is the same exponent as a ``Fraction``
    in ``[0, 1)``, and ``order()`` is ``d``.

    Phases form an additive group mirroring multiplication of the underlying
    complex numbers: ``Phase(1, 4) + Phase(1, 4) == Phase(1, 2)`` just as
    ``i * i == -1``.
    """

    __slots__ = ("n", "d")

    def __init__(self, numerator: int | Fraction = 0, denominator: int = 1):
        if type(numerator) is int and type(denominator) is int:
            if denominator < 0:
                numerator, denominator = -numerator, -denominator
            elif not denominator:
                raise ZeroDivisionError(f"Fraction({numerator}, 0)")
        else:
            q = Fraction(numerator, denominator)
            numerator, denominator = int(q.numerator), int(q.denominator)
        self.n, self.d = _reduce_pair(numerator, denominator)

    @classmethod
    def _reduced(cls, n: int, d: int) -> "Phase":
        """``Phase(n, d)`` for ints with ``d > 0``, skipping input checks."""
        p = cls.__new__(cls)
        p.n, p.d = _reduce_pair(n, d)
        return p

    @classmethod
    def zero(cls) -> "Phase":
        return cls(0)

    @property
    def q(self) -> Fraction:
        """The exponent ``n/d`` as a ``Fraction`` in ``[0, 1)``."""
        return Fraction(self.n, self.d)

    def embed(self) -> complex:
        """The complex number ``e^{2*pi*i*n/d}`` this phase stands for."""
        return cmath.exp(2j * math.pi * (self.n / self.d))

    def order(self) -> int:
        """Multiplicative order of the embedded root of unity."""
        return self.d

    def __add__(self, other: "Phase") -> "Phase":
        if not isinstance(other, Phase):
            return NotImplemented
        return Phase._reduced(self.n * other.d + other.n * self.d,
                              self.d * other.d)

    def __sub__(self, other: "Phase") -> "Phase":
        if not isinstance(other, Phase):
            return NotImplemented
        return Phase._reduced(self.n * other.d - other.n * self.d,
                              self.d * other.d)

    def __neg__(self) -> "Phase":
        return Phase._reduced(-self.n, self.d)

    def __mul__(self, n: int) -> "Phase":
        if not isinstance(n, int):
            return NotImplemented
        return Phase._reduced(n * self.n, self.d)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.n != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Phase):
            return NotImplemented
        return self.n == other.n and self.d == other.d

    def __hash__(self) -> int:
        return hash(self.q)

    def __str__(self) -> str:
        return str(self.n) if self.d == 1 else f"{self.n}/{self.d}"

    def __repr__(self) -> str:
        return f"Phase({self})"


class WindowError(ValueError):
    """An exponent vector fell outside the window a cochain is stored on."""


class ExponentWindow:
    """Axis-aligned box of integer exponent vectors; bounds are inclusive."""

    __slots__ = ("bounds",)

    def __init__(self, bounds: Sequence[tuple[int, int]]):
        cleaned = []
        for lo, hi in bounds:
            lo, hi = int(lo), int(hi)
            if lo > hi:
                raise ValueError(f"empty axis range ({lo}, {hi})")
            cleaned.append((lo, hi))
        if not cleaned:
            raise ValueError("window needs at least one axis")
        self.bounds = tuple(cleaned)

    @classmethod
    def centered(cls, g: int, radius: int) -> "ExponentWindow":
        return cls([(-radius, radius)] * g)

    @property
    def g(self) -> int:
        return len(self.bounds)

    def __contains__(self, t: Sequence[int]) -> bool:
        if len(t) != len(self.bounds):
            return False
        return all(lo <= x <= hi for x, (lo, hi) in zip(t, self.bounds))

    def __iter__(self) -> Iterator[Vec]:
        return itertools.product(*(range(lo, hi + 1) for lo, hi in self.bounds))

    def __len__(self) -> int:
        return math.prod(hi - lo + 1 for lo, hi in self.bounds)

    def sample(self, rng: np.random.Generator, size: tuple | None = None):
        """One uniform vector as a tuple, one draw per coordinate, or with a
        ``size`` tuple an ``(*size, g)`` int64 array of them, in one
        ``rng.integers`` call that draws the same stream in row-major order."""
        if size is None:
            return tuple(int(rng.integers(lo, hi, endpoint=True))
                         for lo, hi in self.bounds)
        lo, hi = np.array(self.bounds).T
        return rng.integers(lo, hi, (*size, self.g), endpoint=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExponentWindow):
            return NotImplemented
        return self.bounds == other.bounds

    def __repr__(self) -> str:
        return f"ExponentWindow({list(self.bounds)})"


class CochainTable:
    """Explicit Phase-valued cochain over a finite window.

    Arity-1 tables map every exponent vector in the window to a phase.
    Arity-2 tables are stored on the pairs ``(s, t)`` with ``s``, ``t`` and
    ``s + t`` all inside the window, which is exactly the domain on which the
    2-cocycle identity can be formed.  Lookups outside the stored domain
    raise :class:`WindowError`.
    """

    __slots__ = ("window", "arity", "table")

    def __init__(self, window: ExponentWindow, table: Mapping, arity: int):
        if arity not in (1, 2):
            raise ValueError("arity must be 1 or 2")
        self.window = window
        self.arity = arity
        self.table = dict(table)

    @classmethod
    def from_function(cls, window: ExponentWindow, fn: Callable[..., Phase],
                      arity: int = 1) -> "CochainTable":
        if arity == 1:
            table = {t: fn(t) for t in window}
        elif arity == 2:
            table = {}
            for s in window:
                for t in window:
                    if _vadd(s, t) in window:
                        table[(s, t)] = fn(s, t)
        else:
            raise ValueError("arity must be 1 or 2")
        return cls(window, table, arity)

    def __call__(self, *args: Sequence[int]) -> Phase:
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} argument(s), got {len(args)}")
        key = tuple(tuple(a) for a in args)
        if self.arity == 1:
            key = key[0]
        try:
            return self.table[key]
        except KeyError:
            raise WindowError(f"{key} outside stored window {self.window!r}") from None


class BoundedCochain:
    """A cochain evaluated on demand, restricted to a window.

    Same calling convention and domain rule as :class:`CochainTable`, but
    backed by a function instead of a dict -- used for coboundaries, whose
    full pair table would be needlessly large.
    """

    __slots__ = ("window", "arity", "fn")

    def __init__(self, window: ExponentWindow, fn: Callable[..., Phase],
                 arity: int = 2):
        self.window = window
        self.arity = arity
        self.fn = fn

    def __call__(self, *args: Sequence[int]) -> Phase:
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} argument(s), got {len(args)}")
        vecs = [tuple(a) for a in args]
        for v in vecs:
            if v not in self.window:
                raise WindowError(f"{v} outside window {self.window!r}")
        if self.arity == 2 and _vadd(*vecs) not in self.window:
            raise WindowError(
                f"{_vadd(*vecs)} (argument sum) outside window {self.window!r}")
        return self.fn(*vecs)


class BilinearCocycle:
    """Bilinear 2-cocycle ``lambda(s, t) = zeta_N ** (s . M t)`` on Z^g.

    Any bilinear exponent satisfies the 2-cocycle identity.  Two bilinear
    cocycles are cohomologous exactly when their antisymmetrizations
    ``M - M^T`` agree modulo ``N``, so :meth:`antisymmetrized` is the
    complete class invariant.
    """

    __slots__ = ("g", "N", "M", "_roots")

    def __init__(self, M: Sequence[Sequence[int]], N: int):
        N = int(N)
        if N < 1:
            raise ValueError("N must be a positive integer")
        rows = [tuple(int(x) % N for x in row) for row in M]
        g = len(rows)
        if any(len(row) != g for row in rows):
            raise ValueError("M must be square")
        if g == 0:
            raise ValueError("M must be nonempty")
        self.g = g
        self.N = N
        self.M = tuple(rows)
        self._roots = {}

    @classmethod
    def trivial(cls, g: int, N: int) -> "BilinearCocycle":
        return cls([[0] * g for _ in range(g)], N)

    def exponent(self, s: Sequence[int], t: Sequence[int]) -> int:
        """``s . M t`` reduced modulo ``N``."""
        if len(s) != self.g or len(t) != self.g:
            raise ValueError(f"expected vectors of length {self.g}")
        total = 0
        for si, row in zip(s, self.M):
            if si:
                total += si * sum(map(operator.mul, row, t))
        return total % self.N

    def __call__(self, s: Sequence[int], t: Sequence[int]) -> Phase:
        return Phase(self.exponent(s, t), self.N)

    def roots(self) -> dict:
        """Cache of ``zeta_N^k`` by exponent ``k`` in ``range(N)``, filled
        by :func:`~nctorus.laurent.star_mul` with the entries it reads."""
        return self._roots

    def antisymmetrized(self) -> tuple[tuple[int, ...], ...]:
        """``(M - M^T) mod N``, the cohomology-class invariant."""
        g, N = self.g, self.N
        return tuple(tuple((self.M[i][j] - self.M[j][i]) % N for j in range(g))
                     for i in range(g))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BilinearCocycle):
            return NotImplemented
        return self.N == other.N and self.M == other.M

    def __repr__(self) -> str:
        return f"BilinearCocycle(M={[list(r) for r in self.M]}, N={self.N})"


def _first_violation(exponent, N: int, t1, t2, t3) -> int | None:
    """Index of the first triple, vectors down the first axis, whose
    ``e(t1, t2) + e(t1 + t2, t3) - e(t1, t2 + t3) - e(t2, t3)`` is nonzero
    mod ``N``, or ``None``."""
    bad = np.flatnonzero((exponent(t1, t2) + exponent(t1 + t2, t3)
                          - exponent(t1, t2 + t3) - exponent(t2, t3)) % N)
    return int(bad[0]) if bad.size else None


# Most points of a window whose every triple ``check_cocycle`` checks
MAX_EXHAUSTIVE_POINTS = 1200


def check_cocycle(lam, window: ExponentWindow | None = None,
                  samples: int | None = 200,
                  rng: np.random.Generator | None = None):
    """Check the multiplicative 2-cocycle identity on a window.

    The identity, written additively in phase exponents, is

        lam(t1, t2) + lam(t1 + t2, t3) == lam(t1, t2 + t3) + lam(t2, t3).

    ``samples`` random triples are drawn in one call, advancing ``rng`` by
    exactly ``samples * 3 * g`` draws whatever the outcome.  ``samples=None``
    iterates every triple, one ``t1`` slab of about ``72 g n**2`` bytes at a
    time for an ``n``-point window; beyond ``MAX_EXHAUSTIVE_POINTS`` (1 200:
    210 MB at g = 2) it raises ``ValueError`` before building any.  Bilinear
    exponents are compared modulo ``N`` on integer arrays (Python ints where
    int64 could overflow), other cochains phase by phase, skipping triples
    that leave a bounded cochain's domain.
    Returns ``(True, None)`` if no violation was seen, else
    ``(False, (t1, t2, t3))`` with the first violating triple.
    """
    if samples is not None and samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    if window is None:
        window = getattr(lam, "window", None)
    if window is None:
        g = getattr(lam, "g", None)
        if g is None:
            raise ValueError("pass a window for cochains that do not carry one")
        window = ExponentWindow.centered(g, 2)
    if samples is None and len(window) > MAX_EXHAUSTIVE_POINTS:
        raise ValueError(f"window has {len(window)} points; the exhaustive "
                         f"check takes at most {MAX_EXHAUSTIVE_POINTS}")

    dtype = np.int64
    if isinstance(lam, BilinearCocycle):
        if window.g != lam.g:
            raise ValueError(f"expected vectors of length {lam.g}")
        R = max(max(-lo, hi) for lo, hi in window.bounds)
        if 4 * lam.g ** 2 * lam.N * (2 * R) ** 2 >= 2 ** 62:
            dtype = object
        M = np.array(lam.M, dtype=dtype)

        def first(batch):
            return _first_violation(
                lambda a, b: np.einsum("ij,im,jm->m", M, a, b), lam.N, *batch)
    else:
        def first(batch):
            for row, triple in enumerate(batch.transpose(2, 0, 1).tolist()):
                t1, t2, t3 = map(tuple, triple)
                try:
                    lhs = lam(t1, t2) + lam(_vadd(t1, t2), t3)
                    rhs = lam(t1, _vadd(t2, t3)) + lam(t2, t3)
                except WindowError:
                    continue
                if lhs != rhs:
                    return row
            return None

    # batches of triples as (3, g, m) arrays: all of them for a sample, one
    # slab per t1 for the whole window, so memory stays O(len(window)**2)
    if samples is None:
        points = np.array(list(window), dtype=dtype).T
        n = points.shape[1]
        pairs = [np.repeat(points, n, axis=1), np.tile(points, n)]
        batches = (np.stack([np.repeat(t1[:, None], n * n, axis=1), *pairs])
                   for t1 in points.T)
    else:
        draws = window.sample(rng or np.random.default_rng(0), (samples, 3))
        batches = [draws.astype(dtype).transpose(1, 2, 0)]
    for batch in batches:
        row = first(batch)
        if row is not None:
            return False, tuple(map(tuple, batch[:, :, row].tolist()))
    return True, None


def coboundary(alpha, lam=None) -> BoundedCochain:
    """Twist a 2-cocycle by the coboundary of a 1-cochain.

    Returns the window-bounded 2-cochain

        lam'(t1, t2) = lam(t1, t2) * alpha(t1) * alpha(t2) / alpha(t1 + t2)

    (with ``lam=None`` this is the bare coboundary ``d alpha``).  The result
    lives on the pairs with ``t1``, ``t2``, ``t1 + t2`` inside
    ``alpha.window`` and raises :class:`WindowError` elsewhere.  Twisting by
    a coboundary never changes whether :func:`check_cocycle` passes.
    """
    if alpha.arity != 1:
        raise ValueError("alpha must be a 1-cochain")

    def fn(t1: Vec, t2: Vec) -> Phase:
        val = alpha(t1) + alpha(t2) - alpha(_vadd(t1, t2))
        if lam is not None:
            val = val + lam(t1, t2)
        return val

    return BoundedCochain(alpha.window, fn, arity=2)


def bounding_cochain(S: Sequence[Sequence[int]], N: int,
                     window: ExponentWindow | None = None) -> CochainTable:
    """Quadratic 1-cochain whose coboundary cancels a symmetric exponent.

    For ``S`` symmetric modulo ``N`` this returns ``alpha`` with

        alpha(t) = zeta_N ** (sum_{i<j} S_ij t_i t_j
                              + sum_i S_ii t_i (t_i - 1) / 2),

    which satisfies ``d alpha(s, t) = zeta_N ** (-s . S t)``.  Hence
    ``coboundary(alpha, lam_M)`` agrees with ``lam_{M-S}`` wherever defined:
    subtracting a symmetric matrix from ``M`` is always a coboundary twist.
    """
    N = int(N)
    S = [[int(x) % N for x in row] for row in S]
    g = len(S)
    if any(len(row) != g for row in S):
        raise ValueError("S must be square")
    for i in range(g):
        for j in range(i + 1, g):
            if S[i][j] != S[j][i]:
                raise ValueError("S must be symmetric modulo N")
    if window is None:
        window = ExponentWindow.centered(g, 8)
    if window.g != g:
        raise ValueError("window rank does not match S")

    def val(t: Vec) -> Phase:
        e = sum(S[i][j] * t[i] * t[j] for i in range(g) for j in range(i + 1, g))
        e += sum(S[i][i] * t[i] * (t[i] - 1) // 2 for i in range(g))
        return Phase(e, N)

    return CochainTable.from_function(window, val, arity=1)


def normal_order_representative(lam: BilinearCocycle) -> BilinearCocycle:
    """Lower-triangular cocycle in the same cohomology class as ``lam``.

    The result ``L`` has ``L[i][j] = (M - M^T)[i][j]`` for ``i > j`` and
    zeros on and above the diagonal.  Its antisymmetrization equals that of
    ``lam``, and it is the exponent table under which the star product
    reorders generators into increasing index order with no spurious phase
    on already-ordered monomials.
    """
    A = lam.antisymmetrized()
    g = lam.g
    L = [[A[i][j] if i > j else 0 for j in range(g)] for i in range(g)]
    return BilinearCocycle(L, lam.N)
