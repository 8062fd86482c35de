"""q-Weyl algebras: noncommutative Laurent monomials in torus generators
``t_i`` and shift generators ``gamma_j``.

Products are given on monomials and extended bilinearly.  The ``t``'s
q-commute through root-of-unity phases drawn from a
:class:`~nctorus.cocycle.BilinearCocycle` (only its antisymmetrization
enters), while ``t``'s and ``gamma``'s exchange through a bilinear rule
``Q(x, y) = prod_{i,j} q[i][j] ** (x_i y_j)``: a :class:`PeriodMatrix` of
nonzero complex scalars, or a cocycle's exact ``q[i][j] = zeta_N^{M_ij}``.
The same data also yields the mirror-image crossed product in which the
roles of the phases and the scalars swap sides (``side="gerby"``), and a
bimodule carrying a left action of the dual shifts and a right action of
the plain shifts.

Coefficients are :class:`Coeff` pairs (exact phase, complex scalar) so the
root-of-unity bookkeeping stays exact for as long as possible.
"""

from __future__ import annotations

import math
import operator
from numbers import Number
from typing import Mapping, Sequence, TypeAlias

from .cocycle import BilinearCocycle, Phase

Vec = tuple[int, ...]
Key = tuple[Vec, Vec]
ExchangeRule: TypeAlias = "PeriodMatrix | BilinearCocycle"


class Coeff:
    """A scalar split as (exact root-of-unity phase) * (complex number).

    Multiplying keeps the phase exact.  Adding merges the scalars when the
    phases agree; otherwise both terms are embedded and the result carries
    phase zero.
    """

    __slots__ = ("scalar", "phase")

    def __init__(self, scalar: complex = 1.0, phase: Phase | None = None):
        scalar = complex(scalar)
        if phase is None or scalar == 0:
            phase = Phase.zero()
        self.scalar = scalar
        self.phase = phase

    @classmethod
    def from_phase(cls, phase: Phase) -> "Coeff":
        return cls(1.0, phase)

    def value(self) -> complex:
        return self.phase.embed() * self.scalar

    @property
    def is_zero(self) -> bool:
        return self.scalar == 0

    def __mul__(self, other):
        if isinstance(other, Coeff):
            return Coeff(self.scalar * other.scalar, self.phase + other.phase)
        if isinstance(other, Phase):
            return Coeff(self.scalar, self.phase + other)
        if isinstance(other, (complex, Number)):  # complex skips the ABC
            return Coeff(self.scalar * other, self.phase)
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other: "Coeff") -> "Coeff":
        if not isinstance(other, Coeff):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.phase == other.phase:
            return Coeff(self.scalar + other.scalar, self.phase)
        return Coeff(self.value() + other.value())

    def __neg__(self) -> "Coeff":
        return Coeff(-self.scalar, self.phase)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coeff):
            return NotImplemented
        return self.scalar == other.scalar and self.phase == other.phase

    def __repr__(self) -> str:
        if self.phase == Phase.zero():
            return f"Coeff({self.scalar})"
        return f"Coeff({self.scalar}, phase={self.phase})"


class PeriodMatrix:
    """Nonzero complex scalars ``q[i][j]`` through which ``gamma_j`` moves
    past ``t_i`` in the crossed product."""

    __slots__ = ("g", "q")

    def __init__(self, rows: Sequence[Sequence[complex]]):
        q = tuple(tuple(complex(x) for x in row) for row in rows)
        g = len(q)
        if any(len(row) != g for row in q):
            raise ValueError("period matrix must be square")
        if any(x == 0 for row in q for x in row):
            raise ValueError("period entries must be nonzero")
        self.g = g
        self.q = q

    @classmethod
    def ones(cls, g: int) -> "PeriodMatrix":
        """The all-ones matrix, built without per-entry validation."""
        m = cls.__new__(cls)
        m.g, m.q = g, ((1 + 0j,) * g,) * g
        return m

    def entry(self, i: int, j: int) -> complex:
        return self.q[i][j]

    def __call__(self, x: Sequence[int], y: Sequence[int]) -> complex:
        """The exchange scalar ``prod_{i,j} q[i][j] ** (x_i y_j)``."""
        scalar = 1.0 + 0j
        for xi, row in zip(x, self.q):
            if xi:
                for yj, qij in zip(y, row):
                    if yj:
                        scalar *= qij ** (xi * yj)
        return scalar

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PeriodMatrix):
            return NotImplemented
        return self.q == other.q

    def __repr__(self) -> str:
        return f"PeriodMatrix({[list(r) for r in self.q]})"


def _as_coeff(c) -> Coeff:
    if isinstance(c, Coeff):
        return c
    if isinstance(c, Phase):
        return Coeff.from_phase(c)
    return Coeff(c)


class _Terms:
    """Finite sum of basis vectors keyed by ``(x, y)`` pairs of integer
    exponent tuples of length ``g``, with :class:`Coeff` coefficients.
    Repeated keys merge and zero coefficients drop out.  Sums, negation,
    scalar multiples and ``==`` stay within one subclass."""

    __slots__ = ("g", "terms")

    def __init__(self, g: int, terms: Mapping[Key, Coeff] | None = None):
        g = int(g)
        if g < 1:
            raise ValueError("g must be at least 1")
        cleaned: dict[Key, Coeff] = {}
        for key, c in (terms or {}).items():
            x, y = key
            x = tuple(int(v) for v in x)
            y = tuple(int(v) for v in y)
            if len(x) != g or len(y) != g:
                raise ValueError(f"exponents {key} do not have length {g}")
            c = _as_coeff(c)
            prev = cleaned.get((x, y))
            c = c if prev is None else prev + c
            if c.is_zero:
                cleaned.pop((x, y), None)
            else:
                cleaned[(x, y)] = c
        self.g = g
        self.terms = cleaned

    def value_dict(self) -> dict[Key, complex]:
        return {k: c.value() for k, c in self.terms.items()}

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if other.g != self.g:
            raise ValueError("rank mismatch")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return type(self)(self.g, out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return type(self)(self.g, {k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, _Terms):
            raise TypeError("use mul_W or mul_crossed to multiply polynomials")
        s = _as_coeff(scalar)
        return type(self)(self.g, {k: c * s for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.g == other.g and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)


class QPolynomial(_Terms):
    """Finite sum of monomials ``t^a gamma^b`` with :class:`Coeff`
    coefficients; keys are ``(a, b)`` pairs of integer exponent tuples."""

    __slots__ = ()

    @classmethod
    def monomial(cls, g: int, a: Sequence[int], b: Sequence[int] | None = None,
                 coeff=1.0) -> "QPolynomial":
        if b is None:
            b = (0,) * g
        return cls(g, {(tuple(a), tuple(b)): _as_coeff(coeff)})

    @classmethod
    def zero(cls, g: int) -> "QPolynomial":
        return cls(g, {})

    @classmethod
    def one(cls, g: int) -> "QPolynomial":
        z = (0,) * g
        return cls(g, {(z, z): Coeff()})

    def coeff(self, a: Sequence[int], b: Sequence[int] | None = None) -> Coeff:
        if b is None:
            b = (0,) * self.g
        return self.terms.get((tuple(a), tuple(b)), Coeff(0.0))

    def support(self) -> list[Key]:
        return sorted(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return f"QPolynomial({self.g}, 0)"
        bits = [f"{self.terms[k]!r}*t^{list(k[0])}*gamma^{list(k[1])}"
                for k in self.support()]
        return f"QPolynomial({self.g}, {' + '.join(bits)})"


def max_value_diff(f: _Terms, h: _Terms) -> float:
    """Largest embedded-coefficient difference between two polynomials, or
    between two module elements; a NaN counts as infinite."""
    if f.g != h.g:
        raise ValueError("rank mismatch")
    fv, hv = f.value_dict(), h.value_dict()
    diffs = (abs(fv.get(k, 0j) - hv.get(k, 0j)) for k in set(fv) | set(hv))
    return max((math.inf if math.isnan(d) else d for d in diffs), default=0.0)


def _reorder_exponent(A, x: Vec, y: Vec) -> int:
    """Normal-ordering phase exponent ``sum_{i > j} A[i][j] x_i y_j``."""
    total = 0
    for i in range(len(x)):
        if x[i]:
            for j in range(i):
                if y[j]:
                    total += A[i][j] * x[i] * y[j]
    return total


def mul_W(f: QPolynomial, h: QPolynomial, lam: BilinearCocycle) -> QPolynomial:
    """Product in the subalgebra generated by the ``t``'s alone:
    ``t^a t^c = zeta_N^(sum_{i>j} A_ij a_i c_j) t^{a+c}``.

    The phase reorders the product into increasing generator order, so
    already-ordered products of distinct generators pick up nothing and
    ``t_j t_i = zeta_N^{A_ji} t_i t_j`` for ``i < j``.  Raises if either
    factor involves the shift generators.
    """
    if f.g != h.g or lam.g != f.g:
        raise ValueError("rank mismatch")
    if any(any(b) for p in (f, h) for _, b in p.terms):
        raise ValueError("mul_W is for pure t-polynomials; use mul_crossed")
    return mul_crossed(f, h, lam, PeriodMatrix.ones(f.g))


def mul_crossed(f: QPolynomial, h: QPolynomial, lam: BilinearCocycle,
                Q: ExchangeRule, side: str = "nc") -> QPolynomial:
    """Crossed-product multiplication, in either of two mirror flavors.

    ``side="nc"``: the ``t``'s q-commute through the cocycle phases, the
    ``gamma``'s commute among themselves, and ``gamma_j t_i = q[i][j] t_i
    gamma_j``:

        (t^a gamma^b)(t^a' gamma^b') =
            Q(a', b) * zeta_N^(sum_{i>j} A_ij a_i a'_j)
            * t^{a+a'} gamma^{b+b'}.

    ``side="gerby"``: the mirror image -- the ``t``'s commute, the
    ``gamma``'s q-commute through the phases, and the exchange scalar is
    transposed to ``Q(b, a')``.
    """
    if side not in ("nc", "gerby"):
        raise ValueError("side must be 'nc' or 'gerby'")
    if f.g != h.g or lam.g != f.g or Q.g != f.g:
        raise ValueError("rank mismatch")
    A = lam.antisymmetrized()
    nc = side == "nc"
    out: dict[Key, Coeff] = {}
    for (a, b), ca in f.terms.items():
        for (a2, b2), cb in h.terms.items():
            if nc:
                s, e = Q(a2, b), _reorder_exponent(A, a, a2)
            else:
                s, e = Q(b, a2), _reorder_exponent(A, b, b2)
            key = (tuple(map(operator.add, a, a2)),
                   tuple(map(operator.add, b, b2)))
            c = ca * cb * s * Phase(e, lam.N) if e else ca * cb * s
            out[key] = out[key] + c if key in out else c
    return QPolynomial(f.g, out)


def gamma_action(f: QPolynomial, j: int, Q: ExchangeRule) -> QPolynomial:
    """Conjugation by the ``j``-th shift on pure t-polynomials:
    ``t^a -> Q(a, -e_j) t^a = prod_i q[i][j]^{-a_i} t^a``.

    Matches sandwiching with ``gamma_j`` powers in the crossed product:
    ``gamma_j^{-1} (t^a) gamma_j`` computed by :func:`mul_crossed` gives the
    same answer.
    """
    if not 0 <= j < f.g:
        raise ValueError(f"shift index {j} out of range")
    back = tuple(-int(k == j) for k in range(f.g))
    out = {}
    for (a, b), c in f.terms.items():
        if any(b):
            raise ValueError("gamma_action acts on pure t-polynomials")
        out[(a, b)] = c * Q(a, back)
    return QPolynomial(f.g, out)


class PModuleElement(_Terms):
    """Element of the standard bimodule: basis indexed by pairs
    ``(ahat, a)`` of dual-shift and torus exponents, :class:`Coeff` values.

    The module carries commuting one-sided actions: dual shifts act on the
    left (:func:`pmodule_act_gammahat`), plain shifts on the right
    (:func:`pmodule_act_gamma`).
    """

    __slots__ = ()

    @classmethod
    def basis(cls, g: int, ahat: Sequence[int], a: Sequence[int],
              coeff=1.0) -> "PModuleElement":
        return cls(g, {(tuple(ahat), tuple(a)): _as_coeff(coeff)})

    def __repr__(self) -> str:
        bits = [f"{self.terms[k]!r}*e{list(k[0])},{list(k[1])}"
                for k in sorted(self.terms)]
        return f"PModuleElement({self.g}, {' + '.join(bits) or '0'})"


def pmodule_act_gamma(v: PModuleElement, i: int, Q: ExchangeRule) -> PModuleElement:
    """Right action of the ``i``-th shift: lowers ``ahat_i`` by one and
    scales by ``Q(a, -e_i) = prod_k q[k][i]^{-a_k}``."""
    if not 0 <= i < v.g:
        raise ValueError(f"shift index {i} out of range")
    back = tuple(-int(k == i) for k in range(v.g))
    out: dict[Key, Coeff] = {}
    for (ahat, a), c in v.terms.items():
        key = (tuple(map(operator.add, ahat, back)), a)
        add = c * Q(a, back)
        out[key] = out[key] + add if key in out else add
    return PModuleElement(v.g, out)


def pmodule_act_gammahat(v: PModuleElement, i: int, lam: BilinearCocycle,
                         Q: ExchangeRule) -> PModuleElement:
    """Left action of the ``i``-th dual shift: raises ``a_i`` by one, scales
    by ``Q(e_i, ahat) = prod_k q[i][k]^{ahat_k}`` and by the exact
    reordering phase ``zeta_N^(sum_{v<i} A_iv a_v)``.

    These operators satisfy the same q-commutation as the cocycle phases
    (``gammahat_i gammahat_j = zeta_N^{A_ij} gammahat_j gammahat_i``) and
    commute with the right shift action exactly.
    """
    if not 0 <= i < v.g:
        raise ValueError(f"dual shift index {i} out of range")
    if lam.g != v.g or Q.g != v.g:
        raise ValueError("rank mismatch")
    A = lam.antisymmetrized()
    up = tuple(int(k == i) for k in range(v.g))
    out: dict[Key, Coeff] = {}
    for (ahat, a), c in v.terms.items():
        e = _reorder_exponent(A, up, a)
        key = (ahat, tuple(map(operator.add, a, up)))
        add = c * Q(up, ahat) * Phase(e, lam.N)
        out[key] = out[key] + add if key in out else add
    return PModuleElement(v.g, out)
