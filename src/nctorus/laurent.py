"""Finitely supported Laurent polynomials with twisted star products.

Elements are stored as sparse complex coefficient dicts over integer
exponent vectors.  The star product twists the ordinary convolution product
by a 2-cocycle phase ``lambda(t1, t2)`` -- with the trivial cocycle it is
plain multiplication of Laurent polynomials; with a bilinear cocycle it is
the function-side product of a quantum torus at a root of unity.

The majorant norm is a weighted l1 norm that is submultiplicative for every
choice of cocycle, since all twisting phases have modulus one.
"""

from __future__ import annotations

import cmath
import math
import operator
from itertools import chain, product
from typing import Mapping, Sequence

import numpy as np

from .cocycle import BilinearCocycle

Vec = tuple[int, ...]


class LaurentPoly:
    """Sparse Laurent polynomial in ``g`` directions, complex coefficients.

    Exactly zero coefficients are dropped on construction; equality is exact
    on the remaining dict, so use :func:`max_coeff_diff` when comparing
    results of floating-point arithmetic.
    """

    __slots__ = ("g", "coeffs")

    def __init__(self, g: int, coeffs: Mapping[Sequence[int], complex] | None = None):
        g = int(g)
        if g < 1:
            raise ValueError("g must be at least 1")
        cleaned: dict[Vec, complex] = {}
        for t, c in (coeffs or {}).items():
            key = tuple(map(operator.index, t))
            if len(key) != g:
                raise ValueError(f"exponent {key} does not have length {g}")
            c = complex(c)
            if c != 0:
                cleaned[key] = cleaned.get(key, 0j) + c
        self.g = g
        self.coeffs = {t: c for t, c in cleaned.items() if c != 0}

    @classmethod
    def monomial(cls, g: int, t: Sequence[int], coeff: complex = 1.0) -> "LaurentPoly":
        return cls(g, {tuple(t): coeff})

    @classmethod
    def zero(cls, g: int) -> "LaurentPoly":
        return cls(g, {})

    @classmethod
    def one(cls, g: int) -> "LaurentPoly":
        return cls(g, {(0,) * g: 1.0})

    def coeff(self, t: Sequence[int]) -> complex:
        return self.coeffs.get(tuple(t), 0j)

    def support(self) -> list[Vec]:
        return sorted(self.coeffs)

    def terms(self):
        """Deterministically ordered ``(exponent, coefficient)`` pairs."""
        return [(t, self.coeffs[t]) for t in sorted(self.coeffs)]

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if other.g != self.g:
            raise ValueError("rank mismatch")
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            out[t] = out.get(t, 0j) + c
        return LaurentPoly(self.g, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.g, {t: -c for t, c in self.coeffs.items()})

    def __mul__(self, scalar) -> "LaurentPoly":
        if isinstance(scalar, LaurentPoly):
            raise TypeError("use star_mul(f, h, lam) to multiply polynomials")
        return LaurentPoly(self.g,
                           {t: scalar * c for t, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.g == other.g and self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"LaurentPoly({self.g}, 0)"
        bits = [f"{c!r}*t^{list(t)}" for t, c in self.terms()]
        return f"LaurentPoly({self.g}, {' + '.join(bits)})"


def star_mul(f: LaurentPoly, h: LaurentPoly, lam) -> LaurentPoly:
    """Cocycle-twisted product: coefficient of ``t`` is
    ``sum over t1 + t2 = t of lambda(t1, t2) * f[t1] * h[t2]``.

    ``lam`` is either a :class:`~nctorus.cocycle.BilinearCocycle` or any
    phase-valued 2-cochain; a window-bounded cochain raises ``WindowError``
    if a needed pair leaves its window.  From the exponent arrays ``F`` and
    ``H`` of the factors, every pair's key ``F[:, None] + H`` and, for a
    bilinear cocycle, its root index ``((F @ M) % N @ H.T) % N`` are found
    at once, in int64 while ``g * N * (R + 1) < 2**62`` (``R`` the largest
    ``|exponent|``, ``N = 1`` for other cochains), else in Python ints, so
    both stay exact at any size.  Roots come from the cocycle's cache, filled
    on a miss; other cochains give ``lam(t1, t2).embed()``.  Each pair's
    ``phase * f[t1] * h[t2]`` is then added in Python, in ``(t1, t2)`` order.
    """
    if f.g != h.g:
        raise ValueError("rank mismatch")
    g, ts1, ts2 = f.g, list(f.coeffs), list(h.coeffs)
    bilinear = isinstance(lam, BilinearCocycle)
    if bilinear and lam.g != g:
        raise ValueError("cocycle rank mismatch")
    N = lam.N if bilinear else 1
    R = max(map(abs, chain(*ts1, *ts2)), default=0)
    dtype = np.int64 if g * N * (R + 1) < 2 ** 62 else object
    F, H = (np.array(ts, dtype).reshape(-1, g) for ts in (ts1, ts2))
    keys = zip(*(F[:, None] + H).reshape(-1, g).T.tolist())
    if bilinear:
        K = (F @ np.array(lam.M, dtype) % N @ H.T % N).ravel().tolist()
        roots = lam.roots()
        for k in set(K) - roots.keys():
            roots[k] = cmath.exp(2j * math.pi * k / N)
        phases = map(roots.__getitem__, K)
    else:
        phases = (lam(t1, t2).embed() for t1, t2 in product(ts1, ts2))
    out: dict[Vec, complex] = {}
    for t, root, (a, b) in zip(keys, phases, product(f.coeffs.values(),
                                                     h.coeffs.values())):
        out[t] = out.get(t, 0j) + root * a * b
    # keys are sums of validated length-g keys; only exact zeros go
    result = LaurentPoly.__new__(LaurentPoly)
    result.g, result.coeffs = g, {t: c for t, c in out.items() if c != 0}
    return result


def max_coeff_diff(f: LaurentPoly, h: LaurentPoly) -> float:
    """Largest absolute coefficient difference (0.0 for equal polynomials);
    a NaN counts as infinite."""
    if f.g != h.g:
        raise ValueError("rank mismatch")
    keys = set(f.coeffs) | set(h.coeffs)
    diffs = (abs(f.coeff(t) - h.coeff(t)) for t in keys)
    return max((math.inf if math.isnan(d) else d for d in diffs), default=0.0)


def majorant_norm(f: LaurentPoly, weights: Sequence[float] | None = None) -> float:
    """Weighted l1 norm ``sum_t |f[t]| * prod_i w_i^{t_i}``.

    With any positive weights this dominates the sup of the function on the
    corresponding polyannulus and is submultiplicative for every star
    product, because twisting phases are unimodular.
    """
    if weights is None:
        weights = (1.0,) * f.g
    ws = [float(w) for w in weights]
    if len(ws) != f.g:
        raise ValueError("need one weight per direction")
    if any(w <= 0 for w in ws):
        raise ValueError("weights must be positive")
    total = 0.0
    for t, c in f.coeffs.items():
        factor = 1.0
        for w, e in zip(ws, t):
            factor *= w ** e
        total += abs(c) * factor
    return total


def translate(f: LaurentPoly, z: Sequence[complex]) -> LaurentPoly:
    """Rescale each direction: coefficient of ``t`` picks up ``prod z_i^{-t_i}``.

    This is the pullback along the torus translation by ``z``; it commutes
    with every star product and composes multiplicatively in ``z``.
    """
    zs = [complex(x) for x in z]
    if len(zs) != f.g:
        raise ValueError("need one scale per direction")
    if any(x == 0 for x in zs):
        raise ValueError("translation scales must be nonzero")
    out = {}
    for t, c in f.coeffs.items():
        factor = 1.0 + 0j
        for x, e in zip(zs, t):
            factor *= x ** (-e)
        out[t] = c * factor
    return LaurentPoly(f.g, out)


def coboundary_transform(f: LaurentPoly, alpha) -> LaurentPoly:
    """Multiply each coefficient by the phase of its exponent: ``f[t] *= alpha(t)``.

    For ``lam2 = coboundary(alpha, lam)`` this intertwines the two star
    products: applying it to a ``lam2``-product equals the ``lam``-product
    of the transformed factors,

        T(star_mul(f, h, lam2)) == star_mul(T(f), T(h), lam).

    Raises ``WindowError`` when the support of ``f`` leaves alpha's window.
    """
    return LaurentPoly(f.g, {t: alpha(t).embed() * c
                             for t, c in f.coeffs.items()})
