"""Text grammars for generator words and Laurent expressions.

Words are ``*``-separated products of generator atoms: ``t1, t2, ...`` and
``g1, g2, ...`` on the noncommutative side, or their hatted counterparts
``th1, gh1, ...`` on the gerby side, each with an optional integer power
(``t1^-2``).  A word multiplies out, left to right, through the crossed
product -- so reorderings pick up their phases and ``t2*t1`` comes back
normal ordered with the correct root-of-unity coefficient.

Laurent expressions are sums of terms like ``3/4*t1^2*t2^-1``.  A
coefficient factor is signed (``-2``, ``+-i``) and is a rational (``3``,
``3/4``, ``1.5``), an imaginary rational (``i``, ``2i``) or a
parenthesized signed sum of coefficient factors, nested to any depth
(``(1-1/2i)``, ``-(3+(1+2i))``).  ``()`` and ``(+)`` are refused as empty
coefficients, and nesting beyond Python's recursion limit is refused too.

Rendering is deterministic: terms are emitted in sorted exponent order
with a canonical coefficient format, and exact phases appear as ``w(p/q)``
meaning the unit of argument ``2*pi*p/q``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence

from .cocycle import BilinearCocycle
from .laurent import LaurentPoly
from .qweyl import ExchangeRule, QPolynomial, mul_crossed


class ParseError(ValueError):
    """Raised for text that does not match the grammar."""


_ATOM = re.compile(r"(th|gh|t|g)(\d+)(?:\^(-?\d+))?\Z")
_RATIONAL = re.compile(r"-?\d+(?:/\d+)?(?:\.\d+)?\Z")


def parse_word(text: str, g: int) -> list:
    """Split a word into ``(kind, index, power)`` atoms.

    ``kind`` is one of ``t/g/th/gh``, the index is zero-based, and hatted
    and unhatted atoms cannot mix within one word.  ``1`` is the empty
    word.
    """
    text = text.strip()
    if text in ("", "1"):
        return []
    atoms = []
    hats = set()
    for piece in text.split("*"):
        piece = piece.strip()
        if piece == "1":
            continue
        m = _ATOM.match(piece)
        if not m:
            raise ParseError(f"bad atom {piece!r}")
        kind, index, power = m.group(1), int(m.group(2)), m.group(3)
        if not 1 <= index <= g:
            raise ParseError(f"index out of range in {piece!r} "
                             f"(expected 1..{g})")
        hats.add(kind in ("th", "gh"))
        atoms.append((kind, index - 1, 1 if power is None else int(power)))
    if len(hats) > 1:
        raise ParseError("cannot mix hatted and unhatted generators "
                         "in one word")
    return atoms


def word_side(atoms: Sequence) -> str:
    """Which crossed product a word lives in: ``nc`` or ``gerby``."""
    for kind, _, _ in atoms:
        return "gerby" if kind in ("th", "gh") else "nc"
    return "nc"


def word_to_poly(atoms: Sequence, lam: BilinearCocycle,
                 Q: ExchangeRule) -> QPolynomial:
    """Multiply a word out, atom by atom, in its crossed product, with the
    bilinear exchange rule ``Q``: a ``PeriodMatrix`` of complex scalars or
    a ``BilinearCocycle`` of exact roots."""
    side = word_side(atoms)
    g = lam.g
    acc = QPolynomial.one(g)
    for kind, i, power in atoms:
        vec = tuple(power if j == i else 0 for j in range(g))
        zero = (0,) * g
        if kind in ("t", "th"):
            mono = QPolynomial.monomial(g, vec)
        else:
            mono = QPolynomial.monomial(g, zero, vec)
        acc = mul_crossed(acc, mono, lam, Q, side=side)
    return acc


# ---------------------------------------------------------------------------
# Laurent expressions

def _parse_rational(text: str) -> Fraction:
    if not _RATIONAL.match(text):
        raise ParseError(f"bad number {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if "." in num or "." in den:
            raise ParseError(f"bad number {text!r}")
        if int(den) == 0:
            raise ParseError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(text)


# a group, or a sign after a completed factor (not after "^*/+-(")
_CUT = re.compile(r"[()]|(?<=[^\s^*/+\-(])\s*[+-]")


def _pairs(text: str) -> dict:
    """The position of the matching ``)`` of each ``(`` that has one."""
    pairs, opened = {}, []
    for m in re.finditer(r"[()]", text) if "(" in text else ():
        if m.group() == "(":
            opened.append(m.start())
        elif opened:
            pairs[opened.pop()] = m.start()
    return pairs


def _split_sign(text: str, lo: int, hi: int) -> tuple:
    """``(sign, lo, hi)``: ``text[lo:hi]`` stripped, its leading run of
    signs and spaces folded into ``1`` or ``-1``."""
    start = lo
    while start < hi and (text[start] in "+-" or text[start].isspace()):
        start += 1
    while hi > start and text[hi - 1].isspace():
        hi -= 1
    return -1 if text.count("-", lo, start) % 2 else 1, start, hi


def _split_terms(text: str, pairs: dict, lo: int, hi: int) -> list:
    """The ``(lo, hi)`` spans of the terms of ``text[lo:hi]``: a sign
    starts one after a completed factor, not after an operator or a caret
    (``t1^-2``); each group, closed within the span, is passed at once."""
    cuts, m = [lo], _CUT.search(text, lo, hi)
    while m:
        i = m.start()
        if text[i] in "()":
            if pairs.get(i, hi) >= hi:  # a ")" or a group running past hi
                raise ParseError("unbalanced parentheses")
            i = pairs[i]
        else:
            cuts.append(i := m.end() - 1)
        m = _CUT.search(text, i + 1, hi)
    return list(zip(cuts, cuts[1:] + [hi]))


def _parse_coeff(text: str) -> complex:
    """A signed coefficient factor: rational, imaginary rational, or a
    parenthesized signed sum of such factors, nested to any depth; each
    level reads only its own characters."""
    return _coeff(text, _pairs(text), 0, len(text))


def _coeff(text: str, pairs: dict, lo: int, hi: int) -> complex:
    """:func:`_parse_coeff` of ``text[lo:hi]``."""
    sign, lo, hi = _split_sign(text, lo, hi)
    if lo < hi and text[lo] == "(" and text[hi - 1] == ")":
        # a blank inside is one blank term: "empty coefficient" below
        first, *rest = _split_terms(text, pairs, lo + 1, hi - 1)
        value = _coeff(text, pairs, *first)
        for term in rest:
            value += _coeff(text, pairs, *term)
        return value if sign > 0 else -value
    text = text[lo:hi]
    if not text:
        raise ParseError("empty coefficient")
    try:  # "i" is "1i"
        value = sign * float(_parse_rational(text.removesuffix("i") or "1"))
    except OverflowError:
        raise ParseError(f"coefficient {text!r} is too large") from None
    return value * 1j if text.endswith("i") else value + 0j


_VAR = re.compile(r"t(\d+)(?:\^(-?\d+))?\Z")


def parse_laurent(text: str, g: int) -> LaurentPoly:
    """Read a sum of coefficient-times-monomial terms in ``t1..t<g>``."""
    text = text.strip()
    if not text or text == "0":
        return LaurentPoly.zero(g)
    total = LaurentPoly.zero(g)
    for lo, hi in _split_terms(text, _pairs(text), 0, len(text)):
        sign, start, stop = _split_sign(text, lo, hi)
        term = text[start:stop]
        if not term:
            raise ParseError(f"empty term in {text!r}")
        coeff = complex(sign)
        exps = [0] * g
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                raise ParseError(f"empty factor in {text[lo:hi]!r}")
            m = _VAR.match(factor)
            if m:
                index = int(m.group(1))
                if not 1 <= index <= g:
                    raise ParseError(f"index out of range in {factor!r} "
                                     f"(expected 1..{g})")
                exps[index - 1] += 1 if m.group(2) is None else int(m.group(2))
            else:
                try:
                    coeff *= _parse_coeff(factor)
                except RecursionError:
                    raise ParseError("coefficient nested too deeply") from None
        total = total + LaurentPoly.monomial(g, tuple(exps), coeff)
    return total


# ---------------------------------------------------------------------------
# rendering

def _fmt_real(x: float) -> str:
    if x == int(x):
        return str(int(x))
    fr = Fraction(x).limit_denominator(10 ** 6)
    if float(fr) == x:
        return f"{fr.numerator}/{fr.denominator}"
    return repr(x)


def _fmt_complex(z: complex) -> str:
    re_part, im_part = z.real, z.imag
    scale = abs(re_part) + abs(im_part)
    if not math.isfinite(scale):
        raise ValueError(f"coefficient {z} overflows")
    if scale:
        if abs(im_part) <= 1e-12 * scale:
            im_part = 0.0
        if abs(re_part) <= 1e-12 * scale:
            re_part = 0.0
    if im_part == 0:
        return _fmt_real(re_part)
    if re_part == 0:
        if im_part == 1:
            return "i"
        if im_part == -1:
            return "-i"
        return f"{_fmt_real(im_part)}i"
    im_abs = _fmt_real(abs(im_part))
    im_str = "i" if im_abs == "1" else f"{im_abs}i"
    op = "+" if im_part > 0 else "-"
    return f"({_fmt_real(re_part)}{op}{im_str})"


def _fmt_monomial(exponents: Sequence, names) -> list:
    pieces = []
    for i, e in enumerate(exponents):
        if e == 0:
            continue
        name = f"{names}{i + 1}"
        pieces.append(name if e == 1 else f"{name}^{e}")
    return pieces


def _render_sum(terms) -> str:
    """Join ``(coefficient, factors)`` terms into a signed sum.  A
    coefficient's leading minus becomes the term's sign, a coefficient of
    ``1`` is dropped before other factors, and no terms print as ``0``."""
    out = []
    for coeff, factors in terms:
        c_str = _fmt_complex(coeff)
        sign = " - " if c_str[0] == "-" else " + "
        c_str = c_str.removeprefix("-")
        out += sign, "*".join(factors if factors and c_str == "1"
                              else [c_str, *factors])
    if not out:
        return "0"
    out[0] = out[0].strip(" +")  # the first sign is "-" or nothing
    return "".join(out)


def render_laurent(p: LaurentPoly) -> str:
    return _render_sum((c, _fmt_monomial(t, "t")) for t, c in p.terms())


def render_word_poly(p: QPolynomial, hatted: bool = False) -> str:
    """Deterministic text for a crossed-product element; exact phases are
    kept symbolic as ``w(p/q)`` factors."""
    names_t, names_g = ("th", "gh") if hatted else ("t", "g")
    return _render_sum(
        (c.scalar, [f"w({c.phase})"] * bool(c.phase)
         + _fmt_monomial(a, names_t) + _fmt_monomial(b, names_g))
        for (a, b), c in sorted(p.terms.items()))
