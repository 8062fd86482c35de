import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus import exprs
from nctorus.cocycle import BilinearCocycle, Phase
from nctorus.exprs import (
    ParseError,
    parse_laurent,
    parse_word,
    render_laurent,
    render_word_poly,
    word_side,
    word_to_poly,
)
from nctorus.laurent import LaurentPoly
from nctorus.qweyl import Coeff, PeriodMatrix, QPolynomial


def test_parse_word_basic():
    atoms = parse_word("t1*g2^3*t2^-1", 2)
    assert atoms == [("t", 0, 1), ("g", 1, 3), ("t", 1, -1)]
    assert word_side(atoms) == "nc"


def test_parse_word_hatted_and_empty():
    atoms = parse_word("th2*gh1", 2)
    assert atoms == [("th", 1, 1), ("gh", 0, 1)]
    assert word_side(atoms) == "gerby"
    assert parse_word("1", 3) == []
    assert word_side([]) == "nc"


def test_parse_word_errors():
    with pytest.raises(ParseError):
        parse_word("t1*gh2", 2)          # mixed sides
    with pytest.raises(ParseError):
        parse_word("x3", 2)              # unknown atom
    with pytest.raises(ParseError):
        parse_word("t3", 2)              # index out of range
    with pytest.raises(ParseError):
        parse_word("t0", 2)
    with pytest.raises(ParseError):
        parse_word("t1^", 2)


def test_word_multiplies_with_reordering_phase():
    lam = BilinearCocycle([[0, 1], [0, 0]], 4)
    Q = PeriodMatrix.ones(2)
    poly = word_to_poly(parse_word("t2*t1", 2), lam, Q)
    assert poly.coeff((1, 1)) == Coeff(1.0, Phase(3, 4))
    ordered = word_to_poly(parse_word("t1*t2", 2), lam, Q)
    assert ordered.coeff((1, 1)) == Coeff(1.0)


def test_word_crossed_sides_differ():
    lam = BilinearCocycle([[0, 0], [0, 0]], 4)
    Q = PeriodMatrix([[1, 2], [3, 1]])
    nc = word_to_poly(parse_word("g2*t1", 2), lam, Q)
    gerby = word_to_poly(parse_word("gh2*th1", 2), lam, Q)
    assert abs(nc.coeff((1, 0), (0, 1)).scalar - 2.0) < 1e-12
    assert abs(gerby.coeff((1, 0), (0, 1)).scalar - 3.0) < 1e-12


def test_parse_laurent_values():
    p = parse_laurent("2*t1^2 - 3/4*t2 + i", 2)
    assert p.coeff((2, 0)) == 2.0
    assert p.coeff((0, 1)) == -0.75
    assert p.coeff((0, 0)) == 1j


def test_parse_laurent_complex_and_merges():
    p = parse_laurent("(1-1/2i)*t1 + t1 - 2i*t1^-1", 1)
    assert p.coeff((1,)) == 2.0 - 0.5j
    assert p.coeff((-1,)) == -2j


def test_parse_laurent_errors():
    with pytest.raises(ParseError):
        parse_laurent("2**t1", 2)
    with pytest.raises(ParseError):
        parse_laurent("(1+2i*t1", 1)
    with pytest.raises(ParseError):
        parse_laurent("t5", 2)
    with pytest.raises(ParseError):
        parse_laurent("q1", 1)


def test_render_laurent_frozen():
    p = LaurentPoly(2, {(0, 0): -1.0, (1, -2): 0.5, (2, 0): 1.0})
    # exact string, support sorted lexicographically
    assert render_laurent(p) == "-1 + 1/2*t1*t2^-2 + t1^2"


def test_render_laurent_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        terms = {}
        for _ in range(4):
            t = tuple(int(rng.integers(-2, 3)) for _ in range(2))
            terms[t] = complex(rng.integers(-4, 5), rng.integers(-4, 5))
        p = LaurentPoly(2, terms)
        assert parse_laurent(render_laurent(p), 2) == p


def test_render_zero():
    assert render_laurent(LaurentPoly.zero(2)) == "0"
    assert render_word_poly(QPolynomial.zero(2)) == "0"


def test_render_word_poly_with_phase():
    lam = BilinearCocycle([[0, 1], [0, 0]], 4)
    Q = PeriodMatrix.ones(2)
    poly = word_to_poly(parse_word("t2*t1", 2), lam, Q)
    assert render_word_poly(poly) == "w(3/4)*t1*t2"
    plain = QPolynomial.monomial(2, (1, 0), (0, 2), Coeff(-2.0))
    assert render_word_poly(plain) == "-2*t1*g2^2"
    assert render_word_poly(plain, hatted=True) == "-2*th1*gh2^2"


def test_render_word_poly_unit():
    assert render_word_poly(QPolynomial.one(2)) == "1"


# ---------------------------------------------------------------------------
# the former coefficient reader and renderers, kept as oracles

def old_parse_coeff(text: str) -> complex:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1].strip()
        split = None
        for pos in range(1, len(inner)):
            if inner[pos] in "+-" and inner[pos - 1] not in "/+-":
                split = pos
        if split is None:
            return old_parse_coeff(inner)
        left, right = inner[:split], inner[split:]
        return old_parse_coeff(left) + old_parse_coeff(right)
    sign = 1
    while text and text[0] in "+-":
        if text[0] == "-":
            sign = -sign
        text = text[1:].strip()
    if not text:
        raise ParseError("empty coefficient")
    if text == "i":
        return sign * 1j
    try:
        value = sign * float(exprs._parse_rational(text.removesuffix("i")))
    except OverflowError:
        raise ParseError(f"coefficient {text!r} is too large") from None
    return value * 1j if text.endswith("i") else value + 0j


def old_render_laurent(p: LaurentPoly) -> str:
    if not p:
        return "0"
    out = []
    for t in p.support():
        coeff = p.coeff(t)
        mono = exprs._fmt_monomial(t, "t")
        c_str = exprs._fmt_complex(coeff)
        negate = c_str.startswith("-") and not c_str.startswith("-(")
        if negate:
            c_str = c_str[1:]
        if mono and c_str == "1":
            body = "*".join(mono)
        else:
            body = "*".join([c_str] + mono)
        if not out:
            out.append(body if not negate else f"-{body}")
        else:
            out.append(f"- {body}" if negate else f"+ {body}")
    return " ".join(out)


def old_render_word_poly(p: QPolynomial, hatted: bool = False) -> str:
    names_t, names_g = ("th", "gh") if hatted else ("t", "g")
    keys = p.support()
    if not keys:
        return "0"
    out = []
    for a, b in keys:
        c = p.coeff(a, b)
        pieces = []
        scalar = exprs._fmt_complex(c.scalar)
        negate = scalar.startswith("-") and not scalar.startswith("-(")
        if negate:
            scalar = scalar[1:]
        mono = exprs._fmt_monomial(a, names_t) + exprs._fmt_monomial(b, names_g)
        if scalar != "1" or not (mono or c.phase):
            pieces.append(scalar)
        if c.phase:
            pieces.append(f"w({c.phase})")
        pieces.extend(mono)
        body = "*".join(pieces)
        if not out:
            out.append(body if not negate else f"-{body}")
        else:
            out.append(f"- {body}" if negate else f"+ {body}")
    return " ".join(out)


def bits(z: complex) -> bytes:
    """The bytes of both parts, so that signed zeros count."""
    return struct.pack("<dd", z.real, z.imag)


_signs = st.one_of(st.just(""), st.text(alphabet="+- ", max_size=3))
_numbers = st.sampled_from(["0", "1", "2", "3/4", "-1/2", "1.5", "7/3", "10",
                            "i", "2i", "1/2i", "0i", "2.5i", "9" * 400])
_junk = st.sampled_from(["1/0", "", " ", "i2", "1e3", "()", "1*2"])
_joins = st.one_of(st.sampled_from(["+", "-", " + ", " - ", "+-"]),
                   st.sampled_from(["", "*"]))
# terms after the first take a join, which may also be a sign of their own
coefficients = st.one_of(
    st.recursive(
        st.builds(str.__add__, _signs,
                  st.one_of(_numbers, _numbers, _numbers, _junk)),
        lambda inner: st.builds(
            lambda signs, first, rest, pad:
                f"{signs}({pad}{first}{''.join(rest)}{pad})",
            _signs, st.one_of(st.just(""), inner),
            st.lists(st.builds(str.__add__, _joins, inner), max_size=2),
            st.sampled_from(["", " "])),
        max_leaves=8),
    # the sums the former reader took: two terms, the left one nested
    st.recursive(
        st.builds(str.__add__, _signs, _numbers),
        lambda inner: st.builds(
            lambda left, join, right: f"({left}{join}{right})",
            inner, st.sampled_from(["+", "-", " + ", " - "]),
            st.builds(str.__add__, _signs, _numbers)),
        max_leaves=4),
    st.text(alphabet="()+-/.i0123456789 ", max_size=14))


@settings(derandomize=True, max_examples=600, deadline=None)
@given(coefficients)
def test_coefficient_reader_matches_the_former_one(text):
    try:
        want = old_parse_coeff(text)
    except ParseError:
        want = None
    try:
        got = exprs._parse_coeff(text)
    except ParseError:
        # the former reader accepted nothing that is refused now
        assert want is None
        return
    if want is not None:
        assert bits(got) == bits(want)


_reals = st.one_of(
    st.integers(-5, 5).map(float),
    st.builds(lambda p, q: p / q, st.integers(-9, 9), st.integers(1, 12)),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-13, -1e-13, 2.0 ** 60, 1e300]))
_scalars = st.builds(complex, _reals, _reals)
_exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.dictionaries(_exponents, _scalars, max_size=5))
def test_render_laurent_matches_the_former_renderer(terms):
    p = LaurentPoly(2, terms)
    assert render_laurent(p) == old_render_laurent(p)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.dictionaries(st.tuples(_exponents, _exponents),
                       st.builds(Coeff, _scalars,
                                 st.builds(Phase, st.integers(-5, 5),
                                           st.integers(1, 8))),
                       max_size=5),
       st.booleans())
def test_render_word_poly_matches_the_former_renderer(terms, hatted):
    p = QPolynomial(2, terms)
    assert render_word_poly(p, hatted) == old_render_word_poly(p, hatted)


@pytest.mark.parametrize("text, value", [
    ("(1+(2i))*t1", 1 + 2j),
    ("(3+(1+2))*t1", 6),
    ("t1*-(1+2)", -3),
    ("-(-(1/2)-i)*t1", 0.5 + 1j),
])
def test_nested_and_signed_coefficients_parse_to_their_value(text, value):
    assert parse_laurent(text, 1) == LaurentPoly(1, {(1,): value})


@pytest.mark.parametrize("text", ["()", "( )", "(+)", "2*()*t1", "(1+())"])
def test_empty_parentheses_are_an_empty_coefficient(text):
    with pytest.raises(ParseError, match="empty coefficient"):
        parse_laurent(text, 1)


def test_nesting_beyond_the_recursion_limit_is_refused():
    assert parse_laurent("(" * 100 + "2" + ")" * 100, 1) \
        == LaurentPoly(1, {(0,): 2})
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_laurent("(" * 1000 + "2" + ")" * 1000, 1)


def test_a_coefficient_too_large_to_print_is_refused():
    for z in (complex(float("inf"), 0), complex(1e308, -1e308),
              complex(float("nan"), 1)):
        with pytest.raises(ValueError, match="overflows"):
            render_laurent(LaurentPoly(1, {(0,): z}))
