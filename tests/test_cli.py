import contextlib
import io
import json
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nctorus import cli, finitefm, verify
from nctorus.equivariant import EquivariantObject
from nctorus.cli import MAX_ANALYZE_SIZE, build_parser, main
from nctorus.exprs import parse_laurent
from nctorus.laurent import star_mul


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_param_analyze_default(capsys):
    rc, out, err = run_cli(capsys, "param", "analyze")
    assert rc == 0 and not err
    assert "antisymmetrization  : [[0, 1], [3, 0]]" in out
    assert "factors [4, 4] (size 16)" in out
    assert "bijective" in out


def test_param_analyze_json(capsys):
    rc, out, _ = run_cli(capsys, "param", "analyze", "--json")
    data = json.loads(out)
    assert data["antisymmetrization"] == [[0, 1], [3, 0]]
    assert data["quotient_factors"] == [4, 4]
    assert data["descended_form"]["omega"] == [["1/4", "1/4"], ["0", "1/4"]]
    assert data["sharp"]["[0, 0]"] == [0, 0]


def test_param_analyze_custom(capsys):
    param = json.dumps({"M": [[0, 2], [0, 0]], "N": 4})
    rc, out, _ = run_cli(capsys, "param", "analyze", "--param", param,
                         "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["antisymmetrization"] == [[0, 2], [2, 0]]
    assert data["quotient_size"] == 4


def test_param_file_argument(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"M": [[0, 1], [0, 0]], "N": 2}))
    rc, out, _ = run_cli(capsys, "param", "analyze", "--param", f"@{path}",
                         "--json")
    assert rc == 0
    assert json.loads(out)["N"] == 2


def test_qweyl_mul_reordering_phase(capsys):
    rc, out, _ = run_cli(capsys, "qweyl", "mul", "t2", "t1")
    assert rc == 0
    assert out.strip() == "w(3/4)*t1*t2"


def test_qweyl_mul_shift_exchange(capsys):
    rc, out, _ = run_cli(capsys, "qweyl", "mul", "g2", "t1^2")
    assert rc == 0
    assert out.strip() == "w(1/2)*t1^2*g2"


def test_qweyl_mul_gerby(capsys):
    rc, out, _ = run_cli(capsys, "qweyl", "mul", "gh2", "th1")
    assert rc == 0
    assert out.strip() == "th1*gh2"


def test_qweyl_mixed_sides_rejected(capsys):
    rc, out, err = run_cli(capsys, "qweyl", "mul", "t1", "th2")
    assert rc == 2
    assert "crossed products" in err


def test_star_mul(capsys):
    rc, out, _ = run_cli(capsys, "star", "mul", "2*t1^2 - 3/4*t2 + i",
                         "t1^-1")
    assert rc == 0
    assert out.strip() == "i*t1^-1 - 3/4*t1^-1*t2 + 2*t1"


def test_star_mul_bad_expression(capsys):
    rc, _, err = run_cli(capsys, "star", "mul", "q1", "t1")
    assert rc == 2 and "error:" in err


@pytest.mark.parametrize("expr", ["1/0", "0/0", "2/0*t1", "1/0i"])
def test_star_mul_zero_denominator_is_bad_input(capsys, expr):
    rc, out, err = run_cli(capsys, "star", "mul", expr, "1")
    assert rc == 2 and not out
    assert err.startswith("error:") and "zero denominator" in err


@pytest.mark.parametrize("expr", ["9" * 400, "9" * 400 + "i",
                                  "t1 - " + "9" * 400 + "i*t2"],
                         ids=["real", "imaginary", "in-a-sum"])
def test_star_mul_coefficient_too_large_for_float_is_bad_input(capsys, expr):
    rc, out, err = run_cli(capsys, "star", "mul", expr, "1")
    assert rc == 2 and not out
    assert err.startswith("error:") and "too large" in err


@pytest.mark.parametrize("expr1, expr2", [
    ("9" * 300, "9" * 300),                          # inf
    ("9" * 300 + "*t1", "9" * 300 + "i*t2"),         # inf + inf i
    ("9" * 300 + "*t1 - 9" + "9" * 300, "9" * 300),  # a sum of infs
], ids=["real", "complex", "in-a-sum"])
def test_star_mul_product_too_large_to_print_is_bad_input(capsys, expr1,
                                                          expr2):
    """Such a product printed as ``0`` before."""
    rc, out, err = run_cli(capsys, "star", "mul", expr1, expr2)
    assert rc == 2 and not out
    assert err.startswith("error:") and "overflows" in err


def test_bad_param_json(capsys):
    rc, _, err = run_cli(capsys, "star", "mul", "t1", "t1",
                         "--param", "{not json")
    assert rc == 2 and "JSON" in err


def test_missing_param_file(capsys):
    rc, _, err = run_cli(capsys, "param", "analyze", "--param",
                         "@/no/such/file.json")
    assert rc == 2


@pytest.mark.parametrize("param,needle", [
    ('{"M": 5, "N": 4}', '"M" must be a list of rows'),
    ('{"M": [5, 6], "N": 4}', '"M" must be a list of rows'),
    ('{"M": [[null]], "N": 3}', "M[0][0] must be an integer, got None"),
    ('{"M": [[0, 1.5], [0, 0]], "N": 4}', "M[0][1] must be an integer"),
    ('{"M": [[0, 1e3], [0, 0]], "N": 4}', "M[0][1] must be an integer"),
    ('{"M": [[0, 1], [true, 0]], "N": 4}', "M[1][0] must be an integer"),
    ('{"M": [[0, 1], [0, 0]], "N": 4.0}', "N must be an integer"),
    ('{"M": [[0, 1], [0, 0]], "N": "4"}', "N must be an integer"),
    ('{"M": [[0, 1], [0, 0]], "N": 4, "g": 2.0}', "g must be an integer"),
], ids=["M-scalar", "M-flat", "null", "float", "float-exp", "bool",
        "N-float", "N-string", "g-float"])
def test_non_integer_params_are_bad_input(capsys, param, needle):
    for cmd in (["param", "analyze"], ["star", "mul", "t1", "t1"]):
        rc, out, err = run_cli(capsys, *cmd, "--param", param)
        assert rc == 2 and not out
        assert needle in err


def test_param_analyze_at_2_pow_64_refuses_huge_quotient(capsys):
    param = json.dumps({"M": [[0, 1], [0, 0]], "N": 2 ** 64})
    rc, out, err = run_cli(capsys, "param", "analyze", "--param", param)
    assert rc == 2 and not out
    assert f"quotient group has {2 ** 128} elements" in err
    # the limit is inclusive: (Z/64)^2 has exactly MAX_ANALYZE_SIZE elements
    assert MAX_ANALYZE_SIZE == 64 ** 2
    param = json.dumps({"M": [[0, 1], [0, 0]], "N": 64})
    rc, out, _ = run_cli(capsys, "param", "analyze", "--param", param,
                         "--json")
    assert rc == 0 and len(json.loads(out)["sharp"]) == 64 ** 2


def test_param_analyze_of_large_rank_and_order_is_refused_quickly(capsys):
    """A Smith reduction of this form alone takes about 13 s."""
    rng = np.random.default_rng(14)
    M = rng.integers(-2**62, 2**62, size=(14, 14)).tolist()
    param = json.dumps({"M": M, "N": 2 ** 64})
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "param", "analyze", "--param", param)
    assert time.perf_counter() - start < 5
    assert rc == 2 and not out and "quotient group has" in err


HUGE_N = json.dumps({"M": [[0, 1], [0, 0]], "N": 2 ** 64})


def test_star_mul_at_2_pow_64(capsys):
    rc, out, err = run_cli(capsys, "star", "mul", "t1 + t2", "t1^-1",
                           "--param", HUGE_N)
    assert rc == 0 and not err
    assert out.strip() == "t1^-1*t2 + 1"


@pytest.mark.parametrize("scope", ["cocycle", "star", "weyl"])
def test_verify_at_2_pow_64(capsys, scope):
    rc, out, err = run_cli(capsys, "verify", "--scope", scope,
                           "--param", HUGE_N)
    assert rc == 0 and not err
    assert "0 failures" in out


@pytest.mark.parametrize("rank", [6, 8])
def test_verify_refuses_a_param_of_large_rank(capsys, rank):
    """Past rank 5 the cocycle battery's window exceeds
    ``MAX_PARAM_WINDOW_POINTS``: bad input, refused before any battery."""
    param = json.dumps({"M": [[int(j > i) for j in range(rank)]
                              for i in range(rank)], "N": 2})
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, "verify", "--param", param)
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2 and not out and "Traceback" not in err
    assert err == (f"error: the parameter's window has {9 ** rank} points; "
                   f"verify takes at most MAX_PARAM_WINDOW_POINTS "
                   f"({verify.MAX_PARAM_WINDOW_POINTS})\n")


def test_unknown_scope_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--scope", "bogus"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("as_json", [False, True])
def test_verify_negative_seed_is_bad_input(capsys, as_json):
    argv = ["verify", "--seed", "-1", *(["--json"] if as_json else [])]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and not out
    assert err == "error: seed must be non-negative, got -1\n"


def test_fm_demo(capsys):
    rc, out, _ = run_cli(capsys, "fm", "demo", "--seed", "3")
    assert rc == 0
    assert "factorization       : ok" in out
    assert "hom dims preserved" in out


def test_fm_demo_json(capsys):
    rc, out, _ = run_cli(capsys, "fm", "demo", "--seed", "5", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["hom_dim_sheaves"] == data["hom_dim_modules"]


def test_verify_ok_and_deterministic(capsys):
    rc1, out1, _ = run_cli(capsys, "verify", "--scope", "all", "--seed", "7")
    rc2, out2, _ = run_cli(capsys, "verify", "--scope", "all", "--seed", "7")
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "0 failures" in out1


def test_verify_json(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--scope", "star", "--seed", "1",
                         "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert all(r["ok"] for r in data["results"])


def test_verify_corrupt_phi_fails_with_witness(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--scope", "equivariant",
                         "--seed", "7", "--corrupt-phi")
    assert rc == 1
    assert "FAIL" in out and "witness" in out


@pytest.mark.parametrize("as_json", [False, True])
def test_verify_records_a_battery_exception_as_failure(capsys, monkeypatch,
                                                      as_json):
    def broken(seed, grid):
        raise ValueError("internal failure")

    monkeypatch.setattr(verify, "battery_lattice", broken)
    argv = ["verify", "--scope", "all", "--seed", "7"]
    rc, out, err = run_cli(capsys, *argv, *(["--json"] if as_json else []))
    assert rc == 1 and not err
    if as_json:
        results = json.loads(out)["results"]
        assert [r for r in results if not r["ok"]] == [
            {"name": "lattice-battery", "ok": False, "max_dev": 1.0,
             "witness": "ValueError: internal failure"}]
        assert {r["name"] for r in results} >= {"cocycle-identity",
                                                "fm-roundtrip-and-factorization"}
    else:
        assert ("[FAIL] lattice-battery                      dev 1  "
                "witness ValueError: internal failure") in out.splitlines()
        assert out.endswith(" checks, 1 failure\n")


@pytest.mark.parametrize("exc, message", [
    (MemoryError, "MemoryError"),
    (MemoryError("cannot allocate 8 GiB"), "cannot allocate 8 GiB")])
def test_verify_out_of_memory_is_no_failed_check(capsys, monkeypatch, exc,
                                                 message):
    """Exit 1 means only that a check failed: a MemoryError inside a
    battery leaves run_battery and exits 2, without a traceback."""
    def exhausted(seed, grid):
        raise exc

    monkeypatch.setattr(verify, "battery_lattice", exhausted)
    with pytest.raises(MemoryError):
        verify.run_battery("lattice")
    rc, out, err = run_cli(capsys, "verify", "--scope", "all", "--seed", "7")
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def by_name(results):
    return {r.name: r for r in results}


def test_verify_counts_a_nan_deviation_as_a_failure(monkeypatch):
    monkeypatch.setattr(verify, "max_coeff_diff",
                        lambda f, h: float("nan"))
    star = by_name(verify.run_battery("star", seed=0))["star-associative"]
    assert not star.ok and star.max_dev == float("inf")
    assert star.witness == 0


def test_verify_names_where_the_hom_space_fails_to_intertwine():
    hom = by_name(verify.run_battery("equivariant", seed=7,
                                     corrupt_phi=True))["hom-space-intertwines"]
    assert not hom.ok and hom.max_dev > 0.1
    assert hom.witness == (0, (0, 1), (1, 0))


def test_verify_fm_names_the_first_failing_model(monkeypatch, capsys):
    monkeypatch.setattr(verify, "module_hom_dim", lambda a, b: -1)
    fm = by_name(verify.run_battery("fm", seed=0))[
        "fm-roundtrip-and-factorization"]
    assert (fm.ok, fm.max_dev, fm.witness) == (False, 1.0, (0, "hom-dims"))
    rc, out, _ = run_cli(capsys, "verify", "--scope", "fm")
    assert rc == 1
    assert ("[FAIL] fm-roundtrip-and-factorization       dev 1  "
            "witness (0, 'hom-dims')") in out.splitlines()


def without_a_basis_vector(bases, rep):
    """The eigenspace bases with one vector dropped from the first
    nonzero eigenspace."""
    W, ranks = bases[0].copy(), list(bases[1])
    beta = next(b for b, r in enumerate(ranks) if r)
    ranks[beta] -= 1
    W[beta] = np.pad(W[beta, :, 1:], ((0, 0), (0, 1)))
    return W, ranks


def with_block_modules_doubled(framed, model, module):
    """A block module framed as the direct sum of its blocks with
    themselves; a dense module framed as it was."""
    blocks, frame = framed
    if module.blocks is None:
        return framed
    rho = {g: {p: np.kron(np.eye(2), m) for p, m in per.items()}
           for g, per in blocks.rho.items()}
    dims = {p: 2 * d for p, d in blocks.dims.items()}
    return EquivariantObject(blocks.gset, dims, rho), frame


# A spoiled eigenspace basis breaks the dense module's blocks, which the
# round trip and then the hom count read: the count refuses the
# non-square transport and the battery raises.
EIGENSPACE_WITNESS = ("fm-battery",
                      "ValueError: a transport out of (0,) is not invertible")


@pytest.mark.parametrize("name, spoil, witness", [
    ("_eigenspace_bases", without_a_basis_vector, EIGENSPACE_WITNESS),
    ("_framed", with_block_modules_doubled,
     ("fm-roundtrip-and-factorization", (0, "hom-dims"))),
])
def test_verify_fm_runs_the_dense_module_routines(monkeypatch, capsys, name,
                                                  spoil, witness):
    """The fm battery inverts and counts a dense module against a block
    one: a spoiled eigenspace basis of the dense module, or spoiled blocks
    of the block module, must fail it."""
    right = getattr(finitefm, name)
    monkeypatch.setattr(finitefm, name,
                        lambda *args: spoil(right(*args), *args))
    check, where = witness
    fm = by_name(verify.run_battery("fm", seed=0))[check]
    assert (fm.ok, fm.max_dev, fm.witness) == (False, 1.0, where)
    rc, out, _ = run_cli(capsys, "verify", "--scope", "fm")
    assert rc == 1
    assert f"[FAIL] {check:<36} dev 1  witness {where}" in out.splitlines()


def test_verify_subprocess_byte_identical():
    cmd = [sys.executable, "-m", "nctorus.cli", "verify", "--scope", "all",
           "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_one_parser_serves_every_call_like_a_fresh_process(capsys):
    """The parser is built once per process; an argparse error between
    two calls leaves nothing behind that a fresh run would not show."""
    usage_error = ["verify", "--scope", "bogus"]
    calls = [usage_error, ["star", "mul", "t1 + 2", "t2"], usage_error,
             ["verify", "--scope", "cocycle", "--seed", "3"]]
    for argv in calls:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "nctorus.cli", *argv],
                               capture_output=True, text=True)
        assert (rc, out, err) == (fresh.returncode, fresh.stdout,
                                  fresh.stderr)
    assert build_parser() is build_parser()


# ---------------------------------------------------------------------------
# the text grammar under random input

# one_of draws its branches evenly, so a branch named twice is drawn twice
# as often; that is how well-formed text is made the more likely
_powers = st.one_of(st.integers(-4, 4), st.integers(-4, 4),
                    st.integers(-2**70, 2**70),
                    st.sampled_from(["1" + "0" * 4000, "-" + "9" * 4000,
                                     "1" + "0" * 5000]))
_atoms = st.builds(lambda kind, index, power, caret:
                   f"{kind}{index}" + (f"^{power}" if caret else ""),
                   st.sampled_from(["t", "t", "t", "g", "th", "gh", "x", ""]),
                   st.one_of(st.integers(1, 2), st.integers(1, 2),
                             st.integers(0, 10**6)),
                   _powers, st.booleans())
_numbers = st.sampled_from(["2", "3/4", "1.5", "i", "2i", "7/3", "1",
                            "9" * 300, "8" * 300 + "i"])
_junk = st.sampled_from(["1/0", "9" * 400, "", "(", "()", "x", "1e3"])
_coeffs = st.recursive(
    st.one_of(_numbers, _numbers, _junk),
    lambda inner: st.builds(
        lambda signs, first, rest: f"{signs}({first}{''.join(rest)})",
        st.sampled_from(["", "", "-", "+-", " - "]), inner,
        st.lists(st.builds(str.__add__,
                           st.sampled_from(["+", "-", " - ", "", "*"]),
                           inner),
                 max_size=2)),
    max_leaves=6)
_monomials = st.builds(lambda index, power: f"t{index}^{power}",
                       st.integers(1, 2), _powers)
_terms = st.builds(lambda signs, factors: signs + "*".join(factors),
                   st.sampled_from(["", "", "-", "+-", "- "]),
                   st.lists(st.one_of(_coeffs, _monomials, _monomials,
                                      _atoms),
                            min_size=1, max_size=4))
# sums of well-formed terms: a coefficient and monomials in t1, t2
_sums = st.lists(
    st.builds(lambda coeff, monomials: "*".join([coeff, *monomials]),
              _numbers, st.lists(_monomials, max_size=2)),
    min_size=1, max_size=3).map(" + ".join)
_texts = st.one_of(
    _sums, _sums,
    st.lists(_terms, min_size=1, max_size=4).map(" + ".join),
    st.lists(_terms, min_size=1, max_size=4).map(" - ".join),
    st.text(alphabet="tgh1230^-+*/()i. ", max_size=20),
    st.builds(lambda depth, inner: "(" * depth + inner + ")" * depth,
              st.sampled_from([1, 50, 600]), _coeffs))
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10**30, 10**30),
              st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=2), inner,
                                            max_size=3)),
    max_leaves=8)
_matrices = st.one_of(st.integers(0, 3), st.integers(0, 16)).flatmap(
    lambda rank: st.lists(
        st.lists(st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70)),
                 min_size=rank, max_size=rank),
        min_size=rank, max_size=rank))
_well_formed = st.builds(
    lambda M, N, g: json.dumps(
        {"M": M, "N": N, **({} if g is None else {"g": g})}),
    _matrices,
    st.one_of(st.integers(2, 12), st.integers(-2, 70), st.just(2**64),
              st.integers(2, 10**40)),
    st.one_of(st.none(), st.none(), st.integers(0, 4)))
# well-formed parameters of rank 1-5, each with its rank; verify runs every
# scope on them
_ranked_params = st.integers(1, 5).flatmap(lambda g: st.tuples(
    st.just(g), st.builds(
        lambda M, N: json.dumps({"M": M, "N": N}),
        st.lists(st.lists(st.integers(-3, 3), min_size=g, max_size=g),
                 min_size=g, max_size=g),
        st.integers(2, 12))))
_params = st.one_of(
    st.none(), st.none(), _well_formed, _well_formed,
    _ranked_params.map(lambda gp: gp[1]),
    # a valid JSON object of any other shape
    st.builds(lambda M, N, g: json.dumps({"M": M, "N": N, "g": g}),
              _json | _matrices, _json, _json),
    _json.map(json.dumps),
    st.sampled_from(["{", "@/nonexistent/param.json", "[1, 2]"]))
_words = st.one_of(st.lists(_atoms, max_size=3).map("*".join),
                   st.lists(_atoms, max_size=3).map("*".join), _texts)
_commands = st.one_of(
    st.builds(lambda a, b: ["star", "mul", a, b], _texts, _texts),
    st.builds(lambda a, b: ["qweyl", "mul", a, b], _words, _words),
    st.sampled_from([["param", "analyze"], ["param", "analyze", "--json"]]))



def _one_sided_products(g, param):
    """``qweyl mul`` of two words in the generators of one side of the
    crossed product, at a parameter of rank ``g``, with that parameter."""
    def word(hat):
        atom = st.builds(lambda kind, index, power: f"{kind}{hat}{index}^{power}",
                         st.sampled_from("tg"), st.integers(1, g), _powers)
        return st.lists(atom, min_size=1, max_size=3).map("*".join)
    return st.sampled_from(["", "h"]).flatmap(
        lambda hat: st.tuples(word(hat), word(hat))).map(
            lambda words: (["qweyl", "mul", *words], param))


# one call in four multiplies well-formed words
_calls = st.one_of(st.tuples(_commands, _params), st.tuples(_commands, _params),
                   st.tuples(_commands, _params),
                   _ranked_params.flatmap(lambda gp: _one_sided_products(*gp)))

CALL_LIMIT_S = 2.0
_EXACT_FACTOR = re.compile(r"w\(\d+/\d+\)|(th|gh|t|g)\d+(\^-?\d+)?")


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # an argparse usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_calls)
# a float period scalar raised to these powers printed a wrong phase
@example((["qweyl", "mul", "g2^" + "9" * 20, "t1^" + "9" * 17], None))
def test_random_text_exits_0_or_2_in_bounded_time(call):
    """The text commands on random input: exit 0 or 2, no traceback, a
    bounded time per call, a printed star product that reads back as the
    product, and a printed crossed product of one exact term."""
    command, param = call
    argv = command + ([] if param is None else ["--param", param])
    code, out, err, seconds = _call(argv)
    assert code in (0, 2), (argv, err)
    assert "Traceback" not in err
    assert seconds < CALL_LIMIT_S, argv
    if code == 0 and command[0] == "qweyl":
        # a product of two words is one exact term: an optional exchange
        # phase w(p/q) times generator powers, and no float scalar
        factors = out.strip().split("*")
        assert sum(f.startswith("w(") for f in factors) <= 1, out
        assert out.strip() == "1" or all(map(_EXACT_FACTOR.fullmatch,
                                             factors)), out
    if code == 0 and command[0] == "star":
        lam = cli._load_params(param)
        want = star_mul(parse_laurent(command[2], lam.g),
                        parse_laurent(command[3], lam.g), lam)
        back = parse_laurent(out, lam.g)
        assert back.coeffs.keys() == want.coeffs.keys()
        assert all(abs(back.coeffs[t] - c) <= 2e-12 * abs(c)
                   for t, c in want.coeffs.items())


# verify and fm demo: the two commands that may exit 1.  A rank-5 --param
# makes verify --scope all --grid full take about 1.6 s in-process.
BATTERY_CALL_LIMIT_S = 5.0
_seeds = st.one_of(st.integers(0, 50), st.integers(-3, -1),
                   st.integers(2**62, 2**80))
_batteries = st.one_of(
    st.builds(lambda scope, grid, seed, as_json, corrupt, param:
              ["verify", "--scope", scope, "--grid", grid, "--seed", str(seed),
               *(["--json"] if as_json else []),
               *(["--corrupt-phi"] if corrupt else []),
               *([] if param is None else ["--param", param])],
              st.sampled_from(["all", *verify.SCOPES]),
              st.sampled_from(["small", "full"]), _seeds, st.booleans(),
              st.booleans(), _params),
    st.builds(lambda seed, as_json:
              ["fm", "demo", "--seed", str(seed),
               *(["--json"] if as_json else [])],
              _seeds, st.booleans()))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_batteries)
@example(["verify", "--scope", "equivariant", "--seed", "7", "--corrupt-phi"])
def test_random_battery_runs_exit_0_1_or_2_in_bounded_time(argv):
    """verify and fm demo on random scopes, grids, seeds and parameters:
    exit 0, 1 or 2, no traceback and a bounded time per call.  Exit 1 means
    a failed check, which only the deliberately corrupted run may show."""
    code, out, err, seconds = _call(argv)
    assert code in (0, 1, 2), (argv, err)
    assert code != 1 or "--corrupt-phi" in argv, (argv, out)
    assert "Traceback" not in err
    assert seconds < BATTERY_CALL_LIMIT_S, argv
