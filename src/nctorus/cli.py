"""Command-line front end.

Subcommands::

    nctorus param analyze [--param ...] [--json]
    nctorus qweyl mul WORD1 WORD2 [--param ...]
    nctorus star mul EXPR1 EXPR2 [--param ...]
    nctorus fm demo [--seed N] [--json]
    nctorus verify [--scope S] [--seed N] [--grid small|full] [--json]

``--param`` takes the deformation data as an inline JSON object
``{"M": [[...]], "N": n}`` or ``@path`` to a file holding one.  Exit
status is 0 on success, 1 when a verification fails, 2 on bad input or
when memory runs out.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .cocycle import BilinearCocycle
from .exprs import (
    ParseError,
    parse_laurent,
    parse_word,
    render_laurent,
    render_word_poly,
    word_side,
    word_to_poly,
)
from .lattice import (compute_H_hat, compute_K_hat, descend_cocycle,
                      lambda_sharp)
from .qweyl import mul_crossed
from .laurent import star_mul
from .verify import (default_params, fm_demo_model, fm_round_trip,
                     params_from_dict, run_battery)


# Largest quotient group whose sharp map ``param analyze`` lists; the listing
# has one entry per element, and N = 2**64 alone can give 2**128 of them.
MAX_ANALYZE_SIZE = 4096


def _load_params(text: str | None) -> BilinearCocycle:
    if text is None:
        return params_from_dict(default_params())
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"parameters are not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("parameters must be a JSON object")
    return params_from_dict(data)


def _emit(data: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(data, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_param_analyze(args) -> int:
    lam = _load_params(args.param)
    A = lam.antisymmetrized()
    sub = compute_H_hat(A, lam.N)
    quo = compute_K_hat(sub)
    if quo.group.size > MAX_ANALYZE_SIZE:
        raise ValueError(
            f"quotient group has {quo.group.size} elements; param analyze "
            f"lists the sharp map only up to {MAX_ANALYZE_SIZE} elements")
    table = descend_cocycle(lam, quo)
    pair = lambda_sharp(table)
    sharp = {str(list(k)): list(v) for k, v in pair.sharp.items()}
    data = {
        "M": [list(r) for r in lam.M],
        "N": lam.N,
        "g": lam.g,
        "antisymmetrization": [list(r) for r in A],
        "dual_kernel_basis": [list(c) for c in sub.columns()],
        "quotient_factors": list(quo.group.factors),
        "quotient_size": quo.group.size,
        "descended_form": table.as_dict(),
        "sharp": sharp,
    }
    lines = [
        f"deformation matrix M ({lam.g}x{lam.g}), root order N={lam.N}",
        f"antisymmetrization  : {data['antisymmetrization']}",
        f"dual kernel basis   : {data['dual_kernel_basis']}",
        f"quotient group      : factors {data['quotient_factors']} "
        f"(size {data['quotient_size']})",
        f"descended form      : {json.dumps(data['descended_form'], sort_keys=True)}",
        "sharp map           : bijective",
    ]
    _emit(data, args.json, lines)
    return 0


def cmd_qweyl_mul(args) -> int:
    lam = _load_params(args.param)
    a1 = parse_word(args.word1, lam.g)
    a2 = parse_word(args.word2, lam.g)
    sides = {word_side(a) for a in (a1, a2) if a}
    if len(sides) > 1:
        raise ParseError("cannot multiply across the two crossed products")
    side = sides.pop() if sides else "nc"
    # the cocycle is its own exact exchange rule, q[i][j] = zeta_N^{M_ij}
    p1 = word_to_poly(a1, lam, lam)
    p2 = word_to_poly(a2, lam, lam)
    prod = mul_crossed(p1, p2, lam, lam, side=side)
    print(render_word_poly(prod, hatted=(side == "gerby")))
    return 0


def cmd_star_mul(args) -> int:
    lam = _load_params(args.param)
    f = parse_laurent(args.expr1, lam.g)
    h = parse_laurent(args.expr2, lam.g)
    print(render_laurent(star_mul(f, h, lam)))
    return 0


def cmd_fm_demo(args) -> int:
    model = fm_demo_model()
    run = fm_round_trip(model, np.random.default_rng(args.seed))
    law, fact, (hd_sheaf, hd_module) = run.law, run.fact, run.hom_dims
    ok = law.ok and fact.ok and run.roundtrip_ok and hd_sheaf == hd_module
    dims = {str(list(b)): d for b, d in sorted(run.sheaf.dims.items())}
    data = {
        "model": {"B": list(model.B.factors),
                  "Khat": list(model.Khat.factors),
                  "embed": model.embed},
        "sheaf_dims": dims,
        "module_dim": run.module.dim,
        "transport_law_dev": law.max_dev,
        "factorization_dev": fact.max_dev,
        "roundtrip_ok": run.roundtrip_ok,
        "hom_dim_sheaves": hd_sheaf,
        "hom_dim_modules": hd_module,
        "ok": ok,
    }
    lines = [
        "model               : B=(4,), dual translation subgroup (2,), "
        "twist 1/2",
        f"sheaf grade dims    : {dims}",
        f"module dimension    : {run.module.dim}",
        f"transport law       : {'ok' if law.ok else 'FAIL'} "
        f"(dev {law.max_dev:.3g})",
        f"factorization       : {'ok' if fact.ok else 'FAIL'} "
        f"(dev {fact.max_dev:.3g})",
        f"inverse roundtrip   : {'ok' if run.roundtrip_ok else 'FAIL'}",
        f"hom dims preserved  : {hd_sheaf} == {hd_module}",
    ]
    _emit(data, args.json, lines)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    params = None
    if args.param is not None:
        lam = _load_params(args.param)
        params = {"M": [list(r) for r in lam.M], "N": lam.N}
    results = run_battery(scope=args.scope, seed=args.seed, grid=args.grid,
                          params=params, corrupt_phi=args.corrupt_phi)
    ok = all(r.ok for r in results)
    if args.json:
        print(json.dumps({
            "scope": args.scope, "seed": args.seed, "grid": args.grid,
            "ok": ok, "results": [r.to_dict() for r in results],
        }, sort_keys=True))
    else:
        for r in results:
            flag = "ok  " if r.ok else "FAIL"
            line = f"[{flag}] {r.name:<36} dev {r.max_dev:.3g}"
            if not r.ok and r.witness is not None:
                line += f"  witness {r.witness}"
            print(line)
        failures = sum(not r.ok for r in results)
        print(f"{len(results)} checks, {failures} failure"
              f"{'' if failures == 1 else 's'}")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every ``main``
    call; each subcommand's ``func`` default is fixed at that first build."""
    parser = argparse.ArgumentParser(
        prog="nctorus",
        description="Noncommutative-torus deformation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_param(p):
        p.add_argument("--param", metavar="JSON",
                       help='deformation data {"M": [[...]], "N": n}, '
                            "inline or @file")

    p_param = sub.add_parser("param", help="parameter-matrix analysis")
    sub_param = p_param.add_subparsers(dest="subcommand", required=True)
    p_analyze = sub_param.add_parser(
        "analyze", help="antisymmetrization, dual kernel, descended form")
    add_param(p_analyze)
    p_analyze.add_argument("--json", action="store_true",
                           help="machine-readable output")
    p_analyze.set_defaults(func=cmd_param_analyze)

    p_qweyl = sub.add_parser("qweyl", help="crossed-product words")
    sub_qweyl = p_qweyl.add_subparsers(dest="subcommand", required=True)
    p_mul = sub_qweyl.add_parser("mul", help="multiply two generator words")
    p_mul.add_argument("word1", help="e.g. 't1*g2^2' or 'th1*gh2'")
    p_mul.add_argument("word2")
    add_param(p_mul)
    p_mul.set_defaults(func=cmd_qweyl_mul)

    p_star = sub.add_parser("star", help="twisted Laurent products")
    sub_star = p_star.add_subparsers(dest="subcommand", required=True)
    p_smul = sub_star.add_parser("mul", help="star-multiply two polynomials")
    p_smul.add_argument("expr1", help="e.g. '2*t1^2 - 3/4*t2 + i'")
    p_smul.add_argument("expr2")
    add_param(p_smul)
    p_smul.set_defaults(func=cmd_star_mul)

    p_fm = sub.add_parser("fm", help="deformed transform demo")
    sub_fm = p_fm.add_subparsers(dest="subcommand", required=True)
    p_demo = sub_fm.add_parser(
        "demo", help="transform a random sheaf and report the invariants")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--json", action="store_true",
                        help="machine-readable output")
    p_demo.set_defaults(func=cmd_fm_demo)

    p_verify = sub.add_parser("verify", help="run the property batteries")
    p_verify.add_argument("--scope", default="all",
                          choices=("all", "cocycle", "weyl", "lattice",
                                   "star", "equivariant", "fm"))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--grid", default="small",
                          choices=("small", "full"))
    add_param(p_verify)
    p_verify.add_argument("--json", action="store_true",
                          help="machine-readable output")
    p_verify.add_argument("--corrupt-phi", action="store_true",
                          help=argparse.SUPPRESS)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
