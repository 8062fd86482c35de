"""Seeded property batteries over the whole library.

Each battery runs a handful of independent checks on randomized but
seed-determined inputs and returns :class:`PropertyResult` records; the
command-line ``verify`` subcommand renders them and fails when any check
does.  Scopes mirror the module layout: ``cocycle``, ``weyl``,
``lattice``, ``star``, ``equivariant``, ``fm``, or ``all``.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import namedtuple
from typing import Mapping

import numpy as np

from .cocycle import (
    BilinearCocycle,
    ExponentWindow,
    Phase,
    bounding_cochain,
    check_cocycle,
    normal_order_representative,
)
from .equivariant import (
    GroupCocycleTable,
    GSet,
    LinearizationReport,
    check_linearization,
    free,
    hom_dim,
    hom_space,
    retwist,
    twisted_algebra,
)
from .finitefm import (
    DeformedKernel,
    ModuleOnXLambda,
    TorusModel,
    check_fm_ab_equivariance,
    dual_side_product,
    fm_ab,
    fm_ab_equivariance_iso,
    fm_ab_inverse,
    fm_lambda,
    fm_lambda_inverse,
    module_hom_dim,
    random_sheaf,
    star_on_points,
    translate_graded,
    verify_factorization,
)
from .lattice import (
    FiniteAbelianGroup,
    GroupBilinearTable,
    compute_H_hat,
    compute_K_hat,
    descend_cocycle,
    lambda_sharp,
    subgroup_presentation,
)
from .laurent import (
    LaurentPoly,
    coboundary_transform,
    majorant_norm,
    max_coeff_diff,
    star_mul,
    translate,
)
from .qweyl import (
    PeriodMatrix,
    PModuleElement,
    QPolynomial,
    gamma_action,
    max_value_diff,
    mul_crossed,
    mul_W,
    pmodule_act_gamma,
    pmodule_act_gammahat,
)


class PropertyResult:
    """Outcome of one named check, read from the report that recorded its
    deviations: verdict, worst deviation observed, and where a deviation
    first exceeded the tolerance."""

    __slots__ = ("name", "ok", "max_dev", "witness")

    def __init__(self, name: str, report: LinearizationReport):
        self.name = name
        self.ok = bool(report.ok)
        self.max_dev = float(report.max_dev)
        self.witness = report.witness

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok,
                "max_dev": self.max_dev,
                "witness": None if self.witness is None else str(self.witness)}

    def __repr__(self) -> str:
        flag = "ok" if self.ok else "FAIL"
        return f"PropertyResult({self.name}: {flag}, dev={self.max_dev:.3g})"


def _exact(name: str, ok: bool, witness=None) -> PropertyResult:
    """A single exact verdict as a result: deviation 0 or 1."""
    report = LinearizationReport()
    report.note(float(not ok), witness)
    return PropertyResult(name, report)


def default_params() -> dict:
    return {"M": [[0, 1], [0, 0]], "N": 4}


def _integer(value, what: str) -> int:
    """``value`` as an ``int``; bools, floats, ``None`` and strings are
    refused rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def params_from_dict(data: Mapping) -> BilinearCocycle:
    """Validate a ``{"M": ..., "N": ..., "g": ...}`` mapping and build the
    bilinear phase table it describes."""
    if "M" not in data or "N" not in data:
        raise ValueError('parameters need at least "M" and "N"')
    M = data["M"]
    if not isinstance(M, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in M):
        raise ValueError('"M" must be a list of rows of integers')
    M = [[_integer(x, f"M[{i}][{j}]") for j, x in enumerate(row)]
         for i, row in enumerate(M)]
    lam = BilinearCocycle(M, _integer(data["N"], "N"))
    if "g" in data and _integer(data["g"], "g") != lam.g:
        raise ValueError(f'declared g={data["g"]} does not match the '
                         f"{lam.g}x{lam.g} matrix")
    return lam


def _random_symmetric(g: int, N: int, rng) -> list:
    # numpy draws stay below 2**63; symmetrize in Python ints for any N
    S = rng.integers(0, min(N, 2**63 - 1), size=(g, g)).tolist()
    return [[(S[i][j] + S[j][i]) % N for j in range(g)] for i in range(g)]


def _random_laurent(g: int, rng, terms: int = 4,
                    radius: int = 2) -> LaurentPoly:
    data = {}
    for _ in range(terms):
        t = tuple(int(rng.integers(-radius, radius + 1)) for _ in range(g))
        data[t] = complex(rng.normal(), rng.normal())
    return LaurentPoly(g, data)


def _random_qpoly(g: int, rng, terms: int = 3, radius: int = 2) -> QPolynomial:
    poly = QPolynomial.zero(g)
    for _ in range(terms):
        a = tuple(int(rng.integers(-radius, radius + 1)) for _ in range(g))
        poly = poly + QPolynomial.monomial(g, a, None,
                                           complex(rng.normal(), rng.normal()))
    return poly


def battery_cocycle(seed: int = 0, grid: str = "small",
                    params: Mapping = None) -> list:
    """The parameters' cocycle identity, its twist by the coboundary of a
    random symmetric ``S`` into ``M - S`` (checked on integer exponent
    arrays), the class invariant and the normal-order representative."""
    rng = np.random.default_rng(seed)
    lam = params_from_dict(params or default_params())
    out = []

    if grid == "full":
        samples = None if lam.g <= 2 else 2000
    else:
        samples = 300
    out.append(_exact("cocycle-identity",
                      *check_cocycle(lam, samples=samples, rng=rng)))

    S = _random_symmetric(lam.g, lam.N, rng)
    doubled = ExponentWindow.centered(lam.g, 4)
    alpha = bounding_cochain(S, lam.N, window=doubled)
    target = BilinearCocycle(
        [[lam.M[i][j] - S[i][j] for j in range(lam.g)] for i in range(lam.g)],
        lam.N)
    # alpha(s) + alpha(t) - alpha(s + t) + s.M.t == s.(M - S).t for all
    # pairs at once, as exponents over the phases' common order L
    window = list(ExponentWindow.centered(lam.g, 2))
    phases = [alpha(t) for t in doubled]
    L = math.lcm(lam.N, *(p.d for p in phases))
    dtype = np.int64 if 16 * lam.g ** 2 * L < 2 ** 62 else object
    a = np.array([p.n * (L // p.d) for p in phases], dtype=dtype)
    P, Q = np.array(window), np.array(window, dtype=dtype)
    place = 9 ** np.arange(lam.g)[::-1]  # index of v + 4 in the doubled one
    at = a[(P + 4) @ place]
    twist = Q @ (np.array(lam.M, dtype) - np.array(target.M, dtype)) @ Q.T
    bad = np.flatnonzero((at[:, None] + at - a[(P[:, None] + P + 4) @ place]
                          + twist * (L // lam.N)) % L)
    out.append(_exact("coboundary-shifts-matrix", not bad.size, bad.size and (
        window[bad[0] // len(window)], window[bad[0] % len(window)])))

    out.append(_exact("antisymmetrization-class-invariant",
                      target.antisymmetrized() == lam.antisymmetrized()))

    rep = normal_order_representative(lam)
    out.append(_exact("normal-order-representative",
                      rep.antisymmetrized() == lam.antisymmetrized()
                      and all(rep.M[i][j] == 0 for i in range(lam.g)
                              for j in range(i, lam.g))))
    return out


def battery_weyl(seed: int = 0, grid: str = "small",
                 params: Mapping = None) -> list:
    rng = np.random.default_rng(seed + 1)
    lam = params_from_dict(params or default_params())
    g = lam.g
    Q = PeriodMatrix([[np.exp(2j * np.pi * rng.random())
                       * (0.5 + rng.random()) for _ in range(g)]
                      for _ in range(g)])
    rounds = 6 if grid == "full" else 3
    out = []

    rep = normal_order_representative(lam)
    report = LinearizationReport()
    for r in range(rounds):
        f = _random_qpoly(g, rng)
        h = _random_qpoly(g, rng)
        k = _random_qpoly(g, rng)
        lhs = mul_W(mul_W(f, h, rep), k, rep)
        rhs = mul_W(f, mul_W(h, k, rep), rep)
        report.note(max_value_diff(lhs, rhs), r)
    out.append(PropertyResult("weyl-associative", report))

    report = LinearizationReport()
    for r in range(rounds):
        f = _random_qpoly(g, rng)
        h = _random_qpoly(g, rng)
        prod = mul_W(f, h, rep)
        fl = LaurentPoly(g, {a: c for (a, _), c in f.value_dict().items()})
        hl = LaurentPoly(g, {a: c for (a, _), c in h.value_dict().items()})
        sl = star_mul(fl, hl, rep)
        got = {a: c for (a, _), c in prod.value_dict().items()}
        want = {t: sl.coeff(t) for t in sl.support()}
        for t in set(got) | set(want):
            report.note(abs(got.get(t, 0) - want.get(t, 0)), (r, t))
    out.append(PropertyResult("weyl-matches-star-product", report))

    report = LinearizationReport()
    for i, j in itertools.product(range(g), repeat=2):
        ti = QPolynomial.monomial(g, tuple(int(i == x) for x in range(g)))
        gj = QPolynomial.monomial(
            g, (0,) * g, tuple(int(j == x) for x in range(g)))
        report.note(max_value_diff(
            mul_crossed(gj, ti, lam, Q),
            Q.entry(i, j) * mul_crossed(ti, gj, lam, Q)), (i, j))
        report.note(max_value_diff(
            mul_crossed(gj, ti, lam, Q, side="gerby"),
            Q.entry(j, i) * mul_crossed(ti, gj, lam, Q, side="gerby")),
            (i, j))
    out.append(PropertyResult("crossed-exchange-relation", report))

    report = LinearizationReport()
    for r in range(rounds):
        f = _random_qpoly(g, rng, radius=1)
        for j in range(g):
            gj = QPolynomial.monomial(
                g, (0,) * g, tuple(int(j == x) for x in range(g)))
            gj_inv = QPolynomial.monomial(
                g, (0,) * g, tuple(-int(j == x) for x in range(g)))
            sandwich = mul_crossed(mul_crossed(gj_inv, f, lam, Q), gj, lam, Q)
            report.note(max_value_diff(sandwich, gamma_action(f, j, Q)),
                        (r, j))
    out.append(PropertyResult("gamma-sandwich-action", report))

    report = LinearizationReport()
    A = lam.antisymmetrized()
    for r in range(rounds):
        key = tuple(map(tuple, rng.integers(-1, 2, size=(2, g)).tolist()))
        v = PModuleElement(g, {key: complex(rng.normal(), rng.normal())})
        for i, j in itertools.combinations(range(g), 2):
            lhs = pmodule_act_gammahat(
                pmodule_act_gammahat(v, j, lam, Q), i, lam, Q)
            rhs = pmodule_act_gammahat(
                pmodule_act_gammahat(v, i, lam, Q), j, lam, Q)
            report.note(max_value_diff(lhs, Phase(A[i][j], lam.N) * rhs),
                        (r, "gammahat", i, j))
        for i, j in itertools.product(range(g), repeat=2):
            left = pmodule_act_gamma(
                pmodule_act_gammahat(v, j, lam, Q), i, Q)
            right = pmodule_act_gammahat(
                pmodule_act_gamma(v, i, Q), j, lam, Q)
            report.note(max_value_diff(left, right), (r, "gamma", i, j))
    out.append(PropertyResult("pmodule-exchange-relations", report))
    return out


def battery_lattice(seed: int = 0, grid: str = "small") -> list:
    rng = np.random.default_rng(seed + 2)
    out = []
    cases = [(1, 4), (2, 3), (2, 4)] if grid == "small" \
        else [(1, 4), (2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 4)]

    report = LinearizationReport()
    for g, N in cases:
        raw = rng.integers(0, N, size=(g, g))
        Lam = [[int(x) for x in row] for row in (raw - raw.T) % N]
        sub = compute_H_hat(Lam, N)
        residues = {t for t in itertools.product(range(N), repeat=g)
                    if all(sum(Lam[i][j] * t[j] for j in range(g)) % N == 0
                           for i in range(g))}
        found = {t for t in itertools.product(range(N), repeat=g)
                 if sub.contains(t)}
        report.note(float(residues != found), (g, N))
        quo = compute_K_hat(sub)
        report.note(float(quo.group.size * len(residues) != N ** g),
                    (g, N, "index"))
        for _ in range(5):
            k = quo.group.random_element(rng)
            report.note(float(quo.project(quo.lift(k)) != k),
                        (g, N, "roundtrip", k))
    out.append(PropertyResult("dual-kernel-matches-enumeration", report))

    lam = BilinearCocycle([[0, 1, 1], [0, 0, 2], [0, 0, 0]], 4)
    quo = compute_K_hat(compute_H_hat(lam.antisymmetrized(), lam.N))
    table = descend_cocycle(lam, quo)
    K = quo.group
    report = LinearizationReport()
    for x, y in itertools.product(K.elements(), repeat=2):
        lifted = lam(quo.lift(x), quo.lift(y)) - lam(quo.lift(y), quo.lift(x))
        report.note(float(table(x, y) - table(y, x) != lifted), (x, y))
    out.append(PropertyResult("descended-antisymmetrization", report))

    pair = lambda_sharp(table)
    report = LinearizationReport()
    for x, y in itertools.product(K.elements(), repeat=2):
        report.note(float(table(x, y) != K.pairing(y, pair.sharp[x])),
                    (x, y))
    out.append(PropertyResult("sharp-identity", report))

    G = FiniteAbelianGroup((4, 2, 2))
    gens = [G.random_element(rng) for _ in range(2)]
    pres = subgroup_presentation(G, gens)
    report = LinearizationReport()
    for h in pres.group.elements():
        report.note(float(pres.restrict(pres.embed(h)) != h), h)
    out.append(PropertyResult("subgroup-roundtrip", report))
    return out


def battery_star(seed: int = 0, grid: str = "small",
                 params: Mapping = None) -> list:
    rng = np.random.default_rng(seed + 3)
    lam = params_from_dict(params or default_params())
    g = lam.g
    rounds = 8 if grid == "full" else 4
    out = []

    report = LinearizationReport()
    for r in range(rounds):
        f = _random_laurent(g, rng)
        h = _random_laurent(g, rng)
        k = _random_laurent(g, rng)
        lhs = star_mul(star_mul(f, h, lam), k, lam)
        rhs = star_mul(f, star_mul(h, k, lam), lam)
        report.note(max_coeff_diff(lhs, rhs), r)
    out.append(PropertyResult("star-associative", report))

    report = LinearizationReport()
    for r in range(rounds):
        f = _random_laurent(g, rng)
        h = _random_laurent(g, rng)
        w = [float(0.5 + rng.random()) for _ in range(g)]
        report.note(majorant_norm(star_mul(f, h, lam), w)
                    - majorant_norm(f, w) * majorant_norm(h, w), r)
    out.append(PropertyResult("majorant-submultiplicative", report))

    report = LinearizationReport()
    for r in range(rounds):
        f = _random_laurent(g, rng)
        h = _random_laurent(g, rng)
        z = tuple(np.exp(2j * np.pi * rng.random()) for _ in range(g))
        lhs = translate(star_mul(f, h, lam), z)
        rhs = star_mul(translate(f, z), translate(h, z), lam)
        report.note(max_coeff_diff(lhs, rhs), r)
    out.append(PropertyResult("translate-intertwines-star", report))

    S = _random_symmetric(g, lam.N, rng)
    alpha = bounding_cochain(S, lam.N, window=ExponentWindow.centered(g, 2))
    lam2 = BilinearCocycle(
        [[lam.M[i][j] + S[i][j] for j in range(g)] for i in range(g)], lam.N)
    report = LinearizationReport()
    for r in range(rounds):
        f = _random_laurent(g, rng, radius=1)
        h = _random_laurent(g, rng, radius=1)
        lhs = coboundary_transform(star_mul(f, h, lam), alpha)
        rhs = star_mul(coboundary_transform(f, alpha),
                       coboundary_transform(h, alpha), lam2)
        report.note(max_coeff_diff(lhs, rhs), r)
    out.append(PropertyResult("coboundary-transform-intertwines", report))
    return out


def _klein_phi(corrupt: bool = False) -> GroupCocycleTable:
    G = FiniteAbelianGroup((2, 2))
    omega = [[Phase.zero(), Phase(1, 2)], [Phase.zero(), Phase.zero()]]
    phi = GroupCocycleTable.from_bilinear(GroupBilinearTable(G, omega))
    if corrupt:  # negate the value at ((1, 0), (0, 1))
        phi.values[2, 1] = -phi.values[2, 1]
    return phi


def battery_equivariant(seed: int = 0, grid: str = "small",
                        corrupt_phi: bool = False) -> list:
    rng = np.random.default_rng(seed + 4)
    out = []
    phi = _klein_phi(corrupt_phi)
    G = phi.group

    out.append(_exact("group-cocycle-identity", *phi.check()))

    gset = GSet.regular(G)
    dims = dict(zip(gset.points, rng.integers(1, 3, size=G.size).tolist()))
    obj = free(dims, phi, gset)
    out.append(PropertyResult("free-object-transport-law",
                              check_linearization(obj, phi)))

    alpha = {h: complex(np.exp(2j * np.pi * rng.random()))
             for h in G.elements()}
    twisted = retwist(obj, alpha)
    out.append(PropertyResult("retwist-follows-coboundary",
                              check_linearization(twisted,
                                                  phi.twisted_by(alpha))))

    def unitary(n):
        q, _ = np.linalg.qr(rng.normal(size=(n, n))
                            + 1j * rng.normal(size=(n, n)))
        return q

    a = obj.conjugate({s: unitary(obj.dims[s]) for s in gset.points})
    b = free(dict(zip(gset.points, rng.integers(1, 3, size=G.size).tolist())),
             phi, gset)
    b = b.conjugate({s: unitary(b.dims[s]) for s in gset.points})
    report = LinearizationReport()
    for (i, fam), (h, moved) in itertools.product(
            enumerate(hom_space(a, b)), zip(G.elements(), gset.action.T)):
        for s, t in zip(gset.points, map(gset.points.__getitem__, moved)):
            resid = fam[t] @ a.matrix(h, s) - b.matrix(h, s) @ fam[s]
            report.note(float(np.max(np.abs(resid))), (i, h, s))
    out.append(PropertyResult("hom-space-intertwines", report))

    alg = twisted_algebra(("*",), _klein_phi(False))
    out.append(_exact("point-algebra-is-simple",
                      alg.center_dim() == 1
                      and not alg.is_commutative()))
    return out


def fm_demo_model() -> TorusModel:
    """``B = Z/4`` over the dual translations ``Z/2`` embedded as ``2``,
    twisted by ``1/2``: the model of ``fm demo``."""
    K2 = FiniteAbelianGroup((2,))
    return TorusModel(FiniteAbelianGroup((4,)), K2, [[2]],
                      GroupBilinearTable(K2, [[Phase(1, 2)]]))


def _fm_models() -> list:
    B4 = FiniteAbelianGroup((4,))
    K2 = FiniteAbelianGroup((2,))
    K4 = FiniteAbelianGroup((4,))
    B22 = FiniteAbelianGroup((2, 2))
    K22 = FiniteAbelianGroup((2, 2))
    return [
        TorusModel(B4, K2, [[2]]),
        fm_demo_model(),
        TorusModel(B4, K4, [[1]], GroupBilinearTable(K4, [[Phase(1, 4)]])),
        TorusModel(B22, K22, [[1, 0], [0, 1]],
                   GroupBilinearTable(K22, [[Phase.zero(), Phase(1, 2)],
                                            [Phase.zero(), Phase.zero()]])),
    ]


FmRun = namedtuple("FmRun", "sheaf module law fact roundtrip_ok hom_dims")


def fm_round_trip(model: TorusModel, rng) -> FmRun:
    """The deformed transform on ``model`` both ways: a sheaf from ``rng``,
    ``verify_factorization`` of its block module, a dense copy of that
    module (so that the dense module routines run), its ``check``, whether
    the inverse round-trips and, with a second sheaf, the hom dimensions
    ``(sheaves, modules)``."""
    sheaf = random_sheaf(model, rng)
    module = fm_lambda(model, sheaf)
    fact = verify_factorization(model, sheaf, module)
    module = ModuleOnXLambda(model, module.pi, module.n)
    law = module.check()
    back = fm_lambda_inverse(model, module)
    roundtrip_ok = (back.dims == sheaf.dims
                    and check_linearization(back, model.phi).ok)
    other = random_sheaf(model, rng)
    return FmRun(sheaf, module, law, fact, roundtrip_ok,
                 (hom_dim(sheaf, other),
                  module_hom_dim(module, fm_lambda(model, other))))


def battery_fm(seed: int = 0, grid: str = "small") -> list:
    rng = np.random.default_rng(seed + 5)
    out = []

    B = FiniteAbelianGroup((2, 4))
    dims = dict(zip(B.elements(), rng.integers(0, 3, size=B.size).tolist()))
    dims[B.zero()] = max(dims[B.zero()], 1)
    out.append(_exact("fmab-roundtrip", fm_ab_inverse(fm_ab(dims, B))
                      == {b: d for b, d in dims.items() if d}))

    report = LinearizationReport()
    for yhat in B.elements():
        report.note(float(not check_fm_ab_equivariance(dims, yhat, B)), yhat)
    some = list(B.elements())[:4]
    for y1, y2 in itertools.product(some, repeat=2):
        lhs = fm_ab_equivariance_iso(dims, B.add(y1, y2), B)
        rhs = fm_ab_equivariance_iso(dims, y1, B) \
            @ fm_ab_equivariance_iso(translate_graded(dims, y1, B), y2, B)
        report.note(float(not np.array_equal(lhs, rhs)), (y1, y2))
    out.append(PropertyResult("fmab-equivariance-exact", report))

    models = _fm_models()
    if grid == "small":
        models = models[:2] + models[3:]

    report = LinearizationReport()
    for idx, model in enumerate(models):
        report.note(float(not DeformedKernel(model).check()), idx)
    out.append(PropertyResult("kernel-relations", report))

    report = LinearizationReport()
    for idx, model in enumerate(models):
        run = fm_round_trip(model, rng)
        report.note(run.law.max_dev, (idx, "module", run.law.witness))
        report.note(float(not run.roundtrip_ok), (idx, "roundtrip"))
        report.note(run.fact.max_dev, (idx, "factorization"))
        report.note(float(run.hom_dims[0] != run.hom_dims[1]),
                    (idx, "hom-dims"))
    out.append(PropertyResult("fm-roundtrip-and-factorization", report))

    forms = [
        GroupBilinearTable(FiniteAbelianGroup((2,)), [[Phase(1, 2)]]),
        GroupBilinearTable(FiniteAbelianGroup((3,)), [[Phase(1, 3)]]),
    ]
    if grid == "full":
        forms.append(GroupBilinearTable(
            FiniteAbelianGroup((3, 3)),
            [[Phase(1, 3), Phase(1, 3)], [Phase.zero(), Phase(1, 3)]]))
    report = LinearizationReport()
    for omega in forms:
        K = omega.group
        pair = lambda_sharp(omega)
        for _ in range(4):
            f = {x: complex(rng.normal(), rng.normal()) for x in K.elements()}
            h = {x: complex(rng.normal(), rng.normal()) for x in K.elements()}
            lhs = star_on_points(f, h, omega)
            rhs = dual_side_product(f, h, pair)
            for x in K.elements():
                report.note(abs(lhs[x] - rhs[x]), (K.factors, x))
    out.append(PropertyResult("points-product-diagonalizes", report))
    return out


SCOPES = ("cocycle", "weyl", "lattice", "star", "equivariant", "fm")
# Most points of battery_cocycle's window ``centered(g, 4)``: rank 5
MAX_PARAM_WINDOW_POINTS = 9 ** 5


def run_battery(scope: str = "all", seed: int = 0, grid: str = "small",
                params: Mapping = None, corrupt_phi: bool = False) -> list:
    """Run one scope (or every scope) and return the collected results.

    An unknown scope or grid, a negative seed, invalid ``params`` and
    ``params`` whose window exceeds ``MAX_PARAM_WINDOW_POINTS`` raise
    ``ValueError`` before any battery runs.  An exception other than
    ``MemoryError`` raised inside a battery is a failed check, not bad
    input: it is recorded as a failing ``<scope>-battery`` result whose
    witness names the exception, and the remaining scopes still run.
    """
    if grid not in ("small", "full"):
        raise ValueError(f"unknown grid {grid!r}")
    if scope != "all" and scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    points = 9 ** params_from_dict(params).g if params else 0
    if points > MAX_PARAM_WINDOW_POINTS:
        raise ValueError(f"the parameter's window has {points} points; "
                         f"verify takes at most MAX_PARAM_WINDOW_POINTS "
                         f"({MAX_PARAM_WINDOW_POINTS})")
    batteries = {
        "cocycle": lambda: battery_cocycle(seed, grid, params),
        "weyl": lambda: battery_weyl(seed, grid, params),
        "lattice": lambda: battery_lattice(seed, grid),
        "star": lambda: battery_star(seed, grid, params),
        "equivariant": lambda: battery_equivariant(seed, grid, corrupt_phi),
        "fm": lambda: battery_fm(seed, grid),
    }
    results = []
    for name in SCOPES if scope == "all" else (scope,):
        try:
            results.extend(batteries[name]())
        except MemoryError:
            raise
        except Exception as exc:
            results.append(_exact(f"{name}-battery", False,
                                  f"{type(exc).__name__}: {exc}"))
    return results
