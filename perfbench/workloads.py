"""The four seeded workloads, built from the public functions of ``nctorus``.

``build(name, seed)`` returns a :class:`Workload`: the ordered items of one
pass (a run repeats the pass) and how many leading items set-up runs as
warm-up.  The seed is the only source of inputs; the package only sees
generated data.
Every span is recorded here, around the benchmark's own calls into a
layer; the package itself is not instrumented.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import itertools
import json
import math
from fractions import Fraction
from functools import partial
from typing import NamedTuple

import numpy as np
from nctorus.cocycle import BilinearCocycle, Phase, check_cocycle
from nctorus.equivariant import (GroupCocycleTable, GSet, check_linearization,
                                 forget, free, hom_dim, hom_space)
from nctorus.finitefm import (DeformedKernel, TorusModel, dual_side_product,
                              fm_lambda, fm_lambda_inverse, module_hom_dim,
                              module_hom_space, random_sheaf, star_on_points,
                              verify_factorization)
from nctorus.lattice import (FiniteAbelianGroup, GroupBilinearTable,
                             compute_H_hat, compute_K_hat, descend_cocycle,
                             lambda_sharp)
from nctorus.laurent import LaurentPoly, majorant_norm, max_coeff_diff, star_mul
from nctorus.qweyl import PeriodMatrix, QPolynomial, mul_crossed, mul_W

from harness import Item, Tracer, run_item

TOL = 1e-9


class Workload(NamedTuple):
    items: list
    warm: int


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def antisymmetrized(M, N: int) -> list:
    """``(M - M^T) mod N``, computed here so oracles do not rely on the
    package."""
    g = len(M)
    return [[(M[i][j] - M[j][i]) % N for j in range(g)] for i in range(g)]


def every_nth(items: list, n: int) -> list:
    """Every ``n``-th item of a list sorted by cost: a fixed sample of one
    ``n``-th of the list that covers every cost range alike, so that the
    work of a pass is the same for every seed."""
    if len(items) % n:
        raise ValueError(f"{len(items)} items do not split into {n} parts")
    return items[::n]


# ---------------------------------------------------------------------------
# algebra: cocycle, laurent, qweyl

STAR_GRID = [(g, N) for g in (1, 2, 3) for N in (2, 3, 4, 6, 12)]
ALGEBRA_TRIALS = 8


def _laurent_terms(rng, g, terms=8, radius=3) -> dict:
    coeffs = {}
    for _ in range(terms):
        t = tuple(int(x) for x in rng.integers(-radius, radius + 1, size=g))
        coeffs[t] = complex(rng.normal(), rng.normal())
    return coeffs


def _algebra_inputs(seed, g, N, trial) -> dict:
    rng = _rng(seed, 1, g, N, trial)
    return {
        "g": g, "N": N,
        "M": rng.integers(0, N, size=(g, g)).tolist(),
        "ops": [_laurent_terms(rng, g) for _ in range(3)],
        "weights": rng.uniform(0.5, 2.0, size=g).tolist(),
        "words": [(tuple(rng.integers(-2, 3, size=g).tolist()),
                   tuple(rng.integers(-2, 3, size=g).tolist()))
                  for _ in range(3)],
        "commute": [tuple(rng.integers(-2, 3, size=g).tolist())
                    for _ in range(2)],
        "cocycle_seed": int(rng.integers(2 ** 31)),
    }


COCYCLE_SAMPLES = 20


def _algebra_run(inp, tr: Tracer):
    g, N = inp["g"], inp["N"]
    lam = BilinearCocycle(inp["M"], N)
    f, h, p = (LaurentPoly(g, c) for c in inp["ops"])

    def smul(x, y):
        with tr.span("laurent.star_mul", calls=1,
                     term_pairs=len(x.coeffs) * len(y.coeffs)):
            return star_mul(x, y, lam)

    fh = smul(f, h)
    left = smul(fh, p)
    right = smul(f, smul(h, p))
    fp = smul(f, p)
    with tr.span("laurent.majorant_norm"):
        norms = [majorant_norm(x, inp["weights"]) for x in (f, p, fp)]

    Q = PeriodMatrix.ones(g)
    w1, w2, w3 = (QPolynomial.monomial(g, a, b) for a, b in inp["words"])
    confluence = []
    with tr.span("qweyl.mul_crossed") as sp:
        for side in ("nc", "gerby"):
            ab = mul_crossed(w1, w2, lam, Q, side)
            bc = mul_crossed(w2, w3, lam, Q, side)
            confluence.append((mul_crossed(ab, w3, lam, Q, side),
                               mul_crossed(w1, bc, lam, Q, side)))
            sp.count(calls=4, term_pairs=len(w1.terms) * len(w2.terms)
                     + len(w2.terms) * len(w3.terms)
                     + len(ab.terms) * len(w3.terms)
                     + len(w1.terms) * len(bc.terms))
    a, c = inp["commute"]
    ta, tc = QPolynomial.monomial(g, a), QPolynomial.monomial(g, c)
    with tr.span("qweyl.mul_W"):
        commute = (mul_W(ta, tc, lam), mul_W(tc, ta, lam))
    with tr.span("cocycle.check_cocycle", calls=1):
        cocycle_ok = check_cocycle(lam, samples=COCYCLE_SAMPLES,
                                   rng=np.random.default_rng(inp["cocycle_seed"]))
    return fh, left, right, norms, confluence, commute, cocycle_ok


def star_reference(f: dict, h: dict, M, N: int) -> dict:
    """The twisted product straight from its definition:
    ``(f * h)[t] = sum_{t1 + t2 = t} zeta_N^(t1 . M t2) f[t1] h[t2]``."""
    out = {}
    for t1, a in f.items():
        for t2, b in h.items():
            e = sum(x * m * y for x, row in zip(t1, M) for m, y in zip(row, t2))
            t = tuple(x + y for x, y in zip(t1, t2))
            out[t] = out.get(t, 0j) + cmath.exp(2j * math.pi * e / N) * a * b
    return out


def _algebra_check(inp, out):
    fh, left, right, norms, confluence, commute, cocycle_ok = out
    f, h, _ = inp["ops"]
    want = star_reference(f, h, inp["M"], inp["N"])
    dev = max(abs(fh.coeff(t) - want.get(t, 0j)) for t in set(want) | set(fh.coeffs))
    if not dev < TOL:
        return f"star product differs from its definition (dev {dev:.3g})"
    dev = max_coeff_diff(left, right)
    if not dev < TOL:
        return f"star product not associative (dev {dev:.3g})"
    nf, np_, nfp = norms
    if not nfp <= nf * np_ + TOL:
        return f"majorant not submultiplicative ({nfp} > {nf} * {np_})"
    for side, (l, r) in zip(("nc", "gerby"), confluence):
        if l != r:
            return f"crossed product not confluent on side {side}: {l!r} != {r!r}"
    g = inp["g"]
    A = antisymmetrized(inp["M"], inp["N"])
    a, c = inp["commute"]
    phase = Phase(sum(A[i][j] * a[i] * c[j]
                      for i in range(g) for j in range(g)), inp["N"])
    if commute[0] != phase * commute[1]:
        return f"t-monomials {a}, {c} do not commute through {phase}"
    if not cocycle_ok[0]:
        return f"cocycle identity fails at {cocycle_ok[1]}"
    return None


def build_algebra(seed: int) -> Workload:
    items = []
    for trial in range(ALGEBRA_TRIALS):
        for g, N in STAR_GRID:
            inp = _algebra_inputs(seed, g, N, trial)
            items.append(Item(f"algebra/g{g}-N{N}-t{trial}",
                              partial(_algebra_run, inp),
                              partial(_algebra_check, inp)))
    return Workload(items, warm=len(STAR_GRID))


# ---------------------------------------------------------------------------
# lattice: compute_H_hat, compute_K_hat, descend_cocycle, lambda_sharp

LATTICE_RANKS = (1, 2, 3)
LATTICE_ORDERS = range(1, 7)
LATTICE_SAMPLE = 9  # one pass is 52 of the 468 forms


def upper_triangular(g: int, N: int):
    """Every strictly upper-triangular ``g x g`` matrix with entries mod N."""
    npairs = g * (g - 1) // 2
    for upper in itertools.product(range(N), repeat=npairs):
        M = [[0] * g for _ in range(g)]
        it = iter(upper)
        for i in range(g):
            for j in range(i + 1, g):
                M[i][j] = next(it)
        yield M


def quotient_order(A, N: int) -> int:
    """``|K̂| = N^g / #{t in (Z/N)^g : A t = 0}``, by enumeration."""
    g = len(A)
    pts = np.array(list(itertools.product(range(N), repeat=g)), dtype=np.int64)
    kernel = int(np.all((pts @ np.array(A, dtype=np.int64).T) % N == 0,
                        axis=1).sum())
    return N ** g // kernel


def _lattice_inputs(seed, g, N, M, index) -> dict:
    rng = _rng(seed, 2, index)
    S = rng.integers(0, N, size=(g, g))
    S = (S + S.T) % N
    shifted = [[(M[i][j] + int(S[i][j])) % N for j in range(g)]
               for i in range(g)]
    return {"g": g, "N": N, "M": shifted}


def _lattice_run(inp, tr: Tracer):
    g, N = inp["g"], inp["N"]
    with tr.span("lattice.construct", calls=4):
        lam = BilinearCocycle(inp["M"], N)
        A = lam.antisymmetrized()
        with tr.span("lattice.compute_H_hat"):
            sub = compute_H_hat(A, N)
        with tr.span("lattice.compute_K_hat"):
            quo = compute_K_hat(sub)
        with tr.span("lattice.descend_cocycle"):
            table = descend_cocycle(lam, quo)
        with tr.span("lattice.lambda_sharp"):
            pair = lambda_sharp(table)
    K = quo.group
    pts = list(itertools.product(range(N), repeat=g))
    with tr.span("lattice.query") as q:
        with tr.span("lattice.contains", calls=len(pts)):
            member = [sub.contains(t) for t in pts]
        with tr.span("lattice.project_lift") as sp:
            ks = list(K.elements())
            k_round = [quo.project(quo.lift(k)) for k in ks]
            t_round = [quo.lift(quo.project(t)) for t in pts]
            sp.count(calls=2 * len(ks) + 2 * len(pts))
        with tr.span("lattice.table_pairing",
                     calls=2 * len(ks) * len(ks)):
            tab = [table(k1, k2) for k1 in ks for k2 in ks]
            pairing = [K.pairing(k2, pair.sharp[k1])
                       for k1 in ks for k2 in ks]
        q.count(calls=len(pts) + 2 * len(ks) + 2 * len(pts)
                + 2 * len(ks) * len(ks))
    return {"sub": sub, "K_size": K.size, "pts": pts, "ks": ks,
            "member": member, "k_round": k_round, "t_round": t_round,
            "tab": tab, "pairing": pairing}


def _lattice_check(inp, out):
    g, N = inp["g"], inp["N"]
    A = antisymmetrized(inp["M"], N)
    for t, got in zip(out["pts"], out["member"]):
        want = all(sum(row[j] * t[j] for j in range(g)) % N == 0 for row in A)
        if got != want:
            return f"contains({t}) = {got}, enumeration says {want}"
    if out["K_size"] != inp["K_order"]:
        return f"|K^| = {out['K_size']}, enumeration says {inp['K_order']}"
    for k, back in zip(out["ks"], out["k_round"]):
        if back != k:
            return f"project(lift({k})) = {back}"
    sub = out["sub"]
    for t, back in zip(out["pts"], out["t_round"]):
        if not sub.contains([x - y for x, y in zip(t, back)]):
            return f"lift(project({t})) = {back} leaves the coset"
    n = len(out["ks"])
    for i, (x, y) in enumerate(zip(out["tab"], out["pairing"])):
        if x != y:
            k1, k2 = out["ks"][i // n], out["ks"][i % n]
            return f"table({k1}, {k2}) = {x} but pairing gives {y}"
    return None


def lattice_cases():
    """Every ``(g, N, M)`` of the workload with its quotient order, in
    increasing order of work."""
    cases = []
    for g in LATTICE_RANKS:
        for N in LATTICE_ORDERS:
            for M in upper_triangular(g, N):
                cases.append((g, N, M,
                              quotient_order(antisymmetrized(M, N), N)))
    cases.sort(key=lambda c: (c[3] ** 2 + c[1] ** c[0], c[0], c[1], c[2]))
    return cases


def lattice_items(seed: int) -> list:
    """One item per upper-triangular form, in increasing order of work."""
    items = []
    for index, (g, N, M, k_order) in enumerate(lattice_cases()):
        inp = dict(_lattice_inputs(seed, g, N, M, index), K_order=k_order)
        items.append(Item(f"lattice/g{g}-N{N}-M{M}-K{k_order}",
                          partial(_lattice_run, inp),
                          partial(_lattice_check, inp)))
    return items


def build_lattice(seed: int) -> Workload:
    return Workload(every_nth(lattice_items(seed), LATTICE_SAMPLE), warm=10)


# ---------------------------------------------------------------------------
# transform: equivariant and finitefm

def _partitions(n):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def abelian_groups_upto(limit):
    """Factor tuples, one per isomorphism class of abelian group of order
    at most ``limit``."""
    out = []
    for order in range(1, limit + 1):
        fact = {}
        m, p = order, 2
        while m > 1:
            while m % p == 0:
                fact[p] = fact.get(p, 0) + 1
                m //= p
            p += 1
        per_prime = [[tuple(p ** part for part in parts)
                      for parts in _partitions(e)]
                     for p, e in fact.items()]
        if not per_prime:
            out.append(())
            continue
        for combo in itertools.product(*per_prime):
            out.append(tuple(x for chunk in combo for x in chunk))
    return out


def _dims(points, rng, values):
    """Seeded placement of a fixed multiset of fiber dimensions, so that the
    total dimension, and with it the work and memory, does not depend on
    the seed."""
    pattern = [values[i % len(values)] for i in range(len(points))]
    return dict(zip(points, (int(x) for x in rng.permutation(pattern))))


def _twist_numerators(G, rng):
    return [[int(rng.integers(0, math.gcd(di, dj))) for dj in G.factors]
            for di in G.factors]


def _bilinear(G, numerators):
    return GroupBilinearTable(G, [
        [Phase(n, math.gcd(di, dj)) for n, dj in zip(row, G.factors)]
        for row, di in zip(numerators, G.factors)])


def _twist(tr, G, numerators):
    with tr.span("equivariant.from_bilinear"):
        return GroupCocycleTable.from_bilinear(_bilinear(G, numerators))


def _transport_run(inp, tr):
    G, gset = inp["G"], inp["gset"]
    phi = _twist(tr, G, inp["twist"])
    with tr.span("equivariant.free"):
        obj = free(inp["dims"], phi, gset)
    with tr.span("equivariant.check_linearization"):
        return check_linearization(obj, phi)


def _transport_check(inp, report):
    if not (report.ok and report.max_dev < TOL):
        return (f"transport law fails for {inp['G'].factors} at "
                f"{report.witness} (dev {report.max_dev:.3g})")
    return None


def _adjunction_run(inp, tr):
    G, gset = inp["G"], inp["gset"]
    phi = _twist(tr, G, inp["twist"])
    with tr.span("equivariant.free"):
        X = free(inp["A"], phi, gset)
        Y = free(inp["B"], phi, gset).conjugate(inp["conj"])
    with tr.span("equivariant.hom_space", calls=1) as sp:
        d = hom_dim(X, Y)
        sp.count(dim_sum=d)
    return d, Y


def _adjunction_check(inp, out):
    d, Y = out
    want = sum(inp["A"][s] * Y.dims[s] for s in inp["gset"].points)
    if d != want:
        return f"hom_dim(free, Y) = {d} on {inp['G'].factors}, expected {want}"
    return None


def transform_models():
    """The acceptance family: coordinate groups up to order 8 with every
    dual translation group in {1, Z/2, (Z/2)^2, Z/4}, twisted and not."""

    def G(*factors):
        return FiniteAbelianGroup(factors)

    models = []
    for B in [(2,), (4,), (2, 2)]:
        models.append(TorusModel(G(*B), G(), [[] for _ in B]))
    K2 = G(2)
    half = GroupBilinearTable(K2, [[Phase(Fraction(1, 2))]])
    for lam in (None, half):
        for B, emb in [((2,), [[1]]), ((4,), [[2]]), ((8,), [[4]]),
                       ((2, 2), [[1], [0]]), ((2, 4), [[0], [2]])]:
            models.append(TorusModel(G(*B), K2, emb, lam))
    K22 = G(2, 2)
    upper = GroupBilinearTable(
        K22, [[Phase(0), Phase(Fraction(1, 2))], [Phase(0), Phase(0)]])
    for lam in (None, upper):
        for B, emb in [((2, 2), [[1, 0], [0, 1]]), ((2, 4), [[1, 0], [0, 2]]),
                       ((2, 2, 2), [[1, 0], [0, 1], [0, 0]])]:
            models.append(TorusModel(G(*B), K22, emb, lam))
    K4 = G(4)
    quarter = GroupBilinearTable(K4, [[Phase(Fraction(1, 4))]])
    for lam in (None, quarter):
        for B, emb in [((4,), [[1]]), ((8,), [[2]]), ((2, 4), [[0], [1]])]:
            models.append(TorusModel(G(*B), K4, emb, lam))
    return models


def _fm(tr, model, sheaf):
    with tr.span("finitefm.fm_lambda", calls=1) as sp:
        module = fm_lambda(model, sheaf)
        sp.count(module_dim_sum=module.dim)
    return module


def _random_sheaf(tr, model, rng):
    with tr.span("finitefm.random_sheaf"):
        return random_sheaf(model, rng)


def _pair_run(inp, tr):
    model = inp["model"]
    rng = _rng(*inp["rng"])
    s1 = _random_sheaf(tr, model, rng)
    s2 = _random_sheaf(tr, model, rng)
    m1 = _fm(tr, model, s1)
    m2 = _fm(tr, model, s2)
    with tr.span("equivariant.hom_space", calls=1) as sp:
        d = hom_dim(s1, s2)
        sp.count(dim_sum=d)
    with tr.span("finitefm.module_hom_space"):
        dm = module_hom_dim(m1, m2)
    return d, dm, m1, m2


def conjugation_trace(m1, m2):
    """Independent count of the intertwiners between two modules: the
    trace of the averaged conjugation action, with no rank threshold."""
    model = m1.model
    val = 0j
    for a in model.B.elements():
        for k in model.Khat.elements():
            left = m2.pi_matrix(a) @ m2.n_matrix(k)
            right = m1.pi_matrix(a) @ m1.n_matrix(k)
            val += np.trace(left) * np.trace(np.linalg.inv(right))
    return val / (model.B.size * model.Khat.size)


def _pair_check(inp, out):
    d, dm, m1, m2 = out
    if dm != d:
        return f"module hom dim {dm} != sheaf hom dim {d} on {inp['model']!r}"
    trace = conjugation_trace(m1, m2)
    if not abs(trace - d) < 1e-6:
        return f"conjugation trace {trace} != hom dim {d} on {inp['model']!r}"
    return None


def _roundtrip_run(inp, tr):
    model = inp["model"]
    rng = _rng(*inp["rng"])
    sheaf = _random_sheaf(tr, model, rng)
    module = _fm(tr, model, sheaf)
    with tr.span("finitefm.fm_lambda_inverse"):
        back = fm_lambda_inverse(model, module)
    with tr.span("equivariant.hom_space", calls=1) as sp:
        basis = hom_space(sheaf, back)
        sp.count(dim_sum=len(basis))
    n = module.dim
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    mc = module.conjugate(q)
    with tr.span("finitefm.fm_lambda_inverse"):
        mid = fm_lambda_inverse(model, mc)
    mback = _fm(tr, model, mid)
    with tr.span("finitefm.module_hom_space"):
        hom = module_hom_space(mc, mback)
    with tr.span("finitefm.verify_factorization"):
        report = verify_factorization(model, sheaf)
    return sheaf, back, basis, mc, mback, hom, report


def _invertible_mix(basis, combine, ok, rng, tries=4):
    for _ in range(tries):
        coeffs = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        cand = combine(coeffs)
        if ok(cand):
            return cand
    return None


def _roundtrip_check(inp, out):
    model = inp["model"]
    sheaf, back, basis, mc, mback, hom, report = out
    if not DeformedKernel(model).check(tol=1e-12):
        return f"deformed kernel fails its relations on {model!r}"
    if forget(back) != forget(sheaf):
        return f"inverse changed the graded dimensions on {model!r}"
    rng = _rng(*inp["rng"], 1)
    points = model.gset.points
    iso = _invertible_mix(
        basis,
        lambda c: {pt: sum(ci * fam[pt] for ci, fam in zip(c, basis))
                   for pt in points},
        lambda cand: all(sheaf.dims[pt] == 0
                         or abs(np.linalg.det(cand[pt])) > 1e-6
                         for pt in points),
        rng)
    if iso is None:
        return f"no invertible sheaf isomorphism on {model!r}"
    for k in model.Khat.elements():
        for pt in points:
            lhs = iso[model.gset.act(pt, k)] @ sheaf.matrix(k, pt)
            rhs = back.matrix(k, pt) @ iso[pt]
            if lhs.size and not np.max(np.abs(lhs - rhs)) < TOL:
                return f"sheaf round trip not intertwined at {(k, pt)}"
    if mback.dim != mc.dim:
        return f"module round trip changed dimension on {model!r}"
    X = _invertible_mix(
        hom, lambda c: sum(ci * h for ci, h in zip(c, hom)),
        lambda cand: np.linalg.svd(cand, compute_uv=False)[-1] > 1e-6, rng)
    if X is None:
        return f"no invertible module isomorphism on {model!r}"
    for a in model.B.elements():
        if not np.max(np.abs(mback.pi_matrix(a) @ X - X @ mc.pi_matrix(a))) < TOL:
            return f"module round trip not B-equivariant at {a}"
    for k in model.Khat.elements():
        if not np.max(np.abs(mback.n_matrix(k) @ X - X @ mc.n_matrix(k))) < TOL:
            return f"module round trip not translation-equivariant at {k}"
    if not (report.ok and report.max_dev < TOL):
        return f"factorization fails at {report.witness} on {model!r}"
    return None


def point_forms():
    half, third, quarter = Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)
    forms = []
    for factors, omega in [
            ((2,), [[half]]), ((3,), [[third]]), ((4,), [[quarter]]),
            ((2, 2), [[0, half], [half, 0]]),
            ((3, 3), [[third, third], [0, third]])]:
        K = FiniteAbelianGroup(factors)
        table = GroupBilinearTable(K, [[Phase(x) for x in row]
                                       for row in omega])
        forms.append((K, table, lambda_sharp(table)))
    return forms


def _points_run(inp, tr):
    with tr.span("finitefm.points_product"):
        direct = star_on_points(inp["f"], inp["h"], inp["table"])
        assembled = dual_side_product(inp["f"], inp["h"], inp["pair"])
    return direct, assembled


def _points_check(inp, out):
    direct, assembled = out
    dev = max(abs(direct[x] - assembled[x]) for x in inp["K"].elements())
    if not dev < TOL:
        return f"point product differs from assembly by {dev:.3g} on {inp['K']!r}"
    return None


TRANSPORT_TWISTS = 8
ADJUNCTION_GROUPS = [(2,), (4,), (2, 2), (3, 3)]
ADJUNCTION_TRIALS = 5
SHEAF_PAIRS = 8
POINT_TRIALS = 10
# Every kind's item count is a multiple of this, so one pass, every fifth
# item, holds the same mix: 40 transport, 4 adjunction, 40 pair,
# 5 round-trip and 10 point items.
TRANSFORM_SAMPLE = 5


def build_transform(seed: int) -> Workload:
    # (cost rank, item) pairs: sorted by kind, then group or model size,
    # and sampled so that a pass holds every kind in the same proportion
    ranked = []
    rng = _rng(seed, 3)
    gsets = {}
    for factors in abelian_groups_upto(16):
        G = FiniteAbelianGroup(factors)
        gset = GSet.regular(G) if G.size <= 8 else GSet.trivial(G)
        gsets[factors] = gset
        cap = 3 if G.size <= 8 else 2
        for t in range(TRANSPORT_TWISTS):
            inp = {"G": G, "gset": gset,
                   "twist": _twist_numerators(G, rng),
                   "dims": _dims(gset.points, rng, range(cap))}
            ranked.append(((0, G.size), Item(
                f"transform/transport-{factors}-{t}",
                partial(_transport_run, inp), partial(_transport_check, inp))))
    for factors in ADJUNCTION_GROUPS:
        G = FiniteAbelianGroup(factors)
        gset = GSet.regular(G)
        for t in range(ADJUNCTION_TRIALS):
            B = _dims(gset.points, rng, (0, 1, 2))
            inp = {"G": G, "gset": gset,
                   "twist": _twist_numerators(G, rng),
                   "A": _dims(gset.points, rng, (0, 1, 2)),
                   "B": B}
            # on the regular G-set every fiber of free(B) is the sum of
            # all of B
            n = sum(B.values())
            inp["conj"] = {s: rng.normal(size=(n, n))
                           + 1j * rng.normal(size=(n, n))
                           for s in gset.points}
            ranked.append(((1, G.size), Item(
                f"transform/adjunction-{factors}-{t}",
                partial(_adjunction_run, inp),
                partial(_adjunction_check, inp))))
    for m, model in enumerate(transform_models()):
        size = model.B.size * model.Khat.size
        for t in range(SHEAF_PAIRS):
            inp = {"model": model, "rng": (seed, 4, m, t)}
            ranked.append(((2, size, m), Item(
                f"transform/pair-{model!r}-{m}-{t}",
                partial(_pair_run, inp), partial(_pair_check, inp))))
        inp = {"model": model, "rng": (seed, 5, m)}
        ranked.append(((3, size, m), Item(
            f"transform/roundtrip-{model!r}-{m}",
            partial(_roundtrip_run, inp), partial(_roundtrip_check, inp))))
    for j, (K, table, pair) in enumerate(point_forms()):
        for t in range(POINT_TRIALS):
            frng = _rng(seed, 6, j, t)
            inp = {"K": K, "table": table, "pair": pair,
                   "f": {x: complex(frng.normal(), frng.normal())
                         for x in K.elements()},
                   "h": {x: complex(frng.normal(), frng.normal())
                         for x in K.elements()}}
            ranked.append(((4, K.size), Item(
                f"transform/points-{K.factors}-{t}",
                partial(_points_run, inp), partial(_points_check, inp))))
    ranked.sort(key=lambda r: r[0])
    items = every_nth([item for _, item in ranked], TRANSFORM_SAMPLE)
    return Workload(items, warm=20)


# ---------------------------------------------------------------------------
# cli: nctorus.cli.main in-process

VERIFY_SCOPES = ("cocycle", "weyl", "lattice", "star", "equivariant", "fm")
# Fixed battery seed: the verify runs dominate the item time, so their
# cost must not change with the workload seed.
VERIFY_SEED = "7"
# One (g, N) per param/star/qweyl command.  The seed fills in values but
# not sizes, so every seed does the same amount of work.
CLI_SHAPES = [(1, 12), (2, 4), (2, 6), (2, 8), (2, 12),
              (3, 2), (3, 3), (3, 4), (3, 6), (3, 12)]
CLI_TERMS = 3


def _laurent_text(rng, g) -> str:
    terms = []
    for _ in range(CLI_TERMS):
        num, den = int(rng.integers(1, 10)), int(rng.choice([1, 2, 4]))
        coeff = f"{num}/{den}" if den > 1 else str(num)
        if rng.random() < 0.3:
            coeff += "i"
        factors = [coeff]
        for i in range(g):
            e = int(rng.integers(-2, 3))
            if e:
                factors.append(f"t{i + 1}^{e}")
        sign = "-" if rng.random() < 0.5 else "+"
        terms.append(f"{sign} {'*'.join(factors)}")
    return " ".join(terms)


def _word_text(rng, g, hatted) -> str:
    t, gen = ("th", "gh") if hatted else ("t", "g")
    atoms = []
    for _ in range(CLI_TERMS):
        kind = t if rng.random() < 0.5 else gen
        atoms.append(f"{kind}{int(rng.integers(1, g + 1))}"
                     f"^{int(rng.integers(-2, 3))}")
    return "*".join(atoms)


def _param_json(rng, g, N) -> str:
    """A fixed antisymmetric class plus a seeded symmetric shift, so the
    quotient group, and the size of the output, is the same for every
    seed."""
    S = rng.integers(0, N, size=(g, g))
    M = [[(int(S[i][j] + S[j][i]) + (i + 2 * j + 1 if i < j else 0)) % N
          for j in range(g)] for i in range(g)]
    return json.dumps({"M": M, "N": N})


def cli_commands(seed: int) -> list:
    """``(span name, argv, expected exit code)`` for the seeded mix."""
    rng = _rng(seed, 7)
    cmds = []
    for scope in VERIFY_SCOPES:
        for grid in ("small", "full"):
            cmds.append((f"verify.{scope}",
                         ["verify", "--scope", scope, "--grid", grid,
                          "--seed", VERIFY_SEED, "--json"], 0))
    cmds.append(("verify.equivariant",
                 ["verify", "--scope", "equivariant", "--corrupt-phi",
                  "--seed", VERIFY_SEED], 1))
    for g, N in CLI_SHAPES:
        cmds.append(("cli.param_analyze",
                     ["param", "analyze", "--json",
                      "--param", _param_json(rng, g, N)], 0))
    for g, N in CLI_SHAPES:
        cmds.append(("cli.star_mul",
                     ["star", "mul", _laurent_text(rng, g),
                      _laurent_text(rng, g),
                      "--param", _param_json(rng, g, N)], 0))
    for g, N in CLI_SHAPES:
        hatted = bool(rng.random() < 0.5)
        cmds.append(("cli.qweyl_mul",
                     ["qweyl", "mul", _word_text(rng, g, hatted),
                      _word_text(rng, g, hatted),
                      "--param", _param_json(rng, g, N)], 0))
    for _ in range(2):
        cmds.append(("cli.fm_demo",
                     ["fm", "demo", "--seed", str(int(rng.integers(1000)))],
                     0))
    return cmds


def _cli_run(span, argv, tr):
    from nctorus.cli import main
    out, err = io.StringIO(), io.StringIO()
    with tr.span(span):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_check(argv, code, stdout, out):
    got, text, err = out
    if got != code:
        return f"{argv} exited {got}, expected {code}: {err.strip()[-200:]}"
    if text != stdout:
        return f"{argv} printed different output than at set-up"
    return None


def build_cli(seed: int, between=lambda: None) -> Workload:
    """Set-up runs every command once, calling ``between()`` after each:
    its stdout is the oracle for the timed runs, and the run doubles as
    warm-up."""
    items = []
    for i, (span, argv, code) in enumerate(cli_commands(seed)):
        run = partial(_cli_run, span, argv)
        got, stdout, err = run(Tracer())
        if got != code:
            raise RuntimeError(f"set-up run of {argv} exited {got}: {err}")
        items.append(Item(f"cli/{i}-{' '.join(argv[:2])}", run,
                          partial(_cli_check, argv, code, stdout)))
        between()
    return Workload(items, warm=0)


MAKE = {"algebra": build_algebra, "lattice": build_lattice,
            "transform": build_transform, "cli": build_cli}


def build(name: str, seed: int, between=lambda: None) -> Workload:
    """Generate the items and warm up by running the first ``warm``,
    calling ``between()`` after generation and after each warm-up run."""
    wl = build_cli(seed, between) if name == "cli" else MAKE[name](seed)
    between()
    tracer = Tracer()
    for item in wl.items[:wl.warm]:
        run_item(item, tracer)
        between()
    return wl
