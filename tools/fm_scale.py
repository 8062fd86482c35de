"""Time the module side of the deformed transform at scale.

Usage, from the root of the checkout::

    python3 tools/fm_scale.py N [--seed S]

It builds the derived regular model of order ``n^2`` (``Khat = B =
(Z/n)^2``, twisted by the form that ``[[0, 1], [0, 0]]`` at root order
``n`` descends to), draws two sheaves with ``random_sheaf`` from one
generator seeded with ``S`` (default 0) and prints, per call, the wall
time and the tracemalloc peak:

* building the model, on the first line, before any module call;
* ``check_linearization`` and ``hom_dim`` on the sheaves;
* ``fm_lambda``, then ``check``, ``fm_lambda_inverse`` and
  ``module_hom_dim`` on the block modules it returns;
* ``verify_factorization`` of the first sheaf and its block module from
  ``fm_lambda``: the block identity alone, since the transport law that
  ``fm_lambda`` checks is timed on its own row;
* ``conjugate`` by a random unitary, which stores dense operators, then
  ``check``, ``check`` again (``check (conjugated, framed)``: the
  residuals and the blocks' law alone, the frame already kept),
  ``fm_lambda_inverse``, ``module_hom_dim`` and ``module_hom_space`` on
  those (the last only while its basis, one complex ``dim2 x dim1``
  matrix per hom, fits in ``finitefm.MAX_HOM_BASIS_BYTES``, beyond which
  the call refuses).

BLAS runs on one thread (``OPENBLAS_NUM_THREADS=1`` is set before numpy
is imported).  Each call runs once, in the order above, with tracemalloc
tracing, which slows numpy calls little but Python loops more.  So the
whole block path prints before the first dense row.  The first dense
row, ``check``, frames the conjugated module (bases of its character
eigenspaces, its translations compressed between them); the rows after
it reuse that frame, so the second ``check`` shows the cost of the check
apart from the framing.  At ``n = 6`` the dense rows need several GB.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import tracemalloc

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from nctorus.cocycle import BilinearCocycle  # noqa: E402
from nctorus.equivariant import check_linearization, hom_dim  # noqa: E402
from nctorus.finitefm import (MAX_HOM_BASIS_BYTES,  # noqa: E402
                              TorusModel, fm_lambda, fm_lambda_inverse,
                              module_hom_dim, module_hom_space, random_sheaf,
                              verify_factorization)
from nctorus.lattice import (compute_H_hat, compute_K_hat,  # noqa: E402
                             descend_cocycle)


def model_regular(n: int) -> TorusModel:
    """``Khat = B = (Z/n)^2`` with the descended twist."""
    lam = BilinearCocycle([[0, 1], [0, 0]], n)
    quo = compute_K_hat(compute_H_hat(lam.antisymmetrized(), n))
    K = quo.group
    identity = [[int(i == j) for j in range(K.rank)] for i in range(K.rank)]
    return TorusModel(K, K, identity, descend_cocycle(lam, quo))


def measure(label: str, call):
    """Run ``call()`` once under tracemalloc; print and return its value."""
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        out = call()
        wall = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"{label:<34} {wall:9.3f} s {peak / 2**20:9.1f} MiB", flush=True)
    return out


def unitary(n: int, rng) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="root order of the model")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.n < 2:
        parser.error("n must be at least 2")
    model = measure(f"model_regular({args.n})",
                    lambda: model_regular(args.n))
    rng = np.random.default_rng(args.seed)
    s1, s2 = random_sheaf(model, rng), random_sheaf(model, rng)
    print(f"model_regular({args.n}): |Khat| = |B| = {model.B.size}, "
          f"dims {s1.total_dim()} and {s2.total_dim()}, seed {args.seed}")
    measure("check_linearization (sheaf)",
            lambda: check_linearization(s1, model.phi))
    measure("hom_dim (sheaves)", lambda: hom_dim(s1, s2))
    m1 = measure("fm_lambda", lambda: fm_lambda(model, s1))
    m2 = fm_lambda(model, s2)
    measure("check (block)", m1.check)
    measure("fm_lambda_inverse (block)", lambda: fm_lambda_inverse(model, m1))
    measure("module_hom_dim (block)", lambda: module_hom_dim(m1, m2))
    measure("verify_factorization",
            lambda: verify_factorization(model, s1, m1))
    c1 = measure("conjugate", lambda: m1.conjugate(unitary(m1.dim, rng)))
    c2 = m2.conjugate(unitary(m2.dim, rng))
    measure("check (conjugated)", c1.check)
    measure("check (conjugated, framed)", c1.check)
    measure("fm_lambda_inverse (conjugated)",
            lambda: fm_lambda_inverse(model, c1))
    hom = measure("module_hom_dim (conjugated)",
                  lambda: module_hom_dim(c1, c2))
    basis_bytes = 16 * hom * c1.dim * c2.dim
    if basis_bytes <= MAX_HOM_BASIS_BYTES:
        measure("module_hom_space (conjugated)",
                lambda: module_hom_space(c1, c2))
    else:
        print(f"{'module_hom_space (conjugated)':<34} skipped: its basis "
              f"takes {basis_bytes / 2**20:.0f} MiB", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
