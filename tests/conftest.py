"""Pin BLAS to one thread before numpy is imported.

With its default thread count, OpenBLAS runs as many threads as the host
has CPUs in every numpy process, so a suite that shares the host with
another numpy process oversubscribes it, and the timed budgets of
``test_acceptance.py`` come to depend on the neighbour's load.  The
variables take effect only if they are set before numpy loads its BLAS,
which is why this file refuses to run after numpy was imported.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could "
                       "pin BLAS to one thread")
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
