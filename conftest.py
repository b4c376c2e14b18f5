"""Test-session set-up, loaded by pytest before any test module imports numpy.

One BLAS thread, as in CI and the benchmark: the suite runs faster on small
machines, and floating-point results do not depend on the core count.  A
thread count set in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
