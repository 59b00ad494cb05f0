"""Test-session set-up shared by `tests/` and `mttbench/`.

BLAS runs single-threaded, as in `mttbench/run.py`, so that timing-bound
tests and the benchmark's self-test do not depend on how a BLAS library
schedules threads for the tracker's small matrices. pytest loads this file
before any test module imports numpy, so the setting takes effect.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
