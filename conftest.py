"""Test-session set-up shared by `tests/` and `mttbench/`.

BLAS runs single-threaded, as in `mttbench/run.py`: under default OpenBLAS
threading the small triangular solves of the Kalman gate sometimes run
about 20 times slower for a whole process. pytest loads this file before
any test module imports numpy, so the setting takes effect.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
