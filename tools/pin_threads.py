"""Pin BLAS/OpenMP threads to 1, as ``bench/run.py`` does, when imported.

The timing tools import it before anything that loads numpy: numpy's
bundled OpenBLAS otherwise spreads even the short products of verify's
(8, N) and (2, N) component rows (an 8 x 8 or 2 x 2 matrix times the rows)
over threads, and on a 2-vCPU machine their figures read up to several
times slower and spread widely.  A variable already set in the
environment is overridden, so two trees are always timed alike.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
