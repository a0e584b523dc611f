"""Pin BLAS/OpenMP to one thread for the test run.

A LAPACK call on a large matrix otherwise starts one thread per CPU, and on
a host busy with other work those threads oversubscribe it: the 972x972
eigensolve of ``test_compose_network_psd_and_trace`` slows from under a
second to tens of seconds.  The variables are read when numpy loads its
BLAS, so they are set here, before any test module imports numpy; a value
already in the environment wins.
"""

import os
import sys
import warnings

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

if "numpy" in sys.modules:
    warnings.warn("numpy was imported before tests/conftest.py; "
                  "its BLAS thread count is not pinned", stacklevel=1)
