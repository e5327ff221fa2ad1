"""One BLAS/OpenMP thread for the test suite.

The small dense kernels of TT arithmetic lose to thread start-up and
oversubscription: with several threads a solve can run several times
slower, and the suite's run time depends on what else the machine runs.
The caps act only if they are set before numpy is imported; pytest loads
this file before any test module imports it.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
