"""Run the suite with one BLAS thread, as the README advises.

The package's matrices are small, and small LAPACK calls can stall under a
multi-threaded OpenBLAS.  The thread count is read when numpy loads, so it is
set only if numpy is not imported yet, and never over a value already given.
"""

import os
import sys

if "numpy" not in sys.modules:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
