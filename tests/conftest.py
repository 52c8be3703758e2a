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


def lifted(pg):
    """The three-variable integrand whose integral equals that of the one-variable ``pg``.

    Gauss-Hermite integrates only the shape the routes build: three variables
    with (0, 1) uncoupled.  ``pg`` goes on variable 2, and variables 0 and 1
    are uncoupled unit Gaussians exp(-|z|^2), each integrating to pi, which
    the constant divides out.
    """
    import numpy as np

    from twotime.quadrature import PolyGaussian

    out = PolyGaussian(3)
    for i in (0, 1):
        out.add_abs2(i, -1.0)
    for name in "ABC":
        getattr(out, name)[2, 2] = getattr(pg, name)[0, 0]
    out.add_linear(2, pg.u[0])
    out.add_linear_conj(2, pg.v[0])
    out.add_const(pg.const - 2 * np.log(np.pi))
    for (p, q), coef in pg.poly.items():
        out.poly_add((0, 0) + p, (0, 0) + q, coef)
    out.var_factors[2] = pg.var_factors[0]
    return out
