"""Pin BLAS to one thread before numpy loads.

The 40-epoch gate's scores depend on the BLAS thread count (summation order
moves with it), so the suite runs single-threaded unless the caller sets the
variables explicitly.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
