"""Pytest setup for the whole repository; pytest loads this before any test
module, so before numpy.

psygat multiplies small matrices, where a multi-threaded BLAS gains nothing
and stalls whenever another process holds a core: on a 2-vCPU host with one
competing busy process, one training run took 34 s with two OpenBLAS
threads and 20 s with one. Pin BLAS to one thread, as perfbench/run.py
does, unless the caller set a count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
