"""Pin the BLAS thread pools to one thread before numpy is imported.

The suite's matrices are small (at most 4096 x 4096, mostly far less), and on
a machine with few cores an unpinned OpenBLAS pool spends most of its time
contending with other processes: one n=6 exact twirl took 2.1 s instead of
about 30 ms on a 2-core machine with another process running. An explicit
setting in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
