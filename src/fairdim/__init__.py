"""Group-fair PCA: projections trading overall reconstruction error against
the error gap between two sensitive groups.

Importing fairdim sets ``OPENBLAS_THREAD_TIMEOUT=22`` unless it is
already set, so that when fairdim is first to load numpy OpenBLAS's idle
worker threads sleep after 2 ms instead of spinning for 0.1 s."""

import os

# OpenBLAS reads this once, when numpy first loads it: an idle worker
# busy-waits 2^N TSC cycles for its next job before it sleeps. The default,
# 28, is 0.13 s at 2.1 GHz. On a 2-vCPU Xeon the worker then burns 0.06 s
# of CPU during `import numpy` with no job run, and about 0.12 s over a CLI
# run. At 22 (2 ms) it burns none at import, and it still spans the gaps
# between the threaded BLAS calls inside one LAPACK call. At 4 it does not:
# a d = 1764 eigh then takes 0.80 s instead of 0.71 s. The thread count is
# untouched. A value the user exported wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "22")

from .dataset import DataError, RawTable, balance, load_grouped, load_table  # noqa: E402
from .linalg import LinalgError  # noqa: E402
from .metrics import GroupMetrics, Moments, moment_metrics  # noqa: E402
from .fairpca import (  # noqa: E402
    FairFitResult,
    Prepared,
    Search,
    prepare,
    search,
    weighted_covariance,
)

__version__ = "0.1.0"
