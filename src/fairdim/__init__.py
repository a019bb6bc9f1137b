"""Group-fair PCA: projections trading overall reconstruction error against
the error gap between two sensitive groups."""

from .dataset import DataError, GroupedData, RawTable, balance, center_and_split, load_grouped, load_table
from .linalg import LinalgError
from .metrics import GroupMetrics, Moments, moment_metrics
from .fairpca import (
    FairFitResult,
    Prepared,
    Search,
    c_fpca,
    classical_pca,
    prepare,
    search,
    u_fpca,
    weighted_covariance,
)

__version__ = "0.1.0"
