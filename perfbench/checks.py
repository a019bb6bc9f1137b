"""Output checks against an independent numpy oracle.

The oracle rebuilds the centered groups from the generated matrix (never
from the CSV the program parsed) and computes plain PCA with
``numpy.linalg.eigh``. Each check raises ``CheckError`` naming the first
violated property.
"""

from __future__ import annotations

import numpy as np

from workloads import LABELS, Workload

PCA_ERR_RTOL = 1e-9      # pca overall_err against the trailing eigenvalues
RECOMPUTE_RTOL = 1e-8    # reported fit errors against the explicit residual
ORTHO_TOL = 1e-9         # max |U'U - I| of a fitted projection
BUDGET_SLACK = 1e-9      # allowed excess of a cfpca error over its budget
FAIRNESS_RTOL = 1e-9     # cfpca fairness may exceed pca fairness by this share


class CheckError(Exception):
    """A program output violates a property the oracle guarantees."""


def _residual_err(x: np.ndarray, u: np.ndarray) -> float:
    resid = x - (x @ u) @ u.T
    return float(np.sum(resid * resid)) / x.shape[0]


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(want), 1e-300)


class Oracle:
    """Centered data and plain-PCA reference values for one generated table."""

    def __init__(self, w: Workload, x: np.ndarray, is_b: np.ndarray):
        if w.balanced:
            keep_each = min(int(is_b.sum()), int((~is_b).sum()))
            rank_in_group = np.where(is_b, np.cumsum(is_b), np.cumsum(~is_b))
            keep = rank_in_group <= keep_each
            x, is_b = x[keep], is_b[keep]
        x = x - x.mean(axis=0)
        self.x = x
        self.groups = {LABELS[0]: x[~is_b], LABELS[1]: x[is_b]}
        cov = (x.T @ x) / x.shape[0]
        self.eigvals, self._eigvecs = np.linalg.eigh(cov)  # ascending

    def pca_overall_err(self, r: int) -> float:
        """Sum of the d - r smallest covariance eigenvalues."""
        return float(np.sum(self.eigvals[: len(self.eigvals) - r]))

    def pca_roles(self, r: int) -> tuple[float, float]:
        """(harmed-group error, fairness) of plain PCA at rank r."""
        u = self._eigvecs[:, ::-1][:, :r]
        errs = sorted(_residual_err(xk, u) for xk in self.groups.values())
        return errs[1], (errs[1] - errs[0]) ** 2


def _check_alpha(where: str, method: str, alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise CheckError(f"{where}: alpha {alpha} outside [0, 1]")
    if method == "pca" and alpha != 1.0:
        raise CheckError(f"{where}: pca alpha is {alpha}, expected 1.0")


def _check_cfpca(where: str, oracle: Oracle, r: int, rec: dict) -> None:
    budget, pca_fairness = oracle.pca_roles(r)
    for key in ("err_a", "err_b"):
        if rec[key] > budget + BUDGET_SLACK:
            raise CheckError(
                f"{where}: cfpca {key} {rec[key]!r} exceeds the pca harmed-group "
                f"error {budget!r}"
            )
    if rec["fairness"] > pca_fairness * (1.0 + FAIRNESS_RTOL):
        raise CheckError(
            f"{where}: cfpca fairness {rec['fairness']!r} above pca fairness "
            f"{pca_fairness!r}"
        )


def check_sweep(rows: list[dict], oracle: Oracle, max_rank: int) -> None:
    """Check the parsed JSONL rows of one ``fairdim sweep`` report."""
    expected = [(r, m) for r in range(1, max_rank + 1) for m in ("pca", "ufpca", "cfpca")]
    if [(row["r"], row["method"]) for row in rows] != expected:
        raise CheckError("sweep rows are not the (rank, method) cells in order")
    for row in rows:
        r, method = row["r"], row["method"]
        where = f"r={r} {method}"
        _check_alpha(where, method, row["alpha"])
        if method == "pca":
            want = oracle.pca_overall_err(r)
            if not _close(row["overall_err"], want, PCA_ERR_RTOL):
                raise CheckError(
                    f"{where}: overall_err {row['overall_err']!r} is not the sum of "
                    f"the trailing eigenvalues {want!r}"
                )
        elif method == "cfpca":
            _check_cfpca(where, oracle, r, row)


def check_fit(record: dict, oracle: Oracle, w: Workload) -> None:
    """Check the JSON record of one ``fairdim fit`` call."""
    where = f"fit {w.method} r={w.rank}"
    if record["method"] != w.method or record["rank"] != w.rank:
        raise CheckError(f"{where}: record is for {record['method']} r={record['rank']}")
    _check_alpha(where, w.method, record["alpha"])
    u = np.array(record["projection"], dtype=np.float64)
    if u.shape != (oracle.x.shape[1], w.rank):
        raise CheckError(f"{where}: projection has shape {u.shape}")
    if np.max(np.abs(u.T @ u - np.eye(w.rank))) > ORTHO_TOL:
        raise CheckError(f"{where}: projection is not orthonormal")
    recomputed = {
        "err_a": _residual_err(oracle.groups[record["privileged"]], u),
        "err_b": _residual_err(oracle.groups[record["harmed"]], u),
        "overall_err": _residual_err(oracle.x, u),
    }
    for key, want in recomputed.items():
        if not _close(record[key], want, RECOMPUTE_RTOL):
            raise CheckError(
                f"{where}: {key} {record[key]!r} but the explicit residual gives {want!r}"
            )
    if w.method == "cfpca":
        _check_cfpca(where, oracle, w.rank, record)


def check_identical(reports: list[bytes]) -> None:
    """Repeated invocations on one input must write the same bytes."""
    if any(rep != reports[0] for rep in reports[1:]):
        raise CheckError("repeated invocations wrote different report bytes")
