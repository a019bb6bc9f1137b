"""Reconstruction-error, disparity and fairness measures for a projection.

All measures depend on the projection matrix only through the subspace it
spans, so any orthonormal re-mixing of its columns leaves them unchanged.
The data-matrix forms validate the projection's orthonormality: a silently
skewed basis would corrupt every number downstream.

The fits never touch the n x d data after setup. For orthonormal ``U``
the average squared residual of rows ``X_k`` is

    ||X_k - X_k U U'||_F^2 / n_k = tr(C_k) - tr(U' C_k U),  C_k = X_k'X_k / n_k,

so a ``Moments`` record of the three d x d second moments answers every
measure in O(d^2 r), whatever the row count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import GroupedData
from .linalg import LinalgError, as_matrix

__all__ = [
    "GroupMetrics",
    "Moments",
    "PrivilegeAssignment",
    "avg_reconstruction_error",
    "avg_reconstruction_error_direct",
    "disparity",
    "fairness_measure",
    "group_metrics",
    "identify_privileged",
    "moment_metrics",
]

_PROJ_ORTHO_TOL = 1e-6


def _check_projection(x: np.ndarray, u: np.ndarray) -> None:
    if x.shape[1] != u.shape[0]:
        raise LinalgError(
            f"projection rows ({u.shape[0]}) must match data width ({x.shape[1]})"
        )
    gram = u.T @ u
    if np.max(np.abs(gram - np.eye(gram.shape[0]))) > _PROJ_ORTHO_TOL:
        raise LinalgError("projection columns are not orthonormal")


def _avg_err(x: np.ndarray, count: int, u: np.ndarray) -> float:
    # ||X||_F^2 - ||XU||_F^2 equals the squared residual for orthonormal U
    # without materializing the n x d residual; clamp round-off negatives.
    total = float(np.sum(x * x))
    kept = float(np.sum((x @ u) ** 2))
    return max(total - kept, 0.0) / count


def avg_reconstruction_error(x, u) -> float:
    """Average squared residual of projecting ``x`` onto span(u)."""
    x = as_matrix(x, "x")
    u = as_matrix(u, "u")
    _check_projection(x, u)
    return _avg_err(x, x.shape[0], u)


def avg_reconstruction_error_direct(x, u) -> float:
    """Same quantity via the explicit residual; the slow reference form."""
    x = as_matrix(x, "x")
    u = as_matrix(u, "u")
    _check_projection(x, u)
    resid = x - x @ u @ u.T
    return float(np.sum(resid * resid)) / x.shape[0]


def disparity(x_a, x_b, n_a: int, n_b: int, u) -> float:
    """Harmed-group average error minus privileged-group average error.

    ``x_a`` is the privileged group. Zero is the fairest value; a negative
    result means the roles inverted under this projection.
    """
    x_a = as_matrix(x_a, "x_a")
    x_b = as_matrix(x_b, "x_b")
    u = as_matrix(u, "u")
    if n_a < 1 or n_b < 1:
        raise LinalgError("group counts must be positive")
    _check_projection(x_a, u)
    _check_projection(x_b, u)
    return _avg_err(x_b, n_b, u) - _avg_err(x_a, n_a, u)


def fairness_measure(x_a, x_b, n_a: int, n_b: int, u) -> float:
    """Squared disparity; non-negative, and even in the roles' order."""
    d = disparity(x_a, x_b, n_a, n_b, u)
    return d * d


@dataclass(frozen=True)
class GroupMetrics:
    """All per-fit measures, with group a = privileged, group b = harmed."""

    overall_err: float
    err_a: float
    err_b: float
    disparity: float
    fairness: float


def group_metrics(x, x_a, x_b, n_a: int, n_b: int, u) -> GroupMetrics:
    """Evaluate every measure for one projection with pre-assigned roles."""
    x = as_matrix(x, "x")
    x_a = as_matrix(x_a, "x_a")
    x_b = as_matrix(x_b, "x_b")
    u = as_matrix(u, "u")
    if n_a < 1 or n_b < 1:
        raise LinalgError("group counts must be positive")
    _check_projection(x, u)
    _check_projection(x_a, u)
    _check_projection(x_b, u)
    err_a = _avg_err(x_a, n_a, u)
    err_b = _avg_err(x_b, n_b, u)
    gap = err_b - err_a
    return GroupMetrics(
        overall_err=_avg_err(x, x.shape[0], u),
        err_a=err_a,
        err_b=err_b,
        disparity=gap,
        fairness=gap * gap,
    )


@dataclass(frozen=True)
class Moments:
    """Second moments of a centered dataset and of its two groups.

    ``c`` is X'X/n, and ``c_a``/``c_b`` are the groups' X_k'X_k/n_k, each
    with its trace. Which group is ``a`` is up to the builder: the first-
    seen group for ``GroupedData``, the privileged one once roles are set.
    """

    c: np.ndarray
    c_a: np.ndarray
    c_b: np.ndarray
    tr: float = field(init=False)
    tr_a: float = field(init=False)
    tr_b: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "tr", float(np.trace(self.c)))
        object.__setattr__(self, "tr_a", float(np.trace(self.c_a)))
        object.__setattr__(self, "tr_b", float(np.trace(self.c_b)))

    def swapped(self) -> "Moments":
        """The same moments with the two groups' roles exchanged."""
        return Moments(c=self.c, c_a=self.c_b, c_b=self.c_a)


def _moment_err(c: np.ndarray, trace: float, u: np.ndarray) -> float:
    # tr(C) - tr(U'CU), clamping round-off negatives at full rank
    return max(trace - float(np.sum((c @ u) * u)), 0.0)


def moment_metrics(m: Moments, u: np.ndarray) -> GroupMetrics:
    """Every measure for an orthonormal ``u`` (as produced by the
    eigensolver, so not re-validated). ``err_a`` is the error of ``m``'s
    group ``a``, which the fits order privileged-first."""
    err_a = _moment_err(m.c_a, m.tr_a, u)
    err_b = _moment_err(m.c_b, m.tr_b, u)
    gap = err_b - err_a
    return GroupMetrics(
        overall_err=_moment_err(m.c, m.tr, u),
        err_a=err_a,
        err_b=err_b,
        disparity=gap,
        fairness=gap * gap,
    )


@dataclass(frozen=True)
class PrivilegeAssignment:
    """Which group a baseline projection favors, frozen for a whole fit.

    ``budget`` is the harmed group's average error under that baseline,
    the cap both groups must respect in the constrained fit. ``moments``
    is the dataset's ``Moments`` reordered so that ``c_a`` belongs to the
    privileged group and ``c_b`` to the harmed one.
    """

    x_privileged: np.ndarray
    x_harmed: np.ndarray
    n_privileged: int
    n_harmed: int
    label_privileged: str
    label_harmed: str
    budget: float
    moments: Moments


def identify_privileged(g: GroupedData, u_pca, moments: Moments) -> PrivilegeAssignment:
    """Assign privileged/harmed roles from errors under the plain-PCA basis.

    The group with the lower average reconstruction error is privileged;
    on an exact tie the first group takes that role. ``moments`` are
    ``g``'s second moments, first-seen group as ``a`` (see
    ``fairpca.prepare``).
    """
    u_pca = as_matrix(u_pca, "u_pca")
    _check_projection(moments.c, u_pca)
    err_first = _moment_err(moments.c_a, moments.tr_a, u_pca)
    err_second = _moment_err(moments.c_b, moments.tr_b, u_pca)
    if err_first <= err_second:
        return PrivilegeAssignment(
            x_privileged=g.x_a,
            x_harmed=g.x_b,
            n_privileged=g.n_a,
            n_harmed=g.n_b,
            label_privileged=g.label_a,
            label_harmed=g.label_b,
            budget=err_second,
            moments=moments,
        )
    return PrivilegeAssignment(
        x_privileged=g.x_b,
        x_harmed=g.x_a,
        n_privileged=g.n_b,
        n_harmed=g.n_a,
        label_privileged=g.label_b,
        label_harmed=g.label_a,
        budget=err_first,
        moments=moments.swapped(),
    )
