"""Reconstruction-error, disparity and fairness measures for a projection.

The fits never touch the n x d data after setup. For orthonormal ``U``
the average squared residual of rows ``X_k`` is

    ||X_k - X_k U U'||_F^2 / n_k = tr(C_k) - tr(U' C_k U),  C_k = X_k'X_k / n_k,

so a ``Moments`` record of the three d x d second moments answers every
measure in O(d^2 r), whatever the row count. Every measure depends on the
projection only through the subspace it spans, so any orthonormal
re-mixing of its columns leaves it unchanged.

The measures take ``a`` to be the privileged group and ``b`` the harmed
one. That is decided once per fit, and only in ``fairpca``: the moments
arrive with the first-seen group as ``a`` and are swapped if plain PCA at
the fit's rank gives a negative disparity. So the group with the lower
plain-PCA error is privileged, and the first-seen group on an exact tie.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GroupMetrics",
    "Moments",
    "moment_metrics",
]


@dataclass(frozen=True)
class GroupMetrics:
    """All per-fit measures, with group a = privileged, group b = harmed.
    ``fairness`` is ``disparity`` squared and correctly rounded to float64,
    so it is 0 or subnormal once ``|disparity|`` is below about 1.5e-154."""

    overall_err: float
    err_a: float
    err_b: float
    disparity: float
    fairness: float


@dataclass(frozen=True)
class Moments:
    """Second moments of a centered dataset and of its two groups.

    ``c`` is X'X/n, and ``c_a``/``c_b`` are the groups' X_k'X_k/n_k, each
    with its trace. ``fairpca.prepare`` builds them with the first-seen
    group (``RawTable.in_a``) as ``a``; plain PCA's fit swaps them once,
    if at all, so that ``a`` is the privileged group for the whole fit.
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
    group ``a``, which the fits order privileged-first; ``disparity`` is
    ``err_b - err_a`` (negative when the roles invert under ``u``) and
    ``fairness`` its square."""
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
