"""Plain PCA, the group-weighted covariance, and the two trade-off fits.

The blended objective ``alpha * overall_error + (1 - alpha) * disparity``
is minimized, for a fixed alpha, by the top eigenvectors of

    C_hat(alpha) = alpha * X'X/n + (1 - alpha) * (Xb'Xb/n_b - Xa'Xa/n_a)

with group a privileged and group b harmed. At alpha = 1 this is exactly
the plain covariance; as alpha drops, directions that retain the harmed
group's variance (at the privileged group's expense) take over, and at
alpha = 0 the roles typically invert. The fits search alpha in [0, 1] by
golden section for the value with the smallest squared disparity, the
constrained variant additionally capping both groups' errors at the
harmed group's plain-PCA error.

Everything a fit needs from the data is its three d x d second moments
and the plain-PCA eigenvectors. ``prepare`` computes both once and keeps
only them and the two group labels, so no step after it touches the
n x d rows: ``weighted_covariance`` blends the moments, ``sym_eig_top_r``
projects, and ``metrics.moment_metrics`` scores. A sweep shares one
``Prepared`` across all of its (rank, method) cells, and a single fit
builds its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .dataset import GroupedData
from .linalg import LinalgError, scaled_gram, sym_eig_top_r
from .metrics import (
    GroupMetrics,
    Moments,
    identify_privileged,
    moment_metrics,
)

__all__ = [
    "GOLDEN_RATIO",
    "SearchConfig",
    "GoldenSectionResult",
    "FairFitResult",
    "Prepared",
    "prepare",
    "classical_pca",
    "weighted_covariance",
    "golden_section",
    "u_fpca",
    "c_fpca",
]

GOLDEN_RATIO = (math.sqrt(5.0) + 1.0) / 2.0

# Slack allowed when verifying a constrained fit against its error budget.
_BUDGET_SLACK = 1e-9

METHOD_PCA = "pca"
METHOD_UFPCA = "ufpca"
METHOD_CFPCA = "cfpca"


@dataclass(frozen=True)
class SearchConfig:
    """Golden-section settings: stop once the bracket is narrower than tol."""

    tol: float = 1e-6
    max_iterations: int = 100

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


class GoldenSectionResult(NamedTuple):
    alpha: float
    iterations: int
    lo: float
    hi: float


@dataclass(frozen=True)
class FairFitResult:
    """A fitted projection with the trade-off weight that produced it.

    ``budget`` is set only for the constrained method and holds the cap
    both group errors were required to respect. ``privileged`` and
    ``harmed`` name the groups in the roles the fit used (from plain PCA
    at the same rank); ``metrics.err_a`` belongs to the privileged group.
    """

    method: str
    alpha: float
    u: np.ndarray
    metrics: GroupMetrics
    iterations: int
    budget: float | None = None
    privileged: str | None = None
    harmed: str | None = None

    def __post_init__(self):
        gram = self.u.T @ self.u
        if np.max(np.abs(gram - np.eye(gram.shape[0]))) > 1e-9:
            raise LinalgError("fitted projection has non-orthonormal columns")
        if self.method == METHOD_CFPCA:
            if self.budget is None:
                raise ValueError("constrained fits must record their budget")
            if (
                self.metrics.err_a > self.budget + _BUDGET_SLACK
                or self.metrics.err_b > self.budget + _BUDGET_SLACK
            ):
                raise ValueError("constrained fit exceeds its error budget")


def _check_rank(r: int, d: int) -> None:
    if not 1 <= r <= d:
        raise LinalgError(f"rank must satisfy 1 <= r <= {d}, got {r}")


@dataclass(frozen=True)
class Prepared:
    """A dataset's group labels, second moments and top plain-PCA
    eigenvectors.

    Built once by ``prepare`` and only read afterwards, so the cells of a
    sweep can share it. Column j of ``pca_vectors`` is the (j+1)-th
    principal direction; the rank-r plain-PCA basis is the first r
    columns, exactly as a rank-r eigensolve of ``moments.c`` returns it.
    """

    labels: tuple[str, str]  # first-seen group first
    moments: Moments         # first-seen group as ``a``
    pca_vectors: np.ndarray  # (d, max_rank)

    @property
    def max_rank(self) -> int:
        return self.pca_vectors.shape[1]


def prepare(g: GroupedData, max_rank: int) -> Prepared:
    """Second moments plus one plain-PCA eigendecomposition up to ``max_rank``."""
    _check_rank(max_rank, g.x.shape[1])
    moments = Moments(
        c=scaled_gram(g.x, g.n),
        c_a=scaled_gram(g.x_a, g.n_a),
        c_b=scaled_gram(g.x_b, g.n_b),
    )
    return Prepared(
        (g.label_a, g.label_b), moments, sym_eig_top_r(moments.c, max_rank).vectors
    )


def _prepared(data: GroupedData | Prepared, r: int) -> Prepared:
    if isinstance(data, Prepared):
        _check_rank(r, data.max_rank)
        return data
    return prepare(data, r)


def weighted_covariance(m: Moments, alpha: float) -> np.ndarray:
    """Blend of the overall covariance with the signed group-covariance gap.

    Expects roles already assigned: ``m.c_a`` must be the privileged
    group's moment. The harmed group's term enters positively, so small
    alpha rewards directions that represent the harmed group well. At
    alpha = 1 this returns ``m.c`` bit-exactly, so the fit degrades to
    plain PCA with zero subspace difference, not merely a close one.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"trade-off weight must lie in [0, 1], got {alpha}")
    return alpha * m.c + (1.0 - alpha) * (m.c_b - m.c_a)


def classical_pca(data: GroupedData | Prepared, r: int) -> FairFitResult:
    """Top-r eigenvectors of the plain covariance, with group metrics.

    Roles for the disparity sign are assigned from this projection's own
    per-group errors, so the reported disparity is never negative here.
    ``data`` is the dataset, or its ``Prepared`` form to reuse.
    """
    p = _prepared(data, r)
    u = np.ascontiguousarray(p.pca_vectors[:, :r])
    roles = identify_privileged(p.moments, p.labels, u)
    return FairFitResult(
        method=METHOD_PCA,
        alpha=1.0,
        u=u,
        metrics=moment_metrics(roles.moments, u),
        iterations=0,
        privileged=roles.label_privileged,
        harmed=roles.label_harmed,
    )


def golden_section(
    objective: Callable[[float], float],
    feasible: Callable[[float], bool] | None = None,
    config: SearchConfig | None = None,
) -> GoldenSectionResult:
    """Minimize a scalar function over [0, 1] by golden-section contraction.

    Each iteration compares the two interior candidates and keeps the
    sub-bracket around the better one, reusing the surviving candidate's
    value so only one fresh evaluation happens per iteration. With a
    feasibility predicate, the lower candidate wins only when it is both
    better and feasible; otherwise the bracket moves up toward 1, where
    the constrained fits are feasible by construction.

    Returns the final bracket midpoint and the iteration count.
    """
    cfg = config or SearchConfig()
    inv_ratio = 1.0 / GOLDEN_RATIO
    lo, hi = 0.0, 1.0
    iterations = 0

    def evaluate(alpha: float) -> tuple[float, float, bool]:
        ok = True if feasible is None else bool(feasible(alpha))
        return alpha, objective(alpha), ok

    if (hi - lo) > cfg.tol:
        lower = evaluate(hi - (hi - lo) * inv_ratio)
        upper = evaluate(lo + (hi - lo) * inv_ratio)
        while (hi - lo) > cfg.tol and iterations < cfg.max_iterations:
            if lower[1] <= upper[1] and lower[2]:
                hi = upper[0]
                upper = lower
                lower = evaluate(hi - (hi - lo) * inv_ratio)
            else:
                lo = lower[0]
                lower = upper
                upper = evaluate(lo + (hi - lo) * inv_ratio)
            iterations += 1

    return GoldenSectionResult((lo + hi) * 0.5, iterations, lo, hi)


@dataclass
class _AlphaEvaluator:
    """Memoized per-alpha evaluation: one eigendecomposition per new alpha."""

    moments: Moments  # privileged group as ``a``
    r: int
    cache: dict = field(default_factory=dict)

    def __call__(self, alpha: float):
        hit = self.cache.get(alpha)
        if hit is None:
            u = sym_eig_top_r(weighted_covariance(self.moments, alpha), self.r).vectors
            hit = self._record(alpha, u)
        return hit

    def seed(self, alpha: float, u: np.ndarray):
        return self._record(alpha, u)

    def _record(self, alpha: float, u: np.ndarray):
        self.cache[alpha] = (u, moment_metrics(self.moments, u))
        return self.cache[alpha]


def _prepare_search(data: GroupedData | Prepared, r: int):
    # plain PCA has already assigned the roles: reorder the moments
    # privileged-first to match, and its harmed error is the budget
    p = _prepared(data, r)
    pca = classical_pca(p, r)
    m = p.moments if pca.privileged == p.labels[0] else p.moments.swapped()
    evaluator = _AlphaEvaluator(moments=m, r=r)
    evaluator.seed(1.0, pca.u)
    return pca, evaluator


def u_fpca(
    data: GroupedData | Prepared, r: int, config: SearchConfig | None = None
) -> FairFitResult:
    """Unconstrained fair fit: pick alpha minimizing the squared disparity.

    Runs plain PCA once to freeze the privileged/harmed roles, then
    golden-sections the squared disparity over alpha and refits at the
    final bracket midpoint.
    """
    pca, evaluate = _prepare_search(data, r)
    result = golden_section(lambda a: evaluate(a)[1].fairness, None, config)
    u, m = evaluate(result.alpha)
    return FairFitResult(
        method=METHOD_UFPCA,
        alpha=result.alpha,
        u=u,
        metrics=m,
        iterations=result.iterations,
        privileged=pca.privileged,
        harmed=pca.harmed,
    )


def c_fpca(
    data: GroupedData | Prepared, r: int, config: SearchConfig | None = None
) -> FairFitResult:
    """Constrained fair fit: like u_fpca, but neither group's error may
    exceed the harmed group's plain-PCA error.

    The bracket update alone cannot certify the final midpoint, so if the
    midpoint breaks the budget (or is less fair than plain PCA), the fit
    falls back to the best feasible alpha among those evaluated; alpha = 1
    reproduces plain PCA exactly and is always feasible.
    """
    pca, evaluate = _prepare_search(data, r)
    budget = pca.metrics.err_b

    def feasible(alpha: float) -> bool:
        m = evaluate(alpha)[1]
        return m.err_a <= budget and m.err_b <= budget

    result = golden_section(lambda a: evaluate(a)[1].fairness, feasible, config)
    alpha_star = result.alpha
    u, m = evaluate(alpha_star)
    if (
        m.err_a > budget + _BUDGET_SLACK
        or m.err_b > budget + _BUDGET_SLACK
        or m.fairness > pca.metrics.fairness
    ):
        candidates = [
            (metrics.fairness, -alpha, alpha)
            for alpha, (_, metrics) in evaluate.cache.items()
            if metrics.err_a <= budget and metrics.err_b <= budget
        ]
        _, _, alpha_star = min(candidates)
        u, m = evaluate(alpha_star)
    return FairFitResult(
        method=METHOD_CFPCA,
        alpha=alpha_star,
        u=u,
        metrics=m,
        iterations=result.iterations,
        budget=budget,
        privileged=pca.privileged,
        harmed=pca.harmed,
    )
