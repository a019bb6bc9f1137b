"""Plain PCA, the group-weighted covariance, and the two trade-off fits.

The blended objective ``alpha * overall_error + (1 - alpha) * disparity``
is minimized, for a fixed alpha, by the top eigenvectors of

    C_hat(alpha) = alpha * X'X/n + (1 - alpha) * (Xb'Xb/n_b - Xa'Xa/n_a)

with group a privileged and group b harmed. At alpha = 1 this is exactly
the plain covariance; as alpha drops, directions that retain the harmed
group's variance (at the privileged group's expense) take over.

The search over alpha is a root find. With C = X'X/n, D = Xb'Xb/n_b -
Xa'Xa/n_a, f(U) = tr(U'CU) and g(U) = tr(U'DU), the rank-r U(alpha)
maximizes alpha * f + (1 - alpha) * g. Comparing the optimality of
U(alpha1) and U(alpha2) at both weights shows that f never decreases and
g never increases as alpha grows (an exchange argument; Topkis 1978). So
the disparity (tr_b - tr_a) - g is non-decreasing in alpha, while the
overall error tr - f and the privileged error tr_a - f + (n_b/n) g are
non-increasing. Where eigenvalues cross at rank r the disparity can jump
over zero, and no exactly fair rank-r fit exists (Samadi et al. 2018).

The constrained fit caps both groups' errors at the harmed group's
plain-PCA error. Plain PCA meets that cap by construction: its harmed
error is the cap and its privileged error is no larger. The cap's
bisection starts with alpha = 1 as its upper end and only ever replaces
that end by a point that meets the cap, so its answer always does too.

Everything a fit needs from the data is its three d x d second moments
and all d plain-PCA eigenpairs. ``prepare`` centers the table's rows,
computes both once and keeps only them and the two group labels, so no
step after it touches the n x d rows: ``weighted_covariance`` blends the
moments, ``sym_eig_top_r`` projects, and ``metrics.moment_metrics``
scores. ``prepare`` is also the one numeric gate: once C, D and the
squared traces are finite, every blend is finite and bitwise symmetric
by construction, so the per-alpha eigensolve checks nothing. From the
data's numerical rank on, plain PCA is exact and the fair fits return it.

``search(data, r, tol)`` is the one way to a fit. It returns the
``Search`` record that the three fits at one rank share: ``.pca`` is plain
PCA, and ``.ufpca()`` and ``.cfpca()`` share one root search, run on first
use. For example, ``s = search(table, r=1)`` then ``s.cfpca()``, or
``fit_one(s, "cfpca")``: the one dispatch from a name in ``METHODS`` to
its fit, shared by the CLI's ``fit`` and every cell of a sweep. A sweep
shares one ``Prepared`` plus one ``Search`` per rank. A ``Search`` is
safe to share between threads: two that first use it together may both
run its root search, with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dataset import DataError, RawTable
from .linalg import EigenPairs, LinalgError, scaled_gram, sym_eig_top_r
from .metrics import GroupMetrics, Moments, moment_metrics

__all__ = [
    "METHODS",
    "FairFitResult",
    "Prepared",
    "prepare",
    "Search",
    "search",
    "fit_one",
    "weighted_covariance",
]

_CENTER_TOL = 1e-6  # max |centered column sum| per row and unit of column scale
DEFAULT_TOL = 1e-6  # final width of the alpha bracket

METHOD_PCA = "pca"
METHOD_UFPCA = "ufpca"
METHOD_CFPCA = "cfpca"
METHODS = (METHOD_PCA, METHOD_UFPCA, METHOD_CFPCA)


@dataclass(frozen=True)
class FairFitResult:
    """A fitted projection with the trade-off weight that produced it.

    ``privileged`` and ``harmed`` name the groups in the roles the fit
    used (from plain PCA at the same rank); ``metrics.err_a`` belongs to
    the privileged group. ``budget`` is set only for the constrained
    method and holds the cap both group errors were required to respect.
    """

    method: str
    alpha: float
    u: np.ndarray
    metrics: GroupMetrics
    iterations: int
    privileged: str
    harmed: str
    budget: float | None = None

    def __post_init__(self):
        gram = self.u.T @ self.u
        if np.max(np.abs(gram - np.eye(gram.shape[0]))) > 1e-9:
            raise LinalgError("fitted projection has non-orthonormal columns")
        if self.method == METHOD_CFPCA:
            if self.budget is None:
                raise ValueError("constrained fits must record their budget")
            # exactly cfpca's test: its answer passes it by construction
            if not (self.metrics.err_a <= self.budget and self.metrics.err_b <= self.budget):
                raise ValueError("constrained fit exceeds its error budget")


@dataclass(frozen=True)
class Prepared:
    """A dataset's group labels, second moments and all d plain-PCA
    eigenpairs, built once by ``prepare`` and shared by every rank. The
    rank-r basis is ``eig.vectors[:, :r]``, bit for bit a rank-r solve's.
    ``rank``, the numerical rank, counts eigenvalues > d*eps*max(lambda_1, 0)."""

    labels: tuple[str, str]  # first-seen group first
    moments: Moments         # first-seen group as ``a``
    eig: EigenPairs          # all d pairs of ``moments.c``, descending

    @property
    def rank(self) -> int:
        values = self.eig.values
        floor = values.size * np.finfo(np.float64).eps * max(values[0], 0.0)
        return int(np.count_nonzero(values > floor))

    def check_rank(self, r: int) -> None:
        if not 1 <= r <= len(self.eig.values):
            raise LinalgError(f"rank must satisfy 1 <= r <= {len(self.eig.values)}, got {r}")


def prepare(table: RawTable) -> Prepared:
    """Center the columns on their means over all rows, then take the second
    moments and the one plain-PCA eigendecomposition that serves every rank.

    Raises ``DataError`` if a column sum overflows, and ``LinalgError``
    unless C, C_b - C_a and the squared traces are finite. Each group error
    lies in [0, tr_k], so the last check keeps every fairness finite too.
    """
    f, in_a = table.features, table.in_a
    n, d = f.shape
    with np.errstate(over="ignore", invalid="ignore"):
        x = f - f.mean(axis=0)
        # round-off in the mean and the subtraction grows with the column's
        # largest magnitude, so the bound scales with it
        scale = np.maximum(f.max(axis=0), -f.min(axis=0))
        if np.any(np.abs(x.sum(axis=0)) > _CENTER_TOL * n * scale):
            raise DataError("centering failed: column sums exceed tolerance")
        n_a = int(np.count_nonzero(in_a))
        moments = Moments(
            c=scaled_gram(x, n),
            c_a=scaled_gram(x[in_a], n_a),
            c_b=scaled_gram(x[~in_a], n - n_a),
        )
        finite = (
            np.isfinite(np.square([moments.tr, moments.tr_a, moments.tr_b])).all()
            and np.isfinite(moments.c).all()
            and np.isfinite(moments.c_b - moments.c_a).all()
        )
    if not finite:
        raise LinalgError(
            "second moments or their squares overflow float64 "
            "(or the features hold NaN/Inf); rescale the features"
        )
    return Prepared((table.label_a, table.label_b), moments, sym_eig_top_r(moments.c, d))


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


def _plain(p: Prepared, r: int) -> tuple[FairFitResult, Moments]:
    """Plain PCA at rank r, and the moments in the roles it sets.

    The one place roles are decided: the moments come in first-seen
    order and are swapped if that order gives a negative disparity. So
    the group with the lower plain-PCA error is privileged, and the
    first-seen group on an exact tie.
    """
    u = np.ascontiguousarray(p.eig.vectors[:, :r])
    m = p.moments
    privileged, harmed = p.labels
    metrics = moment_metrics(m, u)
    if metrics.disparity < 0.0:
        m, privileged, harmed = m.swapped(), harmed, privileged
        metrics = moment_metrics(m, u)
    return FairFitResult(METHOD_PCA, 1.0, u, metrics, 0, privileged, harmed), m


class _Point(NamedTuple):
    alpha: float
    u: np.ndarray
    metrics: GroupMetrics


def _bisect(evaluate, lo: _Point, hi: _Point, upper, tol: float):
    """Halve [lo, hi] while keeping ``upper`` true at hi and false at lo.

    Stops once the bracket is narrower than ``tol`` or its midpoint is no
    longer strictly inside it, which at the latest is when the ends are
    adjacent floats. Returns the final ends and the number of halvings.
    """
    halvings = 0
    while hi.alpha - lo.alpha >= tol:
        mid = 0.5 * (lo.alpha + hi.alpha)
        if not lo.alpha < mid < hi.alpha:
            break
        point = evaluate(mid)
        if upper(point):
            hi = point
        else:
            lo = point
        halvings += 1
    return lo, hi, halvings


def _fairest(points) -> _Point:
    # |disparity|, not its square: the square underflows to 0 for features
    # near 1e-91 and would tie every point. The larger alpha wins a tie: it
    # gives up less overall error
    return min(points, key=lambda p: (abs(p.metrics.disparity), -p.alpha))


@dataclass(frozen=True)
class Search:
    """The three fits at one rank. Plain PCA ``pca`` sets the roles: its
    privileged-first ``moments`` drive every blend, and its harmed error is
    cfpca's budget. ``roots`` runs the root search both fair fits share on
    first use, so a plain-PCA fit never pays for it. It skips the search
    on round-off: when ``exact`` (r at least the data's rank), and when
    plain PCA's disparity is at most d*eps*(tr_a + tr_b), the size of the
    round-off in two group errors, so groups with the same covariance get
    plain PCA."""

    pca: FairFitResult
    moments: Moments
    tol: float
    exact: bool

    def evaluate(self, alpha: float) -> _Point:
        if alpha == 1.0:  # plain PCA itself: no second solve
            return _Point(1.0, self.pca.u, self.pca.metrics)
        r = self.pca.u.shape[1]
        u = sym_eig_top_r(weighted_covariance(self.moments, alpha), r).vectors
        return _Point(alpha, u, moment_metrics(self.moments, u))

    @cached_property
    def roots(self) -> tuple[tuple[_Point, ...], int]:
        """The points ufpca picks from, and the halvings it took to find
        them: plain PCA when it is exact or fair up to round-off, alpha = 0
        when even that leaves the harmed group worse off, and otherwise both
        ends of the bracket around the disparity's sign change plus the
        secant point between them."""
        one = self.evaluate(1.0)
        m = self.moments
        round_off = len(m.c) * np.finfo(np.float64).eps * (m.tr_a + m.tr_b)
        if self.exact or one.metrics.disparity <= round_off:
            return (one,), 0
        zero = self.evaluate(0.0)
        if zero.metrics.disparity > 0.0:
            return (zero,), 0
        lo, hi, halvings = _bisect(
            self.evaluate, zero, one, lambda p: p.metrics.disparity > 0.0, self.tol
        )
        d_lo, d_hi = lo.metrics.disparity, hi.metrics.disparity
        secant = self.evaluate(lo.alpha + (hi.alpha - lo.alpha) * d_lo / (d_lo - d_hi))
        return (lo, hi, secant), halvings

    def ufpca(self) -> FairFitResult:
        """The fairest of the root candidates."""
        candidates, halvings = self.roots
        return FairFitResult(
            METHOD_UFPCA, *_fairest(candidates), halvings,
            self.pca.privileged, self.pca.harmed,
        )

    def cfpca(self) -> FairFitResult:
        """The fairest root candidate that meets the budget. If none does,
        bisects between the highest candidate and alpha = 1 for where the
        budget starts to hold, and returns that bracket's upper end."""
        budget = self.pca.metrics.err_b

        def meets(p: _Point) -> bool:
            return p.metrics.err_a <= budget and p.metrics.err_b <= budget

        candidates, halvings = self.roots
        feasible = [p for p in candidates if meets(p)]
        if feasible:
            best = _fairest(feasible)
        else:
            highest = max(candidates, key=lambda p: p.alpha)
            _, best, more = _bisect(
                self.evaluate, highest, self.evaluate(1.0), meets, self.tol
            )
            halvings += more
        return FairFitResult(
            METHOD_CFPCA, *best, halvings, self.pca.privileged, self.pca.harmed, budget
        )


def search(data: RawTable | Prepared, r: int, tol: float = DEFAULT_TOL) -> Search:
    """The ``Search`` at rank r of the table or its ``Prepared`` form.
    ``tol`` is the alpha bracket's final width and must be > 0."""
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not isinstance(data, Prepared):
        data = prepare(data)
    data.check_rank(r)
    return Search(*_plain(data, r), tol, r >= data.rank)


def fit_one(s: Search, method: str) -> FairFitResult:
    """The fit that ``method``, one of ``METHODS``, names in a rank's ``Search``."""
    if method == METHOD_PCA:
        return s.pca
    if method == METHOD_UFPCA:
        return s.ufpca()
    if method == METHOD_CFPCA:
        return s.cfpca()
    raise ValueError(f"unknown method {method!r}")
