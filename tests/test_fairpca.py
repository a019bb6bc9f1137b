import dataclasses
import json
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fairdim.fairpca import (
    FairFitResult,
    GroupMetrics,
    Moments,
    _bisect,
    _fairest,
    _Point,
    Search,
    moment_metrics,
    prepare,
    search,
    weighted_covariance,
)
from fairdim.linalg import LinalgError, scaled_gram, sym_eig_top_r
from fairdim.report import fit_record

from conftest import (
    HOSTILE,
    avg_reconstruction_error_direct,
    centered,
    count_solves,
    make_table,
    random_grouped,
    row_labels,
    same_rows_twice,
    with_subnormal_column,
)


def projector_gap(u, v):
    return float(np.linalg.norm(u @ u.T - v @ v.T))


def identical_groups():
    # both groups hold the same two rows, so no disparity can exist
    return make_table([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [3.0, 4.0]], list("abab"))


def moments(g):
    return prepare(g).moments


# one row per group: x_a = [1, 0] privileged, x_b = [0, 1] harmed
HAND_ROWS = (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
HAND_MOMENTS = Moments(
    c=scaled_gram(np.vstack(HAND_ROWS), 2),
    c_a=scaled_gram(HAND_ROWS[0], 1),
    c_b=scaled_gram(HAND_ROWS[1], 1),
)


def privileged_first(p, r):
    """``p``'s moments in the roles plain PCA sets at rank r."""
    pca = search(p, r).pca
    return p.moments if pca.privileged == p.labels[0] else p.moments.swapped()


def fair_projection(m, alpha, r):
    """Top-r eigenvectors of the weighted covariance at one alpha."""
    return sym_eig_top_r(weighted_covariance(m, alpha), r).vectors


class TestSearchTol:
    def test_defaults(self):
        assert search(prepare(identical_groups()), 1).tol == 1e-6

    def test_rejects_bad_tol(self):
        for tol in (0.0, -1e-3, math.nan):
            with pytest.raises(ValueError, match="tol must be positive"):
                search(prepare(identical_groups()), 1, tol)


class TestClassicalPca:
    def test_diagonal_covariance(self):
        # variance 2 along axis 0, variance 1 along axis 1
        s2, s1 = np.sqrt(2.0), 1.0
        feats = [[s2, 0.0], [-s2, 0.0], [0.0, s1], [0.0, -s1]]
        g = make_table(feats, list("aabb"))
        fit = search(prepare(g), 1).pca
        assert np.allclose(np.abs(fit.u[:, 0]), [1.0, 0.0], atol=1e-12)
        # overall error equals the discarded eigenvalue of C_X = diag(1, 0.5)
        assert fit.metrics.overall_err == pytest.approx(0.5, abs=1e-12)
        assert fit.alpha == 1.0
        assert fit.method == "pca"

    def test_full_rank_zero_error(self):
        rng = np.random.default_rng(10)
        g = random_grouped(rng, 20, 10, 4)
        fit = search(prepare(g), 4).pca
        assert fit.metrics.overall_err == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_45_degrees(self):
        feats = [[1.0, 1.0], [-1.0, -1.0], [2.0, 2.0], [-2.0, -2.0]]
        g = make_table(feats, list("abab"))
        fit = search(prepare(g), 1).pca
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(fit.u[:, 0], [s, s], atol=1e-12)

    def test_rank_out_of_range(self):
        # a bad request, not a numeric failure: exactly ValueError
        p = prepare(identical_groups())
        for r in (0, 3):
            with pytest.raises(ValueError) as exc:
                search(p, r)
            assert type(exc.value) is ValueError
            assert str(exc.value) == f"rank {r} is outside 1..2, the feature count"

    def test_rank_beyond_feature_count(self, s1_grouped):
        p = prepare(s1_grouped)
        d = s1_grouped.features.shape[1]
        with pytest.raises(ValueError) as exc:
            search(p, d + 1)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"rank {d + 1} is outside 1..{d}, the feature count"

    def test_disparity_never_negative_for_pca(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_grouped(rng, 25, 15, 5)
            fit = search(prepare(g), 2).pca
            assert fit.metrics.disparity >= 0.0


class TestWeightedCovariance:
    def test_alpha_one_is_plain_covariance(self):
        rng = np.random.default_rng(12)
        g = random_grouped(rng, 30, 20, 4)
        assert np.array_equal(weighted_covariance(moments(g), 1.0), scaled_gram(centered(g), 50))

    def test_alpha_zero_hand_case(self):
        out = weighted_covariance(HAND_MOMENTS, 0.0)
        assert np.array_equal(out, np.diag([-1.0, 1.0]))

    def test_identical_groups_scale_covariance(self):
        g = identical_groups()
        for alpha in (0.0, 0.3, 0.7, 1.0):
            expected = alpha * scaled_gram(centered(g), 4)
            assert np.array_equal(weighted_covariance(moments(g), alpha), expected)

    def test_rejects_alpha_outside_unit_interval(self):
        m = moments(identical_groups())
        with pytest.raises(ValueError):
            weighted_covariance(m, -0.1)
        with pytest.raises(ValueError):
            weighted_covariance(m, 1.1)

    def test_symmetric_output(self):
        rng = np.random.default_rng(13)
        g = random_grouped(rng, 30, 20, 5)
        for alpha in (0.0, 0.25, 0.6):
            c = weighted_covariance(moments(g), alpha)
            assert np.array_equal(c, c.T)

    def test_float32_alpha_blends_in_float64(self):
        # under numpy 2's promotion rules (NEP 50), 1.0 - np.float32(a)
        # stays float32, so without the cast to float the (1 - alpha) weight
        # rounds to single precision. numpy 1.24's legacy promotion gives
        # float64 either way, so there this passes with or without the cast
        a = np.nextafter(np.float32(0.3), np.float32(1))
        m = moments(random_grouped(np.random.default_rng(14), 30, 20, 4))
        assert weighted_covariance(m, a).tobytes() == weighted_covariance(m, float(a)).tobytes()


class TestFairProjection:
    def test_alpha_one_reduces_to_pca(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            g = random_grouped(rng, 30, 20, 5)
            for r in (1, 2, 4):
                u_pca = search(prepare(g), r).pca.u
                u_fair = fair_projection(moments(g), 1.0, r)
                assert projector_gap(u_fair, u_pca) <= 1e-8

    def test_alpha_zero_inverts_privilege(self):
        u = fair_projection(HAND_MOMENTS, 0.0, 1)
        assert np.allclose(u[:, 0], [0.0, 1.0], atol=1e-12)
        # harmed group is now represented perfectly, privileged one not at all
        x_a, x_b = HAND_ROWS
        err_a = float(np.sum((x_a - x_a @ u @ u.T) ** 2))
        err_b = float(np.sum((x_b - x_b @ u @ u.T) ** 2))
        assert err_b == pytest.approx(0.0, abs=1e-12)
        assert err_a == pytest.approx(1.0, abs=1e-12)

    def test_identical_groups_match_pca_for_positive_alpha(self):
        g = identical_groups()
        u_pca = search(prepare(g), 1).pca.u
        for alpha in (0.1, 0.5, 0.9, 1.0):
            assert projector_gap(fair_projection(moments(g), alpha, 1), u_pca) <= 1e-8


class TestDisparityMonotone:
    """The search treats the disparity as non-decreasing in alpha, and the
    overall and privileged errors as non-increasing (see the fairpca
    module docstring); check that on hostile random instances."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 11),
        n_b=st.integers(2, 8),
        duplicate=st.booleans(),
        constant=st.booleans(),
    )
    def test_monotone_on_alpha_grid(self, seed, d, n_b, duplicate, constant):
        rng = np.random.default_rng(seed)
        n_a = 14 * n_b
        # the groups stretch differently along independently rotated axes
        xs = [
            (rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0, d))
            @ np.linalg.qr(rng.standard_normal((d, d)))[0]
            for n in (n_a, n_b)
        ]
        x = np.vstack(xs)
        if duplicate:
            x[:, 1] = x[:, 0]
        if constant:
            x[:, -1] = 3.0
        g = make_table(x, ["a"] * n_a + ["b"] * n_b)
        p = prepare(g)
        # full eigenbases on the grid per role order; rank r takes r columns
        bases = {}
        for r in range(1, d + 1):
            m = privileged_first(p, r)
            key = m.c_a is p.moments.c_a
            if key not in bases:
                bases[key] = [fair_projection(m, a, d) for a in np.linspace(0, 1, 201)]
            slack = 1e-12 * (m.tr_a + m.tr_b)
            grid = [moment_metrics(m, u[:, :r]) for u in bases[key]]
            for lo, hi in zip(grid, grid[1:]):
                assert hi.disparity >= lo.disparity - slack
                assert hi.overall_err <= lo.overall_err + slack
                assert hi.err_a <= lo.err_a + slack


class TestBisect:
    @staticmethod
    def bisect(threshold, tol, calls=None):
        """Bisect [0, 1] on ``alpha > threshold``; the bracket's alphas.
        A bisection of [0, 1] reaches adjacent floats within 1,074 halvings
        (the longest is pinned below), so the stub fails a loop that has not
        stopped by 1,100 evaluations instead of letting it run forever."""
        calls = [] if calls is None else calls

        def evaluate(alpha):
            calls.append(alpha)
            if len(calls) > 1100:
                pytest.fail("the bisection did not stop")
            return _Point(alpha, None, None)

        lo, hi, halvings = _bisect(
            evaluate, evaluate(0.0), evaluate(1.0), lambda p: p.alpha > threshold, tol
        )
        return lo.alpha, hi.alpha, halvings

    def test_halving_count_and_bracket(self):
        for tol in (1e-2, 1e-6):
            lo, hi, halvings = self.bisect(0.3, tol)
            assert halvings == math.ceil(math.log2(1.0 / tol))
            assert lo <= 0.3 < hi and hi - lo == 2.0**-halvings

    def test_one_evaluation_per_halving(self):
        calls = []
        _, _, halvings = self.bisect(0.44, 1e-6, calls)
        assert len(calls) == halvings + 2  # the two ends, then the halvings

    def test_stops_at_adjacent_floats(self):
        lo, hi, halvings = self.bisect(0.3, 5e-324)
        assert hi == np.nextafter(lo, 1.0)
        assert lo <= 0.3 < hi
        assert halvings <= 64

    def test_stops_when_the_midpoint_rounds_down(self):
        # float(0.4) has an even significand, so the last midpoint rounds
        # to the lower end (float(0.3)'s rounds to the upper one)
        lo, hi, _ = self.bisect(0.4, 5e-324)
        assert (lo, hi) == (0.4, np.nextafter(0.4, 1.0))
        assert 0.5 * (lo + hi) == lo

    def test_reaches_adjacent_floats_near_zero(self):
        # the longest bisection of [0, 1]: every halving moves the upper end
        calls = []
        lo, hi, halvings = self.bisect(0.0, 5e-324, calls)
        assert (lo, hi) == (0.0, 5e-324)
        assert halvings == len(calls) - 2 == 1074

    def test_wide_tolerance_does_not_halve(self):
        assert self.bisect(0.3, 2.0) == (0.0, 1.0, 0)


def test_fairest_breaks_a_tie_by_the_larger_alpha():
    # equal |disparity| on either side of 0: the larger alpha gives up less
    # overall error, whatever the order of the candidates
    low = _Point(0.25, None, GroupMetrics(1.0, 1.0, 2.0, 1.0, 1.0))
    high = _Point(0.75, None, GroupMetrics(1.0, 2.0, 1.0, -1.0, 1.0))
    assert _fairest([low, high]) is high
    assert _fairest([high, low]) is high


class TestUFpca:
    def test_identical_groups_fairness_zero(self):
        fit = search(prepare(identical_groups()), 1).ufpca()
        assert fit.metrics.fairness == pytest.approx(0.0, abs=1e-15)

    def test_beats_pca_on_synthetic(self, s1_grouped):
        pca = search(prepare(s1_grouped), 1).pca
        fit = search(prepare(s1_grouped), 1).ufpca()
        assert fit.metrics.fairness <= pca.metrics.fairness
        assert fit.method == "ufpca"
        assert 0.0 <= fit.alpha <= 1.0
        assert fit.iterations == 20

    def test_respects_tolerance_config(self, s1_grouped):
        loose = search(prepare(s1_grouped), 1, tol=1e-2).ufpca()
        assert loose.iterations == 7

    def test_terminates_without_iteration_cap(self, s1_grouped):
        # the finest tol halves until the bracket's ends are adjacent floats
        fine = search(prepare(s1_grouped), 1, tol=5e-324).ufpca()
        assert fine.iterations <= 64
        assert fine.metrics.fairness <= search(prepare(s1_grouped), 1).ufpca().metrics.fairness

    def test_never_less_fair_than_pca_across_a_crossing(self):
        # plain PCA fits this exactly; the second column is all zeros
        rng = np.random.default_rng(0)
        col = np.vstack([2.0 * rng.standard_normal((40, 1)), rng.standard_normal((30, 1))])
        g = make_table(np.hstack([col, np.zeros((70, 1))]), ["a"] * 40 + ["b"] * 30)
        fit = search(prepare(g), 1).ufpca()
        assert fit.alpha == 1.0
        assert fit.metrics.fairness == 0.0

    def test_fairest_at_tiny_scale(self):
        # at 2^-300 every squared disparity underflows to 0; the fit must
        # still be the candidate nearest fair, as it is unscaled
        g = random_grouped(np.random.default_rng(2), 200, 100, 6)
        s = search(prepare(dataclasses.replace(g, features=g.features * 2.0**-300)), 2)
        candidates, _ = s.roots
        assert len(candidates) == 3
        assert all(p.metrics.fairness == 0.0 for p in candidates)
        fit = s.ufpca()
        assert abs(fit.metrics.disparity) == min(abs(p.metrics.disparity) for p in candidates)
        assert fit.alpha == pytest.approx(search(prepare(g), 2).ufpca().alpha, abs=s.tol)

    def test_best_fair_rank_one_projection(self):
        # the paper's optimality claim, against every rank-1 projection and
        # not only the alpha family: among the directions u of a dense
        # Fibonacci hemisphere that are fair, u'Du >= c with D = C_b - C_a
        # and c = tr_b - tr_a in the fit's roles, none loses less overall
        # variance than ufpca's root. A blend alpha*C + (1 - alpha)*C_b
        # still passes, because its roots are weighted sums of C_a and C_b
        # too; a solve that took the second eigenvector fails every cell
        n = 20_000
        z = 1.0 - (np.arange(n) + 0.5) / n
        phi = np.arange(n) * np.pi * (3.0 - np.sqrt(5.0))
        rho = np.sqrt(1.0 - z * z)
        grid = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
        interior = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            xa = rng.standard_normal((200, 3)) @ rng.standard_normal((3, 3))
            xb = rng.standard_normal((60, 3)) @ rng.standard_normal((3, 3))
            s = search(prepare(make_table(np.vstack([xa, xb]), ["a"] * 200 + ["b"] * 60)), 1)
            fit = s.ufpca()
            if not 0.0 < fit.alpha < 1.0:
                continue
            interior += 1
            m = s.moments
            fair = np.einsum("ij,jk,ik->i", grid, m.c_b - m.c_a, grid) >= m.tr_b - m.tr_a
            errs = m.tr - np.einsum("ij,jk,ik->i", grid[fair], m.c, grid[fair])
            assert abs(fit.metrics.disparity) <= 1e-6 * (m.tr_a + m.tr_b), seed
            assert fit.metrics.overall_err <= errs.min() + 1e-12 * m.tr, seed
        assert interior >= 25

    def test_metrics_recomputable(self, s1_grouped):
        g = s1_grouped
        fit = search(prepare(g), 1).ufpca()
        pca = search(prepare(g), 1).pca
        x = centered(g)
        x_a, x_b = x[g.in_a], x[~g.in_a]
        x_privileged, x_harmed = (x_a, x_b) if pca.privileged == g.label_a else (x_b, x_a)
        overall = avg_reconstruction_error_direct(x, fit.u)
        gap = avg_reconstruction_error_direct(
            x_harmed, fit.u
        ) - avg_reconstruction_error_direct(x_privileged, fit.u)
        assert overall == pytest.approx(fit.metrics.overall_err, rel=1e-9)
        assert gap * gap == pytest.approx(fit.metrics.fairness, rel=1e-9, abs=1e-15)


class TestCFpca:
    def test_identical_groups_match_pca(self):
        g = identical_groups()
        fit = search(prepare(g), 1).cfpca()
        pca = search(prepare(g), 1).pca
        assert projector_gap(fit.u, pca.u) <= 1e-8
        assert fit.metrics.fairness == pytest.approx(0.0, abs=1e-15)

    def test_budget_is_harmed_group_pca_error(self, s1_grouped):
        fit = search(prepare(s1_grouped), 1).cfpca()
        pca = search(prepare(s1_grouped), 1).pca
        assert fit.budget == pca.metrics.err_b

    def test_contract_on_synthetic(self, s1_grouped):
        pca = search(prepare(s1_grouped), 1).pca
        fit = search(prepare(s1_grouped), 1).cfpca()
        assert fit.metrics.err_a <= fit.budget
        assert fit.metrics.err_b <= fit.budget
        assert fit.metrics.fairness <= pca.metrics.fairness + 1e-12

    def test_contract_on_random_data(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            g = random_grouped(rng, 40, 25, 5)
            r = int(rng.integers(1, 5))
            fit = search(prepare(g), r).cfpca()
            pca = search(prepare(g), r).pca
            assert fit.metrics.err_a <= fit.budget
            assert fit.metrics.err_b <= fit.budget
            assert fit.metrics.fairness <= pca.metrics.fairness + 1e-12
            assert pca.metrics.overall_err <= fit.metrics.overall_err + 1e-9

    def test_full_rank_round_off_guard(self):
        # at r = d every error is round-off noise, and the fit must still
        # come back within its exact budget and no less fair than plain PCA
        rng = np.random.default_rng(16)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            g = random_grouped(rng, int(rng.integers(3, 40)), int(rng.integers(3, 40)), d)
            fit = search(prepare(g), d).cfpca()
            pca = search(prepare(g), d).pca
            assert fit.metrics.err_a <= fit.budget
            assert fit.metrics.err_b <= fit.budget
            assert fit.metrics.fairness <= pca.metrics.fairness + 1e-12

    def test_budget_bisection_matches_grid_oracle(self):
        # where ufpca's fit breaks the budget, cfpca bisects between it
        # and plain PCA; it must land on the fairest alpha of a 1001-point
        # grid that meets the budget
        rng = np.random.default_rng(15)
        seen = 0
        for _ in range(30):
            d = int(rng.integers(2, 7))
            g = random_grouped(rng, int(rng.integers(3, 50)), int(rng.integers(3, 50)), d)
            r = int(rng.integers(1, d + 1))
            fit, root = search(prepare(g), r).cfpca(), search(prepare(g), r).ufpca()
            if max(root.metrics.err_a, root.metrics.err_b) <= fit.budget:
                continue
            seen += 1
            assert max(fit.metrics.err_a, fit.metrics.err_b) <= fit.budget
            assert fit.alpha > root.alpha
            p = prepare(g)
            m = privileged_first(p, r)
            grid = [
                moment_metrics(m, fair_projection(m, a, r))
                for a in np.linspace(0.0, 1.0, 1001)
            ]
            best = min(
                x.fairness for x in grid if max(x.err_a, x.err_b) <= fit.budget
            )
            assert fit.metrics.fairness <= best + 1e-12
        assert seen >= 2

    def test_one_decomposition_per_alpha(self, s1_grouped, monkeypatch):
        calls = count_solves(monkeypatch)
        fit = search(prepare(s1_grouped), 1).cfpca()
        # one for the baseline PCA (alpha = 1 reuses it), one at alpha = 0,
        # one per halving and one at the secant point
        assert len(calls) == fit.iterations + 3


class TestSharedSearch:
    """ufpca and cfpca at one rank derive from one root search."""

    def test_cfpca_after_ufpca_adds_no_solve(self, s1_grouped, monkeypatch):
        s = search(prepare(s1_grouped), 1)
        calls = count_solves(monkeypatch)
        uf = s.ufpca()
        assert 0.0 < uf.alpha < 1.0
        assert len(calls) == uf.iterations + 2  # alpha = 0, halvings, secant
        cf = s.cfpca()
        assert (cf.alpha, cf.iterations) == (uf.alpha, uf.iterations)
        assert len(calls) == uf.iterations + 2

    def test_budget_bisection_adds_only_its_halvings(self, monkeypatch):
        # ufpca lands on alpha = 0 and breaks the budget, so cfpca bisects
        # up from there; alpha = 1 is plain PCA and costs no solve
        s = search(prepare(random_grouped(np.random.default_rng(7), 38, 3, 2)), 1)
        calls = count_solves(monkeypatch)
        uf = s.ufpca()
        before = len(calls)
        cf = s.cfpca()
        assert (uf.alpha, uf.iterations) == (0.0, 0)
        assert cf.iterations == 20
        assert len(calls) - before == cf.iterations - uf.iterations

    def test_concurrent_first_use(self, s1_grouped):
        # threads that race to the first use of one Search may each run the
        # root search, but every fit they derive is the serial one
        serial = search(prepare(s1_grouped), 1)
        expected = (serial.ufpca(), serial.cfpca())
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                s = search(prepare(s1_grouped), 1)
                results = []

                def work(s=s, results=results):
                    results.append((s.ufpca(), s.cfpca()))

                threads = [threading.Thread(target=work) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
                assert len(results) == 4
                for fits in results:
                    for fit, want in zip(fits, expected):
                        assert (fit.alpha, fit.iterations) == (want.alpha, want.iterations)
                        assert np.array_equal(fit.u, want.u)
        finally:
            sys.setswitchinterval(switch)


class TestPointLog:
    """A ``Search`` keeps every point it evaluated, in evaluation order."""

    def test_ufpca_logs_each_solve_in_order(self, s1_grouped, monkeypatch):
        s = search(prepare(s1_grouped), 1)
        calls = count_solves(monkeypatch)
        uf = s.ufpca()
        keys = list(s.points)
        assert len(keys) == 1 + len(calls) == 3 + uf.iterations
        assert keys[:2] == [1.0, 0.0]
        # then the midpoints in halving order, then the secant point
        lo, hi = s.points[0.0], s.points[1.0]
        for alpha in keys[2:-1]:
            assert alpha == 0.5 * (lo.alpha + hi.alpha)
            if s.points[alpha].metrics.disparity > 0.0:
                hi = s.points[alpha]
            else:
                lo = s.points[alpha]
        d_lo, d_hi = lo.metrics.disparity, hi.metrics.disparity
        assert keys[-1] == lo.alpha + (hi.alpha - lo.alpha) * d_lo / (d_lo - d_hi)
        assert uf.u is s.points[uf.alpha].u
        s.cfpca()  # a root candidate meets the budget
        assert list(s.points) == keys

    def test_budget_bisection_logs_only_its_halvings(self):
        # the tables of TestCFpca's grid oracle, some of which bisect for
        # the budget
        rng = np.random.default_rng(15)
        seen = 0
        for _ in range(30):
            d = int(rng.integers(2, 7))
            g = random_grouped(rng, int(rng.integers(3, 50)), int(rng.integers(3, 50)), d)
            r = int(rng.integers(1, d + 1))
            s = search(prepare(g), r)
            uf = s.ufpca()
            keys = list(s.points)
            cf = s.cfpca()
            assert len(s.points) - len(keys) == cf.iterations - uf.iterations
            assert cf.u is s.points[cf.alpha].u
            seen += cf.iterations > uf.iterations
        assert seen >= 2

    def test_exact_rank_logs_plain_pca_only(self, s1_grouped):
        p = prepare(s1_grouped)
        s = search(p, p.rank)
        s.ufpca()
        s.cfpca()
        assert list(s.points) == [1.0]


class TestFullRank:
    def test_full_rank_is_plain_pca(self, monkeypatch):
        # at r = d plain PCA reconstructs every row exactly and all errors
        # are round-off, so both searches must return it untouched
        calls = count_solves(monkeypatch)
        rng = np.random.default_rng(15)
        for _ in range(400):
            d = int(rng.integers(2, 5))
            g = random_grouped(rng, int(rng.integers(3, 40)), int(rng.integers(3, 40)), d)
            p = prepare(g)
            pca = search(p, d).pca
            for fit_fn in (Search.ufpca, Search.cfpca):
                calls.clear()
                fit = fit_fn(search(prepare(g), d))
                assert (fit.alpha, fit.iterations, len(calls)) == (1.0, 0, 1)
                assert np.array_equal(fit.u, pca.u)
                assert fit.metrics == pca.metrics


class TestNumericGate:
    # 1e200 overflows the moments; 1e150 gives finite moments near 1e300,
    # but the fairness (a squared error gap) would overflow
    @pytest.mark.parametrize("scale", [1e200, 1e150])
    def test_overflow_rejected(self, scale):
        rng = np.random.default_rng(3)
        g = make_table(scale * rng.standard_normal((8, 2)), list("aaaabbbb"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LinalgError, match="overflow float64"):
                prepare(g)

    def test_non_finite_rows_rejected(self):
        g = random_grouped(np.random.default_rng(4), 5, 5, 3)
        x = g.features.copy()
        x[7, 1] = np.nan
        bad = dataclasses.replace(g, features=x)
        with pytest.raises(LinalgError, match="overflow float64"):
            prepare(bad)

    def test_large_features_accepted(self):
        # 1e70 gives moments near 1e140 and fairness near 1e280: all finite
        rng = np.random.default_rng(5)
        g = make_table(1e70 * rng.standard_normal((8, 2)), list("aaaabbbb"))
        for fit in (search(prepare(g), 1).ufpca(), search(prepare(g), 1).cfpca()):
            assert np.isfinite(list(dataclasses.astuple(fit.metrics))).all()
            assert 0.0 <= fit.alpha <= 1.0

    @settings(deadline=None)
    @given(
        n=st.integers(2, 59),
        d=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        exponents=st.lists(st.floats(-323.0, 308.25), min_size=4, max_size=4),
        offsets=st.booleans(),
    )
    # a column sum that overflows, and a subnormal column whose centered
    # sum is round-off, not 0
    @example(n=2, d=4, seed=2, exponents=[0.0, 0.0, 0.0, 308.25], offsets=False)
    @example(n=20, d=2, seed=0, exponents=[0.0, -318.0, 0.0, 0.0], offsets=False)
    def test_one_gate_across_scales(self, n, d, seed, exponents, offsets):
        # columns of magnitude 10**e, from subnormal to the float64 ceiling,
        # each of mixed sign or, with offsets, shifted off 0: prepare either
        # passes moments whose squared traces are finite or raises
        # LinalgError, with no other error and no numpy warning
        rng = np.random.default_rng(seed)
        center = rng.uniform(-1.0, 1.0, d) if offsets else np.zeros(d)
        u = rng.uniform(-1.0, 1.0, (n, d))
        x = np.power(10.0, exponents[:d]) * (center + (1.0 - np.abs(center)) * u)
        n_a = int(rng.integers(1, n))
        g = make_table(x, ["a"] * n_a + ["b"] * (n - n_a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                m = prepare(g).moments
            except LinalgError:
                return
        assert np.isfinite(np.square([m.tr, m.tr_a, m.tr_b])).all()


def eigenvalue_tie(rng, n_a, n_b, d):
    """Rows whose covariance has eigenvalues k and k + 1 (k drawn in 1..d-1)
    1e-12 apart, so plain PCA's rank-k subspace is barely determined."""
    n = n_a + n_b
    values = np.sort(rng.uniform(0.5, 3.0, d))[::-1]
    k = int(rng.integers(1, d))
    values[k] = values[k - 1] - 1e-12
    z = rng.standard_normal((n, d))
    q = np.linalg.qr(z - z.mean(axis=0))[0]  # centered, orthonormal columns
    basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return make_table(np.sqrt(n) * (q * np.sqrt(values)) @ basis.T, ["a"] * n_a + ["b"] * n_b)


def hostile_draw(family, rng, n_a, n_b, d):
    """A table of one ``HOSTILE`` shape, or an ``eigenvalue_tie``, at drawn
    sizes: n_a and n_b rows per group (before the shape's own changes) and
    d columns (d more than the rows for d_gt_n)."""
    if family == "d_gt_n":
        return random_grouped(rng, n_a, n_b, n_a + n_b + d)
    if family == "imbalance_14_to_1":
        return random_grouped(rng, 14 * n_b, n_b, d)
    if family == "one_row_group":
        return random_grouped(rng, n_a, 1, d)
    if family == "all_zero":
        return make_table(np.zeros((n_a + n_b, d)), ["a"] * n_a + ["b"] * n_b)
    if family == "identical_covariance":
        return same_rows_twice(rng, n_a + n_b, d)
    if family == "eigenvalue_tie":
        return eigenvalue_tie(rng, n_a + d, n_b + d, d + 1)
    g = random_grouped(rng, n_a, n_b, d)
    x, labels = g.features, row_labels(g)
    if family == "scaled_1e-150":
        return make_table(1e-150 * x, labels)
    if family == "subnormal_column":
        return make_table(with_subnormal_column(rng, x), labels)
    extra = {"constant_column": np.full(len(x), 3.0), "duplicated_column": x[:, 0]}[family]
    return make_table(np.column_stack([x, extra]), labels)


HOSTILE_FAMILIES = [*HOSTILE, "eigenvalue_tie"]


def grid_by_rank(p):
    """For each rank of ``p``: its ``Search``, TestDisparityMonotone's slack
    and the (alpha, metrics) of a 201-point alpha grid in its roles."""
    width = len(p.eig.values)
    alphas = np.linspace(0.0, 1.0, 201)
    bases = {}  # full eigenbases on the grid per role order
    for r in range(1, width + 1):
        s = search(p, r)
        m = s.moments
        key = m.c_a is p.moments.c_a
        if key not in bases:
            bases[key] = [fair_projection(m, a, width) for a in alphas]
        grid = [(a, moment_metrics(m, np.ascontiguousarray(u[:, :r])))
                for a, u in zip(alphas, bases[key])]
        yield s, 1e-12 * (m.tr_a + m.tr_b), grid


def assert_every_rank_fits(g):
    for r in range(1, g.features.shape[1] + 1):
        s = search(prepare(g), r)
        pca, uf, cf = s.pca, s.ufpca(), s.cfpca()
        for fit in (pca, uf, cf):
            assert 0.0 <= fit.alpha <= 1.0
        assert abs(uf.metrics.disparity) <= abs(pca.metrics.disparity)
        assert cf.metrics.err_a <= cf.budget and cf.metrics.err_b <= cf.budget
        again = search(prepare(g), r)
        for fit, rerun in zip((pca, uf, cf), (again.pca, again.ufpca(), again.cfpca())):
            assert json.dumps(fit_record(fit)) == json.dumps(fit_record(rerun))


class TestHostileInputs:
    @pytest.mark.parametrize("case", HOSTILE)
    def test_every_rank_fits(self, case):
        assert_every_rank_fits(HOSTILE[case])

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(HOSTILE_FAMILIES),
        seed=st.integers(0, 2**32 - 1),
        n_a=st.integers(1, 12),
        n_b=st.integers(1, 8),
        d=st.integers(1, 6),
    )
    # ufpca used to leave plain PCA on round-off here, for a less fair fit
    @example(family="identical_covariance", seed=3619555525, n_a=11, n_b=1, d=3)
    def test_every_rank_fits_at_drawn_sizes(self, family, seed, n_a, n_b, d):
        assert_every_rank_fits(hostile_draw(family, np.random.default_rng(seed), n_a, n_b, d))

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(HOSTILE_FAMILIES),
        seed=st.integers(0, 2**32 - 1),
        n_a=st.integers(1, 12),
        n_b=st.integers(1, 8),
        d=st.integers(1, 6),
    )
    def test_ufpca_beats_a_dense_grid(self, family, seed, n_a, n_b, d):
        # the disparity is monotone in alpha, so away from ufpca's final
        # bracket (the span of its root candidates) it only grows in size:
        # at no rank may an alpha of a 201-point grid outside it be fairer,
        # up to TestDisparityMonotone's slack
        p = prepare(hostile_draw(family, np.random.default_rng(seed), n_a, n_b, d))
        for s, slack, grid in grid_by_rank(p):
            alphas = [point.alpha for point in s.roots[0]]
            lo, hi = min(alphas), max(alphas)
            fairest = abs(s.ufpca().metrics.disparity)
            for a, x in grid:
                if not lo < a < hi:
                    assert abs(x.disparity) >= fairest - slack, (s.pca.u.shape[1], a)

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(HOSTILE_FAMILIES),
        seed=st.integers(0, 2**32 - 1),
        n_a=st.integers(1, 12),
        n_b=st.integers(1, 8),
        d=st.integers(1, 6),
    )
    # cfpca bisects for its budget here, at rank 3 and at rank 2
    @example(family="one_row_group", seed=1, n_a=9, n_b=2, d=4)
    @example(family="eigenvalue_tie", seed=0, n_a=3, n_b=5, d=2)
    def test_cfpca_beats_a_dense_grid(self, family, seed, n_a, n_b, d):
        # cfpca's answer is the upper end of its final bracket, which runs
        # down to the nearest point it evaluated below that answer: at no
        # rank may an alpha of a 201-point grid outside it meet the budget
        # and be fairer, up to TestDisparityMonotone's slack
        p = prepare(hostile_draw(family, np.random.default_rng(seed), n_a, n_b, d))
        for s, slack, grid in grid_by_rank(p):
            cf = s.cfpca()
            budget = cf.budget
            assert cf.metrics.err_a <= budget and cf.metrics.err_b <= budget
            lo = max((a for a in s.points if a < cf.alpha), default=cf.alpha)
            fairest = abs(cf.metrics.disparity)
            for a, x in grid:
                if not lo < a < cf.alpha and x.err_a <= budget and x.err_b <= budget:
                    assert abs(x.disparity) >= fairest - slack, (s.pca.u.shape[1], a)

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from([*HOSTILE_FAMILIES, "scaled_group"]),
        seed=st.integers(0, 2**32 - 1),
        n_a=st.integers(1, 12),
        n_b=st.integers(1, 8),
        d=st.integers(1, 6),
    )
    # ufpca and cfpca both land below alpha0 here, at ranks 1 and 2
    @example(family="scaled_group", seed=7, n_a=8, n_b=5, d=3)
    def test_a_fit_below_alpha0_levels_down(self, family, seed, n_a, n_b, d):
        # with a privileged, C = (n_a*C_a + n_b*C_b)/n makes the blend
        # w_a*C_a + w_b*C_b with w_a >= 0 exactly when alpha >= alpha0 =
        # n/(n + n_a). At alpha0 it is a multiple of C_b, so U(alpha0) is the
        # harmed group's own PCA and has the least err_b; err_a never rises
        # with alpha. So a fit below alpha0 levels down: U(alpha0) gives
        # neither group a higher error, up to round-off
        rng = np.random.default_rng(seed)
        if family == "scaled_group":
            g = random_grouped(rng, n_a, n_b, d)
            x = g.features.copy()
            x[g.in_a] *= rng.uniform(0.2, 1.0)
            g = make_table(x, row_labels(g))
        else:
            g = hostile_draw(family, rng, n_a, n_b, d)
        p = prepare(g)
        n, n_first = g.in_a.size, int(np.count_nonzero(g.in_a))
        for r in range(1, len(p.eig.values) + 1):
            s = search(p, r)
            n_priv = n_first if s.pca.privileged == p.labels[0] else n - n_first
            alpha0 = n / (n + n_priv)
            m = s.moments
            slack = 1e-12 * (m.tr_a + m.tr_b)
            level = moment_metrics(m, fair_projection(m, alpha0, r))
            for fit in (s.ufpca(), s.cfpca()):
                if fit.alpha < alpha0:
                    assert level.err_a <= fit.metrics.err_a + slack, (r, fit.method)
                    assert level.err_b <= fit.metrics.err_b + slack, (r, fit.method)

    def test_identical_covariances_get_plain_pca(self, monkeypatch):
        # every disparity is round-off, which used to start a search that
        # left plain PCA for a fit with several times its overall error
        g = HOSTILE["identical_covariance"]
        calls = count_solves(monkeypatch)
        for r in range(1, g.features.shape[1] + 1):
            calls.clear()
            s = search(prepare(g), r)
            for fit in (s.ufpca(), s.cfpca()):
                assert (fit.alpha, fit.iterations) == (1.0, 0)
                assert np.array_equal(fit.u, s.pca.u)
            assert len(calls) == 1  # prepare's; alpha = 1 reuses it


# each HOSTILE table's numerical rank, where it is below its width d:
# four centered rows span 3 dimensions, and a constant, duplicated,
# subnormal or all-zero column adds none
HOSTILE_RANK = {
    "d_gt_n": 3,
    "constant_column": 4,
    "duplicated_column": 4,
    "all_zero": 0,
    "subnormal_column": 4,
}


class TestNumericalRank:
    """From the data's numerical rank on, plain PCA is exact and the fair
    fits return it without a search."""

    @pytest.mark.parametrize("case", HOSTILE)
    def test_hostile_rank(self, case):
        g = HOSTILE[case]
        assert prepare(g).rank == HOSTILE_RANK.get(case, g.features.shape[1])

    @pytest.mark.parametrize("case", HOSTILE)
    def test_plain_pca_from_the_rank_on(self, case, monkeypatch):
        g = HOSTILE[case]
        d = g.features.shape[1]
        calls = count_solves(monkeypatch)
        for r in range(max(HOSTILE_RANK.get(case, d), 1), d + 1):
            calls.clear()
            s = search(prepare(g), r)
            pca, uf, cf = s.pca, s.ufpca(), s.cfpca()
            assert len(calls) == 1  # plain PCA's; alpha = 1 reuses it
            want = {**fit_record(pca), "method": None, "budget": None}
            for fit in (uf, cf):
                assert (fit.alpha, fit.iterations) == (1.0, 0)
                got = {**fit_record(fit), "method": None, "budget": None}
                assert json.dumps(got) == json.dumps(want)
            assert cf.budget == pca.metrics.err_b

    def test_plain_pca_at_the_rank_above_round_off(self, monkeypatch):
        # the rank, not the round-off rule, returns plain PCA here. A y
        # spread of e in the 4-row group b gives C a y eigenvalue of e^2/51,
        # a quarter of the rank floor 2*eps*lambda_1, while plain PCA's
        # disparity e^2 (group b loses all of it, group a none) is ten
        # times the round-off floor 2*eps*(tr_a + tr_b) = 10*eps.
        # Every sum is exact, so C is diagonal and no solve rounds
        e = 10.0 * math.sqrt(np.finfo(np.float64).eps)
        rows = [[2.0, 0.0], [-2.0, 0.0]] * 100 + [[1.0, e], [1.0, -e], [-1.0, e], [-1.0, -e]]
        p = prepare(make_table(rows, ["a"] * 200 + ["b"] * 4))
        assert p.rank == 1
        calls = count_solves(monkeypatch)
        s = search(p, 1)
        round_off = 2 * np.finfo(np.float64).eps * (s.moments.tr_a + s.moments.tr_b)
        assert s.pca.metrics.disparity > 5.0 * round_off
        for fit in (s.ufpca(), s.cfpca()):
            assert (fit.alpha, fit.iterations) == (1.0, 0)
            assert np.array_equal(fit.u, s.pca.u)
        assert calls == []  # plain PCA's vectors come from prepare

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 6),
        k=st.integers(1, 3),
    )
    def test_appended_combinations_lower_the_rank(self, seed, m, k):
        # k columns that are integer combinations of m full-rank columns
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2 * m + 2, 40))
        x = rng.standard_normal((n, m)) * rng.uniform(0.1, 3.0, m)
        w = rng.integers(-3, 4, (m, k)).astype(float)
        g = make_table(np.column_stack([x, x @ w]), ["a"] * (n // 2) + ["b"] * (n - n // 2))
        assert prepare(g).rank == m


class TestPlainPcaRoles:
    # group a spreads along x, group b along y; the wider spread leads
    @staticmethod
    def fit(a_scale, b_scale):
        rows = [[a_scale, 0.0], [-a_scale, 0.0], [0.0, b_scale], [0.0, -b_scale]]
        return search(prepare(make_table(rows, list("aabb"))), 1).pca

    def test_first_group_favored(self):
        pca = self.fit(2.0, 1.0)  # plain PCA keeps x: group a exactly
        assert (pca.privileged, pca.harmed) == ("a", "b")
        assert pca.metrics.err_a == 0.0
        assert pca.metrics.err_b == pytest.approx(1.0)  # rows (0, ±1) lost
        assert pca.metrics.disparity == pytest.approx(1.0)

    def test_second_group_favored(self):
        pca = self.fit(1.0, 2.0)  # plain PCA keeps y: group b exactly
        assert (pca.privileged, pca.harmed) == ("b", "a")
        assert pca.metrics.err_a == 0.0
        assert pca.metrics.err_b == pytest.approx(1.0)
        assert pca.metrics.disparity == pytest.approx(1.0)

    def test_tie_goes_to_first_group(self):
        # both groups hold the same rows, so their errors tie exactly
        rows = [[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        for labels in ("ab" * 4, "ba" * 4):
            g = make_table([row for row in rows for _ in "ab"], list(labels))
            pca = search(prepare(g), 1).pca
            assert pca.metrics.err_a == pca.metrics.err_b == 0.5
            assert (pca.privileged, pca.harmed) == (labels[0], labels[1])


class TestRoleAssignment:
    @pytest.mark.parametrize("fit_fn", [Search.ufpca, Search.cfpca], ids=["ufpca", "cfpca"])
    @pytest.mark.parametrize("first_seen", ["a", "b"])
    def test_roles_assigned_once_per_fit(self, fit_fn, first_seen, monkeypatch):
        import fairdim.fairpca as fairpca_module

        g = random_grouped(np.random.default_rng(41), 40, 25, 5)
        if first_seen == "b":
            rows = np.vstack([g.features[~g.in_a], g.features[g.in_a]])
            g = make_table(rows, ["b"] * 25 + ["a"] * 40)
        real = fairpca_module._plain
        calls = []
        monkeypatch.setattr(
            fairpca_module, "_plain", lambda *args: calls.append(1) or real(*args)
        )
        fit = fit_fn(search(prepare(g), 2))
        assert len(calls) == 1

        # the same roles, budget and metric order as plain PCA's
        p = prepare(g)
        pca = search(p, 2).pca
        assert (fit.privileged, fit.harmed) == (pca.privileged, pca.harmed)
        if fit_fn is Search.cfpca:
            assert fit.budget == pca.metrics.err_b
        assert moment_metrics(privileged_first(p, 2), fit.u) == fit.metrics


class TestFairFitResultValidation:
    @staticmethod
    def fit(u):
        m = GroupMetrics(1.0, 1.0, 1.0, 0.0, 0.0)
        return FairFitResult(
            method="pca", alpha=1.0, u=u, metrics=m, iterations=0,
            privileged="a", harmed="b",
        )

    def test_rejects_skewed_projection(self):
        with pytest.raises(LinalgError, match="^fitted projection has non-orthonormal columns$"):
            self.fit(np.ones((2, 1)))

    def test_orthonormality_tolerance_is_1e_9(self):
        # the gram of [[1, t], [0, 1]] is off the identity by t (and t^2)
        self.fit(np.array([[1.0, 0.5e-9], [0.0, 1.0]]))
        with pytest.raises(LinalgError, match="non-orthonormal"):
            self.fit(np.array([[1.0, 1.5e-9], [0.0, 1.0]]))
