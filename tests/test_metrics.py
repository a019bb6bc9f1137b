import dataclasses

import numpy as np
import pytest

from fairdim.linalg import LinalgError
from fairdim.fairpca import moment_metrics, prepare, search
from fairdim.report import run_sweep

from conftest import (
    HOSTILE,
    avg_reconstruction_error_direct,
    centered,
    make_table,
    moments_of,
    rand_orthonormal,
    random_grouped,
)


def moment_err(x, u) -> float:
    """One row group's average error through the moment form."""
    return moment_metrics(moments_of(x, x), u).overall_err


class TestAvgReconstructionError:
    def test_full_rank_is_zero(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 4))
        q = rand_orthonormal(rng, 4, 4)
        assert moment_err(x, q) == pytest.approx(0.0, abs=1e-12)
        assert avg_reconstruction_error_direct(x, q) == pytest.approx(0.0, abs=1e-12)

    def test_axis_projection(self):
        x = np.eye(2)
        u = np.array([[1.0], [0.0]])
        assert moment_err(x, u) == pytest.approx(0.5, abs=1e-15)
        assert avg_reconstruction_error_direct(x, u) == pytest.approx(0.5, abs=1e-15)

    def test_hand_residual(self):
        x = np.array([[3.0, 4.0]])
        u = np.array([[1.0], [0.0]])
        assert moment_err(x, u) == pytest.approx(16.0, abs=1e-12)
        assert avg_reconstruction_error_direct(x, u) == pytest.approx(16.0, abs=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(LinalgError, match="orthonormal"):
            avg_reconstruction_error_direct(np.eye(2), np.array([[1.0], [1.0]]))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(LinalgError):
            avg_reconstruction_error_direct(np.eye(3), np.array([[1.0], [0.0]]))

    def test_subtraction_form_matches_direct(self):
        # tr(C) - tr(U'CU) against the explicit residual
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            d = int(rng.integers(2, 8))
            r = int(rng.integers(1, d + 1))
            x = rng.standard_normal((n, d)) * 3.0
            u = rand_orthonormal(rng, d, r)
            fast = moment_err(x, u)
            slow = avg_reconstruction_error_direct(x, u)
            assert fast == pytest.approx(slow, rel=1e-8, abs=1e-12)


class TestDisparity:
    def test_orthogonal_groups(self):
        u = np.array([[1.0], [0.0]])
        out = moment_metrics(moments_of([[1.0, 0.0]], [[0.0, 1.0]]), u).disparity
        assert out == pytest.approx(1.0, abs=1e-15)

    def test_identical_groups_zero(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 3))
        u = rand_orthonormal(rng, 3, 2)
        assert moment_metrics(moments_of(x, x), u).disparity == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(4)
        m = moments_of(rng.standard_normal((6, 3)), rng.standard_normal((4, 3)))
        u = rand_orthonormal(rng, 3, 1)
        assert moment_metrics(m, u).disparity == -moment_metrics(m.swapped(), u).disparity


class TestFairnessMeasure:
    def test_square_of_unit_disparity(self):
        u = np.array([[1.0], [0.0]])
        m = moments_of([[1.0, 0.0]], [[0.0, 1.0]])
        assert moment_metrics(m, u).fairness == pytest.approx(1.0)

    def test_identical_groups(self):
        x = np.ones((3, 2))
        u = np.array([[1.0], [0.0]])
        assert moment_metrics(moments_of(x, x), u).fairness == 0.0

    def test_even_in_sign(self):
        # swapping roles flips the disparity but not its square
        rng = np.random.default_rng(5)
        m = moments_of(rng.standard_normal((6, 3)), rng.standard_normal((4, 3)))
        u = rand_orthonormal(rng, 3, 2)
        assert moment_metrics(m, u).fairness == moment_metrics(m.swapped(), u).fairness


class TestMetricProperties:
    def test_rotation_invariance_within_subspace(self):
        rng = np.random.default_rng(6)
        g = random_grouped(rng, 30, 20, 5)
        u = search(prepare(g), 3).pca.u
        moments = prepare(g).moments
        base = moment_metrics(moments, u)
        for _ in range(10):
            q = rand_orthonormal(rng, 3, 3)
            mixed = moment_metrics(moments, u @ q)
            assert mixed.overall_err == pytest.approx(base.overall_err, abs=1e-9)
            assert mixed.err_a == pytest.approx(base.err_a, abs=1e-9)
            assert mixed.err_b == pytest.approx(base.err_b, abs=1e-9)
            assert mixed.disparity == pytest.approx(base.disparity, abs=1e-9)

    def test_overall_error_monotone_in_rank(self):
        rng = np.random.default_rng(7)
        g = random_grouped(rng, 40, 25, 6)
        errs = [search(prepare(g), r).pca.metrics.overall_err for r in range(1, 7)]
        assert all(errs[i] >= errs[i + 1] - 1e-12 for i in range(5))
        assert errs[-1] == pytest.approx(0.0, abs=1e-12)

    def test_group_metrics_decomposition(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_grouped(rng, 20, 15, 4)
            u = rand_orthonormal(rng, 4, 2)
            m = moment_metrics(prepare(g).moments, u)
            mix = (20 * m.err_a + 15 * m.err_b) / 35
            assert m.overall_err == pytest.approx(mix, rel=1e-9)
            assert m.fairness == pytest.approx(m.disparity**2, rel=1e-12)


def _hostile_grouped(case: str):
    rng = np.random.default_rng(17)
    if case == "wide":  # d > n
        n_a, n_b, d = 9, 6, 20
    elif case == "imbalanced":  # LSAC-like 14:1
        n_a, n_b, d = 280, 20, 6
    else:
        n_a, n_b, d = 40, 25, 6
    feats = random_grouped(rng, n_a, n_b, d).features
    if case == "constant_column":
        feats[:, 2] = 5.0
    elif case == "duplicated_column":
        feats[:, 4] = feats[:, 1]
    return make_table(feats, ["a"] * n_a + ["b"] * n_b)


class TestMomentMetrics:
    @pytest.mark.parametrize(
        "g",
        [pytest.param(_hostile_grouped(case), id=case)
         for case in ("wide", "constant_column", "duplicated_column", "imbalanced")]
        + [pytest.param(g, id=f"hostile_{case}") for case, g in HOSTILE.items()],
    )
    def test_matches_explicit_residual(self, g):
        x = centered(g)
        d = x.shape[1]
        moments = prepare(g).moments
        # round-off near 0 scales with the data, so the floor on the
        # tolerance does too, below unit trace
        floor = 1e-12 * min(1.0, moments.tr)
        rng = np.random.default_rng(18)
        for r in range(1, min(3, d) + 1):
            for u in (rand_orthonormal(rng, d, r), search(prepare(g), r).pca.u):
                m = moment_metrics(moments, u)
                want = (
                    avg_reconstruction_error_direct(x, u),
                    avg_reconstruction_error_direct(x[g.in_a], u),
                    avg_reconstruction_error_direct(x[~g.in_a], u),
                )
                got = (m.overall_err, m.err_a, m.err_b)
                for have, ref in zip(got, want):
                    assert have == pytest.approx(ref, rel=1e-9, abs=floor)


def test_fairness_is_the_rounded_square_at_tiny_scale():
    # at 2^-300 every squared disparity is subnormal or 0: that is the
    # correctly rounded float64 square, beside a disparity that is not 0
    g = random_grouped(np.random.default_rng(2), 200, 100, 6)
    tiny = dataclasses.replace(g, features=g.features * 2.0**-300)
    rows = run_sweep(prepare(tiny), 3, 1e-6, "tiny", False)
    assert len(rows) == 9
    for row in rows:
        assert row["disparity"] != 0.0
        assert row["fairness"] == row["disparity"] * row["disparity"]
