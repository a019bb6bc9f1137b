"""Acceptance gate: one test per release criterion, each at its stated
tolerance, printing an explicit pass line. Real-dataset checks run only
when the corresponding environment variables point at local CSV exports
(see README); everything else is self-contained.
"""

import math
import os
import time

import numpy as np
import pytest

from fairdim import cli
from fairdim.dataset import balance, load_grouped, load_table
from fairdim.fairpca import prepare, search, weighted_covariance
from fairdim.linalg import scaled_gram, sym_eig_top_r
from fairdim.synth import s1_table

from conftest import (
    avg_reconstruction_error_direct,
    centered,
    eig2x2_values,
    rand_symmetric,
    random_grouped,
)

S1_VARIANT_SEEDS = [42] + list(range(43, 63))  # baseline plus 20 variants

REAL_DATASETS = {
    "tcred": ("FAIRDIM_TCRED_CSV", "FAIRDIM_TCRED_COL", (24615, 5385)),
    "lfw": ("FAIRDIM_LFW_CSV", "FAIRDIM_LFW_COL", (2962, 10270)),
    "lsac": ("FAIRDIM_LSAC_CSV", "FAIRDIM_LSAC_COL", (1790, 24761)),
}


def _passed(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def _real_dataset(name):
    path_env, col_env, counts = REAL_DATASETS[name]
    path = os.environ.get(path_env)
    col = os.environ.get(col_env)
    if not path or not col:
        pytest.skip(f"set {path_env} and {col_env} to run the {name} check")
    return path, col, counts


def _grid_roles(g, r):
    """Plain PCA, the privileged and harmed rows it implies, and the
    blend's two terms computed from those rows."""
    pca = search(g, r).pca
    x = centered(g)
    x_a, x_b = x[g.in_a], x[~g.in_a]
    x_priv, x_harm = (x_a, x_b) if pca.privileged == g.label_a else (x_b, x_a)
    c_x = scaled_gram(x, x.shape[0])
    delta = scaled_gram(x_harm, x_harm.shape[0]) - scaled_gram(x_priv, x_priv.shape[0])
    return pca, (x_priv, x_harm), c_x, delta


def _disparity(rows, u):
    x_priv, x_harm = rows
    return avg_reconstruction_error_direct(x_harm, u) - avg_reconstruction_error_direct(
        x_priv, u
    )


def test_criterion_1_eigensolver_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(20240)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        c = rand_symmetric(rng, n)
        pairs = sym_eig_top_r(c, n)
        recon = pairs.vectors @ np.diag(pairs.values) @ pairs.vectors.T
        norm_c = math.sqrt(float(np.sum(c * c)))
        assert math.sqrt(float(np.sum((recon - c) ** 2))) <= 1e-8 * norm_c
        if n == 2:
            hi, lo = eig2x2_values(c)
            assert abs(pairs.values[0] - hi) <= 1e-10
            assert abs(pairs.values[1] - lo) <= 1e-10
    # make sure the 2x2 closed-form branch saw real coverage
    rng2 = np.random.default_rng(7)
    for _ in range(50):
        c = rand_symmetric(rng2, 2)
        pairs = sym_eig_top_r(c, 2)
        hi, lo = eig2x2_values(c)
        assert abs(pairs.values[0] - hi) <= 1e-10
        assert abs(pairs.values[1] - lo) <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"eigensolver check took {elapsed:.1f}s"
    _passed(1, "eigensolver correctness")


def test_criterion_2_pca_optimality():
    start = time.monotonic()
    rng = np.random.default_rng(20241)
    for _ in range(50):
        n = int(rng.integers(10, 201))
        d = int(rng.integers(2, 11))
        r = int(rng.integers(1, d))
        n_a = int(rng.integers(1, n))
        g = random_grouped(rng, n_a, n - n_a, d)
        u = search(g, r).pca.u
        c_x = scaled_gram(centered(g), n)
        ours = float(np.trace(u.T @ c_x @ u))
        qs = np.linalg.qr(rng.standard_normal((1000, d, d)))[0][:, :, :r]
        competitors = np.einsum("qdr,de,qer->q", qs, c_x, qs)
        assert ours >= float(competitors.max()) - 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"optimality check took {elapsed:.1f}s"
    _passed(2, "plain-PCA optimality vs random competitors")


def test_criterion_3_alpha_one_reduction():
    datasets = [s1_table()]
    rng = np.random.default_rng(20242)
    for _ in range(5):
        d = int(rng.integers(3, 7))
        datasets.append(random_grouped(rng, int(rng.integers(5, 40)), int(rng.integers(5, 40)), d))
    for g in datasets:
        d = g.features.shape[1]
        for r in range(1, d + 1):
            u_pca = search(g, r).pca.u
            u_fair = sym_eig_top_r(weighted_covariance(prepare(g).moments, 1.0), r).vectors
            gap = np.linalg.norm(u_fair @ u_fair.T - u_pca @ u_pca.T)
            assert gap <= 1e-8
    _passed(3, "alpha=1 reduces to plain PCA")


def test_criterion_4_sign_convention_pin():
    g = s1_table()
    pca, rows, c_x, delta = _grid_roles(g, 1)
    d1 = _disparity(rows, pca.u)
    assert d1 > 0.0

    grid = np.linspace(0.0, 1.0, 101)
    implemented = []
    mirrored = []
    for a in grid:
        u = sym_eig_top_r(a * c_x + (1.0 - a) * delta, 1).vectors
        implemented.append(_disparity(rows, u))
        u_m = sym_eig_top_r(a * c_x + (1.0 - a) * (-delta), 1).vectors
        mirrored.append(_disparity(rows, u_m))
    assert min(implemented) < d1  # some alpha < 1 strictly reduces the gap
    assert min(mirrored) >= d1   # the flipped blend can never do so
    _passed(4, "group-difference sign convention pinned")


def test_criterion_5_search_matches_grid_oracle():
    start = time.monotonic()
    for seed in S1_VARIANT_SEEDS:
        g = s1_table(seed)
        _, rows, c_x, delta = _grid_roles(g, 1)
        grid_f = []
        for a in np.linspace(0.0, 1.0, 1001):
            u = sym_eig_top_r(a * c_x + (1.0 - a) * delta, 1).vectors
            grid_f.append(_disparity(rows, u) ** 2)
        grid_f = np.array(grid_f)
        fit = search(g, 1, tol=1e-6).ufpca()
        tol = max(1e-8, 1e-3 * float(grid_f.max() - grid_f.min()))
        assert fit.metrics.fairness - float(grid_f.min()) <= tol, f"seed {seed}"
        assert fit.iterations <= math.ceil(math.log2(1e6))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f}s"
    _passed(5, "root search matches 1001-point grid oracle")


def test_criterion_6_constrained_fit_contract():
    instances = [(s1_table(seed), 1) for seed in S1_VARIANT_SEEDS]
    rng = np.random.default_rng(20243)
    for _ in range(10):
        d = int(rng.integers(3, 7))
        g = random_grouped(rng, int(rng.integers(5, 50)), int(rng.integers(5, 50)), d)
        instances.append((g, int(rng.integers(1, d + 1))))
    for g, r in instances:
        fit = search(g, r).cfpca()
        pca = search(g, r).pca
        assert fit.metrics.err_a <= fit.budget
        assert fit.metrics.err_b <= fit.budget
        assert fit.metrics.fairness <= pca.metrics.fairness + 1e-12
        assert fit.budget == pca.metrics.err_b  # harmed group's baseline error
        assert search(g, r).ufpca().metrics.fairness <= pca.metrics.fairness + 1e-12
    _passed(6, "constrained-fit budget and fairness contract")


def test_criterion_7_method_ordering_synthetic():
    g = s1_table()
    pca = search(g, 1).pca
    uf = search(g, 1).ufpca()
    cf = search(g, 1).cfpca()
    assert uf.metrics.fairness <= cf.metrics.fairness + 1e-15
    assert cf.metrics.fairness <= pca.metrics.fairness + 1e-12
    assert pca.metrics.overall_err <= cf.metrics.overall_err + 1e-9
    assert cf.metrics.overall_err <= uf.metrics.overall_err + 1e-9
    _passed(7, "method ordering on the synthetic generator")


@pytest.mark.parametrize("name", ["tcred", "lsac"])
def test_criterion_7_method_ordering_real(name):
    path, col, _ = _real_dataset(name)
    start = time.monotonic()
    g = load_grouped(path, col)
    for r in range(1, min(10, g.features.shape[1]) + 1):
        pca = search(g, r).pca
        uf = search(g, r).ufpca()
        cf = search(g, r).cfpca()
        assert uf.metrics.fairness <= cf.metrics.fairness + 1e-12
        assert cf.metrics.fairness <= pca.metrics.fairness + 1e-12
        assert pca.metrics.overall_err <= cf.metrics.overall_err + 1e-9
        assert cf.metrics.overall_err <= uf.metrics.overall_err + 1e-9
    elapsed = time.monotonic() - start
    if name == "tcred":
        assert elapsed < 120.0, f"tcred sweep took {elapsed:.1f}s"
    _passed(7, f"method ordering on {name}")


def test_criterion_8_balanced_mode_rule(tmp_path):
    path = tmp_path / "s1.csv"
    assert cli.main(["gen", "--out", str(path)]) == 0
    table = load_table(path, "group")
    balanced = balance(table)
    assert (balanced.label_a, balanced.label_b) == ("a", "b")
    assert np.count_nonzero(balanced.in_a) == np.count_nonzero(~balanced.in_a) == 300
    # the kept rows of the larger group are its first 300 in file order
    full_a = table.features[table.in_a]
    kept_a = balanced.features[balanced.in_a]
    assert np.array_equal(kept_a, full_a[:300])
    _passed(8, "balanced mode keeps each group's first rows")


@pytest.mark.parametrize("name", ["tcred", "lfw", "lsac"])
def test_criterion_8_real_dataset_group_counts(name):
    path, col, (bigger, smaller) = _real_dataset(name)
    table = load_table(path, col)
    counts = sorted(
        (np.count_nonzero(table.in_a), np.count_nonzero(~table.in_a)), reverse=True
    )
    assert counts == sorted((bigger, smaller), reverse=True)
    balanced = balance(table)
    assert np.count_nonzero(balanced.in_a) == np.count_nonzero(~balanced.in_a) == min(bigger, smaller)
    _passed(8, f"{name} group counts")


def test_criterion_9_sweep_determinism(tmp_path):
    import subprocess
    import sys

    data = tmp_path / "s1.csv"
    assert cli.main(["gen", "--out", str(data)]) == 0
    outputs = []
    for tag in ("one", "two"):
        out = tmp_path / f"{tag}.jsonl"
        # separate interpreter per run: cross-process reproducibility
        proc = subprocess.run(
            [sys.executable, "-m", "fairdim.cli", "sweep",
             "--input", str(data), "--sensitive-col", "group",
             "--max-rank", "2", "--output", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out)
    assert outputs[0].read_bytes() == outputs[1].read_bytes()
    csv_one = outputs[0].with_suffix(".csv")
    csv_two = outputs[1].with_suffix(".csv")
    assert csv_one.read_bytes() == csv_two.read_bytes()
    _passed(9, "repeated sweeps are byte-identical")
