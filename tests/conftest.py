"""Shared helpers for the test suite."""

import json
from pathlib import Path

import numpy as np
import pytest

from fairdim.dataset import RawTable, s1_table, write_table
from fairdim.fairpca import Moments
from fairdim.linalg import LinalgError, scaled_gram

_PROJ_ORTHO_TOL = 1e-6


def avg_reconstruction_error_direct(x, u) -> float:
    """Average squared residual of projecting the rows of ``x`` onto
    span(u), via the explicit residual: the slow reference that the
    library's moment form (``fairpca.moment_metrics``) is held to."""
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if x.shape[1] != u.shape[0]:
        raise LinalgError(
            f"projection rows ({u.shape[0]}) must match data width ({x.shape[1]})"
        )
    gram = u.T @ u
    if np.max(np.abs(gram - np.eye(gram.shape[0]))) > _PROJ_ORTHO_TOL:
        raise LinalgError("projection columns are not orthonormal")
    resid = x - x @ u @ u.T
    return float(np.sum(resid * resid)) / x.shape[0]


def rand_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return (m + m.T) * 0.5


def rand_orthonormal(rng: np.random.Generator, d: int, r: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q[:, :r]


def eig2x2_values(m: np.ndarray) -> tuple[float, float]:
    """Closed-form eigenvalues of a symmetric 2x2, descending."""
    a, b, c = m[0, 0], m[0, 1], m[1, 1]
    mid = 0.5 * (a + c)
    rad = np.sqrt((0.5 * (a - c)) ** 2 + b * b)
    return float(mid + rad), float(mid - rad)


def make_table(features, labels, sensitive="group") -> RawTable:
    """A RawTable of ``features`` grouped by the per-row ``labels`` (two
    distinct values) as the loader groups them: the first-seen is ``a``."""
    features = np.asarray(features, dtype=float)
    names = tuple(f"f{i}" for i in range(features.shape[1]))
    label_a, label_b = dict.fromkeys(labels)
    return RawTable(
        features=features,
        in_a=np.array([lab == label_a for lab in labels]),
        label_a=label_a,
        label_b=label_b,
        feature_names=names,
        sensitive_name=sensitive,
    )


def row_labels(table: RawTable) -> tuple[str, ...]:
    """Each row's label, read back from the table's group mask."""
    return tuple(table.label_a if flag else table.label_b for flag in table.in_a)


def centered(table: RawTable) -> np.ndarray:
    """The table's rows minus each column's mean over all rows: the
    reference for the rows ``fairpca.prepare`` takes its moments of."""
    return table.features - table.features.mean(axis=0)


def moments_of(x_a, x_b) -> Moments:
    """The second moments of two row groups, ``x_a`` as group ``a``."""
    x_a = np.asarray(x_a, dtype=float)
    x_b = np.asarray(x_b, dtype=float)
    x = np.vstack([x_a, x_b])
    return Moments(
        c=scaled_gram(x, x.shape[0]),
        c_a=scaled_gram(x_a, x_a.shape[0]),
        c_b=scaled_gram(x_b, x_b.shape[0]),
    )


def random_grouped(rng: np.random.Generator, n_a: int, n_b: int, d: int) -> RawTable:
    """Two-group table, ``n_a`` rows of "a" then ``n_b`` of "b", with
    distinct group covariances."""
    stretch = np.linspace(1.0, 3.0, d)
    xa = rng.standard_normal((n_a, d)) * stretch
    xb = rng.standard_normal((n_b, d)) * stretch[::-1]
    feats = np.vstack([xa, xb])
    labels = ["a"] * n_a + ["b"] * n_b
    return make_table(feats, labels)


def same_rows_twice(rng, n, d):
    """Both groups hold the same n rows, in another order and offset by 5:
    their covariances are equal, and every disparity is round-off."""
    x = rng.standard_normal((n, d)) * np.linspace(1.0, 3.0, d) + 5.0
    return make_table(np.vstack([x, x[rng.permutation(n)]]), ["a"] * n + ["b"] * n)


def scaled_groups(k: float, seed: int = 1) -> RawTable:
    """``perfbench/gen.py``'s table at 2,000 x 11, written again here, with
    the smaller group's rows times ``k``. Both groups (1,640 rows "g0", 360
    "g1") share the spectrum 1/j^0.8, each in its own random orthonormal
    basis, and the rows are shuffled."""
    n_a, n_b, d = 1640, 360, 11
    rng = np.random.default_rng([seed, n_a + n_b, d])
    scale = np.arange(1, d + 1, dtype=np.float64) ** -0.4
    blocks = []
    for count in (n_a, n_b):
        z = rng.standard_normal((count, d)) * scale
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        blocks.append(z @ (q * np.sign(np.diag(r))).T)
    is_b = np.arange(n_a + n_b) >= n_a
    order = rng.permutation(n_a + n_b)
    x = np.vstack([blocks[0], k * blocks[1]])
    return make_table(x[order], [("g0", "g1")[b] for b in is_b[order].tolist()])


def with_subnormal_column(rng, x):
    """``x`` plus a column near 1e-318 that varies by a few subnormal steps.
    Its centered squares underflow to 0, so the moments see a constant."""
    return np.column_stack([x, 1e-318 * (1 + 0.01 * rng.standard_normal(len(x)))])


def hostile_tables():
    """Shapes that strain a fit, each of which loads and fits today."""
    rng = np.random.default_rng(61)
    g = random_grouped(rng, 20, 12, 4)
    x, labels = g.features, row_labels(g)
    # seed 0: the subnormal column's centered sum is round-off, not 0
    sub_rng = np.random.default_rng(0)
    sub = random_grouped(sub_rng, 20, 12, 4)
    return {
        "d_gt_n": random_grouped(rng, 2, 2, 7),
        "constant_column": make_table(np.column_stack([x, np.full(len(x), 3.0)]), labels),
        "duplicated_column": make_table(np.column_stack([x, x[:, 1]]), labels),
        "imbalance_14_to_1": random_grouped(rng, 70, 5, 4),
        "scaled_1e-150": make_table(1e-150 * x, labels),
        "one_row_group": random_grouped(rng, 15, 1, 3),
        "all_zero": make_table(np.zeros((6, 3)), list("aaabbb")),
        "identical_covariance": same_rows_twice(rng, 200, 5),
        "subnormal_column": make_table(
            with_subnormal_column(sub_rng, sub.features), row_labels(sub)
        ),
    }


HOSTILE = hostile_tables()


def load_report(path) -> tuple[dict, ...]:
    """A sweep's JSONL report read back: one record per line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return tuple(json.loads(line) for line in lines)


def count_solves(monkeypatch) -> list:
    """Count the eigensolves ``fairpca`` makes from here on: the returned
    list grows by one per ``sym_eig_top_r`` call."""
    import fairdim.fairpca as fairpca_module

    calls = []
    real = fairpca_module.sym_eig_top_r
    monkeypatch.setattr(
        fairpca_module, "sym_eig_top_r", lambda *a: calls.append(1) or real(*a)
    )
    return calls


@pytest.fixture(scope="session")
def s1_grouped():
    return s1_table()


@pytest.fixture()
def toy_csv(tmp_path):
    """Write a small two-group CSV and return its path."""

    def _write(features, labels, name="toy.csv", sensitive="group"):
        path = tmp_path / name
        write_table(make_table(features, labels, sensitive), path)
        return path

    return _write
