"""Shared helpers for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from fairdim.dataset import RawTable, write_table
from fairdim.linalg import LinalgError
from fairdim.report import ROW_FIELDS, SweepReport
from fairdim.synth import s1_table

_PROJ_ORTHO_TOL = 1e-6


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array, rejecting NaN/Inf entries."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise LinalgError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise LinalgError(f"{name} contains non-finite entries")
    return arr


def avg_reconstruction_error_direct(x, u) -> float:
    """Average squared residual of projecting the rows of ``x`` onto
    span(u), via the explicit residual: the slow reference that the
    library's moment form (``metrics.moment_metrics``) is held to."""
    x = as_matrix(x, "x")
    u = as_matrix(u, "u")
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


def random_grouped(rng: np.random.Generator, n_a: int, n_b: int, d: int) -> RawTable:
    """Two-group table, ``n_a`` rows of "a" then ``n_b`` of "b", with
    distinct group covariances."""
    stretch = np.linspace(1.0, 3.0, d)
    xa = rng.standard_normal((n_a, d)) * stretch
    xb = rng.standard_normal((n_b, d)) * stretch[::-1]
    feats = np.vstack([xa, xb])
    labels = ["a"] * n_a + ["b"] * n_b
    return make_table(feats, labels)


def load_report(path) -> SweepReport:
    """A sweep's JSONL report read back: each line is one record, and the
    first record's ``dataset_id`` and ``balanced`` head the report."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    rows = tuple({k: rec[k] for k in ROW_FIELDS} for rec in records)
    return SweepReport(records[0]["dataset_id"], records[0]["balanced"], rows)


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
