"""Seeded two-group tables, written as CSV without the code under test.

Both groups share one decaying spectrum (eigenvalue 1/k^0.8 for feature
direction k) but each lives in its own random orthonormal basis, so no
single subspace serves both groups equally well and the fair searches
settle at an interior trade-off weight. Row order is shuffled so the two
groups interleave and ``--balanced`` has real rows to drop. Floats are
written with ``repr``, which round-trips exactly, so the CSV bytes depend
only on the seed and numpy's generator stream.
"""

from __future__ import annotations

import numpy as np

from workloads import LABELS, SENSITIVE_COL, Workload


def _basis(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def make_table(w: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(features, is_b)``: the (n, d) matrix in file order and a
    boolean mask marking rows of the smaller group."""
    rng = np.random.default_rng([seed, w.n, w.d])
    scale = np.arange(1, w.d + 1, dtype=np.float64) ** -0.4  # sqrt of 1/k^0.8
    blocks = []
    for count in (w.n_a, w.n_b):
        z = rng.standard_normal((count, w.d)) * scale
        blocks.append(z @ _basis(rng, w.d).T)
    x = np.vstack(blocks)
    is_b = np.arange(w.n) >= w.n_a
    order = rng.permutation(w.n)
    return x[order], is_b[order]


def write_csv(path, x: np.ndarray, is_b: np.ndarray) -> None:
    header = [f"x{j + 1}" for j in range(x.shape[1])] + [SENSITIVE_COL]
    lines = [",".join(header)]
    for row, b in zip(x.tolist(), is_b.tolist()):
        lines.append(",".join(map(repr, row)) + "," + LABELS[b])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
