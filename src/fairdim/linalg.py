"""Dense real-matrix helpers and the symmetric eigensolver.

Matrices are plain 2-D float64 numpy arrays. The gram and the
eigensolver do no numeric validation of their own: ``fairpca.prepare``
checks once that the second moments are finite, and every matrix built
from them after that is finite and bitwise symmetric by construction. The
eigendecomposition is LAPACK's symmetric solver (``numpy.linalg.eigh``);
a solver failure raises ``LinalgError`` rather than returning
unconverged pairs. All functions are pure and deterministic: identical
input bytes give identical output bytes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "LinalgError",
    "EigenPairs",
    "scaled_gram",
    "sym_eig_top_r",
]


class LinalgError(ValueError):
    """A matrix argument violates an operation's contract."""


def scaled_gram(x, divisor: int) -> np.ndarray:
    """Return ``x.T @ x / divisor``, symmetrized to kill round-off skew.

    Symmetrizing via (M + M.T)/2 makes the result bitwise symmetric, so
    every blend of such grams is too. A non-finite entry of ``x`` makes
    its own diagonal term non-finite, which ``fairpca.prepare`` rejects.
    """
    x = np.asarray(x, dtype=np.float64)
    if divisor < 1:
        raise LinalgError(f"divisor must be a positive count, got {divisor}")
    g = (x.T @ x) / float(divisor)
    return (g + g.T) * 0.5


class EigenPairs(NamedTuple):
    """Eigenvalues sorted descending; ``values[j]`` pairs with column
    ``vectors[:, j]`` of the orthonormal, C-contiguous ``vectors``."""

    values: np.ndarray   # shape (r,)
    vectors: np.ndarray  # shape (d, r)


def sym_eig_top_r(c, r: int) -> EigenPairs:
    """The ``r`` eigenpairs of symmetric ``c`` with algebraically largest values.

    ``c`` must be finite and symmetric; only its lower triangle is read.
    Ordering is by signed value, not magnitude: for indefinite matrices the
    trace-maximizing subspace takes the largest signed eigenvalues. Ties are
    broken by the solver's original (ascending) output order through a
    stable sort, and each eigenvector is flipped so that its largest-
    magnitude entry (lowest index on ties) is positive, so output is
    deterministic. Raises ``LinalgError`` if LAPACK fails to converge.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise LinalgError(f"matrix must be square, got shape {c.shape}")
    if not 1 <= r <= c.shape[0]:
        raise LinalgError(f"rank must satisfy 1 <= r <= {c.shape[0]}, got {r}")
    try:
        values, vectors = np.linalg.eigh(c)
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(-values, kind="stable")[:r]
    top = vectors[:, order]
    lead = top[np.argmax(np.abs(top), axis=0), np.arange(r)]
    flip = np.where(lead < 0.0, -1.0, 1.0)
    # C order: an F-ordered U changes C @ U in the last bit, and the reports with it
    return EigenPairs(values[order], np.ascontiguousarray(top * flip))
