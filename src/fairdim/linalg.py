"""Dense real-matrix helpers and the symmetric eigensolver.

Matrices are plain 2-D float64 numpy arrays. Every public operation
validates its inputs (shape, finiteness, symmetry where required) so that
bad data fails loudly at the boundary instead of corrupting results
downstream. The eigendecomposition is LAPACK's symmetric solver
(``numpy.linalg.eigh``); a solver failure raises ``LinalgError`` rather
than returning unconverged pairs. All functions are pure and
deterministic: identical input bytes give identical output bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinalgError",
    "EigenPairs",
    "as_matrix",
    "scaled_gram",
    "sym_eig_top_r",
]

# Validation tolerances for the eigensolver's input and output.
_SYMMETRY_RTOL = 1e-9    # max allowed |C - C^T| relative to ||C||_F
_ORTHO_TOL = 1e-9        # eigenvector orthonormality check


class LinalgError(ValueError):
    """A matrix argument violates an operation's contract."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D float64 array, rejecting NaN/Inf entries."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise LinalgError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise LinalgError(f"{name} contains non-finite entries")
    return arr


def scaled_gram(x, divisor: int) -> np.ndarray:
    """Return ``x.T @ x / divisor``, symmetrized to kill round-off skew.

    The result is positive semidefinite up to round-off; symmetrizing via
    (M + M.T)/2 makes it bitwise symmetric so the eigensolver's symmetry
    check never trips on accumulation noise.
    """
    x = as_matrix(x, "x")
    if divisor < 1:
        raise LinalgError(f"divisor must be a positive count, got {divisor}")
    g = (x.T @ x) / float(divisor)
    return (g + g.T) * 0.5


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues sorted descending with matched orthonormal eigenvectors.

    ``values[j]`` pairs with column ``vectors[:, j]``.
    """

    values: np.ndarray   # shape (k,), descending
    vectors: np.ndarray  # shape (d, k), orthonormal columns

    def __post_init__(self):
        if self.values.ndim != 1 or self.vectors.ndim != 2:
            raise LinalgError("eigenpairs must hold a 1-D value array and 2-D vectors")
        if self.vectors.shape[1] != self.values.shape[0]:
            raise LinalgError("eigenvalue/eigenvector count mismatch")
        if np.any(np.diff(self.values) > 0):
            raise LinalgError("eigenvalues must be sorted descending")
        gram = self.vectors.T @ self.vectors
        if np.max(np.abs(gram - np.eye(gram.shape[0]))) > _ORTHO_TOL:
            raise LinalgError("eigenvectors are not orthonormal")
        self.values.setflags(write=False)
        self.vectors.setflags(write=False)


def _canonical_sign(vec: np.ndarray) -> np.ndarray:
    # Flip so the largest-magnitude component (lowest index on ties) is positive.
    i = int(np.argmax(np.abs(vec)))
    return -vec if vec[i] < 0.0 else vec


def sym_eig_top_r(c, r: int) -> EigenPairs:
    """The ``r`` eigenpairs of symmetric ``c`` with algebraically largest values.

    Ordering is by signed value, not magnitude: for indefinite matrices the
    trace-maximizing subspace takes the largest signed eigenvalues. Ties are
    broken by the solver's original (ascending) output order through a
    stable sort, and each eigenvector's sign is canonicalized, so output is
    deterministic. Raises ``LinalgError`` if LAPACK fails to converge.
    """
    c = as_matrix(c, "c")
    n, m = c.shape
    if n != m:
        raise LinalgError(f"matrix must be square, got {n}x{m}")
    scale = math.sqrt(float(np.sum(c * c)))
    if float(np.max(np.abs(c - c.T), initial=0.0)) > _SYMMETRY_RTOL * scale:
        raise LinalgError("matrix is not symmetric within tolerance")
    if not 1 <= r <= n:
        raise LinalgError(f"rank must satisfy 1 <= r <= {n}, got {r}")

    try:
        values, vectors = np.linalg.eigh((c + c.T) * 0.5)
    except np.linalg.LinAlgError as exc:
        raise LinalgError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(-values, kind="stable")[:r]
    top_values = values[order].copy()
    top_vectors = np.column_stack([_canonical_sign(vectors[:, j]) for j in order])
    return EigenPairs(values=top_values, vectors=top_vectors)
