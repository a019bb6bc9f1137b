"""Dense real-matrix helpers and the symmetric eigensolver.

Matrices are plain 2-D float64 numpy arrays. Nothing here checks its
arguments: ``RawTable`` puts a row in each group, ``fairpca.prepare``
checks once that the second moments are finite (every blend of them is
then finite and bitwise symmetric by construction) and ``search`` checks
the rank. The one error raised is LAPACK's: a failure of its symmetric
solver (``numpy.linalg.eigh``) raises ``LinalgError`` rather than
returning unconverged pairs. All functions are pure and deterministic:
identical input bytes give identical output bytes.
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

    ``divisor`` must be a positive count. Symmetrizing via (M + M.T)/2
    makes the result bitwise symmetric, so every blend of such grams is
    too. A non-finite entry of ``x`` makes its own diagonal term
    non-finite, which ``fairpca.prepare`` rejects.
    """
    x = np.asarray(x, dtype=np.float64)
    g = (x.T @ x) / float(divisor)
    return (g + g.T) * 0.5


class EigenPairs(NamedTuple):
    """Eigenvalues sorted descending; ``values[j]`` pairs with column
    ``vectors[:, j]`` of the orthonormal, C-contiguous ``vectors``."""

    values: np.ndarray   # shape (r,)
    vectors: np.ndarray  # shape (d, r)


def sym_eig_top_r(c, r: int) -> EigenPairs:
    """The ``r`` eigenpairs of symmetric ``c`` with algebraically largest values.

    ``c`` must be finite, symmetric and d x d (only its lower triangle is
    read), and ``1 <= r <= d``. Ordering is by signed value, not magnitude:
    for indefinite matrices the trace-maximizing subspace takes the largest
    signed eigenvalues. Ties are broken by the solver's original (ascending)
    output order through a stable sort, and each eigenvector is flipped so
    that its largest-magnitude entry (lowest index on ties) is positive, so
    output is deterministic. Raises ``LinalgError`` where ``eigh`` fails.
    """
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
