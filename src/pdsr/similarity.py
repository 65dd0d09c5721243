"""Cosine similarity helpers used by both fusion and pose-regulated scoring."""

from __future__ import annotations

import numpy as np

from .errors import ZeroVectorError


def cosine_matrix(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities between the rows of two matrices."""
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    ln = np.linalg.norm(left, axis=1)
    rn = np.linalg.norm(right, axis=1)
    if (ln == 0.0).any() or (rn == 0.0).any():
        raise ZeroVectorError("cosine similarity is undefined for the all-zero vector")
    return (left / ln[:, None]) @ (right / rn[:, None]).T
