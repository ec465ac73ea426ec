"""Unified multimodal embedding construction and distance geometry.

A paired sample carries one image-side and one text-side vector.  Both
halves are L2-normalized and concatenated into a single vector of fixed
norm sqrt(2); all curation distances are Euclidean in that space.  With
fixed-norm vectors, squared Euclidean distance is an affine function of
the dot product, so distance ranking coincides with reversed cosine
ranking and the metric choice is behaviorally neutral for selection.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateVectorError, UsageError

CURATION_SPACES = ("concat", "image_only", "text_only")


def normalize_rows(mat: np.ndarray) -> np.ndarray:
    """Scale each row of a 2-D batch to unit Euclidean norm, preserving direction.

    Raises DegenerateVectorError naming the first all-zero or non-finite
    row: a vector without a direction cannot participate in the curation
    geometry.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if not np.all(np.isfinite(mat)):
        bad = int(np.flatnonzero(~np.all(np.isfinite(mat), axis=1))[0])
        raise DegenerateVectorError(f"row {bad} has non-finite entries", bad)
    norms = np.linalg.norm(mat, axis=1)
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise DegenerateVectorError(f"row {bad} is all-zero", bad)
    return mat / norms[:, None]


def unify_batch(img: np.ndarray, txt: np.ndarray, mode: str = "concat") -> np.ndarray:
    """Curation-space rows of (n, d_img) and (n, d_txt) batches: ``concat`` joins the
    normalized halves (norm sqrt(2)), ``image_only`` / ``text_only`` keep one (norm 1)."""
    if mode not in CURATION_SPACES:
        raise UsageError(f"unknown curation space {mode!r}; expected one of {CURATION_SPACES}")
    if mode == "image_only":
        return normalize_rows(img)
    if mode == "text_only":
        return normalize_rows(txt)
    return np.hstack([normalize_rows(img), normalize_rows(txt)])


def pairwise_sq_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` and ``b``: the Gram
    expansion ||x||^2 + ||y||^2 - 2<x,y>, clamped at zero.  Every caller passes
    the prototype bank as ``b``, so the result is only n x K."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[1] != b.shape[1]:
        raise UsageError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")

    out = np.einsum("ij,ij->i", a, a)[:, None] + np.einsum("ij,ij->i", b, b)
    # The few bank rows go on the left: for a skinny ``a @ b.T`` OpenBLAS packs
    # all of ``a`` (13 MB for a 6400 x 256 super-batch), for ``b @ a.T`` a block.
    out -= 2.0 * (b @ a.T).T
    return np.maximum(out, 0.0, out=out)
