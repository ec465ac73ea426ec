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

# What the direction rule finds wrong with a row, in the order it looks, as messages say it;
# a zero norm is "all-zero" or, when the row has a nonzero entry, "underflowing".
NO_DIRECTION = {
    "non-finite": "has non-finite entries",
    "overflowing": "has a norm that overflows float64",
    "all-zero": "is all-zero",
    "underflowing": "has a norm that underflows float64",
}


def check_directions(mat: np.ndarray, norms: np.ndarray) -> None:
    """The one rule for a vector without a direction: a row has one when its
    float64 norm is finite and nonzero.  ``norms`` holds the norms or their
    squares.  Raises DegenerateVectorError naming the first row without one, by
    kind in NO_DIRECTION's order; only rows whose norm is not finite, and the
    first zero-norm row, are read again."""
    finite = np.isfinite(norms)
    if finite.all() and norms.all():
        return
    suspect = np.flatnonzero(~finite)
    entries_finite = np.isfinite(mat[suspect]).all(axis=1)
    if not entries_finite.all():
        row, kind = suspect[np.argmin(entries_finite)], "non-finite"
    elif len(suspect):
        row, kind = suspect[0], "overflowing"
    else:
        row = np.argmin(norms != 0.0)
        kind = "underflowing" if mat[row].any() else "all-zero"
    raise DegenerateVectorError(f"row {row} {NO_DIRECTION[kind]}", int(row), kind)


def normalize_rows(mat: np.ndarray) -> np.ndarray:
    """Each row of a 2-D batch scaled to unit norm; ``check_directions`` names a
    row without a direction, which the curation geometry cannot use."""
    mat = np.asarray(mat, dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1)
    check_directions(mat, norms)
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
