"""Unified multimodal embedding construction and distance geometry.

A paired sample carries one image-side and one text-side vector.  Both
halves are L2-normalized and concatenated into a single vector of fixed
norm sqrt(2); all curation distances are Euclidean in that space.  With
fixed-norm vectors, squared Euclidean distance is an affine function of
the dot product, so distance ranking coincides with reversed cosine
ranking and the metric choice is behaviorally neutral for selection.

The exact all-pairs scans of ``eval`` and ``analyze`` share their pieces
here: a float32 GEMM filter with a proven rounding margin, and a float64
refine of the pairs the filter cannot rule out, computed outside BLAS.
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


# Rows per block of the normaliser's squares: a block's scratch stays in cache.
_NORM_ROWS = 256


def _normalize_into(out: np.ndarray, mat: np.ndarray) -> None:
    """Write the rows of ``mat`` scaled to unit norm into ``out``, a float64 array
    (or view) of the same shape, with no copy of ``mat`` and no array of squares.

    Each block of rows is cast into ``out``, squared into one small scratch and
    summed by ``np.add.reduce``, then divided by its norm in place: the norms and
    quotients of ``np.linalg.norm`` and ``/``, bit for bit.  ``check_directions``
    then sees every norm, so a row without a direction raises as before; its
    inf/nan quotients are never returned."""
    n = len(mat)
    norms = np.empty(n)
    sq = np.empty((min(_NORM_ROWS, n), mat.shape[1]))
    with np.errstate(all="ignore"):
        for start in range(0, n, _NORM_ROWS):
            stop = min(start + _NORM_ROWS, n)
            block, part = out[start:stop], norms[start:stop]
            block[...] = mat[start:stop]
            np.add.reduce(np.multiply(block, block, out=sq[: stop - start]), axis=1, out=part)
            np.sqrt(part, out=part)
            np.divide(block, part[:, None], out=block)
    check_directions(mat, norms)


def normalize_rows(mat: np.ndarray) -> np.ndarray:
    """Each row of a 2-D batch scaled to unit norm; ``check_directions`` names a
    row without a direction, which the curation geometry cannot use."""
    mat = np.asarray(mat)
    out = np.empty(mat.shape)
    _normalize_into(out, mat)
    return out


def unify_batch(img: np.ndarray, txt: np.ndarray, mode: str) -> np.ndarray:
    """Curation-space rows of (n, d_img) and (n, d_txt) batches: ``concat`` joins the
    normalized halves (norm sqrt(2)), ``image_only`` / ``text_only`` keep one (norm 1).
    ``concat`` normalises each half straight into its columns of one new array,
    the image half first."""
    if mode not in CURATION_SPACES:
        raise UsageError(f"unknown curation space {mode!r}; expected one of {CURATION_SPACES}")
    if mode == "image_only":
        return normalize_rows(img)
    if mode == "text_only":
        return normalize_rows(txt)
    img, txt = np.asarray(img), np.asarray(txt)
    if len(img) != len(txt):
        raise UsageError(f"image and text batches differ in rows: {len(img)} vs {len(txt)}")
    d_img = img.shape[1]
    out = np.empty((len(img), d_img + txt.shape[1]))
    _normalize_into(out[:, :d_img], img)
    _normalize_into(out[:, d_img:], txt)
    return out


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


# Rows of the left operand per float32 product in the exact scans of ``eval``
# and ``analyze``; a block of the product is SCAN_BLOCK x n float32.  Read at
# call time, so a test can vary it: no result depends on it.
SCAN_BLOCK = 128
_U32, _U64 = 2.0**-24, 2.0**-53  # unit roundoffs of float32 and float64


def unit_scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """``(x 2^-s, s)`` for the s that puts the largest |entry| of x 2^-s in
    [1/2, 1) (s = 0 when x is all zero): exact for every entry that stays
    normal, and safe from float32 range limits.  When s = 0 the result is
    ``x`` itself, not a copy, so callers only read it."""
    peak = max(float(np.max(x, initial=0.0)), -float(np.min(x, initial=0.0)))
    if not np.isfinite(peak):
        raise UsageError("an exact scan needs finite values")
    shift = int(np.frexp(peak)[1])
    return (x if shift == 0 else np.ldexp(x, -shift)), shift


def float32_scan(a: tuple, b: np.ndarray, magnitude: float):
    """The filter of an exact scan: ``(margin, blocks)``.  ``blocks`` yields
    ``(start, S)`` for each row block of fl32(a) fl32(b)^T, one float32 GEMM
    into one buffer.  ``a`` is a tuple of the left operand's column blocks,
    ``(x,)`` for one matrix x, cast side by side into one SCAN_BLOCK-row
    float32 buffer a block at a time; ``b`` is cast once, a float32 ``b`` not
    copied.  Any two entries of S each lie within margin/2 of the float64
    values r the scan decides with, so S_ij - S_il > margin proves r_ij > r_il.

    The contract.  Each pair's value is v_ij = x_i . y_j for real rows x_i,
    y_j of length m.  Each product a_ik b_jk is x_ik y_jk to within a
    relative u (u = 2^-24, w = 2^-53), the data went through ``unit_scaled``,
    and ``magnitude`` >= 1/4 bounds every M_ij = sum_k |x_ik| |y_jk|.  The
    caller computes r_ij in float64 by a fixed-order sum of terms that pass
    through at most m roundings, so |r_ij - v_ij| <= g_m(w) M_ij, where
    g_m(e) = m e / (1 - m e).

    The bound.  With the float32 casts, fl32(a_ik) fl32(b_jk) = x_ik y_jk
    (1 + t), |t| <= (1 + u)^3 - 1 =: p.  A float32 GEMM of length m, in any
    order, with or without FMA, errs by at most g_m(u) sum_k |fl32(a_ik)|
    |fl32(b_jk)| (Higham, Accuracy and Stability, 2nd ed., sec. 3.1).  So
        |S_ij - r_ij| <= E := (g_m(u) (1 + p) + p + g_m(w)) * magnitude,
    and ``margin`` is 2E doubled, 4E.  The doubling covers gradual underflow
    (at most (m + 2)^2 2^-149 absolute, while E >= m 2^-26), the float64
    evaluation of E and of ``magnitude``, and the float64 rounding of a
    comparison against the margin.  ``float32_cut`` rounds a threshold to
    float32 outward, so that rounding loses no entry.
    """
    n, m = len(a[0]), b.shape[1]
    g32, g64 = (m * e / (1.0 - m * e) for e in (_U32, _U64))
    p = (1.0 + _U32) ** 3 - 1.0
    margin = 4.0 * (g32 * (1.0 + p) + p + g64) * magnitude
    b32 = np.asarray(b, dtype=np.float32)
    edges = np.cumsum([0] + [part.shape[1] for part in a])

    def blocks():
        block = SCAN_BLOCK
        left = np.empty((min(block, n), m), dtype=np.float32)
        buf = np.empty((len(left), len(b32)), dtype=np.float32)
        for start in range(0, n, block):
            rows = min(block, n - start)
            for part, lo, hi in zip(a, edges, edges[1:]):
                left[:rows, lo:hi] = part[start : start + rows]
            yield start, np.matmul(left[:rows], b32.T, out=buf[:rows])

    return margin, blocks()


def float32_cut(values: np.ndarray, offset: float) -> np.ndarray:
    """The thresholds ``values`` + ``offset``, added in float64 and rounded to
    float32 away from ``values``, so a float32 comparison keeps every entry
    that the float64 threshold keeps."""
    exact = values.astype(np.float64) + offset
    cut = exact.astype(np.float32)
    short = cut < exact if offset > 0 else cut > exact
    return np.where(short, np.nextafter(cut, np.float32(np.copysign(np.inf, offset))), cut)


def exact_pairs(
    a: np.ndarray, b: np.ndarray, i: np.ndarray, j: np.ndarray, distance: bool
) -> np.ndarray:
    """float64 value of each row pair (a[i], b[j]) outside BLAS: the squared
    distance ||a_i - b_j||^2 by elementwise difference, else the dot product.
    One fixed-order einsum per pair, so a value does not depend on which other
    pairs are asked for.  Pairs go in chunks of SCAN_BLOCK: the gathered rows of
    a chunk stay small enough to be reused from the heap and to stay in cache;
    chunks of megabytes are returned to the system and faulted in afresh each
    time (100k page faults in one 20k-row kNN profile)."""
    out = np.empty(len(i))
    step = SCAN_BLOCK
    for start in range(0, len(i), step):
        x, y = a[i[start : start + step]], b[j[start : start + step]]
        if distance:
            x = y = np.subtract(x, y, out=x)
        out[start : start + step] = np.einsum("ij,ij->i", x, y)
    return out
