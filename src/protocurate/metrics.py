"""Zero-shot evaluation: prompt-pair classification, AUROC/AUPRC, Recall@1.

AUROC uses pair-count semantics (concordant plus half the ties over P*N),
computed via midranks so it stays O(n log n) while matching the counting
definition exactly.  AUPRC is average precision with equal scores swept as
one group.  A metric that is undefined on a given split is None (NaN in the
per-class table): the class is excluded from the macro average and reported
as absent rather than scored zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .embedding import exact_pairs, float32_cut, float32_scan, normalize_rows, unit_scaled
from .errors import DegenerateVectorError, UsageError
from .io import table_csv

# One class of the report: its prompt name, its metrics (NaN where undefined)
# and its label counts.  metrics.csv writes them all, NaN as an empty cell.
CLASS_RECORD = np.dtype([
    ("class", object), ("auroc", "<f8"), ("auprc", "<f8"), ("n_pos", "<i8"), ("n_neg", "<i8"),
])
CLASS_FORMATS = {"class": "%s", "auroc": "%.9g", "auprc": "%.9g", "n_pos": "%d", "n_neg": "%d"}


@dataclass
class MetricReport:
    """``per_class`` holds one ``CLASS_RECORD`` per prompt class."""

    per_class: np.ndarray
    macro_auroc: float | None
    auroc_excluded: int
    macro_auprc: float | None
    auprc_excluded: int
    recall_img_to_txt: float
    recall_txt_to_img: float
    n_samples: int

    def to_json(self) -> str:
        doc = {
            "n_samples": self.n_samples,
            "macro_auroc": self.macro_auroc,
            "macro_auprc": self.macro_auprc,
            "auroc_excluded": self.auroc_excluded,
            "auprc_excluded": self.auprc_excluded,
            "recall_at_1": {
                "image_to_text": self.recall_img_to_txt,
                "text_to_image": self.recall_txt_to_img,
            },
            "per_class": [  # an undefined metric, NaN (v != v), is null
                {name: None if v != v else v for name, v in zip(CLASS_RECORD.names, row)}
                for row in self.per_class.tolist()
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_csv(self) -> str:
        return table_csv(self.per_class, CLASS_FORMATS)


def zero_shot_scores(u: np.ndarray, pos: np.ndarray, neg: np.ndarray, tau: float) -> np.ndarray:
    """Positive-class probability of each unit row of ``u`` from the softmax over
    the unit prompt vectors ``pos`` and ``neg`` at temperature ``tau``."""
    s_pos = u @ pos / tau
    s_neg = u @ neg / tau
    # Two-way softmax, stable form: sigmoid of the score difference.
    delta = s_pos - s_neg
    out = np.empty_like(delta)
    nonneg = delta >= 0
    out[nonneg] = 1.0 / (1.0 + np.exp(-delta[nonneg]))
    out[~nonneg] = np.exp(delta[~nonneg]) / (1.0 + np.exp(delta[~nonneg]))
    return out


def _midranks(x: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their midrank."""
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    # Each run of equal sorted values spans positions [start, end].
    start = np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1]])
    end = np.r_[start[1:], len(x)] - 1
    ranks = np.empty(len(x), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (start + end) + 1.0, end - start + 1)
    return ranks


def auroc(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """Pair-count AUROC: (concordant + 0.5 ties) / (P*N), via midranks; None
    when there are no positives or no negatives."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise UsageError("scores and labels must be matching 1-D arrays")
    p = int(labels.sum())
    n = len(labels) - p
    if p == 0 or n == 0:
        return None
    ranks = _midranks(scores)
    # Sum of positive ranks minus the minimum possible gives concordant+ties/2.
    return float((ranks[labels].sum() - p * (p + 1) / 2.0) / (p * n))


def auprc(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """Average precision with descending sweep; equal scores form one group.
    None when there are no positives."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise UsageError("scores and labels must be matching 1-D arrays")
    p = int(labels.sum())
    if p == 0:
        return None
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order].astype(np.float64)
    tp = np.cumsum(y)
    fp = np.cumsum(1.0 - y)
    # Keep only the last index of each equal-score run: one sweep point per group.
    boundary = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    tp = tp[boundary]
    fp = fp[boundary]
    recall = tp / p
    precision = tp / (tp + fp)
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * precision))


def _macro(values: np.ndarray) -> tuple[float | None, int]:
    """Unweighted mean over the defined (not NaN) values, None if there are
    none, and the number excluded."""
    defined = values[~np.isnan(values)]
    return (float(defined.mean()) if len(defined) else None), len(values) - len(defined)


def _exact_hits(
    a: np.ndarray, b: np.ndarray, rows: np.ndarray, diag: np.ndarray, magnitude: float
) -> np.ndarray:
    """Whether each of ``rows`` of a b^T has its largest float64 dot product on
    the diagonal, ties going to the smallest index.  ``diag`` holds the first
    pass's float32 diagonal entries of ``rows``: this pass's entries lie
    within margin/2 of the same float64 values (``float32_scan``), so only a
    column whose entry is at least the diagonal one minus the margin can beat
    it, and only those get an exact dot product."""
    margin, blocks = float32_scan(len(rows), b, magnitude)
    cut = float32_cut(diag, -margin)
    own_value = exact_pairs(a, b, rows, rows, distance=False)
    beaten = np.zeros(len(rows), dtype=bool)
    for start, left, tiles in blocks:
        block = slice(start, start + len(left))
        left[...] = a[rows[block]]
        for col, part, out in tiles:
            sim = np.matmul(left, part.T, out=out.reshape(len(left), len(part)))
            row, other = np.divmod(np.flatnonzero(sim >= cut[block, None]), len(part))
            row += start
            other += col
            exact = exact_pairs(a, b, rows[row], other, distance=False)
            mine = own_value[row]
            beaten[row[(exact > mine) | ((exact == mine) & (other < rows[row]))]] = True
    return ~beaten


def _scan_maxima(a: np.ndarray, b: np.ndarray, magnitude: float):
    """One ``float32_scan`` of a b^T: its margin, its diagonal entries, and
    each row's and each column's largest off-diagonal entry, as running
    maxima over the tiles.  A function of its own, so that the scan's
    buffers are freed before ``_exact_hits`` runs its own scan."""
    n = len(a)
    margin, blocks = float32_scan(n, b, magnitude)
    diag = np.empty(n, dtype=np.float32)
    row_max = np.full(n, -np.inf, dtype=np.float32)
    col_max = np.full(n, -np.inf, dtype=np.float32)
    for start, left, tiles in blocks:
        stop = start + len(left)
        left[...] = a[start:stop]
        for col, part, out in tiles:
            sim = np.matmul(left, part.T, out=out.reshape(len(left), len(part)))
            end = col + len(part)
            own = np.arange(max(start, col), min(stop, end))  # diagonal entries in this tile
            diag[own] = sim[own - start, own - col]
            sim[own - start, own - col] = -np.inf
            np.maximum(row_max[start:stop], sim.max(axis=1), out=row_max[start:stop])
            np.maximum(col_max[col:end], sim.max(axis=0), out=col_max[col:end])
    return margin, diag, row_max, col_max


def recall_both_blocked(u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Recall@1 both ways: the share of rows of U V^T, and of columns, whose
    largest entry is their diagonal one, ties going to the smallest index.

    Exact, and the same for any SCAN_BLOCK and SCAN_COLS: the entries are
    float64 dot products computed outside BLAS.  ``_scan_maxima`` keeps each
    row's and each column's largest off-diagonal float32 entry and the
    diagonal entries.  Where the largest lies more than the margin from the
    diagonal entry, the float32 gap decides; the rest go to ``_exact_hits``
    with those diagonal entries, rows of U V^T and columns as rows of V U^T.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise UsageError(f"batch shapes differ: {u.shape} vs {v.shape}")
    n = u.shape[0]
    if n == 0:
        raise UsageError("retrieval needs a nonempty batch")

    (a, _), (b, _) = unit_scaled(u), unit_scaled(v)
    # sum_k |a_ik b_jk| <= |a_i| |b_j| (Cauchy-Schwarz).
    magnitude = math.sqrt(np.einsum("ij,ij->i", a, a).max() * np.einsum("ij,ij->i", b, b).max())
    margin, diag, row_max, col_max = _scan_maxima(a, b, magnitude)
    recalls = []
    for x, y, rival in ((a, b, row_max), (b, a, col_max)):
        gap = diag.astype(np.float64) - rival
        hits = gap > margin
        unsure = np.flatnonzero(np.abs(gap) <= margin)
        if len(unsure):
            hits[unsure] = _exact_hits(x, y, unsure, diag[unsure], magnitude)
        recalls.append(int(np.count_nonzero(hits)) / n)
    return recalls[0], recalls[1]


def _unit(mat: np.ndarray, what: str, names: list[str] | None = None) -> np.ndarray:
    """``normalize_rows`` whose error names the projected matrix, and a prompt's class."""
    try:
        return normalize_rows(mat)
    except DegenerateVectorError as exc:
        where = what if names is None else f"{what} of class {names[exc.row]!r}"
        raise DegenerateVectorError(f"projected {where}: {exc}", exc.row) from None


def evaluate_zero_shot(
    head, img: np.ndarray, txt: np.ndarray, labels: np.ndarray, names: list[str],
    positive: np.ndarray, negative: np.ndarray, tau: float,
) -> MetricReport:
    """The zero-shot protocol: per-class prompt-pair scores, macro metrics, Recall@1.

    ``img``/``txt`` are the raw corpus halves, ``labels`` their (n, C)
    boolean matrix and ``positive``/``negative`` the (C, d_txt) prompt
    matrices, row c for class ``names[c]``.  ``head`` is a ``ProjectionHead``
    taking the corpus's input dims; all four matrices go through it and are
    normalised once before scoring at temperature ``tau``.
    """
    if not tau > 0.0:
        raise UsageError("temperature must be > 0")
    head_dims = (head.W_img.shape[0], head.W_txt.shape[0])
    if head_dims != (img.shape[1], txt.shape[1]):
        raise UsageError(
            f"head takes {head_dims[0]}+{head_dims[1]} input dims, "
            f"corpus has {img.shape[1]}+{txt.shape[1]}"
        )
    labels = np.asarray(labels).astype(bool)
    if labels.ndim != 2 or {labels.shape[1], len(positive), len(negative)} != {len(names)}:
        raise UsageError(
            f"labels shape {labels.shape} and prompt rows {len(positive)}/{len(negative)} "
            f"do not match {len(names)} prompt classes"
        )
    for d in (positive.shape[1], negative.shape[1]):
        if d != txt.shape[1]:
            raise UsageError(f"prompt dimension {d} does not match text side {txt.shape[1]}")
    u = _unit(head.project_img(img), "images")
    v = _unit(head.project_txt(txt), "texts")
    pos = _unit(head.project_txt(positive), "positive prompt", names)
    neg = _unit(head.project_txt(negative), "negative prompt", names)

    per_class = np.zeros(len(names), dtype=CLASS_RECORD)
    per_class["class"] = names
    per_class["n_pos"] = labels.sum(axis=0)
    per_class["n_neg"] = len(labels) - per_class["n_pos"]
    for c in range(len(names)):
        scores = zero_shot_scores(u, pos[c], neg[c], tau)
        for name, metric in (("auroc", auroc), ("auprc", auprc)):
            value = metric(scores, labels[:, c])
            per_class[name][c] = math.nan if value is None else value
    return MetricReport(
        per_class,
        *_macro(per_class["auroc"]),
        *_macro(per_class["auprc"]),
        *recall_both_blocked(u, v),
        n_samples=len(u),
    )
