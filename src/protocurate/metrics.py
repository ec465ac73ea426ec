"""Zero-shot evaluation: prompt-pair classification, AUROC/AUPRC, Recall@1.

AUROC uses pair-count semantics (concordant plus half the ties over P*N),
computed via midranks so it stays O(n log n) while matching the counting
definition exactly.  AUPRC is average precision with equal scores swept as
one group.  Classes whose metric is undefined on a given split are
excluded from the macro average and reported as absent rather than scored
zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .embedding import normalize_rows
from .errors import UndefinedMetricError, UsageError


@dataclass(frozen=True)
class PromptPair:
    name: str
    positive: np.ndarray
    negative: np.ndarray


@dataclass
class ClassMetrics:
    name: str
    auroc: float | None
    auprc: float | None
    n_pos: int
    n_neg: int


@dataclass
class MetricReport:
    per_class: list[ClassMetrics]
    macro_auroc: float | None
    macro_auprc: float | None
    auroc_excluded: int
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
            "per_class": [
                {
                    "class": c.name,
                    "auroc": c.auroc,
                    "auprc": c.auprc,
                    "n_pos": c.n_pos,
                    "n_neg": c.n_neg,
                }
                for c in self.per_class
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_csv(self) -> str:
        lines = ["class,auroc,auprc,n_pos,n_neg"]
        for c in self.per_class:
            auroc = "" if c.auroc is None else f"{c.auroc:.9g}"
            auprc = "" if c.auprc is None else f"{c.auprc:.9g}"
            lines.append(f"{c.name},{auroc},{auprc},{c.n_pos},{c.n_neg}")
        return "\n".join(lines) + "\n"


def zero_shot_scores(images: np.ndarray, prompt: PromptPair, tau: float = 1.0) -> np.ndarray:
    """Positive-class probability of each unit image row from the prompt-pair softmax."""
    if tau <= 0.0:
        raise UsageError("temperature must be > 0")
    images = np.asarray(images, dtype=np.float64)
    pos = np.asarray(prompt.positive, dtype=np.float64)
    neg = np.asarray(prompt.negative, dtype=np.float64)
    if images.shape[1] != pos.shape[0] or pos.shape != neg.shape:
        raise UsageError(
            f"prompt dimension mismatch: images {images.shape[1]}, "
            f"pos {pos.shape[0]}, neg {neg.shape[0]}"
        )
    s_pos = images @ pos / tau
    s_neg = images @ neg / tau
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


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Pair-count AUROC: (concordant + 0.5 ties) / (P*N), via midranks."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise UsageError("scores and labels must be matching 1-D arrays")
    p = int(labels.sum())
    n = len(labels) - p
    if p == 0 or n == 0:
        raise UndefinedMetricError(
            f"AUROC undefined: {p} positives, {n} negatives"
        )
    ranks = _midranks(scores)
    # Sum of positive ranks minus the minimum possible gives concordant+ties/2.
    return float((ranks[labels].sum() - p * (p + 1) / 2.0) / (p * n))


def auprc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Average precision with descending sweep; equal scores form one group."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise UsageError("scores and labels must be matching 1-D arrays")
    p = int(labels.sum())
    if p == 0:
        raise UndefinedMetricError("AUPRC undefined: no positive samples")

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


def macro_average(values: list[float | None]) -> tuple[float, int]:
    """Unweighted mean over defined entries; returns (mean, excluded count)."""
    defined = [v for v in values if v is not None]
    excluded = len(values) - len(defined)
    if not defined:
        raise UndefinedMetricError("macro average undefined: no class has a defined metric")
    return float(np.mean(defined)), excluded


_RECALL_BLOCK = 256


def recall_both_blocked(u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Both retrieval directions without materializing the full n x n matrix.

    Streams row blocks of U V^T through one preallocated buffer.  Rows are
    scored per block.  For columns, each block keeps only its column maxima
    and, on its own diagonal sub-block, the in-block argmax.  Column j is a
    hit iff the first block that reaches j's global maximum is j's own block
    and that block's first maximal row is j: the smallest-index tie rule of
    argmax over the full matrix.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise UsageError(f"batch shapes differ: {u.shape} vs {v.shape}")
    n = u.shape[0]
    if n == 0:
        raise UsageError("retrieval needs a nonempty batch")

    starts = range(0, n, _RECALL_BLOCK)
    buf = np.empty((min(_RECALL_BLOCK, n), n))
    col_max = np.empty((len(starts), n))
    own_arg = np.empty(n, dtype=np.intp)
    row_hits = 0
    for b, start in enumerate(starts):
        stop = min(start + _RECALL_BLOCK, n)
        block = np.matmul(u[start:stop], v.T, out=buf[: stop - start])
        row_hits += int(np.sum(np.argmax(block, axis=1) == np.arange(start, stop)))
        block.max(axis=0, out=col_max[b])
        own_arg[start:stop] = start + np.argmax(block[:, start:stop], axis=0)
    cols = np.arange(n)
    first_block = np.argmax(col_max == col_max.max(axis=0), axis=0)
    col_hits = int(np.sum((first_block == cols // _RECALL_BLOCK) & (own_arg == cols)))
    return row_hits / n, col_hits / n


def evaluate_zero_shot(
    images: np.ndarray,
    texts: np.ndarray,
    labels: np.ndarray,
    prompts: list[PromptPair],
    tau: float = 1.0,
) -> MetricReport:
    """Full protocol: per-class prompt-pair scores, macro metrics, retrieval.

    ``images``/``texts`` are projected embeddings (not yet normalized);
    ``labels`` is the (n, C) boolean matrix aligned with ``prompts``.
    """
    labels = np.asarray(labels).astype(bool)
    if labels.ndim != 2 or labels.shape[1] != len(prompts):
        raise UsageError(
            f"labels shape {labels.shape} does not match {len(prompts)} prompt classes"
        )
    u = normalize_rows(images)
    v = normalize_rows(texts)

    per_class: list[ClassMetrics] = []
    aurocs: list[float | None] = []
    auprcs: list[float | None] = []
    for c, prompt in enumerate(prompts):
        scores = zero_shot_scores(u, prompt, tau)
        y = labels[:, c]
        n_pos = int(y.sum())
        n_neg = int(len(y) - n_pos)
        try:
            a = auroc(scores, y)
        except UndefinedMetricError:
            a = None
        try:
            ap = auprc(scores, y)
        except UndefinedMetricError:
            ap = None
        per_class.append(ClassMetrics(prompt.name, a, ap, n_pos, n_neg))
        aurocs.append(a)
        auprcs.append(ap)

    try:
        macro_roc, roc_excluded = macro_average(aurocs)
    except UndefinedMetricError:
        macro_roc, roc_excluded = None, len(aurocs)
    try:
        macro_pr, pr_excluded = macro_average(auprcs)
    except UndefinedMetricError:
        macro_pr, pr_excluded = None, len(auprcs)

    r_img, r_txt = recall_both_blocked(u, v)
    return MetricReport(
        per_class=per_class,
        macro_auroc=macro_roc,
        macro_auprc=macro_pr,
        auroc_excluded=roc_excluded,
        auprc_excluded=pr_excluded,
        recall_img_to_txt=r_img,
        recall_txt_to_img=r_txt,
        n_samples=len(u),
    )
