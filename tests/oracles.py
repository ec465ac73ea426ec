"""Reference implementations the library is tested against.

Per-sample and loop forms of the vectorised library routines, plus the
statistics and file helpers only the tests need.  None of them is part of
the pipeline; each test module imports what it checks against from here.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from protocurate.analysis import TestResult, t_sf_two_sided
from protocurate.config import EngineConfig
from protocurate.embedding import check_directions, normalize_rows, pairwise_sq_distance
from protocurate.embedding import unify_batch
from protocurate.errors import UsageError
from protocurate.io import VERSION, Corpus, _corpus_layout, _layout_size
from protocurate.metrics import zero_shot_scores
from protocurate.prototypes import _SCALING_MAX, _SCALING_MIN
from protocurate.prototypes import PrototypeBank, TransportPlan, decode_bank
from protocurate.synth import _alignment_map
from protocurate.trainer import BETA1, BETA2, EPS, LOG_TAU_MAX, LOG_TAU_MIN
from protocurate.trainer import OptimizerState, ProjectionHead, cosine_lr


# --- embedding ---------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingPair:
    """One sample: stable id, image-side vector, text-side vector, optional labels.

    ``labels`` is a boolean vector over the corpus label classes (one-hot or
    multi-hot), or None for label-free corpora.
    """

    id: int
    img: np.ndarray
    txt: np.ndarray
    labels: np.ndarray | None = None


def unify(pair: EmbeddingPair, mode: str = "concat") -> np.ndarray:
    """Build the curation-space vector for one sample.

    ``concat`` concatenates the two normalized halves (total norm sqrt(2));
    ``image_only`` / ``text_only`` are the ablation modes returning a single
    normalized half (total norm 1).
    """
    return unify_batch(
        np.asarray(pair.img, dtype=np.float64)[None, :],
        np.asarray(pair.txt, dtype=np.float64)[None, :],
        mode,
    )[0]


def pairwise_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between the rows of ``a`` and ``b``.

    Computed blockwise via the Gram expansion
    ||x-y||^2 = ||x||^2 + ||y||^2 - 2<x,y>, clamped at zero before the
    square root.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise UsageError("pairwise_distance expects 2-D arrays of row vectors")
    if a.shape[1] != b.shape[1]:
        raise UsageError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")

    sq = pairwise_sq_distance(a, b)
    return np.sqrt(sq)


def first_without_direction(mat: np.ndarray) -> tuple[int, str] | None:
    """Loop form of ``embedding.check_directions``: (row, kind) of the first
    non-finite row, else of the first whose sum of squares overflows, else of
    the first whose sum of squares is zero, "all-zero" or, with a nonzero
    entry, "underflowing"; None when every row has a direction."""
    rows = [[float(x) for x in row] for row in mat]
    tests = (
        ("non-finite", lambda row: not all(map(math.isfinite, row))),
        ("overflowing", lambda row: math.isinf(sum(x * x for x in row))),
        ("zero", lambda row: sum(x * x for x in row) == 0.0),
    )
    for kind, test in tests:
        for index, row in enumerate(rows):
            if test(row):
                if kind == "zero":
                    kind = "underflowing" if any(row) else "all-zero"
                return index, kind
    return None


def normalize_rows_direct(mat: np.ndarray) -> np.ndarray:
    """``embedding.normalize_rows`` as a float64 copy, its ``np.linalg.norm``
    norms and one division: the normaliser the one-buffer form must match."""
    mat = np.asarray(mat, dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1)
    check_directions(mat, norms)
    return mat / norms[:, None]


def unify_batch_direct(img: np.ndarray, txt: np.ndarray, mode: str = "concat") -> np.ndarray:
    """``embedding.unify_batch`` by normalising each half on its own and
    ``np.hstack``-ing the two copies."""
    if mode == "image_only":
        return normalize_rows_direct(img)
    if mode == "text_only":
        return normalize_rows_direct(txt)
    return np.hstack([normalize_rows_direct(img), normalize_rows_direct(txt)])


# --- curation ----------------------------------------------------------------


def fps_select_direct(
    points: np.ndarray, ids: np.ndarray, budget: int, anchor: np.ndarray
) -> np.ndarray:
    """``curation.fps_select`` by three full passes over the cluster per pick
    (subtract, square, reduce) into ``np.linalg.norm`` distances: the max-min
    loop the filter and refine must match pick for pick, ties to the smallest id."""
    if budget < 1:
        raise UsageError("FPS budget must be >= 1")
    points = np.asarray(points, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.uint64)
    n = len(points)
    if n <= budget:
        return np.arange(n)

    def pick(score: np.ndarray) -> int:
        cands = np.flatnonzero(score == score.max())
        return int(cands[np.argmin(ids[cands])])

    chosen = [pick(np.linalg.norm(points - np.asarray(anchor, dtype=np.float64), axis=1))]
    min_dist = np.full(n, np.inf)
    for _ in range(budget - 1):
        last = chosen[-1]
        np.minimum(min_dist, np.linalg.norm(points - points[last], axis=1), out=min_dist)
        min_dist[last] = -np.inf
        chosen.append(pick(min_dist))
    return np.asarray(chosen, dtype=np.int64)


# --- prototypes --------------------------------------------------------------


def nearest_prototype(z: np.ndarray, bank: PrototypeBank) -> tuple[int, float]:
    """Index and Euclidean distance of the closest prototype (ties: smallest index)."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (bank.dim,):
        raise UsageError(f"expected a vector of dimension {bank.dim}, got {z.shape}")
    d = np.linalg.norm(bank.protos - z[None, :], axis=1)
    idx = int(np.argmin(d))
    return idx, float(d[idx])


def load_bank(path) -> PrototypeBank:
    with open(path, "rb") as fh:
        return decode_bank(fh.read())


def sinkhorn_from_cost_direct(
    cost: np.ndarray, epsilon: float, max_iters: int, tol: float
) -> TransportPlan:
    """``prototypes.sinkhorn_from_cost`` one sweep at a time: each sweep is
    checked for convergence, then for a scaling outside [1e-100, 1e100],
    before the next one runs, and the potentials start from whole-array row
    and column minima.  The blocked solver must match its plan bytes, count,
    residual and flag."""
    cost = np.asarray(cost, dtype=np.float64)
    n, k = cost.shape
    r = 1.0 / n
    c = 1.0 / k
    f = cost.min(axis=1)
    g = (cost - f[:, None]).min(axis=0)

    def kernel() -> np.ndarray:
        return np.exp((g[:, None] + f[None, :] - cost.T) / epsilon)

    kern = kernel()
    scalings = np.ones(n + k)
    u, v = scalings[:n], scalings[n:]
    kv = v @ kern
    converged = False
    iterations = 0
    for it in range(1, max_iters + 1):
        iterations = it
        np.divide(r, kv, out=u)
        np.divide(c, kern @ u, out=v)
        kv = v @ kern
        rows = u * kv
        if rows.max() - r < tol and r - rows.min() < tol:
            converged = True
            break
        if scalings.min() < _SCALING_MIN or scalings.max() > _SCALING_MAX:
            f += epsilon * np.log(u)
            g += epsilon * np.log(v)
            kern = kernel()
            scalings[:] = 1.0
            kv = v @ kern

    plan = u[:, None] * kern.T * v[None, :]
    row_err = np.max(np.abs(plan.sum(axis=1) - r))
    col_err = np.max(np.abs(plan.sum(axis=0) - c))
    residual = float(max(row_err, col_err))
    return TransportPlan(
        plan=plan,
        residual=residual,
        converged=converged and residual < tol,
        iterations=iterations,
    )


# --- metrics -----------------------------------------------------------------


def zero_shot_prob(
    image_emb: np.ndarray, positive, negative, tau: float = 1.0, head=None
) -> float:
    """Positive-class probability of one image from the prompt-pair softmax.

    With ``head`` given (anything with a project_img method), the embedding
    is projected and re-normalized first; otherwise it is used as-is and
    should already be unit-norm.  The prompt vectors are used as given.
    """
    img = np.asarray(image_emb, dtype=np.float64)[None, :]
    if head is not None:
        img = normalize_rows(head.project_img(img))
    pos, neg = (np.asarray(p, dtype=np.float64) for p in (positive, negative))
    return float(zero_shot_scores(img, pos, neg, tau)[0])


def midranks(x: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their midrank."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=np.float64)
    sorted_x = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def recall_at_1(sim: np.ndarray, direction: str = "image_to_text") -> float:
    """Fraction of queries whose argmax (ties to smallest index) is the true pair."""
    sim = np.asarray(sim, dtype=np.float64)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise UsageError(f"similarity matrix must be square, got {sim.shape}")
    if direction not in ("image_to_text", "text_to_image"):
        raise UsageError(f"unknown direction {direction!r}")
    mat = sim if direction == "image_to_text" else sim.T
    hits = np.argmax(mat, axis=1) == np.arange(mat.shape[0])
    return float(hits.mean())


# --- trainer -----------------------------------------------------------------


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, shifted by the max, keepdims round trip."""
    peak = np.max(a, axis=axis, keepdims=True)
    out = peak + np.log(np.sum(np.exp(a - peak), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


def info_nce_grad_direct(
    raw_img: np.ndarray, raw_txt: np.ndarray, head: ProjectionHead
) -> tuple[float, np.ndarray]:
    """``trainer.info_nce_grad`` with keepdims logsumexps, an ``np.eye``
    diagonal and a zeroed gradient record filled field by field."""
    x_img = np.asarray(raw_img, dtype=np.float64)
    x_txt = np.asarray(raw_txt, dtype=np.float64)
    b = x_img.shape[0]
    r_u = head.project_img(x_img)
    r_v = head.project_txt(x_txt)
    nu = np.linalg.norm(r_u, axis=1)
    nv = np.linalg.norm(r_v, axis=1)
    check_directions(r_u, nu)
    check_directions(r_v, nv)
    u = r_u / nu[:, None]
    v = r_v / nv[:, None]

    tau = head.tau
    s = (u @ v.T) / tau
    lse_row = logsumexp(s, axis=1)
    lse_col = logsumexp(s, axis=0)
    diag = np.diag(s)
    loss = float(0.5 * ((lse_row - diag).mean() + (lse_col - diag).mean()))

    p_row = np.exp(s - lse_row[:, None])
    p_col = np.exp(s - lse_col[None, :])
    g = (p_row + p_col - 2.0 * np.eye(b)) / (2.0 * b)
    du = (g @ v) / tau
    dv = (g.T @ u) / tau
    d_log_tau = float(-(g * s).sum())
    dr_u = (du - (du * u).sum(axis=1, keepdims=True) * u) / nu[:, None]
    dr_v = (dv - (dv * v).sum(axis=1, keepdims=True) * v) / nv[:, None]

    grad = np.zeros((), dtype=head.record.dtype)
    grad["W_img"] = x_img.T @ dr_u
    grad["b_img"] = dr_u.sum(axis=0)
    grad["W_txt"] = x_txt.T @ dr_v
    grad["b_txt"] = dr_v.sum(axis=0)
    grad["log_tau"] = d_log_tau
    return loss, grad


def optimizer_step_direct(
    state: OptimizerState, theta: np.ndarray, grad: np.ndarray, t: float, horizon: float
) -> float:
    """``trainer.optimizer_step`` with fresh moment arrays each step, from the
    scalar 0.0 before the first."""
    state.step_count += 1
    lr = cosine_lr(state.base_lr, t, horizon)
    bc1 = 1.0 - BETA1**state.step_count
    bc2 = 1.0 - BETA2**state.step_count
    m = 0.0 if state.m is None else state.m
    v = 0.0 if state.v is None else state.v
    state.m = BETA1 * m + (1.0 - BETA1) * grad
    state.v = BETA2 * v + (1.0 - BETA2) * grad**2
    m_hat = state.m / bc1
    v_hat = state.v / bc2
    theta -= lr * (m_hat / (np.sqrt(v_hat) + EPS) + state.weight_decay * theta)
    theta[-1] = min(max(theta[-1], LOG_TAU_MIN), LOG_TAU_MAX)
    return lr


def info_nce(u: np.ndarray, v: np.ndarray, tau: float) -> float:
    """Symmetric InfoNCE over matched unit-row batches.

    loss = 1/2 [ mean_i CE(row i of S, i) + mean_j CE(column j of S, j) ]
    with S = U V^T / tau.  Nonnegative; ln B when all similarities equal.
    """
    if tau <= 0.0:
        raise UsageError("temperature must be > 0")
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise UsageError(f"batch shapes differ: {u.shape} vs {v.shape}")
    b = u.shape[0]
    if b < 1:
        raise UsageError("batch must be nonempty")
    s = (u @ v.T) / tau
    diag = np.diag(s)
    row_ce = logsumexp(s, axis=1) - diag
    col_ce = logsumexp(s, axis=0) - diag
    return float(0.5 * (row_ce.mean() + col_ce.mean()))


# --- analysis ----------------------------------------------------------------


def paired_t(a: np.ndarray, b: np.ndarray) -> TestResult:
    """Two-sided paired t-test: one-sample t on index-matched differences."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise UsageError("paired test needs matching 1-D arrays")
    n = len(a)
    if n < 2:
        raise UsageError("paired t-test needs at least 2 pairs")
    d = a - b
    md = float(d.mean())
    sd = float(d.std(ddof=1))
    df = float(n - 1)
    if sd == 0.0:
        if md == 0.0:
            return TestResult(0.0, df, 1.0, float(a.mean()), float(b.mean()), n, n)
        stat = math.copysign(math.inf, md)
        return TestResult(stat, df, 0.0, float(a.mean()), float(b.mean()), n, n)
    stat = md / (sd / math.sqrt(n))
    return TestResult(stat, df, t_sf_two_sided(stat, df), float(a.mean()), float(b.mean()), n, n)


def knn_mean_distance_direct(points: np.ndarray, k: int) -> np.ndarray:
    """kNN mean distances from the whole float64 matrix of direct differences:
    the library scan's bit-for-bit reference.  Row i's squared distances are
    ||p_j - p_i||^2 by elementwise difference and einsum, self excluded; the k
    smallest are sorted, square-rooted and averaged."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    k_eff = min(k, n - 1)
    out = np.empty(n)
    for i in range(n):
        diff = points - points[i]
        sq = np.einsum("ij,ij->i", diff, diff)
        nearest = np.sort(np.delete(sq, i))[:k_eff]
        out[i] = np.sqrt(nearest).mean()
    return out


def knn_mean_distance_longdouble(points: np.ndarray, k: int) -> np.ndarray:
    """Brute-force kNN mean distances in long double: every pair's distance,
    sorted per row, the k smallest averaged, each step with the extended
    precision's roundoff (2^-64 on x86-64) instead of float64's 2^-53."""
    points = np.asarray(points, dtype=np.longdouble)
    n = len(points)
    k_eff = min(k, n - 1)
    out = np.empty(n, dtype=np.longdouble)
    for i in range(n):
        dist = np.sqrt(((points - points[i]) ** 2).sum(axis=1))
        out[i] = np.sort(np.delete(dist, i))[:k_eff].sum() / k_eff
    return out


def run_summary(values: np.ndarray) -> tuple[float, float]:
    """Mean and 95% CI halfwidth (1.96 * sd/sqrt(n)) over repeated runs."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n < 2:
        raise UsageError("run summary needs at least 2 runs")
    se = math.sqrt(float(values.var(ddof=1)) / n)
    return float(values.mean()), 1.96 * se


# --- io ----------------------------------------------------------------------


def record_size(d_img: int, d_txt: int, n_labels: int) -> int:
    return _layout_size(_corpus_layout(VERSION, 1, d_img, d_txt, n_labels)[1])


def encode_records_direct(magic: bytes, header: tuple[int, ...], layout_of, values: dict) -> bytes:
    """``io.encode_records`` as zeroed records, their fields, and the file joined
    from the magic, the header and ``tobytes()``."""
    count, layout = layout_of(*header)
    records = np.zeros(count, dtype=np.dtype(layout))
    for name, value in values.items():
        records[name] = value
    return magic + struct.pack(f"<{len(header)}I", *header) + records.tobytes()


# --- synth -------------------------------------------------------------------


def generate_corpus_direct(cfg: EngineConfig) -> tuple[Corpus, tuple[np.ndarray, np.ndarray]]:
    """``synth.generate_corpus`` as one draw of each noise array and one
    float64 expression per half, the alignment product always taken."""
    rng = np.random.default_rng(cfg.seed)
    means = cfg.mean_scale * rng.standard_normal((cfg.clusters, cfg.d_img))
    amap = _alignment_map(cfg, rng)

    weights = np.asarray(cfg.resolved_weights())
    assign = rng.choice(cfg.clusters, size=cfg.n_samples, p=weights)
    img = means[assign] + cfg.noise_scale * rng.standard_normal((cfg.n_samples, cfg.d_img))
    txt_noise = rng.standard_normal((cfg.n_samples, cfg.d_txt))
    txt = cfg.rho * (img @ amap.T) + (1.0 - cfg.rho) * txt_noise

    labels = np.zeros((cfg.n_samples, cfg.clusters), dtype=bool)
    labels[np.arange(cfg.n_samples), assign] = True

    corpus = Corpus(
        ids=np.arange(cfg.n_samples, dtype=np.uint64),
        img=img.astype(np.float32),
        txt=txt.astype(np.float32),
        labels=labels,
    )
    positive = normalize_rows_direct(means @ amap.T)
    if cfg.clusters == 1:
        negative = -positive
    else:
        negative = normalize_rows_direct((positive.sum(axis=0) - positive) / (cfg.clusters - 1))
    return corpus, (positive, negative)


# --- CSV tables --------------------------------------------------------------
# One f-string per line: the formulation ``io.table_csv``'s single ``%``
# replaced, kept to pin every table's text.


def _csv(header: str, lines) -> str:
    return header + "\n" + "".join(line + "\n" for line in lines)


def selection_csv(records: np.ndarray) -> str:
    return _csv("id,iteration,reason,proto,distance", (
        f"{int(r['id'])},{int(r['iteration'])},{r['reason']},{int(r['proto'])},"
        f"{float(r['distance'])!r}"
        for r in records
    ))


def loss_csv(records: np.ndarray) -> str:
    return _csv("step,epoch,lr,loss", (
        f"{int(r['step'])},{int(r['epoch'])},{r['lr']:.9g},{r['loss']:.9g}" for r in records
    ))


def metrics_csv(per_class: np.ndarray) -> str:
    def cell(value):
        return "" if math.isnan(value) else f"{value:.9g}"

    return _csv("class,auroc,auprc,n_pos,n_neg", (
        f"{r['class']},{cell(r['auroc'])},{cell(r['auprc'])},{int(r['n_pos'])},{int(r['n_neg'])}"
        for r in per_class
    ))


def knn_profile_csv(ids: np.ndarray, values: np.ndarray) -> str:
    return _csv("id,knn_mean", (f"{int(i)},{v:.9g}" for i, v in zip(ids, values)))


def pca2_csv(ids: np.ndarray, proj: np.ndarray) -> str:
    return _csv("id,pc1,pc2", (f"{int(i)},{p[0]:.9g},{p[1]:.9g}" for i, p in zip(ids, proj)))


def ecdf_csv(values: np.ndarray) -> str:
    """Each distinct value and the share of values at or below it."""
    ordered = np.sort(values)
    lines = []
    for value in np.unique(ordered):
        share = np.searchsorted(ordered, value, side="right") / len(ordered)
        lines.append(f"{value:.9g},{share:.9g}")
    return _csv("value,cum_frac", lines)


def labels_csv(labels: np.ndarray, rows: np.ndarray | None) -> str:
    full = labels.sum(axis=0)
    frac_full = full / len(labels)
    if rows is None:
        return _csv("class,count,frac", (
            f"class_{c},{full[c]},{frac_full[c]:.9g}" for c in range(len(full))
        ))
    subset = labels[rows].sum(axis=0)
    frac_subset = subset / len(rows)
    return _csv("class,count_full,frac_full,count_subset,frac_subset,delta", (
        f"class_{c},{full[c]},{frac_full[c]:.9g},{subset[c]},{frac_subset[c]:.9g},"
        f"{frac_subset[c] - frac_full[c]:.9g}"
        for c in range(len(full))
    ))
