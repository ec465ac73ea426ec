"""Online curation loop: super-batch scoring, trimming, retention, FPS.

Each super-batch drawn from the shuffled corpus is scored by distance to
the nearest prototype.  The farthest few are discarded as outliers, the
next-farthest slice is retained outright (these are the informative
long-tail samples), and the remaining pool is under-sampled: transported
onto the prototypes under an equipartition constraint, grouped by hard
assignment, and reduced per cluster with farthest point sampling.  The
resulting mini-batch updates the prototypes and joins the curated set.

Every sort in the loop breaks ties by ascending sample id, so a run is a
pure function of (corpus bytes, config, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import EngineConfig
from .embedding import _U64, pairwise_sq_distance, unify_batch, unit_scaled
from .errors import FormatError, InsufficientWarmupError, NumericalFailureError, UsageError
from .io import Corpus, input_file, rows_for_ids, table_csv, text_lines
from .prototypes import PrototypeBank, init_kmeans, sinkhorn_plan, update_prototypes

REASONS = ("distant", "fps")
# One curated sample: its corpus row, then the columns of selection.csv.
RECORD = np.dtype([
    ("row", "<i8"), ("id", "<u8"), ("iteration", "<i8"),
    ("reason", f"U{max(map(len, REASONS))}"), ("proto", "<i8"), ("distance", "<f8"),
])
# selection.csv: every column but ``row``; repr is the shortest exact float
# form, so a written selection survives a read back bit for bit.
FORMATS = {"id": "%d", "iteration": "%d", "reason": "%s", "proto": "%d", "distance": "%r"}
HEADER = ",".join(FORMATS)


@dataclass
class CuratedSelection:
    """One ``RECORD`` per curated sample in emission order, and the
    per-iteration stats of the run that curated them."""

    records: np.ndarray
    stats: list[dict] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def to_csv(self) -> str:
        return table_csv(self.records, FORMATS)

    @classmethod
    def read_csv(cls, path, corpus: Corpus) -> "CuratedSelection":
        """The selection file at ``path``, its ids found among ``corpus``'s rows.

        A malformed line, a numeral the writer never writes included, is a format
        error; a file without samples, or an id the corpus lacks, is a usage error.
        """
        with input_file(path, "selection") as data:
            lines = text_lines(data.decode("utf-8"))
            if lines[0] != HEADER:
                raise FormatError("missing expected CSV header")
            records = []
            line_of_id: dict[int, int] = {}

            def malformed(detail: str) -> FormatError:
                return FormatError(f"line {lineno}: {detail}")

            for lineno, line in enumerate(lines[1:], start=2):
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 5:
                    raise malformed("expected 5 fields")
                i, iteration, reason, proto, distance = parts
                try:
                    values = int(i), int(iteration), int(proto), float(distance)
                except ValueError:
                    values = ()
                # int() and float() also take signs, spaces, underscores, leading
                # zeros and non-ASCII digits; a field must be the value's str, as
                # the writer writes it.
                if list(map(str, values)) != [i, iteration, proto, distance]:
                    raise malformed("malformed field")
                i, iteration, proto, distance = values
                if not 0 <= i < 2**64:
                    raise malformed(f"id {i} is not a uint64")
                if reason not in REASONS:
                    raise malformed(f"unknown reason {reason!r}")
                for name, value, ok in (
                    ("iteration", iteration, 1 <= iteration < 2**63),
                    ("proto", proto, 0 <= proto < 2**63),
                    ("distance", distance, 0.0 <= distance < math.inf),
                ):
                    if not ok:
                        raise malformed(f"{name} {value!r} out of range")
                if i in line_of_id:
                    raise malformed(f"duplicate id {i} (first on line {line_of_id[i]})")
                line_of_id[i] = lineno
                records.append((0, i, iteration, reason, proto, distance))
            if not records:
                raise UsageError("holds no samples")
            records = np.array(records, dtype=RECORD)
            records["row"] = rows_for_ids(corpus.ids, records["id"])
        return cls(records)

    def stats_json(self) -> str:
        return json.dumps(self.stats, indent=2) + "\n"


def score_superbatch(
    z: np.ndarray, bank: PrototypeBank
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-prototype index and distance for each row of z (ties: smallest index)."""
    sq = pairwise_sq_distance(z, bank.protos)
    idx = np.argmin(sq, axis=1)
    return idx, np.sqrt(sq[np.arange(sq.shape[0]), idx])


def trim_outliers(
    ids: np.ndarray, dist: np.ndarray, outlier_frac: float
) -> tuple[np.ndarray, np.ndarray]:
    """Drop the floor(outlier_frac * m) largest-distance samples.

    Returns (kept positions in input order, trimmed positions).  Distance
    ties resolve by id: among equals the larger id is trimmed first.
    """
    m = len(ids)
    t = int(np.floor(outlier_frac * m))
    order = np.lexsort((ids, dist))  # ascending distance, ties ascending id
    trimmed = order[m - t :]
    kept = np.sort(order[: m - t])
    return kept, trimmed


def select_distant(
    ids: np.ndarray, dist: np.ndarray, keep_frac: float
) -> tuple[np.ndarray, np.ndarray]:
    """Split into (distant, pool): the floor(keep_frac * m) largest distances.

    Distant comes back in selection order (distance descending, ties by
    ascending id, smaller id preferred into the distant set); pool keeps
    input order.
    """
    m = len(ids)
    nd = int(np.floor(keep_frac * m))
    order = np.lexsort((ids, -dist))  # descending distance, ties ascending id
    distant = order[:nd]
    pool = np.sort(order[nd:])
    return distant, pool


_MAX = float(np.finfo(np.float64).max)


def _fps_margin(m: int, peak_sq: float, shift: int) -> float:
    """The filter margin of ``fps_select`` (derived there) for rows of length
    ``m`` whose scaled squared norms are at most ``peak_sq``, scaled by 2^-shift."""
    g_m, g_m2 = (k * _U64 / (1.0 - k * _U64) for k in (m, m + 2))
    with np.errstate(over="ignore"):
        overflow = not np.isfinite(np.ldexp(8.0 * peak_sq, 2 * shift))
        spill = np.ldexp(float(m), -1074 - 2 * shift)
    e_gram = (4.0 * g_m + 7.0 * _U64) * peak_sq
    e_exact = 4.0 * g_m2 * peak_sq + spill
    margin = 2.0 * (2.0 * e_gram + 2.0 * e_exact + 5.0 * _U64 * (4.0 * peak_sq + e_exact))
    return _MAX if overflow else min(margin, _MAX)


def fps_select(
    points: np.ndarray, ids: np.ndarray, budget: int, anchor: np.ndarray
) -> np.ndarray:
    """Greedy max-min subset of one cluster, anchored at its prototype.

    The first pick is the point farthest from the anchor; each later pick
    maximizes the minimum distance to the points already picked.  Distances are
    those of ``np.linalg.norm`` and all ties go to the smallest id.  Returns
    positions into ``points`` in pick order; if the cluster fits the budget,
    everything is returned in input order.

    Filter and refine.  Each pick is filtered by Gram squared distances
    G = |x|^2 + |p|^2 - 2 x.p to its target p (the anchor, then the last pick):
    one matrix-vector product over copies of the points and the anchor that
    ``unit_scaled`` brings to one scale 2^-s (the larger of their two), with
    the squared norms taken once.  F_i, the min of G over the targets so far,
    keeps every row whose F_i >= max F - margin; only those rows get the exact
    distances, sqrt(np.add.reduce((x - p)^2)) on the original rows, to every
    target, and the max and the smallest id among its ties decide.  A single
    such row is the pick with no refine at all.

    The margin.  Work in scaled units: every |entry| < 1, X is the largest
    computed squared norm of a scaled row or the anchor (X >= 1/4, as the peak
    entry is in [1/2, 1), unless all are 0 and every G and S is 0), m the row
    length, u = 2^-53, g_k = k u / (1 - k u).  Let D be a real distance, T_i
    the min of D^2 over the targets and S_i the min of the exact sums, which
    the original rows give times 2^2s, a power of two; D^2 <= 4X.
      - The filter: the norms and the dot product each err by g_m X at most,
        in any order, with or without FMA (Higham, Accuracy and Stability, 2nd
        ed., sec. 3.1); the two additions round results below 3X and 4X.  So
        |G - D^2| <= E_g := (4 g_m + 7u) X, and |F_i - T_i| <= E_g.
      - The exact sum: the difference, its square and m - 1 additions give
        |S - D^2| <= g_(m+2) D^2 <= 4 g_(m+2) X in normal range.  Gradual
        underflow of the original rows adds at most 2^-1075 per square (a
        difference or sum in subnormal range is exact), m 2^-1074 with the sum's
        growth; in scaled units A := m 2^(-1074 - 2s).  So |S_i - T_i| <= E_s :=
        4 g_(m+2) X + A.
      - The square root: a refined value is fl(sqrt(S)), and two sums an ulp
        apart may share one, so a tie is only seen after the sqrt; that is where
        the refine compares, as the direct loop does.  If S_i < S_t (1 - 5u) then
        fl(sqrt(S_i)) <= sqrt(S_i)(1 + u) < sqrt(S_t)(1 - u) <= fl(sqrt(S_t)),
        since (1 - 5u)(1 + u)^2 < (1 - u)^2; with S_t <= 4X + E_s, a gap of
        d := 5u (4X + E_s) is enough.
    Let t be the row of max F.  A row with F_i < F_t - margin, margin >=
    2 E_g + 2 E_s + d, has S_i <= F_i + E_g + E_s < S_t + 2 E_g + 2 E_s - margin
    <= S_t - d, so its distance is below row t's: the max and all its ties are
    refined.  ``margin`` is that bound doubled.  The doubling covers second-order
    terms, X standing for the exact largest norm, the float64 evaluation of the
    margin and of F_t - margin, and subnormal rounding in the scaled copies and
    the filter (at most 8 m 2^-1074 in all, while E_g >= g_m / 4).  When the
    original sums could reach float64's overflow threshold (8 X 2^2s >= 2^1024),
    or A overflows, the margin is float64's largest value: every row but the
    picked ones (F = -inf) is refined, which is exact again.
    """
    if budget < 1:
        raise UsageError("FPS budget must be >= 1")
    points = np.asarray(points, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.uint64)
    anchor = np.asarray(anchor, dtype=np.float64)
    n, m = points.shape
    if n <= budget:
        return np.arange(n)

    (rows, rows_shift), (far, far_shift) = unit_scaled(points), unit_scaled(anchor)
    # One scale for both, the larger, so that every scaled |entry| is below 1.
    shift = max(rows_shift, far_shift)
    if rows_shift < shift:
        rows = np.ldexp(rows, rows_shift - shift)
    far = np.ldexp(far, far_shift - shift)
    rows_sq, far_sq = np.einsum("ij,ij->i", rows, rows), float(np.dot(far, far))
    margin = _fps_margin(m, max(float(rows_sq.max()), far_sq), shift)
    gram = np.empty(n)

    def gram_to(p: np.ndarray, p_sq: float) -> np.ndarray:
        """G of every point to the scaled target ``p``."""
        np.matmul(rows, -2.0 * p, out=gram)
        np.add(gram, rows_sq, out=gram)
        return np.add(gram, p_sq, out=gram)

    chosen: list[int] = []

    def pick(score: np.ndarray) -> int:
        cands = np.flatnonzero(score >= score.max() - margin)
        if len(cands) > 1:
            targets = points[chosen] if chosen else anchor[None, :]
            exact = np.linalg.norm(points[cands, None, :] - targets, axis=-1).min(axis=1)
            cands = cands[exact == exact.max()]
        return int(cands[np.argmin(ids[cands])])

    chosen.append(pick(gram_to(far, far_sq)))
    # After the first pick the anchor drops out; max-min runs over picks only.
    # A picked point's min is about 0, and -inf keeps it out of every pick.
    min_sq = np.full(n, np.inf)
    for _ in range(budget - 1):
        last = chosen[-1]
        np.minimum(min_sq, gram_to(rows[last], rows_sq[last]), out=min_sq)
        min_sq[last] = -np.inf
        chosen.append(pick(min_sq))
    return np.asarray(chosen, dtype=np.int64)


def _solve(z: np.ndarray, bank: PrototypeBank, cfg: EngineConfig, what: str):
    """Transport plan of z onto the bank; raises if it misses the tolerance."""
    plan = sinkhorn_plan(z, bank, epsilon=cfg.epsilon, max_iters=cfg.max_iters, tol=cfg.tol)
    if not plan.converged:
        raise NumericalFailureError(
            f"Sinkhorn did not converge on the {what} solve: residual "
            f"{plan.residual:.3g} after {plan.iterations} iterations"
        )
    return plan


def curate_superbatch(
    z: np.ndarray, ids: np.ndarray, bank: PrototypeBank, cfg: EngineConfig
) -> tuple[np.ndarray, dict]:
    """One iteration of the curation pipeline over a nonempty super-batch.

    Returns (mini-batch records, stats).  The ``RECORD``s come in emission
    order: retained distant samples first (distance descending), then FPS
    picks grouped by cluster index in pick order.  Their ``row`` is the
    position in the super-batch and their ``iteration`` is 0.  Mutates the
    bank via the EMA update.
    """
    z = np.asarray(z, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.uint64)
    proto_idx, dist = score_superbatch(z, bank)

    kept, trimmed = trim_outliers(ids, dist, cfg.outlier_frac)
    distant_local, pool_local = select_distant(ids[kept], dist[kept], cfg.keep_frac)
    distant = kept[distant_local]
    pool = kept[pool_local]

    # EngineConfig keeps outlier_frac and keep_frac below 1 and per_cluster_budget
    # at 1 or more, so the pool and the mini-batch are never empty.
    pool_sink = _solve(z[pool], bank, cfg, "pool")
    hard = pool_sink.hard_assignment()
    order = [distant]
    for k in range(bank.k):
        members = pool[hard == k]
        if len(members):
            picks = fps_select(z[members], ids[members], cfg.per_cluster_budget, bank.protos[k])
            order.append(members[picks])

    mb = np.concatenate(order)
    records = np.zeros(len(mb), dtype=RECORD)
    records["row"] = mb
    records["id"] = ids[mb]
    records["reason"] = "fps"
    records["reason"][: len(distant)] = "distant"
    records["proto"] = proto_idx[mb]
    records["distance"] = dist[mb]

    z_mb = z[mb]
    update_sink = _solve(z_mb, bank, cfg, "mini-batch update")
    skipped = update_prototypes(update_sink, z_mb, bank)

    stats = dict(
        superbatch=len(ids),
        trimmed=int(len(trimmed)),
        distant=int(len(distant)),
        pool=int(len(pool)),
        fps=int(len(mb) - len(distant)),
        minibatch=int(len(mb)),
        pool_sinkhorn_iterations=pool_sink.iterations,
        pool_sinkhorn_residual=float(pool_sink.residual),
        update_sinkhorn_iterations=update_sink.iterations,
        update_sinkhorn_residual=float(update_sink.residual),
        ema_skipped=skipped,
    )
    return records, stats


def run_curation(
    corpus: Corpus,
    cfg: EngineConfig,
    head=None,
    on_minibatch=None,
) -> tuple[CuratedSelection, PrototypeBank]:
    """Single curation epoch over a corpus.

    The seeded shuffle fixes the stream order; the first warmup_samples
    rows seed the prototypes by k-means and are not offered for curation.
    The rest is consumed in super-batch chunks, each contributing one
    curated mini-batch, until the stream or target_subset_size runs out.

    Both modes embed the warm-up rows, then each super-batch as it arrives,
    so working memory grows with superbatch_size, not n.  Without ``head``
    (frozen mode) the raw halves are normalised; with one (joint mode: any
    object with a ``unified(img, txt, space)`` method) they go through it,
    so the space evolves with the head.  ``on_minibatch`` gets the emitted
    corpus rows after each iteration so a trainer can take a step.  The
    corpus must be one ``validate_corpus`` accepts, as ``read_corpus`` returns.
    """
    if corpus.n <= cfg.warmup_samples:
        raise InsufficientWarmupError(
            f"corpus has {corpus.n} samples but warmup_samples={cfg.warmup_samples}; "
            "curation needs more samples than the warm-up"
        )

    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(corpus.n)
    warm = perm[: cfg.warmup_samples]
    stream = perm[cfg.warmup_samples :]

    unify = unify_batch if head is None else head.unified

    def embed(rows: np.ndarray) -> np.ndarray:
        return unify(corpus.img[rows], corpus.txt[rows], cfg.curation_space)

    bank = init_kmeans(
        embed(warm),
        cfg.K,
        max_iters=cfg.kmeans_max_iters,
        seed=cfg.seed,
        ema_alpha=cfg.ema_alpha,
    )

    chunks = []
    all_stats = []
    emitted = 0
    for iteration, start in enumerate(range(0, len(stream), cfg.superbatch_size), start=1):
        rows = stream[start : start + cfg.superbatch_size]
        try:
            records, stats = curate_superbatch(embed(rows), corpus.ids[rows], bank, cfg)
        except NumericalFailureError as exc:
            raise NumericalFailureError(f"curation iteration {iteration}: {exc}") from exc

        if cfg.target_subset_size is not None:
            records = records[: cfg.target_subset_size - emitted]
        records["row"] = rows[records["row"]]
        records["iteration"] = iteration
        stats.update(iteration=iteration, emitted=len(records))
        chunks.append(records)
        all_stats.append(stats)
        emitted += len(records)

        if on_minibatch is not None:
            on_minibatch(records["row"])

        if emitted == cfg.target_subset_size:
            break

    return CuratedSelection(np.concatenate(chunks), all_stats), bank
