"""Density and distribution analysis of a corpus and a curated subset.

Implements the descriptive toolkit used to characterize what curation
selects: exact kNN mean-distance density profiles, low-density-quartile
membership, ECDFs, a 2-D PCA projection, long-tail label histograms, and
Welch's t-test to report significance.  p-values come from a hand-rolled
regularized incomplete beta so the runtime has no statistics dependency.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .config import EngineConfig
from .embedding import (
    SCAN_GROUP, exact_pairs, float32_cut, float32_scan, scan_cols, unify_batch, unit_shift,
)
from .errors import DegenerateVectorError, UsageError
from .io import Corpus, commit_outputs, table_csv

# The columns and cell formats of the ECDF and label tables ``run_analysis`` returns.
ECDF_FORMATS = {"value": "%.9g", "cum_frac": "%.9g"}
LABEL_FORMATS = {"class": "class_%d", "count": "%d", "frac": "%.9g"}
SUBSET_LABEL_FORMATS = {
    "class": "class_%d", "count_full": "%d", "frac_full": "%.9g",
    "count_subset": "%d", "frac_subset": "%.9g", "delta": "%.9g",
}

@dataclass
class TestResult:
    statistic: float
    df: float
    p_value: float
    mean_a: float
    mean_b: float
    n_a: int
    n_b: int

    def to_dict(self) -> dict:
        doc = asdict(self)
        # JSON has no infinity: an infinite statistic is null, as an undefined
        # metric is in metrics.json; its sign is that of mean_a - mean_b.
        if not math.isfinite(self.statistic):
            doc["statistic"] = None
        return doc


# Rows per block while the kNN scan writes its scaled right operand.
_FILL_ROWS = 256


def _k_smallest(values: np.ndarray, row: np.ndarray, rows: int, k: int) -> np.ndarray:
    """Each of ``rows`` rows' k smallest ``values``, unsorted; ``row`` gives the
    row of each value, and every row has at least k."""
    # In the smallest integer type that holds them, row numbers sort by radix.
    order = np.argsort(row.astype(np.min_scalar_type(rows)), kind="stable")
    row, values = row[order], values[order]
    counts = np.bincount(row, minlength=rows)
    padded = np.full((rows, counts.max()), np.inf, dtype=values.dtype)
    padded[row, np.arange(len(row)) - (np.cumsum(counts) - counts)[row]] = values
    padded.partition(k - 1, axis=1)
    return padded[:, :k]


def knn_mean_distance(points: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """Mean Euclidean distance of each point to its k nearest other points, and
    the k used: k is clamped to n-1.  Large values mark low-density (long-tail)
    regions.

    Exact, and the same bits for any SCAN_BLOCK and SCAN_COLS: each value is
    the mean of the square roots of the row's k smallest float64
    ||p_i - p_j||^2, computed by elementwise difference and summed in
    ascending order.  Only the pairs that can be among them are computed:
    ``float32_scan`` of [q, |q|^2, 1] . [-2q, 1, |q|^2], q = p 2^-s with s
    from ``unit_shift``, approximates every squared distance (times 4^-s),
    and with t_i the k-th smallest off-diagonal entry of row i, each of the k
    nearest has an entry <= t_i + margin.  Column j falls in group j % groups,
    in layer j // groups.  The right operand holds each tile's groups whole,
    layer after layer, and a tile is formed as part left^T: each layer of its
    groups is a slab of consecutive tile rows, so the group minima of every
    left row are one elementwise pass over the slabs.  A row's k-th smallest
    group minimum is an entry of k other points, so it bounds t_i from above,
    over any subset of the groups.

    The running cut.  Per row, the tiles keep the k smallest group minima seen
    so far; U, ``float32_cut`` of the k-th of them plus the margin (+inf until
    k groups have been seen), only falls as tiles pass and ends at the final
    cut, that of all groups.  So the entries under U at their tile hold every
    entry under the final cut, and filtering them by the final cut leaves the
    pairs that a whole-row scan keeps.
    """
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    if n < 2:
        raise UsageError("kNN profile needs at least 2 points")
    if k < 1:
        raise UsageError("k must be >= 1")
    k_eff = min(k, n - 1)

    # With at least 32 groups of SCAN_GROUP columns, the < SCAN_GROUP padding
    # columns sit in the last layer, so every group minimum is a real entry
    # of another point.
    per = SCAN_GROUP if n >= SCAN_GROUP * max(k_eff + 1, 32) else 1
    groups = -(-n // per)
    tile = scan_cols(groups * per) // per  # groups per tile

    def position(j):
        """Where column j sits: each tile holds whole groups, layer by layer."""
        group, layer = j % groups, j // groups
        first = group - group % tile
        return first * per + layer * np.minimum(tile, groups - first) + group - first

    shift = unit_shift(points)
    sq = np.empty(n)
    # [-2q, 1, |q|^2] at each column's position, written straight into float32
    # a block of scaled rows at a time: each value is rounded once from its
    # float64 value, and each |q|^2 is the einsum of its own row.  A padding
    # row [0, ..., 0, max] gives entries of exactly float32's largest value
    # (1 * max plus zeros), which no finite cut reaches.
    right = np.zeros((groups * per, d + 2), dtype=np.float32)
    right[:, -1] = np.finfo(np.float32).max
    for start in range(0, n, _FILL_ROWS):
        j = slice(start, start + _FILL_ROWS)
        q = np.ldexp(points[j], -shift)
        np.einsum("ij,ij->i", q, q, out=sq[j])
        at = position(np.arange(start, start + len(q)))
        right[at, :d], right[at, d], right[at, d + 1] = -2.0 * q, 1.0, sq[j]
    # sum_k |x_ik y_jk| <= (|q_i| + |q_j|)^2 for the augmented rows, whose |q|^2
    # column is within a relative d 2^-53 < 2^-24 of its exact value.
    margin, blocks = float32_scan(n, right, 4.0 * sq.max())
    values = np.empty(n, dtype=np.float64)
    for start, left, tiles in blocks:
        rows = len(left)
        np.ldexp(points[start : start + rows], -shift, out=left[:, :d])
        left[:, d], left[:, d + 1] = sq[start : start + rows], 1.0
        own_at = position(np.arange(start, start + rows))
        smallest = np.full((rows, k_eff), np.inf, dtype=np.float32)
        kept = []
        for col, part, out in tiles:
            approx = np.matmul(part, left.T, out=out.reshape(len(part), rows))
            inside = np.flatnonzero((own_at >= col) & (own_at < col + len(approx)))
            approx[own_at[inside] - col, inside] = np.inf  # exclude self
            layers = approx.reshape(per, -1, rows)
            low = layers.min(axis=0) if per > 1 else approx
            smallest = np.concatenate([smallest, low.T], axis=1)
            smallest.partition(k_eff - 1, axis=1)
            smallest = smallest[:, :k_eff]
            cut = float32_cut(smallest[:, -1], margin)
            group, row = np.divmod(np.flatnonzero(low <= cut), rows)
            near = layers[:, group, row]
            layer, hit = np.divmod(np.flatnonzero(near <= cut[row]), len(row))
            kept.append((row[hit], col // per + group[hit] + groups * layer, near[layer, hit]))
        row, other, entry = (np.concatenate(arrays) for arrays in zip(*kept))
        final = entry <= cut[row]  # the last tile's cut is that of all groups
        row, other = row[final], other[final]
        exact = exact_pairs(points, points, start + row, other, distance=True)
        nearest = np.sort(_k_smallest(exact, row, rows, k_eff), axis=1)
        values[start : start + rows] = np.sqrt(nearest).mean(axis=1)
    return values, k_eff


def nearest_rank_quantile(values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile: the ceil(q*n)-th smallest value (q in (0, 1])."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        raise UsageError("quantile of an empty list")
    if not (0.0 < q <= 1.0):
        raise UsageError("quantile level must be in (0, 1]")
    rank = int(math.ceil(q * len(values)))
    return float(np.sort(values)[rank - 1])


def low_density_proportion(subset: np.ndarray, full: np.ndarray, quantile: float) -> float:
    """Fraction of the subset's kNN values inside the full set's lowest-density band.

    The band holds the ``quantile`` fraction of the full set with the
    LARGEST kNN distances; its threshold is the nearest-rank
    (1-quantile)-quantile of the full values.
    """
    if len(subset) == 0:
        raise UsageError("low_density_proportion needs a nonempty subset")
    threshold = nearest_rank_quantile(full, 1.0 - quantile)
    return float(np.mean(np.asarray(subset) >= threshold))


def _betainc_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta (Lentz's method)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):  # the two half-steps of term m
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-12:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def betainc_regularized(a: float, b: float, x: float) -> float:
    """I_x(a, b) to relative tolerance ~1e-10 via the continued fraction."""
    if not (a > 0.0 and b > 0.0):
        raise UsageError("beta parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # The continued fraction converges fast for x below the distribution bulk;
    # use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) otherwise.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betainc_cf(a, b, x) / a
    return 1.0 - front * _betainc_cf(b, a, 1.0 - x) / b


def t_sf_two_sided(t: float, df: float) -> float:
    """Two-sided p-value for a Student-t statistic."""
    if df <= 0.0:
        raise UsageError("degrees of freedom must be positive")
    if not math.isfinite(t):
        return 0.0
    x = df / (df + t * t)
    return betainc_regularized(df / 2.0, 0.5, x)


def welch_t(a: np.ndarray, b: np.ndarray) -> TestResult:
    """Two-sided Welch's t-test (unequal variances and sizes)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n_a, n_b = len(a), len(b)
    if n_a < 2 or n_b < 2:
        raise UsageError("Welch's t-test needs at least 2 samples per group")
    m_a, m_b = float(a.mean()), float(b.mean())
    va = float(a.var(ddof=1))
    vb = float(b.var(ddof=1))
    sa, sb = va / n_a, vb / n_b

    if sa + sb == 0.0:
        # Both groups constant: no sampling noise at all.
        df = float(n_a + n_b - 2)
        if m_a == m_b:
            return TestResult(0.0, df, 1.0, m_a, m_b, n_a, n_b)
        stat = math.copysign(math.inf, m_a - m_b)
        return TestResult(stat, df, 0.0, m_a, m_b, n_a, n_b)

    stat = (m_a - m_b) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa**2 / (n_a - 1) + sb**2 / (n_b - 1))
    return TestResult(stat, df, t_sf_two_sided(stat, df), m_a, m_b, n_a, n_b)


def pca2(points: np.ndarray) -> tuple[np.ndarray, tuple[float, float]]:
    """Top-2 PCA projection from the exact eigendecomposition of the covariance.

    Returns (n x 2 projections, explained-variance fractions).  Sign
    convention: each component's largest-magnitude loading is positive.
    ``points`` is left as it is: the rows are centred in a copy.
    """
    points = np.asarray(points, dtype=np.float64)
    return _pca2_centered(points - points.mean(axis=0))


def _pca2_centered(centered: np.ndarray) -> tuple[np.ndarray, tuple[float, float]]:
    """``pca2`` of rows already centred as ``points - points.mean(axis=0)``."""
    n, d = centered.shape
    if n < 3:
        raise UsageError("PCA projection needs at least 3 points")
    if d < 2:
        raise UsageError("PCA projection needs dimension >= 2")
    cov = (centered.T @ centered) / (n - 1)
    total = float(np.trace(cov))
    if total == 0.0:
        raise DegenerateVectorError("PCA on zero-variance data")

    vals, vecs = np.linalg.eigh(cov)  # ascending
    comps = []
    for v in (vecs[:, -1], vecs[:, -2]):
        peak = int(np.argmax(np.abs(v)))
        comps.append(-v if v[peak] < 0 else v)
    # The two components go on the left: for a skinny ``centered @ C`` OpenBLAS
    # packs all of ``centered`` (10 MB at 20k x 64), for ``C^T centered^T`` a block.
    proj = (np.stack(comps) @ centered.T).T
    return proj, (float(vals[-1]) / total, max(float(vals[-2]), 0.0) / total)


def ecdf(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-continuous ECDF step points with ties collapsed."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        raise UsageError("ECDF of an empty list")
    uniq, counts = np.unique(values, return_counts=True)
    return uniq, np.cumsum(counts) / len(values)


def run_analysis(
    corpus: Corpus, cfg: EngineConfig, rows: np.ndarray | None = None
) -> dict[str, str]:
    """The analyze protocol: the files it writes, as {name: text}.

    ``rows`` are the corpus rows of a selection to compare against the
    corpus; the comparison needs at least two.  The subset's kNN values are
    the full-corpus values at those rows, so both sides live in the same
    density field.
    """
    if rows is not None and len(rows) < 2:
        n = len(rows)
        raise UsageError(
            f"the selection holds {n} sample{'' if n == 1 else 's'}; analyze needs at least 2"
        )
    unified = unify_batch(corpus.img, corpus.txt, cfg.curation_space)
    values, k = knn_mean_distance(unified, cfg.knn_k)
    # The kNN scan is done with the rows: centre them in place, not in a copy.
    unified -= unified.mean(axis=0)
    proj, explained = _pca2_centered(unified)
    knn = {"id": corpus.ids, "knn_mean": values}
    pcs = {"id": corpus.ids, "pc1": proj[:, 0], "pc2": proj[:, 1]}
    files = {
        "knn_profile.csv": table_csv(knn, {"id": "%d", "knn_mean": "%.9g"}),
        "pca2.csv": table_csv(pcs, {"id": "%d", "pc1": "%.9g", "pc2": "%.9g"}),
        "ecdf_full.csv": table_csv(dict(zip(ECDF_FORMATS, ecdf(values))), ECDF_FORMATS),
    }
    tests = {
        "knn_k": k,
        "full_mean_knn": float(values.mean()),
        "full_sd_knn": float(values.std(ddof=1)),
        "pca_explained": [float(explained[0]), float(explained[1])],
    }
    if rows is not None:
        subset = values[rows]
        files["ecdf_subset.csv"] = table_csv(dict(zip(ECDF_FORMATS, ecdf(subset))), ECDF_FORMATS)
        test = welch_t(subset, values)
        tests.update(
            subset_mean_knn=float(subset.mean()),
            subset_sd_knn=float(subset.std(ddof=1)),
            welch_subset_vs_full=test.to_dict(),
            low_density_proportion=low_density_proportion(subset, values, cfg.density_quantile),
            density_quantile=cfg.density_quantile,
        )
    if corpus.labels is not None:
        # Per-class counts and sample fractions of the corpus, and with rows
        # those of the subset beside them and the change in fraction (Fig.-9-style).
        full = corpus.labels.sum(axis=0)
        frac = full / corpus.n
        table = {"class": np.arange(len(full)), "count": full, "frac": frac}
        formats = LABEL_FORMATS
        if rows is not None:
            sub_count = corpus.labels[rows].sum(axis=0)
            sub_frac = sub_count / len(rows)
            table.update(count_full=full, frac_full=frac, count_subset=sub_count,
                         frac_subset=sub_frac, delta=sub_frac - frac)
            formats = SUBSET_LABEL_FORMATS
        files["labels.csv"] = table_csv(table, formats)
    files["tests.json"] = json.dumps(tests, indent=2) + "\n"
    return files


def write_analysis_bundle(out_dir, files: dict[str, str]) -> None:
    """Write ``run_analysis``'s files into ``out_dir``, all or none of them."""
    os.makedirs(out_dir, exist_ok=True)
    commit_outputs([(os.path.join(out_dir, name), text) for name, text in files.items()])
