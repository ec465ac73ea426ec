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
from dataclasses import dataclass

import numpy as np

from .config import EngineConfig
from .embedding import unify_batch
from .errors import DegenerateVectorError, UsageError
from .io import Corpus, commit_outputs, rows_for_ids

_KNN_CHUNK = 128


@dataclass
class DensityProfile:
    ids: np.ndarray
    values: np.ndarray
    k: int

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def sd(self) -> float:
        return float(self.values.std(ddof=1)) if len(self.values) > 1 else 0.0

    def restrict(self, ids: np.ndarray) -> "DensityProfile":
        """Sub-profile for the given ids (must all be present), keeping their order."""
        rows = rows_for_ids(self.ids, ids)
        return DensityProfile(ids=self.ids[rows], values=self.values[rows], k=self.k)


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
        stat = self.statistic if math.isfinite(self.statistic) else repr(self.statistic)
        return {
            "statistic": stat,
            "df": self.df,
            "p_value": self.p_value,
            "mean_a": self.mean_a,
            "mean_b": self.mean_b,
            "n_a": self.n_a,
            "n_b": self.n_b,
        }


def knn_mean_distance(points: np.ndarray, k: int, ids: np.ndarray | None = None) -> DensityProfile:
    """Mean Euclidean distance of each point to its k nearest other points.

    Exact scan in row chunks, so working memory grows as chunk x n; k is
    clamped to n-1.  Large values mark low-density (long-tail) regions.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if n < 2:
        raise UsageError("kNN profile needs at least 2 points")
    if k < 1:
        raise UsageError("k must be >= 1")
    k_eff = min(k, n - 1)
    if ids is None:
        ids = np.arange(n, dtype=np.uint64)

    sq_norms = np.einsum("ij,ij->i", points, points)
    # 2·(P_i P^T) == P_i (2P)^T bit for bit: doubling is exact unless a
    # product is subnormal.
    twice = 2.0 * points
    values = np.empty(n, dtype=np.float64)
    gram_buf = np.empty((min(_KNN_CHUNK, n), n))
    dist_buf = np.empty_like(gram_buf)
    for start in range(0, n, _KNN_CHUNK):
        stop = min(start + _KNN_CHUNK, n)
        gram = np.matmul(points[start:stop], twice.T, out=gram_buf[: stop - start])
        block = np.add(sq_norms[start:stop, None], sq_norms[None, :], out=dist_buf[: stop - start])
        np.subtract(block, gram, out=block)
        np.maximum(block, 0.0, out=block)
        rows = np.arange(start, stop)
        block[rows - start, rows] = np.inf  # exclude self
        block.partition(k_eff - 1, axis=1)
        values[start:stop] = np.sqrt(block[:, :k_eff]).mean(axis=1)
    return DensityProfile(ids=np.asarray(ids, dtype=np.uint64), values=values, k=k_eff)


def nearest_rank_quantile(values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile: the ceil(q*n)-th smallest value (q in (0, 1])."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        raise UsageError("quantile of an empty list")
    if not (0.0 < q <= 1.0):
        raise UsageError("quantile level must be in (0, 1]")
    rank = int(math.ceil(q * len(values)))
    return float(np.sort(values)[rank - 1])


def low_density_proportion(
    subset_profile: DensityProfile, full_profile: DensityProfile, quantile: float = 0.25
) -> float:
    """Fraction of the subset inside the full set's lowest-density band.

    The band holds the ``quantile`` fraction of the full set with the
    LARGEST kNN distances; its threshold is the nearest-rank
    (1-quantile)-quantile of the full profile.
    """
    if len(subset_profile.values) == 0:
        raise UsageError("low_density_proportion needs a nonempty subset")
    threshold = nearest_rank_quantile(full_profile.values, 1.0 - quantile)
    return float(np.mean(subset_profile.values >= threshold))


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
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
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
    """
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    if n < 3:
        raise UsageError("PCA projection needs at least 3 points")
    if d < 2:
        raise UsageError("PCA projection needs dimension >= 2")
    centered = points - points.mean(axis=0)
    cov = (centered.T @ centered) / (n - 1)
    total = float(np.trace(cov))
    if total == 0.0:
        raise DegenerateVectorError("PCA on zero-variance data")

    vals, vecs = np.linalg.eigh(cov)  # ascending
    comps = []
    for v in (vecs[:, -1], vecs[:, -2]):
        peak = int(np.argmax(np.abs(v)))
        comps.append(-v if v[peak] < 0 else v)
    proj = centered @ np.stack(comps, axis=1)
    return proj, (float(vals[-1]) / total, max(float(vals[-2]), 0.0) / total)


def ecdf(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-continuous ECDF step points with ties collapsed."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        raise UsageError("ECDF of an empty list")
    uniq, counts = np.unique(values, return_counts=True)
    return uniq, np.cumsum(counts) / len(values)


def label_histogram(labels: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Per-class counts and sample fractions of a (n, C) boolean label matrix."""
    if labels is None:
        raise UsageError("corpus carries no labels")
    labels = np.asarray(labels).astype(bool)
    if labels.ndim != 2 or len(labels) == 0:
        raise UsageError("labels must be a nonempty (n, C) matrix")
    counts = labels.sum(axis=0)
    return counts, counts / len(labels)


def label_comparison(
    full_labels: np.ndarray | None, subset_labels: np.ndarray | None
) -> list[dict]:
    """Full-vs-subset class frequency table with deltas (Fig.-9-style data)."""
    fc, ff = label_histogram(full_labels)
    sc, sf = label_histogram(subset_labels)
    if len(fc) != len(sc):
        raise UsageError("full and subset label matrices disagree on class count")
    return [
        {
            "class": f"class_{i}",
            "count_full": int(fc[i]),
            "frac_full": float(ff[i]),
            "count_subset": int(sc[i]),
            "frac_subset": float(sf[i]),
            "delta": float(sf[i] - ff[i]),
        }
        for i in range(len(fc))
    ]


def run_analysis(corpus: Corpus, cfg: EngineConfig, selection_ids: np.ndarray | None = None) -> dict:
    """Compute the full analysis bundle in memory.

    Returns a dict of artifacts; write_analysis_bundle persists it.  The
    subset profile is the full-corpus profile restricted to the selection,
    so both sides live in the same density field.
    """
    unified = unify_batch(corpus.img, corpus.txt, cfg.curation_space)
    full_profile = knn_mean_distance(unified, cfg.knn_k, ids=corpus.ids)
    proj, explained = pca2(unified)

    bundle: dict = {
        "full_profile": full_profile,
        "pca_projection": proj,
        "pca_explained": explained,
        "ecdf_full": ecdf(full_profile.values),
        "tests": {
            "knn_k": full_profile.k,
            "full_mean_knn": full_profile.mean,
            "full_sd_knn": full_profile.sd,
            "pca_explained": [float(explained[0]), float(explained[1])],
        },
    }
    if corpus.labels is not None:
        counts, fracs = label_histogram(corpus.labels)
        bundle["label_counts"] = counts
        bundle["label_fracs"] = fracs

    if selection_ids is not None:
        subset_profile = full_profile.restrict(selection_ids)
        bundle["subset_profile"] = subset_profile
        bundle["ecdf_subset"] = ecdf(subset_profile.values)
        test = welch_t(subset_profile.values, full_profile.values)
        prop = low_density_proportion(subset_profile, full_profile, cfg.density_quantile)
        bundle["tests"].update(
            subset_mean_knn=subset_profile.mean,
            subset_sd_knn=subset_profile.sd,
            welch_subset_vs_full=test.to_dict(),
            low_density_proportion=prop,
            density_quantile=cfg.density_quantile,
        )
        if corpus.labels is not None:
            rows = rows_for_ids(corpus.ids, selection_ids)
            bundle["label_table"] = label_comparison(corpus.labels, corpus.labels[rows])
    return bundle


def _csv(header: str, lines) -> str:
    return header + "\n" + "".join(line + "\n" for line in lines)


def write_analysis_bundle(out_dir, bundle: dict) -> None:
    """Persist the bundle as the documented CSV/JSON files, all or none of them."""
    profile: DensityProfile = bundle["full_profile"]
    ids = [int(i) for i in profile.ids]
    files = {
        "knn_profile.csv": _csv(
            "id,knn_mean", (f"{i},{value:.9g}" for i, value in zip(ids, profile.values))
        ),
        "pca2.csv": _csv(
            "id,pc1,pc2",
            (f"{i},{row[0]:.9g},{row[1]:.9g}" for i, row in zip(ids, bundle["pca_projection"])),
        ),
        "tests.json": json.dumps(bundle["tests"], indent=2) + "\n",
    }
    for name in ("ecdf_full", "ecdf_subset"):
        if name in bundle:
            steps = zip(*bundle[name])
            files[f"{name}.csv"] = _csv(
                "value,cum_frac", (f"{value:.9g},{frac:.9g}" for value, frac in steps)
            )
    if "label_table" in bundle:
        files["labels.csv"] = _csv(
            "class,count_full,frac_full,count_subset,frac_subset,delta",
            (
                f"{row['class']},{row['count_full']},{row['frac_full']:.9g},"
                f"{row['count_subset']},{row['frac_subset']:.9g},{row['delta']:.9g}"
                for row in bundle["label_table"]
            ),
        )
    elif "label_counts" in bundle:
        counts = zip(bundle["label_counts"], bundle["label_fracs"])
        files["labels.csv"] = _csv(
            "class,count,frac",
            (f"class_{i},{int(count)},{frac:.9g}" for i, (count, frac) in enumerate(counts)),
        )
    os.makedirs(out_dir, exist_ok=True)
    commit_outputs([(os.path.join(out_dir, name), text) for name, text in files.items()])
