"""Density profiles, statistics, PCA, ECDF, label tables, analysis bundle."""

import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

import oracles
from oracles import paired_t, run_summary
from protocurate import analysis, embedding
from protocurate.analysis import (
    betainc_regularized,
    ecdf,
    knn_mean_distance,
    low_density_proportion,
    nearest_rank_quantile,
    pca2,
    run_analysis,
    t_sf_two_sided,
    welch_t,
    write_analysis_bundle,
)
from protocurate.config import EngineConfig
from protocurate.embedding import (
    SCAN_BLOCK, SCAN_COLS, SCAN_GROUP, normalize_rows, unify_batch,
)
from protocurate.errors import DegenerateVectorError, UsageError
from protocurate.io import Corpus
from protocurate.synth import generate_corpus


def naive_knn_mean(points, k):
    n = len(points)
    k_eff = min(k, n - 1)
    out = []
    for i in range(n):
        d = np.sort(np.linalg.norm(np.delete(points, i, axis=0) - points[i], axis=1))
        out.append(float(np.mean(d[:k_eff])))
    return np.array(out)


def lattice_points(seed, n, copies=0):
    """Points whose Gram matrix has the same bits under any BLAS summation order.

    Two coordinates of at most 26 significant bits each, so every product is
    exact and each entry of P P^T is the correctly rounded sum of two exact
    products, whatever kernel, blocking or order computes it.  The first
    coordinate is of order 1 and the second at most 2^-25, so the norms and
    dot products do round.  The last ``copies`` rows repeat earlier ones:
    half exactly, half with the small coordinate moved by at most 2^-27,
    where rounding can drive the expanded squared distance below zero.
    """
    rng = np.random.default_rng(seed)
    m = rng.integers(-(2**25), 2**25, size=(n, 2)) // np.array([1, 2])
    source = rng.integers(0, n - copies, size=copies)
    m[n - copies :] = m[source]
    m[n - copies + copies // 2 :, 1] += rng.integers(-(2**22), 2**22, size=copies - copies // 2)
    return rng.permutation(m * np.array([2.0**-25, 2.0**-49]))


class TestKnnMeanDistance:
    def test_duplicated_points_have_zero_density_distance(self):
        points = np.repeat(np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]]), 2, axis=0)
        values, _ = knn_mean_distance(points, k=1)
        np.testing.assert_array_equal(values, np.zeros(6))

    def test_collinear_hand_values(self):
        points = np.array([[0.0], [1.0], [2.0]])
        values, _ = knn_mean_distance(points, k=2)
        np.testing.assert_allclose(values, [1.5, 1.0, 1.5], atol=1e-12)

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = int(rng.integers(5, 40))
            d = int(rng.integers(1, 6))
            k = int(rng.integers(1, 8))
            points = rng.standard_normal((n, d))
            values, _ = knn_mean_distance(points, k)
            np.testing.assert_allclose(values, naive_knn_mean(points, k), atol=1e-10)

    def test_chunked_path_matches_oracle(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((1500, 3))
        values, _ = knn_mean_distance(points, k=5)
        np.testing.assert_allclose(values, naive_knn_mean(points, 5), atol=1e-8)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((30, 4))
        base = knn_mean_distance(points, 3)[0]
        scaled = knn_mean_distance(points * 7.0, 3)[0]
        np.testing.assert_allclose(scaled, base * 7.0, rtol=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((25, 3))
        perm = rng.permutation(25)
        base = knn_mean_distance(points, 4)[0]
        shuffled = knn_mean_distance(points[perm], 4)[0]
        np.testing.assert_allclose(shuffled, base[perm], atol=1e-12)

    def test_k_clamped_to_n_minus_1(self):
        points = np.random.default_rng(4).standard_normal((5, 2))
        values, k = knn_mean_distance(points, k=10)
        assert k == 4
        np.testing.assert_allclose(values, naive_knn_mean(points, 4), atol=1e-12)

    def test_too_few_points(self):
        with pytest.raises(UsageError):
            knn_mean_distance(np.zeros((1, 2)), 1)


class TestKnnBitIdentity:
    """The blocked scan returns the direct-difference oracle's values bit for
    bit, whatever the block size, and they lie within float64 roundoff of a
    long-double brute force."""

    @pytest.mark.parametrize(
        "n",
        [37, SCAN_BLOCK, 2 * SCAN_BLOCK + 45],
        ids=["below-chunk", "one-chunk", "not-a-multiple"],
    )
    def test_matches_one_shot_oracle(self, n):
        points = lattice_points(n, n)
        for k in (1, 5):
            want = oracles.knn_mean_distance_direct(points, k)
            assert np.array_equal(knn_mean_distance(points, k)[0], want)

    def test_duplicated_points_clip_at_zero(self):
        # The Gram expansion of these points goes below zero; direct differences cannot.
        points = lattice_points(11, 2 * SCAN_BLOCK + 45, copies=120)
        sq = np.einsum("ij,ij->i", points, points)
        expanded = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
        np.fill_diagonal(expanded, 0.0)
        assert (expanded < 0).any() and (expanded == 0).any()
        for k in (1, 3):
            want = oracles.knn_mean_distance_direct(points, k)
            assert np.array_equal(knn_mean_distance(points, k)[0], want)
        assert (knn_mean_distance(points, 1)[0] == 0).any()

    def test_k_above_n_minus_1_is_clamped(self):
        points = lattice_points(12, 6, copies=2)
        want = oracles.knn_mean_distance_direct(points, 5)
        assert np.array_equal(knn_mean_distance(points, 50)[0], want)

    @pytest.mark.parametrize("block", [64, SCAN_BLOCK, None], ids=["64", "scan-block", "n"])
    def test_block_size_invariance(self, block, monkeypatch):
        # Every SCAN_BLOCK against tiles of one group of columns, of three
        # groups, of the default width and of all n.  557 rows scan one column
        # per group (n < 32 max(k + 1, 32)), where 32 and 96 do not divide n,
        # a 64-row block's own columns straddle tiles, and k = n - 1 keeps the
        # running cut at +inf until the last tile.  1100 rows form 35 groups
        # of 32 with 20 padding columns, and three groups do not divide 35.
        for n, ks in ((4 * SCAN_BLOCK + 45, (1, 20, 4 * SCAN_BLOCK + 44)), (1100, (1, 20))):
            monkeypatch.setattr(embedding, "SCAN_BLOCK", block or n)
            unit = normalize_rows(np.random.default_rng(13).standard_normal((n, 16)))
            for points in (unit, lattice_points(14, n, copies=120)):
                for k in ks:
                    want = oracles.knn_mean_distance_direct(points, k)
                    for cols in (SCAN_GROUP, 3 * SCAN_GROUP, SCAN_COLS, n):
                        monkeypatch.setattr(embedding, "SCAN_COLS", cols)
                        assert np.array_equal(knn_mean_distance(points, k)[0], want)

    @pytest.mark.parametrize(
        "scale", [2.0**40, 2.0**-40, 2.0**200, 2.0**-200], ids=["2^40", "2^-40", "2^200", "2^-200"]
    )
    def test_off_scale_rows_match_oracle(self, scale):
        # Rows whose largest entry lies far outside [1/2, 1) are scaled a
        # block at a time; the scaling is exact, so the bits are the oracle's.
        # At 2^200 a float32 cast before the scaling would overflow.
        for n in (300, 1100):
            lattice = lattice_points(15, n, copies=60)
            normal = np.random.default_rng(16).standard_normal((n, 8))
            for points in (lattice * scale, normal * scale):
                for k in (1, 20):
                    want = oracles.knn_mean_distance_direct(points, k)
                    assert np.array_equal(knn_mean_distance(points, k)[0], want)

    def test_block_row_norms_are_all_rows_norms(self):
        # The scan takes |q|^2 a block of rows at a time; each is the einsum
        # of its own row, the same bits as one einsum over all rows.
        rng = np.random.default_rng(17)
        for n, d in ((700, 1), (700, 16), (1000, 33), (257, 128)):
            q = rng.standard_normal((n, d)) * 2.0 ** rng.integers(-20, 20, (n, 1))
            whole = np.einsum("ij,ij->i", q, q)
            blocks = [np.einsum("ij,ij->i", q[i : i + 256], q[i : i + 256]) for i in range(0, n, 256)]
            assert whole.tobytes() == np.concatenate(blocks).tobytes()

    @pytest.mark.parametrize("d, k", [(64, 20), (3, 5), (2, 1)])
    def test_within_float64_roundoff_of_long_double(self, d, k):
        # Squared distances pass through d + 1 roundings, the square root one
        # and the mean k + 1: (d + k + 4) 2^-53 bounds the relative error.
        rng = np.random.default_rng(d)
        points = rng.standard_normal((300, d)) * 10.0 ** rng.integers(-3, 4, size=(300, 1))
        got, _ = knn_mean_distance(points, k)
        want = oracles.knn_mean_distance_longdouble(points, k)
        rel = np.abs(got - want) / want
        assert float(rel.max()) <= (d + k + 4) * 2.0**-53

    def test_near_tie_goes_to_the_float64_refine(self, monkeypatch):
        # From the origin, (1, 0) and (0, 1 + 2^-40) are closer together than
        # float32 resolves, so the filter keeps both and the refine picks 1.0.
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0 + 2.0**-40], [5.0, 5.0], [-6.0, 4.0]])
        refined, exact_pairs = [], analysis.exact_pairs

        def spy(a, b, i, j, distance):
            refined.append(i.copy())
            return exact_pairs(a, b, i, j, distance)

        monkeypatch.setattr(analysis, "exact_pairs", spy)
        values, _ = knn_mean_distance(points, 1)
        assert np.count_nonzero(np.concatenate(refined) == 0) == 2
        assert values[0] == 1.0
        assert np.array_equal(values, oracles.knn_mean_distance_direct(points, 1))


class TestQuantileAndBand:
    def test_nearest_rank_examples(self):
        values = np.arange(1.0, 11.0)  # 1..10
        assert nearest_rank_quantile(values, 0.25) == 3.0  # ceil(2.5) = 3rd
        assert nearest_rank_quantile(values, 0.75) == 8.0
        assert nearest_rank_quantile(values, 1.0) == 10.0
        assert nearest_rank_quantile(values, 0.05) == 1.0

    def test_unsorted_input(self):
        assert nearest_rank_quantile(np.array([9.0, 1.0, 5.0]), 0.5) == 5.0

    def test_bounds(self):
        with pytest.raises(UsageError):
            nearest_rank_quantile(np.array([1.0]), 0.0)
        with pytest.raises(UsageError):
            nearest_rank_quantile(np.array([]), 0.5)

    def test_self_proportion_with_distinct_values(self):
        values = np.arange(100.0)
        # threshold is the 75th smallest; ranks 75..100 sit at or above it
        assert low_density_proportion(values, values, 0.25) == pytest.approx(0.26)

    def test_top_band_subset_is_all_low_density(self):
        values = np.arange(100.0)
        assert low_density_proportion(values[-25:], values, 0.25) == 1.0

    def test_bottom_subset_is_none(self):
        values = np.arange(100.0)
        assert low_density_proportion(values[:50], values, 0.25) == 0.0


class TestBetaInc:
    def test_matches_scipy_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a = float(rng.uniform(0.1, 50.0))
            b = float(rng.uniform(0.1, 50.0))
            x = float(rng.uniform(0.0, 1.0))
            got = betainc_regularized(a, b, x)
            want = float(scipy.special.betainc(a, b, x))
            assert got == pytest.approx(want, abs=1e-10, rel=1e-9)

    def test_edges(self):
        assert betainc_regularized(2.0, 3.0, 0.0) == 0.0
        assert betainc_regularized(2.0, 3.0, 1.0) == 1.0

    def test_bad_parameters(self):
        with pytest.raises(UsageError):
            betainc_regularized(0.0, 1.0, 0.5)


class TestStudentTails:
    def test_matches_scipy_sf(self):
        for t in (0.0, 0.5, 1.7, 3.2, 8.0, -2.4):
            for df in (1.0, 2.0, 5.5, 30.0, 199.0):
                got = t_sf_two_sided(t, df)
                want = 2.0 * float(scipy.stats.t.sf(abs(t), df))
                assert got == pytest.approx(want, abs=1e-12, rel=1e-9)

    def test_matches_quadrature(self):
        # independent check: integrate the t density tail directly
        for t, df in ((1.5, 4.0), (2.5, 12.0)):
            pdf = lambda u: scipy.stats.t.pdf(u, df)
            tail, _ = scipy.integrate.quad(pdf, t, np.inf)
            assert t_sf_two_sided(t, df) == pytest.approx(2.0 * tail, abs=1e-8)

    def test_infinite_statistic(self):
        assert t_sf_two_sided(math.inf, 5.0) == 0.0


class TestWelch:
    def test_identical_samples_give_p_one(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        res = welch_t(a, a.copy())
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_separated_groups_tiny_p(self):
        rng = np.random.default_rng(9)
        a = rng.normal(0.0, 1.0, 200)
        b = rng.normal(3.0, 1.0, 150)
        res = welch_t(a, b)
        assert res.p_value < 1e-6
        assert res.statistic < 0

    def test_matches_scipy(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = rng.normal(0.0, rng.uniform(0.5, 2.0), int(rng.integers(3, 40)))
            b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), int(rng.integers(3, 40)))
            res = welch_t(a, b)
            ref = scipy.stats.ttest_ind(a, b, equal_var=False)
            assert res.statistic == pytest.approx(ref.statistic, rel=1e-9)
            assert res.p_value == pytest.approx(ref.pvalue, rel=1e-8, abs=1e-12)

    def test_both_constant_equal(self):
        res = welch_t(np.full(3, 2.0), np.full(5, 2.0))
        assert (res.statistic, res.p_value) == (0.0, 1.0)

    def test_both_constant_unequal(self):
        res = welch_t(np.full(3, 2.0), np.full(5, 1.0))
        assert math.isinf(res.statistic) and res.statistic > 0
        assert res.p_value == 0.0
        # JSON has no infinity: the statistic is null, its sign that of mean_a - mean_b.
        doc = res.to_dict()
        assert doc["statistic"] is None and doc["mean_a"] > doc["mean_b"]

    def test_too_small(self):
        with pytest.raises(UsageError):
            welch_t(np.array([1.0]), np.array([1.0, 2.0]))


class TestPairedT:
    def test_equal_pairs_give_p_one(self):
        a = np.array([1.0, 5.0, 3.0])
        res = paired_t(a, a.copy())
        assert (res.statistic, res.p_value) == (0.0, 1.0)

    def test_constant_nonzero_difference(self):
        a = np.array([1.0, 2.0, 3.0])
        res = paired_t(a + 0.5, a)
        assert math.isinf(res.statistic) and res.statistic > 0
        assert res.p_value == 0.0

    def test_matches_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(3, 40))
            a = rng.normal(0, 1, n)
            b = a + rng.normal(0.2, 0.5, n)
            res = paired_t(a, b)
            ref = scipy.stats.ttest_rel(a, b)
            assert res.statistic == pytest.approx(ref.statistic, rel=1e-9)
            assert res.p_value == pytest.approx(ref.pvalue, rel=1e-8, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            paired_t(np.ones(3), np.ones(4))


class TestRunSummary:
    def test_binary_pair_halfwidth(self):
        mean, half = run_summary(np.array([0.0, 1.0]))
        assert mean == 0.5
        assert half == pytest.approx(0.98, abs=1e-15)

    def test_translation_invariant_halfwidth(self):
        rng = np.random.default_rng(12)
        values = rng.random(5)
        _, h1 = run_summary(values)
        _, h2 = run_summary(values + 100.0)
        assert h1 == pytest.approx(h2, abs=1e-12)

    def test_needs_two(self):
        with pytest.raises(UsageError):
            run_summary(np.array([1.0]))


class TestPca2:
    def test_collinear_explains_everything(self):
        t = np.linspace(-2, 2, 9)
        direction = np.array([3.0, 4.0]) / 5.0
        points = t[:, None] * direction[None, :]
        proj, explained = pca2(points)
        assert explained[0] == pytest.approx(1.0, abs=1e-9)
        assert explained[1] == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(proj[:, 0], t, atol=1e-9)

    def test_axis_aligned_hand_case(self):
        points = np.array(
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]]
        )
        proj, explained = pca2(points)
        # x variance 0.8, y variance 0.3, no covariance
        assert explained[0] == pytest.approx(0.8 / 1.1, abs=1e-8)
        assert explained[1] == pytest.approx(0.3 / 1.1, abs=1e-8)
        np.testing.assert_allclose(proj[:, 0], points[:, 0] - 1.0, atol=1e-8)
        np.testing.assert_allclose(proj[:, 1], points[:, 1] - 0.5, atol=1e-8)

    def test_matches_exact_eigendecomposition(self):
        rng = np.random.default_rng(13)
        for trial in range(5):
            points = rng.standard_normal((60, 6)) @ rng.standard_normal((6, 6))
            proj, explained = pca2(points)
            centered = points - points.mean(axis=0)
            cov = centered.T @ centered / (len(points) - 1)
            w, vecs = np.linalg.eigh(cov)
            top = vecs[:, ::-1][:, :2]
            want_explained = (w[-1] / w.sum(), w[-2] / w.sum())
            assert explained[0] == pytest.approx(want_explained[0], rel=1e-6)
            assert explained[1] == pytest.approx(want_explained[1], rel=1e-6)
            for c in range(2):
                v = top[:, c]
                peak = int(np.argmax(np.abs(v)))
                if v[peak] < 0:
                    v = -v
                np.testing.assert_allclose(proj[:, c], centered @ v, atol=1e-5)

    def test_small_eigengap_resolved(self):
        # Points +-s_k q_k on orthonormal q_k: covariance eigenvalues 1.0, 0.999
        # and 0.5 with eigenvectors q_k.  A 0.1% gap stalls an iterative solver.
        q, _ = np.linalg.qr(np.random.default_rng(15).standard_normal((4, 4)))
        lams = np.array([1.0, 0.999, 0.5])
        scale = np.sqrt(lams * 5.0 / 2.0)
        points = np.vstack([s * q[:, k] * sign for k, s in enumerate(scale) for sign in (1, -1)])
        proj, explained = pca2(points)
        assert explained[0] == pytest.approx(1.0 / lams.sum(), rel=1e-12)
        assert explained[1] == pytest.approx(0.999 / lams.sum(), rel=1e-12)
        for c in range(2):
            v = q[:, c]
            if v[int(np.argmax(np.abs(v)))] < 0:
                v = -v
            np.testing.assert_allclose(proj[:, c], points @ v, atol=1e-12)

    def test_mean_shift_invariance(self):
        rng = np.random.default_rng(14)
        points = rng.standard_normal((20, 4))
        p1, e1 = pca2(points)
        p2, e2 = pca2(points + np.array([5.0, -3.0, 2.0, 9.0]))
        np.testing.assert_allclose(p1, p2, atol=1e-8)
        assert e1 == pytest.approx(e2, abs=1e-10)

    def test_input_left_unchanged(self):
        points = np.random.default_rng(16).standard_normal((30, 4)) + 3.0
        kept = points.copy()
        pca2(points)
        assert np.array_equal(points, kept)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateVectorError):
            pca2(np.ones((5, 3)))

    def test_too_few_points_or_dims(self):
        with pytest.raises(UsageError):
            pca2(np.zeros((2, 3)))
        with pytest.raises(UsageError):
            pca2(np.zeros((5, 1)))


class TestEcdf:
    def test_hand_example(self):
        x, y = ecdf(np.array([3.0, 1.0, 2.0, 1.0]))
        np.testing.assert_array_equal(x, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(y, [0.5, 0.75, 1.0])

    def test_monotone_and_terminal(self):
        rng = np.random.default_rng(15)
        x, y = ecdf(rng.random(200).round(2))
        assert np.all(np.diff(x) > 0)
        assert np.all(np.diff(y) > 0)
        assert y[-1] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            ecdf(np.array([]))


def labeled_corpus(labels, seed=0):
    """A small corpus of random 2+2-dim rows carrying the given label matrix."""
    rng = np.random.default_rng(seed)
    n = len(labels)
    return Corpus(
        ids=np.arange(n) + 100,
        img=rng.standard_normal((n, 2)),
        txt=rng.standard_normal((n, 2)),
        labels=np.asarray(labels, bool),
    )


class TestLabels:
    """labels.csv: the corpus's class counts, and the subset's beside them."""

    def test_histogram(self):
        corpus = labeled_corpus([[1, 0], [1, 0], [0, 1], [1, 0]])
        files = run_analysis(corpus, EngineConfig(knn_k=2))
        assert files["labels.csv"] == "class,count,frac\nclass_0,3,0.75\nclass_1,1,0.25\n"

    def test_comparison_table(self):
        corpus = labeled_corpus([[1, 0]] * 8 + [[0, 1]] * 2)
        files = run_analysis(corpus, EngineConfig(knn_k=2), rows=np.array([0, 8, 1, 9]))
        assert files["labels.csv"].splitlines() == [
            "class,count_full,frac_full,count_subset,frac_subset,delta",
            "class_0,8,0.8,2,0.5,-0.3",
            "class_1,2,0.2,2,0.5,0.3",
        ]

    def test_unlabeled_corpus_has_no_table(self):
        corpus = labeled_corpus([[1, 0]] * 4)
        corpus.labels = None
        assert "labels.csv" not in run_analysis(corpus, EngineConfig(knn_k=2), rows=np.arange(3))


def analysis_corpus(n=400, seed=16):
    cfg = EngineConfig(
        n_samples=n,
        clusters=3,
        cluster_weights=(0.6, 0.3, 0.1),
        d_img=6,
        d_txt=6,
        rho=0.9,
        noise_scale=0.4,
        mean_scale=2.0,
        seed=seed,
    )
    corpus, _ = generate_corpus(cfg)
    return corpus


def csv_rows(text):
    return [line.split(",") for line in text.splitlines()[1:]]


class TestRunAnalysis:
    def test_bundle_without_selection(self):
        corpus = analysis_corpus()
        files = run_analysis(corpus, EngineConfig(knn_k=5))
        assert set(files) == {"knn_profile.csv", "pca2.csv", "ecdf_full.csv", "labels.csv", "tests.json"}
        tests = json.loads(files["tests.json"])
        assert list(tests) == ["knn_k", "full_mean_knn", "full_sd_knn", "pca_explained"]
        assert tests["knn_k"] == 5
        assert len(csv_rows(files["knn_profile.csv"])) == 400
        assert len(csv_rows(files["pca2.csv"])) == 400

    def test_bundle_with_selection(self):
        corpus = analysis_corpus(seed=17)
        cfg = EngineConfig(knn_k=5, density_quantile=0.25)
        rows = np.arange(0, 400, 7)
        files = run_analysis(corpus, cfg, rows)
        # the subset's values are the full-corpus density field at its rows
        values, _ = knn_mean_distance(unify_batch(corpus.img, corpus.txt, "concat"), 5)
        subset = values[rows]
        tests = json.loads(files["tests.json"])
        assert tests["subset_mean_knn"] == float(subset.mean())
        assert tests["subset_sd_knn"] == float(subset.std(ddof=1))
        assert tests["welch_subset_vs_full"] == welch_t(subset, values).to_dict()
        assert tests["low_density_proportion"] == low_density_proportion(subset, values, 0.25)
        assert tests["density_quantile"] == 0.25
        ecdf_subset = [float(value) for value, _ in csv_rows(files["ecdf_subset.csv"])]
        np.testing.assert_allclose(ecdf_subset, np.unique(subset), rtol=1e-8)
        assert files["labels.csv"].startswith("class,count_full,")

    def test_written_bundle_files(self, tmp_path):
        corpus = analysis_corpus(seed=19)
        files = run_analysis(corpus, EngineConfig(knn_k=4), np.arange(40))
        out = tmp_path / "bundle"
        write_analysis_bundle(out, files)
        assert {path.name: path.read_text() for path in out.iterdir()} == files

        knn = (out / "knn_profile.csv").read_text().splitlines()
        assert knn[0] == "id,knn_mean"
        assert [int(row[0]) for row in csv_rows(files["knn_profile.csv"])] == corpus.ids.tolist()

        for name in ("ecdf_full.csv", "ecdf_subset.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "value,cum_frac"
            assert float(lines[-1].split(",")[1]) == 1.0

        pca_lines = (out / "pca2.csv").read_text().splitlines()
        assert pca_lines[0] == "id,pc1,pc2"
        assert len(pca_lines) == 401

        tests = json.loads((out / "tests.json").read_text())
        assert tests["knn_k"] == 4
        assert "welch_subset_vs_full" in tests

        labels = (out / "labels.csv").read_text().splitlines()
        assert labels[0] == "class,count_full,frac_full,count_subset,frac_subset,delta"
        assert len(labels) == 4  # 3 classes

    def test_holds_one_copy_of_the_rows(self, monkeypatch):
        # 4096 rows of 64+64 dims: the unified rows are 1024 bytes a row.  With
        # 32-row scan blocks the kNN scan adds about 700 bytes a row to them;
        # a PCA that centres a second copy adds 1024, and traces 2243 in all.
        monkeypatch.setattr(embedding, "SCAN_BLOCK", 32)
        n, d = 4096, 64
        rng = np.random.default_rng(46)
        img = rng.standard_normal((n, d)).astype(np.float32)
        txt = (img + rng.standard_normal((n, d))).astype(np.float32)
        corpus = Corpus(ids=np.arange(n), img=img, txt=txt)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_analysis(corpus, EngineConfig(knn_k=5))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * (2 * d) * 8

    @pytest.mark.parametrize("with_selection", [False, True], ids=["corpus", "selection"])
    def test_tables_match_per_line_oracle(self, with_selection):
        corpus = analysis_corpus(n=300, seed=21)
        corpus.ids = np.uint64(2**64 - 1) - 3 * corpus.ids  # ids past int64
        rows = np.arange(0, 300, 7) if with_selection else None
        files = run_analysis(corpus, EngineConfig(knn_k=4), rows)
        unified = unify_batch(corpus.img, corpus.txt, "concat")
        values, _ = knn_mean_distance(unified, 4)
        proj, _ = pca2(unified)
        expected = {
            "knn_profile.csv": oracles.knn_profile_csv(corpus.ids, values),
            "pca2.csv": oracles.pca2_csv(corpus.ids, proj),
            "ecdf_full.csv": oracles.ecdf_csv(values),
            "labels.csv": oracles.labels_csv(corpus.labels, rows),
        }
        if with_selection:
            expected["ecdf_subset.csv"] = oracles.ecdf_csv(values[rows])
        assert files.keys() == expected.keys() | {"tests.json"}
        for name, text in expected.items():
            assert files[name] == text, name

    def test_written_bundle_without_selection_plain_labels(self, tmp_path):
        corpus = analysis_corpus(seed=20)
        out = tmp_path / "bundle"
        write_analysis_bundle(out, run_analysis(corpus, EngineConfig(knn_k=4)))
        labels = (out / "labels.csv").read_text().splitlines()
        assert labels[0] == "class,count,frac"
        assert not (out / "ecdf_subset.csv").exists()
