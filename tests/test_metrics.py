"""Evaluation metrics: prompt-pair probabilities, AUROC, AUPRC, Recall@1."""

import json
import math

import numpy as np
import pytest

import oracles
from oracles import midranks, recall_at_1, zero_shot_prob
from protocurate import embedding, metrics
from protocurate.embedding import SCAN_BLOCK, normalize_rows
from protocurate.errors import DegenerateVectorError, UsageError
from protocurate.io import commit_outputs
from protocurate.metrics import (
    CLASS_RECORD,
    MetricReport,
    _midranks,
    auprc,
    auroc,
    evaluate_zero_shot,
    recall_both_blocked,
)
from protocurate.trainer import identity_head


class TestZeroShotProb:
    def test_unit_margin_value(self):
        # s_pos = 1, s_neg = 0, tau = 1: p = e/(1+e)
        p = zero_shot_prob(np.array([1.0, 0.0]), [1.0, 0.0], [0.0, 1.0], tau=1.0)
        assert p == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_identical_prompts_give_half(self):
        p = zero_shot_prob(np.array([1.0, 0.0]), [0.6, 0.8], [0.6, 0.8], tau=0.1)
        assert p == 0.5

    def test_swapping_prompts_complements(self):
        rng = np.random.default_rng(0)
        img = rng.standard_normal(5)
        img /= np.linalg.norm(img)
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        p = zero_shot_prob(img, a, b, tau=0.3)
        q = zero_shot_prob(img, b, a, tau=0.3)
        assert p + q == pytest.approx(1.0, abs=1e-15)

    def test_monotone_in_margin(self):
        img = np.array([1.0, 0.0])
        neg = np.array([0.0, 1.0])
        probs = [
            zero_shot_prob(img, [c, math.sqrt(1 - c * c)], neg, tau=0.5)
            for c in (0.0, 0.3, 0.6, 0.9)
        ]
        assert all(a < b for a, b in zip(probs, probs[1:]))

    def test_temperature_sharpens(self):
        img = np.array([1.0, 0.0])
        pp = ([1.0, 0.0], [0.0, 1.0])
        mild = zero_shot_prob(img, *pp, tau=1.0)
        sharp = zero_shot_prob(img, *pp, tau=0.05)
        assert sharp > mild > 0.5

    def test_extreme_margin_saturates_cleanly(self):
        img = np.array([1.0, 0.0])
        p = zero_shot_prob(img, [1.0, 0.0], [-1.0, 0.0], tau=1e-3)
        assert p == 1.0  # sigmoid saturates without overflow
        q = zero_shot_prob(img, [-1.0, 0.0], [1.0, 0.0], tau=1e-3)
        assert q == pytest.approx(0.0, abs=1e-300)

    def test_head_projection_path(self):
        rng = np.random.default_rng(1)
        img = rng.standard_normal(4)
        pp = normalize_rows(rng.standard_normal((2, 4)))
        with_head = zero_shot_prob(img, *pp, tau=0.2, head=identity_head(4))
        plain = zero_shot_prob(img / np.linalg.norm(img), *pp, tau=0.2)
        assert with_head == pytest.approx(plain, abs=1e-15)

    def test_bad_temperature(self):
        images, texts, labels, names, pos, neg = separated_batch()
        for tau in (0.0, -1.0, float("nan")):
            with pytest.raises(UsageError, match="temperature"):
                evaluate_identity(images, texts, labels, names, pos, neg, tau)

    def test_dimension_mismatch(self):
        images, texts, labels, names, pos, neg = separated_batch()
        wide = np.hstack([pos, np.zeros((2, 1))])
        for p, n in ((wide, neg), (pos, wide)):
            with pytest.raises(UsageError, match="prompt dimension 3 does not match text side 2"):
                evaluate_identity(images, texts, labels, names, p, n)


def auroc_pair_oracle(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestMidranks:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 17, 500):
            tie_heavy = np.round(rng.random(n), 1)
            tie_free = rng.random(n)
            for scores in (tie_heavy, tie_free, np.full(n, 0.25), np.sort(tie_heavy)[::-1]):
                assert np.array_equal(_midranks(scores), midranks(scores))


class TestAuroc:
    def test_perfect_and_reversed(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0], bool)
        assert auroc(scores, labels) == 1.0
        assert auroc(-scores, labels) == 0.0

    def test_hand_example(self):
        assert auroc(np.array([0.9, 0.8, 0.7, 0.6]), np.array([1, 0, 1, 0], bool)) == 0.75

    def test_all_ties_give_half(self):
        assert auroc(np.full(6, 0.5), np.array([1, 0, 1, 0, 1, 0], bool)) == 0.5

    def test_two_way_tie(self):
        assert auroc(np.array([0.5, 0.5]), np.array([True, False])) == 0.5

    def test_matches_pair_count_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(2, 200))
            labels = rng.random(n) < rng.uniform(0.2, 0.8)
            if labels.all() or not labels.any():
                continue
            # quantized scores force plenty of ties
            scores = np.round(rng.random(n), 1)
            got = auroc(scores, labels)
            want = auroc_pair_oracle(scores, labels)
            assert got == pytest.approx(want, abs=1e-12)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal(50)
        labels = rng.random(50) < 0.4
        labels[0], labels[1] = True, False
        base = auroc(scores, labels)
        assert auroc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)
        assert auroc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)

    def test_single_class_undefined(self):
        assert auroc(np.array([0.1, 0.2]), np.array([True, True])) is None
        assert auroc(np.array([0.1, 0.2]), np.array([False, False])) is None


def auprc_threshold_oracle(scores, labels):
    p = sum(labels)
    ap = 0.0
    prev_recall = 0.0
    for thr in sorted(set(scores), reverse=True):
        predicted = [s >= thr for s in scores]
        tp = sum(1 for pr, y in zip(predicted, labels) if pr and y)
        fp = sum(1 for pr, y in zip(predicted, labels) if pr and not y)
        recall = tp / p
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


class TestAuprc:
    def test_perfect_ranking(self):
        assert auprc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0], bool)) == 1.0

    def test_single_positive_ranked_last(self):
        n = 8
        scores = -np.arange(n, dtype=float)
        labels = np.zeros(n, bool)
        labels[-1] = True
        assert auprc(scores, labels) == pytest.approx(1.0 / n, abs=1e-15)

    def test_all_ties_give_prevalence(self):
        labels = np.array([1, 0, 0, 1, 0], bool)
        assert auprc(np.full(5, 0.3), labels) == pytest.approx(2.0 / 5.0, abs=1e-15)

    def test_hand_example(self):
        got = auprc(np.array([0.9, 0.8, 0.7]), np.array([1, 0, 1], bool))
        assert got == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_matches_threshold_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(2, 120))
            labels = rng.random(n) < 0.3
            if not labels.any():
                labels[0] = True
            scores = np.round(rng.random(n), 1)
            got = auprc(scores, labels)
            want = auprc_threshold_oracle(list(scores), list(labels))
            assert got == pytest.approx(want, abs=1e-12)

    def test_no_positives_undefined(self):
        assert auprc(np.array([0.1, 0.2]), np.array([False, False])) is None


def scored_batch():
    """Three classes whose AUROCs are 1, 0.75 and undefined (no positives).

    Image i is the unit vector at angle theta_i; the prompts for class c are
    e0 (positive) and e1 (negative), so every class ranks the images by
    cos(theta_i) - sin(theta_i), descending in i.
    """
    theta = np.linspace(0.0, 1.5, 4)
    images = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    labels = np.zeros((4, 3), bool)
    labels[[0, 1], 0] = True  # ranked first and second: AUROC 1, AUPRC 1
    labels[[0, 2], 1] = True  # first and third: AUROC 0.75, AUPRC 5/6
    pos = np.tile([1.0, 0.0], (3, 1))
    neg = np.tile([0.0, 1.0], (3, 1))
    return images, images.copy(), labels, ["a", "b", "c"], pos, neg


class TestMacroAverage:
    def test_excludes_undefined(self):
        report = evaluate_identity(*scored_batch(), tau=1.0)
        assert report.per_class.dtype == CLASS_RECORD
        assert report.per_class["auroc"].tolist()[:2] == [1.0, 0.75]
        assert math.isnan(report.per_class["auroc"][2])
        assert report.macro_auroc == pytest.approx(0.875, abs=1e-15)
        assert report.auroc_excluded == 1
        assert report.macro_auprc == pytest.approx((1.0 + 5.0 / 6.0) / 2.0, abs=1e-15)
        assert report.auprc_excluded == 1

    def test_all_defined(self):
        images, texts, labels, names, pos, neg = scored_batch()
        report = evaluate_identity(images, texts, labels[:, :2], names[:2], pos[:2], neg[:2])
        assert report.macro_auroc == pytest.approx(0.875)
        assert report.auroc_excluded == 0
        assert report.auprc_excluded == 0

    def test_all_undefined(self):
        images, texts, labels, names, pos, neg = scored_batch()
        labels[:] = False
        report = evaluate_identity(images, texts, labels, names, pos, neg)
        assert report.macro_auroc is None and report.macro_auprc is None
        assert report.auroc_excluded == 3 and report.auprc_excluded == 3


class TestRecallAt1:
    def test_identity_similarity(self):
        assert recall_at_1(np.eye(5)) == 1.0

    def test_constant_matrix_hits_only_first(self):
        # every argmax ties to column 0, so only query 0 scores a hit
        assert recall_at_1(np.full((4, 4), 0.7)) == 0.25

    def test_directions_differ_on_asymmetric_sim(self):
        sim = np.array(
            [
                [0.9, 0.95, 0.0],
                [0.1, 0.8, 0.0],
                [0.2, 0.0, 0.7],
            ]
        )
        # rows: query 0 picks col 1 (miss), 1 picks 1, 2 picks 2 -> 2/3
        assert recall_at_1(sim, "image_to_text") == pytest.approx(2.0 / 3.0)
        # columns: query 0 picks row 0, 1 picks 0 (miss), 2 picks 2 -> 2/3
        assert recall_at_1(sim, "text_to_image") == pytest.approx(2.0 / 3.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        sim = rng.standard_normal((20, 20))
        hits = sum(1 for i in range(20) if int(np.argmax(sim[i])) == i)
        assert recall_at_1(sim, "image_to_text") == pytest.approx(hits / 20.0)
        hits_t = sum(1 for j in range(20) if int(np.argmax(sim[:, j])) == j)
        assert recall_at_1(sim, "text_to_image") == pytest.approx(hits_t / 20.0)

    def test_permutation_of_matched_pairs(self):
        rng = np.random.default_rng(6)
        sim = rng.standard_normal((10, 10)) + 5.0 * np.eye(10)
        perm = rng.permutation(10)
        permuted = sim[np.ix_(perm, perm)]
        assert recall_at_1(permuted) == recall_at_1(sim)

    def test_non_square_rejected(self):
        with pytest.raises(UsageError):
            recall_at_1(np.ones((3, 4)))

    def test_unknown_direction(self):
        with pytest.raises(UsageError):
            recall_at_1(np.eye(2), "both")


class TestRecallBothBlocked:
    def test_matches_full_matrix_path(self):
        rng = np.random.default_rng(40)
        for n in (1, 7, 300):
            u = rng.standard_normal((n, 6))
            v = rng.standard_normal((n, 6))
            sim = u @ v.T
            r_img, r_txt = recall_both_blocked(u, v)
            assert r_img == recall_at_1(sim, "image_to_text")
            assert r_txt == recall_at_1(sim, "text_to_image")

    def test_crosses_block_boundary(self):
        rng = np.random.default_rng(41)
        n = 2 * SCAN_BLOCK + 100  # two full blocks and a partial one
        u = rng.standard_normal((n, 4))
        v = u + 0.5 * rng.standard_normal((n, 4))
        sim = u @ v.T
        r_img, r_txt = recall_both_blocked(u, v)
        assert r_img == recall_at_1(sim, "image_to_text")
        assert r_txt == recall_at_1(sim, "text_to_image")

    def test_tie_resolution_matches_argmax(self):
        # Image rows are random +-1 patterns of length 8, so the 256 patterns
        # repeat across all four blocks and every similarity is an exact
        # integer.  Text row j equals image row j where j is the first copy of
        # its pattern and is its negation elsewhere.  So a first copy's column
        # peaks at 8 on every copy of its pattern, and argmax over the full
        # matrix must pick the earliest one, even when later blocks tie it.
        rng = np.random.default_rng(42)
        n = 3 * SCAN_BLOCK + 37
        u = rng.choice([-1.0, 1.0], size=(n, 8))
        _, first_copy = np.unique(u, axis=0, return_index=True)
        v = -u
        v[first_copy] = u[first_copy]
        sim = u @ v.T
        first, tied_later = tie_structure(sim)
        block = np.arange(n) // SCAN_BLOCK
        # a miss: the maximum is first reached in an earlier block
        assert np.any(block[first] < block)
        # a hit whose own block ties a later block
        assert np.any((first == np.arange(n)) & tied_later)
        # a pattern repeated in at least three blocks
        assert max(len(set(block[np.all(u == row, axis=1)])) for row in u) >= 3
        r_img, r_txt = recall_both_blocked(u, v)
        assert r_img == recall_at_1(sim, "image_to_text")
        assert r_txt == recall_at_1(sim, "text_to_image")

    def test_rounded_ties_match_argmax(self):
        # Gaussian rows rounded to one decimal, in tenths: every similarity is
        # an exact integer, so the ties are exact whatever order the BLAS sums in.
        for seed in range(6):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2 * SCAN_BLOCK + 1, 4 * SCAN_BLOCK))
            x = rng.standard_normal((n, 2))
            u = np.rint(10 * x)
            v = np.rint(10 * (x + 0.3 * rng.standard_normal((n, 2))))
            sim = u @ v.T
            assert np.any(np.sum(sim == sim.max(axis=0), axis=0) > 1)
            assert np.any(np.sum(sim == sim.max(axis=1)[:, None], axis=1) > 1)
            r_img, r_txt = recall_both_blocked(u, v)
            assert r_img == recall_at_1(sim, "image_to_text")
            assert r_txt == recall_at_1(sim, "text_to_image")

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            recall_both_blocked(np.ones((2, 3)), np.ones((3, 3)))

    def test_near_ties_go_to_the_float64_check(self, monkeypatch):
        # Rows and columns 0-2 of U V^T are closer than float32 resolves.  In
        # float64, row 1's diagonal beats column 0 by about 2^-42 and row 2's
        # loses to it by 2^-40; column 0 ties rows 0 and 2 and keeps row 0.
        rng = np.random.default_rng(43)
        n = SCAN_BLOCK + 30
        u = normalize_rows(rng.standard_normal((n, 8)))
        u[1] = normalize_rows(u[0] + 2.0**-22 * rng.standard_normal(8)[None, :])[0]
        u[2] = u[0]
        v = u.copy()
        v[2] *= 1.0 - 2.0**-40
        unsure, exact_hits = [], metrics._exact_hits

        def spy(a, b, rows, magnitude):
            unsure.append(set(rows.tolist()))
            return exact_hits(a, b, rows, magnitude)

        monkeypatch.setattr(metrics, "_exact_hits", spy)
        sim = np.asarray(u, np.longdouble) @ np.asarray(v, np.longdouble).T
        assert sim[1, 1] > sim[1, 0] and sim[2, 0] > sim[2, 2] and sim[0, 0] == sim[2, 0]
        r_img, r_txt = recall_both_blocked(u, v)
        assert len(unsure) == 2 and {0, 1, 2} <= unsure[0] and {0, 1, 2} <= unsure[1]
        assert r_img == np.mean(np.argmax(sim, axis=1) == np.arange(n))
        assert r_txt == np.mean(np.argmax(sim, axis=0) == np.arange(n))

    @pytest.mark.parametrize("block", [64, SCAN_BLOCK, None], ids=["64", "scan-block", "n"])
    def test_block_size_invariance(self, block, monkeypatch):
        # Integer entries with exact ties; then rows of U in identical pairs,
        # whose columns tie exactly, which only the float64 check can settle.
        n = 2 * SCAN_BLOCK + 45
        monkeypatch.setattr(embedding, "SCAN_BLOCK", block or n)
        rng = np.random.default_rng(44)
        x = rng.standard_normal((n, 2))
        u = np.rint(10 * x)
        v = np.rint(10 * (x + 0.3 * rng.standard_normal((n, 2))))
        sim = u @ v.T
        assert recall_both_blocked(u, v) == (
            recall_at_1(sim, "image_to_text"), recall_at_1(sim, "text_to_image")
        )
        u = normalize_rows(rng.standard_normal((n, 8)))
        v = u + 2.0**-30 * rng.standard_normal((n, 8))
        u[1::2] = u[::2][: n // 2]
        sim = np.asarray(u, np.longdouble) @ np.asarray(v, np.longdouble).T
        assert recall_both_blocked(u, v) == (
            np.mean(np.argmax(sim, axis=1) == np.arange(n)),
            np.mean(np.argmax(sim, axis=0) == np.arange(n)),
        )


def tie_structure(sim):
    """First maximal row of each column, and whether a later block reaches that maximum."""
    first = np.argmax(sim, axis=0)
    block = np.arange(len(sim)) // SCAN_BLOCK
    ties = sim == sim.max(axis=0)
    tied_later = np.any(ties & (block[:, None] > block[first][None, :]), axis=0)
    return first, tied_later


def separated_batch(n_per_class=20, seed=7):
    rng = np.random.default_rng(seed)
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    img0 = e0 + 0.05 * rng.standard_normal((n_per_class, 2))
    img1 = e1 + 0.05 * rng.standard_normal((n_per_class, 2))
    images = np.vstack([img0, img1])
    texts = images + 0.01 * rng.standard_normal(images.shape)
    labels = np.zeros((2 * n_per_class, 2), bool)
    labels[:n_per_class, 0] = True
    labels[n_per_class:, 1] = True
    return images, texts, labels, ["alpha", "beta"], np.stack([e0, e1]), np.stack([e1, e0])


def evaluate_identity(images, texts, labels, names, pos, neg, tau=0.1):
    """``evaluate_zero_shot`` in the raw space: the identity head."""
    head = identity_head(images.shape[1])
    return evaluate_zero_shot(head, images, texts, labels, names, pos, neg, tau)


class TestEvaluateZeroShot:
    def test_separated_classes_are_perfect(self):
        report = evaluate_identity(*separated_batch())
        assert report.macro_auroc == 1.0
        assert report.macro_auprc == 1.0
        assert report.auroc_excluded == 0
        assert report.n_samples == 40
        assert report.per_class["auroc"].tolist() == [1.0, 1.0]
        assert report.per_class["n_pos"].tolist() == [20, 20]

    def test_empty_class_excluded_not_zeroed(self):
        images, texts, labels, names, pos, neg = separated_batch()
        labels = np.hstack([labels, np.zeros((len(labels), 1), bool)])
        pos = np.vstack([pos, [1.0, 1.0]])
        neg = np.vstack([neg, [0.0, 1.0]])
        report = evaluate_identity(images, texts, labels, names + ["gamma"], pos, neg)
        assert report.auroc_excluded == 1
        assert report.auprc_excluded == 1
        assert report.macro_auroc == 1.0  # mean over defined classes only
        gamma = report.per_class[-1]
        assert math.isnan(gamma["auroc"]) and math.isnan(gamma["auprc"]) and gamma["n_pos"] == 0
        doc = json.loads(report.to_json())["per_class"][-1]
        assert doc == {"class": "gamma", "auroc": None, "auprc": None, "n_pos": 0, "n_neg": 40}

    def test_labels_shape_checked(self):
        images, texts, labels, names, pos, neg = separated_batch()
        with pytest.raises(UsageError, match="prompt classes"):
            evaluate_identity(images, texts, labels[:, :1], names, pos, neg)
        with pytest.raises(UsageError, match="prompt classes"):
            evaluate_identity(images, texts, labels, names, pos[:1], neg)

    def test_head_dims_checked(self):
        # A head whose input dims differ from the data's is a usage error, not a matmul one.
        images, texts, labels, names, pos, neg = separated_batch()
        wide = [np.hstack([m, np.zeros((len(m), 2))]) for m in (images, texts, pos, neg)]
        with pytest.raises(UsageError, match=r"^head takes 5\+5 input dims, corpus has 4\+4$"):
            evaluate_zero_shot(identity_head(5), wide[0], wide[1], labels, names, *wide[2:], 0.1)

    @pytest.mark.parametrize("arg, row, where", [
        (0, 3, "images: row 3"),
        (1, 3, "texts: row 3"),
        (4, 1, "positive prompt of class 'beta': row 1"),
        (5, 0, "negative prompt of class 'alpha': row 0"),
    ])
    def test_collapsed_input_named(self, arg, row, where):
        inputs = list(separated_batch())
        inputs[arg][row] = 0.0
        with pytest.raises(DegenerateVectorError, match=f"^projected {where} is all-zero$"):
            evaluate_identity(*inputs)

    def test_report_json_layout(self):
        report = evaluate_identity(*separated_batch())
        doc = json.loads(report.to_json())
        assert list(doc) == [
            "n_samples",
            "macro_auroc",
            "macro_auprc",
            "auroc_excluded",
            "auprc_excluded",
            "recall_at_1",
            "per_class",
        ]
        assert set(doc["recall_at_1"]) == {"image_to_text", "text_to_image"}
        assert doc["per_class"][0]["class"] == "alpha"

    def test_report_csv_layout(self):
        report = MetricReport(
            per_class=np.array(
                [("a", 0.75, 0.5, 3, 5), ("b", math.nan, math.nan, 0, 8)], dtype=CLASS_RECORD
            ),
            macro_auroc=0.75,
            macro_auprc=0.5,
            auroc_excluded=1,
            auprc_excluded=1,
            recall_img_to_txt=0.5,
            recall_txt_to_img=0.25,
            n_samples=8,
        )
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "class,auroc,auprc,n_pos,n_neg"
        assert lines[1] == "a,0.75,0.5,3,5"
        assert lines[2] == "b,,,0,8"

    def test_report_csv_matches_per_line_oracle(self):
        # the third class has no positives: both of its metrics are empty cells
        report = evaluate_identity(*scored_batch(), tau=1.0)
        text = report.to_csv()
        assert text == oracles.metrics_csv(report.per_class)
        assert text.splitlines()[1:] == ["a,1,1,2,2", "b,0.75,0.833333333,2,2", "c,,,0,4"]

    def test_write_files(self, tmp_path):
        report = evaluate_identity(*separated_batch())
        jp = tmp_path / "m.json"
        cp = tmp_path / "m.csv"
        commit_outputs([(jp, report.to_json()), (cp, report.to_csv())])
        assert json.loads(jp.read_text())["n_samples"] == 40
        assert cp.read_text().startswith("class,auroc")
