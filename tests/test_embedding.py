"""Unified embedding construction and distance geometry."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import EmbeddingPair, first_without_direction, normalize_rows_direct
from oracles import pairwise_distance, unify, unify_batch_direct
from protocurate import embedding
from protocurate.analysis import knn_mean_distance
from protocurate.embedding import (
    CURATION_SPACES,
    normalize_rows,
    pairwise_sq_distance,
    unify_batch,
)
from protocurate.errors import DegenerateVectorError, FormatError, UsageError
from protocurate.io import Corpus, validate_corpus
from protocurate.metrics import recall_both_blocked
from protocurate.synth import read_prompts


def naive_distance_matrix(a, b):
    out = np.zeros((len(a), len(b)))
    for i in range(len(a)):
        for j in range(len(b)):
            out[i, j] = np.sqrt(((a[i] - b[j]) ** 2).sum())
    return out


class TestNormalize:
    def test_unit_norm(self):
        v = normalize_rows(np.array([[3.0, 4.0], [0.0, -2.0]]))
        np.testing.assert_allclose(v, [[0.6, 0.8], [0.0, -1.0]])

    def test_zero_vector_raises(self):
        with pytest.raises(DegenerateVectorError, match="row 0 is all-zero"):
            normalize_rows(np.zeros((1, 4)))

    def test_nan_raises(self):
        with pytest.raises(DegenerateVectorError, match="row 0 has non-finite"):
            normalize_rows(np.array([[1.0, np.nan]]))

    def test_rows_reports_offender(self):
        mat = np.ones((3, 2))
        mat[1] = 0.0
        with pytest.raises(DegenerateVectorError, match="row 1"):
            normalize_rows(mat)

    def test_overflowing_norm_raises(self):
        # Finite entries whose squares overflow: the norm is inf, not a scale.
        with np.errstate(over="ignore"), pytest.raises(
            DegenerateVectorError, match="^row 1 has a norm that overflows float64$"
        ):
            normalize_rows(np.array([[1.0, 2.0], [1e200, 0.0]]))

    def test_underflowing_norm_raises(self):
        # Nonzero entries whose squares underflow: the row is not all-zero, but its norm is 0.
        with pytest.raises(
            DegenerateVectorError, match="^row 0 has a norm that underflows float64$"
        ) as caught:
            normalize_rows(np.array([[1e-170, 1e-170]]))
        assert caught.value.kind == "underflowing"


# Rows without a direction: a nan, an infinity, finite entries whose norm overflows,
# zeros, and nonzero entries whose norm underflows.
DEFECTS = ([np.nan, 1.0], [1.0, -np.inf], [1e200, -1e200], [0.0, -0.0], [1e-170, -1e-170])
SAID = {
    "non-finite": "has non-finite entries",
    "overflowing": "has a norm that overflows float64",
    "all-zero": "is all-zero",
    "underflowing": "has a norm that underflows float64",
}


class TestDirectionRule:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 8),
        placed=st.lists(st.tuples(st.integers(0, 7), st.sampled_from(DEFECTS)), max_size=4),
        seed=st.integers(0, 1000),
    )
    def test_callers_name_the_same_first_row(self, tmp_path_factory, n, placed, seed):
        mat = np.random.default_rng(seed).standard_normal((n, 2))
        for at, defect in placed:
            mat[at % n] = defect
        expected = first_without_direction(mat)

        corpus = Corpus(ids=np.arange(n) + 100, img=np.ones((n, 2)), txt=mat)
        prompts = tmp_path_factory.mktemp("prompts") / "p.json"
        classes = [
            {"name": f"c{i}", "positive": row.tolist(), "negative": [1.0, 0.0]}
            for i, row in enumerate(mat)
        ]
        prompts.write_text(json.dumps({"classes": classes}))
        with np.errstate(over="ignore"):
            if expected is None:
                normalize_rows(mat)
                validate_corpus(corpus)
                read_prompts(prompts)
                return
            row, kind = expected
            with pytest.raises(DegenerateVectorError, match=f"^row {row} {SAID[kind]}$") as caught:
                normalize_rows(mat)
            assert (caught.value.row, caught.value.kind) == expected
            with pytest.raises(DegenerateVectorError, match=f"^sample id {row + 100} has {kind} txt"):
                validate_corpus(corpus)
            with pytest.raises(FormatError, match=f": class {row} positive vector {SAID[kind]}$"):
                read_prompts(prompts)


class TestUnify:
    def test_concat_norm_sqrt2(self):
        pair = EmbeddingPair(id=0, img=np.array([2.0, 0.0]), txt=np.array([0.0, 5.0]))
        z = unify(pair)
        assert z.shape == (4,)
        np.testing.assert_allclose(np.linalg.norm(z), np.sqrt(2.0))
        np.testing.assert_allclose(z, [1.0, 0.0, 0.0, 1.0])

    def test_single_modality_modes(self):
        pair = EmbeddingPair(id=0, img=np.array([2.0, 0.0]), txt=np.array([0.0, 5.0]))
        np.testing.assert_allclose(unify(pair, "image_only"), [1.0, 0.0])
        np.testing.assert_allclose(unify(pair, "text_only"), [0.0, 1.0])

    def test_unknown_mode(self):
        with pytest.raises(UsageError, match="curation space"):
            unify_batch(np.ones((1, 2)), np.ones((1, 2)), "both")

    @pytest.mark.parametrize("space", CURATION_SPACES)
    def test_row_subset_is_bit_identical(self, space):
        # Rows are normalised one by one, so embedding a row subset gives the
        # bits of the same rows of the embedded whole; curation embeds one
        # super-batch at a time and relies on this.
        rng = np.random.default_rng(1)
        n = 1000
        img = rng.standard_normal((n, 128)) * rng.uniform(0.01, 100.0, (n, 1))
        txt = rng.standard_normal((n, 32))
        whole = unify_batch(img, txt, space)
        shuffled = rng.permutation(n)
        for rows in (shuffled, shuffled[:640], shuffled[640:], shuffled[:1], shuffled[-37:]):
            assert np.array_equal(unify_batch(img[rows], txt[rows], space), whole[rows])

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        img = rng.standard_normal((6, 3))
        txt = rng.standard_normal((6, 5))
        batch = unify_batch(img, txt, "concat")
        for i in range(6):
            single = unify(EmbeddingPair(id=i, img=img[i], txt=txt[i]))
            np.testing.assert_array_equal(batch[i], single)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestUnifyOneBuffer:
    """``unify_batch`` normalises into one array: the bits of the hstack it replaced."""

    @pytest.mark.parametrize("space", CURATION_SPACES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_of_hstack(self, dtype, space):
        rng = np.random.default_rng(8)
        n = 700  # two full blocks of the normaliser and a ragged third
        img = (rng.standard_normal((n, 48)) * rng.uniform(1e-3, 1e3, (n, 1))).astype(dtype)
        txt = (rng.standard_normal((n, 20)) * rng.uniform(1e-3, 1e3, (n, 1))).astype(dtype)
        got = unify_batch(img, txt, space)
        want = {
            "concat": np.hstack([normalize_rows(img), normalize_rows(txt)]),
            "image_only": normalize_rows(img),
            "text_only": normalize_rows(txt),
        }[space]
        assert same_bits(got, want)
        assert same_bits(got, unify_batch_direct(img, txt, space))
        assert got.flags.c_contiguous and got.flags.writeable

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_normalize_rows_bits(self, dtype):
        rng = np.random.default_rng(9)
        mat = rng.standard_normal((300, 33)) * 10.0 ** rng.integers(-30, 30, (300, 1))
        mat = mat.astype(dtype)
        assert same_bits(normalize_rows(mat), normalize_rows_direct(mat))

    @pytest.mark.parametrize("defect", DEFECTS, ids=repr)
    @pytest.mark.parametrize("where", ["img", "txt", "both"])
    def test_degenerate_row_raises_as_before(self, defect, where):
        # Same message, row and kind as the hstack form; with defects in both
        # halves the image half is checked first, though its row comes later.
        img, txt = np.ones((300, 2)), np.ones((300, 2))
        if where != "txt":
            img[270] = defect
        if where != "img":
            txt[3] = defect
        with np.errstate(over="ignore"), pytest.raises(DegenerateVectorError) as want:
            unify_batch_direct(img, txt)
        with np.errstate(over="ignore"), pytest.raises(DegenerateVectorError) as got:
            unify_batch(img, txt, "concat")
        assert (str(got.value), got.value.row, got.value.kind) == (
            str(want.value), want.value.row, want.value.kind)
        assert got.value.row == (3 if where == "txt" else 270)

    def test_row_counts_must_match(self):
        with pytest.raises(UsageError, match="differ in rows: 3 vs 1"):
            unify_batch(np.ones((3, 2)), np.ones((1, 2)), "concat")


class TestPairwiseDistance:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((17, 4))
        b = rng.standard_normal((9, 4))
        np.testing.assert_allclose(
            pairwise_distance(a, b), naive_distance_matrix(a, b), atol=1e-12
        )

    def test_tall_batch_matches_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((1500, 3))
        b = rng.standard_normal((5, 3))
        np.testing.assert_allclose(
            pairwise_distance(a, b), naive_distance_matrix(a, b), atol=1e-10
        )

    def test_sq_distance_nonnegative(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((30, 2))
        assert np.all(pairwise_sq_distance(a, a) >= 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError, match="mismatch"):
            pairwise_sq_distance(np.ones((2, 3)), np.ones((2, 4)))


class TestScanMemory:
    """The exact scans of ``eval`` and ``analyze`` allocate, on n rows, one
    float32 column operand, one SCAN_BLOCK x SCAN_COLS float32 tile and a
    quarter tile more for its reductions, and O(n) vectors: here eight
    float64 per row.  Each scan runs at two n, so that a buffer that grows
    with n, such as a SCAN_BLOCK x n block (128 bytes a row here) or an
    n-row float64 copy of the points (256), fails at one of them.  Beyond
    its column operand, the kNN scan traces about 117 bytes a row at 8192
    rows of 32 dims and 66 at 16384, the recall scan 79 and 46, against
    budgets of 144 and 104.  Scans that hold a SCAN_BLOCK x n block trace
    171 and 159 (kNN) and 145 (recall); a kNN scan that scales off-scale rows
    in one n-row copy, 427 and 415."""

    NS, D, BLOCK, COLS = (8192, 16384), 32, 32, 4096

    def traced_peak(self, scan):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            scan()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def budget(self, n, columns):
        return 4 * n * columns + 1.25 * 4 * self.BLOCK * self.COLS + 8 * 8 * n

    @pytest.fixture(autouse=True)
    def tile(self, monkeypatch):
        monkeypatch.setattr(embedding, "SCAN_BLOCK", self.BLOCK)
        monkeypatch.setattr(embedding, "SCAN_COLS", self.COLS)

    def rows(self, n):
        # Unit rows, as both scans get them: unit_scaled needs no copy.
        rng = np.random.default_rng(45)
        u = normalize_rows(rng.standard_normal((n, self.D)))
        return u, normalize_rows(u + 0.5 * rng.standard_normal(u.shape))

    def test_knn_scan(self):
        for n in self.NS:
            u, _ = self.rows(n)
            # The column operand is the augmented [-2q, 1, |q|^2], D + 2 wide.
            assert self.traced_peak(lambda: knn_mean_distance(u, 20)) < self.budget(n, self.D + 2)

    def test_knn_scan_off_scale_rows(self):
        # Standard normal rows peak near 4, outside [1/2, 1): the scan scales
        # them a block at a time, with no n x D scaled copy.
        for n in self.NS:
            points = np.random.default_rng(47).standard_normal((n, self.D))
            peak = self.traced_peak(lambda: knn_mean_distance(points, 20))
            assert peak < self.budget(n, self.D + 2)

    def test_recall_scan(self):
        for n in self.NS:
            u, v = self.rows(n)
            assert self.traced_peak(lambda: recall_both_blocked(u, v)) < self.budget(n, self.D)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
    def test_pca_projection_packs_no_copy(self):
        # A fresh process, whose BLAS and LAPACK have each run once, so that
        # loading their code does not count.  The n x 2 projection with the
        # tall operand on the left raised the peak by about 10 MB at 20k x 64
        # rows, a copy of the rows; with it on the right, the PCA adds about
        # 0.9 MB, the covariance product's buffers and the projection itself.
        script = """
import numpy as np
from protocurate.analysis import _pca2_centered
def hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM"))
rows = np.random.default_rng(48).standard_normal((20000, 64))
rows -= rows.mean(axis=0)
np.linalg.eigh(rows[:64, :64].T @ rows[:64, :64])
before = hwm()
_pca2_centered(rows)
print(hwm() - before)
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert int(out.stdout) < 2 * 1024  # kB
