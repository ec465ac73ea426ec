"""Curation loop: trimming, distant retention, FPS, full-epoch runs."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from protocurate import curation, prototypes
from protocurate.config import EngineConfig
from protocurate.curation import (
    RECORD,
    CuratedSelection,
    curate_superbatch,
    fps_select,
    run_curation,
    select_distant,
    trim_outliers,
)
from protocurate.errors import (
    FormatError,
    InsufficientWarmupError,
    NumericalFailureError,
    UsageError,
)
from protocurate.io import commit_outputs
from protocurate.prototypes import init_kmeans
from protocurate.synth import generate_corpus


def small_cfg(**overrides):
    base = dict(
        superbatch_size=64,
        warmup_samples=128,
        K=4,
        seed=0,
        epsilon=0.05,
        max_iters=50000,
        tol=1e-6,
    )
    base.update(overrides)
    return EngineConfig(**base)


def small_corpus(n, seed=0, d=8):
    cfg = EngineConfig(
        n_samples=n,
        clusters=4,
        cluster_weights=(0.55, 0.25, 0.12, 0.08),
        d_img=d,
        d_txt=d,
        rho=0.9,
        noise_scale=0.5,
        mean_scale=2.0,
        seed=seed,
    )
    corpus, _ = generate_corpus(cfg)
    return corpus


class TestTrimOutliers:
    def test_counts_at_default_fraction(self):
        rng = np.random.default_rng(0)
        m = 640
        ids = np.arange(m, dtype=np.uint64)
        dist = rng.random(m)
        kept, trimmed = trim_outliers(ids, dist, 0.05)
        assert len(trimmed) == 32
        assert len(kept) == 608
        # trimmed are exactly the largest distances
        assert dist[trimmed].min() >= dist[kept].max()
        # kept comes back in input order
        assert np.array_equal(kept, np.sort(kept))

    def test_zero_trim_when_floor_vanishes(self):
        ids = np.arange(19, dtype=np.uint64)
        kept, trimmed = trim_outliers(ids, np.random.default_rng(1).random(19), 0.05)
        assert len(trimmed) == 0
        assert np.array_equal(kept, np.arange(19))
        assert kept.dtype == trimmed.dtype == np.int64

    def test_tie_trims_larger_id_first(self):
        ids = np.array([10, 3, 7], dtype=np.uint64)
        dist = np.array([1.0, 1.0, 0.5])
        kept, trimmed = trim_outliers(ids, dist, 1.0 / 3.0)
        assert list(trimmed) == [0]  # id 10 loses the tie against id 3
        assert list(kept) == [1, 2]

    def test_partition_is_exact(self):
        rng = np.random.default_rng(2)
        ids = rng.permutation(100).astype(np.uint64)
        dist = rng.random(100)
        kept, trimmed = trim_outliers(ids, dist, 0.13)
        together = np.sort(np.concatenate([kept, trimmed]))
        assert np.array_equal(together, np.arange(100))


class TestSelectDistant:
    def test_counts_after_default_trim(self):
        rng = np.random.default_rng(3)
        m = 608
        ids = np.arange(m, dtype=np.uint64)
        dist = rng.random(m)
        distant, pool = select_distant(ids, dist, 0.10)
        assert len(distant) == 60
        assert len(pool) == 548
        assert dist[distant].min() >= dist[pool].max()
        # selection order: distance descending
        assert np.all(np.diff(dist[distant]) <= 0)

    def test_tie_prefers_smaller_id(self):
        ids = np.array([5, 2, 9], dtype=np.uint64)
        dist = np.array([2.0, 2.0, 1.0])
        distant, pool = select_distant(ids, dist, 1.0 / 3.0)
        assert list(distant) == [1]  # id 2 wins the tie against id 5
        assert list(pool) == [0, 2]

    def test_zero_keep(self):
        ids = np.arange(9, dtype=np.uint64)
        distant, pool = select_distant(ids, np.ones(9), 0.10)
        assert len(distant) == 0
        assert np.array_equal(pool, np.arange(9))
        assert distant.dtype == pool.dtype == np.int64


def naive_fps(points, ids, budget, anchor):
    """Reference greedy max-min with explicit loops (oracle)."""
    n = len(points)
    if n <= budget:
        return list(range(n))
    remaining = set(range(n))

    def best_of(score):
        top = max(score[i] for i in remaining)
        cands = [i for i in remaining if score[i] == top]
        return min(cands, key=lambda i: ids[i])

    d_anchor = [float(np.linalg.norm(points[i] - anchor)) for i in range(n)]
    first = best_of(d_anchor)
    picks = [first]
    remaining.discard(first)
    while len(picks) < budget:
        score = [
            min(float(np.linalg.norm(points[i] - points[j])) for j in picks)
            for i in range(n)
        ]
        nxt = best_of(score)
        picks.append(nxt)
        remaining.discard(nxt)
    return picks


class TestFpsSelect:
    def test_collinear_trace(self):
        points = np.arange(10.0)[:, None]
        ids = np.arange(10, dtype=np.uint64)
        picks = fps_select(points, ids, 3, anchor=np.array([0.0]))
        assert list(picks) == [9, 0, 4]

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(30):
            n = int(rng.integers(2, 13))
            d = int(rng.integers(1, 4))
            points = rng.standard_normal((n, d))
            ids = rng.permutation(1000)[:n].astype(np.uint64)
            budget = int(rng.integers(1, n + 1))
            anchor = rng.standard_normal(d)
            got = list(fps_select(points, ids, budget, anchor))
            want = naive_fps(points, ids, budget, anchor)
            assert got == want, (trial, got, want)

    def test_budget_covers_everything(self):
        points = np.random.default_rng(5).standard_normal((4, 2))
        ids = np.array([9, 1, 5, 3], dtype=np.uint64)
        assert list(fps_select(points, ids, 4, np.zeros(2))) == [0, 1, 2, 3]
        assert list(fps_select(points, ids, 10, np.zeros(2))) == [0, 1, 2, 3]

    def test_identical_points_tie_by_id(self):
        points = np.ones((5, 2))
        ids = np.array([40, 10, 30, 20, 50], dtype=np.uint64)
        picks = fps_select(points, ids, 3, anchor=np.zeros(2))
        # every distance ties, so picks walk the ids in ascending order
        assert list(ids[picks]) == [10, 20, 30]

    def test_bad_budget(self):
        with pytest.raises(UsageError):
            fps_select(np.zeros((3, 2)), np.arange(3, dtype=np.uint64), 0, np.zeros(2))


def unit_rows(rng, n, d):
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def assert_direct_picks(points, ids, budget, anchor):
    """``fps_select`` picks what the three-pass loop picks, in the same order."""
    got = fps_select(points, ids, budget, anchor)
    want = oracles.fps_select_direct(points, ids, budget, anchor)
    assert got.tolist() == want.tolist()


class TestFpsFilterAndRefine:
    """The Gram filter decides nothing the direct loop would decide otherwise."""

    @pytest.mark.parametrize("seed", range(3))
    def test_unit_clusters(self, seed):
        rng = np.random.default_rng(seed)
        points = unit_rows(rng, 900, 256)
        ids = rng.permutation(10**6)[:900].astype(np.uint64)
        anchor = points[:50].mean(axis=0)  # a prototype sits inside its cluster
        for budget in (10, 40):
            assert_direct_picks(points, ids, budget, anchor)

    def test_distances_a_few_ulps_apart(self):
        # Nine scalings of each of 8 unit directions, 2^-53 apart: from the
        # anchor at 0, and from any pick, a group's distances differ by 1-4
        # ulps, some equal after the sqrt; the filter's error is far larger.
        rng = np.random.default_rng(5)
        steps = 1.0 + np.arange(9) * 2.0**-53
        groups = unit_rows(rng, 8, 256)[:, None, :] * steps[None, :, None]
        for group in groups:
            dist = np.linalg.norm(group, axis=1)
            assert 1 <= (dist.max() - dist.min()) / np.spacing(dist.max()) <= 4
        points = np.vstack([groups.reshape(-1, 256), 0.5 * unit_rows(rng, 300, 256)])
        order = rng.permutation(len(points))
        ids = rng.permutation(10**6)[: len(points)].astype(np.uint64)
        for budget in (8, 20):
            assert_direct_picks(points[order], ids, budget, np.zeros(256))

    def test_duplicates_tie_by_id(self):
        # 20 distinct rows, 400 copies: after the 20th pick every min distance
        # is 0 exactly, and the picks walk the remaining ids in order.
        rng = np.random.default_rng(6)
        base = unit_rows(rng, 20, 64)
        points = base[rng.integers(0, 20, size=400)]
        ids = rng.permutation(10**6)[:400].astype(np.uint64)
        for anchor in (base.mean(axis=0), points[0]):
            assert_direct_picks(points, ids, 30, anchor)

    @pytest.mark.parametrize("scale", [1e-170, 1e-150, 1e150, 1e160])
    def test_scaled_rows(self, scale):
        # 10^+-150 keeps the direct sums in range; 10^160 overflows them and
        # 10^-170 underflows them, where the margin refines every row.
        rng = np.random.default_rng(7)
        base = unit_rows(rng, 200, 64)
        points = np.vstack([base, base[:40] * (1.0 + 2.0**-52)]) * scale
        ids = rng.permutation(10**6)[: len(points)].astype(np.uint64)
        with np.errstate(over="ignore"):
            assert_direct_picks(points, ids, 12, base.mean(axis=0) * scale)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 24),
        d=st.integers(1, 4),
        scale=st.sampled_from([1.0, 0.1, 1.0 / 3.0, 7.25, 1e-3]),
        data=st.data(),
    )
    def test_small_lattices(self, n, d, scale, data):
        coords = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
        points = np.array(data.draw(st.lists(coords, min_size=n, max_size=n))) * scale
        anchor = np.array(data.draw(coords)) * scale
        ids = np.array(data.draw(st.permutations(range(n))), dtype=np.uint64) * 3 + 1
        budget = data.draw(st.integers(1, n + 1))
        assert_direct_picks(points, ids, budget, anchor)


class TestCurateSuperbatch:
    def _setup(self, m=640, seed=0):
        corpus = small_corpus(1280, seed=seed)
        from protocurate.embedding import unify_batch

        z = unify_batch(corpus.img, corpus.txt, "concat")
        bank = init_kmeans(z[:512], 6, max_iters=100, seed=seed, ema_alpha=0.1)
        sb = slice(512, 512 + m)
        return z[sb], corpus.ids[sb], bank

    def test_default_arithmetic(self):
        z, ids, bank = self._setup()
        cfg = EngineConfig()
        records, stats = curate_superbatch(z, ids, bank, cfg)
        assert stats["superbatch"] == 640
        assert stats["trimmed"] == 32
        assert stats["distant"] == 60
        assert stats["pool"] == 548
        assert stats["fps"] <= 60  # 6 clusters x budget 10
        assert stats["minibatch"] == stats["distant"] + stats["fps"]
        assert len(records) == stats["minibatch"] <= 120

    def test_record_structure(self):
        z, ids, bank = self._setup(seed=1)
        records, stats = curate_superbatch(z, ids, bank, EngineConfig())
        assert records.dtype == RECORD
        # a record's row is the sample's position in the super-batch
        assert np.all((0 <= records["row"]) & (records["row"] < len(ids)))
        assert np.array_equal(records["id"], ids[records["row"]])
        assert len(np.unique(records["id"])) == len(records)
        assert np.all(records["iteration"] == 0)  # run_curation stamps it
        assert set(records["reason"]) <= {"distant", "fps"}
        assert np.all((0 <= records["proto"]) & (records["proto"] < bank.k))
        assert np.all(records["distance"] >= 0.0)
        n_distant = stats["distant"]
        # distant block leads and is sorted by distance descending
        assert np.all(records["reason"][:n_distant] == "distant")
        assert np.all(records["reason"][n_distant:] == "fps")
        dd = records["distance"][:n_distant]
        assert np.all(dd[:-1] >= dd[1:])
        # retained distances dominate the pooled ones
        assert n_distant and len(records) > n_distant
        assert dd.min() >= records["distance"][n_distant:].max()

    def test_mutates_bank(self):
        z, ids, bank = self._setup(seed=2)
        before = bank.protos.copy()
        curate_superbatch(z, ids, bank, EngineConfig())
        assert bank.update_count == 1
        assert not np.array_equal(bank.protos, before)

    def test_single_sample_superbatch(self):
        z, ids, bank = self._setup(m=1, seed=3)
        records, stats = curate_superbatch(z, ids, bank, EngineConfig())
        assert stats["trimmed"] == 0
        assert stats["distant"] == 0
        assert stats["pool"] == 1
        assert len(records) == 1
        assert records["reason"][0] == "fps"

    def test_sinkhorn_stats_recorded(self):
        z, ids, bank = self._setup(seed=5)
        cfg = EngineConfig()
        _, stats = curate_superbatch(z, ids, bank, cfg)
        assert stats["pool_sinkhorn_iterations"] >= 1
        assert stats["pool_sinkhorn_residual"] <= cfg.tol
        assert stats["update_sinkhorn_iterations"] >= 1
        assert stats["update_sinkhorn_residual"] <= cfg.tol


class TestRunCuration:
    def test_single_iteration_counts(self):
        corpus = small_corpus(128 + 64)
        cfg = small_cfg()
        selection, bank = run_curation(corpus, cfg)
        assert len(selection.stats) == 1
        st = selection.stats[0]
        assert st["superbatch"] == 64
        assert st["trimmed"] == 3
        assert st["distant"] == 6
        assert st["pool"] == 55
        assert st["iteration"] == 1
        assert st["emitted"] == len(selection)
        assert len(selection) <= 6 + 4 * 10
        assert bank.update_count == 1

    def test_multi_iteration_stream(self):
        corpus = small_corpus(128 + 3 * 64)
        selection, bank = run_curation(corpus, small_cfg())
        assert [s["iteration"] for s in selection.stats] == [1, 2, 3]
        assert bank.update_count == 3
        assert np.unique(selection.records["iteration"]).tolist() == [1, 2, 3]
        ids = selection.records["id"]
        assert len(np.unique(ids)) == len(ids)
        # each record's row is the corpus row of its id
        assert np.array_equal(corpus.ids[selection.records["row"]], ids)

    def test_ragged_final_superbatch(self):
        corpus = small_corpus(128 + 64 + 20)
        selection, _ = run_curation(corpus, small_cfg())
        assert selection.stats[-1]["superbatch"] == 20

    def test_deterministic_repeat(self):
        corpus = small_corpus(128 + 2 * 64, seed=6)
        a, _ = run_curation(corpus, small_cfg())
        b, _ = run_curation(corpus, small_cfg())
        assert a.to_csv() == b.to_csv()

    def test_seed_changes_selection(self):
        corpus = small_corpus(128 + 2 * 64, seed=7)
        a, _ = run_curation(corpus, small_cfg(seed=0))
        b, _ = run_curation(corpus, small_cfg(seed=1))
        assert a.to_csv() != b.to_csv()

    def test_target_truncates_exactly(self):
        corpus = small_corpus(128 + 3 * 64, seed=8)
        full, _ = run_curation(corpus, small_cfg())
        assert len(full) > 20
        capped, _ = run_curation(corpus, small_cfg(target_subset_size=20))
        assert len(capped) == 20
        assert np.array_equal(capped.records, full.records[:20])

    def test_warmup_shortfall_raises(self):
        # A corpus of exactly the warm-up leaves an empty stream: refused alike.
        for n in (100, small_cfg().warmup_samples):
            with pytest.raises(InsufficientWarmupError, match="more samples than the warm-up"):
                run_curation(small_corpus(n), small_cfg())

    def test_warmup_rows_never_selected(self):
        corpus = small_corpus(128 + 2 * 64, seed=9)
        cfg = small_cfg()
        rng = np.random.default_rng(cfg.seed)
        warm_rows = rng.permutation(corpus.n)[: cfg.warmup_samples]
        warm_ids = set(int(i) for i in corpus.ids[warm_rows])
        got = set(run_curation(corpus, cfg)[0].records["id"].tolist())
        assert not (got & warm_ids)

    def test_minibatch_callback_sees_selected_rows(self):
        corpus = small_corpus(128 + 2 * 64, seed=10)
        seen = []
        selection, _ = run_curation(corpus, small_cfg(), on_minibatch=seen.append)
        assert len(seen) == 2
        assert np.array_equal(np.concatenate(seen), selection.records["row"])

        # a target that runs out three records into the second mini-batch
        first = selection.stats[0]["emitted"]
        seen = []
        capped, _ = run_curation(
            corpus, small_cfg(target_subset_size=first + 3), on_minibatch=seen.append
        )
        assert [len(rows) for rows in seen] == [first, 3]
        assert np.array_equal(np.concatenate(seen), capped.records["row"])
        assert np.array_equal(capped.records, selection.records[: first + 3])

    def test_bytes_of_the_direct_forms(self, monkeypatch):
        # A 128+128 corpus at epsilon 0.5: the filtered FPS, the one-buffer
        # unify_batch and the blocked Sinkhorn sweeps curate the bytes, and
        # count the sweeps, of the three-pass loop, the hstack and the
        # one-sweep loop.
        corpus = small_corpus(3000, seed=3, d=128)
        cfg = small_cfg(superbatch_size=512, warmup_samples=512, K=6, epsilon=0.5)
        selection, bank = run_curation(corpus, cfg)
        monkeypatch.setattr(curation, "fps_select", oracles.fps_select_direct)
        monkeypatch.setattr(curation, "unify_batch", oracles.unify_batch_direct)
        monkeypatch.setattr(prototypes, "sinkhorn_from_cost", oracles.sinkhorn_from_cost_direct)
        direct, direct_bank = run_curation(corpus, cfg)
        assert len(selection.stats) == 5 and selection.stats == direct.stats
        assert selection.records.tobytes() == direct.records.tobytes()
        assert bank.protos.tobytes() == direct_bank.protos.tobytes()

    def test_frozen_embeds_one_superbatch_at_a_time(self, monkeypatch):
        corpus = small_corpus(128 + 3 * 64 + 20, seed=12)
        cfg = small_cfg()
        embed = curation.unify_batch
        sizes = []

        def recording(img, txt, mode="concat"):
            sizes.append(len(img))
            return embed(img, txt, mode)

        monkeypatch.setattr(curation, "unify_batch", recording)
        run_curation(corpus, cfg)
        assert sizes == [128, 64, 64, 64, 20]  # warm-up rows, then each super-batch
        assert max(sizes) <= max(cfg.warmup_samples, cfg.superbatch_size)

    def test_solver_failure_names_solve_and_iteration(self, monkeypatch):
        # Each iteration solves the pool, then the mini-batch update: fail the
        # fourth solve, the update of iteration 2.
        corpus = small_corpus(128 + 3 * 64, seed=11)
        solve = curation.sinkhorn_plan
        calls = []

        def fourth_fails(*args, **kwargs):
            plan = solve(*args, **kwargs)
            calls.append(plan)
            return dataclasses.replace(plan, converged=len(calls) != 4)

        monkeypatch.setattr(curation, "sinkhorn_plan", fourth_fails)
        with pytest.raises(
            NumericalFailureError, match="^curation iteration 2: .* mini-batch update solve"
        ):
            run_curation(corpus, small_cfg())
        assert len(calls) == 4


class TestSelectionCsv:
    HEADER = "id,iteration,reason,proto,distance\n"

    @staticmethod
    def read(tmp_path, text, corpus=None):
        path = tmp_path / "sel.csv"
        path.write_text(text)
        return CuratedSelection.read_csv(path, corpus or small_corpus(16))

    @staticmethod
    def named(tmp_path):
        """Pattern of the message prefix that names the file ``read`` wrote."""
        return f"^selection file {re.escape(str(tmp_path / 'sel.csv'))}"

    def test_round_trip(self, tmp_path):
        corpus = small_corpus(128 + 2 * 64, seed=11)
        selection, _ = run_curation(corpus, small_cfg())
        text = selection.to_csv()
        assert text.startswith(self.HEADER)
        back = self.read(tmp_path, text, corpus)
        assert back.records.dtype == RECORD
        assert np.array_equal(back.records, selection.records)  # row included
        assert back.to_csv() == text

    def test_matches_per_line_oracle(self):
        corpus = small_corpus(128 + 2 * 64, seed=14)
        selection, _ = run_curation(corpus, small_cfg())
        assert selection.to_csv() == oracles.selection_csv(selection.records)

    def test_file_round_trip(self, tmp_path):
        corpus = small_corpus(128 + 64, seed=12)
        selection, _ = run_curation(corpus, small_cfg())
        p = tmp_path / "sel.csv"
        commit_outputs([(p, selection.to_csv())])
        assert p.read_text().startswith(self.HEADER)
        back = CuratedSelection.read_csv(p, corpus)
        assert np.array_equal(back.records, selection.records)

    def test_bad_header(self, tmp_path):
        with pytest.raises(FormatError, match=self.named(tmp_path) + ": .*header"):
            self.read(tmp_path, "id,reason\n1,fps\n")

    def test_bad_reason(self, tmp_path):
        with pytest.raises(FormatError, match="reason"):
            self.read(tmp_path, self.HEADER + "1,1,outlier,0,0.5\n")

    def test_malformed_field(self, tmp_path):
        with pytest.raises(FormatError, match="line 2"):
            self.read(tmp_path, self.HEADER + "x,1,fps,0,0.5\n")

    # Numerals int() and float() read but the writer never writes.
    @pytest.mark.parametrize("line", [
        "1_0,1,fps,0,0.5",
        "10,1,fps,0,0_5",
        " 10,1,fps,0,0.5",
        "+10,1,fps,0,0.5",
        "\u0661\u0660,1,fps,0,0.5",
        "10,1,fps,0, 0.5",
        "10,1,fps,0,+0.5",
        "10,1,fps,0,0.5 ",
        "10,\u0661,fps,0,0.5",
        "10,1,fps,\uff10,0.5",
        "010,1,fps,0,0.5",
        "-0,1,fps,0,0.5",
        "10,1,fps,0,5e-1",
        "10,1,fps,0,0.50",
        "10,1,fps,0,1E-05",
    ], ids=["id-underscore", "distance-underscore", "id-space", "id-plus", "id-arabic-indic",
            "distance-space", "distance-plus", "distance-trailing-space", "iteration-arabic-indic",
            "proto-fullwidth", "id-leading-zero", "id-minus-zero", "distance-exponent",
            "distance-trailing-zero", "distance-capital-exponent"])
    def test_numeral_the_writer_never_writes(self, tmp_path, line):
        good = self.HEADER + "1,1,fps,0,0.5\n"
        with pytest.raises(FormatError, match=f"{self.named(tmp_path)}: line 3: malformed field$"):
            self.read(tmp_path, good + line + "\n")

    def test_crlf_line_ends_accepted(self, tmp_path):
        corpus = small_corpus(16)
        text = self.HEADER + f"{corpus.ids[3]},1,fps,0,0.5\n{corpus.ids[5]},2,distant,1,1e-05\n"
        back = self.read(tmp_path, text.replace("\n", "\r\n"), corpus)
        assert back.records["row"].tolist() == [3, 5]
        assert back.records["distance"].tolist() == [0.5, 1e-05]

    # Characters other than "\n" that str.splitlines also breaks lines at: one
    # joins the records of line 3 into one line of 9 fields.
    @pytest.mark.parametrize("sep", ["\r", "\v", "\f", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_lines_end_at_newline_alone(self, tmp_path, sep):
        corpus = small_corpus(16)
        ids = corpus.ids
        line = f"{ids[5]},2,distant,1,1e-05{sep}{ids[7]},2,fps,0,0.5"
        text = self.HEADER + f"{ids[3]},1,fps,0,0.5\n{line}\n"
        with pytest.raises(FormatError, match=f"{self.named(tmp_path)}: line 3: expected 5 fields$"):
            self.read(tmp_path, text, corpus)

    @pytest.mark.parametrize("line, detail", [
        ("5,0,fps,0,0.5", "iteration 0 out of range"),
        ("5,-1,fps,0,0.5", "iteration -1 out of range"),
        ("5,1,fps,-7,0.5", "proto -7 out of range"),
        ("5,1,fps,0,-0.5", "distance -0.5 out of range"),
        ("5,1,fps,0,nan", "distance nan out of range"),
        ("5,1,distant,0,inf", "distance inf out of range"),
        ("5,-1,fps,-7,nan", "iteration -1 out of range"),
        (f"5,{2**63},fps,0,0.5", f"iteration {2**63} out of range"),
        (f"5,1,fps,{2**63},0.5", f"proto {2**63} out of range"),
    ])
    def test_field_out_of_range(self, tmp_path, line, detail):
        good = self.HEADER + "1,1,fps,0,0.5\n"
        with pytest.raises(FormatError, match=f"{self.named(tmp_path)}: line 3: {detail}$"):
            self.read(tmp_path, good + line + "\n")

    def test_empty_selection(self, tmp_path):
        with pytest.raises(UsageError, match=self.named(tmp_path) + ": holds no samples$"):
            self.read(tmp_path, self.HEADER)

    def test_id_not_in_corpus(self, tmp_path):
        corpus = small_corpus(16)
        text = self.HEADER + f"{corpus.ids[3]},1,fps,0,0.5\n987654321,1,fps,0,0.5\n"
        with pytest.raises(
            UsageError,
            match=self.named(tmp_path) + ": sample id 987654321 not present in corpus$",
        ):
            self.read(tmp_path, text, corpus)

    def test_stats_json(self):
        corpus = small_corpus(128 + 64, seed=13)
        selection, _ = run_curation(corpus, small_cfg())
        import json

        data = json.loads(selection.stats_json())
        assert data[0]["superbatch"] == 64
