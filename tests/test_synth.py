"""Synthetic long-tailed corpus generator and prompt embeddings."""

import json
import tracemalloc

import numpy as np
import pytest

from protocurate.cli import main
from protocurate.config import EngineConfig
from protocurate.errors import ConfigError, FormatError
from protocurate.io import commit_outputs, encode_corpus, read_corpus
from protocurate.metrics import evaluate_zero_shot
from protocurate.synth import (
    GEN_ROWS,
    generate_corpus,
    manifest_json,
    prompts_json,
    read_prompts,
)
from protocurate.trainer import identity_head

from oracles import generate_corpus_direct


def small_cfg(**kw):
    base = dict(
        n_samples=2000,
        clusters=6,
        cluster_weights=(0.70, 0.15, 0.07, 0.04, 0.025, 0.015),
        d_img=8,
        d_txt=8,
        rho=0.9,
        noise_scale=0.3,
        mean_scale=1.0,
        seed=0,
    )
    base.update(kw)
    return EngineConfig(**base)


class TestGeneration:
    def test_shapes_and_labels(self):
        corpus, _ = generate_corpus(small_cfg())
        assert corpus.n == 2000
        assert corpus.d_img == 8 and corpus.d_txt == 8
        assert corpus.n_labels == 6
        # one-hot labels: each sample is in exactly one class
        assert corpus.labels.dtype == bool
        assert np.all(corpus.labels.sum(axis=1) == 1)

    def test_determinism_same_seed(self):
        a, _ = generate_corpus(small_cfg())
        b, _ = generate_corpus(small_cfg())
        assert encode_corpus(a) == encode_corpus(b)
        assert np.array_equal(a.img, b.img)

    def test_different_seed_differs(self):
        a, _ = generate_corpus(small_cfg(seed=0))
        b, _ = generate_corpus(small_cfg(seed=1))
        assert not np.array_equal(a.img, b.img)

    def test_in_memory_matches_file_round_trip(self, tmp_path):
        corpus, _ = generate_corpus(small_cfg())
        commit_outputs([(tmp_path / "c.emb", encode_corpus(corpus))])
        back = read_corpus(tmp_path / "c.emb")
        for side in ("img", "txt"):
            assert getattr(corpus, side).dtype == getattr(back, side).dtype == np.float32
            assert np.array_equal(getattr(back, side), getattr(corpus, side))

    def test_manifest_sidecar(self, tmp_path):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text(
            "n_samples = 2000\nclusters = 6\n"
            "cluster_weights = 0.70, 0.15, 0.07, 0.04, 0.025, 0.015\n"
            "d_img = 8\nd_txt = 8\nrho = 0.9\nnoise_scale = 0.3\nmean_scale = 1.0\n"
        )
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "c.emb")]) == 0
        manifest = json.loads((tmp_path / "c.emb.manifest.json").read_text())
        assert manifest == json.loads(manifest_json(small_cfg()))
        assert manifest["n_samples"] == 2000
        assert manifest["rho"] == 0.9
        assert manifest["weights"][0] == 0.70

    def test_uniform_weights_multinomial_bounds(self):
        n = 6000
        cfg = small_cfg(n_samples=n, cluster_weights=(1 / 6,) * 6)
        corpus, _ = generate_corpus(cfg)
        fracs = corpus.labels.sum(axis=0) / n
        w = 1 / 6
        bound = 3 * np.sqrt(w * (1 - w) / n)
        assert np.all(np.abs(fracs - w) < bound)

    def test_long_tail_frequencies_track_weights(self):
        cfg = small_cfg(n_samples=20000)
        corpus, _ = generate_corpus(cfg)
        fracs = corpus.labels.sum(axis=0) / 20000
        for frac, w in zip(fracs, cfg.cluster_weights):
            assert abs(frac - w) < 3 * np.sqrt(w * (1 - w) / 20000)

    def test_rho_one_no_noise_pairs_deterministic(self):
        cfg = small_cfg(rho=1.0, noise_scale=0.0, d_img=6, d_txt=6)
        corpus, _ = generate_corpus(cfg)
        # with the identity alignment map, txt equals img exactly (f32 grid)
        assert np.array_equal(corpus.txt, corpus.img)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError, match="cluster_weights"):
            small_cfg(cluster_weights=(0.5, 0.5, 0.1, 0.1, 0.1, 0.1))
        with pytest.raises(ConfigError, match="rho"):
            small_cfg(rho=1.5)
        with pytest.raises(ConfigError, match="n_samples"):
            small_cfg(n_samples=0)


def _generated_with_next_draw(generate, cfg, monkeypatch):
    """``generate(cfg)`` and the next draw of the one generator it made."""
    made = []
    default_rng = np.random.default_rng

    def recording(seed):
        made.append(default_rng(seed))
        return made[-1]

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", recording)
        corpus, prompts = generate(cfg)
    (rng,) = made
    return corpus, prompts, rng.standard_normal(4)


class TestBlockedGeneration:
    """The row-blocked generator against the one-shot oracle, bit for bit."""

    @pytest.mark.parametrize("n", [1, 700, GEN_ROWS, 2 * GEN_ROWS + 1])
    @pytest.mark.parametrize("dims", [(8, 8), (12, 5), (3, 10)], ids=["square", "wide-img", "wide-txt"])
    @pytest.mark.parametrize("clusters", [1, 9])
    def test_matches_one_shot_oracle(self, n, dims, clusters, monkeypatch):
        cfg = small_cfg(
            n_samples=n, d_img=dims[0], d_txt=dims[1], clusters=clusters,
            cluster_weights=None, seed=n + clusters,
        )
        got = _generated_with_next_draw(generate_corpus, cfg, monkeypatch)
        want = _generated_with_next_draw(generate_corpus_direct, cfg, monkeypatch)
        for side in ("img", "txt"):
            arr, ref = getattr(got[0], side), getattr(want[0], side)
            assert arr.dtype == ref.dtype == np.float32
            assert arr.tobytes() == ref.tobytes()
        assert np.array_equal(got[0].ids, want[0].ids)
        assert np.array_equal(got[0].labels, want[0].labels)
        for got_prompt, want_prompt in zip(got[1], want[1]):
            assert got_prompt.tobytes() == want_prompt.tobytes()
        assert got[2].tobytes() == want[2].tobytes()
        assert encode_corpus(got[0]) == encode_corpus(want[0])

    def test_traced_peak_is_the_halves_and_one_float64_side(self):
        cfg = small_cfg(n_samples=50_000, d_img=64, d_txt=64)
        bound = 1.25 * (8 * cfg.d_img + 4 * (cfg.d_img + cfg.d_txt)) * cfg.n_samples
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            corpus, _ = generate_corpus(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert corpus.n == 50_000
        assert peak - base < bound


class TestPrompts:
    def test_unit_norm(self):
        _, (pos, neg) = generate_corpus(small_cfg())
        np.testing.assert_allclose(np.linalg.norm(pos, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(neg, axis=1), 1.0, atol=1e-12)

    def test_two_class_complement(self):
        cfg = small_cfg(clusters=2, cluster_weights=(0.8, 0.2))
        _, (pos, neg) = generate_corpus(cfg)
        np.testing.assert_allclose(neg[0], pos[1], atol=1e-12)
        np.testing.assert_allclose(neg[1], pos[0], atol=1e-12)

    def test_json_round_trip(self, tmp_path):
        _, (pos, neg) = generate_corpus(small_cfg())
        commit_outputs([(tmp_path / "p.json", prompts_json(pos, neg))])
        names, rpos, rneg = read_prompts(tmp_path / "p.json")
        assert names == [f"class_{i}" for i in range(6)]
        np.testing.assert_allclose(rpos, pos, atol=1e-15)
        np.testing.assert_allclose(rneg, neg, atol=1e-15)

    @pytest.mark.parametrize(
        "text",
        [
            '{"classes": [{"name": "a", "positive": [1.0], "negative": [0.0, 1.0]}]}',
            '[1, 2]',
        ],
        ids=["ragged", "not-an-object"],
    )
    def test_malformed_prompts_are_format_errors(self, tmp_path, text):
        path = tmp_path / "p.json"
        path.write_text(text)
        with pytest.raises(FormatError, match="prompts file"):
            read_prompts(path)

    @pytest.mark.parametrize(
        "name", ["a,b", "a\nb", "a\rb", 7, None, ["a"]],
        ids=["comma", "newline", "return", "number", "null", "list"],
    )
    def test_unsafe_class_name_is_format_error(self, tmp_path, name):
        entry = {"name": "ok", "positive": [1.0, 0.0], "negative": [0.0, 1.0]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"classes": [entry, dict(entry, name=name)]}))
        with pytest.raises(FormatError, match="class 1 name"):
            read_prompts(path)

    @pytest.mark.parametrize(
        "field, vector, detail",
        [
            ("positive", [float("nan"), 0.0], "class 1 positive vector has non-finite entries"),
            ("negative", [0.0, float("inf")], "class 1 negative vector has non-finite entries"),
            ("positive", [0.0, 0.0], "class 1 positive vector is all-zero"),
            ("negative", [-0.0, 0.0], "class 1 negative vector is all-zero"),
        ],
        ids=["nan-positive", "inf-negative", "zero-positive", "negative-zero-negative"],
    )
    def test_degenerate_vector_is_format_error(self, tmp_path, field, vector, detail):
        entry = {"name": "ok", "positive": [1.0, 0.0], "negative": [0.0, 1.0]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"classes": [entry, dict(entry, **{field: vector})]}))
        with pytest.raises(FormatError, match=f"prompts file .*p.json: {detail}"):
            read_prompts(path)

    def test_identity_head_perfect_separation_auroc(self):
        # well-separated clusters, fully aligned text: zero-shot with the raw
        # (identity-projected) embeddings must rank every class perfectly
        cfg = small_cfg(
            n_samples=600, rho=1.0, noise_scale=0.05, mean_scale=4.0, seed=3
        )
        corpus, (pos, neg) = generate_corpus(cfg)
        names = [f"c{i}" for i in range(6)]
        head = identity_head(corpus.d_img)
        report = evaluate_zero_shot(head, corpus.img, corpus.txt, corpus.labels, names, pos, neg, 1.0)
        assert report.macro_auroc == 1.0
