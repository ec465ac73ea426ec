"""End-to-end CLI behavior: subcommands, artifacts, exit codes."""

import dataclasses
import json
import os
import pathlib
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

import protocurate
from oracles import load_bank
from protocurate.cli import main
from protocurate.config import load_config
from protocurate.curation import CuratedSelection
from protocurate.io import Corpus, commit_outputs, encode_corpus, read_corpus
from protocurate.synth import generate_corpus, prompts_json
from protocurate.trainer import encode_head, init_head, load_head

SMALL_CONFIG = """\
# compact setup for fast end-to-end runs
n_samples = 320
clusters = 4
cluster_weights = 0.55, 0.25, 0.12, 0.08
d_img = 8
d_txt = 8
noise_scale = 0.5
mean_scale = 2.0
superbatch_size = 64
warmup_samples = 128
K = 4
proj_dim = 8
epochs = 3
batch_size = 16
learning_rate = 0.001
knn_k = 5
"""


def run_cli(*argv):
    """Run the CLI in a child process: (exit code, stderr), tracebacks included."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(protocurate.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "protocurate.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
    )
    return done.returncode, done.stderr


def assert_one_line_error(stderr):
    assert "Traceback" not in stderr
    lines = stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), stderr


# The output options of each command that takes --selection, under a directory.
SELECTION_OUTPUTS = {
    "train": lambda d: ["--head-out", str(d / "h.bin"), "--loss-out", str(d / "l.csv")],
    "analyze": lambda d: ["--out-dir", str(d / "analysis")],
}


# The outputs of each command that reads a corpus, under a directory.
CORPUS_READERS = {
    "curate": lambda ws, d: [
        "curate", "--out", d / "s.csv", "--proto-out", d / "p.bin", "--stats-out", d / "st.json",
    ],
    "train-selection": lambda ws, d: [
        "train", "--selection", ws["selection"], *SELECTION_OUTPUTS["train"](d),
    ],
    "train-joint": lambda ws, d: [
        "train", *SELECTION_OUTPUTS["train"](d), "--selection-out", d / "s.csv",
        "--proto-out", d / "p.bin", "--stats-out", d / "st.json",
    ],
    "eval": lambda ws, d: [
        "eval", "--prompts", ws["prompts"], "--out", d / "m.json", "--csv-out", d / "m.csv",
    ],
    "analyze": lambda ws, d: [
        "analyze", "--selection", ws["selection"], *SELECTION_OUTPUTS["analyze"](d),
    ],
}


def _nan_img(corpus):
    corpus.img[7, 2] = np.nan
    return f"sample id {int(corpus.ids[7])} has non-finite img vector"


def _zero_txt(corpus):
    corpus.txt[11] = 0.0
    return f"sample id {int(corpus.ids[11])} has all-zero txt vector"


def _duplicate_id(corpus):
    corpus.ids[9] = corpus.ids[4]
    return f"duplicate sample id {int(corpus.ids[4])} in corpus"


# Rows the codec keeps but the corpus check refuses: each edits a writable
# corpus and returns the check's message.
CORPUS_DEFECTS = {"nan-img": _nan_img, "zero-txt": _zero_txt, "duplicate-id": _duplicate_id}


def set_prompt_vector(doc, index, field, make):
    """JSON text of a prompts document with one class's vector replaced by ``make(vector)``."""
    entry = doc["classes"][index]
    entry[field] = make(entry[field])
    return json.dumps(doc)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One happy-path pipeline run shared by the artifact tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "engine.cfg"
    cfg.write_text(SMALL_CONFIG)
    paths = {
        "root": root,
        "cfg": str(cfg),
        "corpus": str(root / "corpus.bin"),
        "prompts": str(root / "prompts.json"),
        "selection": str(root / "selection.csv"),
        "protos": str(root / "protos.bin"),
        "stats": str(root / "stats.json"),
        "head": str(root / "head.bin"),
        "loss": str(root / "loss.csv"),
        "report": str(root / "metrics.json"),
        "report_csv": str(root / "metrics.csv"),
        "analysis": str(root / "analysis"),
    }
    codes = {}
    codes["generate"] = main(
        [
            "generate",
            "--config", paths["cfg"],
            "--out", paths["corpus"],
            "--prompts-out", paths["prompts"],
        ]
    )
    codes["curate"] = main(
        [
            "curate",
            "--config", paths["cfg"],
            "--corpus", paths["corpus"],
            "--out", paths["selection"],
            "--proto-out", paths["protos"],
            "--stats-out", paths["stats"],
        ]
    )
    codes["train"] = main(
        [
            "train",
            "--config", paths["cfg"],
            "--corpus", paths["corpus"],
            "--selection", paths["selection"],
            "--head-out", paths["head"],
            "--loss-out", paths["loss"],
        ]
    )
    codes["eval"] = main(
        [
            "eval",
            "--config", paths["cfg"],
            "--corpus", paths["corpus"],
            "--prompts", paths["prompts"],
            "--out", paths["report"],
            "--csv-out", paths["report_csv"],
        ]
    )
    codes["analyze"] = main(
        [
            "analyze",
            "--config", paths["cfg"],
            "--corpus", paths["corpus"],
            "--selection", paths["selection"],
            "--out-dir", paths["analysis"],
        ]
    )
    paths["codes"] = codes
    return paths


class TestHappyPath:
    def test_every_stage_exits_zero(self, workspace):
        assert workspace["codes"] == {
            "generate": 0,
            "curate": 0,
            "train": 0,
            "eval": 0,
            "analyze": 0,
        }

    def test_generate_artifacts(self, workspace):
        root = workspace["root"]
        assert (root / "corpus.bin").stat().st_size > 28
        manifest = json.loads((root / "corpus.bin.manifest.json").read_text())
        assert manifest["n_samples"] == 320
        prompts = json.loads((root / "prompts.json").read_text())
        assert len(prompts["classes"]) == 4

    def test_generate_prompts_are_the_corpus_draw(self, workspace):
        _, prompts = generate_corpus(load_config(workspace["cfg"]))
        assert (workspace["root"] / "prompts.json").read_text() == prompts_json(*prompts)

    def test_curate_artifacts(self, workspace):
        corpus = read_corpus(workspace["corpus"])
        selection = CuratedSelection.read_csv(workspace["selection"], corpus)
        assert 0 < len(selection) <= 3 * (6 + 4 * 10)
        bank = load_bank(workspace["protos"])
        assert bank.protos.shape == (4, 16)  # K x concat dim
        assert bank.update_count == 3
        stats = json.loads(open(workspace["stats"]).read())
        assert [s["iteration"] for s in stats] == [1, 2, 3]

    def test_train_artifacts(self, workspace):
        head = load_head(workspace["head"])
        assert head.W_img.shape == (8, 8)
        lines = open(workspace["loss"]).read().splitlines()
        assert lines[0] == "step,epoch,lr,loss"
        assert len(lines) > 3

    def test_eval_artifacts(self, workspace):
        report = json.loads(open(workspace["report"]).read())
        assert report["n_samples"] == 320
        assert 0.0 <= report["macro_auroc"] <= 1.0
        assert len(report["per_class"]) == 4
        csv_lines = open(workspace["report_csv"]).read().splitlines()
        assert csv_lines[0] == "class,auroc,auprc,n_pos,n_neg"
        assert len(csv_lines) == 5

    def test_analyze_artifacts(self, workspace):
        root = workspace["root"]
        names = {p.name for p in (root / "analysis").iterdir()}
        assert names >= {
            "knn_profile.csv",
            "ecdf_full.csv",
            "ecdf_subset.csv",
            "pca2.csv",
            "tests.json",
            "labels.csv",
        }
        tests = json.loads((root / "analysis" / "tests.json").read_text())
        assert "welch_subset_vs_full" in tests
        assert 0.0 <= tests["low_density_proportion"] <= 1.0


class TestDeterminism:
    def test_generate_reproducible_bytes(self, workspace, tmp_path):
        out = tmp_path / "again.bin"
        assert main(["generate", "--config", workspace["cfg"], "--out", str(out)]) == 0
        assert out.read_bytes() == open(workspace["corpus"], "rb").read()

    def test_curate_reproducible_bytes(self, workspace, tmp_path):
        out = tmp_path / "sel.csv"
        code = main(
            [
                "curate",
                "--config", workspace["cfg"],
                "--corpus", workspace["corpus"],
                "--out", str(out),
                "--proto-out", str(tmp_path / "p.bin"),
            ]
        )
        assert code == 0
        assert out.read_text() == open(workspace["selection"]).read()

    def test_seed_override_changes_selection(self, workspace, tmp_path):
        out = tmp_path / "sel.csv"
        code = main(
            [
                "curate",
                "--config", workspace["cfg"],
                "--seed", "7",
                "--corpus", workspace["corpus"],
                "--out", str(out),
                "--proto-out", str(tmp_path / "p.bin"),
            ]
        )
        assert code == 0
        assert out.read_text() != open(workspace["selection"]).read()


class TestModes:
    def test_curate_target_size(self, workspace, tmp_path):
        out = tmp_path / "sel.csv"
        code = main(
            [
                "curate",
                "--config", workspace["cfg"],
                "--corpus", workspace["corpus"],
                "--out", str(out),
                "--proto-out", str(tmp_path / "p.bin"),
                "--target-size", "10",
            ]
        )
        assert code == 0
        assert len(CuratedSelection.read_csv(out, read_corpus(workspace["corpus"]))) == 10

    def test_train_joint_writes_selection_and_bank(self, workspace, tmp_path):
        code = main(
            [
                "train",
                "--config", workspace["cfg"],
                "--corpus", workspace["corpus"],
                "--head-out", str(tmp_path / "h.bin"),
                "--loss-out", str(tmp_path / "l.csv"),
                "--selection-out", str(tmp_path / "s.csv"),
                "--proto-out", str(tmp_path / "p.bin"),
                "--stats-out", str(tmp_path / "stats.json"),
            ]
        )
        assert code == 0
        sel = CuratedSelection.read_csv(tmp_path / "s.csv", read_corpus(workspace["corpus"]))
        assert len(sel) > 0
        assert load_bank(tmp_path / "p.bin").update_count == 3
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert [s["iteration"] for s in stats] == [1, 2, 3]
        assert sum(s["emitted"] for s in stats) == len(sel)
        head = load_head(tmp_path / "h.bin")
        assert head.W_img.shape == (8, 8)

    def test_eval_with_trained_head(self, workspace, tmp_path):
        out = tmp_path / "m.json"
        code = main(
            [
                "eval",
                "--config", workspace["cfg"],
                "--corpus", workspace["corpus"],
                "--prompts", workspace["prompts"],
                "--head", workspace["head"],
                "--out", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["n_samples"] == 320

    def test_analyze_without_selection(self, workspace, tmp_path):
        out = tmp_path / "bundle"
        code = main(
            [
                "analyze",
                "--config", workspace["cfg"],
                "--corpus", workspace["corpus"],
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        assert not (out / "ecdf_subset.csv").exists()


class TestFailureModes:
    def test_missing_corpus_is_io_error(self, workspace, tmp_path, capsys):
        missing = str(tmp_path / "nope.bin")
        code = main(
            [
                "curate",
                "--config", workspace["cfg"],
                "--corpus", missing,
                "--out", str(tmp_path / "s.csv"),
                "--proto-out", str(tmp_path / "p.bin"),
            ]
        )
        assert code == 2
        assert "nope.bin" in capsys.readouterr().err

    def test_corrupt_corpus_is_format_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a corpus at all, definitely")
        code = main(
            [
                "analyze",
                "--config", workspace["cfg"],
                "--corpus", str(bad),
                "--out-dir", str(tmp_path / "d"),
            ]
        )
        assert code == 2
        assert f"error: corpus file {bad}: bad magic" in capsys.readouterr().err

    def test_insufficient_warmup_is_usage_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "big_warmup.cfg"
        cfg.write_text(SMALL_CONFIG.replace("warmup_samples = 128", "warmup_samples = 1000"))
        code = main(
            [
                "curate",
                "--config", str(cfg),
                "--corpus", workspace["corpus"],
                "--out", str(tmp_path / "s.csv"),
                "--proto-out", str(tmp_path / "p.bin"),
            ]
        )
        assert code == 1
        assert "warmup" in capsys.readouterr().err

    def test_corpus_of_only_the_warmup_is_refused_alike(self, tmp_path, capsys):
        """An empty stream: frozen curate and joint train exit 1 with one same
        line and write nothing."""
        cfg = tmp_path / "engine.cfg"
        cfg.write_text(SMALL_CONFIG.replace("n_samples = 320", "n_samples = 128"))
        corpus = tmp_path / "corpus.bin"
        assert main(["generate", "--config", str(cfg), "--out", str(corpus)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        out.mkdir()
        curation_outputs = ["--proto-out", out / "p.bin", "--stats-out", out / "st.json"]
        errors = []
        for command, *outputs in (
            ["curate", "--out", out / "s.csv", *curation_outputs],
            ["train", "--head-out", out / "h.bin", "--loss-out", out / "l.csv",
             "--selection-out", out / "s.csv", *curation_outputs],
        ):
            argv = [command, "--config", cfg, "--corpus", corpus, *outputs]
            assert main(list(map(str, argv))) == 1
            errors.append(capsys.readouterr().err)
            assert_one_line_error(errors[-1])
        assert errors == 2 * [
            "error: corpus has 128 samples but warmup_samples=128; "
            "curation needs more samples than the warm-up\n"
        ]
        assert list(out.iterdir()) == []

    def test_nonconvergence_is_numerical_failure(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "strangled.cfg"
        cfg.write_text(SMALL_CONFIG + "max_iters = 1\ntol = 1e-12\n")
        code = main(
            [
                "curate",
                "--config", str(cfg),
                "--corpus", workspace["corpus"],
                "--out", str(tmp_path / "s.csv"),
                "--proto-out", str(tmp_path / "p.bin"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "converge" in err
        (line,) = [line for line in err.splitlines() if line.startswith("error:")]
        assert "pool solve" in line and "curation iteration 1" in line

    def test_bad_config_key_is_usage_error(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("krnel = 6\n")
        code = main(
            [
                "analyze",
                "--config", str(cfg),
                "--corpus", workspace["corpus"],
                "--out-dir", str(tmp_path / "d"),
            ]
        )
        assert code == 1
        assert "krnel" in capsys.readouterr().err

    def test_prompt_class_mismatch(self, workspace, tmp_path, capsys):
        prompts = tmp_path / "short.json"
        doc = json.loads(open(workspace["prompts"]).read())
        doc["classes"] = doc["classes"][:2]
        prompts.write_text(json.dumps(doc))
        code = main(
            [
                "eval",
                "--config", workspace["cfg"],
                "--corpus", workspace["corpus"],
                "--prompts", str(prompts),
                "--out", str(tmp_path / "m.json"),
            ]
        )
        assert code == 1
        assert "classes" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert main(["transmogrify"]) == 1

    def test_missing_required_flag(self):
        assert main(["curate"]) == 1

    def test_no_arguments(self):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "generate" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["train", "analyze"])
    def test_empty_selection_file(self, workspace, tmp_path, capsys, command):
        sel = tmp_path / "empty.csv"
        sel.write_text("id,iteration,reason,proto,distance\n")
        code = main(
            [
                command,
                "--config", workspace["cfg"],
                "--corpus", workspace["corpus"],
                "--selection", str(sel),
                *SELECTION_OUTPUTS[command](tmp_path),
            ]
        )
        assert code == 1
        assert f"selection file {sel}: holds no samples" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["empty.csv"]


class TestMalformedInputs:
    """Each malformed input exits with its documented code and one error line."""

    def test_selection_on_zero_row_corpus(self, workspace, tmp_path):
        corpus = tmp_path / "empty.bin"
        empty = Corpus(ids=np.zeros(0, np.uint64), img=np.zeros((0, 8)), txt=np.zeros((0, 8)))
        commit_outputs([(corpus, encode_corpus(empty))])
        sel = tmp_path / "sel.csv"
        sel.write_text("id,iteration,reason,proto,distance\n5,1,fps,0,0.5\n")
        code, err = run_cli(
            "train", "--config", workspace["cfg"], "--corpus", corpus,
            "--selection", sel, "--head-out", tmp_path / "h.bin",
            "--loss-out", tmp_path / "l.csv",
        )
        assert code == 1
        assert_one_line_error(err)
        assert "id 5" in err

    def test_duplicate_selection_ids(self, workspace, tmp_path):
        rows = open(workspace["selection"]).read().splitlines()
        sel = tmp_path / "dup.csv"
        sel.write_text("\n".join(rows + [rows[1]]) + "\n")
        code, err = run_cli(
            "train", "--config", workspace["cfg"], "--corpus", workspace["corpus"],
            "--selection", sel, "--head-out", tmp_path / "h.bin",
            "--loss-out", tmp_path / "l.csv",
        )
        assert code == 2
        assert_one_line_error(err)
        line, dup = len(rows) + 1, rows[1].split(",")[0]
        assert f"selection file {sel}: line {line}: duplicate id {dup}" in err
        assert not (tmp_path / "h.bin").exists()

    # int() and float() read each of these lines as a valid sample (id 10 at
    # distance 0.5, or id 10 at distance 5.0); the writer never writes them.
    @pytest.mark.parametrize("bad", [
        "1_0,1,fps,0,0.5", "10,1,fps,0,0_5", " 10,1,fps,0,0.5", "+10,1,fps,0,0.5",
        "\u0661\u0660,1,fps,0,0.5", "10,1,fps,0, 0.5",
    ], ids=["id-underscore", "distance-underscore", "id-space", "id-plus", "id-arabic-indic",
            "distance-space"])
    @pytest.mark.parametrize("command", ["train", "analyze"])
    def test_numeral_the_writer_never_writes(self, workspace, tmp_path, command, bad):
        sel = tmp_path / "sel.csv"
        sel.write_text(f"id,iteration,reason,proto,distance\n3,1,fps,0,0.5\n{bad}\n")
        code, err = run_cli(
            command, "--config", workspace["cfg"], "--corpus", workspace["corpus"],
            "--selection", sel, *SELECTION_OUTPUTS[command](tmp_path),
        )
        assert code == 2
        assert_one_line_error(err)
        assert f"selection file {sel}: line 3: malformed field" in err
        assert [path.name for path in tmp_path.iterdir()] == ["sel.csv"]

    @pytest.mark.parametrize("command", ["train", "analyze"])
    def test_selection_id_not_in_corpus(self, workspace, tmp_path, command):
        rows = open(workspace["selection"]).read().splitlines()
        sel = tmp_path / "sel.csv"
        sel.write_text("\n".join(rows + ["987654321,1,fps,0,0.5"]) + "\n")
        code, err = run_cli(
            command, "--config", workspace["cfg"], "--corpus", workspace["corpus"],
            "--selection", sel, *SELECTION_OUTPUTS[command](tmp_path),
        )
        assert code == 1
        assert_one_line_error(err)
        assert f"selection file {sel}: sample id 987654321 not present in corpus" in err
        assert [path.name for path in tmp_path.iterdir()] == ["sel.csv"]

    @pytest.mark.parametrize("command", ["train", "analyze"])
    def test_selection_without_header(self, workspace, tmp_path, command):
        rows = open(workspace["selection"]).read().splitlines()
        sel = tmp_path / "sel.csv"
        sel.write_text("\n".join(rows[1:]) + "\n")
        code, err = run_cli(
            command, "--config", workspace["cfg"], "--corpus", workspace["corpus"],
            "--selection", sel, *SELECTION_OUTPUTS[command](tmp_path),
        )
        assert code == 2
        assert_one_line_error(err)
        assert f"selection file {sel}: missing expected CSV header" in err
        assert [path.name for path in tmp_path.iterdir()] == ["sel.csv"]

    @pytest.mark.parametrize("command", sorted(CORPUS_READERS))
    @pytest.mark.parametrize("defect", sorted(CORPUS_DEFECTS))
    def test_bad_corpus_row_named_by_sample_id(
        self, workspace, tmp_path, capsys, command, defect
    ):
        corpus = read_corpus(workspace["corpus"])
        corpus = dataclasses.replace(corpus, img=corpus.img.copy(), txt=corpus.txt.copy())
        message = CORPUS_DEFECTS[defect](corpus)
        path = tmp_path / "corpus.bin"
        commit_outputs([(path, encode_corpus(corpus))])
        out = tmp_path / "out"
        out.mkdir()
        name, *rest = CORPUS_READERS[command](workspace, out)
        code = main([name, "--config", workspace["cfg"], "--corpus", str(path), *map(str, rest)])
        assert code == 1
        assert capsys.readouterr().err == f"error: corpus file {path}: {message}\n"
        assert list(out.iterdir()) == []

    def test_truncated_corpus_names_the_file(self, workspace, tmp_path):
        path = tmp_path / "cut.bin"
        path.write_bytes(pathlib.Path(workspace["corpus"]).read_bytes()[:100])
        code, err = run_cli(
            "curate", "--config", workspace["cfg"], "--corpus", path,
            "--out", tmp_path / "s.csv", "--proto-out", tmp_path / "p.bin",
        )
        assert code == 2
        assert_one_line_error(err)
        assert err.startswith(f"error: corpus file {path}: header (version=1, count=320,")
        assert err.endswith("file has 100 (at byte offset 100)\n")
        assert [p.name for p in tmp_path.iterdir()] == ["cut.bin"]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda corpus: {"labels": None}, "eval requires a labeled corpus"),
            (
                lambda corpus: {"txt": corpus.txt[:, :6]},
                "eval without --head needs d_img == d_txt for the identity head",
            ),
        ],
        ids=["unlabeled", "unequal-dims"],
    )
    def test_eval_corpus_usage_errors(self, workspace, tmp_path, edit, message):
        corpus = read_corpus(workspace["corpus"])
        path = tmp_path / "corpus.bin"
        commit_outputs([(path, encode_corpus(dataclasses.replace(corpus, **edit(corpus))))])
        code, err = run_cli(
            "eval", "--config", workspace["cfg"], "--corpus", path,
            "--prompts", workspace["prompts"], "--out", tmp_path / "m.json",
            "--csv-out", tmp_path / "m.csv",
        )
        assert code == 1
        assert err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.bin"]

    def test_analyze_one_sample_selection(self, workspace, tmp_path):
        rows = open(workspace["selection"]).read().splitlines()
        sel = tmp_path / "one.csv"
        sel.write_text("\n".join(rows[:2]) + "\n")
        code, err = run_cli(
            "analyze", "--config", workspace["cfg"], "--corpus", workspace["corpus"],
            "--selection", sel, *SELECTION_OUTPUTS["analyze"](tmp_path),
        )
        assert code == 1
        assert_one_line_error(err)
        assert "the selection holds 1 sample; analyze needs at least 2" in err
        assert [path.name for path in tmp_path.iterdir()] == ["one.csv"]

    @pytest.mark.parametrize(
        "edit, detail",
        [
            (lambda doc: '{"classes": [', "prompts file"),
            (lambda doc: '{"classes": [{"name": "a", "negative": [0.0]}]}', "missing field"),
            (
                lambda doc: set_prompt_vector(doc, 1, "positive", lambda v: [float("nan")] + v[1:]),
                "class 1 positive",
            ),
            (
                lambda doc: set_prompt_vector(doc, 0, "negative", lambda v: [0.0] * len(v)),
                "class 0 negative",
            ),
            (
                lambda doc: set_prompt_vector(doc, 1, "positive", lambda v: [1e200] + v[1:]),
                "class 1 positive vector has a norm that overflows float64",
            ),
        ],
        ids=["bad-syntax", "no-positive", "nan-positive", "zero-negative", "overflow-positive"],
    )
    def test_malformed_prompts(self, workspace, tmp_path, edit, detail):
        prompts = tmp_path / "p.json"
        prompts.write_text(edit(json.loads(open(workspace["prompts"]).read())))
        code, err = run_cli(
            "eval", "--config", workspace["cfg"], "--corpus", workspace["corpus"],
            "--prompts", prompts, "--out", tmp_path / "m.json",
        )
        assert code == 2
        assert_one_line_error(err)
        assert "prompts file" in err
        assert detail in err
        assert [path.name for path in tmp_path.iterdir()] == ["p.json"]

    def test_deeply_nested_prompts(self, workspace, tmp_path):
        prompts = tmp_path / "deep.json"
        prompts.write_text("[" * 200_000)
        code, err = run_cli(
            "eval", "--config", workspace["cfg"], "--corpus", workspace["corpus"],
            "--prompts", prompts, "--out", tmp_path / "m.json",
        )
        assert code == 2
        assert_one_line_error(err)
        assert err.startswith(f"error: prompts file {prompts}: maximum recursion depth exceeded")
        assert [path.name for path in tmp_path.iterdir()] == ["deep.json"]

    @pytest.mark.parametrize("missing", ["--config", "--corpus", "--prompts", "--head"])
    def test_missing_input_file(self, workspace, tmp_path, missing):
        inputs = {"--config": workspace["cfg"], "--corpus": workspace["corpus"],
                  "--prompts": workspace["prompts"], "--head": workspace["head"],
                  missing: tmp_path / "absent"}
        code, err = run_cli(
            "eval", *(str(arg) for pair in inputs.items() for arg in pair),
            "--out", tmp_path / "m.json",
        )
        assert code == 2
        assert err == f"error: cannot open {tmp_path / 'absent'}: no such file\n"
        assert list(tmp_path.iterdir()) == []

    def test_non_utf8_prompts(self, workspace, tmp_path):
        prompts = tmp_path / "p.json"
        prompts.write_bytes(b"\xff\xfe\x00")
        code, err = run_cli(
            "eval", "--config", workspace["cfg"], "--corpus", workspace["corpus"],
            "--prompts", prompts, "--out", tmp_path / "m.json",
        )
        assert code == 2
        assert err == f"error: prompts file {prompts}: not UTF-8 text\n"
        assert [path.name for path in tmp_path.iterdir()] == ["p.json"]

    @pytest.mark.parametrize("bad_id", ["-1", "18446744073709551616"], ids=["negative", "2**64"])
    @pytest.mark.parametrize("command", ["train", "analyze"])
    def test_selection_id_outside_uint64(self, workspace, tmp_path, command, bad_id):
        rows = open(workspace["selection"]).read().splitlines()
        sel = tmp_path / "sel.csv"
        sel.write_text("\n".join(rows + [f"{bad_id},1,fps,0,0.5"]) + "\n")
        code, err = run_cli(
            command, "--config", workspace["cfg"], "--corpus", workspace["corpus"],
            "--selection", sel, *SELECTION_OUTPUTS[command](tmp_path),
        )
        assert code == 2
        assert_one_line_error(err)
        assert f"selection file {sel}: line {len(rows) + 1}: id {bad_id}" in err
        assert [path.name for path in tmp_path.iterdir()] == ["sel.csv"]

    def test_prompt_class_name_with_comma(self, workspace, tmp_path):
        doc = json.loads(open(workspace["prompts"]).read())
        doc["classes"][2]["name"] = "a,b"
        prompts = tmp_path / "p.json"
        prompts.write_text(json.dumps(doc))
        code, err = run_cli(
            "eval", "--config", workspace["cfg"], "--corpus", workspace["corpus"],
            "--prompts", prompts, "--out", tmp_path / "m.json", "--csv-out", tmp_path / "m.csv",
        )
        assert code == 2
        assert_one_line_error(err)
        assert "class 2 name 'a,b'" in err
        assert [path.name for path in tmp_path.iterdir()] == ["p.json"]

    def test_head_dims_mismatch_corpus(self, workspace, tmp_path):
        head = tmp_path / "h.bin"
        commit_outputs([(head, encode_head(init_head(5, 8, 8, tau_init=0.01, seed=0)))])
        code, err = run_cli(
            "eval", "--config", workspace["cfg"], "--corpus", workspace["corpus"],
            "--prompts", workspace["prompts"], "--head", head, "--out", tmp_path / "m.json",
        )
        assert code == 1
        assert_one_line_error(err)
        assert "5+8" in err and "8+8" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "edit, detail",
        [
            (lambda head: head.W_img.__setitem__((0, 0), np.nan), "W_img has non-finite"),
            (lambda head: setattr(head, "log_tau", float("inf")), "log_tau inf outside"),
            (lambda head: setattr(head, "log_tau", 1000.0), "log_tau 1000.0 outside"),
        ],
        ids=["nan-weight", "inf-log-tau", "huge-log-tau"],
    )
    def test_malformed_head(self, workspace, tmp_path, edit, detail):
        head = load_head(workspace["head"])
        edit(head)
        path = tmp_path / "h.bin"
        commit_outputs([(path, encode_head(head))])
        code, err = run_cli(
            "eval", "--config", workspace["cfg"], "--corpus", workspace["corpus"],
            "--prompts", workspace["prompts"], "--head", path,
            "--out", tmp_path / "m.json", "--csv-out", tmp_path / "m.csv",
        )
        assert code == 2
        assert_one_line_error(err)
        assert f"head file {path}: invalid head checkpoint" in err and detail in err
        assert [p.name for p in tmp_path.iterdir()] == ["h.bin"]

    def test_corpus_as_head_names_the_head_file(self, workspace, tmp_path):
        code, err = run_cli(
            "eval", "--config", workspace["cfg"], "--corpus", workspace["corpus"],
            "--prompts", workspace["prompts"], "--head", workspace["corpus"],
            "--out", tmp_path / "m.json",
        )
        assert code == 2
        assert err == (
            f"error: head file {workspace['corpus']}: bad magic b'XFICEMB1', "
            "expected b'XFICHEAD' (at byte offset 0)\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_collapsed_projection_named(self, workspace, tmp_path):
        head = load_head(workspace["head"])
        head.W_txt[:] = 0.0
        head.b_txt[:] = 0.0
        path = tmp_path / "h.bin"
        commit_outputs([(path, encode_head(head))])
        code, err = run_cli(
            "eval", "--config", workspace["cfg"], "--corpus", workspace["corpus"],
            "--prompts", workspace["prompts"], "--head", path, "--out", tmp_path / "m.json",
        )
        assert code == 1
        assert_one_line_error(err)
        assert "error: projected texts: row 0 is all-zero" in err
        assert [p.name for p in tmp_path.iterdir()] == ["h.bin"]

    def test_non_utf8_config(self, tmp_path):
        cfg = tmp_path / "engine.cfg"
        cfg.write_bytes(b"\xff\xfe\x00")
        code, err = run_cli("generate", "--config", cfg, "--out", tmp_path / "c.bin")
        assert code == 2
        assert_one_line_error(err)
        assert f"config file {cfg}" in err
        assert not (tmp_path / "c.bin").exists()

    def test_non_utf8_selection(self, workspace, tmp_path):
        sel = tmp_path / "sel.csv"
        sel.write_bytes(b"\xff\xfe\x00")
        code, err = run_cli(
            "train", "--config", workspace["cfg"], "--corpus", workspace["corpus"],
            "--selection", sel, "--head-out", tmp_path / "h.bin",
            "--loss-out", tmp_path / "l.csv",
        )
        assert code == 2
        assert_one_line_error(err)
        assert f"selection file {sel}" in err
        assert not (tmp_path / "h.bin").exists()


class TestUnfinishableConfigs:
    """A config the validator accepts but no run can finish: one error line, no output."""

    def test_small_epsilon_fails_in_pool_solve(self, tmp_path):
        inputs, outputs = tmp_path / "in", tmp_path / "out"
        inputs.mkdir()
        outputs.mkdir()
        cfg = inputs / "engine.cfg"
        cfg.write_text("n_samples = 2000\nwarmup_samples = 640\nepsilon = 1e-3\n")
        assert main(["generate", "--config", str(cfg), "--out", str(inputs / "c.bin")]) == 0
        code, err = run_cli(
            "curate", "--config", cfg, "--corpus", inputs / "c.bin",
            "--out", outputs / "sel.csv", "--proto-out", outputs / "p.bin",
            "--stats-out", outputs / "st.json",
        )
        assert code == 3
        assert_one_line_error(err)
        assert "pool solve" in err and "curation iteration" in err
        assert list(outputs.iterdir()) == []

    @pytest.mark.parametrize("mode", ["selection", "joint"])
    def test_diverged_training_is_numerical_failure(self, workspace, tmp_path, mode):
        cfg = tmp_path / "lr.cfg"
        cfg.write_text(SMALL_CONFIG.replace("learning_rate = 0.001", "learning_rate = 1e300"))
        outputs = tmp_path / "out"
        outputs.mkdir()
        selection = ["--selection", workspace["selection"]] if mode == "selection" else []
        code, err = run_cli(
            "train", "--config", cfg, "--corpus", workspace["corpus"], *selection,
            "--head-out", outputs / "h.bin", "--loss-out", outputs / "l.csv",
        )
        assert code == 3
        assert_one_line_error(err)
        assert err.startswith("error: training diverged at step ")
        assert list(outputs.iterdir()) == []

    def test_overflowing_projection_is_divergence(self, workspace, tmp_path):
        # At this rate the weights stay finite, but a projected row's norm overflows.
        cfg = tmp_path / "lr.cfg"
        cfg.write_text(SMALL_CONFIG.replace("learning_rate = 0.001", "learning_rate = 1e10"))
        outputs = tmp_path / "out"
        outputs.mkdir()
        code, err = run_cli(
            "train", "--config", cfg, "--corpus", workspace["corpus"],
            "--selection", workspace["selection"],
            "--head-out", outputs / "h.bin", "--loss-out", outputs / "l.csv",
        )
        assert code == 3
        assert_one_line_error(err)
        assert err.startswith("error: training diverged at step ")
        assert "projected row " in err and "has a norm that overflows float64" in err
        assert list(outputs.iterdir()) == []

    def test_out_of_memory_is_usage_error(self, tmp_path):
        cfg = tmp_path / "big.txt"
        cfg.write_text("n_samples = 1000000000000000\n")
        code, err = run_cli(
            "generate", "--config", cfg, "--out", tmp_path / "c.bin",
            "--prompts-out", tmp_path / "p.json",
        )
        assert code == 1
        assert_one_line_error(err)
        assert err.startswith("error: out of memory: ")
        assert list(tmp_path.iterdir()) == [cfg]


# Each case: (argv, the config key the error names).  Command-line overrides
# are checked like the config keys they set.
BAD_OVERRIDE_CASES = {
    "curate-target-0": (["curate", "--corpus", "{corpus}", "--out", "{t}/sel.csv",
                         "--proto-out", "{t}/p.bin", "--target-size", "0"], "target_subset_size"),
    "curate-target-neg": (["curate", "--corpus", "{corpus}", "--out", "{t}/sel.csv",
                           "--proto-out", "{t}/p.bin", "--target-size", "-5"],
                          "target_subset_size"),
    "train-target-neg": (["train", "--corpus", "{corpus}", "--head-out", "{t}/h.bin",
                          "--loss-out", "{t}/l.csv", "--target-size", "-5"],
                         "target_subset_size"),
    "generate-seed-neg": (["generate", "--out", "{t}/c.bin", "--prompts-out", "{t}/p.json",
                           "--seed", "-1"], "seed"),
}


class TestConfigOverrides:
    @pytest.mark.parametrize("case", sorted(BAD_OVERRIDE_CASES))
    def test_bad_override_is_usage_error(self, workspace, tmp_path, case):
        argv, key = BAD_OVERRIDE_CASES[case]
        argv = [arg.format(corpus=workspace["corpus"], t=tmp_path) for arg in argv]
        code, err = run_cli(*argv, "--config", workspace["cfg"])
        assert code == 1
        assert_one_line_error(err)
        assert f"'{key}'" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("line, message", [
        ("x = 1", "line 3: unknown key 'x'"),
        ("K = 1", "key 'K': must be >= 2"),
    ], ids=["unknown-key", "K-below-2"])
    def test_config_file_error_names_the_file(self, workspace, tmp_path, line, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"# engine\nseed = 0\n{line}\n")
        outputs = tmp_path / "out"
        outputs.mkdir()
        code, err = run_cli(
            "curate", "--config", cfg, "--corpus", workspace["corpus"],
            "--out", outputs / "s.csv", "--proto-out", outputs / "p.bin",
        )
        assert code == 1
        assert err == f"error: config file {cfg}: {message}\n"
        assert list(outputs.iterdir()) == []

    def test_flag_error_names_no_file(self, workspace, tmp_path):
        code, err = run_cli(
            "generate", "--config", workspace["cfg"], "--out", tmp_path / "c.bin", "--seed", "-1"
        )
        assert code == 1
        assert err == "error: key 'seed': must be >= 0\n"
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_in_config_file(self, tmp_path):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("seed = -1\n")
        code, err = run_cli("generate", "--config", cfg, "--out", tmp_path / "c.bin")
        assert code == 1
        assert_one_line_error(err)
        assert "'seed'" in err
        assert not (tmp_path / "c.bin").exists()


# Each case: (argv after the subcommand's --config, the output made to exist
# beforehand).  The last output written sits in a missing directory.
PARTIAL_OUTPUT_CASES = {
    "generate": lambda ws, t: (
        ["generate", "--out", t / "corpus.bin", "--prompts-out", t / "nodir" / "p.json"],
        "corpus.bin",
    ),
    "curate": lambda ws, t: (
        ["curate", "--corpus", ws["corpus"], "--out", t / "sel.csv",
         "--proto-out", t / "p.bin", "--stats-out", t / "nodir" / "st.json"],
        "sel.csv",
    ),
    "train-selection": lambda ws, t: (
        ["train", "--corpus", ws["corpus"], "--selection", ws["selection"],
         "--head-out", t / "h.bin", "--loss-out", t / "nodir" / "l.csv"],
        "h.bin",
    ),
    "train-joint": lambda ws, t: (
        ["train", "--corpus", ws["corpus"], "--selection-out", t / "s.csv",
         "--proto-out", t / "p.bin", "--stats-out", t / "st.json",
         "--head-out", t / "h.bin", "--loss-out", t / "nodir" / "l.csv"],
        "s.csv",
    ),
    "eval": lambda ws, t: (
        ["eval", "--corpus", ws["corpus"], "--prompts", ws["prompts"], "--head", ws["head"],
         "--out", t / "m.json", "--csv-out", t / "nodir" / "m.csv"],
        "m.json",
    ),
}


class TestOutputCommit:
    """A command writes all of its outputs or none of them."""

    @pytest.mark.parametrize("case", sorted(PARTIAL_OUTPUT_CASES))
    def test_failed_output_writes_nothing(self, workspace, tmp_path, case):
        argv, existing = PARTIAL_OUTPUT_CASES[case](workspace, tmp_path)
        missing = next(str(arg) for arg in argv if "nodir" in str(arg))
        (tmp_path / existing).write_bytes(b"known bytes")
        code, err = run_cli(argv[0], "--config", workspace["cfg"], *argv[1:])
        assert code == 2
        assert_one_line_error(err)
        assert missing in err and ".tmp" not in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == [existing]
        assert (tmp_path / existing).read_bytes() == b"known bytes"

    @pytest.mark.parametrize(
        "flags",
        [("--selection-out",), ("--stats-out", "--proto-out"), ("--target-size",)],
        ids=["one", "two", "target-size"],
    )
    def test_joint_only_outputs_rejected_with_selection(self, workspace, tmp_path, flags):
        # --target-size takes a count; the other joint-only options take paths.
        extra = [
            arg
            for i, flag in enumerate(flags)
            for arg in (flag, 5 if flag == "--target-size" else tmp_path / f"out{i}")
        ]
        code, err = run_cli(
            "train", "--config", workspace["cfg"], "--corpus", workspace["corpus"],
            "--selection", workspace["selection"], "--head-out", tmp_path / "h.bin",
            "--loss-out", tmp_path / "l.csv", *extra,
        )
        assert code == 1
        assert_one_line_error(err)
        assert all(flag in err for flag in flags)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["curate", "eval"])
    def test_two_outputs_one_file(self, workspace, tmp_path, command):
        out, alias = tmp_path / "x", os.path.join(tmp_path, ".", "x")
        argv = {
            "curate": ["curate", "--corpus", workspace["corpus"], "--out", out,
                       "--proto-out", tmp_path / "p.bin", "--stats-out", alias],
            "eval": ["eval", "--corpus", workspace["corpus"], "--prompts", workspace["prompts"],
                     "--out", out, "--csv-out", alias],
        }[command]
        code, err = run_cli(argv[0], "--config", workspace["cfg"], *argv[1:])
        assert code == 1
        assert_one_line_error(err)
        assert "name the same file" in err and str(out) in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["curate", "train"])
    def test_two_outputs_one_file_rejected_before_inputs_are_read(self, tmp_path, command):
        missing = tmp_path / "missing.bin"
        argv = {
            "curate": ["curate", "--corpus", missing, "--out", tmp_path / "x",
                       "--proto-out", tmp_path / "p.bin", "--stats-out", tmp_path / "x"],
            "train": ["train", "--corpus", missing, "--head-out", tmp_path / "x",
                      "--loss-out", tmp_path / "x"],
        }[command]
        code, err = run_cli(*argv)
        assert code == 1
        assert_one_line_error(err)
        assert "name the same file" in err
        assert list(tmp_path.iterdir()) == []

    def test_fifo_output_written_in_place(self, workspace, tmp_path):
        fifo = tmp_path / "csv.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code, err = run_cli(
            "eval", "--config", workspace["cfg"], "--corpus", workspace["corpus"],
            "--prompts", workspace["prompts"], "--out", tmp_path / "m.json", "--csv-out", fifo,
        )
        reader.join(timeout=60)
        assert code == 0, err
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert received == [pathlib.Path(workspace["report_csv"]).read_bytes()]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["csv.fifo", "m.json"]
