"""The CLI contract as a property: every config the validator accepts runs
through every command, and every output a command writes is an input the
next command takes."""

import contextlib
import json
import pathlib
import tempfile
from io import StringIO

from hypothesis import given, settings
from hypothesis import strategies as st

from protocurate.cli import main
from protocurate.config import EngineConfig
from protocurate.curation import CuratedSelection
from protocurate.embedding import CURATION_SPACES
from protocurate.io import read_corpus
from protocurate.metrics import CLASS_FORMATS
from protocurate.prototypes import decode_bank
from protocurate.synth import read_prompts
from protocurate.trainer import LOSS_FORMATS, load_head

# README: 0 success, 1 usage, 2 I/O or format, 3 numerical failure.
DOCUMENTED_EXITS = {0, 1, 2, 3}


@st.composite
def small_configs(draw) -> dict:
    """Config keys over small corpora; ``max_iters`` is small so a solve that
    cannot converge fails fast (exit 3) rather than running long."""
    K = draw(st.integers(2, 12))
    keys = {
        "n_samples": draw(st.integers(20, 1500)),
        "clusters": draw(st.integers(1, 6)),
        "d_img": draw(st.integers(2, 8)),
        "d_txt": draw(st.integers(2, 8)),
        "K": K,
        "warmup_samples": K + draw(st.integers(0, 400)),
        "superbatch_size": draw(st.integers(16, 400)),
        "outlier_frac": draw(st.sampled_from([0.0, 0.05, 0.3])),
        "keep_frac": draw(st.sampled_from([0.01, 0.1, 0.5])),
        "per_cluster_budget": draw(st.integers(1, 20)),
        "curation_space": draw(st.sampled_from(CURATION_SPACES)),
        "epsilon": draw(st.sampled_from([0.05, 0.2, 1.0])),
        "max_iters": draw(st.integers(1, 2000)),
        "kmeans_max_iters": draw(st.integers(1, 20)),
        "proj_dim": draw(st.integers(1, 8)),
        "epochs": draw(st.integers(1, 3)),
        "batch_size": draw(st.integers(4, 64)),
        "learning_rate": draw(st.sampled_from([1e-4, 1e-3, 1e-2])),
        "knn_k": draw(st.integers(1, 30)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }
    target = draw(st.none() | st.integers(1, 60))
    if target is not None:
        keys["target_subset_size"] = target
    return keys


def command(out: pathlib.Path, *argv) -> tuple[int, str]:
    """Run one command with its outputs under the new directory ``out``:
    (exit code, stderr).  Any exit is a documented one, and a failure prints
    one error line and writes nothing."""
    out.mkdir()
    stderr = StringIO()
    with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(stderr):
        code = main([str(arg) for arg in argv])
    err = stderr.getvalue()
    assert code in DOCUMENTED_EXITS, (argv, code, err)
    if code != 0:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert not [path for path in out.rglob("*") if path.is_file()], argv
    return code, err


def read_curated(out: pathlib.Path, corpus) -> CuratedSelection:
    """Read back the selection, bank and stats a curation wrote."""
    selection = CuratedSelection.read_csv(out / "s.csv", corpus)
    decode_bank((out / "p.bin").read_bytes())
    assert len(json.loads((out / "st.json").read_text())) >= 1
    return selection


def read_trained(out: pathlib.Path):
    """Read back the head and loss table a training run wrote."""
    lines = (out / "l.csv").read_text().splitlines()
    assert lines[0] == ",".join(LOSS_FORMATS) and len(lines) >= 2
    return load_head(out / "h.bin")


def check_curation_exit(code: int, err: str, cfg: EngineConfig) -> None:
    """A generated corpus is refused as a usage error only when the warm-up
    takes all of it, the case README documents."""
    if cfg.n_samples <= cfg.warmup_samples:
        assert code == 1 and "curation needs more samples than the warm-up" in err
    else:
        assert code in (0, 3), err


@settings(max_examples=150, derandomize=True, deadline=None)
@given(keys=small_configs())
def test_accepted_config_runs_and_each_output_feeds_the_next_command(keys):
    cfg = EngineConfig(**keys)
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        config = root / "engine.cfg"
        config.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))

        gen = root / "generate"
        code, err = command(
            gen, "generate", "--config", config,
            "--out", gen / "c.bin", "--prompts-out", gen / "prompts.json",
        )
        assert code == 0, err
        corpus = read_corpus(gen / "c.bin")
        assert corpus.n == cfg.n_samples
        assert json.loads((gen / "c.bin.manifest.json").read_text())["seed"] == cfg.seed
        read_prompts(gen / "prompts.json")
        inputs = ["--config", config, "--corpus", gen / "c.bin"]

        cur = root / "curate"
        code, err = command(
            cur, "curate", *inputs,
            "--out", cur / "s.csv", "--proto-out", cur / "p.bin", "--stats-out", cur / "st.json",
        )
        check_curation_exit(code, err, cfg)
        selection = read_curated(cur, corpus) if code == 0 else None

        joint = root / "joint"
        code, err = command(
            joint, "train", *inputs, "--head-out", joint / "h.bin", "--loss-out", joint / "l.csv",
            "--selection-out", joint / "s.csv", "--proto-out", joint / "p.bin",
            "--stats-out", joint / "st.json",
        )
        check_curation_exit(code, err, cfg)
        head = None
        if code == 0:
            read_curated(joint, corpus)
            head = joint / "h.bin"
            read_trained(joint)

        if selection is not None:
            train = root / "train"
            code, err = command(
                train, "train", *inputs, "--selection", cur / "s.csv",
                "--head-out", train / "h.bin", "--loss-out", train / "l.csv",
            )
            assert code in (0, 3), err
            if code == 0:
                read_trained(train)
                head = train / "h.bin"

        if head is not None or cfg.d_img == cfg.d_txt:
            ev = root / "eval"
            code, err = command(
                ev, "eval", *inputs, "--prompts", gen / "prompts.json",
                *(["--head", head] if head is not None else []),
                "--out", ev / "m.json", "--csv-out", ev / "m.csv",
            )
            assert code == 0, err
            assert json.loads((ev / "m.json").read_text())["n_samples"] == corpus.n
            assert (ev / "m.csv").read_text().splitlines()[0] == ",".join(CLASS_FORMATS)

        an = root / "analyze"
        code, err = command(
            an, "analyze", *inputs,
            *(["--selection", cur / "s.csv"] if selection is not None else []),
            "--out-dir", an / "out",
        )
        if selection is not None and len(selection) == 1:
            assert code == 1 and "the selection holds 1 sample; analyze needs at least 2" in err
        else:
            assert code == 0, err
            assert json.loads((an / "out" / "tests.json").read_text())["knn_k"] >= 1
