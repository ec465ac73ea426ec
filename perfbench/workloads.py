"""Workloads, their CLI stages, and the metrics the benchmark reports.

Every stage is one ``protocurate`` subcommand.  ``stage_argv`` gives its
arguments and ``STAGE_OUTPUTS`` the files it must write, relative to the
workload's work directory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# Corpus and curation seed of every workload.  Solver effort depends on the
# data: over seeds 0-9 the frozen loop on the paper config took 13.0k-43.9k
# Sinkhorn sweeps and the joint loop 12.7k-78.2k, so a stage time that
# followed --seed would spread far wider than any regression bound.  The
# benchmark seed drives the trainer instead (head init and batch order),
# whose work is fixed by the selection size.  See README.md.
CURATION_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str  # `key = value` lines; empty means the paper defaults
    stages: tuple[str, ...]  # timed stages, after the `generate` set-up


WORKLOADS = {
    "default": Workload(
        "default",
        "paper config; curate, train, eval and analyze each at their heaviest kernel",
        "",
        ("curate", "train", "eval", "analyze"),
    ),
    "joint": Workload(
        "joint",
        "joint online loop: the head re-embeds every super-batch and steps between them",
        "",
        ("joint",),
    ),
    "wide": Workload(
        "wide",
        "200k rows of 128+128 dims at epsilon 0.5: per-row layers dominate, Sinkhorn does not",
        "n_samples = 200000\nd_img = 128\nd_txt = 128\nsuperbatch_size = 6400\nepsilon = 0.5\n",
        ("curate", "train"),
    ),
}

# Metrics each run prints and --compare compares, beyond the ones
# BENCHMARK.json gates: name -> (unit, better, regression bound as a share of
# the base median).  They are not gated because some workloads lack them
# (a stage they skip) or because they are 0 (failed_frac); see README.md.
REPORTED_METRICS = {
    "train_s": ("s", "lower", 0.25),
    "joint_s": ("s", "lower", 0.25),
    "eval_s": ("s", "lower", 0.25),
    "analyze_s": ("s", "lower", 0.25),
    "failed_frac": ("ratio", "lower", 0.0),
    "low_density_proportion": ("ratio", "higher", 0.02),
    "macro_auroc": ("ratio", "higher", 0.02),
}


def selection_stage(workload: Workload) -> str:
    """The stage that runs the curation loop and writes the selection."""
    return "joint" if "joint" in workload.stages else "curate"


def stage_argv(workload: Workload, stage: str, seed: int) -> list[str]:
    cfg = ["--config", "config.txt"] if workload.config else []
    curation_seed = ["--seed", str(CURATION_SEED)]
    if stage == "generate":
        return ["generate", *cfg, *curation_seed, "--out", "corpus.bin",
                "--prompts-out", "prompts.json"]
    if stage == "curate":
        return ["curate", *cfg, *curation_seed, "--corpus", "corpus.bin",
                "--out", "selection.csv", "--proto-out", "protos.bin",
                "--stats-out", "stats.json"]
    if stage == "joint":
        return ["train", *cfg, *curation_seed, "--corpus", "corpus.bin",
                "--head-out", "head.bin", "--loss-out", "loss.csv",
                "--selection-out", "selection.csv", "--proto-out", "protos.bin"]
    if stage == "train":
        return ["train", *cfg, "--seed", str(seed), "--corpus", "corpus.bin",
                "--selection", "selection.csv", "--head-out", "head.bin",
                "--loss-out", "loss.csv"]
    if stage == "eval":
        return ["eval", *cfg, "--corpus", "corpus.bin", "--prompts", "prompts.json",
                "--head", "head.bin", "--out", "metrics.json", "--csv-out", "metrics.csv"]
    if stage == "analyze":
        return ["analyze", *cfg, "--corpus", "corpus.bin", "--selection", "selection.csv",
                "--out-dir", "analysis"]
    raise ValueError(f"unknown stage {stage!r}")


# Files each stage must write, relative to the work directory.
STAGE_OUTPUTS = {
    "generate": ("corpus.bin", "corpus.bin.manifest.json", "prompts.json"),
    "curate": ("selection.csv", "protos.bin", "stats.json"),
    "joint": ("head.bin", "loss.csv", "selection.csv", "protos.bin"),
    "train": ("head.bin", "loss.csv"),
    "eval": ("metrics.json", "metrics.csv"),
    "analyze": tuple(
        os.path.join("analysis", name)
        for name in ("tests.json", "knn_profile.csv", "ecdf_full.csv", "ecdf_subset.csv",
                     "pca2.csv", "labels.csv")
    ),
}
