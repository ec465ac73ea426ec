"""Correctness checks on a workload's artifacts, and their digests.

Checks read the files the CLI wrote, never the program's memory, so the
untraced and the traced run are judged the same way.  Each check returns
(name, passed, detail).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

from workloads import STAGE_OUTPUTS, Workload, selection_stage

# Corpus file header (see the codec's module docstring):
# "XFICEMB1" | version u32 | count u32 | d_img u32 | d_txt u32 | n_labels u32
_HEADER = struct.Struct("<8s5I")


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digests(work_dir, stage: str) -> dict[str, str | None]:
    """SHA-256 of each output of a stage; None for a missing file."""
    out = {}
    for rel in STAGE_OUTPUTS[stage]:
        path = os.path.join(work_dir, rel)
        out[rel] = sha256(path) if os.path.isfile(path) else None
    return out


def corpus_ids(path) -> np.ndarray:
    """Sample ids of a corpus file, read in place without decoding vectors."""
    with open(path, "rb") as fh:
        magic, version, n, d_img, d_txt, n_labels = _HEADER.unpack(fh.read(_HEADER.size))
    if magic != b"XFICEMB1":
        raise ValueError(f"{path}: not a corpus file (magic {magic!r})")
    record = 8 + 4 * (d_img + d_txt) + (n_labels + 7) // 8
    raw = np.memmap(path, dtype=np.uint8, mode="r", offset=_HEADER.size, shape=(n * record,))
    ids = np.ndarray((n,), dtype="<u8", buffer=raw, strides=(record,)).copy()
    del raw
    return ids


def read_selection_ids(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    return np.array([int(line.split(",", 1)[0]) for line in lines if line], dtype=np.uint64)


def _solver_tol(workload: Workload) -> float:
    for line in workload.config.splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "tol":
            return float(value)
    return 1e-6  # the engine default


def solver_counts(stats: list[dict]) -> dict[str, int]:
    """Exact Sinkhorn effort from a curation stats file, split by solve."""
    counts = {}
    for kind in ("pool", "update"):
        sweeps = [s[f"{kind}_sinkhorn_iterations"] for s in stats
                  if s.get(f"{kind}_sinkhorn_iterations") is not None]
        counts[f"{kind}_solves"] = len(sweeps)
        counts[f"{kind}_sweeps_total"] = sum(sweeps)
        counts[f"{kind}_sweeps_max"] = max(sweeps, default=0)
    return counts


def check_artifacts(workload: Workload, work_dir) -> tuple[list[tuple[str, bool, str]], dict]:
    """Run every artifact check for a finished workload.

    Returns the check results and the quality figures read on the way
    (low-density proportion, macro AUROC, solver counts).
    """
    checks: list[tuple[str, bool, str]] = []
    facts: dict = {}

    def path(rel):
        return os.path.join(work_dir, rel)

    def check(name, fn):
        try:
            passed, detail = fn()
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append((name, bool(passed), detail))

    def selection_ok():
        ids = read_selection_ids(path("selection.csv"))
        unique = len(np.unique(ids)) == len(ids)
        present = bool(np.isin(ids, corpus_ids(path("corpus.bin"))).all())
        facts["selection_rows"] = int(len(ids))
        return unique and present and len(ids) > 0, (
            f"{len(ids)} rows, unique={unique}, all in corpus={present}"
        )

    check("selection ids unique and in corpus", selection_ok)

    if selection_stage(workload) == "curate":
        def read_stats():
            with open(path("stats.json"), encoding="utf-8") as fh:
                return json.load(fh)

        def emitted_ok():
            stats = read_stats()
            facts["solver"] = solver_counts(stats)
            emitted = sum(s["emitted"] for s in stats)
            return emitted == facts.get("selection_rows"), f"sum(emitted)={emitted}"

        def residuals_ok():
            tol = _solver_tol(workload)
            worst = max(
                s[f"{kind}_sinkhorn_residual"]
                for s in read_stats() for kind in ("pool", "update")
                if s.get(f"{kind}_sinkhorn_residual") is not None
            )
            return worst < tol, f"worst residual {worst:.3g} vs tol {tol:g}"

        check("selection rows equal sum of emitted", emitted_ok)
        check("every Sinkhorn residual below tol", residuals_ok)

    if "eval" in workload.stages:
        def auroc_ok():
            with open(path("metrics.json"), encoding="utf-8") as fh:
                value = json.load(fh)["macro_auroc"]
            facts["macro_auroc"] = value
            return value is not None and 0.0 <= value <= 1.0, f"macro AUROC {value}"

        check("eval reports a macro AUROC", auroc_ok)

    if "analyze" in workload.stages:
        def enrichment_ok():
            with open(path(os.path.join("analysis", "tests.json")), encoding="utf-8") as fh:
                tests = json.load(fh)
            prop, q = tests["low_density_proportion"], tests["density_quantile"]
            facts["low_density_proportion"] = prop
            return math.isfinite(prop) and prop > q, (
                f"low-density proportion {prop:.4f} vs quantile {q:g}"
            )

        check("curated subset over-represents the sparse tail", enrichment_ok)

    return checks, facts
