#!/usr/bin/env python3
"""protocurate benchmark: wall time and peak RSS per CLI stage, checked outputs.

One run of one workload (the last output line is the JSON result):

    python3 perfbench/run.py --workload default --seed 0 --seconds 40 --trace 0

``--trace 0`` runs each stage as a child process and reports end-to-end
metrics.  ``--trace 1`` repeats the workload in this process, alternating
plain and traced passes, and reports per-layer metrics.  Every workload in
turn, optionally over several seeds, with all records saved:

    python3 perfbench/run.py --all --runs 3 --out perfbench/results/mine.json

Compare two saved result files (medians, quartiles, regressions):

    python3 perfbench/run.py --compare base.json new.json

See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from checks import check_artifacts, digests
from spans import Tracer, layer_metrics, stage_shares, summarize, write_spans
from workloads import (
    REPORTED_METRICS,
    WORKLOADS,
    Workload,
    selection_stage,
    stage_argv,
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
# `generate` runs at least SETUP_MIN_REPS times, and more while the set-up
# has taken under SETUP_TARGET_S, up to SETUP_MAX_REPS.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_TARGET_S = 3, 7, 2.5
# A run is killed rather than let past this, so it always ends in time.
HARD_LIMIT_S = 170.0


def _median(values):
    return statistics.median(values) if values else None


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


class Run:
    """Bookkeeping for one run: stage samples, digests, failures."""

    def __init__(self, workload: Workload, work_dir: str) -> None:
        self.workload = workload
        self.work_dir = work_dir
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, dict] = {}  # first digests of each stage
        self.walls: dict[str, list[float]] = {}
        self.rss_mb: dict[str, list[float]] = {}
        self.cpu_s: dict[str, list[float]] = {}
        self.t0 = time.perf_counter()

    def record(self, stage, wall, rc, err, rss_mb=None, cpu_s=None) -> bool:
        """Count one stage execution; keep its sample if it passed."""
        self.attempted += 1
        outs = digests(self.work_dir, stage)
        problem = None
        if rc != 0:
            problem = f"exit {rc}: {err.strip()[-300:]}"
        elif any(d is None for d in outs.values()):
            problem = "missing " + ", ".join(k for k, d in outs.items() if d is None)
        elif stage in self.reference and self.reference[stage] != outs:
            problem = "outputs differ from the first repetition"
        if problem:
            self.failures.append(f"{stage}: {problem}")
            return False
        self.reference.setdefault(stage, outs)
        self.walls.setdefault(stage, []).append(wall)
        if rss_mb is not None:
            self.rss_mb.setdefault(stage, []).append(rss_mb)
            self.cpu_s.setdefault(stage, []).append(cpu_s)
        return True

    def check(self, checks) -> None:
        for name, passed, detail in checks:
            self.attempted += 1
            if not passed:
                self.failures.append(f"check '{name}' failed: {detail}")

    def time_left(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.t0)


def _child(run: Run, stage: str, seed: int, env: dict) -> bool:
    """Run one stage as a child process; wall time, peak RSS and CPU via wait4."""
    argv = [sys.executable, "-m", "protocurate.cli",
            *stage_argv(run.workload, stage, seed)]
    with open(os.path.join(run.work_dir, f"{stage}.stderr"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=run.work_dir, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        # A stage that would overrun the run's hard limit is killed.
        killer = threading.Timer(max(run.time_left(), 1.0), proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        message = err.read().decode("utf-8", "replace")
    return run.record(stage, wall, proc.returncode, message,
                      rss_mb=usage.ru_maxrss / 1024.0,
                      cpu_s=usage.ru_utime + usage.ru_stime)


def _in_process(run: Run, stage: str, seed: int, tracer: Tracer | None) -> bool:
    """Run one stage through ``protocurate.cli.main`` in this process."""
    from protocurate import cli

    argv = stage_argv(run.workload, stage, seed)
    err = io.StringIO()
    span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        with span:
            rc = cli.main(argv)
        wall = time.perf_counter() - start
    return run.record(stage, wall, rc, err.getvalue())


def _fresh_work_dir(workload: Workload, work_dir: str) -> None:
    if os.path.isdir(work_dir):
        shutil.rmtree(work_dir)
    os.makedirs(work_dir)
    if workload.config:
        with open(os.path.join(work_dir, "config.txt"), "w", encoding="utf-8") as fh:
            fh.write(workload.config)


def run_untraced(workload: Workload, seed: int, seconds: float, work_dir: str) -> dict:
    """Set up, then cycle the stages as child processes for ``seconds``."""
    _fresh_work_dir(workload, work_dir)
    env = dict(os.environ, PYTHONPATH=SRC)
    run = Run(workload, work_dir)
    setup = run.walls.setdefault("generate", [])
    ok = True
    while ok and len(setup) < SETUP_MAX_REPS and (
        len(setup) < SETUP_MIN_REPS or sum(setup) < SETUP_TARGET_S
    ):
        ok = _child(run, "generate", seed, env)

    # The first pass always runs.  After it, the stage with the fewest
    # samples among those that still fit in ``seconds`` runs next.
    start = time.perf_counter()
    ok = ok and all(_child(run, stage, seed, env) for stage in workload.stages)
    while ok:
        elapsed = time.perf_counter() - start
        fits = [stage for stage in workload.stages
                if elapsed + run.walls[stage][-1] <= seconds
                and run.time_left() > 2 * run.walls[stage][-1]]
        if not fits:
            break
        ok = _child(run, min(fits, key=lambda stage: len(run.walls[stage])), seed, env)

    facts = {}
    if ok:
        checks, facts = check_artifacts(workload, work_dir)
        run.check(checks)

    medians = {stage: _median(run.walls.get(stage, [])) for stage in workload.stages}
    metrics = {
        "setup_s": _median(run.walls.get("generate", [])),
        "curate_s": medians[selection_stage(workload)],
        "pipeline_s": sum(medians.values()) if None not in medians.values() else None,
        "peak_rss_mb": max((max(v) for s, v in run.rss_mb.items() if s != "generate"),
                           default=None),
    }
    for stage in workload.stages:
        metrics[f"{stage}_s"] = medians[stage]
    metrics["failed_frac"] = len(run.failures) / max(run.attempted, 1)
    for key in ("low_density_proportion", "macro_auroc"):
        if key in facts:
            metrics[key] = facts[key]

    return _record(workload, seed, seconds, 0, run, metrics, {
        "samples_s": run.walls,
        "rss_mb_samples": run.rss_mb,
        "cpu_s_samples": run.cpu_s,
        "solver": facts.get("solver"),
    })


def run_traced(workload: Workload, seed: int, seconds: float, work_dir: str) -> dict:
    """Alternate plain and traced in-process passes for ``seconds``."""
    import protocurate

    if not os.path.abspath(protocurate.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: protocurate imported from {protocurate.__file__}, not {SRC}")
    _fresh_work_dir(workload, work_dir)
    run = Run(workload, work_dir)
    stages = ("generate",) + workload.stages
    plain, traced, summaries, spans = [], [], [], None

    def one_pass(tracer):
        gc.collect()
        if tracer:
            tracer.install()
        try:
            ok = all(_in_process(run, stage, seed, tracer) for stage in stages)
        finally:
            if tracer:
                tracer.uninstall()
        return ok and sum(run.walls[stage][-1] for stage in workload.stages)

    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        start = time.perf_counter()
        while True:
            pair_start = time.perf_counter()
            plain_total = one_pass(None)
            tracer = Tracer()
            traced_total = one_pass(tracer)
            if plain_total is False or traced_total is False:
                break
            plain.append(plain_total)
            traced.append(traced_total)
            summaries.append(summarize(tracer.spans))
            spans = tracer.spans
            pair = time.perf_counter() - pair_start
            if time.perf_counter() - start + pair > seconds or run.time_left() < 2 * pair:
                break
    finally:
        os.chdir(cwd)

    if summaries:
        counts = [_exact_counts(s) for s in summaries]
        run.check([("traced passes repeat the exact counts",
                    all(c == counts[0] for c in counts), f"{len(counts)} passes")])
        checks, _ = check_artifacts(workload, work_dir)
        run.check(checks)
        write_spans(spans, os.path.join(work_dir, "trace.jsonl"))

    metrics = layer_metrics(summaries)
    metrics["trace_overhead_s"] = (_median(traced) - _median(plain)) if traced else None
    shares = stage_shares(spans) if spans else {}
    return _record(workload, seed, seconds, 1, run, metrics, {
        "samples_s": run.walls,
        "pipeline_plain_s": plain,
        "pipeline_traced_s": traced,
        "self_time_shares": shares,
    })


def _exact_counts(summary: dict) -> dict:
    calls = {name: entry["calls"] for name, entry in summary["functions"].items()}
    return {"calls": calls, "sweeps": summary["sweeps"],
            "emitted": summary["emitted"], "bytes_read": summary["bytes_read"]}


def _record(workload, seed, seconds, trace, run: Run, metrics, detail) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "metrics": metrics,
        "digests": {stage: run.reference[stage] for stage in sorted(run.reference)},
        "environment": environment(),
        **detail,
    }


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if unknown."""
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def _git(*args):
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = _git("status", "--porcelain")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def load_spec() -> dict:
    """BENCHMARK.json: the gated end-to-end and per-layer metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def metric_table(spec: dict) -> dict:
    """Untraced metrics: name -> (unit, better, bound), gated ones first."""
    table = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    table.update(REPORTED_METRICS)
    return table


def print_record(record: dict, spec: dict) -> None:
    env = record["environment"]
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"| python {env['python']} numpy {env['numpy']} {env['blas']} "
          f"blas_threads={env['blas_threads']} nproc={env['nproc']} "
          f"commit={env['git_commit']} dirty={env['git_dirty']}")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    units.update((name, row[0]) for name, row in metric_table(spec).items())
    workload = WORKLOADS[record["workload"]]
    stage_of = {f"{stage}_s": stage for stage in workload.stages}
    stage_of.update(setup_s="generate", curate_s=selection_stage(workload))
    samples = record["samples_s"]
    for name, value in record["metrics"].items():
        n = ""
        if record["trace"] == 0 and name in stage_of:
            n = f"  (median of {len(samples.get(stage_of[name], []))})"
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<42} {shown:>14} {units.get(name, '')}{n}")
    if record.get("solver"):
        print("  solver: " + ", ".join(f"{k}={v}" for k, v in record["solver"].items()))
    for stage, top in record.get("self_time_shares", {}).items():
        print(f"  {stage}: " + ", ".join(f"{n} {share:.0%}" for n, s, share in top))
    print(f"  checks: {record['attempted'] - record['failed']}/{record['attempted']} passed")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def result_line(record: dict, spec: dict) -> str:
    """The last output line: BENCHMARK.json's end-to-end metrics for an
    untraced run, its per-layer metrics for a traced one."""
    listed = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = {m["name"]: {"value": record["metrics"].get(m["name"]), "unit": m["unit"]}
               for m in listed}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def compare(base_path: str, new_path: str, spec: dict) -> int:
    """Per workload and untraced metric: each side's median and quartiles,
    flagged when worse beyond the bound or unresolved by the spread."""
    table = metric_table(spec)

    def load(path):
        with open(path, encoding="utf-8") as fh:
            grouped = {}
            for record in json.load(fh):
                if record["trace"] == 0:
                    for name, value in record["metrics"].items():
                        if value is not None and name in table:
                            grouped.setdefault(record["workload"], {}).setdefault(
                                name, []).append(value)
            return grouped

    base, new = load(base_path), load(new_path)
    worse = 0
    print(f"{'workload':<9} {'metric':<24} {'base q1/median/q3':>30} "
          f"{'new q1/median/q3':>30} {'change':>8}  verdict")
    for workload in sorted(set(base) & set(new)):
        for name, (unit, better, bound) in table.items():
            b, n = base[workload].get(name), new[workload].get(name)
            if not b or not n:
                continue
            bq, nq = _quartiles(b), _quartiles(n)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else nq[1] - bq[1]
            loss = change if better == "lower" else -change
            spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (bq, nq))
            new_wins = (max(n) < min(b)) if better == "lower" else (min(n) > max(b))
            if spread > bound and not new_wins:
                verdict = "unresolved"
            elif loss > bound:
                verdict, worse = "WORSE", worse + 1
            else:
                verdict = "ok"
            cols = ["/".join(f"{x:.4g}" for x in q) for q in (bq, nq)]
            print(f"{workload:<9} {name + ' [' + unit + ']':<24} {cols[0]:>30} "
                  f"{cols[1]:>30} {change:>+8.1%}  {verdict} (bound {bound:.0%}, "
                  f"n={len(b)}/{len(n)})")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--runs", type=int, default=1,
                        help="seeds per workload, counting up from --seed")
    parser.add_argument("--out", help="write the full result records (JSON list) here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if not os.path.isfile(os.path.join(SRC, "protocurate", "cli.py")):
        print(f"error: no protocurate sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if not args.all and not args.workload:
        parser.error("give --workload NAME, --all or --compare")

    names = sorted(WORKLOADS) if args.all else [args.workload]
    runner = run_traced if args.trace else run_untraced
    records = []
    for name in names:
        for seed in range(args.seed, args.seed + args.runs):
            work_dir = os.path.join(BENCH_DIR, "work", name)
            record = runner(WORKLOADS[name], seed, args.seconds, work_dir)
            print_record(record, spec)
            records.append(record)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")
    print(result_line(records[-1], spec) if len(records) == 1 else json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
