"""In-process span recorder for the traced run.

The library is not modified.  ``Tracer.install`` replaces each public
function of the ``protocurate`` modules, at every module attribute that
refers to it, with a wrapper that records a span (name, start, end,
parent, info).  ``curation.py`` imports ``sinkhorn_plan`` by name, for
example, so both ``protocurate.prototypes.sinkhorn_plan`` and
``protocurate.curation.sinkhorn_plan`` are replaced.  ``uninstall`` puts
the originals back.  Spans stay in memory until ``write_spans`` is called.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time

# Modules whose public functions are wrapped.  The CLI module is left alone:
# the benchmark opens one span per stage around ``cli.main`` itself.
LAYERS = (
    "io",
    "embedding",
    "prototypes",
    "curation",
    "trainer",
    "metrics",
    "analysis",
    "synth",
    "config",
)
# Public methods that are called in a hot loop and are worth a span.
METHODS = (("trainer", "ProjectionHead", "unified"),)


def _sinkhorn_info(args, kwargs, plan):
    return {"sweeps": int(plan.iterations), "converged": bool(plan.converged)}


def _superbatch_info(args, kwargs, result):
    ids = args[1] if len(args) > 1 else kwargs["ids"]
    return {"offered": int(len(ids)), "emitted": int(len(result[0]))}


def _decode_info(args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    return {"bytes": int(len(data))}


# Extra facts recorded on a span, by span name.
INFO = {
    "prototypes.sinkhorn_plan": _sinkhorn_info,
    "curation.curate_superbatch": _superbatch_info,
    "io.decode_corpus": _decode_info,
}


class Tracer:
    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1, info or None].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a block."""
        index = self._open(name)
        self.spans[index][1] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _wrap(self, name: str, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            span = self.spans[index]
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return wrapper

    def install(self, package: str = "protocurate") -> None:
        modules = {
            short: importlib.import_module(f"{package}.{short}") for short in LAYERS + ("cli",)
        }
        wrappers = {}
        for short in LAYERS:
            module = modules[short]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        for short, cls_name, attr in METHODS:
            cls = getattr(modules[short], cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"{short}.{cls_name}.{attr}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()



def write_spans(spans: list[list], path) -> None:
    """Write spans as JSON lines: name, start, end, parent index, info."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, info in spans:
            record = {"name": name, "start": start, "end": end, "parent": parent}
            if info is not None:
                record["info"] = info
            fh.write(json.dumps(record) + "\n")


def _child_time(spans: list[list]) -> list[float]:
    """Seconds each span spent in its direct children.  Spans are strictly
    nested, so children never overlap and self time is duration minus this."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, info in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return child_time


def summarize(spans: list[list]) -> dict:
    """Per-name busy seconds, self seconds and call counts, plus derived facts."""
    child_time = _child_time(spans)
    by_name: dict[str, dict] = {}
    for index, (name, start, end, parent, info) in enumerate(spans):
        entry = by_name.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[index]
        entry["calls"] += 1

    # The last Sinkhorn solve under a super-batch is the mini-batch update,
    # any earlier one is the pool solve.
    solves_by_parent: dict[int, list[dict]] = {}
    offered = emitted = bytes_read = 0
    for name, start, end, parent, info in spans:
        if info is None:
            continue
        if name == "prototypes.sinkhorn_plan":
            solves_by_parent.setdefault(parent, []).append(info)
        elif name == "curation.curate_superbatch":
            offered += info["offered"]
            emitted += info["emitted"]
        elif name == "io.decode_corpus":
            bytes_read += info["bytes"]
    sweeps = {"pool": [], "update": []}
    unconverged = 0
    for solves in solves_by_parent.values():
        for position, info in enumerate(solves):
            sweeps["update" if position == len(solves) - 1 else "pool"].append(info["sweeps"])
            unconverged += not info["converged"]

    return {
        "functions": by_name,
        "sweeps": sweeps,
        "unconverged": unconverged,
        "offered": offered,
        "emitted": emitted,
        "bytes_read": bytes_read,
    }


def stage_shares(spans: list[list], top: int = 4) -> dict[str, list[tuple[str, float, float]]]:
    """For each benchmark stage span (``cli.*``), the functions with the most
    self time inside it: (name, self seconds, share of the stage)."""
    child_time = _child_time(spans)
    stage_of = [-1] * len(spans)
    stage_wall: dict[str, float] = {}
    for index, (name, start, end, parent, info) in enumerate(spans):
        if name.startswith("cli."):
            stage_of[index] = index
            stage_wall[name] = stage_wall.get(name, 0.0) + end - start
        elif parent >= 0:
            stage_of[index] = stage_of[parent]
    self_by_stage: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent, info) in enumerate(spans):
        if stage_of[index] < 0 or name.startswith("cli."):
            continue
        stage = spans[stage_of[index]][0]
        bucket = self_by_stage.setdefault(stage, {})
        bucket[name] = bucket.get(name, 0.0) + end - start - child_time[index]
    shares = {}
    for stage, wall in stage_wall.items():
        ranked = sorted(self_by_stage.get(stage, {}).items(), key=lambda kv: -kv[1])[:top]
        shares[stage] = [(name, secs, secs / wall if wall > 0 else 0.0) for name, secs in ranked]
    return shares


# Per-function metrics of the traced run, as (span name, kind).  A busy time
# (`.s`) includes child spans; `.self_s` excludes them.  Values are per pass.
_FUNCTION_METRICS = (
    ("io.decode_corpus", "s"), ("io.validate_corpus", "s"), ("io.encode_corpus", "s"),
    ("embedding.unify_batch", "s"),
    ("embedding.pairwise_sq_distance", "s"), ("embedding.pairwise_sq_distance", "calls"),
    ("prototypes.init_kmeans", "s"),
    ("prototypes.sinkhorn_plan", "s"), ("prototypes.sinkhorn_plan", "calls"),
    ("prototypes.update_prototypes", "s"),
    ("curation.score_superbatch", "s"), ("curation.trim_outliers", "s"),
    ("curation.select_distant", "s"),
    ("curation.fps_select", "s"), ("curation.fps_select", "calls"),
    ("curation.curate_superbatch", "self_s"), ("curation.run_curation", "self_s"),
    ("trainer.info_nce_grad", "s"), ("trainer.optimizer_step", "s"),
    ("trainer.ProjectionHead.unified", "s"),
    ("metrics.recall_both_blocked", "s"), ("metrics.auroc", "s"), ("metrics.auprc", "s"),
    ("metrics.zero_shot_scores", "s"),
    ("analysis.knn_mean_distance", "s"), ("analysis.pca2", "s"),
    ("analysis.write_analysis_bundle", "s"),
    ("synth.generate_corpus", "s"),
) + tuple(
    (f"cli.{stage}", kind)
    for stage in ("generate", "curate", "joint", "train", "eval", "analyze")
    for kind in ("s", "self_s")
)


def layer_metrics(summaries: list[dict]) -> dict[str, float | int]:
    """Per-layer metrics averaged over traced passes.  Counts come from the
    first pass; the caller checks that every pass repeats them exactly."""
    if not summaries:
        return {}
    passes = len(summaries)
    first = summaries[0]

    def total(name, kind):
        return sum(s["functions"].get(name, {}).get(kind, 0.0) for s in summaries) / passes

    out = {}
    for name, kind in _FUNCTION_METRICS:
        if kind == "calls":
            out[f"{name}.calls"] = first["functions"].get(name, {}).get("calls", 0)
        else:
            out[f"{name}.{kind}"] = total(name, kind)
    sweeps = first["sweeps"]
    all_sweeps = sum(sweeps["pool"]) + sum(sweeps["update"])
    steps = first["functions"].get("trainer.optimizer_step", {}).get("calls", 0)
    step_s = total("trainer.info_nce_grad", "s") + total("trainer.optimizer_step", "s")
    out.update({
        "io.bytes_read": first["bytes_read"],
        "prototypes.sinkhorn.pool.sweeps_total": sum(sweeps["pool"]),
        "prototypes.sinkhorn.pool.sweeps_max": max(sweeps["pool"], default=0),
        "prototypes.sinkhorn.update.sweeps_total": sum(sweeps["update"]),
        "prototypes.sinkhorn.update.sweeps_max": max(sweeps["update"], default=0),
        "prototypes.sinkhorn.us_per_sweep":
            1e6 * total("prototypes.sinkhorn_plan", "s") / all_sweeps if all_sweeps else 0.0,
        "prototypes.sinkhorn.unconverged": first["unconverged"],
        "curation.emitted_per_offered":
            first["emitted"] / first["offered"] if first["offered"] else 0.0,
        "trainer.steps": steps,
        "trainer.us_per_step": 1e6 * step_s / steps if steps else 0.0,
    })
    return out
