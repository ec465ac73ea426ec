"""Engine configuration: flat `key = value` text files.

One format feeds every subcommand; each stage reads the keys it needs.
Unknown keys are rejected so typos fail loudly instead of silently running
with a default.  An `EngineConfig` validates itself when it is built, from a
file, by `dataclasses.replace` or in code.  All validation errors name the
offending key.
"""

from __future__ import annotations

import math
import types
import typing
from dataclasses import dataclass

from .errors import ConfigError
from .embedding import CURATION_SPACES
from .io import input_file, text_lines

# Canonical long-tailed class weights for the default 6-cluster corpus.
DEFAULT_WEIGHTS_6 = (0.70, 0.15, 0.07, 0.04, 0.025, 0.015)


def default_cluster_weights(c: int) -> tuple[float, ...]:
    """Long-tailed weight vector for C clusters (geometric decay, normalized)."""
    if c == 6:
        return DEFAULT_WEIGHTS_6
    raw = [0.3**i for i in range(c)]
    total = sum(raw)
    return tuple(w / total for w in raw)


@dataclass(frozen=True)
class EngineConfig:
    # Curation
    superbatch_size: int = 640
    outlier_frac: float = 0.05
    keep_frac: float = 0.10
    per_cluster_budget: int = 10
    K: int = 6
    ema_alpha: float = 0.1
    curation_space: str = "concat"
    seed: int = 0
    epsilon: float = 0.05
    # Equipartition transport on long-tailed pools converges slowly: forcing
    # 1/K of the mass onto far prototypes needs thousands of scaling sweeps
    # at epsilon 0.05 (worst observed ~9k on the default corpus).  A sweep of
    # a ~550x6 pool costs 6.3-6.9 us on a 2-core x86_64 host, so the cap
    # stops a solve that cannot converge after about 0.35 s; it only exists to
    # turn a hang into a clean failure.
    max_iters: int = 50000
    tol: float = 1e-6
    warmup_samples: int = 6400
    target_subset_size: int | None = None
    kmeans_max_iters: int = 100
    # Trainer
    proj_dim: int = 32
    learning_rate: float = 5e-5
    weight_decay: float = 1e-4
    epochs: int = 20
    batch_size: int = 64
    tau_init: float = 0.01
    # Eval
    zero_shot_tau: float | None = None  # None = use the trained temperature
    # Analysis
    knn_k: int = 20
    density_quantile: float = 0.25
    # Synthetic corpus
    n_samples: int = 20000
    clusters: int = 6
    cluster_weights: tuple[float, ...] | None = None
    d_img: int = 32
    d_txt: int = 32
    rho: float = 0.9
    noise_scale: float = 0.3
    mean_scale: float = 1.0

    def __post_init__(self) -> None:
        validate_config(self)

    def resolved_weights(self) -> tuple[float, ...]:
        if self.cluster_weights is not None:
            return self.cluster_weights
        return default_cluster_weights(self.clusters)


def _key_type(hint) -> type:
    """int, float, str or tuple: a field's annotation without its `| None`."""
    if isinstance(hint, types.UnionType):
        hint = typing.get_args(hint)[0]
    return typing.get_origin(hint) or hint


# The type of every config key, read from the field annotations above.
_KEY_TYPES = {key: _key_type(hint) for key, hint in typing.get_type_hints(EngineConfig).items()}


# How a value of each key type is read, and what a value that fails to read was expected to be.
_READERS = {
    int: (int, "an integer"),
    float: (float, "a number"),
    tuple: (lambda raw: tuple(float(part) for part in raw.split(",")), "comma-separated numbers"),
    str: (str, "text"),
}


def _parse_value(key: str, raw: str):
    read, expected = _READERS[_KEY_TYPES[key]]
    try:
        return read(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected {expected}, got {raw!r}") from None


def parse_config(text: str) -> EngineConfig:
    """Parse `key = value` lines (# comments, blank lines allowed) into a checked config."""
    overrides = {}
    for lineno, line in enumerate(text_lines(text), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {line.strip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in overrides:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        overrides[key] = _parse_value(key, raw)
    return EngineConfig(**overrides)


def load_config(path) -> EngineConfig:
    with input_file(path, "config") as data:
        return parse_config(data.decode("utf-8"))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def validate_config(cfg: EngineConfig) -> None:
    _require(cfg.superbatch_size >= 1, "key 'superbatch_size': must be >= 1")
    _require(0.0 <= cfg.outlier_frac < 1.0, "key 'outlier_frac': must be in [0, 1)")
    _require(0.0 < cfg.keep_frac < 1.0, "key 'keep_frac': must be in (0, 1)")
    _require(
        cfg.outlier_frac + cfg.keep_frac < 1.0,
        "keys 'outlier_frac' + 'keep_frac': sum must be < 1 "
        f"(got {cfg.outlier_frac + cfg.keep_frac:g})",
    )
    _require(cfg.per_cluster_budget >= 1, "key 'per_cluster_budget': must be >= 1")
    _require(cfg.K >= 2, "key 'K': must be >= 2")
    _require(0.0 < cfg.ema_alpha <= 1.0, "key 'ema_alpha': must be in (0, 1]")
    _require(
        cfg.curation_space in CURATION_SPACES,
        f"key 'curation_space': must be one of {CURATION_SPACES}",
    )
    _require(cfg.seed >= 0, "key 'seed': must be >= 0")
    _require(cfg.epsilon > 0.0, "key 'epsilon': must be > 0")
    _require(cfg.max_iters >= 1, "key 'max_iters': must be >= 1")
    _require(cfg.tol > 0.0, "key 'tol': must be > 0")
    _require(cfg.warmup_samples >= cfg.K, "key 'warmup_samples': must be >= K")
    if cfg.target_subset_size is not None:
        _require(cfg.target_subset_size >= 1, "key 'target_subset_size': must be >= 1")
    _require(cfg.kmeans_max_iters >= 1, "key 'kmeans_max_iters': must be >= 1")

    _require(cfg.proj_dim >= 1, "key 'proj_dim': must be >= 1")
    _require(cfg.learning_rate > 0.0, "key 'learning_rate': must be > 0")
    _require(cfg.weight_decay >= 0.0, "key 'weight_decay': must be >= 0")
    _require(cfg.epochs >= 1, "key 'epochs': must be >= 1")
    _require(cfg.batch_size >= 1, "key 'batch_size': must be >= 1")
    _require(1e-3 <= cfg.tau_init <= 0.5, "key 'tau_init': must be in [1e-3, 0.5]")
    if cfg.zero_shot_tau is not None:
        _require(cfg.zero_shot_tau > 0.0, "key 'zero_shot_tau': must be > 0")

    _require(cfg.knn_k >= 1, "key 'knn_k': must be >= 1")
    _require(0.0 < cfg.density_quantile < 1.0, "key 'density_quantile': must be in (0, 1)")

    _require(cfg.n_samples >= 1, "key 'n_samples': must be >= 1")
    _require(cfg.clusters >= 1, "key 'clusters': must be >= 1")
    _require(cfg.d_img >= 2, "key 'd_img': must be >= 2")
    _require(cfg.d_txt >= 2, "key 'd_txt': must be >= 2")
    _require(0.0 <= cfg.rho <= 1.0, "key 'rho': must be in [0, 1]")
    _require(cfg.noise_scale >= 0.0, "key 'noise_scale': must be >= 0")
    _require(cfg.mean_scale > 0.0, "key 'mean_scale': must be > 0")
    if cfg.cluster_weights is not None:
        _require(
            len(cfg.cluster_weights) == cfg.clusters,
            f"key 'cluster_weights': expected {cfg.clusters} entries, "
            f"got {len(cfg.cluster_weights)}",
        )
        _require(
            all(w > 0.0 for w in cfg.cluster_weights),
            "key 'cluster_weights': all weights must be > 0",
        )
        total = sum(cfg.cluster_weights)
        _require(
            abs(total - 1.0) <= 1e-6,
            f"key 'cluster_weights': weights must sum to 1 (got {total:g})",
        )
    for key, kind in _KEY_TYPES.items():
        value = getattr(cfg, key)
        if kind is float and value is not None:
            _require(math.isfinite(value), f"key {key!r}: must be finite")
