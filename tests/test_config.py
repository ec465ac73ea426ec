"""Config parsing: defaults, key validation, constraint messages."""

import dataclasses
import math
import pathlib
import re
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protocurate.config import (
    EngineConfig,
    default_cluster_weights,
    load_config,
    parse_config,
)
from protocurate.errors import ConfigError, FormatError

FLOAT_KEYS = sorted(
    key for key, hint in typing.get_type_hints(EngineConfig).items()
    if hint in (float, float | None)
)


class TestDefaults:
    def test_empty_text_gives_paper_defaults(self):
        cfg = parse_config("")
        assert cfg.K == 6
        assert cfg.ema_alpha == 0.1
        assert cfg.superbatch_size == 640
        assert cfg.outlier_frac == 0.05
        assert cfg.keep_frac == 0.10
        assert cfg.per_cluster_budget == 10
        assert cfg.warmup_samples == 6400
        assert cfg.epsilon == 0.05
        assert cfg.learning_rate == 5e-5
        assert cfg.weight_decay == 1e-4
        assert cfg.epochs == 20
        assert cfg.tau_init == 0.01
        assert cfg.knn_k == 20
        assert cfg.density_quantile == 0.25
        assert cfg.rho == 0.9
        assert cfg.n_samples == 20000

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nK = 4  # inline\n")
        assert cfg.K == 4

    def test_default_weights_long_tailed(self):
        w = default_cluster_weights(6)
        assert w == (0.70, 0.15, 0.07, 0.04, 0.025, 0.015)
        assert abs(sum(w) - 1.0) < 1e-12
        w4 = default_cluster_weights(4)
        assert len(w4) == 4
        assert abs(sum(w4) - 1.0) < 1e-12
        assert all(a > b for a, b in zip(w4, w4[1:]))


class TestParsing:
    def test_k4_accepted(self):
        assert parse_config("K = 4").K == 4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'krnel'"):
            parse_config("krnel = 3")

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="'K'"):
            parse_config("K = six")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("K = 4\nK = 5")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("K 4")

    # Characters other than "\n" that str.splitlines also breaks lines at.
    @pytest.mark.parametrize("sep", ["\r", "\v", "\f", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_lines_end_at_newline_alone(self, sep):
        assert parse_config(f"# K is left at its default{sep}K = 3\n").K == 6
        with pytest.raises(ConfigError, match="^line 2: unknown key 'x'$"):
            parse_config(f"K = 4{sep}\nx = 1\n")

    def test_crlf_line_ends_accepted(self, tmp_path):
        path = tmp_path / "engine.cfg"
        path.write_bytes(b"# paper defaults but K\r\nK = 4  # inline\r\n\r\nknn_k = 5\r\n")
        cfg = load_config(path)
        assert (cfg.K, cfg.knn_k) == (4, 5)
        with pytest.raises(ConfigError, match="^line 2: unknown key 'x'$"):
            parse_config("K = 4\r\nx = 1\r\n")

    def test_cluster_weights_list(self):
        cfg = parse_config("clusters = 3\ncluster_weights = 0.5, 0.3, 0.2")
        assert cfg.cluster_weights == (0.5, 0.3, 0.2)

    def test_target_subset_size(self):
        assert parse_config("").target_subset_size is None
        assert parse_config("target_subset_size = 50").target_subset_size == 50


class TestConstraints:
    def test_fraction_sum_constraint(self):
        with pytest.raises(ConfigError, match="sum"):
            parse_config("keep_frac = 0.97")

    def test_keep_frac_bounds(self):
        with pytest.raises(ConfigError, match="keep_frac"):
            parse_config("keep_frac = 0")

    def test_k_lower_bound(self):
        with pytest.raises(ConfigError, match="'K'"):
            parse_config("K = 1")

    def test_warmup_at_least_k(self):
        with pytest.raises(ConfigError, match="warmup_samples"):
            parse_config("warmup_samples = 3")

    def test_ema_range(self):
        with pytest.raises(ConfigError, match="ema_alpha"):
            parse_config("ema_alpha = 1.5")

    def test_curation_space_values(self):
        assert parse_config("curation_space = image_only").curation_space == "image_only"
        with pytest.raises(ConfigError, match="curation_space"):
            parse_config("curation_space = both")

    def test_tau_range(self):
        with pytest.raises(ConfigError, match="tau_init"):
            parse_config("tau_init = 0.9")

    def test_weights_must_match_clusters(self):
        with pytest.raises(ConfigError, match="cluster_weights"):
            parse_config("cluster_weights = 0.5, 0.5")

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            parse_config("clusters = 2\ncluster_weights = 0.9, 0.2")

    def test_rho_range(self):
        with pytest.raises(ConfigError, match="rho"):
            parse_config("rho = 1.2")

    def test_validation_runs_on_programmatic_config(self):
        with pytest.raises(ConfigError, match="epsilon"):
            EngineConfig(epsilon=0.0)
        with pytest.raises(ConfigError, match="epsilon"):
            dataclasses.replace(EngineConfig(), epsilon=0.0)

    def test_target_subset_size_checked_on_replace(self):
        for size in (0, -5):
            with pytest.raises(ConfigError, match="'target_subset_size': must be >= 1"):
                dataclasses.replace(EngineConfig(), target_subset_size=size)

    def test_negative_seed_rejected(self):
        assert parse_config("seed = 0").seed == 0
        with pytest.raises(ConfigError, match="'seed': must be >= 0"):
            parse_config("seed = -1")
        with pytest.raises(ConfigError, match="'seed'"):
            EngineConfig(seed=-1)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_float_keys_must_be_finite(self, key, value):
        with pytest.raises(ConfigError, match=f"key '{key}'"):
            parse_config(f"{key} = {value}")
        with pytest.raises(ConfigError, match=f"key '{key}'"):
            EngineConfig(**{key: float(value)})


class TestLoadConfig:
    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "engine.cfg"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(FormatError, match=re.escape(f"config file {path}: not UTF-8")):
            load_config(path)


_VALUES = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e400", "0.5, 0.5", "", "six", "concat"]),
    st.text(max_size=8),
)
_LINES = st.lists(
    st.tuples(st.sampled_from([f.name for f in dataclasses.fields(EngineConfig)]), _VALUES),
    min_size=1,
    max_size=3,
)


class TestConfigFuzz:
    @settings(max_examples=500, deadline=None)
    @given(lines=_LINES)
    @example(lines=[("seed", "-1")])
    @example(lines=[("learning_rate", "inf")])
    @example(lines=[("zero_shot_tau", "nan")])
    def test_parse_returns_checked_config_or_config_error(self, lines):
        text = "\n".join(f"{key} = {value}" for key, value in lines)
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        for key in FLOAT_KEYS:
            value = getattr(cfg, key)
            assert value is None or math.isfinite(value), (key, value)
        np.random.default_rng(cfg.seed)


def readme_config_rows() -> list[tuple[list[str], list[str]]]:
    """Each row of README's config table: its keys and its default cells."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [
        (re.findall(r"`([A-Za-z_]+)`", cells[1]), cells[2].strip().split(", "))
        for line in section.splitlines()
        if line.startswith("| `")
        for cells in [line.split("|")]
    ]


def readme_default(cell: str):
    """A default cell as the value it names: ``none`` and the built-in long tail
    are None, a numeral its int or float, anything else a string."""
    if cell in ("none", "built-in long tail"):
        return None
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


class TestReadme:
    def test_every_key_in_config_table(self):
        documented = {key for keys, _ in readme_config_rows() for key in keys}
        missing = [f.name for f in dataclasses.fields(EngineConfig) if f.name not in documented]
        assert not missing, f"README config table lacks {missing}"

    def test_config_table_defaults_are_engine_config(self):
        """The table is the one documented restatement of the defaults."""
        cfg = EngineConfig()
        table = {}
        for keys, cells in readme_config_rows():
            assert len(keys) == len(cells), keys
            table.update(zip(keys, map(readme_default, cells)))
        assert table == {key: getattr(cfg, key) for key in table}
        assert len(table) == len(dataclasses.fields(EngineConfig))
