"""Run configuration: dataclasses, flat key=value files, and presets.

Config files are plain `section.key = value` lines, read by `checkpoint.numbered_lines`.
Every key is validated against the schema before any compute happens and
unknown keys are rejected, so a config file plus the echoed overrides in
the run manifest fully reproduce a run.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import operator
import os
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path
from typing import ClassVar

import numpy as np

from .checkpoint import numbered_lines, replacing
from .errors import ConfigError

GRAPH_MODES = ("fused", "spatial_only", "temporal_only", "predefined")


_COMPARISONS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def _require(section: str, cfg, bounds):
    """Reject the first (field, comparison, bound) triple that cfg fails.

    NaN and infinities fail every bound.
    """
    for name, op, bound in bounds:
        value = getattr(cfg, name)
        if not (math.isfinite(value) and _COMPARISONS[op](value, bound)):
            raise ConfigError(f"{section}.{name} must be finite and {op} {bound}, got {value}")


def check_split(ratios) -> None:
    """Reject split ratios unless there are three, each positive, summing to 1."""
    # written so that NaN fails: every comparison with it is False
    if not (len(ratios) == 3 and all(r > 0 for r in ratios) and abs(sum(ratios) - 1.0) <= 1e-9):
        raise ConfigError(
            f"train.split needs three positive ratios that sum to 1, got {list(ratios)}")


@dataclass
class ModelConfig:
    history_steps: int = 12      # Th
    horizon_steps: int = 12      # Tf
    channels: ClassVar[int] = 1  # C, a constant: the series loader yields one channel
    patterns: int = 2            # G, decoupled traffic pattern count
    rgc_iterations: int = 2      # M, parallel graph-conv blocks per pattern
    hidden: int = 32             # d, channel width after input projection
    depth: int = 3               # K, propagation depth within one block
    gamma: float = 0.1           # input retention ratio
    dropout: float = 0.1
    node_embed_dim: int = 12     # Nd
    time_embed_dim: int = 12     # D
    gate_hidden: int = 32
    head_hidden: int = 64
    head_channels: int = 64

    def validate(self):
        _require("model", self,
                 [(f.name, ">=", 1) for f in fields(self) if type(f.default) is int]
                 + [("gamma", ">=", 0), ("gamma", "<=", 1), ("dropout", ">=", 0),
                    ("dropout", "<", 1)])


@dataclass
class GraphConfig:
    alpha: float = 3.0           # saturation rate of the score construction
    beta: float = 3.0            # saturation rate of the fusion product
    k_spatial: int = 10          # Ks, retained entries per spatial row
    k_temporal: int = 10         # Kt
    heads: int = 4
    head_dim: int = 0            # 0 = derive from node count at model build
    mode: str = "fused"

    def validate(self):
        if self.mode not in GRAPH_MODES:
            raise ConfigError(f"graph.mode must be one of {GRAPH_MODES}, got {self.mode!r}")
        _require("graph", self, [("alpha", ">", 0), ("beta", ">", 0), ("heads", ">=", 1),
                                 ("head_dim", ">=", 0), ("k_spatial", ">=", 1),
                                 ("k_temporal", ">=", 1)])

    def resolve_head_dim(self, n_nodes: int) -> int:
        """Default head width: N/4 floored with a minimum of 8, clamped so
        heads * head_dim never exceeds the node count."""
        if self.head_dim:
            return self.head_dim
        return max(1, min(max(8, n_nodes // 4), n_nodes // self.heads))

    def validate_for_nodes(self, n_nodes: int):
        self.validate()
        if self.k_spatial > n_nodes:
            raise ConfigError(f"graph.k_spatial={self.k_spatial} exceeds node count {n_nodes}")
        if self.k_temporal > n_nodes:
            raise ConfigError(f"graph.k_temporal={self.k_temporal} exceeds node count {n_nodes}")
        head_dim = self.resolve_head_dim(n_nodes)
        if self.heads * head_dim > n_nodes:
            raise ConfigError(
                f"graph.heads*head_dim = {self.heads}*{head_dim} exceeds node count {n_nodes}")


@dataclass
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 0.004
    weight_decay: float = 1e-5
    eps: float = 1e-8
    lr_decay: float = 0.5
    milestones: list = field(default_factory=lambda: [50, 80])
    warmup_epochs: int = 20
    curriculum_step: int = 3
    max_epochs: int = 100
    seed: int = 1
    mask_threshold: float = 0.0
    patience: int = 20
    split: list = field(default_factory=lambda: [0.6, 0.2, 0.2])

    def validate(self):
        _require("train", self, [("batch_size", ">=", 1), ("learning_rate", ">=", 0),
                                 ("weight_decay", ">=", 0), ("eps", ">", 0), ("lr_decay", ">", 0),
                                 ("lr_decay", "<=", 1), ("warmup_epochs", ">=", 0),
                                 ("curriculum_step", ">=", 1), ("max_epochs", ">=", 1),
                                 ("seed", ">=", 0), ("mask_threshold", ">=", 0),
                                 ("patience", ">=", 0)])
        if sorted(self.milestones) != list(self.milestones):
            raise ConfigError(f"train.milestones must be sorted ascending, got {self.milestones}")
        check_split(self.split)


@dataclass
class DataConfig:
    series: str = ""
    meta: str = ""
    graph: str = ""
    directed_graph: bool = False


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    overrides: list = field(default_factory=list)

    def validate(self):
        self.model.validate()
        self.graph.validate()
        self.train.validate()
        if self.graph.mode == "predefined" and not self.data.graph:
            raise ConfigError("graph.mode=predefined requires data.graph to point at an edge list")


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


_SECTIONS = {"model": ModelConfig, "graph": GraphConfig, "train": TrainConfig, "data": DataConfig}


def _parser(default):
    """Text parser for a field, chosen by the type of its default value."""
    if isinstance(default, bool):
        return _parse_bool
    if isinstance(default, list):
        item = type(default[0])
        return lambda raw: [item(x) for x in raw.split(",")] if raw else []
    return type(default)


_SCHEMA = {f"{section}.{f.name}": _parser(getattr(cls(), f.name))
           for section, cls in _SECTIONS.items() for f in fields(cls)}


def apply_assignment(cfg: RunConfig, key: str, raw_value: str):
    """Set one `section.field = value` assignment, validating the key path.

    Key and value are stripped first, so a parse error quotes the value as
    the file or command line shows it.
    """
    key = key.strip()
    if key not in _SCHEMA:
        raise ConfigError(f"unknown config key: {key}")
    section, name = key.split(".", 1)
    try:
        value = _SCHEMA[key](raw_value.strip())
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    setattr(getattr(cfg, section), name, value)


def load_config(path=None, overrides=()) -> RunConfig:
    """Build a RunConfig from an optional file, whose errors name their line, plus overrides."""
    cfg = RunConfig()
    if path is not None:
        for line_no, line in numbered_lines(path, ConfigError):
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key = value, got {line!r}")
            try:
                apply_assignment(cfg, *line.split("=", 1))
            except ConfigError as exc:
                raise ConfigError(f"{path}:{line_no}: {exc}") from None
    apply_overrides(cfg, overrides)
    cfg.validate()
    return cfg


def apply_overrides(cfg: RunConfig, overrides) -> None:
    """Apply `section.key=value` items and echo each into cfg.overrides."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        key, raw = item.split("=", 1)
        apply_assignment(cfg, key, raw)
        cfg.overrides.append(item)


def preset_path(name: str) -> Path:
    """Resolve a shipped preset (pems03/pems04/pems07/pems08/toy) to a path."""
    resource = importlib.resources.files("fusecast") / "presets" / f"{name}.cfg"
    if not resource.is_file():
        raise ConfigError(f"unknown preset: {name}")
    return Path(str(resource))


def environment() -> dict:
    """The numpy build and the BLAS thread settings in force, which the bits can depend on.

    The thread variables are None when unset. The CPU count is left out:
    the bits do not depend on it.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without the dict form
        blas = {}
    env = {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version")}
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = os.environ.get(name)
    return env


def write_manifest(cfg: RunConfig, path) -> None:
    """Write the config, its overrides and the environment as sorted JSON."""
    manifest = {**asdict(cfg), "environment": environment()}
    with replacing(path) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
