"""Traffic series ingestion, windowing, normalization, and synthetic data.

Series come in as a plain CSV (one row per time step, one column per
sensor) plus a JSON sidecar declaring at least `steps_per_day` and
`first_step_day_of_week`. A value of exactly 0 is the conventional
missing-reading marker and is masked out of losses and metrics downstream.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import check_split
from .errors import ConfigError, IngestionError

DAYS_PER_WEEK = 7


@dataclass
class TrafficSeries:
    """A full flow recording: values[T, N, 1] plus its calendar anchoring."""

    values: np.ndarray
    steps_per_day: int
    first_step_day_of_week: int
    name: str = "series"

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.values.shape[1]

    def time_indices(self, t):
        """(time-of-day, day-of-week) integer indices for an array of absolute steps."""
        tod = t % self.steps_per_day
        dow = (self.first_step_day_of_week + t // self.steps_per_day) % DAYS_PER_WEEK
        return tod, dow


class WindowSet:
    """Every valid sliding window inside one chronological split.

    Windows are materialized lazily from the underlying series so the full
    datasets do not explode into [W, Th, N, 1] copies.
    """

    def __init__(self, series: TrafficSeries, split_start: int, split_length: int,
                 history_steps: int, horizon_steps: int):
        self.series = series
        self.split_start = split_start
        self.split_length = split_length
        self.history_steps = history_steps
        self.horizon_steps = horizon_steps
        self.count = split_length - history_steps - horizon_steps + 1

    def __len__(self) -> int:
        return self.count

    def batch(self, indices):
        """Materialize windows at the given positions.

        Returns (history [B,Th,N,1], target [B,Tf,N,1], tod [B,Th], dow [B,Th]).
        """
        indices = np.asarray(indices)
        th, tf = self.history_steps, self.horizon_steps
        starts = self.split_start + indices
        hist_idx = starts[:, None] + np.arange(th)[None, :]
        targ_idx = starts[:, None] + th + np.arange(tf)[None, :]
        values = self.series.values
        return (values[hist_idx], values[targ_idx]) + self.series.time_indices(hist_idx)


@dataclass
class Normalizer:
    """Per-channel z-score fitted on the training split only."""

    mean: float
    std: float

    def apply(self, x):
        return (x - self.mean) / self.std

    def invert(self, z):
        return z * self.std + self.mean


def load_series(data_path, meta_path=None) -> TrafficSeries:
    """Read a series CSV plus its JSON sidecar."""
    data_path = Path(data_path)
    meta_path = Path(meta_path) if meta_path else data_path.with_suffix(".json")
    try:
        meta = json.loads(meta_path.read_text())
    except ValueError as exc:  # bad JSON or bytes that are not UTF-8
        raise IngestionError(f"{meta_path}: invalid JSON sidecar: {exc}") from None
    if not isinstance(meta, dict):
        raise IngestionError(
            f"{meta_path}: sidecar must be a JSON object, got {type(meta).__name__}")
    steps_per_day = _meta_int(meta_path, meta, "steps_per_day", 1)
    first_dow = _meta_int(meta_path, meta, "first_step_day_of_week", 0, DAYS_PER_WEEK - 1)
    nodes = _meta_int(meta_path, meta, "nodes") if "nodes" in meta else None

    values = _read_numeric_csv(data_path)
    if nodes is not None and values.shape[1] != nodes:
        raise IngestionError(
            f"{data_path}: expected {nodes} columns per metadata, found {values.shape[1]}")
    # training runs in float32, so every value must fit in it; NaN fails the comparison too
    bad = np.argwhere(~(np.abs(values) <= np.finfo(np.float32).max))
    if bad.size:
        r, c = bad[0]
        raise IngestionError(f"{data_path}: row {r + 1}, column {c + 1} is not a finite float32")
    return TrafficSeries(
        values=values[:, :, None],
        steps_per_day=steps_per_day,
        first_step_day_of_week=first_dow,
        name=str(meta.get("name", data_path.stem)),
    )


def _meta_int(meta_path, meta: dict, key: str, low=-math.inf, high=math.inf) -> int:
    """Sidecar value `key` as an int in [low, high]; IngestionError otherwise."""
    if key not in meta:
        raise IngestionError(f"{meta_path}: missing metadata key '{key}'")
    try:
        value = int(meta[key])  # 288.0 passes; 47.9, "288" and true do not
        if value != meta[key] or isinstance(meta[key], bool):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise IngestionError(f"{meta_path}: metadata key '{key}' is not an integer: "
                             f"{meta[key]!r}") from None
    if not low <= value <= high:
        raise IngestionError(f"{meta_path}: metadata key '{key}' must lie in [{low}, {high}], "
                             f"got {value}")
    return value


def _text_rows(path):
    """(row number, stripped text) of each non-blank line of a UTF-8 file."""
    # undecodable bytes become lone surrogates, which a strict encode rejects
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for row_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise IngestionError(f"{path}: row {row_no} is not valid UTF-8") from None
            if line.strip():
                yield row_no, line.strip()


def _read_numeric_csv(path: Path) -> np.ndarray:
    try:
        arr = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError:  # the slow scan pinpoints the bad row or cell
        width = None
        for row_no, line in _text_rows(path):
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise IngestionError(
                    f"{path}: row {row_no} has {len(cells)} columns, expected {width}") from None
            for col_no, cell in enumerate(cells, start=1):
                try:
                    float(cell)
                except ValueError:
                    raise IngestionError(
                        f"{path}: non-numeric cell at row {row_no}, column {col_no}: {cell!r}") from None
        raise IngestionError(f"{path}: could not parse CSV") from None
    if arr.size == 0:
        raise IngestionError(f"{path}: file contains no data rows")
    return arr


def split_and_window(series: TrafficSeries, history_steps: int, horizon_steps: int,
                     ratios=(0.6, 0.2, 0.2)):
    """Chronological train/val/test split, each windowed at every valid offset.

    Windows never straddle a split boundary; each split contributes
    split_length - Th - Tf + 1 windows.
    """
    check_split(ratios)
    total = series.n_steps
    n_train = int(math.floor(ratios[0] * total))
    n_val = int(math.floor(ratios[1] * total))
    n_test = total - n_train - n_val
    sets = []
    start = 0
    for label, length in (("train", n_train), ("val", n_val), ("test", n_test)):
        ws = WindowSet(series, start, length, history_steps, horizon_steps)
        if ws.count < 1:
            raise ConfigError(
                f"{label} split has {length} steps, too short for one "
                f"{history_steps}+{horizon_steps} window")
        sets.append(ws)
        start += length
    return tuple(sets)


def fit_normalizer(train_windows: WindowSet) -> Normalizer:
    """Z-score statistics over the values reachable as training history.

    That is the union of history positions of all training windows: the
    split minus its final horizon_steps entries, each step counted once.
    """
    ws = train_windows
    span = ws.split_length - ws.horizon_steps
    values = ws.series.values[ws.split_start:ws.split_start + span]
    mean = float(values.mean())
    std = float(values.std())
    if std <= 0.0:
        raise ConfigError("training split is constant; cannot normalize (std = 0)")
    return Normalizer(mean=mean, std=std)


def make_synthetic(n_nodes: int, days: int, seed: int, coupling: float, *,
                   steps_per_day: int = 288, base: float = 100.0,
                   daily_amplitude: float = 50.0, weekly_amplitude: float = 0.2,
                   noise_std: float = 2.0, steps: int | None = None):
    """Generate a coupled periodic traffic series with known structure.

    Each node carries a daily sinusoid (own phase and amplitude) under a
    weekly modulation envelope; node i additionally follows node i-1 (mod N)
    at a one-step lag with the given coupling strength, plus Gaussian noise.

    Returns (series, params) where params records every generation constant
    so tests can build oracle baselines against the construction.
    """
    if n_nodes < 2:
        raise ConfigError(f"synthetic series needs at least 2 nodes, got {n_nodes}")
    if days < 2:
        raise ConfigError(f"synthetic series needs at least 2 days, got {days}")
    if seed < 0 or steps_per_day < 1:
        raise ConfigError(f"synthetic series needs seed >= 0 and steps_per_day >= 1, "
                          f"got {seed} and {steps_per_day}")
    if not 0.0 <= coupling <= 1.0:  # NaN fails the comparison too
        raise ConfigError(f"synthetic coupling must be in [0, 1], got {coupling}")
    if not 0.0 <= noise_std < np.inf:
        raise ConfigError(f"synthetic noise must be finite and >= 0, got {noise_std}")
    rng = np.random.default_rng(seed)
    total = days * steps_per_day
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_nodes)
    amps = daily_amplitude * rng.uniform(0.8, 1.2, size=n_nodes)
    bases = base * rng.uniform(0.8, 1.2, size=n_nodes)

    t = np.arange(total)
    daily = np.sin(2.0 * np.pi * t[:, None] / steps_per_day + phases[None, :])
    weekly = 1.0 + weekly_amplitude * np.sin(2.0 * np.pi * t / (DAYS_PER_WEEK * steps_per_day))
    clean = (bases[None, :] + amps[None, :] * daily) * weekly[:, None]

    noise = noise_std * rng.standard_normal((total, n_nodes))
    x = np.empty((total, n_nodes))
    x[0] = clean[0] + noise[0]
    lag_source = np.roll(np.arange(n_nodes), 1)  # node i follows node i-1 (mod N)
    for step in range(1, total):
        x[step] = (1.0 - coupling) * clean[step] + coupling * x[step - 1, lag_source] + noise[step]
    if steps is not None:
        if steps > total:
            raise ConfigError(f"requested {steps} steps but {days} days yield only {total}")
        x = x[:steps]
    series = TrafficSeries(values=x[:, :, None], steps_per_day=steps_per_day,
                           first_step_day_of_week=0, name=f"synthetic-{n_nodes}n")
    params = {
        "n_nodes": n_nodes, "days": days, "seed": seed, "coupling": coupling,
        "steps_per_day": steps_per_day, "base": bases.tolist(), "amplitude": amps.tolist(),
        "phase": phases.tolist(), "weekly_amplitude": weekly_amplitude, "noise_std": noise_std,
    }
    return series, params


def save_series(series: TrafficSeries, csv_path, meta_path=None) -> None:
    """Write a series as CSV plus sidecar, the same format load_series reads."""
    csv_path = Path(csv_path)
    meta_path = Path(meta_path) if meta_path else csv_path.with_suffix(".json")
    np.savetxt(csv_path, series.values[:, :, 0], delimiter=",", fmt="%.6f")
    meta = {
        "steps_per_day": series.steps_per_day,
        "first_step_day_of_week": series.first_step_day_of_week,
        "name": series.name,
        "nodes": series.n_nodes,
    }
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def load_predefined_graph(edge_path, n_nodes: int, directed: bool = False) -> np.ndarray:
    """Load `from,to[,weight]` edges into a dense, non-negative [N, N] adjacency.

    A header row is skipped if present. Self-loops are dropped with a
    warning; undirected graphs are symmetrized.
    """
    adjacency = np.zeros((n_nodes, n_nodes))
    n_edges = 0
    for row_no, line in _text_rows(edge_path):
        cells = line.split(",")
        if len(cells) not in (2, 3):
            raise IngestionError(f"{edge_path}: row {row_no} has {len(cells)} fields, expected 2 or 3")
        try:
            src, dst = int(cells[0]), int(cells[1])
        except ValueError:
            if row_no == 1:
                continue  # header row
            raise IngestionError(f"{edge_path}: non-integer node id at row {row_no}") from None
        if not (0 <= src < n_nodes and 0 <= dst < n_nodes):
            raise IngestionError(
                f"{edge_path}: row {row_no} references node ({src}, {dst}) outside 0..{n_nodes - 1}")
        weight = 1.0
        if len(cells) == 3:
            try:
                weight = float(cells[2])
            except ValueError:
                raise IngestionError(f"{edge_path}: non-numeric weight at row {row_no}") from None
            if not 0 <= weight <= float(np.finfo(np.float32).max):
                raise IngestionError(
                    f"{edge_path}: weight at row {row_no} must be non-negative and within "
                    f"float32 range, got {cells[2]!r}")
        if src == dst:
            warnings.warn(f"{edge_path}: dropping self-loop on node {src} at row {row_no}")
            continue
        adjacency[src, dst] = weight
        if not directed:
            adjacency[dst, src] = weight
        n_edges += 1
    if n_edges == 0:
        warnings.warn(f"{edge_path}: no edges loaded, adjacency is all zeros")
    return adjacency
