"""Loss, metrics, schedules, the training loop, and the ablation variants.

The loss is masked mean absolute error on denormalized predictions:
entries whose ground truth is exactly 0 are treated as missing and drop
out of both numerator and denominator. Training follows a warm-up phase on
the full horizon, then a curriculum that restarts at a one-step horizon
and grows it by one step every `curriculum_step` epochs. Validation runs
once per epoch. A non-finite loss, or a validation or test report with a
non-finite total (`MetricReport.finite`), raises NumericalError.

An ablation variant is a name for a tuple of config overrides
(`ABLATION_VARIANTS`); `apply_variant` applies them like command-line
overrides, so an ablation run is an ordinary training run.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import replacing, save_checkpoint
from .config import RunConfig, TrainConfig, apply_overrides
from .data import (WindowSet, fit_normalizer, load_predefined_graph, load_series,
                   split_and_window)
from .errors import ConfigError, NumericalError, ShapeError
from .network import Forecaster
from .optim import Adam
from .tensor import Tape, Tensor

ABLATION_VARIANTS = {
    "full": (),
    "use_pg": ("graph.mode=predefined",),
    "use_tg": ("graph.mode=temporal_only",),
    "use_sg": ("graph.mode=spatial_only",),
    "no_decouple": ("model.patterns=1",),
    "g2": ("model.patterns=2",),
    "g3": ("model.patterns=3",),
}


def masked_mae_loss(pred: Tensor, target: np.ndarray, horizon_limit: int | None = None) -> Tensor:
    """Mean |pred - target| over entries with target > 0, first `horizon_limit` steps.

    An empty mask yields a zero loss and a warning.
    """
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ShapeError(f"loss: prediction {pred.shape} vs target {target.shape}")
    horizon = pred.shape[-3]
    if horizon_limit is not None and horizon_limit < horizon:
        pred = T.narrow(pred, pred.ndim - 3, 0, horizon_limit)
        target = target[..., :horizon_limit, :, :]
    mask = (target > 0).astype(pred.dtype)
    count = mask.sum()
    if count == 0:
        warnings.warn("loss mask is empty (all targets zero); returning 0")
        return Tensor(np.zeros((), dtype=pred.dtype))
    err = T.abs_(pred - Tensor(target.astype(pred.dtype)))
    return (err * mask).sum() * (1.0 / count)


@dataclass
class MetricReport:
    """Masked MAE / RMSE / MAPE(%), averaged and per prediction horizon."""

    mae: float
    rmse: float
    mape: float
    mae_per_horizon: list = field(default_factory=list)
    rmse_per_horizon: list = field(default_factory=list)
    mape_per_horizon: list = field(default_factory=list)

    @classmethod
    def from_sums(cls, sums: np.ndarray) -> MetricReport:
        """The report of per-horizon sums [|error|, error², APE, count, APE count]."""
        abs_sum, sq_sum, ape_sum, count, ape_count = sums
        safe = np.maximum(count, 1)
        safe_ape = np.maximum(ape_count, 1)
        total = max(count.sum(), 1)
        total_ape = max(ape_count.sum(), 1)
        return cls(
            mae=float(abs_sum.sum() / total),
            rmse=float(np.sqrt(sq_sum.sum() / total)),
            mape=float(100.0 * ape_sum.sum() / total_ape),
            mae_per_horizon=(abs_sum / safe).tolist(),
            rmse_per_horizon=np.sqrt(sq_sum / safe).tolist(),
            mape_per_horizon=(100.0 * ape_sum / safe_ape).tolist(),
        )

    def finite(self, what: str) -> MetricReport:
        """This report if its totals (they sum every horizon) are finite, else NumericalError."""
        if not np.isfinite([self.mae, self.rmse, self.mape]).all():
            raise NumericalError(
                f"non-finite {what} (mae {self.mae}, rmse {self.rmse}, mape {self.mape})")
        return self

    def to_dict(self) -> dict:
        return {
            "mae": self.mae, "rmse": self.rmse, "mape": self.mape,
            "per_horizon": {
                "mae": self.mae_per_horizon,
                "rmse": self.rmse_per_horizon,
                "mape": self.mape_per_horizon,
            },
        }


def _batch_sums(pred: np.ndarray, target: np.ndarray, mask_threshold: float) -> np.ndarray:
    """One batch's per-horizon sums [|error|, error², APE, count, APE count] as [5, Tf]."""
    axes = (0,) + tuple(range(2, target.ndim))  # everything except the horizon axis
    mask = target > 0
    diff = np.abs(pred - target)
    pmask = target > mask_threshold
    with np.errstate(divide="ignore", invalid="ignore"):
        ape = np.where(pmask, diff / np.where(pmask, target, 1.0), 0.0)
    return np.stack([(diff * mask).sum(axis=axes), (np.square(diff) * mask).sum(axis=axes),
                     ape.sum(axis=axes), mask.sum(axis=axes), pmask.sum(axis=axes)])


def metrics(pred: np.ndarray, target: np.ndarray, mask_threshold: float = 0.0) -> MetricReport:
    """Masked metrics for raw-unit predictions shaped [..., Tf, N, C]."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.ndim == 3:
        pred, target = pred[None], target[None]
    return MetricReport.from_sums(_batch_sums(pred, target, mask_threshold))


def curriculum_horizon(epoch: int, cfg: TrainConfig, full_horizon: int) -> int:
    """Supervised horizon for an epoch: full during warm-up, then growing from 1."""
    if epoch <= cfg.warmup_epochs:
        return full_horizon
    return min(full_horizon, 1 + (epoch - cfg.warmup_epochs - 1) // cfg.curriculum_step)


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
    """Base rate decayed once per milestone reached."""
    passed = sum(1 for m in cfg.milestones if epoch >= m)
    return cfg.learning_rate * (cfg.lr_decay ** passed)


def evaluate(model: Forecaster, windows: WindowSet, batch_size: int,
             mask_threshold: float = 0.0) -> MetricReport:
    """Masked metrics of the model over every window of a split."""
    sums = np.zeros((5, model.cfg.horizon_steps))  # summed in batch order
    for start in range(0, len(windows), batch_size):
        idx = np.arange(start, min(start + batch_size, len(windows)))
        hist, targ, tod, dow = windows.batch(idx)
        pred = model.forward_batch(hist, tod, dow, training=False)
        sums += _batch_sums(pred.data.astype(np.float64), targ, mask_threshold)
    return MetricReport.from_sums(sums)


@dataclass
class TrainResult:
    """Loop state that train() updates in place: the history and the best validation epoch."""

    history: list = field(default_factory=list)
    best_epoch: int = 0
    best_state: dict | None = None
    val_report: MetricReport | None = None  # the best epoch's validation report


def train(model: Forecaster, train_ws: WindowSet, val_ws: WindowSet, cfg: TrainConfig,
          out_dir=None, log=None) -> TrainResult:
    """Mini-batch Adam training with curriculum horizon and best-val selection.

    Writes history.jsonl and checkpoint.bin under out_dir when given, and
    leaves the model holding the best epoch's parameters. All randomness
    (shuffling, dropout) derives from cfg.seed, so identical configs
    reproduce identical artifacts byte for byte.
    """
    cfg.validate()
    optimizer = Adam(model.parameters(), learning_rate=cfg.learning_rate,
                     eps=cfg.eps, weight_decay=cfg.weight_decay)

    result = TrainResult()

    def write_history():
        # rewritten whole, so an epoch that raises leaves no record of itself
        if out_dir:
            with replacing(Path(out_dir) / "history.jsonl") as fh:
                fh.writelines(json.dumps(record) + "\n" for record in result.history)

    write_history()

    for epoch in range(1, cfg.max_epochs + 1):
        lr = lr_schedule(epoch, cfg)
        horizon = curriculum_horizon(epoch, cfg, model.cfg.horizon_steps)
        optimizer.learning_rate = lr

        # epoch e's streams depend only on (seed, e), so a resumed run needs no saved rng state
        shuffle, epoch_dropout = (
            np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(stream, epoch - 1)))
            for stream in (0, 1))
        order = shuffle.permutation(len(train_ws))
        # mask-weighted so the epoch loss is independent of batch grouping
        err_total, mask_total = 0.0, 0
        for batch_no, start in enumerate(range(0, len(train_ws), cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            hist, targ, tod, dow = train_ws.batch(idx)
            optimizer.zero_grad()
            with Tape() as tape:
                pred = model.forward_batch(hist, tod, dow, training=True, rng=epoch_dropout)
                loss = masked_mae_loss(pred, targ, horizon)
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericalError(
                        f"non-finite loss {value} at epoch {epoch}, batch {batch_no} "
                        f"(window indices {idx[:8].tolist()}...)")
                tape.backward(loss)
            optimizer.step()
            n_masked = int((targ[:, :horizon] > 0).sum())
            err_total += value * n_masked
            mask_total += n_masked

        val_report = evaluate(model, val_ws, batch_size=cfg.batch_size,
                              mask_threshold=cfg.mask_threshold
                              ).finite(f"validation metrics at epoch {epoch}")
        record = {
            "epoch": epoch, "lr": lr, "horizon": horizon,
            "train_loss": err_total / max(mask_total, 1),
            "val_mae": val_report.mae, "val_rmse": val_report.rmse,
            "val_mape": val_report.mape,
        }
        result.history.append(record)
        write_history()
        if log:
            log(record)

        if result.val_report is None or val_report.mae < result.val_report.mae:
            result.best_epoch, result.val_report = epoch, val_report
            result.best_state = model.state()
        elif cfg.patience and epoch - result.best_epoch >= cfg.patience:
            break

    model.load_state(result.best_state)
    if out_dir:
        save_checkpoint(Path(out_dir) / "checkpoint.bin", result.best_state)
    return result


def prepare_data(cfg: RunConfig):
    """Load the configured series, split it, and fit the normalizer."""
    if not cfg.data.series:
        raise ConfigError("data.series must point at a series CSV")
    series = load_series(cfg.data.series, cfg.data.meta or None)
    train_ws, val_ws, test_ws = split_and_window(
        series, cfg.model.history_steps, cfg.model.horizon_steps, tuple(cfg.train.split))
    normalizer = fit_normalizer(train_ws)
    return series, train_ws, val_ws, test_ws, normalizer


def build_model(cfg: RunConfig, series, normalizer, dtype=np.float32) -> Forecaster:
    cfg.validate()
    predefined = None
    if cfg.graph.mode == "predefined":
        predefined = load_predefined_graph(cfg.data.graph, series.n_nodes,
                                           cfg.data.directed_graph)
    return Forecaster(series.n_nodes, series.steps_per_day, cfg.model, cfg.graph,
                      normalizer=normalizer, predefined_graph=predefined,
                      dtype=dtype, seed=cfg.train.seed)


def run_training(cfg: RunConfig, out_dir=None, log=None):
    """End-to-end: data prep, model build, train, and test-split evaluation."""
    series, train_ws, val_ws, test_ws, normalizer = prepare_data(cfg)
    model = build_model(cfg, series, normalizer)
    result = train(model, train_ws, val_ws, cfg.train, out_dir=out_dir, log=log)
    test_report = evaluate(model, test_ws, batch_size=cfg.train.batch_size,
                           mask_threshold=cfg.train.mask_threshold).finite("test metrics")
    if out_dir:
        report = {"val": result.val_report.to_dict(), "test": test_report.to_dict(),
                  "best_epoch": result.best_epoch}
        with replacing(Path(out_dir) / "metrics.json") as fh:
            fh.write(json.dumps(report, indent=2) + "\n")
    return model, result, test_report


def apply_variant(cfg: RunConfig, variant: str) -> RunConfig:
    """Apply one ablation variant's overrides to a config and validate it.

    The overrides are echoed into cfg.overrides, so the run manifest
    records them like command-line overrides.
    """
    if variant not in ABLATION_VARIANTS:
        raise ConfigError(
            f"unknown ablation variant {variant!r}; choose from {tuple(ABLATION_VARIANTS)}")
    apply_overrides(cfg, ABLATION_VARIANTS[variant])
    try:
        cfg.validate()
    except ConfigError as exc:
        raise ConfigError(f"variant {variant}: {exc}") from None
    return cfg
