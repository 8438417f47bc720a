"""Command-line driver: generate / train / eval / ablate / gradcheck.

`ablate --variant V` is `train` with V's overrides from
training.ABLATION_VARIANTS appended to the command-line ones; its summary
line adds the variant name.

Exit codes are a stable contract: 0 success, 2 config error (including a
step too big for memory, which a smaller batch fixes), 3 numerical failure
(a non-finite training loss, or non-finite metrics from validation, the
test pass or `eval`), 4 I/O error.

BLAS runs one thread unless the environment asks for more: the forward and
backward already run two batch halves at once, and a second BLAS thread
per half oversubscribes a two-CPU machine. The thread count can also change
the bits of large products. An explicit OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or MKL_NUM_THREADS still wins.
"""

from __future__ import annotations

import os

for _blas_threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_blas_threads, "1")  # read once, when numpy loads below

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import training
from .config import RunConfig, load_config, preset_path, write_manifest
from .data import Normalizer, make_synthetic, save_series
from .errors import ConfigError, IngestionError, NumericalError, ShapeError
from .optim import grad_check, randomize_parameters
from .checkpoint import load_checkpoint
from .training import masked_mae_loss

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusecast",
        description="Spatio-temporal fused-graph traffic forecasting engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic traffic series CSV + sidecar")
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--days", type=int, required=True)
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--coupling", type=float, default=0.5)
    gen.add_argument("--steps-per-day", type=int, default=288)
    gen.add_argument("--noise", type=float, default=2.0)
    gen.add_argument("--out", required=True, help="output CSV path; sidecar goes next to it")

    def common(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--config", help="config file (section.key = value lines)")
        source.add_argument("--preset", help="shipped preset name (pems03/04/07/08, toy)")
        p.add_argument("overrides", nargs="*", help="section.key=value overrides")

    tr = sub.add_parser("train", help="train a model and write checkpoint + history")
    common(tr)
    tr.add_argument("--out", required=True, help="output directory")

    ev = sub.add_parser("eval", help="evaluate a checkpoint and print metrics JSON")
    common(ev)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--split", choices=("val", "test"), default="test")

    ab = sub.add_parser("ablate", help="run one ablation variant end to end")
    common(ab)
    ab.add_argument("--variant", required=True, choices=training.ABLATION_VARIANTS)
    ab.add_argument("--out", required=True, help="output directory")

    gc = sub.add_parser("gradcheck", help="finite-difference check of the full model at float64")
    common(gc)
    gc.add_argument("--nodes", type=int, default=4)
    gc.add_argument("--tol", type=float, default=1e-5)
    return parser


def _load_run_config(args) -> RunConfig:
    path = preset_path(args.preset) if args.preset else args.config
    return load_config(path, args.overrides)


def cmd_generate(args) -> int:
    series, params = make_synthetic(args.nodes, args.days, args.seed, args.coupling,
                                    steps_per_day=args.steps_per_day, noise_std=args.noise)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_series(series, out)
    summary = {"csv": str(out), "meta": str(out.with_suffix(".json")),
               "steps": series.n_steps, "nodes": series.n_nodes,
               "coupling": params["coupling"], "seed": params["seed"]}
    print(json.dumps(summary))
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    variant = getattr(args, "variant", None)  # given by `ablate` only
    if variant:
        training.apply_variant(cfg, variant)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(cfg, out_dir / "manifest.json")
    _, result, test_report = training.run_training(
        cfg, out_dir=out_dir,
        log=lambda rec: print(json.dumps(rec), flush=True))
    summary = {"variant": variant} if variant else {}
    summary.update(best_epoch=result.best_epoch, val=result.val_report.to_dict(),
                   test=test_report.to_dict())
    print(json.dumps(summary))
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    series, train_ws, val_ws, test_ws, normalizer = training.prepare_data(cfg)
    model = training.build_model(cfg, series, normalizer)
    model.load_state(load_checkpoint(args.checkpoint))
    windows = val_ws if args.split == "val" else test_ws
    report = training.evaluate(model, windows, batch_size=cfg.train.batch_size,
                               mask_threshold=cfg.train.mask_threshold
                               ).finite(f"{args.split} metrics from checkpoint {args.checkpoint}")
    print(json.dumps(report.to_dict()))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if not (np.isfinite(args.tol) and args.tol > 0):
        raise ConfigError(f"--tol must be finite and positive, got {args.tol}")
    cfg = _load_run_config(args)
    series, _ = make_synthetic(args.nodes, 3, cfg.train.seed, 0.5,
                               steps_per_day=max(8, 2 * cfg.model.history_steps),
                               noise_std=1.0)
    norm = Normalizer(mean=float(series.values.mean()), std=float(series.values.std()))
    model = training.build_model(cfg, series, norm, dtype=np.float64)
    randomize_parameters(model.parameters(), seed=cfg.train.seed)
    th, tf = cfg.model.history_steps, cfg.model.horizon_steps
    hist = series.values[None, :th]
    targ = series.values[None, th:th + tf]
    tod, dow = series.time_indices(np.arange(th))

    def loss_fn():
        pred = model.forward_batch(hist, tod[None], dow[None], training=False)
        return masked_mae_loss(pred, targ)

    report = grad_check(loss_fn, model.parameters(), h=1e-5)
    print(json.dumps({"max_rel_error": report.max_rel_error,
                      "worst_param": report.worst_param,
                      "parameters": model.n_parameters,
                      "tolerance": args.tol}))
    if not report.max_rel_error < args.tol:  # NaN fails
        print(f"FAIL: max relative error {report.max_rel_error:.3e} >= {args.tol:.1e}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "train": cmd_train,
        "eval": cmd_eval,
        "ablate": cmd_train,
        "gradcheck": cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ShapeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print(f"out of memory: `{args.command}` needs more memory than this process may use; "
              "try a smaller train.batch_size", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (IngestionError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
