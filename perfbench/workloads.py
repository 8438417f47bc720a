"""One benchmark workload, run in a child process that run.py starts.

The child makes the workload's series from the seed, writes it to CSV and
drives fusecast only through the calls `fusecast train` and `fusecast eval`
make: load_series, split_and_window, fit_normalizer, build_model,
training.train, training.evaluate, save_checkpoint and load_checkpoint. It
checks every output and writes one result file that run.py reports. Start it
through run.py, which sets the BLAS thread count and the memory cap.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
EXIT_REFUSED = 2      # BLAS thread count above nproc
EXIT_NO_PROGRAM = 3   # fusecast is not in the checkout

# Before every operation the run sets up again, at least SETUP_ROUND_MIN times
# and for SETUP_ROUND_S, so that setup_s samples the whole run and not only its
# first second (the machine's speed drifts within a run).
SETUP_ROUND_MIN = 2
SETUP_ROUND_S = 0.3
MIN_OPERATIONS = 2
OPERATION_BUDGET_S = 120.0  # no operation starts later than this into the run
REPLAY_ROUNDS = 2
COUPLING = 0.5

TRAIN_OVERRIDES = ("train.patience=0", "train.max_epochs=1")


@dataclass(frozen=True)
class Workload:
    kind: str                   # "train" (training.train) or "eval" (training.evaluate)
    preset: str | None
    overrides: tuple
    nodes: int
    days: int
    steps: int                  # series length; sets the windows per split
    eval_windows: int = 0       # windows per evaluate call


# "full" is the benchmark; "tiny" has the same code paths at desk size, for smoke.py
WORKLOADS = {
    "full": {
        # 145 steps: 64 training windows (2 batches of 32) and 6 validation windows
        "pems08-train": Workload("train", "pems08", TRAIN_OVERRIDES, 170, 2, 145),
        "pems07-eval": Workload("eval", "pems07", (), 883, 2, 576, eval_windows=8),
    },
    "tiny": {
        "pems08-train": Workload("train", "toy", TRAIN_OVERRIDES, 5, 2, 60),
        "pems07-eval": Workload("eval", "toy", (), 5, 2, 60, eval_windows=4),
    },
}

# per-layer time metrics read from the per-step span totals
STEP_MS = {
    "tensor.backward_ms": "tensor.backward",
    "graphgen.generate_pattern_graph_ms": "graphgen.generate_pattern_graph",
    "graphgen.build_directed_graph_ms": "graphgen.build_directed_graph",
    "graphgen.fuse_graphs_ms": "graphgen.fuse_graphs",
    "graphgen.lookup_ms": "graphgen.lookup",
    "decouple.decouple_ms": "decouple.decouple",
    "network.forward_batch_ms": "network.forward_batch",
    "network.rgc_forward_ms": "network.rgc_forward",
    "network.gru_forward_ms": "network.gru_forward",
    "optim.adam_step_ms": "optim.adam_step",
    "data.batch_ms": "data.batch",
    "training.masked_mae_loss_ms": "training.masked_mae_loss",
    "training.evaluate_ms": "training.evaluate",
}
STEP_SELF_MS = {
    "network.forward_self_ms": "network.forward_batch",
    "training.evaluate_self_ms": "training.evaluate",
}


@dataclass
class Operation:
    """One training.train or training.evaluate call and what it produced."""

    wall: float = 0.0
    windows: int = 0
    outcome: object = None      # epoch history, or the metric report
    traced: bool = False
    violations: list = field(default_factory=list)


def import_fusecast():
    """fusecast's modules from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fusecast" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import fusecast
    from fusecast import checkpoint, config, data, graphgen, network, optim, tensor, training
    if Path(fusecast.__file__).resolve().parent != (src / "fusecast").resolve():
        return None
    modules = (checkpoint, config, data, graphgen, network, optim, tensor, training)
    return {m.__name__: m for m in modules}


def blas_threads_in_force():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def fingerprint(np, seed: int, requested_threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_requested": requested_threads,
        "blas_threads": blas_threads_in_force(),
        "seed": seed,
    }


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class Bench:
    """State of one workload run: inputs, model, operations and trace."""

    def __init__(self, modules, request: dict):
        self.m = modules
        self.request = request
        self.name = request["workload"]
        self.work = WORKLOADS[request["size"]][self.name]
        self.seconds = float(request["seconds"])
        self.run_dir = Path(request["run_dir"])
        self.inputs = self.run_dir / "inputs"
        self.tracer = spans.Tracer(modules) if request["trace"] else None
        config = modules["fusecast.config"]
        preset = config.preset_path(self.work.preset) if self.work.preset else None
        self.cfg = config.load_config(preset, list(self.work.overrides))
        self.csv = self.inputs / "series.csv"
        self.checkpoint_path = self.inputs / "checkpoint.bin"
        self.shape_violations = []
        self.reference = None
        self._saved_forward = None

    # -- tracing helpers -------------------------------------------------------

    def traced(self, phase: str, on: bool = True):
        if self.tracer is None or not on:
            return contextlib.nullcontext()
        return self.tracer.active(phase)

    def op_span(self, on: bool):
        if self.tracer is None or not on:
            return contextlib.nullcontext()
        return self.tracer.span(spans.OP_SPAN)

    def install_shape_check(self):
        """Every forward_batch must return [B, Tf, N, C]; kept for the whole run."""
        forecaster = self.m["fusecast.network"].Forecaster
        original = forecaster.__dict__["forward_batch"]
        violations = self.shape_violations

        def forward_batch(model, history, *args, **kwargs):
            result = original(model, history, *args, **kwargs)
            pred = result[0] if isinstance(result, tuple) else result
            expected = (len(history), model.cfg.horizon_steps, model.n_nodes, model.cfg.channels)
            if tuple(pred.shape) != expected:
                violations.append(f"prediction shape {tuple(pred.shape)} != {expected}")
            return result

        self._saved_forward = original
        forecaster.forward_batch = forward_batch

    def remove_shape_check(self):
        if self._saved_forward is not None:
            self.m["fusecast.network"].Forecaster.forward_batch = self._saved_forward

    # -- set-up ---------------------------------------------------------------

    def make_inputs(self, seed: int):
        data = self.m["fusecast.data"]
        self.inputs.mkdir(parents=True, exist_ok=True)
        series, _ = data.make_synthetic(self.work.nodes, self.work.days, seed, COUPLING,
                                        steps=self.work.steps)
        data.save_series(series, self.csv)
        if self.work.kind == "eval":
            # the checkpoint a previous `fusecast train` would have left
            *_, model = self._prepare()
            with self.traced("setup"):
                self.m["fusecast.checkpoint"].save_checkpoint(self.checkpoint_path, model.state())

    def _prepare(self):
        data, training = self.m["fusecast.data"], self.m["fusecast.training"]
        series = data.load_series(self.csv)
        train_ws, val_ws, test_ws = data.split_and_window(
            series, self.cfg.model.history_steps, self.cfg.model.horizon_steps,
            tuple(self.cfg.train.split))
        normalizer = data.fit_normalizer(train_ws)
        model = training.build_model(self.cfg, series, normalizer)
        return series, train_ws, val_ws, test_ws, model

    def setup(self, keep: bool) -> float:
        """From reading the CSV to the first step being ready; returns seconds.

        Only a kept set-up's model and windows are used by the operations.
        """
        start = time.perf_counter()
        series, train_ws, val_ws, test_ws, model = self._prepare()
        train = self.cfg.train
        if self.work.kind == "train":
            self.m["fusecast.optim"].Adam(model.parameters(), learning_rate=train.learning_rate,
                                          eps=train.eps, weight_decay=train.weight_decay)
        else:
            model.load_state(self.m["fusecast.checkpoint"].load_checkpoint(self.checkpoint_path))
        elapsed = time.perf_counter() - start
        if keep:
            self.train_ws, self.val_ws, self.model = train_ws, val_ws, model
            self.init_state = model.state()
        if keep and self.work.kind == "eval":
            th, tf = self.cfg.model.history_steps, self.cfg.model.horizon_steps
            self.eval_ws = self.m["fusecast.data"].WindowSet(
                series, test_ws.split_start, self.work.eval_windows + th + tf - 1, th, tf)
        return elapsed

    def setup_round(self, traced: bool) -> list:
        setups, start = [], time.perf_counter()
        with self.traced("setup", traced):
            while len(setups) < SETUP_ROUND_MIN or time.perf_counter() - start < SETUP_ROUND_S:
                setups.append(self.setup(keep=False))
        return setups

    # -- operations -----------------------------------------------------------

    def run_operation(self, out_dir: Path, op: Operation):
        if self.work.kind == "train":
            self.model.load_state(self.init_state)
            out_dir.mkdir(parents=True, exist_ok=True)
            start = time.perf_counter()
            result = self.m["fusecast.training"].train(
                self.model, self.train_ws, self.val_ws, self.cfg.train, out_dir=out_dir)
            op.wall = time.perf_counter() - start
            op.windows = len(self.train_ws) * len(result.history)
            op.outcome = result.history
            return result
        start = time.perf_counter()
        report = self.m["fusecast.training"].evaluate(
            self.model, self.eval_ws, batch_size=max(self.cfg.train.batch_size, 64),
            mask_threshold=self.cfg.train.mask_threshold)
        op.wall = time.perf_counter() - start
        op.windows = len(self.eval_ws)
        op.outcome = report.to_dict()
        return report

    def check(self, op: Operation, result, out_dir: Path):
        """Output checks of one operation; each failure is a violation."""
        v = op.violations
        horizon = self.cfg.model.horizon_steps
        if self.work.kind == "train":
            history = op.outcome
            for record in history:
                if not _finite(record["train_loss"], record["val_mae"], record["val_rmse"]):
                    v.append(f"non-finite epoch record {record}")
            if not _finite(result.val_report.mae):
                v.append("non-finite final validation MAE")
            saved = self.m["fusecast.checkpoint"].load_checkpoint(out_dir / "checkpoint.bin")
            if list(saved) != list(result.best_state) or not all(
                    (saved[k] == result.best_state[k]).all() for k in saved):
                v.append("checkpoint.bin does not read back as the best state")
        else:
            report = op.outcome
            per_horizon = report["per_horizon"]["mae"]
            if not _finite(report["mae"], report["rmse"], report["mape"], *per_horizon):
                v.append(f"non-finite eval metrics {report}")
            if len(per_horizon) != horizon:
                v.append(f"{len(per_horizon)} horizon entries, expected {horizon}")
        if self.reference is None:
            self.reference = op.outcome
        elif json.dumps(op.outcome) != json.dumps(self.reference):
            v.append("outcome differs from the first operation on identical inputs")
        if self.shape_violations:
            v.extend(self.shape_violations)
            self.shape_violations.clear()

    def attempt(self, index: int, traced: bool) -> Operation:
        op = Operation(traced=traced)
        out_dir = self.inputs / f"op{index}"
        try:
            with self.traced("op", traced), self.op_span(traced):
                result = self.run_operation(out_dir, op)
            with self.traced("check", traced):
                self.check(op, result, out_dir)
        except Exception as exc:  # any failure is counted, and the run goes on
            op.violations.append(f"{type(exc).__name__}: {exc}")
        shutil.rmtree(out_dir, ignore_errors=True)
        return op

    # -- the run --------------------------------------------------------------

    def run(self) -> dict:
        seed = int(self.request["seed"])
        self.install_shape_check()
        try:
            return self._run(seed)
        finally:
            self.remove_shape_check()
            shutil.rmtree(self.inputs, ignore_errors=True)

    def _run(self, seed: int) -> dict:
        self.make_inputs(seed)
        traced_setup = self.tracer is not None
        with self.traced("setup", traced_setup):
            setups = [self.setup(keep=True)]
        setups += self.setup_round(traced_setup)

        warm_start = time.perf_counter()
        ops = [self.attempt(0, traced=False)]
        warmup_s = time.perf_counter() - warm_start

        start = time.perf_counter()
        rounds = []
        while True:
            round_start = time.perf_counter()
            setups += self.setup_round(traced_setup)
            # a traced run alternates untraced and traced operations
            ops.append(self.attempt(len(ops), traced=self.tracer is not None and len(ops) % 2 == 0))
            rounds.append(time.perf_counter() - round_start)
            elapsed = time.perf_counter() - start
            if len(rounds) >= MIN_OPERATIONS and (
                    elapsed + statistics.median(rounds) > self.seconds
                    or elapsed > OPERATION_BUDGET_S):
                break

        timed = [op for op in ops[1:] if not op.traced and not op.violations]
        result = {
            "attempted": len(ops),
            "failed": sum(1 for op in ops if op.violations),
            "violations": [v for op in ops for v in op.violations],
            "setup_s": setups,
            "warmup_s": warmup_s,
        }
        if self.tracer is None:
            result["metrics"], result["report"] = self.end_to_end(setups, timed)
        else:
            traced = [op for op in ops[1:] if op.traced and not op.violations]
            result["metrics"] = self.per_layer(timed, traced)
            result["spans_file"] = str(self.run_dir / "spans.jsonl")
            self.tracer.write(result["spans_file"], self.trace_summary)
        return result

    def end_to_end(self, setups, timed):
        """The BENCHMARK.json metrics, and the per-workload figures for the report."""
        if not timed:
            return {}, {}
        # median over operations, so a burst of machine slowness moves it less than a mean
        windows_per_s = statistics.median(op.windows / op.wall for op in timed)
        outcome = timed[0].outcome
        report = {"operation_walls": [op.wall for op in timed]}
        if self.work.kind == "train":
            report.update(train_windows_per_s=windows_per_s, train_loss=outcome[-1]["train_loss"],
                          val_mae=outcome[-1]["val_mae"])
        else:
            report.update(eval_windows_per_s=windows_per_s, eval_mae=outcome["mae"])
        metrics = {"setup_s": statistics.median(setups), "windows_per_s": windows_per_s}
        return metrics, report

    def per_layer(self, untraced, traced):
        tracer = self.tracer
        step_span = "optim.adam_step" if self.work.kind == "train" else "data.batch"
        summary = tracer.summary(tracer.count_in_ops(step_span))
        steps = summary["steps"]
        self.trace_summary = summary
        metrics = {name: summary["ms_per_step"].get(span, 0.0) for name, span in STEP_MS.items()}
        metrics.update({name: summary["self_ms_per_step"].get(span, 0.0)
                        for name, span in STEP_SELF_MS.items()})
        for name in ("tensor.op_calls", "tensor.matmul_calls", "tensor.matmul_gflop"):
            metrics[name] = tracer.counts.get(name, 0.0) / steps
        metrics["tensor.tape_records"] = (statistics.median(tracer.tape_lengths)
                                          if tracer.tape_lengths else 0)
        metrics["data.batch_calls"] = tracer.count_in_ops("data.batch") / steps
        metrics["optim.param_count"] = self.model.n_parameters
        metrics["data.load_series_ms"] = tracer.call_ms("data.load_series")
        metrics["checkpoint.save_ms"] = tracer.call_ms("checkpoint.save")
        metrics["checkpoint.load_ms"] = tracer.call_ms("checkpoint.load")
        metrics["checkpoint.bytes"] = tracer.checkpoint_bytes
        if self.work.kind == "train":
            metrics.update(spans.replay_backward(tracer, self.m["fusecast.tensor"].Tape,
                                                 self.reset_grads, REPLAY_ROUNDS))
        else:
            metrics.update({name: 0.0 for name in spans.REPLAYED})
        if untraced and traced:
            metrics["trace.overhead_share"] = (statistics.median(op.wall for op in traced)
                                               / statistics.median(op.wall for op in untraced) - 1)
        else:
            metrics["trace.overhead_share"] = None
        metrics["trace.unattributed_share"] = (summary["unattributed_s"] / summary["wall_s"]
                                               if summary["wall_s"] else None)
        return metrics

    def reset_grads(self, args):
        tensor_cls = self.m["fusecast.tensor"].Tensor
        for p in self.model.parameters().values():
            p.grad = None
        for value in args:
            for t in value if isinstance(value, (tuple, list)) else (value,):
                if isinstance(t, tensor_cls):
                    t.grad = None


def main(argv) -> int:
    request = json.loads(argv[1])
    try:
        modules = import_fusecast()
    except ImportError as exc:
        print(f"perfbench: cannot import fusecast from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if modules is None:
        print(f"perfbench: no fusecast package under {ROOT / 'src'}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    import numpy as np

    env = fingerprint(np, int(request["seed"]), int(request["blas_threads"]))
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        print(f"perfbench: {env['blas_threads']} BLAS threads exceed nproc={env['nproc']}",
              file=sys.stderr)
        return EXIT_REFUSED
    result = Bench(modules, request).run()
    result["fingerprint"] = env
    if Path("/proc/self/status").is_file():
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmPeak:"):
                    result["vm_peak_mb"] = int(line.split()[1]) / 1024
    Path(request["run_dir"], "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
