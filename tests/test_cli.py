import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from fusecast import network, training
from fusecast.checkpoint import load_checkpoint, save_checkpoint
from fusecast.cli import main
from fusecast.errors import ShapeError
from fusecast.network import Forecaster
from fusecast.training import ABLATION_VARIANTS, MetricReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_shape_arithmetic(tmp_path, capsys):
    out = tmp_path / "toy.csv"
    code, stdout, _ = run_cli(capsys, "generate", "--nodes", "8", "--days", "2",
                              "--steps-per-day", "24", "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["steps"] == 48
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 48
    assert len(rows[0].split(",")) == 8
    assert out.with_suffix(".json").exists()


def test_generate_default_cadence_row_count(tmp_path, capsys):
    out = tmp_path / "big.csv"
    code, stdout, _ = run_cli(capsys, "generate", "--nodes", "8", "--days", "14",
                              "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["steps"] == 14 * 288
    assert len(out.read_text().strip().splitlines()) == 4032


def test_generate_same_seed_identical_files(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "generate", "--nodes", "4", "--days", "2", "--seed", "9",
            "--steps-per-day", "12", "--out", str(a))
    run_cli(capsys, "generate", "--nodes", "4", "--days", "2", "--seed", "9",
            "--steps-per-day", "12", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_generate_single_node_rejected(tmp_path, capsys):
    code, _, err = run_cli(capsys, "generate", "--nodes", "1", "--days", "2",
                           "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "config error" in err


def test_generate_negative_seed_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "generate", "--nodes", "4", "--days", "2", "--seed", "-1",
                           "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert err.startswith("config error:") and "seed" in err


def _toy_data(tmp_path, capsys):
    csv = tmp_path / "toy.csv"
    run_cli(capsys, "generate", "--nodes", "4", "--days", "6", "--seed", "3",
            "--steps-per-day", "8", "--out", str(csv))
    return csv


TOY_ARGS = ["--preset", "toy"]


def test_train_eval_roundtrip(tmp_path, capsys):
    csv = _toy_data(tmp_path, capsys)
    out = tmp_path / "run"
    code, stdout, _ = run_cli(capsys, "train", *TOY_ARGS, "--out", str(out),
                              f"data.series={csv}", "train.max_epochs=2")
    assert code == 0
    summary = json.loads(stdout.strip().splitlines()[-1])
    assert "val" in summary and "test" in summary
    assert (out / "checkpoint.bin").exists()
    assert (out / "history.jsonl").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert f"data.series={csv}" in manifest["overrides"]

    # evaluating the saved checkpoint on the val split reproduces the
    # train-time validation report exactly
    code, stdout, _ = run_cli(capsys, "eval", *TOY_ARGS, "--checkpoint",
                              str(out / "checkpoint.bin"), "--split", "val",
                              f"data.series={csv}", "train.max_epochs=2")
    assert code == 0
    evaluated = json.loads(stdout)
    recorded = json.loads((out / "metrics.json").read_text())["val"]
    assert evaluated == recorded


def test_train_unknown_key_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "train", "--out", str(tmp_path / "r"),
                           "bogus.key=1")
    assert code == 2
    assert "bogus.key" in err


def test_eval_missing_checkpoint_exits_4(tmp_path, capsys):
    csv = _toy_data(tmp_path, capsys)
    code, _, err = run_cli(capsys, "eval", *TOY_ARGS, "--checkpoint",
                           str(tmp_path / "nope.bin"), f"data.series={csv}")
    assert code == 4
    assert "I/O error" in err


def test_train_malformed_sidecar_exits_4(tmp_path, capsys):
    csv = _toy_data(tmp_path, capsys)
    csv.with_suffix(".json").write_text('{"steps_per_day": 0, "first_step_day_of_week": 0}')
    code, _, err = run_cli(capsys, "train", *TOY_ARGS, "--out", str(tmp_path / "r"),
                           f"data.series={csv}")
    assert code == 4
    assert err.startswith("I/O error:") and "steps_per_day" in err


def test_ablate_smoke(tmp_path, capsys):
    csv = _toy_data(tmp_path, capsys)
    out = tmp_path / "ablate_sg"
    code, stdout, _ = run_cli(capsys, "ablate", *TOY_ARGS, "--variant", "use_sg",
                              "--out", str(out), f"data.series={csv}",
                              "train.max_epochs=1")
    assert code == 0
    report = json.loads(stdout.strip().splitlines()[-1])
    assert report["variant"] == "use_sg"
    assert np.isfinite(report["test"]["mae"])


def test_ablate_use_pg_without_graph_exits_2(tmp_path, capsys):
    csv = _toy_data(tmp_path, capsys)
    code, _, err = run_cli(capsys, "ablate", *TOY_ARGS, "--variant", "use_pg",
                           "--out", str(tmp_path / "r"), f"data.series={csv}")
    assert code == 2
    assert "use_pg" in err


@pytest.mark.parametrize("variant", ["use_sg", "no_decouple"])
def test_ablate_equals_train_with_the_variant_overrides(tmp_path, capsys, variant):
    csv = _toy_data(tmp_path, capsys)
    common = [f"data.series={csv}", "train.max_epochs=2"]
    code, ablated, _ = run_cli(capsys, "ablate", *TOY_ARGS, "--variant", variant,
                               "--out", str(tmp_path / "ablate"), *common)
    assert code == 0
    code, trained, _ = run_cli(capsys, "train", *TOY_ARGS, "--out", str(tmp_path / "train"),
                               *common, *ABLATION_VARIANTS[variant])
    assert code == 0
    for name in ("checkpoint.bin", "history.jsonl", "metrics.json", "manifest.json"):
        assert ((tmp_path / "ablate" / name).read_bytes()
                == (tmp_path / "train" / name).read_bytes()), name
    ablated, trained = ablated.splitlines(), trained.splitlines()
    assert ablated[:-1] == trained[:-1]  # the same epoch lines
    summary = json.loads(ablated[-1])
    assert summary.pop("variant") == variant
    assert summary == json.loads(trained[-1])


def test_train_non_finite_validation_mae_exits_3(tmp_path, capsys, monkeypatch):
    csv = _toy_data(tmp_path, capsys)

    def nan_report(*args, **kwargs):
        return MetricReport(mae=float("nan"), rmse=float("nan"), mape=float("nan"))

    monkeypatch.setattr(training, "evaluate", nan_report)
    code, _, err = run_cli(capsys, "train", *TOY_ARGS, "--out", str(tmp_path / "r"),
                           f"data.series={csv}", "train.max_epochs=1")
    assert code == 3
    assert "non-finite validation metrics at epoch 1 (mae nan" in err


def test_train_non_finite_test_metrics_exits_3(tmp_path, capsys, monkeypatch):
    csv = _toy_data(tmp_path, capsys)
    real, calls = training.evaluate, []

    def overflowing_test_pass(*args, **kwargs):
        calls.append(args)
        report = real(*args, **kwargs)
        # one epoch: call 1 validates it, call 2 is the test pass; MAE stays finite
        return dataclasses.replace(report, mape=float("inf")) if len(calls) == 2 else report

    monkeypatch.setattr(training, "evaluate", overflowing_test_pass)
    out = tmp_path / "r"
    code, stdout, err = run_cli(capsys, "train", *TOY_ARGS, "--out", str(out),
                                f"data.series={csv}", "train.max_epochs=1")
    assert code == 3 and len(calls) == 2
    assert err.startswith("numerical failure: non-finite test metrics (mae ")
    assert "mape inf)" in err
    assert [json.loads(line)["epoch"] for line in stdout.splitlines()] == [1]  # no summary line
    assert not (out / "metrics.json").exists()
    for name in ("checkpoint.bin", "history.jsonl", "manifest.json"):  # the training run finished
        assert (out / name).exists(), name


def _strict_json(text):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def test_every_json_artifact_is_strict_json(tmp_path, capsys):
    csv = _toy_data(tmp_path, capsys)
    runs = {"train": ["train"], "ablate": ["ablate", "--variant", "use_sg"]}
    for name, command in runs.items():
        out = tmp_path / name
        code, stdout, _ = run_cli(capsys, *command, *TOY_ARGS, "--out", str(out),
                                  f"data.series={csv}", "train.max_epochs=2")
        assert code == 0, name
        lines = stdout.splitlines() + (out / "history.jsonl").read_text().splitlines()
        assert len(lines) == 2 + 1 + 2, name  # epoch lines, summary line, history records
        for line in lines:
            _strict_json(line)
        for artifact in ("metrics.json", "manifest.json"):
            _strict_json((out / artifact).read_text())
    for split in ("val", "test"):
        code, stdout, _ = run_cli(capsys, "eval", *TOY_ARGS, "--split", split, "--checkpoint",
                                  str(tmp_path / "train" / "checkpoint.bin"), f"data.series={csv}")
        assert code == 0, split
        _strict_json(stdout)


def _bad_run_input(case, tmp_path, csv):
    """`train` arguments after `--out` with one bad input; the toy series is at `csv`."""
    toy = [*TOY_ARGS, f"data.series={csv}"]
    if case == "k_temporal_above_nodes":
        return toy + ["graph.k_temporal=5"]
    if case == "boolean_maybe":
        return toy + ["data.directed_graph=maybe"]
    if case == "series_unset":
        return TOY_ARGS
    if case == "config_line_without_equals":
        (tmp_path / "run.cfg").write_text(f"data.series = {csv}\ntrain.max_epochs 1\n")
        return ["--config", str(tmp_path / "run.cfg")]
    if case == "series_beyond_float32":
        rows = csv.read_text().splitlines()
        rows[2] = "1,1e39,1,1"  # row 3, column 2
        csv.write_text("\n".join(rows) + "\n")
    elif case == "edge_weight_beyond_float32":
        (tmp_path / "edges.csv").write_text("0,1,1.5\n1,2,1e39\n")
        toy += [f"data.graph={tmp_path / 'edges.csv'}", "graph.mode=predefined"]
    elif case == "empty_series":
        csv.write_text("")
    return toy


# case: (exit code, text of the message)
BAD_RUN_INPUTS = {
    "k_temporal_above_nodes": (2, "graph.k_temporal=5 exceeds node count 4"),
    "boolean_maybe": (2, "data.directed_graph"),
    "series_unset": (2, "data.series must point at a series CSV"),
    "config_line_without_equals": (2, "run.cfg:2: expected key = value"),
    "series_beyond_float32": (4, "row 3, column 2 is not a finite float32"),
    "edge_weight_beyond_float32": (4, "weight at row 2"),
    "empty_series": (4, "no data rows"),
}


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.filterwarnings("ignore::UserWarning"))
    if case == "empty_series" else case  # numpy warns that the file holds no data
    for case in BAD_RUN_INPUTS])
def test_bad_run_input_exits_with_its_code(tmp_path, capsys, case):
    expected, text = BAD_RUN_INPUTS[case]
    argv = _bad_run_input(case, tmp_path, _toy_data(tmp_path, capsys))
    code, stdout, err = run_cli(capsys, "train", "--out", str(tmp_path / "r"), *argv)
    assert code == expected
    assert stdout == "" and text in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "gradcheck"])
def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, command):
    def oom(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(Forecaster, "forward_batch", oom)
    argv = [command, *TOY_ARGS]
    if command == "train":
        argv += ["--out", str(tmp_path / "r"), f"data.series={_toy_data(tmp_path, capsys)}"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "out of memory" in err and "train.batch_size" in err
    assert "Traceback" not in err


def test_pattern_failure_on_a_worker_exits_2(tmp_path, capsys, monkeypatch):
    real = network.generate_pattern_graph

    def generate(*args):
        if threading.current_thread() is not threading.main_thread():
            raise ShapeError("worker graph")
        return real(*args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(network, "generate_pattern_graph", generate)
    code, stdout, err = run_cli(capsys, "train", *TOY_ARGS, "--out", str(tmp_path / "r"),
                                f"data.series={_toy_data(tmp_path, capsys)}")
    assert code == 2 and stdout == ""
    assert "[graph-generation] worker graph" in err
    assert "Traceback" not in err


def test_gradcheck_toy_preset_passes(capsys):
    code, stdout, _ = run_cli(capsys, "gradcheck", *TOY_ARGS)
    assert code == 0
    report = json.loads(stdout)
    assert report["max_rel_error"] < 1e-5


def test_gradcheck_failure_exits_3(capsys):
    # an absurdly tight tolerance forces the numerical-failure exit path
    code, stdout, err = run_cli(capsys, "gradcheck", *TOY_ARGS, "--tol", "1e-18")
    assert code == 3
    assert "FAIL" in err


def test_gradcheck_non_finite_tolerance_exits_2(capsys, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("gradcheck computed before rejecting its tolerance")

    monkeypatch.setattr(training, "build_model", no_compute)
    for tol in ("nan", "inf", "0", "-1e-5"):
        code, stdout, err = run_cli(capsys, "gradcheck", *TOY_ARGS, f"--tol={tol}")
        assert code == 2, tol
        assert stdout == "" and err.startswith("config error:") and "--tol" in err, tol


def test_train_nan_split_exits_2_without_traceback(tmp_path, capsys):
    csv = _toy_data(tmp_path, capsys)
    code, _, err = run_cli(capsys, "train", *TOY_ARGS, "--out", str(tmp_path / "r"),
                           f"data.series={csv}", "train.split=nan,0.5,0.5")
    assert code == 2
    assert err.startswith("config error:") and "train.split" in err
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()  # rejected before any output


def _trained_toy(tmp_path, capsys):
    csv = _toy_data(tmp_path, capsys)
    out = tmp_path / "run"
    code, _, _ = run_cli(capsys, "train", *TOY_ARGS, "--out", str(out),
                         f"data.series={csv}", "train.max_epochs=1")
    assert code == 0
    return csv, out / "checkpoint.bin"


def test_eval_truncated_checkpoint_exits_4(tmp_path, capsys):
    csv, ckpt = _trained_toy(tmp_path, capsys)
    ckpt.write_bytes(ckpt.read_bytes()[:100])
    code, _, err = run_cli(capsys, "eval", *TOY_ARGS, "--checkpoint", str(ckpt),
                           f"data.series={csv}")
    assert code == 4
    assert "I/O error" in err and "checkpoint.bin" in err
    assert "Traceback" not in err


def test_eval_non_finite_checkpoint_exits_3(tmp_path, capsys):
    csv, ckpt = _trained_toy(tmp_path, capsys)
    state = load_checkpoint(ckpt)
    state["time_pool.daily"][:] = np.nan
    save_checkpoint(ckpt, state)
    code, stdout, err = run_cli(capsys, "eval", *TOY_ARGS, "--checkpoint", str(ckpt),
                                f"data.series={csv}")
    assert code == 3
    assert stdout == ""
    assert "numerical failure: non-finite test metrics from checkpoint" in err
    assert "checkpoint.bin (mae nan" in err


def test_eval_runs_at_the_training_batch_size(tmp_path, capsys, monkeypatch):
    csv, ckpt = _trained_toy(tmp_path, capsys)
    real, seen = training.evaluate, []

    def spy(model, windows, batch_size, **kwargs):
        seen.append(batch_size)
        return real(model, windows, batch_size, **kwargs)

    monkeypatch.setattr(training, "evaluate", spy)
    code, _, _ = run_cli(capsys, "eval", *TOY_ARGS, "--checkpoint", str(ckpt),
                         f"data.series={csv}", "train.batch_size=3")
    assert code == 0
    assert seen == [3]


def test_eval_with_mismatched_config_exits_2(tmp_path, capsys):
    csv, ckpt = _trained_toy(tmp_path, capsys)
    code, _, err = run_cli(capsys, "eval", *TOY_ARGS, "--checkpoint", str(ckpt),
                           f"data.series={csv}", "model.hidden=8")
    assert code == 2
    assert "config error" in err and "shape" in err


def _corrupt(data: bytes, rng) -> bytes:
    """One seeded truncation or single-byte flip of `data`."""
    pos = int(rng.integers(len(data)))
    if rng.random() < 0.5:
        return data[:pos]
    return data[:pos] + bytes([data[pos] ^ int(rng.integers(1, 256))]) + data[pos + 1:]


# a corrupted edge list can keep no edge at all, which warns and still exits 0
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_corrupted_inputs_exit_with_a_documented_code(tmp_path, capsys):
    csv = tmp_path / "toy.csv"
    run_cli(capsys, "generate", "--nodes", "6", "--days", "2", "--seed", "3",
            "--steps-per-day", "24", "--out", str(csv))
    edges = tmp_path / "edges.csv"
    edges.write_text("from,to,weight\n" + "".join(f"{i},{(i + 1) % 6},1.5\n" for i in range(6)))
    common = [*TOY_ARGS, f"data.series={csv}", f"data.graph={edges}", "train.max_epochs=1"]
    ckpt = tmp_path / "run" / "checkpoint.bin"
    assert main(["train", "--out", str(ckpt.parent), *common]) == 0
    train = ["train", "--out", str(tmp_path / "r"), *common]
    targets = [(csv, train), (csv.with_suffix(".json"), train),
               (edges, train + ["graph.mode=predefined"]),
               (ckpt, ["eval", "--checkpoint", str(ckpt), *common])]
    rng = np.random.default_rng(0)
    codes = []
    for path, argv in targets:
        clean = path.read_bytes()
        for _ in range(24):
            path.write_bytes(_corrupt(clean, rng))
            codes.append((path.name, main(argv)))  # an exception escaping main fails the test
        path.write_bytes(clean)
    capsys.readouterr()
    assert {code for _, code in codes} <= {0, 2, 3, 4}, codes


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(network.__file__).resolve().parent.parent)
BLAS_PROBE = """
import ctypes, json, os
import fusecast.cli
with open("/proc/self/maps") as fh:
    paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
in_force = None
for path in paths:
    for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(path), symbol, None)
        if fn is not None and in_force is None:
            fn.restype = ctypes.c_int
            in_force = fn()
print(json.dumps({"env": [os.environ[v] for v in %r], "in_force": in_force}))
""" % (BLAS_VARS,)


def _child_env(**extra):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


@pytest.mark.parametrize("setting, expected", [({}, ["1", "1", "1"]),
                                               ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"])],
                         ids=["default", "explicit"])
def test_cli_defaults_blas_to_one_thread_unless_set(setting, expected):
    done = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=_child_env(**setting),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["env"] == expected
    if report["in_force"] is not None:  # an OpenBLAS build: the count it runs with
        assert report["in_force"] == int(expected[0])


PINNED_TRAIN = ("import os, sys; os.sched_setaffinity(0, %r); "
                "from fusecast.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs to pin to")
def test_same_seed_training_on_one_and_two_cpus_writes_the_same_bytes(tmp_path, capsys):
    csv = _toy_data(tmp_path, capsys)
    cpus = sorted(os.sched_getaffinity(0))[:2]
    outputs = []
    for pinned in ({cpus[0]}, set(cpus)):
        out = tmp_path / f"cpus{len(pinned)}"
        done = subprocess.run(
            [sys.executable, "-c", PINNED_TRAIN % (pinned,), "train", *TOY_ARGS,
             "--out", str(out), f"data.series={csv}", "model.dropout=0.2", "train.max_epochs=3"],
            env=_child_env(), capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append([(out / name).read_bytes()
                        for name in ("checkpoint.bin", "history.jsonl", "metrics.json")])
    assert outputs[0] == outputs[1]
