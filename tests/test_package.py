import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import fusecast
from conftest import toy_graph_config, toy_model_config
from fusecast import decouple, graphgen, network
from fusecast import tensor as T
from fusecast.data import fit_normalizer, make_synthetic, split_and_window
from fusecast.network import Forecaster
from fusecast.optim import Adam
from fusecast.tensor import Tape, Tensor
from fusecast.training import masked_mae_loss


def test_each_module_is_the_package_attribute_of_its_name():
    # the root re-exports nothing, so no function can shadow its own module
    names = [m.name for m in pkgutil.iter_modules(fusecast.__path__)]
    assert "decouple" in names
    for name in names:
        assert importlib.import_module(f"fusecast.{name}") is getattr(fusecast, name), name
    src = str(Path(fusecast.__file__).parents[1])
    fresh = subprocess.run(
        [sys.executable, "-c", "import fusecast; print(sorted(n for n in vars(fusecast) if n[0] != '_'))"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert fresh.stdout.strip() == "[]"


# file access, decoding, and cutting text into lines or comments
FILE_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes", "savetxt", "loadtxt",
              "decode", "splitlines", r"split('\n')", "split('#')"}


def _call_name(call):
    """The called name; a split by a constant string is named with it, as in `split('#')`."""
    name = getattr(call.func, "id", getattr(call.func, "attr", None))
    arg = call.args[0] if call.args else None
    if name == "split" and isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return f"split({arg.value!r})"
    return name


def _file_calls(tree):
    """(enclosing function, called name) of each call in tree to a name in FILE_CALLS."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and _call_name(child) in FILE_CALLS:
                found.append((func, _call_name(child)))
            visit(child, func)

    visit(tree, None)
    return found


def test_only_the_file_boundary_reads_writes_or_decodes_files():
    # checkpoint.py is the file boundary: decode_text reads every text input, numbered_lines
    # cuts it into lines past comments, and replacing opens every output; the series CSV's
    # np.loadtxt fast path is the one exception
    calls = {path.name: _file_calls(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(Path(fusecast.__file__).parent.glob("*.py"))}
    boundary = {("decode_text", "read_bytes"), ("decode_text", "decode"), ("replacing", "open"),
                ("numbered_lines", r"split('\n')"), ("numbered_lines", "split('#')")}
    assert boundary <= set(calls.pop("checkpoint.py"))
    assert {name: found for name, found in calls.items() if found} == {
        "data.py": [("_read_numeric_csv", "loadtxt")]}


def _public_functions(module) -> dict:
    """The public functions that module defines, by name."""
    return {name: fn for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")}


@pytest.fixture(scope="module")
def model_calls():
    """The code of every function a toy training step and an eval forward run, in each graph mode.

    The step has dropout, reads loss.item(), narrows the loss to a horizon
    below the model's and takes an Adam step. A function that none of this
    calls serves tests only: it belongs in the tests that need it, as the
    reference chains' reshape and div are in test_one_record_ops.
    """
    series, _ = make_synthetic(4, 6, seed=7, coupling=0.5, steps_per_day=8, noise_std=1.0)
    train_ws, _, _ = split_and_window(series, 4, 2, (0.6, 0.2, 0.2))
    norm = fit_normalizer(train_ws)
    hist, targ, tod, dow = train_ws.batch(list(range(5)))
    assert targ.shape[1] > 1
    road = np.random.default_rng(0).uniform(0.1, 1.0, (series.n_nodes, series.n_nodes))
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        for mode in ("fused", "spatial_only", "temporal_only", "predefined"):
            model = Forecaster(series.n_nodes, series.steps_per_day,
                               dataclasses.replace(toy_model_config(), dropout=0.2),
                               toy_graph_config(mode=mode), normalizer=norm,
                               predefined_graph=road if mode == "predefined" else None,
                               dtype=np.float32, seed=3)
            optimizer = Adam(model.parameters())
            optimizer.zero_grad()
            with Tape() as tape:
                pred = model.forward_batch(hist, tod, dow, training=True,
                                           rng=np.random.default_rng(0))
                loss = masked_mae_loss(pred, targ, horizon_limit=1)
                assert np.isfinite(loss.item())
                tape.backward(loss)
            optimizer.step()
            model.forward_batch(hist, tod, dow)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return called


def test_every_public_tensor_function_and_method_has_a_model_caller(model_calls):
    """The model calls every public fusecast.tensor function and Tensor method (see model_calls)."""
    named = _public_functions(T)
    for name, attr in vars(Tensor).items():
        if inspect.isfunction(attr):
            named[f"Tensor.{name}"] = attr
        elif isinstance(attr, property):
            named.update({f"Tensor.{name}.{part}": getattr(attr, part)
                          for part in ("fget", "fset") if getattr(attr, part) is not None})
    assert sorted(name for name, fn in named.items() if fn.__code__ not in model_calls) == []


def test_every_public_model_function_has_a_model_caller(model_calls):
    """The model calls every public function of graphgen, decouple and network (see model_calls).

    TimeEmbeddingPools.lookup counts as one of graphgen's: perfbench times it.
    """
    named = {"graphgen.TimeEmbeddingPools.lookup": graphgen.TimeEmbeddingPools.lookup}
    for module in (graphgen, decouple, network):
        short = module.__name__.rpartition(".")[2]
        named.update({f"{short}.{name}": fn for name, fn in _public_functions(module).items()})
    assert len(named) > 8
    assert sorted(name for name, fn in named.items() if fn.__code__ not in model_calls) == []
