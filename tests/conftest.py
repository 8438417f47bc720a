"""Shared fixtures and helpers.

The tests run BLAS on one thread, as the CLI and perfbench do: importing
fusecast.cli first sets the CLI's defaults before numpy loads, and an
explicit setting in the environment still wins.
"""

import fusecast.cli  # noqa: F401  (before numpy: it sets the BLAS thread defaults)

import dataclasses
import threading
import types

import numpy as np
import pytest

from fusecast.config import load_config, preset_path
from fusecast.data import fit_normalizer, make_synthetic, split_and_window
from fusecast.decouple import decouple
from fusecast.graphgen import generate_pattern_graph, temporal_feature_matrix
from fusecast.network import Forecaster
from fusecast.tensor import Tensor, _Group


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread running, such as an ordered_map worker not joined."""
    before = threading.active_count()
    yield
    after = threading.active_count()
    assert after == before, f"{after - before} more threads running than before the test"


def tape_groups(tape):
    """The ordered_map groups among the tape's entries."""
    return [entry for entry in tape._records if isinstance(entry, _Group)]


def flat_records(tape):
    """The tape's records in execution order, each group's lists spliced in task order."""
    flat = []
    for entry in tape._records:
        if isinstance(entry, _Group):
            for records in entry:
                flat.extend(records)
        else:
            flat.append(entry)
    return flat


def pull_captures(pull):
    """What a pull closes over, cells and defaults, opening the functions, lists and tuples among them.

    A one-record op's pull reaches its arrays through the backward function
    it closes over, and that function may hold them in a list of saved
    arrays (the GRU's steps, the head's and the graph convolution's kept
    arrays).
    """
    def walk(value):
        if isinstance(value, types.FunctionType):
            yield from pull_captures(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                yield from walk(item)
        else:
            yield value

    for value in [c.cell_contents for c in pull.__closure__ or ()] + list(pull.__defaults__ or ()):
        yield from walk(value)


def held_bytes(records):
    """Bytes of the distinct buffers the records' pulls capture, a view counting its base."""
    held = {}
    for _, pulls in records:
        for _, pull in pulls:
            for a in pull_captures(pull):
                if isinstance(a, np.ndarray):
                    while isinstance(a.base, np.ndarray):
                        a = a.base
                    held[id(a)] = a.nbytes
    return sum(held.values())


def fd_gradient(f, x, h=1e-6):
    """Central finite differences of scalar callable f() around array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        fp = f()
        flat[i] = keep - h
        fm = f()
        flat[i] = keep
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a, b, floor=1e-8):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / scale).max())


def graphs_and_flows(model, history, tod, dow):
    """The per-pattern adjacency tensors and the PatternFlows that model's forward builds.

    The graphs depend only on the parameters and the calendar indices, the
    flows also on the normalized history, so the building blocks give them.
    """
    daily, weekly = model.pools.lookup(tod, dow)
    features = temporal_feature_matrix(daily, weekly)
    graphs = [generate_pattern_graph(weights, features, model.graph_cfg, model.predefined_graph)
              for weights in model.graph_weights]
    xn = model.normalizer.apply(np.asarray(history, dtype=model.dtype))
    e1 = model.graph_weights[0][0]
    return graphs, decouple(Tensor(xn), daily, weekly, e1, model.gates)


def toy_model_config():
    return load_config(preset_path("toy")).model


def toy_graph_config(**kw):
    return dataclasses.replace(load_config(preset_path("toy")).graph, **kw)


@pytest.fixture
def toy_series():
    series, params = make_synthetic(4, 6, seed=7, coupling=0.5,
                                    steps_per_day=8, noise_std=1.0)
    return series, params


@pytest.fixture
def toy_setup(toy_series):
    """Series, splits, normalizer, and a float64 toy model."""
    series, _ = toy_series
    train_ws, val_ws, test_ws = split_and_window(series, 4, 2, (0.6, 0.2, 0.2))
    norm = fit_normalizer(train_ws)
    model = Forecaster(series.n_nodes, series.steps_per_day, toy_model_config(),
                       toy_graph_config(), normalizer=norm, dtype=np.float64, seed=3)
    return series, train_ws, val_ws, test_ws, norm, model
