import dataclasses

import numpy as np
import pytest

from fusecast.config import load_config, preset_path
from fusecast.data import fit_normalizer, make_synthetic, split_and_window
from fusecast.network import Forecaster


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
