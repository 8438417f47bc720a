"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them
live). Tolerances and runtime budgets are pinned here, not configurable.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import toy_graph_config, toy_model_config
from fusecast.config import GraphConfig, ModelConfig, RunConfig, TrainConfig, load_config, preset_path
from fusecast.data import fit_normalizer, make_synthetic, save_series, split_and_window
from fusecast.decouple import decouple
from fusecast.graphgen import build_directed_graph, fuse_graphs
from fusecast.network import Forecaster, normalized_propagation, rgc_forward
from fusecast.optim import grad_check, randomize_parameters
from fusecast.tensor import Tensor
from fusecast.training import (ABLATION_VARIANTS, apply_variant, evaluate,
                               masked_mae_loss, metrics, run_training, train)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _report(name, passed, detail=""):
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"{name}: {detail}"


# -- criterion: decoupled streams conserve the input -------------------------

def test_conservation_over_random_draws():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(1000):
        g = int(rng.integers(1, 4))
        th, n, d_time, nd, hidden = (int(rng.integers(2, 6)), int(rng.integers(2, 6)),
                                     int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                                     int(rng.integers(1, 8)))
        x = Tensor(rng.standard_normal((th, n, 1)))
        daily = Tensor(rng.standard_normal((th, n, d_time)))
        weekly = Tensor(rng.standard_normal((th, n, d_time)))
        embed = Tensor(rng.standard_normal((n, nd)))
        gates = [(Tensor(rng.standard_normal((2 * d_time + nd, hidden))),
                  Tensor(rng.standard_normal((hidden, 1))))
                 for _ in range(g - 1)]
        flows = decouple(x, daily, weekly, embed, gates)
        total = sum(f.data for f in flows.flows)
        worst = max(worst, float(np.abs(total - x.data).max()))
    elapsed = time.monotonic() - t0
    _report("conservation", worst <= 1e-12 and elapsed < 10.0,
            f"(max deviation {worst:.2e}, {elapsed:.1f}s)")


# -- criterion: graph construction contracts ---------------------------------

def test_graph_contracts():
    rng = np.random.default_rng(102)
    t0 = time.monotonic()
    ok = True
    notes = []
    for trial in range(40):
        n = int(rng.integers(3, 9))
        nd = int(rng.integers(2, 5))
        ks = int(rng.integers(1, n + 1))
        u = lambda shape: Tensor(rng.uniform(-0.8, 0.8, shape), requires_grad=False)
        a = build_directed_graph(u((n, nd)), u((n, nd)), u((nd, nd)), u((nd, nd)),
                                 alpha=3.0, k=ks).data
        if not ((a != 0).sum(axis=-1) <= ks).all():
            ok, _ = False, notes.append(f"sparsity violated at trial {trial}")
        if not np.array_equal(np.diag(a), np.zeros(n)):
            ok, _ = False, notes.append(f"nonzero diagonal at trial {trial}")
        if a.min() < 0:
            ok, _ = False, notes.append(f"negative entry at trial {trial}")

        heads, dh = 2, max(1, n // 2 // 2)
        query, key, value = ([u((n, dh)) for _ in range(heads)] for _ in range(3))
        output = u((heads * dh, n))
        a_s = Tensor(rng.uniform(0, 1, (n, n)))
        a_t = Tensor(rng.uniform(0, 1, (n, n)))
        final, scores = fuse_graphs(a_s, a_t, 3.0, list(zip(query, key, value)), output,
                                    return_scores=True)
        for s in scores:
            if np.abs(s.data.sum(axis=-1) - 1.0).max() > 1e-9:
                ok, _ = False, notes.append(f"attention rows off at trial {trial}")
        if final.data.min() < 0:
            ok, _ = False, notes.append(f"negative fused adjacency at trial {trial}")
    # antisymmetric special case: shared features and weights
    shared_f = Tensor(np.random.default_rng(5).uniform(-1, 1, (6, 3)))
    shared_w = Tensor(np.random.default_rng(6).uniform(-1, 1, (3, 3)))
    a = build_directed_graph(shared_f, shared_f, shared_w, shared_w, alpha=3.0, k=6).data
    if not np.array_equal(np.diag(a), np.zeros(6)):
        ok, _ = False, notes.append("special-case diagonal not exactly zero")
    elapsed = time.monotonic() - t0
    _report("graph-contracts", ok and elapsed < 10.0,
            f"({elapsed:.1f}s{'; ' + '; '.join(notes) if notes else ''})")


# -- criterion: end-to-end gradient fidelity ---------------------------------

def test_gradient_fidelity_toy_config():
    # pinned toy configuration: N=4, Th=4, Tf=2, G=2, M=2, d=4, K=2
    t0 = time.monotonic()
    series, _ = make_synthetic(4, 6, seed=7, coupling=0.5, steps_per_day=8,
                               noise_std=1.0)
    train_ws, _, _ = split_and_window(series, 4, 2, (0.6, 0.2, 0.2))
    norm = fit_normalizer(train_ws)
    model = Forecaster(series.n_nodes, series.steps_per_day, toy_model_config(),
                       toy_graph_config(), normalizer=norm, dtype=np.float64, seed=3)
    assert (model.cfg.patterns, model.cfg.rgc_iterations,
            model.cfg.hidden, model.cfg.depth) == (2, 2, 4, 2)
    randomize_parameters(model.parameters(), seed=11)
    hist, targ, tod, dow = train_ws.batch([0, 3])

    def loss_fn():
        pred = model.forward_batch(hist, tod, dow, training=False)
        return masked_mae_loss(pred, targ)

    report = grad_check(loss_fn, model.parameters(), h=1e-5)
    elapsed = time.monotonic() - t0
    _report("gradient-fidelity", report.max_rel_error < 1e-5 and elapsed < 120.0,
            f"(max rel err {report.max_rel_error:.2e} at {report.worst_param}, "
            f"{model.n_parameters} parameters, {elapsed:.1f}s)")


# -- criterion: residual graph convolution identities ------------------------

def test_rgc_identity_properties():
    rng = np.random.default_rng(103)
    h = Tensor(rng.standard_normal((3, 5, 4)))
    w = Tensor(rng.standard_normal((2 * 4, 4)))
    a_rand = Tensor(rng.uniform(0, 2, (5, 5)))

    replicated = rgc_forward(h, a_rand, w, 1.0)
    expected = np.concatenate([h.data, h.data], axis=-1) @ w.data
    gamma_ok = np.array_equal(replicated.data, expected)

    identity = rgc_forward(h, Tensor(np.zeros((5, 5))), w, 0.4)
    identity_ok = np.allclose(identity.data, expected, atol=0)

    rows_ok = True
    for _ in range(25):
        prop, _ = normalized_propagation(rng.uniform(0, 3, (6, 6)))
        rows_ok &= bool(np.abs(prop.sum(axis=-1) - 1.0).max() <= 1e-12)

    _report("rgc-identities", gamma_ok and identity_ok and rows_ok,
            f"(gamma=1 exact: {gamma_ok}, A=0 identity: {identity_ok}, rows: {rows_ok})")


# -- criteria: overfit convergence and beating naive baselines ---------------

@pytest.fixture(scope="module")
def trained_synthetic():
    series, _ = make_synthetic(8, 7, seed=5, coupling=0.5, steps=2000)
    train_ws, val_ws, test_ws = split_and_window(series, 12, 12, (0.6, 0.2, 0.2))
    norm = fit_normalizer(train_ws)
    mcfg = ModelConfig(history_steps=12, horizon_steps=12, patterns=2, rgc_iterations=2,
                       hidden=8, depth=2, node_embed_dim=4, time_embed_dim=8,
                       gate_hidden=16, head_hidden=32, head_channels=32, dropout=0.1)
    gcfg = GraphConfig(k_spatial=4, k_temporal=4, heads=2, head_dim=4)
    model = Forecaster(series.n_nodes, series.steps_per_day, mcfg, gcfg,
                       normalizer=norm, dtype=np.float32, seed=5)
    tcfg = TrainConfig(batch_size=128, learning_rate=0.004, max_epochs=200,
                       warmup_epochs=20, milestones=[120, 160], seed=5, patience=0)
    t0 = time.monotonic()
    train(model, train_ws, val_ws, tcfg)
    elapsed = time.monotonic() - t0
    return series, train_ws, val_ws, test_ws, model, elapsed


def test_overfit_convergence(trained_synthetic):
    series, train_ws, _, _, model, elapsed = trained_synthetic
    train_slice = series.values[train_ws.split_start:
                                train_ws.split_start + train_ws.split_length]
    target_mae = 0.1 * float(train_slice.std())
    train_mae = evaluate(model, train_ws, batch_size=256).mae
    _report("overfit-convergence", train_mae < target_mae and elapsed < 300.0,
            f"(train MAE {train_mae:.3f} < {target_mae:.3f}, 200 epochs in {elapsed:.0f}s)")


def test_beats_naive_baselines(trained_synthetic):
    series, train_ws, _, test_ws, model, _ = trained_synthetic
    model_mae = evaluate(model, test_ws, batch_size=256).mae
    hist, targ, tod, dow = test_ws.batch(np.arange(len(test_ws)))

    # oracle 1: repeat the last observed value across the horizon
    repeat_last = np.repeat(hist[:, -1:], model.cfg.horizon_steps, axis=1)
    rl_mae = metrics(repeat_last, targ).mae

    # oracle 2: historical average by time-of-day, fitted on the train split
    spd = series.steps_per_day
    tr = series.values[train_ws.split_start:
                       train_ws.split_start + train_ws.split_length, :, 0]
    tods = series.time_indices(
        np.arange(train_ws.split_start, train_ws.split_start + train_ws.split_length))[0]
    avg = np.zeros((spd, series.n_nodes))
    for slot in range(spd):
        avg[slot] = tr[tods == slot].mean(axis=0)
    starts = test_ws.split_start + np.arange(len(test_ws))
    targ_tod = (starts[:, None] + 12 + np.arange(12)[None, :]) % spd
    ha_mae = metrics(avg[targ_tod][..., None], targ).mae

    _report("beat-naive", model_mae < rl_mae and model_mae < ha_mae,
            f"(model {model_mae:.3f} vs repeat-last {rl_mae:.3f}, "
            f"historical-average {ha_mae:.3f})")


# -- criterion: ablation harness runs every published variant ----------------

def test_ablation_harness(tmp_path):
    series, _ = make_synthetic(4, 6, seed=7, coupling=0.5, steps_per_day=8,
                               noise_std=1.0)
    save_series(series, tmp_path / "toy.csv")
    (tmp_path / "edges.csv").write_text("0,1\n1,2\n2,3\n")
    completed = []
    for variant in ABLATION_VARIANTS:
        cfg = RunConfig()
        cfg.model = toy_model_config()
        cfg.graph = toy_graph_config()
        cfg.train = TrainConfig(batch_size=16, max_epochs=1, warmup_epochs=1,
                                seed=1, patience=0, milestones=[50, 80])
        cfg.data.series = str(tmp_path / "toy.csv")
        cfg.data.graph = str(tmp_path / "edges.csv")
        apply_variant(cfg, variant)
        out = tmp_path / f"run_{variant}"
        out.mkdir()
        _, _, test_report = run_training(cfg, out_dir=out)
        well_formed = (set(test_report.to_dict()) == {"mae", "rmse", "mape", "per_horizon"}
                       and np.isfinite(test_report.mae)
                       and (out / "metrics.json").exists())
        completed.append((variant, well_formed))
    all_ok = all(ok for _, ok in completed)
    _report("ablation-harness", all_ok,
            f"({', '.join(v for v, _ in completed)})")


# -- criterion: bitwise determinism of training artifacts --------------------

def test_determinism_of_artifacts(tmp_path):
    series, _ = make_synthetic(4, 6, seed=7, coupling=0.5, steps_per_day=8,
                               noise_std=1.0)
    save_series(series, tmp_path / "toy.csv")
    digests = []
    for run in ("one", "two"):
        cfg = RunConfig()
        cfg.model = toy_model_config()
        cfg.model.dropout = 0.1  # dropout active: the rng derivation must reproduce
        cfg.graph = toy_graph_config()
        cfg.train = TrainConfig(batch_size=16, max_epochs=3, warmup_epochs=1,
                                seed=21, patience=0, milestones=[50, 80])
        cfg.data.series = str(tmp_path / "toy.csv")
        out = tmp_path / run
        out.mkdir()
        run_training(cfg, out_dir=out)
        digests.append(((out / "checkpoint.bin").read_bytes(),
                        (out / "history.jsonl").read_bytes()))
    same = digests[0][0] == digests[1][0] and digests[0][1] == digests[1][1]
    _report("determinism", same,
            f"(checkpoint {len(digests[0][0])} bytes, history {len(digests[0][1])} bytes)")


# -- criterion: full-scale reproduction is documented, not desk-scale --------

def test_extended_recipe_is_documented_not_run():
    readme = (REPO_ROOT / "README.md").read_text()
    recipe_ok = ("extended" in readme.lower()
                 and "13.65" in readme
                 and "best-effort" in readme.lower()
                 and "pems08" in readme.lower())
    cfg = load_config(preset_path("pems08"))
    preset_ok = (cfg.train.batch_size == 32 and cfg.train.learning_rate == 0.004
                 and cfg.model.node_embed_dim == 10 and cfg.model.time_embed_dim == 10
                 and cfg.graph.k_spatial == 10 and cfg.graph.k_temporal == 10
                 and cfg.model.patterns == 2)
    _report("extended-recipe-documented", recipe_ok and preset_ok,
            f"(README recipe: {recipe_ok}, preset values: {preset_ok})")
