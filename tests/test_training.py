import dataclasses
import json

import numpy as np
import pytest

from conftest import graphs_and_flows, toy_graph_config, toy_model_config
from fusecast import optim, training
from fusecast.checkpoint import load_checkpoint
from fusecast.config import RunConfig, TrainConfig
from fusecast.data import WindowSet, save_series
from fusecast.errors import ConfigError, NumericalError, ShapeError
from fusecast.network import Forecaster
from fusecast.tensor import Tape, Tensor
from fusecast.training import (ABLATION_VARIANTS, MetricReport, apply_variant,
                               curriculum_horizon, evaluate, lr_schedule, masked_mae_loss,
                               metrics, run_training, train)


def test_masked_mae_hand_example():
    pred = Tensor(np.array([2.0, 4.0]).reshape(2, 1, 1))
    target = np.array([1.0, 2.0]).reshape(2, 1, 1)
    assert masked_mae_loss(pred, target).item() == pytest.approx(1.5)


def test_masked_mae_all_zero_targets_warns_and_counts():
    pred = Tensor(np.ones((2, 3, 1)))
    with pytest.warns(UserWarning, match="mask"):
        loss = masked_mae_loss(pred, np.zeros((2, 3, 1)))
    assert loss.item() == 0.0


def test_masked_mae_horizon_limit():
    pred = Tensor(np.array([2.0, 100.0]).reshape(2, 1, 1))
    target = np.array([1.0, 1.0]).reshape(2, 1, 1)
    assert masked_mae_loss(pred, target, horizon_limit=1).item() == pytest.approx(1.0)
    # backward: sign(pred - target) / count within the limit, exactly +0.0 beyond it
    rng = np.random.default_rng(0)
    pred = Tensor(rng.uniform(1, 5, (2, 4, 3, 1)).astype(np.float32), requires_grad=True)
    target = rng.uniform(1, 5, pred.shape).astype(np.float32)
    target[0, 1, 2, 0] = pred.data[0, 1, 2, 0]  # a zero difference has a zero gradient
    with Tape() as tape:
        tape.backward(masked_mae_loss(pred, target, horizon_limit=2))
    within, beyond = pred.grad[:, :2], pred.grad[:, 2:]
    assert pred.grad.dtype == np.float32
    assert np.array_equal(within, np.sign(pred.data[:, :2] - target[:, :2]) / np.float32(12))
    assert within[0, 1, 2, 0] == 0.0
    assert not beyond.any() and not np.signbit(beyond).any()


def test_masked_mae_ignores_zero_target_entries():
    rng = np.random.default_rng(0)
    pred_data = rng.uniform(1, 5, (4, 3, 1))
    target = rng.uniform(1, 5, (4, 3, 1))
    base = masked_mae_loss(Tensor(pred_data), target).item()
    # extend the batch with windows whose targets are entirely zero
    pred2 = np.concatenate([pred_data, rng.uniform(1, 5, (4, 3, 1))], axis=1)
    target2 = np.concatenate([target, np.zeros((4, 3, 1))], axis=1)
    assert masked_mae_loss(Tensor(pred2), target2).item() == pytest.approx(base)


def test_a_negative_reading_is_missing_as_a_zero_is():
    rng = np.random.default_rng(0)
    pred_data = rng.uniform(1, 5, (2, 3, 4, 1))
    zero = rng.uniform(1, 5, pred_data.shape)
    zero[1, 2, 0, 0] = 0.0
    negative = zero.copy()
    negative[1, 2, 0, 0] = -3.0
    seen = []
    for target in (zero, negative):
        pred = Tensor(pred_data, requires_grad=True)
        with Tape() as tape:
            loss = masked_mae_loss(pred, target)
            tape.backward(loss)
        seen.append((loss.data.tobytes(), pred.grad.tobytes(), metrics(pred_data, target).to_dict()))
    assert seen[0] == seen[1]


def test_masked_mae_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3, 1\) vs target \(2, 3, 2\)"):
        masked_mae_loss(Tensor(np.ones((2, 3, 1))), np.ones((2, 3, 2)))


def test_masked_mae_gradient_flows():
    pred = Tensor(np.array([[2.0], [4.0]]).reshape(2, 1, 1), requires_grad=True)
    with Tape() as tape:
        tape.backward(masked_mae_loss(pred, np.array([1.0, 5.0]).reshape(2, 1, 1)))
    assert pred.grad.reshape(-1).tolist() == [0.5, -0.5]


@pytest.mark.parametrize("field", ["mae", "rmse", "mape"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_metric_report_finite_checks_every_total(field, value):
    report = MetricReport(mae=1.0, rmse=2.0, mape=3.0)
    assert report.finite("test metrics") is report
    bad = dataclasses.replace(report, **{field: value})
    with pytest.raises(NumericalError, match=rf"non-finite test metrics \(.*{field} {value}"):
        bad.finite("test metrics")


def test_metrics_identity_is_zero():
    x = np.random.default_rng(1).uniform(1, 10, (2, 5, 3, 1))
    report = metrics(x, x)
    assert (report.mae, report.rmse, report.mape) == (0.0, 0.0, 0.0)


def test_metrics_mape_example():
    report = metrics(np.array([[[110.0]]]), np.array([[[100.0]]]))
    assert report.mape == pytest.approx(10.0)
    assert report.mae == pytest.approx(10.0)


def test_metrics_hand_example():
    report = metrics(np.array([1.0, 3.0]).reshape(2, 1, 1),
                     np.array([2.0, 2.0]).reshape(2, 1, 1))
    assert report.mae == pytest.approx(1.0)
    assert report.rmse == pytest.approx(1.0)


def test_rmse_dominates_mae():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pred = rng.uniform(0, 50, (3, 4, 2, 1))
        target = rng.uniform(1, 50, (3, 4, 2, 1))
        report = metrics(pred, target)
        assert report.rmse >= report.mae >= 0.0
        for h in range(4):
            assert report.rmse_per_horizon[h] >= report.mae_per_horizon[h]


def test_metrics_mask_threshold_limits_mape():
    pred = np.array([12.0, 6.0]).reshape(2, 1, 1)
    target = np.array([10.0, 5.0]).reshape(2, 1, 1)
    full = metrics(pred, target, mask_threshold=0.0)
    limited = metrics(pred, target, mask_threshold=7.0)
    assert full.mape == pytest.approx(20.0)
    assert limited.mape == pytest.approx(20.0)  # only the 10.0 entry counts
    assert limited.mae == full.mae  # threshold touches MAPE only


def _tcfg(**kw):
    base = dict(batch_size=8, learning_rate=0.004, warmup_epochs=20, curriculum_step=3,
                max_epochs=3, seed=1, milestones=[50, 80], patience=0)
    base.update(kw)
    return TrainConfig(**base)


def test_curriculum_schedule_examples():
    cfg = _tcfg()
    assert curriculum_horizon(1, cfg, 12) == 12     # warm-up trains the full task
    assert curriculum_horizon(20, cfg, 12) == 12
    assert curriculum_horizon(21, cfg, 12) == 1     # restart at one step
    assert curriculum_horizon(23, cfg, 12) == 1
    assert curriculum_horizon(24, cfg, 12) == 2
    assert curriculum_horizon(20 + 3 * 11 + 1, cfg, 12) == 12
    assert curriculum_horizon(999, cfg, 12) == 12


def test_curriculum_non_decreasing_after_warmup():
    cfg = _tcfg()
    values = [curriculum_horizon(e, cfg, 12) for e in range(21, 120)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert max(values) == 12


def test_lr_schedule_examples():
    cfg = _tcfg()
    assert lr_schedule(1, cfg) == pytest.approx(0.004)
    assert lr_schedule(60, cfg) == pytest.approx(0.002)
    assert lr_schedule(100, cfg) == pytest.approx(0.001)


def _toy_float32(toy_setup):
    series, train_ws, val_ws, test_ws, norm, _ = toy_setup
    model = Forecaster(series.n_nodes, series.steps_per_day, toy_model_config(),
                       toy_graph_config(), normalizer=norm, dtype=np.float32, seed=3)
    return series, train_ws, val_ws, test_ws, model


def test_lr_zero_keeps_parameters_and_loss_constant(toy_setup):
    series, train_ws, val_ws, test_ws, model = _toy_float32(toy_setup)
    before = {k: v.copy() for k, v in model.state().items()}
    result = train(model, train_ws, val_ws, _tcfg(learning_rate=0.0, max_epochs=2))
    for k, v in model.state().items():
        assert np.array_equal(v, before[k]), k
    assert result.history[0]["train_loss"] == pytest.approx(result.history[1]["train_loss"])


def test_training_reduces_loss(toy_setup):
    series, train_ws, val_ws, test_ws, model = _toy_float32(toy_setup)
    result = train(model, train_ws, val_ws, _tcfg(max_epochs=10, warmup_epochs=10))
    assert result.history[-1]["train_loss"] < result.history[0]["train_loss"]


def test_seeded_training_is_reproducible(toy_setup, tmp_path):
    outs = []
    for run in ("a", "b"):
        series, train_ws, val_ws, test_ws, norm, _ = toy_setup
        model = Forecaster(series.n_nodes, series.steps_per_day, toy_model_config(),
                           toy_graph_config(), normalizer=norm, dtype=np.float32, seed=3)
        out = tmp_path / run
        out.mkdir()
        train(model, train_ws, val_ws, _tcfg(max_epochs=3), out_dir=out)
        outs.append(out)
    assert (outs[0] / "checkpoint.bin").read_bytes() == (outs[1] / "checkpoint.bin").read_bytes()
    assert (outs[0] / "history.jsonl").read_bytes() == (outs[1] / "history.jsonl").read_bytes()


def test_epoch_shuffle_depends_only_on_seed_and_epoch(toy_setup, monkeypatch):
    series, train_ws, val_ws, test_ws, model = _toy_float32(toy_setup)
    batches, real_batch = [], train_ws.batch
    monkeypatch.setattr(train_ws, "batch", lambda idx: batches.append(idx) or real_batch(idx))
    cfg = _tcfg(max_epochs=3, seed=11)
    train(model, train_ws, val_ws, cfg)
    n = len(train_ws)
    per_epoch = -(-n // cfg.batch_size)
    assert len(batches) == 3 * per_epoch
    for epoch in (1, 2, 3):
        order = np.concatenate(batches[(epoch - 1) * per_epoch:epoch * per_epoch])
        seed = np.random.SeedSequence(11, spawn_key=(0, epoch - 1))
        assert np.array_equal(order, np.random.default_rng(seed).permutation(n)), epoch


def test_history_records_have_contract_keys(toy_setup, tmp_path):
    series, train_ws, val_ws, test_ws, model = _toy_float32(toy_setup)
    train(model, train_ws, val_ws, _tcfg(max_epochs=2), out_dir=tmp_path)
    lines = (tmp_path / "history.jsonl").read_text().strip().splitlines()
    assert len(lines) == 2
    record = json.loads(lines[0])
    assert set(record) == {"epoch", "lr", "horizon", "train_loss",
                           "val_mae", "val_rmse", "val_mape"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the forward overflows on purpose
def test_non_finite_loss_aborts_with_batch_index(toy_setup):
    series, train_ws, val_ws, test_ws, model = _toy_float32(toy_setup)
    model.parameters()["head.out.weight"].data[:] = np.float32(1e38)
    with pytest.raises(NumericalError, match="epoch 1, batch 0"):
        train(model, train_ws, val_ws, _tcfg(max_epochs=1))


def _scripted_evaluate(monkeypatch, maes):
    """Replace training.evaluate by the real one with its MAE taken from `maes`.

    Returns the list of reports handed to train(), one per call.
    """
    real, reports = training.evaluate, []

    def scripted(*args, **kwargs):
        report = dataclasses.replace(real(*args, **kwargs), mae=maes[len(reports)])
        reports.append(report)
        return report

    monkeypatch.setattr(training, "evaluate", scripted)
    return reports


# (scripted validation MAEs, patience, epochs run, best epoch)
PATIENCE_CASES = [
    ([5.0, 3.0, 4.0, 4.0, 1.0], 2, 4, 2),  # stopped by patience at epoch 4
    ([3.0, 3.0, 3.0], 2, 3, 1),  # a tie is no improvement
    ([5.0, 4.0, 3.0], 0, 3, 3),  # patience 0 never stops
]


def test_patience_stop_evaluates_once_per_epoch_and_keeps_best_report(toy_setup, tmp_path,
                                                                     monkeypatch):
    real_evaluate = training.evaluate
    for case, (maes, patience, epochs, best) in enumerate(PATIENCE_CASES):
        series, train_ws, val_ws, test_ws, model = _toy_float32(toy_setup)
        monkeypatch.setattr(training, "evaluate", real_evaluate)
        reports = _scripted_evaluate(monkeypatch, maes)
        out = tmp_path / str(case)
        out.mkdir()
        result = train(model, train_ws, val_ws,
                       _tcfg(max_epochs=len(maes), patience=patience), out_dir=out)
        assert len(reports) == len(result.history) == epochs, case
        assert result.best_epoch == best, case
        assert json.dumps(result.val_report.to_dict()) == json.dumps(reports[best - 1].to_dict())
        # the model and checkpoint hold the best epoch's parameters
        again = real_evaluate(model, val_ws, batch_size=64)
        assert json.dumps(dataclasses.replace(again, mae=maes[best - 1]).to_dict()) == \
            json.dumps(reports[best - 1].to_dict()), case
        saved = load_checkpoint(out / "checkpoint.bin")
        assert all(np.array_equal(saved[k], v) for k, v in model.state().items()), case


def test_scheduled_rate_reaches_the_optimizer(toy_setup, monkeypatch):
    series, train_ws, val_ws, test_ws, model = _toy_float32(toy_setup)
    rates, real_step = [], optim.Adam.step

    def recording_step(self):
        rates.append(self.learning_rate)  # the rate this step is about to apply
        real_step(self)

    monkeypatch.setattr(optim.Adam, "step", recording_step)
    cfg = _tcfg(max_epochs=3, milestones=[2, 3])
    train(model, train_ws, val_ws, cfg)
    batches = -(-len(train_ws) // cfg.batch_size)
    assert rates == [lr_schedule(epoch, cfg) for epoch in range(1, 4) for _ in range(batches)]
    assert len(set(rates)) == 3


def test_non_finite_validation_mae_raises_numerical_error(toy_setup, tmp_path, monkeypatch):
    series, train_ws, val_ws, test_ws, model = _toy_float32(toy_setup)
    _scripted_evaluate(monkeypatch, [float("nan")])
    with pytest.raises(NumericalError, match=r"validation metrics at epoch 1 \(mae nan"):
        train(model, train_ws, val_ws, _tcfg(max_epochs=2), out_dir=tmp_path)
    assert (tmp_path / "history.jsonl").read_text() == ""


@pytest.mark.parametrize("field", ["rmse", "mape"])
def test_non_finite_validation_rmse_or_mape_raises_with_finite_mae(toy_setup, tmp_path,
                                                                   monkeypatch, field):
    series, train_ws, val_ws, test_ws, model = _toy_float32(toy_setup)
    real, calls = training.evaluate, []

    def overflowing(*args, **kwargs):
        calls.append(args)
        report = real(*args, **kwargs)
        return dataclasses.replace(report, **{field: float("inf")}) if len(calls) == 2 else report

    monkeypatch.setattr(training, "evaluate", overflowing)
    with pytest.raises(NumericalError, match=rf"validation metrics at epoch 2 .*{field} inf"):
        train(model, train_ws, val_ws, _tcfg(max_epochs=3), out_dir=tmp_path)
    assert [json.loads(line)["epoch"]
            for line in (tmp_path / "history.jsonl").read_text().splitlines()] == [1]


def test_evaluate_runs_without_tape(toy_setup):
    series, train_ws, val_ws, test_ws, model = _toy_float32(toy_setup)
    report = evaluate(model, val_ws, batch_size=4)
    assert report.mae > 0
    assert len(report.mae_per_horizon) == model.cfg.horizon_steps


def test_evaluate_of_no_windows_reports_zeros(toy_setup):
    series, train_ws, val_ws, test_ws, model = _toy_float32(toy_setup)
    th, tf = model.cfg.history_steps, model.cfg.horizon_steps
    empty = WindowSet(series, 0, th + tf - 1, th, tf)
    assert len(empty) == 0
    report = evaluate(model, empty, batch_size=4)
    assert report.to_dict() == MetricReport(0.0, 0.0, 0.0, [0.0] * tf, [0.0] * tf,
                                            [0.0] * tf).to_dict()


def test_evaluate_predictions_do_not_depend_on_batch_size(toy_setup):
    series, train_ws, val_ws, test_ws, model = _toy_float32(toy_setup)
    real_forward, preds = model.forward_batch, []

    def recording(*args, **kwargs):
        out = real_forward(*args, **kwargs)
        preds.append(out.data.copy())
        return out

    model.forward_batch = recording
    one = evaluate(model, test_ws, batch_size=1)
    per_window = np.concatenate(preds)
    preds.clear()
    whole = evaluate(model, test_ws, batch_size=len(test_ws))
    assert len(preds) == 1 and len(per_window) == len(test_ws) > 1
    assert per_window.tobytes() == preds[0].tobytes()
    # the metrics differ only by float64 summation order
    for name in ("mae", "rmse", "mape", "mae_per_horizon", "rmse_per_horizon", "mape_per_horizon"):
        assert getattr(one, name) == pytest.approx(getattr(whole, name), rel=1e-12), name


def _run_cfg(tmp_path, toy_series, **train_kw):
    series, _ = toy_series
    save_series(series, tmp_path / "toy.csv")
    cfg = RunConfig()
    cfg.data.series = str(tmp_path / "toy.csv")
    cfg.model = toy_model_config()
    cfg.graph = toy_graph_config()
    kw = dict(max_epochs=2, batch_size=16)
    kw.update(train_kw)
    cfg.train = _tcfg(**kw)
    return cfg


def test_run_training_writes_artifacts(tmp_path, toy_series):
    cfg = _run_cfg(tmp_path, toy_series)
    out = tmp_path / "run"
    out.mkdir()
    model, result, test_report = run_training(cfg, out_dir=out)
    assert (out / "checkpoint.bin").exists()
    assert (out / "history.jsonl").exists()
    report = json.loads((out / "metrics.json").read_text())
    assert set(report) == {"val", "test", "best_epoch"}
    assert report["test"]["mae"] == pytest.approx(test_report.mae)


def test_apply_variant_rewrites_config(tmp_path, toy_series):
    cfg = _run_cfg(tmp_path, toy_series)
    assert apply_variant(cfg, "use_tg").graph.mode == "temporal_only"
    assert apply_variant(cfg, "use_sg").graph.mode == "spatial_only"
    assert apply_variant(cfg, "no_decouple").model.patterns == 1
    assert apply_variant(cfg, "g3").model.patterns == 3
    with pytest.raises(ConfigError):
        apply_variant(cfg, "nope")
    with pytest.raises(ConfigError, match="use_pg"):
        apply_variant(cfg, "use_pg")  # no graph file configured


def test_build_model_rejects_predefined_mode_without_graph(tmp_path, toy_series):
    cfg = _run_cfg(tmp_path, toy_series)
    series, train_ws, val_ws, test_ws, norm = training.prepare_data(cfg)
    cfg.graph.mode = "predefined"
    with pytest.raises(ConfigError, match="data.graph"):
        training.build_model(cfg, series, norm)


def test_no_decouple_has_single_stream_and_no_gates(tmp_path, toy_series):
    cfg = _run_cfg(tmp_path, toy_series)
    apply_variant(cfg, "no_decouple")
    series, train_ws, val_ws, test_ws, norm = training.prepare_data(cfg)
    model = training.build_model(cfg, series, norm)
    assert len(model.gates) == 0
    assert not any(n.startswith("decouple.") for n in model.parameters())
    hist, _, tod, dow = train_ws.batch([0])
    _, flows = graphs_and_flows(model, hist, tod, dow)
    assert len(flows.flows) == 1


def test_spatial_only_cuts_pool_gradients_from_graph_path(toy_setup):
    series, train_ws, val_ws, test_ws, norm, _ = toy_setup
    model = Forecaster(series.n_nodes, series.steps_per_day, toy_model_config(),
                       toy_graph_config(mode="spatial_only"), normalizer=norm,
                       dtype=np.float64, seed=3)
    hist, targ, tod, dow = train_ws.batch([0, 1])

    # graphs must not respond to pool values in spatial_only mode
    def graphs():
        return graphs_and_flows(model, hist, tod, dow)[0]

    before = [g.data.copy() for g in graphs()]
    model.pools.daily.data = model.pools.daily.data + 0.7
    after = [g.data for g in graphs()]
    for a, b in zip(before, after):
        assert np.array_equal(a, b)

    # but the pools still train through the gating and head paths
    with Tape() as tape:
        pred = model.forward_batch(hist, tod, dow, training=False)
        tape.backward(masked_mae_loss(pred, targ))
    assert np.abs(model.pools.daily.grad).max() > 0
    assert np.abs(model.pools.weekly.grad).max() > 0


def test_all_variants_complete_on_toy_data(tmp_path, toy_series):
    series, _ = toy_series
    edge_path = tmp_path / "edges.csv"
    edge_path.write_text("0,1\n1,2\n2,3\n")
    for variant in ABLATION_VARIANTS:
        cfg = _run_cfg(tmp_path, toy_series, max_epochs=1)
        cfg.data.graph = str(edge_path)
        apply_variant(cfg, variant)
        _, result, test_report = run_training(cfg)
        assert np.isfinite(test_report.mae), variant
        assert len(result.history) == 1, variant


def test_training_and_test_evaluation_run_at_the_training_batch_size(tmp_path, toy_series,
                                                                    monkeypatch):
    cfg = _run_cfg(tmp_path, toy_series, batch_size=8)
    real, seen = training.evaluate, []

    def spy(model, windows, batch_size, **kwargs):
        seen.append(batch_size)
        return real(model, windows, batch_size, **kwargs)

    monkeypatch.setattr(training, "evaluate", spy)
    run_training(cfg)
    assert seen == [8] * (cfg.train.max_epochs + 1)  # one validation pass per epoch, one test pass
