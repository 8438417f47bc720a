import json
import os

import numpy as np
import pytest

from fusecast import checkpoint
from fusecast.data import (Normalizer, TrafficSeries, WindowSet, fit_normalizer,
                           load_predefined_graph, load_series, make_synthetic, save_series,
                           split_and_window)
from fusecast.errors import ConfigError, IngestionError


def _write_series(tmp_path, values, steps_per_day=288, first_dow=0, **meta_extra):
    csv = tmp_path / "series.csv"
    np.savetxt(csv, values, delimiter=",", fmt="%.4f")
    meta = {"steps_per_day": steps_per_day, "first_step_day_of_week": first_dow}
    meta.update(meta_extra)
    csv.with_suffix(".json").write_text(json.dumps(meta))
    return csv


def test_load_series_pems08_shape(tmp_path):
    rng = np.random.default_rng(0)
    values = np.abs(rng.standard_normal((17856, 170)) * 100)
    csv = _write_series(tmp_path, values, nodes=170)
    series = load_series(csv)
    assert series.values.shape == (17856, 170, 1)
    assert series.n_nodes == 170
    assert series.steps_per_day == 288


def test_load_series_toy(tmp_path):
    csv = _write_series(tmp_path, np.arange(48.0).reshape(24, 2), steps_per_day=12)
    series = load_series(csv)
    assert series.values.shape == (24, 2, 1)


def test_load_series_non_numeric_cell_cites_location(tmp_path):
    csv = tmp_path / "bad.csv"
    rows = ["1.0,2.0"] * 10
    rows[4] = "1.0,oops"  # row 5, column 2
    csv.write_text("\n".join(rows) + "\n")
    csv.with_suffix(".json").write_text(json.dumps(
        {"steps_per_day": 288, "first_step_day_of_week": 0}))
    with pytest.raises(IngestionError, match=r"bad\.csv:5: column 2 is not a number: 'oops'"):
        load_series(csv)


def test_load_series_non_finite_value_cites_location(tmp_path):
    csv = tmp_path / "nancsv.csv"
    rows = ["1.0,2.0"] * 6
    rows[2] = "nan,2.0"  # row 3, column 1
    csv.write_text("\n".join(rows) + "\n")
    csv.with_suffix(".json").write_text(json.dumps(
        {"steps_per_day": 288, "first_step_day_of_week": 0}))
    with pytest.raises(IngestionError, match=r"nancsv\.csv:3: column 1 is not a finite float32"):
        load_series(csv)


@pytest.mark.parametrize("value", ["1e39", "-1e39", "inf", "-inf"])
def test_load_series_value_beyond_float32_cites_location(tmp_path, value):
    limit = float(np.finfo(np.float32).max)
    csv = _write_series(tmp_path, np.full((6, 3), limit))  # the float32 maximum itself loads
    assert np.abs(load_series(csv).values).max() == limit
    rows = csv.read_text().splitlines()
    rows[3] = f"1.0,1.0,{value}"  # row 4, column 3
    csv.write_text("\n".join(rows) + "\n")
    with pytest.raises(IngestionError,
                       match=rf"series\.csv:4: column 3 is not a finite float32: '{value}'"):
        load_series(csv)


def test_load_series_empty_file_rejected(tmp_path):
    csv = _write_series(tmp_path, np.ones((2, 2)))
    for text in ("", "# sensors a,b\n\n", " \n"):  # and no UserWarning, which the tests raise
        csv.write_text(text)
        with pytest.raises(IngestionError, match="no data rows"):
            load_series(csv)


def test_load_series_missing_metadata_key(tmp_path):
    csv = tmp_path / "series.csv"
    np.savetxt(csv, np.ones((4, 2)), delimiter=",")
    csv.with_suffix(".json").write_text(json.dumps({"steps_per_day": 288}))
    with pytest.raises(IngestionError, match="first_step_day_of_week"):
        load_series(csv)


@pytest.mark.parametrize("sidecar, key", [
    ("\xff{}", "1: not valid UTF-8"),
    ("{]", "invalid JSON"),
    ("5", "JSON object"),
    ('{"steps_per_day": "abc", "first_step_day_of_week": 0}', "steps_per_day"),
    ('{"steps_per_day": null, "first_step_day_of_week": 0}', "steps_per_day"),
    ('{"steps_per_day": 288, "first_step_day_of_week": "mon"}', "first_step_day_of_week"),
    ('{"steps_per_day": 288, "first_step_day_of_week": 0, "nodes": "x"}', "nodes"),
    ('{"steps_per_day": 0, "first_step_day_of_week": 0}', "steps_per_day"),
    ('{"steps_per_day": -3, "first_step_day_of_week": 0}', "steps_per_day"),
    ('{"steps_per_day": 288, "first_step_day_of_week": 7}', "first_step_day_of_week"),
    ('{"steps_per_day": 47.9, "first_step_day_of_week": 0}', "steps_per_day"),
    ('{"steps_per_day": 288, "first_step_day_of_week": 2.5}', "first_step_day_of_week"),
    ('{"steps_per_day": true, "first_step_day_of_week": 0}', "steps_per_day"),
])
def test_load_series_malformed_sidecar_names_file_and_key(tmp_path, sidecar, key):
    csv = tmp_path / "series.csv"
    np.savetxt(csv, np.ones((4, 2)), delimiter=",")
    csv.with_suffix(".json").write_bytes(sidecar.encode("latin-1"))
    with pytest.raises(IngestionError, match=f"series.json.*{key}"):
        load_series(csv)


def test_load_series_accepts_integral_float_sidecar_values(tmp_path):
    csv = _write_series(tmp_path, np.ones((4, 2)), steps_per_day=288.0, first_dow=2.0)
    series = load_series(csv)
    assert (series.steps_per_day, series.first_step_day_of_week) == (288, 2)


def test_load_series_non_utf8_row_cites_location(tmp_path):
    csv = _write_series(tmp_path, np.ones((3, 3)))
    csv.write_bytes(b"1,2,3\n4,\xff,6\n7,8,9\n")
    with pytest.raises(IngestionError, match=r"series\.csv:2: not valid UTF-8"):
        load_series(csv)


@pytest.mark.parametrize("bad_row, sidecar", [(False, False), (True, False), (False, True)],
                         ids=["clean", "bad-row", "sidecar"])
def test_load_series_skips_a_byte_order_mark(tmp_path, bad_row, sidecar):
    values = np.array([[109.32, 2.5], [3.0, 4.25], [5.5, 6.0]])
    csv = _write_series(tmp_path, values, name="bom")
    plain = load_series(csv)
    text = csv.read_text(encoding="utf-8")
    csv.write_text("\ufeff" + text, encoding="utf-8")
    if sidecar:
        meta = csv.with_suffix(".json")
        meta.write_text("\ufeff" + meta.read_text(encoding="utf-8"), encoding="utf-8")
    series = load_series(csv)
    assert series.values.tobytes() == plain.values.tobytes()
    assert (series.name, series.steps_per_day) == (plain.name, plain.steps_per_day) == ("bom", 288)
    if bad_row:  # the slow scan's row and column count from the BOM'd first row too
        csv.write_text("\ufeff" + text.replace("6.0000", "oops"), encoding="utf-8")
        with pytest.raises(IngestionError, match=r"series\.csv:3: column 2 is not a number: 'oops'"):
            load_series(csv)


CELLS = ["1_0", "\uff14", "\u0663", " 4", "\t4", "1e3", "+.5", "nan", "-Infinity", "0x10", "1d3", "",
         ".", "1.", "e3", "1e+", "++1", "1 2", "infinit", "iNfInItY", "\x1c4 ", "\u30004", "\ufeff4",
         "nan(1)", "\u0131nf"]


@pytest.mark.parametrize("cell", CELLS, ids=[ascii(cell) for cell in CELLS])
def test_load_series_accepts_a_cell_exactly_when_loadtxt_does(tmp_path, cell):
    csv = _write_series(tmp_path, np.ones((2, 2)))
    csv.write_text(f"# sensors a,b\n1,2\n3,{cell}\n", encoding="utf-8")
    try:
        expected = np.loadtxt(csv, delimiter=",", ndmin=2, encoding="utf-8")
    except ValueError:
        expected = None
    if expected is None:
        with pytest.raises(IngestionError, match=r"series\.csv:3: column 2 is not a number"):
            load_series(csv)
    elif not np.isfinite(expected).all():
        with pytest.raises(IngestionError, match=r"series\.csv:3: column 2 is not a finite float32"):
            load_series(csv)
    else:
        assert load_series(csv).values[:, :, 0].tobytes() == expected.tobytes()
    # the scan reads what the fast path reads: a whitespace line sends the file to it
    csv.write_text(f"# sensors a,b\n1,2\n \n3,{cell}\n", encoding="utf-8")
    if expected is not None and np.isfinite(expected).all():
        assert load_series(csv).values[:, :, 0].tobytes() == expected.tobytes()
    else:
        with pytest.raises(IngestionError, match=r"series\.csv:4: column 2 is not a"):
            load_series(csv)


def test_load_series_reads_a_file_with_whitespace_lines_to_the_same_bits(tmp_path):
    series, _ = make_synthetic(5, 2, seed=4, coupling=0.4, steps_per_day=12)
    save_series(series, tmp_path / "s.csv")
    plain = load_series(tmp_path / "s.csv").values
    rows = (tmp_path / "s.csv").read_text().splitlines()
    rows[3:3] = ["  ", "\t# a comment after a tab"]  # np.loadtxt rejects both lines
    (tmp_path / "s.csv").write_text("\n".join(rows) + "\n")
    assert load_series(tmp_path / "s.csv").values.tobytes() == plain.tobytes()


def test_load_series_node_count_mismatch(tmp_path):
    csv = _write_series(tmp_path, np.ones((4, 2)), nodes=3)
    with pytest.raises(IngestionError, match="3 columns"):
        load_series(csv)


def _series(total, n=2, spd=10, first_dow=3):
    values = np.arange(total * n, dtype=float).reshape(total, n) + 1.0
    return TrafficSeries(values=values[:, :, None], steps_per_day=spd,
                         first_step_day_of_week=first_dow)


def test_window_counts_match_formula():
    # train split of 60 steps with Th = Tf = 12 -> 60 - 24 + 1 = 37 windows
    train, val, test = split_and_window(_series(150), 12, 12, (0.4, 0.3, 0.3))
    assert train.split_length == 60
    assert len(train) == 37
    assert len(val) == 45 - 24 + 1
    assert len(test) == 45 - 24 + 1


def test_any_split_too_short_rejected():
    # T=100 at 6:2:2 leaves 20-step val/test splits, too short for 12+12
    with pytest.raises(ConfigError, match="too short"):
        split_and_window(_series(100), 12, 12, (0.6, 0.2, 0.2))
    # Th=Tf=1 on T=3 leaves 1-step splits, too short for one 1+1 window
    with pytest.raises(ConfigError, match="too short"):
        split_and_window(_series(3), 1, 1, (1 / 3, 1 / 3, 1 / 3))


def test_bad_ratios_rejected():
    with pytest.raises(ConfigError, match="ratios"):
        split_and_window(_series(100), 12, 12, (0.7, 0.2, 0.2))
    for ratios in ((float("nan"), 0.5, 0.5), (0.6, 0.2, float("nan")),
                   (0.6, 0.2, float("inf")), (0.6, 0.6, -0.2)):
        with pytest.raises(ConfigError, match="ratios"):
            split_and_window(_series(100), 12, 12, ratios)


def test_windows_never_straddle_split_boundaries():
    train, val, test = split_and_window(_series(200), 12, 12, (0.6, 0.2, 0.2))
    _, last_target, _, _ = train.batch([len(train) - 1])
    # the last training target ends exactly at the split boundary
    boundary_value = train.series.values[train.split_length - 1]
    assert np.array_equal(last_target[0, -1], boundary_value)
    assert val.split_start == train.split_length


def test_chronological_integrity():
    train, val, test = split_and_window(_series(200), 12, 12, (0.6, 0.2, 0.2))
    train_hist_max = train.split_start + (len(train) - 1) + 12 - 1
    test_hist_min = test.split_start
    assert train_hist_max < test_hist_min


def test_window_reconstruction_matches_raw_slice():
    series = _series(80)
    train, _, _ = split_and_window(series, 7, 5, (0.6, 0.2, 0.2))
    hist, targ, _, _ = train.batch([9])
    stitched = np.concatenate([hist[0], targ[0]], axis=0)
    assert np.array_equal(stitched, series.values[9:9 + 12])


def test_tod_index_advances_modulo_steps_per_day():
    series = _series(200, spd=10, first_dow=3)
    train, _, _ = split_and_window(series, 12, 12, (0.6, 0.2, 0.2))
    _, _, tod, dow = train.batch([5])
    assert np.array_equal(tod[0], (5 + np.arange(12)) % 10)
    assert np.array_equal(np.diff(tod[0]) % 10, np.ones(11))
    assert np.array_equal(dow[0], (3 + (5 + np.arange(12)) // 10) % 7)


def test_normalizer_matches_sample_moments():
    rng = np.random.default_rng(4)
    values = 50.0 + 3.0 * rng.standard_normal((200, 3))
    series = TrafficSeries(values=values[:, :, None], steps_per_day=20,
                           first_step_day_of_week=0)
    train, _, _ = split_and_window(series, 6, 4, (0.6, 0.2, 0.2))
    norm = fit_normalizer(train)
    # oracle: moments of the union of training history positions
    covered = series.values[:train.split_length - 4]
    assert norm.mean == pytest.approx(covered.mean(), abs=1e-9)
    assert norm.std == pytest.approx(covered.std(), abs=1e-9)


def test_normalizer_roundtrip():
    norm = Normalizer(mean=12.5, std=3.25)
    x = np.linspace(-40, 90, 23)
    assert np.abs(norm.invert(norm.apply(x)) - x).max() < 1e-6


def test_normalizer_rejects_constant_series():
    series = TrafficSeries(values=np.full((100, 2, 1), 7.0), steps_per_day=10,
                           first_step_day_of_week=0)
    train, _, _ = split_and_window(series, 5, 5, (0.6, 0.2, 0.2))
    with pytest.raises(ConfigError, match="std"):
        fit_normalizer(train)


def test_normalizer_is_fit_on_train_only():
    # make the validation region wildly different; stats must not move
    values = np.ones((100, 1)) * 10.0
    values[60:] = 1000.0
    series = TrafficSeries(values=values[:, :, None], steps_per_day=10,
                           first_step_day_of_week=0)
    values[:60] += np.linspace(0, 1, 60)[:, None]  # non-degenerate train part
    train, _, _ = split_and_window(series, 5, 5, (0.6, 0.2, 0.2))
    norm = fit_normalizer(train)
    assert norm.mean < 20.0


def test_synthetic_uncoupled_noiseless_is_daily_periodic():
    series, _ = make_synthetic(4, 3, seed=0, coupling=0.0, steps_per_day=16,
                               noise_std=0.0, weekly_amplitude=0.0)
    v = series.values[:, :, 0]
    assert np.abs(v[16:] - v[:-16]).max() < 1e-9


def test_synthetic_fixed_seed_is_bit_identical():
    a, _ = make_synthetic(3, 2, seed=42, coupling=0.3, steps_per_day=12)
    b, _ = make_synthetic(3, 2, seed=42, coupling=0.3, steps_per_day=12)
    assert a.values.tobytes() == b.values.tobytes()


def test_synthetic_coupling_shows_up_at_lag_one():
    series, _ = make_synthetic(4, 10, seed=3, coupling=0.8, steps_per_day=48,
                               noise_std=0.5)
    x = series.values[:, :, 0]
    a = x[:, 0] - x[:, 0].mean()
    b = x[:, 1] - x[:, 1].mean()
    lag0 = float(np.corrcoef(a, b)[0, 1])
    lag1 = float(np.corrcoef(a[:-1], b[1:])[0, 1])  # node 1 follows node 0
    assert lag1 > lag0


def test_synthetic_validates_arguments():
    with pytest.raises(ConfigError):
        make_synthetic(1, 5, seed=0, coupling=0.0)
    with pytest.raises(ConfigError):
        make_synthetic(4, 1, seed=0, coupling=0.0)
    for kwargs in ({"seed": -1}, {"steps_per_day": 0}, {"coupling": float("nan")},
                   {"coupling": 1.5}, {"coupling": -0.1}, {"noise_std": -1.0},
                   {"noise_std": float("inf")}, {"steps": 2 * 288 + 1}):
        with pytest.raises(ConfigError):
            make_synthetic(4, 2, **{"seed": 0, "coupling": 0.5, **kwargs})


@pytest.mark.parametrize("steps", [-5, 0, 21, 2.5])
def test_synthetic_steps_outside_one_to_the_total_are_refused(steps):
    # 2 days of 10 steps: a negative count used to cut from the end, 0 to
    # give an empty series and 2.5 to fail in numpy's slicing
    with pytest.raises(ConfigError, match=rf"requested {steps} steps; 2 days yield 1 to 20"):
        make_synthetic(4, 2, seed=0, coupling=0.5, steps_per_day=10, steps=steps)


@pytest.mark.parametrize("steps", [1, 20])
def test_synthetic_steps_keep_the_first_steps(steps):
    full, _ = make_synthetic(4, 2, seed=0, coupling=0.5, steps_per_day=10)
    cut, _ = make_synthetic(4, 2, seed=0, coupling=0.5, steps_per_day=10, steps=steps)
    assert cut.values.tobytes() == full.values[:steps].tobytes()


def test_synthetic_returns_generation_parameters():
    _, params = make_synthetic(3, 2, seed=9, coupling=0.25, steps_per_day=12)
    assert params["coupling"] == 0.25
    assert len(params["phase"]) == 3


def test_series_roundtrip_through_csv(tmp_path):
    series, _ = make_synthetic(3, 2, seed=1, coupling=0.4, steps_per_day=12)
    save_series(series, tmp_path / "s.csv")
    np.savetxt(tmp_path / "ref.csv", series.values[:, :, 0], delimiter=",", fmt="%.6f")
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    back = load_series(tmp_path / "s.csv")
    assert back.values.shape == series.values.shape
    assert np.abs(back.values - series.values).max() < 1e-5  # %.6f rounding


@pytest.mark.parametrize("failure", ["content", "rename"])
def test_save_series_failing_at_the_sidecar_leaves_the_earlier_pair(tmp_path, monkeypatch,
                                                                    failure):
    csv = tmp_path / "s.csv"
    save_series(make_synthetic(3, 2, seed=1, coupling=0.4, steps_per_day=12)[0], csv)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    series, _ = make_synthetic(3, 2, seed=2, coupling=0.4, steps_per_day=12)
    if failure == "content":
        series.name = object()  # json.dumps raises TypeError after the CSV rows are written
        expected = TypeError
    else:  # the sidecar's move over its target fails, as on a full disk
        real_replace = os.replace

        def replace(src, dst):
            if str(dst).endswith(".json"):
                raise OSError(28, "No space left on device")
            real_replace(src, dst)

        monkeypatch.setattr(checkpoint.os, "replace", replace)
        expected = OSError
    with pytest.raises(expected):
        save_series(series, csv)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_predefined_graph_edges_and_mirrors(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("0,1\n1,2\n")
    g = load_predefined_graph(path, 3)
    expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    assert np.array_equal(g, expected)


def test_predefined_graph_directed_and_weighted(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("from,to,weight\n0,1,2.5\n")
    g = load_predefined_graph(path, 2, directed=True)
    assert g[0, 1] == 2.5
    assert g[1, 0] == 0.0


def test_predefined_graph_empty_warns(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("")
    with pytest.warns(UserWarning, match="no edges"):
        g = load_predefined_graph(path, 3)
    assert not g.any()


def test_predefined_graph_out_of_range_cites_row(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("0,1\n999,0\n")
    with pytest.raises(IngestionError, match=r"edges\.csv:2: node \(999, 0\) outside 0\.\.169"):
        load_predefined_graph(path, 170)


def test_predefined_graph_non_utf8_row_cites_location(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_bytes(b"0,1\n1,\xff\n")
    with pytest.raises(IngestionError, match=r"edges\.csv:2: not valid UTF-8"):
        load_predefined_graph(path, 3)


@pytest.mark.parametrize("text", ["\ufeff0,1\n1,2\n", "\ufefffrom,to\n0,1\n1,2\n",
                                  "\n\nfrom,to\n0,1\n1,2\n", "\ufeff\n  \nfrom,to\n0,1\n1,2\n",
                                  "from,to\n0,1\n# ring\n1,2\n", "0,1 # ring\n1,2\n",
                                  "# ring\n\n0,1\n  # after blanks\n1,2 # last\n"],
                         ids=["bom", "bom-header", "blank-lines-header", "bom-blank-lines-header",
                              "comment-row", "first-row-comment", "comments-and-blanks"])
def test_predefined_graph_header_is_the_first_non_blank_row_past_a_bom(tmp_path, text):
    path = tmp_path / "edges.csv"
    path.write_text(text, encoding="utf-8")
    expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    assert np.array_equal(load_predefined_graph(path, 3), expected)


def test_predefined_graph_header_after_the_first_row_is_rejected(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("0,1\nfrom,to\n1,2\n")
    with pytest.raises(IngestionError, match=r"edges\.csv:2: non-integer node id: 'from,to'"):
        load_predefined_graph(path, 3)


@pytest.mark.parametrize("row", ["0,1_0", "0,\u0663", "\uff10,1", "0,1.0", "0,"])
@pytest.mark.parametrize("first", [True, False], ids=["first-row", "second-row"])
def test_predefined_graph_node_ids_are_ascii_integers(tmp_path, row, first):
    path = tmp_path / "edges.csv"
    path.write_text(f"{row}\n" if first else f"1,2\n{row}\n", encoding="utf-8")
    line = 1 if first else 2
    with pytest.raises(IngestionError, match=rf"edges\.csv:{line}: non-integer node id"):
        load_predefined_graph(path, 12)


@pytest.mark.parametrize("weight", ["nan", "inf", "1e39", "-1", "1_5", "\uff15"])
def test_predefined_graph_non_finite_weight_cites_row(tmp_path, weight):
    path = tmp_path / "edges.csv"
    path.write_text(f"0,1,1.0\n0,2,{weight}\n", encoding="utf-8")
    with pytest.raises(IngestionError, match=rf"edges\.csv:2: weight .*'{weight}'"):
        load_predefined_graph(path, 3)


def test_predefined_graph_drops_self_loops_with_warning(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("1,1\n0,1\n")
    with pytest.warns(UserWarning, match="self-loop"):
        g = load_predefined_graph(path, 2)
    assert g[1, 1] == 0.0
    assert g[0, 1] == 1.0


def test_batch_materialization_matches_single_windows():
    series = _series(90, n=3, spd=9)
    train, _, _ = split_and_window(series, 6, 3, (0.6, 0.2, 0.2))
    pair = train.batch([2, 7])
    single = train.batch([7])
    for batched, alone in zip(pair, single):
        assert np.array_equal(batched[1], alone[0])
