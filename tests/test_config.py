import json

import pytest

from fusecast.config import (GraphConfig, RunConfig, apply_assignment, load_config,
                             preset_path, schema_keys, write_manifest)
from fusecast.errors import ConfigError


def test_defaults_validate():
    cfg = load_config(None)
    assert cfg.model.patterns == 2
    assert cfg.train.learning_rate == 0.004
    assert cfg.train.weight_decay == 1e-5
    assert cfg.train.eps == 1e-8
    assert cfg.train.lr_decay == 0.5
    assert cfg.train.warmup_epochs == 20
    assert cfg.train.curriculum_step == 3
    assert cfg.graph.mode == "fused"
    assert cfg.model.history_steps == 12 and cfg.model.horizon_steps == 12


def test_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("""
# comment line
graph.alpha = 2.5
model.hidden = 16      # trailing comment
train.milestones = 40,70
""")
    cfg = load_config(path, overrides=["model.hidden=8", "train.seed=7"])
    assert cfg.graph.alpha == 2.5
    assert cfg.model.hidden == 8  # override wins over file
    assert cfg.train.milestones == [40, 70]
    assert cfg.train.seed == 7
    assert cfg.overrides == ["model.hidden=8", "train.seed=7"]


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("model.bogus = 1\n")
    with pytest.raises(ConfigError, match="model.bogus"):
        load_config(path)


def test_config_line_without_equals_names_file_and_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nmodel.hidden 16\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2: expected key = value, got 'model.hidden 16'"):
        load_config(path)


def test_boolean_words():
    for raw, value in (("true", True), (" On ", True), ("1", True), ("no", False), ("OFF", False)):
        cfg = load_config(None, overrides=[f"data.directed_graph={raw}"])
        assert cfg.data.directed_graph is value, raw


def test_bad_value_names_key():
    with pytest.raises(ConfigError, match="model.hidden"):
        load_config(None, overrides=["model.hidden=abc"])
    with pytest.raises(ConfigError, match="data.directed_graph.*not a boolean: 'maybe'"):
        load_config(None, overrides=["data.directed_graph=maybe"])


def test_malformed_override():
    with pytest.raises(ConfigError, match="section.key=value"):
        load_config(None, overrides=["model.hidden"])


def test_value_range_validation():
    with pytest.raises(ConfigError, match="gamma"):
        load_config(None, overrides=["model.gamma=1.5"])
    with pytest.raises(ConfigError, match="dropout"):
        load_config(None, overrides=["model.dropout=1.0"])
    with pytest.raises(ConfigError, match="milestones"):
        load_config(None, overrides=["train.milestones=80,50"])
    with pytest.raises(ConfigError, match="graph.mode"):
        load_config(None, overrides=["graph.mode=banana"])
    for item in ("graph.k_spatial=0", "graph.k_temporal=-1", "train.seed=-1", "train.patience=-1",
                 "train.learning_rate=nan", "train.learning_rate=-0.1", "train.eps=0",
                 "train.eps=inf", "train.weight_decay=inf", "train.weight_decay=-1e-5",
                 "train.lr_decay=0", "train.lr_decay=1.5", "train.lr_decay=nan",
                 "train.mask_threshold=-1", "train.mask_threshold=nan", "graph.alpha=nan",
                 "graph.alpha=0", "graph.beta=-inf", "model.gamma=nan", "model.dropout=nan",
                 "train.split=nan,0.5,0.5", "train.split=0.6,0.2,nan", "train.split=0.6,0.2,inf",
                 "train.split=0.6,0.4,0", "train.split=0.5,0.5"):
        with pytest.raises(ConfigError, match=item.split("=")[0]):
            load_config(None, overrides=[item])
    # a zero learning rate is a legal (frozen) run
    assert load_config(None, overrides=["train.learning_rate=0.0"]).train.learning_rate == 0.0


def test_predefined_mode_needs_graph_path():
    with pytest.raises(ConfigError, match="data.graph"):
        load_config(None, overrides=["graph.mode=predefined"])


def test_presets_carry_published_settings():
    expect = {
        "pems03": (32, 12, 12), "pems04": (32, 12, 12),
        "pems07": (12, 12, 12), "pems08": (32, 10, 10),
    }
    for name, (batch, nd, d_time) in expect.items():
        cfg = load_config(preset_path(name))
        assert cfg.train.batch_size == batch, name
        assert cfg.model.node_embed_dim == nd, name
        assert cfg.model.time_embed_dim == d_time, name
        assert cfg.train.learning_rate == 0.004, name
        assert cfg.graph.k_spatial == 10 and cfg.graph.k_temporal == 10, name
        assert cfg.model.patterns == 2, name


def test_unknown_preset():
    with pytest.raises(ConfigError, match="preset"):
        preset_path("pems99")


def test_manifest_echoes_overrides(tmp_path):
    cfg = load_config(None, overrides=["train.seed=5"])
    write_manifest(cfg, tmp_path / "manifest.json")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["overrides"] == ["train.seed=5"]
    assert manifest["train"]["seed"] == 5
    assert set(manifest) == {"model", "graph", "train", "data", "overrides"}


def test_head_dim_default_rule():
    g = GraphConfig()
    assert g.resolve_head_dim(170) == 42   # floor(170/4) with minimum 8
    assert g.resolve_head_dim(883) == 220
    assert g.resolve_head_dim(32) == 8
    assert g.resolve_head_dim(8) == 2      # clamped so heads*dim fits the node count
    g4 = GraphConfig(head_dim=4)
    assert g4.resolve_head_dim(170) == 4   # explicit value wins


def test_graph_invariants_for_node_count():
    with pytest.raises(ConfigError, match="k_spatial"):
        GraphConfig(k_spatial=20).validate_for_nodes(8)
    with pytest.raises(ConfigError, match="graph.k_temporal=9 exceeds node count 8"):
        GraphConfig(k_spatial=2, k_temporal=9).validate_for_nodes(8)
    with pytest.raises(ConfigError, match="head_dim"):
        GraphConfig(k_spatial=2, k_temporal=2, heads=4, head_dim=4).validate_for_nodes(8)


def test_every_schema_key_round_trips_its_default():
    defaults = RunConfig()
    for key in schema_keys():
        section, name = key.split(".")
        default = getattr(getattr(defaults, section), name)
        text = ",".join(map(str, default)) if isinstance(default, list) else str(default)
        cfg = RunConfig()
        apply_assignment(cfg, key, text)
        # repr tells 1 from 1.0 and True, also inside lists
        assert repr(getattr(getattr(cfg, section), name)) == repr(default), key


def test_schema_covers_all_sections():
    keys = schema_keys()
    assert "model.hidden" in keys
    assert "graph.alpha" in keys
    assert "train.batch_size" in keys
    assert "data.series" in keys
