from dataclasses import fields

import pytest

from sasoftmax.config import (
    ExperimentConfig,
    apply_overrides,
    load_config_file,
    save_config_file,
)
from sasoftmax.data import SynthConfig
from sasoftmax.errors import ContractViolation
from sasoftmax.experiments import (
    ABLATION_VARIANTS,
    DESK_PROTOCOL_OVERRIDES,
    desk_protocol,
    run_sweep,
    summarize,
)
from sasoftmax.trainer import TrainConfig


class TestExperimentConfig:
    def test_defaults_derive_valid_subconfigs(self):
        cfg = ExperimentConfig()
        synth = cfg.synth_config()
        assert synth.num_identities == 60
        assert synth.input_dim == 32
        assert isinstance(cfg, TrainConfig)
        assert cfg.hidden_dims == (64,)
        assert cfg.milestones == (40, 80)
        assert cfg.embed_dim == 16
        assert cfg.seed == 1

    def test_synth_config_carries_every_field(self):
        source = {"seed": "data_seed"}
        changed = {}
        for f in fields(SynthConfig):
            default = f.default
            if isinstance(default, bool):
                value = not default
            elif isinstance(default, int):
                value = default + 3
            else:
                value = default + 0.5
            changed[source.get(f.name, f.name)] = value
        synth = ExperimentConfig(**changed).synth_config()
        for f in fields(SynthConfig):
            value = getattr(synth, f.name)
            assert value == changed[source.get(f.name, f.name)]
            assert value != f.default

    def test_seed_list(self):
        assert ExperimentConfig(seeds="4,5,6").seed_list() == [4, 5, 6]

    def test_empty_hidden_dims_means_linear(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("hidden_dims =\nmilestones = 40\n")
        cfg = load_config_file(path)
        assert cfg.hidden_dims == ()
        assert cfg.milestones == (40,)


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(alpha=0.5, hidden_dims=(32, 16), milestones=(), shared_offset=True)
        path = tmp_path / "config.txt"
        save_config_file(cfg, path)
        assert load_config_file(path) == cfg

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\n\nalpha = 0.3  # trailing\nepochs=7\n")
        cfg = load_config_file(path)
        assert cfg.alpha == 0.3
        assert cfg.epochs == 7

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("no_such_key = 1\n")
        with pytest.raises(ContractViolation):
            load_config_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("alpha 0.3\n")
        with pytest.raises(ContractViolation):
            load_config_file(path)

    def test_bool_parsing(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("shared_offset = true\nsquared_ast = 0\n")
        cfg = load_config_file(path)
        assert cfg.shared_offset is True
        assert cfg.squared_ast is False
        path.write_text("shared_offset = maybe\n")
        with pytest.raises(ContractViolation):
            load_config_file(path)

    def test_apply_overrides(self):
        cfg = apply_overrides(ExperimentConfig(), {"alpha": 0.2})
        assert cfg.alpha == 0.2
        with pytest.raises(ContractViolation):
            apply_overrides(cfg, {"bogus": 1})


class TestExperimentHelpers:
    def test_desk_protocol_values(self):
        cfg = desk_protocol()
        for key, value in DESK_PROTOCOL_OVERRIDES.items():
            assert getattr(cfg, key) == value
        # pinned protocol facts: 60 identities split 40/20, 3 seeds, 100 epochs
        assert cfg.num_identities == 60
        assert round(cfg.train_fraction * cfg.num_identities) == 40
        assert cfg.seed_list() == [1, 2, 3]
        assert cfg.epochs == 100

    def test_desk_protocol_override(self):
        assert desk_protocol(epochs=5).epochs == 5

    def test_ablation_variant_list(self):
        assert ABLATION_VARIANTS == ("SOFTMAX", "SAS", "SAS_FM", "SAS_FM_AST", "SAS_FM_WM")

    def test_sweep_validation(self):
        cfg = ExperimentConfig()
        with pytest.raises(ContractViolation):
            run_sweep(cfg, "nonsense", [1.0])
        with pytest.raises(ContractViolation):
            run_sweep(cfg, "alpha", [])

    def test_summarize_mean_std(self):
        rows = [
            {"variant": "A", "mean_map": 0.4},
            {"variant": "A", "mean_map": 0.6},
            {"variant": "B", "mean_map": 1.0},
        ]
        summ = summarize(rows, metrics=["mean_map"])
        by = {r["variant"]: r for r in summ}
        assert by["A"]["mean_map_mean"] == pytest.approx(0.5)
        assert by["A"]["mean_map_std"] == pytest.approx(0.1)
        assert by["A"]["num_seeds"] == 2
        assert by["B"]["mean_map_mean"] == pytest.approx(1.0)
        # first-seen order preserved
        assert [r["variant"] for r in summ] == ["A", "B"]
