from dataclasses import fields, replace

import math

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sasoftmax.config import ExperimentConfig, load_config_file, save_config_file
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

KEYS = {f.name: f.default for f in fields(ExperimentConfig)}


def load(path, base=None):
    """`path` over `base` (the defaults) with every key readable."""
    return replace(base or ExperimentConfig(), **load_config_file(path, KEYS))


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

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(alpha=1.5), "alpha .* got 1.5"),
            (dict(beta=-0.5), "beta .* got -0.5"),
            (dict(base_lr=0.0), "base_lr: learning rate .* got 0.0"),
            (dict(milestones=(80, 40)), "milestones .* got \\(80, 40\\)"),
            (dict(embed_dim=0), "embed_dim .* got 0"),
            (dict(hidden_dims=(32, 0)), "hidden_dims .* got \\(32, 0\\)"),
            # every float field must be finite, the data-generation ones included
            (dict(modality_gap=float("inf")), "modality_gap must be finite, got inf"),
            (dict(noise_sigma=float("nan")), "noise_sigma must be finite, got nan"),
            (dict(train_fraction=float("-inf")), "train_fraction must be finite, got -inf"),
            (dict(am_margin=-0.2), "am_margin must be non-negative, got -0.2"),
            (dict(am_scale=0.0), "am_scale must be positive, got 0.0"),
            (dict(circle_gamma=0.0), "circle_gamma must be positive, got 0.0"),
            # a negative seed would reach np.random.default_rng
            (dict(seed=-1), "seed must be non-negative, got -1"),
            (dict(data_seed=-1), "data_seed must be non-negative, got -1"),
            (dict(split_seed=-3), "split_seed must be non-negative, got -3"),
            (dict(seeds="1,-2"), "seeds must be non-negative, got -2"),
        ],
    )
    def test_bad_training_value_rejected_when_built(self, bad, message):
        with pytest.raises(ContractViolation, match=message):
            ExperimentConfig(**bad)

    def test_bad_value_in_a_config_file_rejected_when_loaded(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("embed_dim = 0\n")
        with pytest.raises(ContractViolation, match="embed_dim .* got 0"):
            load(path)

    def test_seed_list(self):
        assert ExperimentConfig(seeds="4,5,6").seed_list() == [4, 5, 6]

    def test_empty_hidden_dims_means_linear(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("hidden_dims =\nmilestones = 40\n")
        cfg = load(path)
        assert cfg.hidden_dims == ()
        assert cfg.milestones == (40,)


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(alpha=0.5, hidden_dims=(32, 16), milestones=(), shared_offset=True)
        path = tmp_path / "config.txt"
        save_config_file(cfg, path, KEYS)
        assert load(path) == cfg

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\n\nalpha = 0.3  # trailing\nepochs=7\n")
        cfg = load(path)
        assert cfg.alpha == 0.3
        assert cfg.epochs == 7

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("no_such_key = 1\n")
        with pytest.raises(ContractViolation):
            load(path)

    def test_key_not_read_rejected_by_its_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("alpha = 0.3\n\nseeds = 1\n")
        with pytest.raises(ContractViolation, match="c.txt:3: unknown key 'seeds' for this command$"):
            load_config_file(path, {"alpha": 0.7})
        path.write_text("alpha = 0.3\n")
        assert load_config_file(path, {"alpha": 0.7}) == {"alpha": 0.3}

    def test_saves_only_the_given_keys_sorted(self, tmp_path):
        path = tmp_path / "config.txt"
        save_config_file(ExperimentConfig(hidden_dims=(3, 2)), path, ["seeds", "hidden_dims"])
        assert path.read_text() == "hidden_dims = 3,2\nseeds = 1,2,3\n"

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("alpha 0.3\n")
        with pytest.raises(ContractViolation):
            load(path)

    def test_bool_parsing(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("shared_offset = true\n")
        assert load(path).shared_offset is True
        path.write_text("shared_offset = 0\n")
        assert load(path, ExperimentConfig(shared_offset=True)).shared_offset is False
        path.write_text("shared_offset = maybe\n")
        with pytest.raises(ContractViolation):
            load(path)


_CONFIG_VALUES = st.one_of(
    st.sampled_from(
        ["nan", "inf", "-inf", "1e999", "0", "-1", "0.5", "", "1,2", "80,40", "true", "maybe",
         "SAS_FM", "both", "9" * 5000]
    ),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-5, 200).map(str),
    st.text(max_size=8),
)
_CONFIG_LINES = st.one_of(
    st.tuples(
        st.sampled_from([f.name for f in fields(ExperimentConfig)] + ["squared_ast"]),
        _CONFIG_VALUES,
    ).map(" = ".join),
    st.text(max_size=20),
)
_CONFIG_FILES = st.one_of(
    st.lists(_CONFIG_LINES, max_size=6).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=64),
)


class TestLoadConfigFileFuzz:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_CONFIG_FILES)
    @example(b"modality_gap = inf\n")
    @example(b"noise_sigma = nan\n")
    def test_valid_config_or_contract_violation(self, tmp_path_factory, data):
        """Any bytes give an ExperimentConfig whose floats are all finite,
        or a ContractViolation, never another exception."""
        path = tmp_path_factory.getbasetemp() / "fuzz.txt"
        path.write_bytes(data)
        try:
            cfg = load(path)
        except ContractViolation:
            return
        assert isinstance(cfg, ExperimentConfig)
        for f in fields(cfg):
            value = getattr(cfg, f.name)
            assert not isinstance(value, float) or math.isfinite(value), f.name


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
