import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sasoftmax import trainer
from sasoftmax.core import ModalityPrototypeMatrix
from sasoftmax.data import SynthConfig, generate_synthetic
from sasoftmax.encoder import SGDState, encoder_backward, encoder_forward, sgd_step
from sasoftmax.errors import ContractViolation, DegenerateNormError, NumericError
from sasoftmax.losses import LossWorkspace, combined_loss
from sasoftmax.trainer import (
    TRAINLOG_FIELDS,
    TrainConfig,
    batch_schedule,
    init_train_state,
    train,
    train_step,
)


def tiny_dataset():
    return generate_synthetic(
        SynthConfig(
            num_identities=8,
            samples_per_identity_per_modality=4,
            input_dim=4,
            modality_gap=1.2,
            noise_sigma=0.25,
            seed=5,
        )
    )


def tiny_config(**kw):
    base = dict(
        variant="SAS_FM_AST",
        epochs=3,
        batches_per_epoch=4,
        p=4,
        k=2,
        hidden_dims=(6,),
        embed_dim=4,
        base_lr=0.05,
        milestones=(2,),
        seed=1,
    )
    base.update(kw)
    return TrainConfig(**base)


def snapshot(state):
    return (
        [w.copy() for w in state.params.weights],
        [b.copy() for b in state.params.biases],
        state.modality_prototypes.W.copy(),
        state.identity_prototypes.W.copy(),
    )


class TestConfig:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ContractViolation):
            TrainConfig(variant="NOPE")

    def test_variant_loss_config_mapping(self):
        assert tiny_config(variant="SOFTMAX").loss_config().alpha == 0.0
        fm = tiny_config(variant="SAS_FM").loss_config()
        assert fm.use_feature_mask and not fm.use_weight_mask and fm.beta == 0.0
        ast = tiny_config(variant="SAS_FM_AST", beta=0.5).loss_config()
        assert ast.use_feature_mask and ast.beta == 0.5
        wm = tiny_config(variant="SAS_FM_WM").loss_config()
        assert wm.use_feature_mask and wm.use_weight_mask

    def test_ast_variant_requires_positive_beta(self):
        with pytest.raises(ContractViolation):
            tiny_config(variant="SAS_FM_AST", beta=0.0).loss_config()

    @pytest.mark.parametrize("pk", [dict(p=0), dict(k=0), dict(p=-1, k=-1)])
    def test_non_positive_p_or_k_rejected(self, pk):
        with pytest.raises(ContractViolation, match="P and K must be positive"):
            tiny_config(**pk)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(alpha=1.5), "alpha must lie in \\[0, 1\\], got 1.5"),
            (dict(alpha=-0.1), "alpha .* got -0.1"),
            (dict(beta=-1.0), "beta must be non-negative, got -1.0"),
            (dict(beta=float("nan")), "beta .* got nan"),
            (dict(base_lr=0.0), "base_lr: learning rate must be positive, got 0.0"),
            (dict(base_lr=-0.5), "base_lr: .* got -0.5"),
            (dict(milestones=(80, 40)), "milestones must be ascending, got \\(80, 40\\)"),
            (dict(embed_dim=0), "embed_dim must be positive, got 0"),
            (dict(hidden_dims=(6, 0)), "hidden_dims must all be positive, got \\(6, 0\\)"),
            (dict(hidden_dims=(-3,)), "hidden_dims .* got \\(-3,\\)"),
            (dict(am_scale=float("inf")), "am_scale must be finite, got inf"),
            (dict(circle_margin=float("nan")), "circle_margin must be finite, got nan"),
            (dict(am_margin=-0.2), "am_margin must be non-negative, got -0.2"),
            (dict(circle_gamma=-1.0), "circle_gamma must be positive, got -1.0"),
            (dict(seed=-1), "seed must be non-negative, got -1"),
            (dict(lr_factor=0.0), "lr_factor must be positive, got 0.0"),
            (dict(lr_factor=-0.1), "lr_factor must be positive, got -0.1"),
            (dict(lr_factor=1e-200, milestones=(1, 2)), "learning rate 0.0 is not positive"),
            (dict(lr_factor=1e200, milestones=(1, 2)), "learning rate inf is not positive"),
        ],
    )
    def test_bad_value_rejected_when_built(self, bad, message):
        with pytest.raises(ContractViolation, match=message):
            tiny_config(**bad)

    def test_boundary_values_accepted(self):
        tiny_config(alpha=0.0, beta=0.0, milestones=(), hidden_dims=(), seed=0)
        tiny_config(alpha=1.0, milestones=(3, 3))
        # milestones the run never reaches do not scale its rate
        tiny_config(lr_factor=1e-200, milestones=(2, 3))

    def test_head_only_variants_have_no_loss_config(self):
        assert tiny_config(variant="AM_SOFTMAX").loss_config() is None
        assert tiny_config(variant="CIRCLE").loss_config() is None


class TestRouting:
    def test_softmax_leaves_modality_prototypes_untouched(self):
        ds = tiny_dataset()
        cfg = tiny_config(variant="SOFTMAX")
        state = init_train_state(ds, cfg)
        before = state.modality_prototypes.W.copy()
        train_step(state, ds, np.arange(16), cfg, lr=0.05)
        np.testing.assert_array_equal(state.modality_prototypes.W, before)

    def test_pure_sas_leaves_identity_head_untouched(self):
        ds = tiny_dataset()
        cfg = tiny_config(variant="SAS", alpha=1.0)
        state = init_train_state(ds, cfg)
        before = state.identity_prototypes.W.copy()
        train_step(state, ds, np.arange(16), cfg, lr=0.05)
        np.testing.assert_array_equal(state.identity_prototypes.W, before)

    def test_am_and_circle_leave_modality_prototypes_untouched(self):
        ds = tiny_dataset()
        for variant in ("AM_SOFTMAX", "CIRCLE"):
            cfg = tiny_config(variant=variant)
            state = init_train_state(ds, cfg)
            before = state.modality_prototypes.W.copy()
            train_step(state, ds, np.arange(16), cfg, lr=0.05)
            np.testing.assert_array_equal(state.modality_prototypes.W, before)


class TestStepSemantics:
    def test_composition_oracle(self):
        """One train_step equals the hand-composed sequence: prototype SGD
        step from the shared forward pass, then encoder/identity SGD steps
        computed against the pre-step prototype snapshot."""
        ds = tiny_dataset()
        cfg = tiny_config(variant="SAS_FM_AST", alpha=0.7, beta=1.0)
        idx = np.arange(16)
        lr = 0.05

        state = init_train_state(ds, cfg)
        train_step(state, ds, idx, cfg, lr)

        ref = init_train_state(ds, cfg)
        x = ds.features[idx]
        ids = ds.identities[idx]
        mods = ds.modalities[idx]
        emb, cache = encoder_forward(ref.params, x)
        loss_cfg = cfg.loss_config()
        pre = ref.modality_prototypes.W.copy()
        res1 = combined_loss(
            emb, ref.modality_prototypes, ref.identity_prototypes, ids, mods, loss_cfg
        )
        sgd_step(
            SGDState([ref.modality_prototypes.W]),
            [res1.grad_modality_prototypes],
            lr,
            cfg.momentum,
            cfg.weight_decay,
        )
        res2 = combined_loss(
            emb,
            ModalityPrototypeMatrix(pre),
            ref.identity_prototypes,
            ids,
            mods,
            loss_cfg,
        )
        gw, gb = encoder_backward(ref.params, cache, res2.grad_embeddings)
        sgd_step(
            SGDState(ref.params.weights + ref.params.biases),
            gw + gb,
            lr,
            cfg.momentum,
            cfg.weight_decay,
        )
        sgd_step(
            SGDState([ref.identity_prototypes.W]),
            [res2.grad_identity_prototypes],
            lr,
            cfg.momentum,
            cfg.weight_decay,
        )
        for a, b in zip(
            state.params.weights + state.params.biases,
            ref.params.weights + ref.params.biases,
        ):
            np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(
            state.modality_prototypes.W, ref.modality_prototypes.W, atol=1e-12
        )
        np.testing.assert_allclose(
            state.identity_prototypes.W, ref.identity_prototypes.W, atol=1e-12
        )

    def test_asynchrony_uses_pre_step_prototypes(self):
        """The encoder update must differ from a synchronous variant that
        recomputes feature gradients against the post-step-1 prototypes."""
        ds = tiny_dataset()
        cfg = tiny_config(variant="SAS_FM", alpha=0.7, base_lr=0.5)
        idx = np.arange(16)
        lr = 0.5

        state = init_train_state(ds, cfg)
        train_step(state, ds, idx, cfg, lr)

        sync = init_train_state(ds, cfg)
        x = ds.features[idx]
        ids = ds.identities[idx]
        mods = ds.modalities[idx]
        emb, cache = encoder_forward(sync.params, x)
        loss_cfg = cfg.loss_config()
        res1 = combined_loss(
            emb, sync.modality_prototypes, sync.identity_prototypes, ids, mods, loss_cfg
        )
        sgd_step(
            SGDState([sync.modality_prototypes.W]),
            [res1.grad_modality_prototypes],
            lr,
            cfg.momentum,
            cfg.weight_decay,
        )
        # synchronous: feature grads against the ALREADY-updated prototypes
        res2 = combined_loss(
            emb, sync.modality_prototypes, sync.identity_prototypes, ids, mods, loss_cfg
        )
        gw, gb = encoder_backward(sync.params, cache, res2.grad_embeddings)
        sgd_step(
            SGDState(sync.params.weights + sync.params.biases),
            gw + gb,
            lr,
            cfg.momentum,
            cfg.weight_decay,
        )
        assert any(
            not np.allclose(a, b, atol=1e-12)
            for a, b in zip(state.params.weights, sync.params.weights)
        )

    def test_skipped_steps_leave_targets_unchanged(self):
        """SOFTMAX (alpha 0), AM_SOFTMAX and CIRCLE have no modality gradient:
        every step's update skips the modality prototypes, so they and their
        momentum end bit-unchanged while the encoder and identity head train."""
        ds = tiny_dataset()
        for variant in ("SOFTMAX", "AM_SOFTMAX", "CIRCLE"):
            cfg = tiny_config(variant=variant)
            w0, _, m0, i0 = snapshot(init_train_state(ds, cfg))
            state, _ = train(ds, cfg)
            np.testing.assert_array_equal(state.modality_prototypes.W, m0)
            modality_velocity = state.optimizer.velocities[-2]
            assert modality_velocity.shape == m0.shape
            assert not np.any(modality_velocity)
            assert not np.array_equal(state.params.weights[0], w0[0])
            assert not np.array_equal(state.identity_prototypes.W, i0)


COMBINED_VARIANTS = ("SOFTMAX", "SAS", "SAS_FM", "SAS_FM_AST", "SAS_FM_WM")


@pytest.fixture
def loss_calls(monkeypatch):
    """Counts the combined_loss evaluations the trainer makes."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1].W.copy())  # the modality prototypes it saw
        return combined_loss(*args, **kwargs)

    monkeypatch.setattr(trainer, "combined_loss", counted)
    return calls


class TestOneLossEvaluation:
    @pytest.mark.parametrize("variant", COMBINED_VARIANTS)
    def test_one_call_per_step(self, variant, loss_calls):
        ds = tiny_dataset()
        cfg = tiny_config(variant=variant)
        state = init_train_state(ds, cfg)
        pre = state.modality_prototypes.W.copy()
        train_step(state, ds, np.arange(16), cfg, lr=0.05)
        assert len(loss_calls) == 1
        np.testing.assert_array_equal(loss_calls[0], pre)

    @pytest.mark.parametrize("variant", COMBINED_VARIANTS)
    def test_one_call_per_step_over_a_run(self, variant, loss_calls):
        cfg = tiny_config(variant=variant)
        train(tiny_dataset(), cfg)
        assert len(loss_calls) == cfg.epochs * cfg.batches_per_epoch

    def test_a_run_hands_every_step_one_workspace(self, monkeypatch):
        seen = []

        def recorded(*args, **kwargs):
            seen.append(args[6])
            return combined_loss(*args, **kwargs)

        monkeypatch.setattr(trainer, "combined_loss", recorded)
        cfg = tiny_config(variant="SAS_FM_AST")
        train(tiny_dataset(), cfg)
        assert len(seen) == cfg.epochs * cfg.batches_per_epoch
        assert isinstance(seen[0], LossWorkspace)
        assert all(ws is seen[0] for ws in seen)
        train(tiny_dataset(), cfg)
        assert seen[-1] is not seen[0]

    def test_softmax_prototype_half_evaluates_nothing(self, loss_calls):
        """SOFTMAX has no prototype-side half: its one loss call never forms
        the modality logits, so that head's workspace buffers stay empty."""
        ds = tiny_dataset()
        cfg = tiny_config(variant="SOFTMAX")
        state = init_train_state(ds, cfg)
        workspace = LossWorkspace()
        train_step(state, ds, np.arange(16), cfg, 0.05, workspace)
        assert len(loss_calls) == 1
        assert list(workspace.buffers) == ["identity logits"]
        assert workspace.buffers["identity logits"].shape == (16, ds.num_identities)

    def test_divergence_raises_before_any_update(self, monkeypatch):
        monkeypatch.setattr(
            trainer,
            "combined_loss",
            lambda *a, **kw: replace(combined_loss(*a, **kw), value=float("nan")),
        )
        ds = tiny_dataset()
        cfg = tiny_config(variant="SAS_FM_AST")
        state = init_train_state(ds, cfg)
        w0, b0, m0, i0 = snapshot(state)
        with pytest.raises(NumericError, match="offending batch indices"):
            train_step(state, ds, np.arange(16), cfg, lr=0.05)
        for a, b in zip(state.params.weights + state.params.biases, w0 + b0):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(state.modality_prototypes.W, m0)
        np.testing.assert_array_equal(state.identity_prototypes.W, i0)


    def test_degenerate_norm_names_the_batch(self):
        """A dead hidden layer gives an all-zero embedding; the AST term's
        DegenerateNormError then carries the batch, as a divergence does,
        and no parameter moves."""
        ds = tiny_dataset()
        cfg = tiny_config(variant="SAS_FM_AST")
        state = init_train_state(ds, cfg)
        state.params.weights[0][...] = 0.0  # every rectifier unit is dead
        w0, b0, m0, i0 = snapshot(state)
        batch = np.arange(3, 19)
        with pytest.raises(DegenerateNormError) as info:
            train_step(state, ds, batch, cfg, lr=0.05)
        assert isinstance(info.value, NumericError)  # the CLI's exit 2
        message = str(info.value)
        assert "embeddings row 0 has near-zero norm" in message
        assert f"offending batch indices: {batch.tolist()}" in message
        assert "\n" not in message
        for a, b in zip(state.params.weights + state.params.biases, w0 + b0):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(state.modality_prototypes.W, m0)
        np.testing.assert_array_equal(state.identity_prototypes.W, i0)


class TestTrain:
    def test_epochs_zero(self):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=0)
        state, log = train(ds, cfg)
        ref = init_train_state(ds, cfg)
        np.testing.assert_array_equal(state.modality_prototypes.W, ref.modality_prototypes.W)
        assert log.records == []

    def test_deterministic(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        s1, l1 = train(ds, cfg)
        s2, l2 = train(ds, cfg)
        for a, b in zip(s1.params.weights, s2.params.weights):
            np.testing.assert_array_equal(a, b)
        assert l1.records == l2.records

    def test_log_schema_and_finite(self):
        ds = tiny_dataset()
        _, log = train(ds, tiny_config(epochs=2))
        assert len(log.records) == 2
        for rec in log.records:
            assert set(rec.keys()) == set(TRAINLOG_FIELDS)
            assert all(np.isfinite(v) for v in rec.values())

    def test_log_csv_roundtrip(self, tmp_path):
        ds = tiny_dataset()
        _, log = train(ds, tiny_config(epochs=2))
        path = tmp_path / "trainlog.csv"
        log.save_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(TRAINLOG_FIELDS)
        assert len(lines) == 3

    def test_all_variants_reduce_training_loss(self):
        ds = tiny_dataset()
        for variant in ("SOFTMAX", "SAS", "SAS_FM", "SAS_FM_AST", "SAS_FM_WM", "AM_SOFTMAX", "CIRCLE"):
            _, log = train(ds, tiny_config(variant=variant, epochs=30, milestones=(20,)))
            first = log.records[0]["loss_total"]
            last = log.records[-1]["loss_total"]
            assert last < first, f"{variant}: {last} !< {first}"

    def test_smoothed_loss_halves_on_reference_protocol(self):
        from sasoftmax.experiments import desk_protocol, make_split

        cfg = desk_protocol()
        train_set, _ = make_split(cfg)
        # the similarity-penalty term of the AST variant has an optimum
        # bounded away from zero in the crowded reference regime, so its
        # halving factor is slightly looser
        for variant, factor in (("SOFTMAX", 0.5), ("SAS_FM", 0.5), ("SAS_FM_AST", 0.55)):
            _, log = train(train_set, replace(cfg, variant=variant, seed=1))
            losses = np.array([r["loss_total"] for r in log.records])
            smoothed = np.convolve(losses, np.ones(5) / 5, mode="valid")
            assert smoothed[-1] < factor * smoothed[0], variant

    def test_explicit_schedule_trains_like_its_own_draw(self, monkeypatch):
        # a schedule drawn on a fresh copy of the data, whose memo is empty,
        # handed to train in place of the memoized one
        ds = tiny_dataset()
        cfg = tiny_config()
        s1, l1 = train(ds, cfg)
        explicit = batch_schedule(tiny_dataset(), cfg).copy()
        monkeypatch.setattr(trainer, "batch_schedule", lambda d, c: explicit)
        s2, l2 = train(ds, cfg)
        w1, b1, m1, i1 = snapshot(s1)
        w2, b2, m2, i2 = snapshot(s2)
        for x, y in zip([*w1, *b1, m1, i1], [*w2, *b2, m2, i2]):
            np.testing.assert_array_equal(x, y)
        assert l1.records == l2.records

    def test_schedule_is_read_only_and_one_row_per_step(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        schedule = batch_schedule(ds, cfg)
        assert schedule.shape == (cfg.epochs * cfg.batches_per_epoch, 2 * cfg.p * cfg.k)
        assert not schedule.flags.writeable
        # the variant does not enter the batch stream
        np.testing.assert_array_equal(schedule, batch_schedule(ds, replace(cfg, variant="CIRCLE")))

    def test_train_steps_through_every_schedule_row_in_order(self, monkeypatch):
        ds = tiny_dataset()
        cfg = tiny_config()
        seen = []
        monkeypatch.setattr(
            trainer, "train_step", lambda s, d, idx, *a: seen.append(idx) or {"loss_total": 0.0}
        )
        schedule = batch_schedule(ds, cfg)[::-1]
        monkeypatch.setattr(trainer, "batch_schedule", lambda d, c: schedule)
        train(ds, cfg)
        np.testing.assert_array_equal(np.array(seen), schedule)

    def test_probe_cache_not_held_through_the_next_epoch(self, monkeypatch):
        """The per-epoch probe keeps only its embeddings: at each step of
        epoch 2 the memory held exceeds that at the first step by less than
        half of the probe's 256-wide hidden activations (4.1 MB here)."""
        ds = generate_synthetic(
            SynthConfig(num_identities=50, samples_per_identity_per_modality=20, input_dim=8, seed=5)
        )
        cfg = tiny_config(epochs=2, batches_per_epoch=3, hidden_dims=(256,), embed_dim=8)
        held = []
        step = trainer.train_step
        monkeypatch.setattr(
            trainer, "train_step",
            lambda *a: held.append(tracemalloc.get_traced_memory()[0]) or step(*a),
        )
        tracemalloc.start()
        try:
            train(ds, cfg)
        finally:
            tracemalloc.stop()
        hidden = len(ds) * 256 * 8
        assert max(held[cfg.batches_per_epoch:]) - held[0] < hidden / 2


class TestScheduleMemo:
    @pytest.mark.parametrize(
        "change", [dict(seed=2), dict(p=3), dict(k=3), dict(epochs=2), dict(batches_per_epoch=5)]
    )
    def test_one_array_per_key(self, change):
        ds = tiny_dataset()
        cfg = tiny_config()
        first = batch_schedule(ds, cfg)
        # the variant and the loss weights are not part of the key
        assert batch_schedule(ds, replace(cfg, variant="CIRCLE", alpha=0.2)) is first
        other = batch_schedule(ds, replace(cfg, **change))
        assert other is not first
        assert batch_schedule(ds, replace(cfg, **change)) is other
        assert len(ds._schedules) == 2
        # each entry is what a dataset with an empty memo draws
        np.testing.assert_array_equal(other, batch_schedule(tiny_dataset(), replace(cfg, **change)))
        np.testing.assert_array_equal(first, batch_schedule(tiny_dataset(), cfg))

    def test_runs_on_one_dataset_draw_each_batch_once(self, monkeypatch):
        ds = tiny_dataset()
        cfg = tiny_config()
        calls = []
        draw = trainer.pk_sample
        monkeypatch.setattr(trainer, "pk_sample", lambda *a: calls.append(a[3]) or draw(*a))
        for variant in ("SAS_FM_AST", "SOFTMAX", "CIRCLE"):
            train(ds, replace(cfg, variant=variant))
        assert len(calls) == cfg.epochs * cfg.batches_per_epoch
        train(ds, replace(cfg, seed=2))
        assert len(calls) == 2 * cfg.epochs * cfg.batches_per_epoch
