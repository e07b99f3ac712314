from dataclasses import replace

import numpy as np
import pytest

from sasoftmax import trainer
from sasoftmax.core import ModalityPrototypeMatrix
from sasoftmax.data import SynthConfig, generate_synthetic
from sasoftmax.encoder import SGDState, encoder_backward, encoder_forward, sgd_step
from sasoftmax.errors import ContractViolation, DegenerateNormError, NumericError
from sasoftmax.losses import combined_loss
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
            [ref.modality_prototypes.W],
            [res1.grad_modality_prototypes],
            SGDState([ref.modality_prototypes.W]),
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
            ref.params.weights + ref.params.biases,
            gw + gb,
            SGDState(ref.params.weights + ref.params.biases),
            lr,
            cfg.momentum,
            cfg.weight_decay,
        )
        sgd_step(
            [ref.identity_prototypes.W],
            [res2.grad_identity_prototypes],
            SGDState([ref.identity_prototypes.W]),
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
            [sync.modality_prototypes.W],
            [res1.grad_modality_prototypes],
            SGDState([sync.modality_prototypes.W]),
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
            sync.params.weights + sync.params.biases,
            gw + gb,
            SGDState(sync.params.weights + sync.params.biases),
            lr,
            cfg.momentum,
            cfg.weight_decay,
        )
        assert any(
            not np.allclose(a, b, atol=1e-12)
            for a, b in zip(state.params.weights, sync.params.weights)
        )

    def test_skipped_steps_leave_targets_unchanged(self):
        ds = tiny_dataset()
        cfg = tiny_config(variant="SAS_FM")
        state = init_train_state(ds, cfg)
        w0, b0, m0, i0 = snapshot(state)
        train_step(state, ds, np.arange(16), cfg, lr=0.05, do_w_step=False, do_f_step=True)
        np.testing.assert_array_equal(state.modality_prototypes.W, m0)
        state2 = init_train_state(ds, cfg)
        train_step(state2, ds, np.arange(16), cfg, lr=0.05, do_w_step=True, do_f_step=False)
        for a, b in zip(state2.params.weights, w0):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(state2.identity_prototypes.W, i0)


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

    @pytest.mark.parametrize("variant", COMBINED_VARIANTS[1:])
    @pytest.mark.parametrize("do_w, do_f", [(True, False), (False, True)])
    def test_one_call_in_each_alternate_half(self, variant, do_w, do_f, loss_calls):
        ds = tiny_dataset()
        cfg = tiny_config(variant=variant, alternate_batches=True)
        state = init_train_state(ds, cfg)
        train_step(state, ds, np.arange(16), cfg, 0.05, do_w, do_f)
        assert len(loss_calls) == 1

    def test_softmax_prototype_half_evaluates_nothing(self, loss_calls):
        """SOFTMAX has no prototype-side step, so the prototype half of an
        alternating run has nothing to evaluate."""
        ds = tiny_dataset()
        cfg = tiny_config(variant="SOFTMAX", alternate_batches=True)
        state = init_train_state(ds, cfg)
        train_step(state, ds, np.arange(16), cfg, 0.05, do_w_step=True, do_f_step=False)
        assert loss_calls == []
        train_step(state, ds, np.arange(16), cfg, 0.05, do_w_step=False, do_f_step=True)
        assert len(loss_calls) == 1

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
        assert "near-zero norm in embeddings" in message
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

    def test_explicit_schedule_trains_like_its_own_draw(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        s1, l1 = train(ds, cfg)
        s2, l2 = train(ds, cfg, batch_schedule(ds, cfg))
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
        train(ds, cfg, schedule)
        np.testing.assert_array_equal(np.array(seen), schedule)

    @pytest.mark.parametrize("shape", [(11, 16), (12, 15), (13, 16), (192,)])
    def test_wrong_shape_schedule_raises(self, shape):
        ds = tiny_dataset()
        with pytest.raises(ContractViolation, match="batch schedule has shape"):
            train(ds, tiny_config(), np.zeros(shape, dtype=np.intp))

    def test_alternate_batches_variant_runs(self):
        ds = tiny_dataset()
        state, log = train(ds, tiny_config(alternate_batches=True, epochs=2))
        assert len(log.records) == 2
        assert all(np.isfinite(r["loss_total"]) for r in log.records)
