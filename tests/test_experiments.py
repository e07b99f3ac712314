from dataclasses import replace

import pytest

from sasoftmax import experiments, trainer
from sasoftmax.core import Dataset
from sasoftmax.errors import ContractViolation, NumericError
from sasoftmax.experiments import (
    ABLATION_VARIANTS,
    desk_protocol,
    make_split,
    run_ablation,
    run_single,
    run_sweep,
    save_rows_csv,
)


def small_protocol(**kw):
    return desk_protocol(**{"seeds": "1,2", "epochs": 3, **kw})


def fresh_split(split):
    """Copies of the split's datasets, each with an empty schedule memo."""
    return tuple(
        Dataset(d.features, d.identities, d.modalities, d.num_identities, d.input_dim)
        for d in split
    )


class TestSharedSchedules:
    def test_ablation_rows_match_private_schedules_byte_for_byte(self, tmp_path):
        cfg = small_protocol()
        split = make_split(cfg)
        private = [
            run_single(cfg, v, s, split=fresh_split(split))
            for v in ABLATION_VARIANTS
            for s in cfg.seed_list()
        ]
        save_rows_csv(run_ablation(cfg), tmp_path / "shared.csv")
        save_rows_csv(private, tmp_path / "private.csv")
        assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "private.csv").read_bytes()

    def test_sweep_rows_match_private_schedules_byte_for_byte(self, tmp_path):
        cfg = small_protocol()
        split = make_split(cfg)
        grid = [0.0, 0.5]
        private = []
        for seed in cfg.seed_list():
            for value in grid:
                variant = "SAS_FM" if value == 0.0 else "SAS_FM_AST"
                row = run_single(replace(cfg, beta=value), variant, seed, split=fresh_split(split))
                private.append({**row, "parameter": "beta", "value": value})
        save_rows_csv(run_sweep(cfg, "beta", grid), tmp_path / "shared.csv")
        save_rows_csv(private, tmp_path / "private.csv")
        assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "private.csv").read_bytes()

    def test_runs_on_one_split_draw_each_batch_once(self, monkeypatch):
        cfg = small_protocol(seeds="1")
        split = make_split(cfg)
        calls = []
        draw = trainer.pk_sample
        monkeypatch.setattr(trainer, "pk_sample", lambda *a: calls.append(a[3]) or draw(*a))
        run_single(cfg, "SAS_FM_AST", 1, split=split)
        run_single(cfg, "SOFTMAX", 1, split=split)
        assert len(calls) == cfg.epochs * cfg.batches_per_epoch

    @pytest.mark.parametrize("run", [run_ablation, lambda cfg: run_sweep(cfg, "alpha", [0.3, 0.7])])
    def test_ablation_and_sweep_draw_each_seeds_batches_once(self, monkeypatch, run):
        cfg = small_protocol()
        calls = []
        draw = trainer.pk_sample
        monkeypatch.setattr(trainer, "pk_sample", lambda *a: calls.append(a[3]) or draw(*a))
        run(cfg)
        assert len(calls) == len(cfg.seed_list()) * cfg.epochs * cfg.batches_per_epoch


class TestValidatesBeforeTraining:
    @pytest.mark.parametrize(
        "run, message",
        [
            (lambda: run_ablation(small_protocol(seeds="1,2,3", beta=-1.0)), "beta"),
            (lambda: run_ablation(small_protocol(alpha=2.0)), "alpha"),
            (lambda: run_ablation(small_protocol(p=100)), "P exceeds"),
            (lambda: run_sweep(small_protocol(), "beta", [0.5, -1.0]), "beta"),
            (lambda: run_sweep(small_protocol(), "alpha", [0.5, 1.5]), "alpha"),
            # the head-only variants' values are checked when each point is built
            (lambda: run_sweep(small_protocol(), "am_margin", [0.1, -0.2]), "am_margin"),
            (lambda: run_sweep(small_protocol(), "circle_gamma", [32.0, 0.0]), "circle_gamma"),
            (lambda: run_sweep(small_protocol(), "alpha", [0.5, float("nan")]), "alpha"),
            (lambda: run_sweep(small_protocol(seeds=""), "alpha", [0.5]), "needs at least one seed"),
        ],
    )
    def test_bad_value_trains_nothing(self, monkeypatch, run, message):
        calls = []
        monkeypatch.setattr(experiments, "train", lambda *a, **kw: calls.append(a))
        with pytest.raises(ContractViolation, match=message):
            run()
        assert len(calls) == 0


class TestRunJobs:
    def test_variant_dependent_bad_value_trains_nothing(self, monkeypatch):
        """beta 0 is valid for the first three variants and bad only for
        SAS_FM_AST, the fourth: the ablation fails before training any."""
        calls = []
        monkeypatch.setattr(experiments, "train", lambda *a, **kw: calls.append(a))
        with pytest.raises(ContractViolation, match="SAS_FM_AST requires beta > 0"):
            run_ablation(small_protocol(beta=0.0))
        assert calls == []

    @pytest.mark.parametrize(
        "run", [run_ablation, lambda cfg: run_sweep(cfg, "beta", [0.0, 0.5, 1.0])]
    )
    def test_failing_job_reaches_the_caller_and_stops_the_list(self, monkeypatch, run):
        """The second job raises: its error reaches the caller unchanged and
        no later job runs."""
        started = []

        def fail_second(cfg, variant, seed, split):
            started.append((variant, seed))
            if len(started) == 2:
                raise NumericError(f"loss_total is not finite in {variant} seed {seed}")
            return {"variant": variant, "seed": seed}

        monkeypatch.setattr(experiments, "run_single", fail_second)
        cfg = small_protocol()
        with pytest.raises(NumericError) as info:
            run(cfg)
        variant, seed = started[1]
        assert str(info.value) == f"loss_total is not finite in {variant} seed {seed}"
        assert len(started) == 2
