from dataclasses import replace

import pytest

from sasoftmax import experiments
from sasoftmax.errors import ContractViolation
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


class TestSharedSchedules:
    def test_ablation_rows_match_private_schedules_byte_for_byte(self, tmp_path):
        cfg = small_protocol()
        split = make_split(cfg)
        private = [
            run_single(cfg, v, s, split=split) for v in ABLATION_VARIANTS for s in cfg.seed_list()
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
                row = run_single(replace(cfg, beta=value), variant, seed, split=split)
                private.append({**row, "parameter": "beta", "value": value})
        save_rows_csv(run_sweep(cfg, "beta", grid), tmp_path / "shared.csv")
        save_rows_csv(private, tmp_path / "private.csv")
        assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "private.csv").read_bytes()


class TestValidatesBeforeTraining:
    @pytest.mark.parametrize(
        "run, message",
        [
            (lambda: run_ablation(small_protocol(seeds="1,2,3", beta=-1.0)), "beta"),
            (lambda: run_ablation(small_protocol(alpha=2.0)), "alpha"),
            (lambda: run_ablation(small_protocol(p=100)), "P exceeds"),
            (lambda: run_sweep(small_protocol(), "beta", [0.5, -1.0]), "beta"),
            (lambda: run_sweep(small_protocol(), "alpha", [0.5, 1.5]), "alpha"),
        ],
    )
    def test_bad_value_trains_nothing(self, monkeypatch, run, message):
        calls = []
        monkeypatch.setattr(experiments, "train", lambda *a, **kw: calls.append(a))
        with pytest.raises(ContractViolation, match=message):
            run()
        assert len(calls) == 0
