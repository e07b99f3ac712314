import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sasoftmax
from sasoftmax import analysis
from sasoftmax.cli import main
from sasoftmax.config import load_config_file
from sasoftmax.core import IdentityPrototypeMatrix, ModalityPrototypeMatrix
from sasoftmax.encoder import init_encoder, save_checkpoint
from sasoftmax.experiments import desk_protocol, run_ablation, save_rows_csv

FAST_FLAGS = [
    "--num-identities", "6",
    "--samples-per-identity-per-modality", "3",
    "--input-dim", "4",
    "--embed-dim", "3",
    "--hidden-dims", "",
    "--epochs", "2",
    "--batches-per-epoch", "2",
    "--p", "2",
    "--k", "2",
    "--seeds", "1",
]


class TestGenData:
    def test_writes_dataset_and_config(self, tmp_path):
        out = tmp_path / "gen"
        code = main(["gen-data", "--out", str(out), "--split", *FAST_FLAGS])
        assert code == 0
        assert (out / "data.csv").exists()
        assert (out / "train.csv").exists()
        assert (out / "test.csv").exists()
        assert (out / "synth_config.json").exists()
        assert "num_identities = 6" in (out / "config.txt").read_text()
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["command"] == "gen-data"

    def test_sas_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SAS_OUT_DIR", str(tmp_path / "root"))
        assert main(["gen-data", *FAST_FLAGS]) == 0
        assert (tmp_path / "root" / "gen-data" / "data.csv").exists()


class TestTrainEvalDiagnose:
    def test_train_then_eval_then_diagnose(self, tmp_path):
        gen = tmp_path / "gen"
        assert main(["gen-data", "--out", str(gen), "--split", *FAST_FLAGS]) == 0
        tr = tmp_path / "train"
        assert main(["train", "--out", str(tr), "--data", str(gen / "train.csv"), *FAST_FLAGS]) == 0
        assert (tr / "checkpoint.txt").exists()
        assert (tr / "trainlog.csv").exists()

        ev = tmp_path / "eval"
        code = main([
            "eval",
            "--out", str(ev),
            "--checkpoint", str(tr / "checkpoint.txt"),
            "--data", str(gen / "test.csv"),
            *FAST_FLAGS,
        ])
        assert code == 0
        report = json.loads((ev / "report.json").read_text())
        assert set(report) == {"vis2nir", "nir2vis", "prototype_diagnostics"}
        assert 0.0 <= report["vis2nir"]["map"] <= 1.0
        assert (ev / "hist_intra_vis2nir.csv").exists()
        assert (ev / "embeddings.csv").exists()

        di = tmp_path / "diag"
        code = main([
            "diagnose",
            "--out", str(di),
            "--checkpoint", str(tr / "checkpoint.txt"),
            "--data", str(gen / "test.csv"),
            *FAST_FLAGS,
        ])
        assert code == 0
        assert (di / "softmax_failure_witness.json").exists()
        assert (di / "fm_ambiguity.json").exists()
        assert (di / "theta_probe_grid.csv").exists()
        assert (di / "prototype_diagnostics.json").exists()

    def test_missing_checkpoint_is_io_failure(self, tmp_path):
        code = main([
            "eval",
            "--out", str(tmp_path / "ev"),
            "--checkpoint", str(tmp_path / "nope.txt"),
            "--data", str(tmp_path / "nope.csv"),
            *FAST_FLAGS,
        ])
        assert code == 3


class TestGradcheckCommand:
    def test_default_passes(self, tmp_path):
        out = tmp_path / "gc"
        assert main(["gradcheck", "--out", str(out), "--num-seeds", "3"]) == 0
        assert (out / "gradcheck.csv").exists()

    def test_corrupt_hook_fails(self, tmp_path):
        code = main(["gradcheck", "--out", str(tmp_path / "gc"), "--num-seeds", "2", "--corrupt"])
        assert code == 2

    def test_impossible_tolerance_fails(self, tmp_path):
        code = main([
            "gradcheck", "--out", str(tmp_path / "gc"),
            "--num-seeds", "2", "--tolerance", "1e-15", "--pipeline-tolerance", "1e-15",
        ])
        assert code == 2


class TestAblationAndSweep:
    def test_ablation_outputs_and_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["ablation", "--out", str(out), *FAST_FLAGS]) == 0
        for name in ("ablation.csv", "ablation_runs.csv", "ablation.md"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        table = (a / "ablation.csv").read_text()
        for variant in ("SOFTMAX", "SAS_FM_AST", "SAS_FM_WM"):
            assert variant in table

    def test_sweep_single_point(self, tmp_path):
        out = tmp_path / "sw"
        code = main([
            "sweep", "--out", str(out), "--parameter", "alpha", "--grid", "0.7", *FAST_FLAGS,
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 2  # header + one grid point

    def test_sweep_am_margin_grid(self, tmp_path):
        out = tmp_path / "sw"
        code = main([
            "sweep", "--out", str(out), "--parameter", "am_margin",
            "--grid", "0.1,0.3", *FAST_FLAGS,
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 3


class TestConfigHandling:
    def test_config_file_plus_flag_override(self, tmp_path):
        cfg_file = tmp_path / "c.txt"
        cfg_file.write_text("num_identities = 6\nsamples_per_identity_per_modality = 3\ninput_dim = 4\n")
        out = tmp_path / "gen"
        code = main(["gen-data", "--out", str(out), "--config", str(cfg_file), "--input-dim", "5"])
        assert code == 0
        text = (out / "config.txt").read_text()
        assert "input_dim = 5" in text
        assert "num_identities = 6" in text

    def test_unknown_config_key_exit_code(self, tmp_path):
        cfg_file = tmp_path / "c.txt"
        cfg_file.write_text("bogus = 1\n")
        assert main(["gen-data", "--out", str(tmp_path / "g"), "--config", str(cfg_file)]) == 1

    def test_effective_config_reproduces_run(self, tmp_path):
        first = tmp_path / "one"
        assert main(["ablation", "--out", str(first), *FAST_FLAGS]) == 0
        second = tmp_path / "two"
        assert main(["ablation", "--out", str(second), "--config", str(first / "config.txt")]) == 0
        assert (first / "ablation_runs.csv").read_bytes() == (second / "ablation_runs.csv").read_bytes()


class TestProtocol:
    def test_desk_ablation_matches_library(self, tmp_path):
        out = tmp_path / "abl"
        argv = ["ablation", "--protocol", "desk", "--seeds", "1", "--epochs", "2", "--out", str(out)]
        assert main(argv) == 0
        cfg = desk_protocol(seeds="1", epochs=2)
        save_rows_csv(run_ablation(cfg), tmp_path / "lib.csv")
        assert (out / "ablation_runs.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
        assert load_config_file(out / "config.txt") == cfg


class TestDiagnoseCommand:
    def test_no_ambiguous_seed_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            analysis, "check_fm_ambiguity", lambda seeds: {"num_ambiguous": 0, "per_seed": []}
        )
        assert main(["diagnose", "--out", str(tmp_path / "di")]) == 2


def run_cli(argv, cwd):
    env = {**os.environ, "PYTHONPATH": str(Path(sasoftmax.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "sasoftmax.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


class TestMalformedInputFiles:
    """A truncated, inconsistent or non-UTF-8 checkpoint, a malformed or
    non-UTF-8 dataset CSV, or a test CSV with a one-modality identity, exits 1
    with one line naming the file or the identity, and leaves no output
    directory."""

    @pytest.fixture
    def inputs(self, tmp_path):
        good_ckpt = tmp_path / "model.txt"
        save_checkpoint(
            good_ckpt,
            init_encoder([4, 3], 0),
            ModalityPrototypeMatrix(np.ones((3, 4))),
            IdentityPrototypeMatrix(np.ones((3, 2))),
        )
        trunc = tmp_path / "trunc.txt"
        trunc.write_bytes(good_ckpt.read_bytes()[:60])
        good_csv = tmp_path / "good.csv"
        good_csv.write_text("id,modality,f0,f1,f2,f3\n0,V,1,0,0,0\n0,N,0,1,0,0\n")
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("id,modality,f0,f1,f2,f3\n0,V,1,0,0,0\n0,N,0,abc,0,0\n")
        # b0 says 2 entries under a 4 x 3 W0
        lines = good_ckpt.read_text().split("\n")
        lines[4:6] = ["b0 2", "0.0 0.0"]
        badshape = tmp_path / "badshape.txt"
        badshape.write_text("\n".join(lines))
        bin_ckpt = tmp_path / "bin.txt"
        bin_ckpt.write_bytes(b"SASMODEL1\n\xff\xfe")
        bin_csv = tmp_path / "bin.csv"
        bin_csv.write_bytes(b"\xff\xfe")
        # identity 0 has visible samples only
        onemod_csv = tmp_path / "onemod.csv"
        onemod_csv.write_text("id,modality,f0,f1,f2,f3\n0,V,1,0,0,0\n1,V,0,1,0,0\n1,N,0,0,1,0\n")
        return {
            "good.txt": good_ckpt, "trunc.txt": trunc, "good.csv": good_csv, "bad.csv": bad_csv,
            "badshape.txt": badshape, "bin.txt": bin_ckpt, "bin.csv": bin_csv,
            "onemod.csv": onemod_csv,
        }

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["eval", "--checkpoint", "trunc.txt", "--data", "good.csv"], "trunc.txt"),
            (["eval", "--checkpoint", "good.txt", "--data", "bad.csv"], "bad.csv:3"),
            (["train", "--data", "bad.csv"], "bad.csv:3"),
            (["diagnose", "--checkpoint", "trunc.txt"], "trunc.txt"),
            (["diagnose", "--checkpoint", "good.txt", "--data", "bad.csv"], "bad.csv:3"),
            (["eval", "--checkpoint", "badshape.txt", "--data", "good.csv"], "badshape.txt"),
            (["eval", "--checkpoint", "bin.txt", "--data", "good.csv"], "bin.txt"),
            (["eval", "--checkpoint", "good.txt", "--data", "bin.csv"], "bin.csv"),
            (
                ["eval", "--checkpoint", "good.txt", "--data", "onemod.csv"],
                "identity 0 has no nir gallery item (vis2nir)",
            ),
            (
                ["diagnose", "--checkpoint", "good.txt", "--data", "onemod.csv"],
                "identity 0 has no nir gallery item (vis2nir)",
            ),
        ],
    )
    def test_exits_1_and_writes_nothing(self, tmp_path, inputs, argv, name):
        out = tmp_path / "out"
        argv = [str(inputs.get(a, a)) for a in argv] + ["--out", str(out)]
        done = run_cli(argv, tmp_path)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        lines = done.stderr.strip().splitlines()
        assert len(lines) == 1 and name in lines[0]
        assert not out.exists()


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, config_text, name",
        [
            (["train", "--epochs", "ten"], None, "--epochs"),
            (["gen-data", "--shared-offset", "maybe"], None, "--shared-offset"),
            (["eval", "--data", "d.csv"], None, "--checkpoint"),
            (["train", "--hidden-dims", "6,x"], None, "--hidden-dims"),
            (["ablation", "--seeds", "1,x"], None, "seeds"),
            (["train"], "epochs = ten\n", "c.txt:1: epochs"),
            (["eval", "--checkpoint", "c.txt", "--data", "d.csv", "--direction", "sideways"], None, "direction"),
        ],
    )
    def test_exits_1_with_one_line_naming_the_value(self, tmp_path, argv, config_text, name):
        out = tmp_path / "out"
        argv = [*argv, "--out", str(out)]
        if config_text is not None:
            (tmp_path / "c.txt").write_text(config_text)
            argv += ["--config", str(tmp_path / "c.txt")]
        done = run_cli(argv, tmp_path)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert name in done.stderr.strip().splitlines()[-1]
        assert not out.exists()
