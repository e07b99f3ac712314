import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import sasoftmax
from sasoftmax import analysis, cli, evaluation
from sasoftmax.cli import main
from sasoftmax.config import ExperimentConfig, save_config_file
from sasoftmax.core import (
    IdentityPrototypeMatrix,
    ModalityPrototypeMatrix,
    atomic_write,
    load_dataset_csv,
)
from sasoftmax.data import SynthConfig
from sasoftmax.encoder import init_encoder, load_checkpoint, save_checkpoint
from sasoftmax.experiments import desk_protocol, run_ablation, run_sweep, save_rows_csv

from conftest import csv_writer_bytes

# a tiny dataset, and a short training on it
DATA_FLAGS = [
    "--num-identities", "6",
    "--samples-per-identity-per-modality", "3",
    "--input-dim", "4",
]
TRAIN_FLAGS = [
    "--embed-dim", "3",
    "--hidden-dims", "",
    "--epochs", "2",
    "--batches-per-epoch", "2",
    "--p", "2",
    "--k", "2",
]
# each configured command with its own flags and its config flags for a fast run
FAST_RUNS = {
    "gen-data": ["gen-data", "--split", *DATA_FLAGS],
    "train": ["train", *DATA_FLAGS, *TRAIN_FLAGS],
    "ablation": ["ablation", *DATA_FLAGS, *TRAIN_FLAGS, "--seeds", "1"],
    "sweep": ["sweep", "--parameter", "alpha", "--grid", "0.5", *DATA_FLAGS, *TRAIN_FLAGS, "--seeds", "1"],
}
ALL_KEYS = {f.name for f in fields(ExperimentConfig)}
# the config keys each configured command reads
KEYS = {
    "gen-data": {
        "num_identities", "samples_per_identity_per_modality", "input_dim", "modality_gap",
        "noise_sigma", "data_seed", "shared_offset", "train_fraction", "split_seed",
    },
    "train": ALL_KEYS - {"seeds"},
    "ablation": ALL_KEYS - {"variant", "seed", "am_margin", "am_scale", "circle_gamma", "circle_margin"},
    "sweep": ALL_KEYS - {"variant", "seed"},
}
UNREAD = [(command, key) for command, keys in KEYS.items() for key in sorted(ALL_KEYS - keys)]


def flag(key: str) -> str:
    return "--" + key.replace("_", "-")


class TestGenData:
    def test_writes_dataset_and_config(self, tmp_path):
        out = tmp_path / "gen"
        code = main(["gen-data", "--out", str(out), "--split", *DATA_FLAGS])
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
        assert main(["gen-data", *DATA_FLAGS]) == 0
        assert (tmp_path / "root" / "gen-data" / "data.csv").exists()


class TestTrainEvalDiagnose:
    def test_train_then_eval_then_diagnose(self, tmp_path):
        gen = tmp_path / "gen"
        assert main(["gen-data", "--out", str(gen), "--split", *DATA_FLAGS]) == 0
        tr = tmp_path / "train"
        assert main(["train", "--out", str(tr), "--data", str(gen / "train.csv"), *TRAIN_FLAGS]) == 0
        assert (tr / "checkpoint.txt").exists()
        assert (tr / "trainlog.csv").exists()

        ev = tmp_path / "eval"
        code = main([
            "eval",
            "--out", str(ev),
            "--checkpoint", str(tr / "checkpoint.txt"),
            "--data", str(gen / "test.csv"),
        ])
        assert code == 0
        assert not (ev / "config.txt").exists()
        report = json.loads((ev / "report.json").read_text())
        assert set(report) == {"vis2nir", "nir2vis", "prototype_diagnostics"}
        assert 0.0 <= report["vis2nir"]["map"] <= 1.0
        # one histogram pair for both directions, over all (VIS, NIR) pairs
        assert sorted(p.name for p in ev.glob("hist_*")) == ["hist_inter.csv", "hist_intra.csv"]
        assert (ev / "embeddings.csv").exists()

        di = tmp_path / "diag"
        code = main([
            "diagnose",
            "--out", str(di),
            "--checkpoint", str(tr / "checkpoint.txt"),
        ])
        assert code == 0
        assert (di / "softmax_failure_witness.json").exists()
        assert (di / "fm_ambiguity.json").exists()
        assert (di / "theta_probe_grid.csv").exists()
        assert (di / "prototype_diagnostics.json").exists()
        assert not (di / "config.txt").exists()

    def test_missing_checkpoint_is_io_failure(self, tmp_path):
        code = main([
            "eval",
            "--out", str(tmp_path / "ev"),
            "--checkpoint", str(tmp_path / "nope.txt"),
            "--data", str(tmp_path / "nope.csv"),
        ])
        assert code == 3


class TestGradcheckCommand:
    def test_default_passes(self, tmp_path):
        out = tmp_path / "gc"
        assert main(["gradcheck", "--out", str(out), "--num-seeds", "3"]) == 0
        assert (out / "gradcheck.csv").exists()

    def test_wrong_gradient_fails_and_writes_csv(self, tmp_path, wrong_softmax_gradient):
        out = tmp_path / "gc"
        assert main(["gradcheck", "--out", str(out), "--num-seeds", "2"]) == 2
        assert (out / "gradcheck.csv").exists()

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
            assert main([*FAST_RUNS["ablation"], "--out", str(out)]) == 0
        for name in ("ablation.csv", "ablation_runs.csv", "ablation.md"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        table = (a / "ablation.csv").read_text()
        for variant in ("SOFTMAX", "SAS_FM_AST", "SAS_FM_WM"):
            assert variant in table

    def test_sweep_single_point(self, tmp_path):
        out = tmp_path / "sw"
        code = main([
            "sweep", "--out", str(out), "--parameter", "alpha", "--grid", "0.7",
            *DATA_FLAGS, *TRAIN_FLAGS, "--seeds", "1",
        ])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 2  # header + one grid point

    def test_sweep_am_margin_grid(self, tmp_path):
        out = tmp_path / "sw"
        code = main([
            "sweep", "--out", str(out), "--parameter", "am_margin",
            "--grid", "0.1,0.3", *DATA_FLAGS, *TRAIN_FLAGS, "--seeds", "1",
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
        """For each configured command, config.txt lists exactly its keys,
        and fed back with the command's own flags it reproduces every
        artifact's bytes."""
        for command, argv in FAST_RUNS.items():
            first, second = tmp_path / command / "one", tmp_path / command / "two"
            assert main([*argv, "--out", str(first)]) == 0
            lines = (first / "config.txt").read_text().splitlines()
            assert [line.split(" = ")[0] for line in lines] == sorted(KEYS[command])
            own = argv[:argv.index(DATA_FLAGS[0])]
            assert main([*own, "--config", str(first / "config.txt"), "--out", str(second)]) == 0
            names = sorted(p.name for p in first.iterdir() if p.name != "metadata.json")
            assert names == sorted(p.name for p in second.iterdir() if p.name != "metadata.json")
            for name in names:
                assert (first / name).read_bytes() == (second / name).read_bytes(), (command, name)


class TestProtocol:
    def test_desk_ablation_matches_library(self, tmp_path):
        out = tmp_path / "abl"
        argv = ["ablation", "--protocol", "desk", "--seeds", "1", "--epochs", "2", "--out", str(out)]
        assert main(argv) == 0
        cfg = desk_protocol(seeds="1", epochs=2)
        save_rows_csv(run_ablation(cfg), tmp_path / "lib.csv")
        assert (out / "ablation_runs.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
        save_config_file(cfg, tmp_path / "lib.txt", cli.CONFIG_KEYS["ablation"])
        assert (out / "config.txt").read_bytes() == (tmp_path / "lib.txt").read_bytes()

    def test_desk_sweep_matches_library(self, tmp_path):
        out = tmp_path / "sw"
        argv = ["sweep", "--protocol", "desk", "--parameter", "beta", "--grid", "0,0.5",
                "--seeds", "1,2", "--epochs", "2", "--out", str(out)]
        assert main(argv) == 0
        cfg = desk_protocol(seeds="1,2", epochs=2)
        save_rows_csv(run_sweep(cfg, "beta", [0.0, 0.5]), tmp_path / "lib.csv")
        assert (out / "sweep_runs.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
        save_config_file(cfg, tmp_path / "lib.txt", cli.CONFIG_KEYS["sweep"])
        assert (out / "config.txt").read_bytes() == (tmp_path / "lib.txt").read_bytes()


class TestDiagnoseCommand:
    def test_no_ambiguous_seed_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            analysis, "check_fm_ambiguity", lambda seeds: {"num_ambiguous": 0, "per_seed": []}
        )
        assert main(["diagnose", "--out", str(tmp_path / "di")]) == 2


class TestCommandInputs:
    """gen-data, train, ablation and sweep read an ExperimentConfig and take
    the flags of the keys each reads; eval, gradcheck and diagnose take only
    their own."""

    # each unconfigured command with the flags it needs to run
    UNCONFIGURED = {
        "eval": ["eval", "--checkpoint", "c.txt", "--data", "d.csv"],
        "gradcheck": ["gradcheck"],
        "diagnose": ["diagnose"],
    }

    def test_flag_sets(self):
        subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
        flags = {
            name: {o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")}
            for name, p in subparsers.items()
        }
        config = {
            command: {"--protocol", "--config"} | {flag(key) for key in keys}
            for command, keys in KEYS.items()
        }
        assert len(fields(ExperimentConfig)) == 29
        assert {command: set(keys) for command, keys in cli.CONFIG_KEYS.items()} == KEYS
        assert flags == {
            "gen-data": {"--out", "--split"} | config["gen-data"],
            "train": {"--out", "--data"} | config["train"],
            "eval": {"--out", "--checkpoint", "--data", "--direction"},
            "gradcheck": {"--out", "--num-seeds", "--tolerance", "--pipeline-tolerance"},
            "ablation": {"--out"} | config["ablation"],
            "sweep": {"--out", "--parameter", "--grid"} | config["sweep"],
            "diagnose": {"--out", "--checkpoint", "--budget", "--seed-start"},
        }
        assert sum(map(len, flags.values())) == 115
        assert len(UNREAD) == 29

    def test_every_key_is_read_and_gen_data_reads_the_data_keys(self):
        """A new config field lands in some command, and a new data field in
        gen-data only if the generator or the split reads it."""
        assert set().union(*cli.CONFIG_KEYS.values()) == ALL_KEYS
        # synth_config() reads every SynthConfig field, its seed as data_seed;
        # make_split hands split_by_identity train_fraction and split_seed
        synth = {f.name for f in fields(SynthConfig)} - {"seed"} | {"data_seed"}
        assert set(cli.CONFIG_KEYS["gen-data"]) == synth | {"train_fraction", "split_seed"}

    @pytest.mark.parametrize("where", ["flag", "config file"])
    @pytest.mark.parametrize("command, key", UNREAD)
    def test_unread_key_is_a_usage_error(self, tmp_path, capsys, command, key, where):
        """As a flag (--seed is no abbreviation of --seeds) or on a config
        file line, with its default value: exit 1, one line naming it, no
        output directory."""
        default = getattr(ExperimentConfig(), key)
        value = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
        out = tmp_path / "out"
        argv = [*FAST_RUNS[command], "--out", str(out)]
        if where == "flag":
            argv += [flag(key), value]
            named = f"unrecognized arguments: {flag(key)} "
        else:
            (tmp_path / "c.txt").write_text(f"{key} = {value}\n")
            argv += ["--config", str(tmp_path / "c.txt")]
            named = f"c.txt:1: unknown key '{key}' for this command"
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and named in lines[0], lines
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config file"])
    @pytest.mark.parametrize("key", sorted(KEYS["gen-data"]))
    def test_data_key_to_train_data_is_a_usage_error(self, tmp_path, capsys, key, where):
        """train --data reads its samples from the file, so a data key, as a
        flag or on a config file line, exits 1 with one line naming it and
        no output directory."""
        gen = tmp_path / "gen"
        assert main(["gen-data", "--out", str(gen), *DATA_FLAGS]) == 0
        capsys.readouterr()
        value = str(getattr(ExperimentConfig(), key))
        out = tmp_path / "out"
        argv = ["train", "--data", str(gen / "data.csv"), *TRAIN_FLAGS, "--out", str(out)]
        if where == "flag":
            argv += [flag(key), value]
            named = f"error: {flag(key)}: not read by train --data"
        else:
            (tmp_path / "c.txt").write_text(f"{key} = {value}\n")
            argv += ["--config", str(tmp_path / "c.txt")]
            named = f"c.txt:1: unknown key '{key}' for this command"
        assert main(argv) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and named in lines[0], lines
        assert not out.exists()

    def test_train_data_config_omits_the_data_keys_and_reproduces_the_run(self, tmp_path):
        gen = tmp_path / "gen"
        assert main(["gen-data", "--out", str(gen), *DATA_FLAGS]) == 0
        own = ["train", "--data", str(gen / "data.csv")]
        first, second = tmp_path / "one", tmp_path / "two"
        assert main([*own, *TRAIN_FLAGS, "--out", str(first)]) == 0
        lines = (first / "config.txt").read_text().splitlines()
        assert [line.split(" = ")[0] for line in lines] == sorted(KEYS["train"] - KEYS["gen-data"])
        assert main([*own, "--config", str(first / "config.txt"), "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir() if p.name != "metadata.json")
        assert names == sorted(p.name for p in second.iterdir() if p.name != "metadata.json")
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (argv + extra, extra[0])
            for argv in UNCONFIGURED.values()
            for extra in (["--epochs", "2"], ["--protocol", "desk"], ["--config", "f"])
        ] + [(["diagnose", "--data", "x"], "--data")],
    )
    def test_config_flag_is_a_usage_error(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and flag in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", UNCONFIGURED)
    def test_no_config_flag_parses(self, capsys, command):
        """Not even as an abbreviation of a command's own flag (--p of
        --pipeline-tolerance, --seed of --seed-start)."""
        parser = cli.build_parser()
        for flag in ["--protocol", "--config"] + [
            "--" + f.name.replace("_", "-") for f in fields(ExperimentConfig)
        ]:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([*self.UNCONFIGURED[command], flag, "1"])
            assert exc.value.code == 1, flag
            assert "unrecognized arguments" in capsys.readouterr().err, flag

    def test_eval_one_direction_histograms(self, tmp_path):
        """`eval --direction vis2nir` writes the histograms of a VIS -> NIR
        evaluation, the bytes `diagnose --data` used to write."""
        gen, tr = tmp_path / "gen", tmp_path / "train"
        assert main(["gen-data", "--out", str(gen), "--split", *DATA_FLAGS]) == 0
        assert main(["train", "--out", str(tr), "--data", str(gen / "train.csv"), *TRAIN_FLAGS]) == 0
        ev = tmp_path / "eval"
        argv = ["eval", "--checkpoint", str(tr / "checkpoint.txt"), "--data", str(gen / "test.csv")]
        assert main([*argv, "--direction", "vis2nir", "--out", str(ev)]) == 0
        result = evaluation.cross_modal_eval(
            load_checkpoint(tr / "checkpoint.txt")[0],
            load_dataset_csv(gen / "test.csv"),
            [evaluation.Direction.VIS_TO_NIR],
        )
        for name, hist in (("intra", result.intra_hist), ("inter", result.inter_hist)):
            evaluation.save_histogram_csv(hist, tmp_path / f"{name}.csv")
            got = (ev / f"hist_{name}.csv").read_bytes()
            assert got == (tmp_path / f"{name}.csv").read_bytes()
        assert sorted(p.name for p in ev.iterdir()) == [
            "embeddings.csv", "hist_inter.csv", "hist_intra.csv", "metadata.json", "report.json",
        ]


def run_cli(argv, cwd):
    env = {**os.environ, "PYTHONPATH": str(Path(sasoftmax.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "sasoftmax.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


def write_inputs(tmp_path) -> dict:
    """Input files by the names the argv rows use: a good checkpoint and
    dataset CSV, and malformed ones of each."""
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
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("id,modality,f0,f1,f2,f3\n0,V,1,0,0,0\n0,N,0,nan,0,0\n")
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
        "onemod.csv": onemod_csv, "nan.csv": nan_csv,
    }


class TestMalformedInputFiles:
    """A truncated, inconsistent or non-UTF-8 checkpoint, a malformed or
    non-UTF-8 dataset CSV, or a test CSV with a one-modality identity, exits 1
    with one line naming the file or the identity, and leaves no output
    directory."""

    @pytest.fixture
    def inputs(self, tmp_path):
        return write_inputs(tmp_path)

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["eval", "--checkpoint", "trunc.txt", "--data", "good.csv"], "trunc.txt"),
            (["eval", "--checkpoint", "good.txt", "--data", "bad.csv"], "bad.csv:3"),
            (["train", "--data", "bad.csv"], "bad.csv:3"),
            (["diagnose", "--checkpoint", "trunc.txt"], "trunc.txt"),
            # the one-direction evaluation, which took over `diagnose --data`'s histograms
            (["eval", "--checkpoint", "good.txt", "--data", "bad.csv", "--direction", "vis2nir"],
             "bad.csv:3"),
            (["eval", "--checkpoint", "badshape.txt", "--data", "good.csv"], "badshape.txt"),
            (["eval", "--checkpoint", "bin.txt", "--data", "good.csv"], "bin.txt"),
            (["eval", "--checkpoint", "good.txt", "--data", "bin.csv"], "bin.csv"),
            (
                ["eval", "--checkpoint", "good.txt", "--data", "onemod.csv"],
                "identity 0 has no nir gallery item (vis2nir)",
            ),
            (
                ["eval", "--checkpoint", "good.txt", "--data", "onemod.csv", "--direction", "vis2nir"],
                "identity 0 has no nir gallery item (vis2nir)",
            ),
            (["eval", "--checkpoint", "good.txt", "--data", "nan.csv"], "nan.csv:3"),
        ],
    )
    def test_exits_1_and_writes_nothing(self, tmp_path, monkeypatch, capsys, inputs, argv, name):
        """In this process, through cli.main, as TestBadInput's rows."""
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        argv = [str(inputs.get(a, a)) for a in argv] + ["--out", str(out)]
        code = main(argv)
        stderr = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in stderr
        lines = stderr.strip().splitlines()
        assert len(lines) == 1 and name in lines[0]
        assert not out.exists()


def _flag_sets() -> dict:
    """Each subcommand's flags, without --out and help."""
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    return {
        name: {o for a in p._actions for o in a.option_strings if o not in ("-h", "--help", "--out")}
        for name, p in subparsers.items()
    }


# eval's flags with the values a case may give them: write_inputs' files,
# a missing file, a directory, and directions good and bad
EVAL_VALUES = {
    "--checkpoint": ["good.txt", "trunc.txt", "badshape.txt", "bin.txt", "good.csv", "nope.txt", "."],
    "--data": ["good.csv", "bad.csv", "nan.csv", "bin.csv", "onemod.csv", "good.txt", "nope.csv", "."],
    "--direction": ["both", "vis2nir", "nir2vis", "sideways"],
}
# the (--data, --direction) pairs that run with the good checkpoint: the
# one-modality identity of onemod.csv is never a NIR query
RUNS = {("good.csv", d) for d in ("both", "vis2nir", "nir2vis")} | {("onemod.csv", "nir2vis")}
assert set(EVAL_VALUES) == _flag_sets()["eval"]
OTHER_FLAGS = sorted(set().union(*_flag_sets().values()) - set(EVAL_VALUES))


@st.composite
def eval_argv(draw):
    """`eval` with each of its own flags given a value or left out, and in
    half the cases a flag or two of the other commands, with or without a
    value, in any order: (argv, own flag values, other flags)."""
    own = {flag: draw(st.sampled_from([*values, None])) for flag, values in EVAL_VALUES.items()}
    own = {flag: value for flag, value in own.items() if value is not None}
    other = draw(st.just([]) | st.lists(st.tuples(
        st.sampled_from(OTHER_FLAGS), st.sampled_from(["1", "desk", "alpha"]) | st.none()
    ), min_size=1, max_size=2))
    argv = ["eval"]
    for flag, value in draw(st.permutations([*own.items(), *other])):
        argv += [flag] if value is None else [flag, value]
    return argv, own, other


class TestEvalArgvFuzz:
    """Every `sas eval` argv that cannot run exits 1 or 3, in this process,
    with one stderr line, no traceback and no output directory."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("eval-fuzz")
        return base, write_inputs(base)

    @settings(max_examples=60, deadline=None)
    @given(eval_argv())
    def test_exits_1_or_3_with_one_line(self, inputs, case):
        base, files = inputs
        argv, own, other = case
        data_direction = (own.get("--data"), own.get("--direction", "both"))
        assume(other or own.get("--checkpoint") != "good.txt" or data_direction not in RUNS)
        out = base / "out"
        paths = {**files, "nope.txt": base / "nope.txt", "nope.csv": base / "nope.csv", ".": base}
        argv = [str(paths.get(a, a)) for a in argv]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main([*argv, "--out", str(out)])
            except SystemExit as exc:
                code = exc.code
        assert code in (1, 3), (argv, code, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        assert len(stderr.getvalue().strip().splitlines()) == 1, stderr.getvalue()
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
            # values the config rejects before any data is generated
            (["train", "--epochs", "1", "--alpha", "1.5"], None, "alpha"),
            (["train", "--epochs", "1", "--variant", "SAS_FM_AST", "--beta", "0"], None, "beta"),
            (["train", "--epochs", "1", "--p", "100"], None, "P exceeds"),
            (["train", "--epochs", "1", "--milestones", "80,40"], None, "milestones"),
            (["train", "--epochs", "1", "--base-lr", "0"], None, "learning rate"),
            (["train", "--epochs", "1", "--k", "0"], None, "P and K"),
            (["train", "--epochs", "1", "--embed-dim", "0"], None, "embed_dim"),
            (["ablation", "--epochs", "1", "--alpha", "2"], None, "alpha"),
            (["sweep", "--epochs", "1", "--parameter", "alpha", "--grid", "1.5"], None, "alpha"),
            (["sweep", "--epochs", "1", "--parameter", "alpha", "--grid", "0.5,abc"], None, "--grid"),
            (["train", "--epochs", "1"], b"\xff\xfe", "c.txt is not UTF-8"),
            (["gradcheck", "--num-seeds", "-1"], None, "--num-seeds"),
            (["gradcheck", "--num-seeds", "0"], None, "--num-seeds"),
            (["diagnose", "--budget", "0"], None, "--budget"),
            (["train", "--epochs", "1", "--hidden-dims", "6,0"], None, "hidden_dims"),
            (["gen-data", "--modality-gap", "inf"], None, "modality_gap must be finite"),
            (["gen-data", "--noise-sigma", "nan"], None, "noise_sigma must be finite"),
            # the removed alternating-batch mode and squared AST term
            (["train", "--epochs", "1", "--alternate-batches", "true"], None, "--alternate-batches"),
            (["train", "--epochs", "1", "--squared-ast", "true"], None, "--squared-ast"),
            (["train", "--epochs", "1"], "alternate_batches = true\n", "'alternate_batches'"),
            (["train", "--epochs", "1"], "squared_ast = false\n", "'squared_ast'"),
            # negative seeds, which np.random.default_rng rejects with a traceback
            (["gen-data", "--data-seed", "-1"], None, "data_seed must be non-negative, got -1"),
            (["gen-data", "--split", "--split-seed", "-1"], None, "split_seed must be non-negative, got -1"),
            (["train", "--epochs", "1", "--seed", "-1"], None, "seed must be non-negative, got -1"),
            (["ablation", "--epochs", "1", "--seeds=-1"], None, "seeds must be non-negative, got -1"),
            (["diagnose", "--seed-start", "-1"], None, "--seed-start: expected >= 0, got -1"),
            (["train", "--protocol", "desk", "--lr-factor", "0"], None, "lr_factor must be positive, got 0.0"),
            # a rate that underflows to 0.0 by the last epoch, and no seeds to run
            (["train", "--protocol", "desk", "--lr-factor", "1e-200", "--milestones", "1,2", "--epochs", "3"],
             None, "base_lr, lr_factor, milestones: last epoch's learning rate 0.0"),
            (["ablation", "--protocol", "desk", "--seeds", ""], None, "needs at least one seed"),
            (["sweep", "--protocol", "desk", "--parameter", "alpha", "--grid", "0.5", "--seeds", ""],
             None, "needs at least one seed"),
            # a tolerance every check passes, or none can
            *[(["gradcheck", flag, value], None, flag)
              for flag in ("--tolerance", "--pipeline-tolerance")
              for value in ("inf", "nan", "-1", "0")],
            # direction is `sas eval --direction`, not a config key
            (["train", "--epochs", "1"], "direction = both\n", "unknown key 'direction'"),
            # P is checked before the schedule's 6.4e19 bytes are counted
            (["train", "--protocol", "desk", "--p", "1000000000000000"], None, "P exceeds"),
        ],
    )
    def test_exits_1_with_one_line_naming_the_value(
        self, tmp_path, monkeypatch, capsys, argv, config_text, name
    ):
        """In this process, through cli.main; argparse's usage errors
        leave it as SystemExit."""
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        argv = [*argv, "--out", str(out)]
        if config_text is not None:
            data = config_text if isinstance(config_text, bytes) else config_text.encode()
            (tmp_path / "c.txt").write_bytes(data)
            argv += ["--config", str(tmp_path / "c.txt")]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        stderr = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in stderr
        lines = stderr.strip().splitlines()
        assert len(lines) == 1 and name in lines[0]
        assert not out.exists()

    def test_module_entry_exits_1_with_one_line(self, tmp_path):
        """`python -m sasoftmax.cli` turns main's code into the exit status."""
        out = tmp_path / "out"
        done = run_cli(["train", "--epochs", "ten", "--out", str(out)], tmp_path)
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        lines = done.stderr.strip().splitlines()
        assert len(lines) == 1 and "--epochs" in lines[0]
        assert not out.exists()

    def test_bad_lr_factor_fails_before_training(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("training started"))
        out = tmp_path / "out"
        assert main(["train", "--protocol", "desk", "--lr-factor", "0", "--out", str(out)]) == 1

    @pytest.mark.parametrize(
        "head, column, name",
        [
            ("identity", 2, "identity prototype columns"),
            ("modality", 1, "visible modality prototype columns"),
            ("modality", 5, "infrared modality prototype columns"),
        ],
    )
    def test_degenerate_checkpoint_fails_before_ranking(
        self, tmp_path, monkeypatch, capsys, head, column, name
    ):
        """A prototype column of zero norm exits 2 with one line naming its
        head, and the gallery is never ranked."""
        rng = np.random.default_rng(0)
        w_mod, w_id = rng.normal(size=(3, 8)), rng.normal(size=(3, 4))
        (w_id if head == "identity" else w_mod)[:, column] = 0.0
        save_checkpoint(tmp_path / "c.txt", init_encoder([4, 3], 0),
                        ModalityPrototypeMatrix(w_mod), IdentityPrototypeMatrix(w_id))
        gen = tmp_path / "gen"
        assert main(["gen-data", "--out", str(gen), *DATA_FLAGS]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "cross_modal_eval", lambda *args: pytest.fail("gallery ranked"))
        out = tmp_path / "out"
        argv = ["eval", "--checkpoint", str(tmp_path / "c.txt"), "--data", str(gen / "data.csv")]
        assert main([*argv, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == [f"numeric failure: near-zero norm in {name}"]
        assert not out.exists()

    def test_exhausted_witness_search_exits_2(self, tmp_path):
        out = tmp_path / "out"
        done = run_cli(["diagnose", "--budget", "1", "--out", str(out)], tmp_path)
        assert done.returncode == 2
        lines = done.stderr.strip().splitlines()
        assert len(lines) == 1 and "no failure witness within 1 attempts" in lines[0]
        assert not out.exists()


class TestUnallocatableSizes:
    """A size whose arrays cannot be allocated exits 3 with one line, before
    any output. Every size here is past 2^60 bytes, so none is ever
    allocated: the byte count is checked first, or the allocator refuses."""

    @pytest.mark.parametrize(
        "argv, name",
        [
            # counted before allocating: the byte count overflows an array's size
            (["train", "--protocol", "desk", "--epochs", "1000000000000000"], "batch indices"),
            (["ablation", "--protocol", "desk", "--epochs", "1000000000000000"], "batch indices"),
            (["gen-data", "--num-identities", "1000000000000000"], "features"),
            # 1.4e18 bytes (2^60.3): NumPy's own MemoryError
            (["train", "--protocol", "desk", "--epochs", str(2**47)], "Unable to allocate"),
        ],
    )
    def test_exits_3_with_one_line(self, tmp_path, capsys, argv, name):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 3
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        lines = stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("out of memory: ") and name in lines[0]
        assert not out.exists()


class TestOutputContract:
    """config.txt first (from the configured commands), every file whole,
    metadata.json last."""

    @pytest.fixture
    def eval_argv(self, tmp_path):
        gen, tr = tmp_path / "gen", tmp_path / "train"
        assert main(["gen-data", "--out", str(gen), "--split", *DATA_FLAGS]) == 0
        assert main(["train", "--out", str(tr), "--data", str(gen / "train.csv"), *TRAIN_FLAGS]) == 0
        return ["eval", "--checkpoint", str(tr / "checkpoint.txt"), "--data", str(gen / "test.csv")]

    @pytest.mark.parametrize("direction", ["both", "vis2nir", "nir2vis"])
    def test_eval_embeds_once_and_exports_what_it_ranked(
        self, tmp_path, monkeypatch, eval_argv, direction
    ):
        forward = evaluation.encoder_forward
        calls = []
        monkeypatch.setattr(
            evaluation, "encoder_forward", lambda *args: calls.append(1) or forward(*args)
        )
        out = tmp_path / "ev"
        assert main([*eval_argv, "--direction", direction, "--out", str(out)]) == 0
        assert len(calls) == 1
        dataset = load_dataset_csv(eval_argv[4])
        emb, _ = forward(load_checkpoint(eval_argv[2])[0], dataset.features)
        expected = csv_writer_bytes(dataset.identities, dataset.modalities, emb, "e")
        assert (out / "embeddings.csv").read_bytes() == expected

    def test_failed_write_leaves_no_metadata(self, tmp_path, monkeypatch, eval_argv):
        def failing_export(params, dataset, path):
            with atomic_write(path) as fh:
                fh.write("id,modality")
                raise OSError("disk full")

        ev = tmp_path / "eval"
        assert main([*eval_argv, "--out", str(ev)]) == 0
        assert (ev / "metadata.json").exists()
        monkeypatch.setattr(cli, "export_embeddings", failing_export)
        (ev / "embeddings.csv").unlink()
        # a rerun into a finished directory voids its metadata.json first
        assert main([*eval_argv, "--out", str(ev)]) == 3
        assert not (ev / "metadata.json").exists()
        assert not (ev / "embeddings.csv").exists()
        assert not [p.name for p in ev.iterdir() if p.name.startswith(".")]

        fresh = tmp_path / "fresh"
        assert main([*eval_argv, "--out", str(fresh)]) == 3
        assert fresh.is_dir()
        assert not (fresh / "metadata.json").exists()

    def test_failed_write_after_config(self, tmp_path, monkeypatch):
        """A configured command writes config.txt before its artifacts: a
        failed write leaves it, and no metadata.json."""

        def failing_checkpoint(path, *arrays):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "save_checkpoint", failing_checkpoint)
        out = tmp_path / "train"
        assert main([*FAST_RUNS["train"], "--out", str(out)]) == 3
        assert "num_identities = 6" in (out / "config.txt").read_text()
        assert not (out / "metadata.json").exists()

