"""Command-line entry point.

Subcommands: gen-data, train, eval, gradcheck, ablation, sweep, diagnose.
The four that read an ExperimentConfig (gen-data, train, ablation, sweep)
take the keys each reads (CONFIG_KEYS) as flags: --protocol picks the base
config (the CLI defaults or the desk protocol), a key=value config file
overrides it, and flags override both. Their output directories receive
those keys' effective values (config.txt) to reproduce the run. Any other
key, or a config flag to eval, gradcheck or diagnose, is a usage error; so
is a data key (one of gen-data's) to train --data, which reads the file.
Timestamps live only in metadata.json. Every command computes first
and writes last: the output directory is created only once the work is
done, so bad input or a failed computation leaves no output behind. Each
file is written whole (core.atomic_write), and metadata.json comes last, so
a directory without it is incomplete.

Exit codes: 0 success, 1 contract violation (including usage errors),
2 numeric failure (including an exhausted witness search), 3 I/O failure
or a size that cannot be allocated.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import analysis, experiments, gradcheck
from .config import ExperimentConfig, coerce, load_config_file, save_config_file
from .core import load_dataset_csv, save_dataset_csv, save_json, save_rows_csv
from .data import generate_synthetic, split_by_identity
from .encoder import load_checkpoint, save_checkpoint
from .errors import ContractViolation, NumericError
from .evaluation import (
    Direction,
    cross_modal_eval,
    export_embeddings,
    prototype_diagnostics,
    save_histogram_csv,
)
from .trainer import TrainConfig, train

PROTOCOLS = {"default": ExperimentConfig, "desk": experiments.desk_protocol}
# each configured command's keys, with defaults: its flags, config-file keys and config.txt lines
CONFIG_KEYS = {
    command: {f.name: f.default for f in fields(ExperimentConfig) if f.name not in unread}
    for command, unread in {
        "gen-data": {"seeds", *(f.name for f in fields(TrainConfig))},  # it trains nothing
        "train": {"seeds"},
        "ablation": {"variant", "seed", "am_margin", "am_scale", "circle_gamma", "circle_margin"},
        "sweep": {"variant", "seed"},  # set by each ablation or sweep job
    }.items()
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the contract-violation code, instead of 2, with
    one line like every other bad input; `-h` prints the usage."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _default_out_root() -> Path:
    return Path(os.environ.get("SAS_OUT_DIR", "out"))


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _add_config_flags(parser: argparse.ArgumentParser, keys: dict) -> None:
    parser.add_argument(
        "--protocol",
        choices=PROTOCOLS,
        default="default",
        help="base config: the CLI defaults or the desk reference protocol",
    )
    parser.add_argument("--config", type=Path, help="key=value config file")
    for key, default in keys.items():
        metavar = "BOOL" if isinstance(default, bool) else None
        parser.add_argument(_flag(key), metavar=metavar)


def _config_keys(args) -> dict:
    """The keys this run reads: its command's, less the data keys when train
    reads its samples from --data."""
    keys = CONFIG_KEYS[args.command]
    if args.command == "train" and args.data is not None:
        keys = {key: default for key, default in keys.items() if key not in CONFIG_KEYS["gen-data"]}
    return keys


def _effective_config(args) -> ExperimentConfig:
    """Protocol base, then the config file, then flags; later ones win. A
    flag of a key the run does not read is a usage error."""
    keys = _config_keys(args)
    for key in CONFIG_KEYS[args.command]:
        if key not in keys and getattr(args, key) is not None:
            raise ContractViolation(f"{_flag(key)}: not read by train --data, which reads the file")
    cfg = PROTOCOLS[args.protocol]()
    if args.config is not None:
        cfg = load_config_file(args.config, cfg, keys)
    overrides = {}
    for key, default in keys.items():
        raw = getattr(args, key)
        if raw is not None:
            overrides[key] = coerce(raw, default, _flag(key))
    return replace(cfg, **overrides)


@contextmanager
def _prepare_out(args, name: str, cfg: ExperimentConfig | None = None):
    """The output directory, entered once the command's work is done: it
    gets config.txt first (for a configured command), then the block's
    artifacts, then metadata.json. An earlier run's metadata.json is removed
    on entry, so the directory reads as incomplete until the block completes."""
    out = args.out if args.out is not None else _default_out_root() / name
    out.mkdir(parents=True, exist_ok=True)
    (out / "metadata.json").unlink(missing_ok=True)
    if cfg is not None:
        save_config_file(cfg, out / "config.txt", _config_keys(args))
    yield out
    save_json({"created_unix": time.time(), "command": name}, out / "metadata.json")


def cmd_gen_data(args, cfg: ExperimentConfig) -> int:
    dataset = generate_synthetic(cfg.synth_config())
    parts = {"data.csv": dataset}
    if args.split:
        split = split_by_identity(dataset, cfg.train_fraction, cfg.split_seed)
        parts["train.csv"], parts["test.csv"] = split
    with _prepare_out(args, "gen-data", cfg) as out:
        for name, part in parts.items():
            save_dataset_csv(part, out / name)
        save_json(asdict(cfg.synth_config()), out / "synth_config.json")
    print(f"wrote {len(dataset)} samples to {out / 'data.csv'}")
    return 0


def cmd_train(args, cfg: ExperimentConfig) -> int:
    if args.data is not None:
        train_set = load_dataset_csv(args.data)
    else:
        train_set, _ = experiments.make_split(cfg)
    state, log = train(train_set, cfg)
    with _prepare_out(args, "train", cfg) as out:
        save_checkpoint(out / "checkpoint.txt", state.params,
                        state.modality_prototypes, state.identity_prototypes)
        log.save_csv(out / "trainlog.csv")
    final = log.records[-1]["loss_total"] if log.records else float("nan")
    print(f"trained {cfg.variant} for {cfg.epochs} epochs; final loss {final:.6f}")
    print(f"checkpoint: {out / 'checkpoint.txt'}")
    return 0


def cmd_eval(args) -> int:
    params, w_mod, w_id = load_checkpoint(args.checkpoint)
    # a degenerate head fails before the gallery is ranked
    diag = prototype_diagnostics(w_mod, w_id)
    dataset = load_dataset_csv(args.data)
    directions = list(Direction) if args.direction == "both" else [Direction(args.direction)]
    result = cross_modal_eval(params, dataset, directions)
    report = {
        direction.value: {"cmc": cmc.tolist(), "map": mean_ap, "rank1": float(cmc[0])}
        for direction, (cmc, mean_ap) in result.ranked.items()
    }
    report["prototype_diagnostics"] = {k: v for k, v in diag.items() if isinstance(v, float)}
    with _prepare_out(args, "eval") as out:
        # over all (VIS, NIR) pairs, whichever directions were ranked
        save_histogram_csv(result.intra_hist, out / "hist_intra.csv")
        save_histogram_csv(result.inter_hist, out / "hist_inter.csv")
        save_json(report, out / "report.json")
        export_embeddings(result.embeddings, dataset, out / "embeddings.csv")
    for key, rep in report.items():
        if key != "prototype_diagnostics":
            print(f"{key}: rank1={rep['rank1']:.4f} map={rep['map']:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.num_seeds < 1:
        raise ContractViolation(f"--num-seeds: expected >= 1, got {args.num_seeds}")
    for flag, tol in (("--tolerance", args.tolerance), ("--pipeline-tolerance", args.pipeline_tolerance)):
        # inf passes every check, and nan or a value <= 0 fails every one
        if not 0.0 < tol < np.inf:
            raise ContractViolation(f"{flag}: expected a finite value > 0, got {tol}")
    seeds = range(args.num_seeds)
    rows = gradcheck.check_all_losses(seeds, args.tolerance)
    rows += gradcheck.check_pipeline(seeds, args.pipeline_tolerance)
    with _prepare_out(args, "gradcheck") as out:
        gradcheck.save_rows_csv(rows, out / "gradcheck.csv")
    failed = [r for r in rows if not r.passed]
    by_loss: dict[str, list] = {}
    for r in rows:
        by_loss.setdefault(r.loss, []).append(r)
    for loss, rs in by_loss.items():
        worst = max(r.rel_error for r in rs)
        status = "PASS" if all(r.passed for r in rs) else "FAIL"
        print(f"{status}  {loss:32s} worst rel err {worst:.3e} over {len(rs)} checks")
    if failed:
        print(f"{len(failed)} gradient checks failed", file=sys.stderr)
        return 2
    return 0


def cmd_ablation(args, cfg: ExperimentConfig) -> int:
    rows = experiments.run_ablation(cfg)
    summary = experiments.summarize(rows)
    with _prepare_out(args, "ablation", cfg) as out:
        save_rows_csv(rows, out / "ablation_runs.csv")
        save_rows_csv(summary, out / "ablation.csv")
        experiments.save_markdown_table(
            summary,
            out / "ablation.md",
            columns=["variant", "num_seeds", "mean_rank1_mean", "mean_rank1_std", "mean_map_mean", "mean_map_std"],
        )
    for rec in summary:
        print(
            f"{rec['variant']:12s} rank1 {rec['mean_rank1_mean']:.4f}±{rec['mean_rank1_std']:.4f}"
            f"  map {rec['mean_map_mean']:.4f}±{rec['mean_map_std']:.4f}"
        )
    return 0


def cmd_sweep(args, cfg: ExperimentConfig) -> int:
    grid = [coerce(v, 0.0, "--grid") for v in args.grid.split(",") if v.strip()]
    rows = experiments.run_sweep(cfg, args.parameter, grid)
    summary = experiments.summarize(rows, group_key="value", metrics=["mean_rank1", "mean_map"])
    with _prepare_out(args, f"sweep-{args.parameter}", cfg) as out:
        save_rows_csv(rows, out / "sweep_runs.csv")
        save_rows_csv(summary, out / "sweep.csv")
    for rec in summary:
        print(
            f"{args.parameter}={rec['value']}: rank1 {rec['mean_rank1_mean']:.4f}"
            f"  map {rec['mean_map_mean']:.4f}"
        )
    return 0


def cmd_diagnose(args) -> int:
    if args.budget < 1:
        raise ContractViolation(f"--budget: expected >= 1, got {args.budget}")
    if args.seed_start < 0:
        raise ContractViolation(f"--seed-start: expected >= 0, got {args.seed_start}")
    reports = {}
    if args.checkpoint is not None:
        _, w_mod, w_id = load_checkpoint(args.checkpoint)
        diag = prototype_diagnostics(w_mod, w_id)
        reports["prototype_diagnostics.json"] = {
            k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in diag.items()
        }
    witness = analysis.check_softmax_failure_mode(seed=args.seed_start, budget=args.budget)
    ambiguity = analysis.check_fm_ambiguity(range(args.seed_start, args.seed_start + 40))
    grid, ok = analysis.check_eq3_grid()
    reports["softmax_failure_witness.json"] = witness
    reports["fm_ambiguity.json"] = ambiguity
    with _prepare_out(args, "diagnose") as out:
        for name, report in reports.items():
            save_json(report, out / name)
        save_rows_csv(grid, out / "theta_probe_grid.csv")
    if args.checkpoint is not None:
        print(f"mean cos(P_v, P_n) = {diag['mean_cos_vis_nir']:.4f}")
    print(f"softmax failure witness found after {witness['attempts']} attempts")
    print(f"ambiguous unmasked steps: {ambiguity['num_ambiguous']} / 40 seeds")
    print(f"angular probe grid signs {'all correct' if ok else 'VIOLATED'}")
    return 0 if ok and ambiguity["num_ambiguous"] >= 1 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sas", description="Cross-modality metric learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    # name -> (command, help, its own flags as (flag, add_argument keywords));
    # built here so that a traced run sees the module's current cmd_* functions
    commands = {
        "gen-data": (cmd_gen_data, "generate a synthetic two-modality dataset", [
            ("--split", dict(action="store_true", help="also write train/test CSVs")),
        ]),
        "train": (cmd_train, "train one variant", [
            ("--data", dict(type=Path, help="training CSV (default: generated split)")),
        ]),
        "eval": (cmd_eval, "evaluate a checkpoint on a dataset CSV", [
            ("--checkpoint", dict(type=Path, required=True)),
            ("--data", dict(type=Path, required=True)),
            ("--direction", dict(choices=[d.value for d in Direction] + ["both"], default="both")),
        ]),
        "gradcheck": (cmd_gradcheck, "finite-difference check of all gradients", [
            ("--num-seeds", dict(type=int, default=20)),
            ("--tolerance", dict(type=float, default=1e-6)),
            ("--pipeline-tolerance", dict(type=float, default=1e-5)),
        ]),
        "ablation": (cmd_ablation, "train/eval all loss variants", []),
        "sweep": (cmd_sweep, "hyper-parameter sweep", [
            ("--parameter", dict(choices=experiments.SWEEP_PARAMETERS, required=True)),
            ("--grid", dict(required=True, help="comma-separated values")),
        ]),
        "diagnose": (cmd_diagnose, "prototype diagnostics and analytic checks", [
            ("--checkpoint", dict(type=Path)),
            ("--budget", dict(type=int, default=1_000_000)),
            ("--seed-start", dict(type=int, default=0)),
        ]),
    }
    for name, (func, help_text, flags) in commands.items():
        # no abbreviations: --seed is unrecognized, not --seeds or --seed-start
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--out", type=Path)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        if name in CONFIG_KEYS:
            _add_config_flags(p, CONFIG_KEYS[name])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in CONFIG_KEYS:
            return args.func(args, _effective_config(args))
        return args.func(args)
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
