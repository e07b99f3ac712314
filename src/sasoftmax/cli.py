"""Command-line entry point.

Subcommands: gen-data, train, eval, gradcheck, ablation, sweep, diagnose.
Every ExperimentConfig key is exposed as a flag. --protocol picks the base
config (the CLI defaults or the desk protocol), a key=value config file
overrides it, and flags override both. Each output directory receives the
exact effective config (config.txt) so any run can be reproduced from it;
timestamps live only in metadata.json. Input files are loaded, and a
dataset is evaluated, before the output directory is created, so bad input
leaves no output behind.

Exit codes: 0 success, 1 contract violation (including usage errors),
2 numeric failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import analysis, experiments, gradcheck
from .config import (
    ExperimentConfig,
    _coerce,
    apply_overrides,
    load_config_file,
    save_config_file,
)
from .core import load_dataset_csv, save_dataset_csv
from .data import generate_synthetic, save_synth_config, split_by_identity
from .encoder import load_checkpoint, save_checkpoint
from .errors import ContractViolation, NumericError
from .evaluation import (
    Direction,
    cross_modal_eval,
    export_embeddings,
    prototype_diagnostics,
    save_histogram_csv,
)
from .trainer import train

PROTOCOLS = {"default": ExperimentConfig, "desk": experiments.desk_protocol}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the contract-violation code, instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _default_out_root() -> Path:
    return Path(os.environ.get("SAS_OUT_DIR", "out"))


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--protocol",
        choices=PROTOCOLS,
        default="default",
        help="base config: the CLI defaults or the desk reference protocol",
    )
    parser.add_argument("--config", type=Path, help="key=value config file")
    for f in fields(ExperimentConfig):
        metavar = "BOOL" if isinstance(f.default, bool) else None
        parser.add_argument("--" + f.name.replace("_", "-"), metavar=metavar)


def _effective_config(args) -> ExperimentConfig:
    """Protocol base, then the config file, then flags; later ones win."""
    cfg = PROTOCOLS[args.protocol]()
    if args.config is not None:
        cfg = load_config_file(args.config, cfg)
    overrides = {}
    for f in fields(ExperimentConfig):
        raw = getattr(args, f.name)
        if raw is not None:
            overrides[f.name] = _coerce(raw, f.default, "--" + f.name.replace("_", "-"))
    return apply_overrides(cfg, overrides)


def _prepare_out(args, cfg: ExperimentConfig, name: str) -> Path:
    out = args.out if args.out is not None else _default_out_root() / name
    out.mkdir(parents=True, exist_ok=True)
    save_config_file(cfg, out / "config.txt")
    with open(out / "metadata.json", "w") as fh:
        json.dump({"created_unix": time.time(), "command": name}, fh)
        fh.write("\n")
    return out


def cmd_gen_data(args) -> int:
    cfg = _effective_config(args)
    out = _prepare_out(args, cfg, "gen-data")
    dataset = generate_synthetic(cfg.synth_config())
    save_dataset_csv(dataset, out / "data.csv")
    save_synth_config(cfg.synth_config(), out / "synth_config.json")
    if args.split:
        train_set, test_set = split_by_identity(dataset, cfg.train_fraction, cfg.split_seed)
        save_dataset_csv(train_set, out / "train.csv")
        save_dataset_csv(test_set, out / "test.csv")
    print(f"wrote {len(dataset)} samples to {out / 'data.csv'}")
    return 0


def cmd_train(args) -> int:
    cfg = _effective_config(args)
    if args.data is not None:
        train_set = load_dataset_csv(args.data)
    else:
        train_set, _ = experiments.make_split(cfg)
    out = _prepare_out(args, cfg, "train")
    state, log = train(train_set, cfg)
    save_checkpoint(
        out / "checkpoint.txt",
        state.params,
        state.modality_prototypes,
        state.identity_prototypes,
    )
    log.save_csv(out / "trainlog.csv")
    final = log.records[-1]["loss_total"] if log.records else float("nan")
    print(f"trained {cfg.variant} for {cfg.epochs} epochs; final loss {final:.6f}")
    print(f"checkpoint: {out / 'checkpoint.txt'}")
    return 0


def _direction_list(name: str) -> list[Direction]:
    if name == "both":
        return [Direction.VIS_TO_NIR, Direction.NIR_TO_VIS]
    return [Direction(name)]


def cmd_eval(args) -> int:
    cfg = _effective_config(args)
    params, w_mod, w_id = load_checkpoint(args.checkpoint)
    dataset = load_dataset_csv(args.data)
    reports = cross_modal_eval(params, dataset, _direction_list(cfg.direction))
    out = _prepare_out(args, cfg, "eval")
    report = {}
    for direction, rep in reports.items():
        report[direction.value] = {
            "cmc": rep.cmc.tolist(),
            "map": rep.map,
            "rank1": rep.rank1,
        }
        save_histogram_csv(rep.intra_hist, out / f"hist_intra_{direction.value}.csv")
        save_histogram_csv(rep.inter_hist, out / f"hist_inter_{direction.value}.csv")
    diag = prototype_diagnostics(w_mod, w_id)
    report["prototype_diagnostics"] = {
        k: v for k, v in diag.items() if isinstance(v, float)
    }
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    export_embeddings(params, dataset, out / "embeddings.csv")
    for key, rep in report.items():
        if key != "prototype_diagnostics":
            print(f"{key}: rank1={rep['rank1']:.4f} map={rep['map']:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _effective_config(args)
    out = _prepare_out(args, cfg, "gradcheck")
    seeds = range(args.num_seeds)
    rows = gradcheck.check_all_losses(seeds, args.tolerance, corrupt=args.corrupt)
    rows += gradcheck.check_pipeline(seeds, args.pipeline_tolerance, corrupt=args.corrupt)
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


def cmd_ablation(args) -> int:
    cfg = _effective_config(args)
    out = _prepare_out(args, cfg, "ablation")
    rows = experiments.run_ablation(cfg)
    summary = experiments.summarize(rows)
    experiments.save_rows_csv(rows, out / "ablation_runs.csv")
    experiments.save_rows_csv(summary, out / "ablation.csv")
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


def cmd_sweep(args) -> int:
    cfg = _effective_config(args)
    out = _prepare_out(args, cfg, f"sweep-{args.parameter}")
    grid = [float(v) for v in args.grid.split(",") if v.strip()]
    rows = experiments.run_sweep(cfg, args.parameter, grid)
    summary = experiments.summarize(rows, group_key="value", metrics=["mean_rank1", "mean_map"])
    experiments.save_rows_csv(rows, out / "sweep_runs.csv")
    experiments.save_rows_csv(summary, out / "sweep.csv")
    for rec in summary:
        print(
            f"{args.parameter}={rec['value']}: rank1 {rec['mean_rank1_mean']:.4f}"
            f"  map {rec['mean_map_mean']:.4f}"
        )
    return 0


def cmd_diagnose(args) -> int:
    cfg = _effective_config(args)
    if args.checkpoint is not None:
        params, w_mod, w_id = load_checkpoint(args.checkpoint)
        rep = None
        if args.data is not None:
            dataset = load_dataset_csv(args.data)
            rep = cross_modal_eval(params, dataset, [Direction.VIS_TO_NIR])[Direction.VIS_TO_NIR]
    out = _prepare_out(args, cfg, "diagnose")
    if args.checkpoint is not None:
        diag = prototype_diagnostics(w_mod, w_id)
        analysis.save_witness_json(
            {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in diag.items()},
            out / "prototype_diagnostics.json",
        )
        if rep is not None:
            save_histogram_csv(rep.intra_hist, out / "hist_intra.csv")
            save_histogram_csv(rep.inter_hist, out / "hist_inter.csv")
        print(f"mean cos(P_v, P_n) = {diag['mean_cos_vis_nir']:.4f}")
    witness = analysis.check_softmax_failure_mode(seed=args.seed_start, budget=args.budget)
    analysis.save_witness_json(witness, out / "softmax_failure_witness.json")
    print(f"softmax failure witness found after {witness['attempts']} attempts")
    ambiguity = analysis.check_fm_ambiguity(range(args.seed_start, args.seed_start + 40))
    analysis.save_witness_json(ambiguity, out / "fm_ambiguity.json")
    print(f"ambiguous unmasked steps: {ambiguity['num_ambiguous']} / 40 seeds")
    rows, ok = analysis.check_eq3_grid()
    analysis.save_eq3_csv(rows, out / "theta_probe_grid.csv")
    print(f"angular probe grid signs {'all correct' if ok else 'VIOLATED'}")
    return 0 if ok and ambiguity["num_ambiguous"] >= 1 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sas", description="Cross-modality metric learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic two-modality dataset")
    p.add_argument("--out", type=Path)
    p.add_argument("--split", action="store_true", help="also write train/test CSVs")
    _add_config_flags(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one variant")
    p.add_argument("--out", type=Path)
    p.add_argument("--data", type=Path, help="training CSV (default: generated split)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset CSV")
    p.add_argument("--out", type=Path)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p.add_argument("--out", type=Path)
    p.add_argument("--num-seeds", type=int, default=20)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--pipeline-tolerance", type=float, default=1e-5)
    p.add_argument("--corrupt", action="store_true", help="fault-injection hook")
    _add_config_flags(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablation", help="train/eval all loss variants")
    p.add_argument("--out", type=Path)
    _add_config_flags(p)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("sweep", help="hyper-parameter sweep")
    p.add_argument("--out", type=Path)
    p.add_argument("--parameter", choices=experiments.SWEEP_PARAMETERS, required=True)
    p.add_argument("--grid", required=True, help="comma-separated values")
    _add_config_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("diagnose", help="prototype diagnostics and analytic checks")
    p.add_argument("--out", type=Path)
    p.add_argument("--checkpoint", type=Path)
    p.add_argument("--data", type=Path)
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--seed-start", type=int, default=0)
    _add_config_flags(p)
    p.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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


if __name__ == "__main__":
    sys.exit(main())
