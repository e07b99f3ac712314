"""Ablation and hyper-parameter sweep harness.

Runs are deterministic per (config, seed). The ablation and the sweep each
build a list of jobs and run it through `_run_jobs`. Sweeps fan out over seeds
before grid points; the order is kept so that `sweep_runs.csv` keeps its bytes.
"""

from __future__ import annotations

import mmap
import signal
from dataclasses import replace

import numpy as np

from . import core
from .config import ExperimentConfig
from .core import atomic_write
from .core import save_rows_csv  # noqa: F401  re-exported: the writer of experiment rows
from .data import generate_synthetic, split_by_identity
from .errors import ContractViolation
from .evaluation import (
    Direction,
    cross_modal_eval,
    histogram_overlap,
    prototype_diagnostics,
)
from .trainer import VARIANTS, batch_schedule, train

# the variants trained with the combined SAS-family loss, in table order
ABLATION_VARIANTS = tuple(v for v, switches in VARIANTS.items() if switches is not None)

# Reference configuration for the direction-reproduction experiments.
#
# Per-identity offsets at high input dimension put held-out identities'
# modality structure outside anything learnable from the training identities,
# so the comparison protocol uses the shared-offset generator. The crowded
# low-dimensional regime (40 train identities in 4 dimensions, linear
# encoder) is where asynchronous prototype optimization measurably separates
# the variants; the higher learning rate compensates for the tiny parameter
# count, and the softer similarity penalty keeps it from dominating the
# masked objective at this scale.
DESK_PROTOCOL_OVERRIDES = dict(
    shared_offset=True,
    input_dim=4,
    embed_dim=4,
    hidden_dims=(),
    base_lr=0.25,
    beta=0.5,
)


def desk_protocol(**overrides) -> ExperimentConfig:
    """ExperimentConfig for the reference ablation/sweep protocol."""
    merged = {**DESK_PROTOCOL_OVERRIDES, **overrides}
    return replace(ExperimentConfig(), **merged)


# each sweepable parameter and the variant its grid points train
SWEEP_PARAMETERS = {
    "alpha": "SAS_FM",
    "beta": "SAS_FM_AST",
    "am_margin": "AM_SOFTMAX",
    "circle_gamma": "CIRCLE",
}


def make_split(cfg: ExperimentConfig):
    dataset = generate_synthetic(cfg.synth_config())
    return split_by_identity(dataset, cfg.train_fraction, cfg.split_seed)


def run_single(cfg: ExperimentConfig, variant: str, seed: int, split) -> dict:
    """Train one variant with one seed; evaluate both directions on the test
    identities. Runs on one `split` share each seed's batch schedule, which
    the train set memoizes. Returns a flat metrics row."""
    train_set, test_set = split
    state, log = train(train_set, replace(cfg, variant=variant, seed=seed))
    result = cross_modal_eval(state.params, test_set, list(Direction))
    (cmc_vn, map_vn), (cmc_nv, map_nv) = (result.ranked[d] for d in Direction)
    rank1_vn, rank1_nv = float(cmc_vn[0]), float(cmc_nv[0])
    diag = prototype_diagnostics(state.modality_prototypes, state.identity_prototypes)
    row = {
        "variant": variant,
        "seed": seed,
        "map_vis2nir": map_vn,
        "map_nir2vis": map_nv,
        "rank1_vis2nir": rank1_vn,
        "rank1_nir2vis": rank1_nv,
        "mean_map": 0.5 * (map_vn + map_nv),
        "mean_rank1": 0.5 * (rank1_vn + rank1_nv),
        "test_intra_cross_cosine": result.intra_cosine_mean,
        "hist_overlap": histogram_overlap(result.intra_hist, result.inter_hist),
        "proto_cos_vis_nir": diag["mean_cos_vis_nir"],
        "final_train_loss": log.records[-1]["loss_total"] if log.records else float("nan"),
        "initial_train_loss": log.records[0]["loss_total"] if log.records else float("nan"),
    }
    return row


def _run_jobs(cfg: ExperimentConfig, jobs: list) -> list[dict]:
    """Rows `{**run_single(point, ...), **extra}` for each job `(point, seed,
    extra)`, in job order, all on one split of `cfg`'s data; `point` is the
    config the job trains, its variant included. Before training anything it
    rules out no jobs (an empty seed list), a variant-dependent bad value
    (SAS_FM_AST with beta 0) in any job's loss mapping, and P above the train
    identities; values out of range already failed when each config was built.

    The jobs run on W = min(CPUs, jobs) processes: this one and W - 1 forked
    children, which share the split and every seed's batch schedule, drawn
    here first. Job i runs here when (n - 1 - i) % W == 0, so this process
    always runs the last job: a tracer sees only the calling process, and
    the ablation's last variant, SAS_FM_WM, is the only one that reaches the
    weight-masked loss. OpenBLAS is held to one thread from before the fork
    until the children are joined, so a row's bits do not depend on W. Its
    count is set once, not around each job: restoring it re-creates its
    worker thread, which then spins for a while on the CPU another process's
    job needs. With one CPU, one job or no `fork`, W is 1 and no child is
    made. A job that raises stops every later job in job order from
    starting; the first failing job's exception, type and message unchanged,
    reaches the caller once the other processes are done. No child outlives
    the call, whether it returns or raises, ^C included."""
    split = make_split(cfg)
    if not jobs:
        raise ContractViolation("seeds: needs at least one seed, got an empty list")
    for point, _, _ in jobs:
        point.loss_config()
    for point, seed, _ in jobs:  # P above the train identities fails here
        batch_schedule(split[0], replace(point, seed=seed))
    workers = min(core._cpu_count(), len(jobs))
    fork = _fork_context() if workers > 1 else None
    workers = workers if fork is not None else 1
    children = []
    # one byte per job, shared with the children: 1 once the job has failed
    with mmap.mmap(-1, len(jobs)) as failed, core._one_blas_thread():
        try:
            for share in range(1, workers):
                receive, send = fork.Pipe(duplex=False)
                child = fork.Process(
                    target=_child, args=(send, jobs, split, workers, share, failed), daemon=True
                )
                child.start()
                send.close()
                children.append((child, receive))
            outcomes = _run_share(jobs, split, workers, 0, failed)
            for share, (child, receive) in enumerate(children, 1):
                try:
                    outcomes.update(receive.recv())
                except EOFError:  # it ended before reporting: each of its jobs failed
                    child.join()
                    lost = ChildProcessError(f"a job process ended with exit code {child.exitcode}")
                    outcomes.update(dict.fromkeys(_share(len(jobs), workers, share), lost))
                child.join()
        finally:
            for child, receive in children:
                child.terminate()  # no signal to one already joined
                child.join()
                child.close()
                receive.close()
    errors = [outcomes[i] for i in sorted(outcomes) if isinstance(outcomes[i], Exception)]
    if errors:
        raise errors[0]
    return [outcomes[i] for i in range(len(jobs))]


def _fork_context():
    """multiprocessing's `fork` context, or None where there is no fork."""
    # imported here: at module level it slowed every start-up by about 30% of desk's set-up
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _share(n: int, workers: int, share: int) -> range:
    """Indices of the jobs of process `share` (0: the caller), ascending."""
    return range((n - 1 - share) % workers, n, workers)


def _run_share(jobs: list, split, workers: int, share: int, failed) -> dict:
    """{job index: its row, or the exception it raised} over the share's
    jobs; none starts once an earlier job in job order has failed, in any
    process."""
    outcomes = {}
    for i in _share(len(jobs), workers, share):
        if failed.find(b"\x01", 0, i) != -1:
            break
        point, seed, extra = jobs[i]
        try:
            outcomes[i] = {**run_single(point, point.variant, seed, split), **extra}
        except Exception as exc:
            outcomes[i] = exc
            failed[i] = 1
    return outcomes


def _child(send, *share) -> None:
    """A forked child's work: run its share and send the outcomes. ^C is
    left to the caller, which ends its children."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    send.send(_run_share(*share))


def run_ablation(cfg: ExperimentConfig) -> list[dict]:
    points = [replace(cfg, variant=v) for v in ABLATION_VARIANTS]
    return _run_jobs(cfg, [(point, seed, {}) for point in points for seed in cfg.seed_list()])


def summarize(rows: list[dict], group_key: str = "variant", metrics=None) -> list[dict]:
    """Mean and standard deviation of metrics per group, in first-seen order."""
    if metrics is None:
        metrics = [
            "mean_rank1",
            "mean_map",
            "map_vis2nir",
            "map_nir2vis",
            "test_intra_cross_cosine",
            "hist_overlap",
            "proto_cos_vis_nir",
        ]
    groups: dict = {}  # keeps first-seen order
    for row in rows:
        groups.setdefault(row[group_key], []).append(row)
    out = []
    for key, members in groups.items():
        rec = {group_key: key, "num_seeds": len(members)}
        for m in metrics:
            vals = np.array([r[m] for r in members])
            rec[f"{m}_mean"] = float(vals.mean())
            rec[f"{m}_std"] = float(vals.std())
        out.append(rec)
    return out


def run_sweep(cfg: ExperimentConfig, parameter: str, grid: list[float]) -> list[dict]:
    if parameter not in SWEEP_PARAMETERS:
        raise ContractViolation(f"unknown sweep parameter {parameter!r}")
    if not grid:
        raise ContractViolation("sweep grid must be non-empty")
    variant = SWEEP_PARAMETERS[parameter]
    # beta = 0 is the AST term switched off: plain SAS_FM
    points = [
        replace(cfg, **{parameter: value},
                variant="SAS_FM" if parameter == "beta" and value == 0.0 else variant)
        for value in grid
    ]
    return _run_jobs(cfg, [
        (point, seed, {"parameter": parameter, "value": value})
        for seed in cfg.seed_list()
        for value, point in zip(grid, points)
    ])


def save_markdown_table(rows: list[dict], path, columns: list[str]) -> None:
    if not rows:
        raise ContractViolation("no rows to write")
    with atomic_write(path) as fh:
        fh.write("| " + " | ".join(columns) + " |\n")
        fh.write("|" + "|".join(["---"] * len(columns)) + "|\n")
        for row in rows:
            cells = [
                f"{row[c]:.4f}" if isinstance(row[c], float) else str(row[c]) for c in columns
            ]
            fh.write("| " + " | ".join(cells) + " |\n")
