"""The three benchmark workloads.

Each workload derives all of its inputs from the seed. `setup` builds what
the program reads (files, for gallery_eval) in the work directory; `prepare`
builds the in-memory arguments without timing; `run` is the timed unit;
`outputs` turns the unit's result into a digest, the values compared against
the stored reference, and the work counts behind the throughput metrics;
`verify` holds the checks that need no reference.

Package modules are always called through their module attribute so that a
traced run sees every call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
from sasoftmax import cli, core, data, encoder, experiments, trainer
from sasoftmax.config import ExperimentConfig


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _row_values(rows: list[dict]) -> dict[str, float]:
    return {
        f"{row['variant']}.{key}": val
        for row in rows
        for key, val in row.items()
        if isinstance(val, float)
    }


def _eval_pairs(test_set: core.Dataset) -> int:
    """Query x gallery pairs scored by one two-direction evaluation."""
    vis = int(np.sum(test_set.modalities == int(core.Modality.VIS)))
    return 2 * vis * (len(test_set) - vis)


def _check_rows(rows: list[dict], variants) -> list[str]:
    problems = []
    if [r["variant"] for r in rows] != list(variants):
        problems.append(f"variants {[r['variant'] for r in rows]} != {list(variants)}")
    for row in rows:
        for key, val in row.items():
            if isinstance(val, float) and not math.isfinite(val):
                problems.append(f"{row['variant']}.{key} is not finite")
        for key in ("map_vis2nir", "map_nir2vis"):
            if not 0.0 < row[key] <= 1.0:
                problems.append(f"{row['variant']}.{key}={row[key]} outside (0, 1]")
    return problems


class TrainingWorkload:
    """Shared output handling for the two workloads that train."""

    variants: tuple = ()

    def config(self, seed: int, size: str) -> ExperimentConfig:
        raise NotImplementedError

    def setup(self, seed: int, size: str, workdir: Path) -> None:
        experiments.make_split(self.config(seed, size))

    def prepare(self, seed: int, size: str, workdir: Path) -> dict:
        return {"cfg": self.config(seed, size), "seed": seed, "workdir": workdir}

    def outputs(self, ctx: dict, rows: list[dict], rep: int) -> dict:
        cfg = ctx["cfg"]
        path = ctx["workdir"] / f"rows-{rep}.csv"
        experiments.save_rows_csv(rows, path)
        _, test_set = experiments.make_split(cfg)
        steps = cfg.epochs * cfg.batches_per_epoch
        return {
            "digest": _sha256(path),
            "values": _row_values(rows),
            "mean_map": float(np.mean([r["mean_map"] for r in rows])),
            "samples": len(rows) * steps * 2 * cfg.p * cfg.k,
            "pairs": len(rows) * _eval_pairs(test_set),
        }

    def verify(self, ctx: dict, rows: list[dict]) -> list[str]:
        return _check_rows(rows, self.variants)


class DeskAblation(TrainingWorkload):
    """`experiments.run_ablation` on the desk protocol, one training seed."""

    variants = experiments.ABLATION_VARIANTS

    def config(self, seed, size):
        if size == "tiny":
            return experiments.desk_protocol(seeds=str(seed), epochs=2)
        return experiments.desk_protocol(seeds=str(seed))

    def run(self, ctx):
        return experiments.run_ablation(ctx["cfg"])


class WideTrain(TrainingWorkload):
    """`run_single` at ~600 train identities (1,200 prototype columns) and a
    PK batch of 256, where the loss kernels dominate."""

    variants = ("SAS_FM_AST", "SOFTMAX")
    # The final training loss must end below this share of the first epoch's,
    # so the reference compares learned weights rather than noise.
    max_loss_ratio = 0.8

    def config(self, seed, size):
        cfg = replace(
            ExperimentConfig(),
            num_identities=900,
            samples_per_identity_per_modality=4,
            modality_gap=0.6,
            noise_sigma=0.1,
            shared_offset=True,
            data_seed=seed,
            split_seed=seed + 1,
            p=32,
            k=4,
            epochs=20,
            batches_per_epoch=10,
            base_lr=0.3,
            seeds=str(seed),
        )
        if size == "tiny":
            cfg = replace(cfg, num_identities=30, p=8, epochs=5, batches_per_epoch=4)
        return cfg

    def run(self, ctx):
        cfg = ctx["cfg"]
        split = experiments.make_split(cfg)
        return [experiments.run_single(cfg, v, ctx["seed"], split=split) for v in self.variants]

    def verify(self, ctx, rows):
        problems = super().verify(ctx, rows)
        for row in rows:
            if not row["final_train_loss"] < self.max_loss_ratio * row["initial_train_loss"]:
                problems.append(
                    f"{row['variant']} loss did not fall: "
                    f"{row['initial_train_loss']} -> {row['final_train_loss']}"
                )
        return problems


class GalleryEval:
    """In-process `sas eval` on a SYSU-MM01-sized test set (5,000 samples per
    modality) and an initialised checkpoint, both written during set-up.
    Evaluation cost does not depend on whether the weights were trained."""

    directions = ("vis2nir", "nir2vis")
    # One fixed initialisation for every seed: the seed varies the data, so
    # mean_map moves little from seed to seed.
    checkpoint_seed = 0
    # Tolerance of the benchmark's own CMC/mAP recomputation.
    oracle_tol = 1e-9

    def synth(self, seed: int, size: str) -> data.SynthConfig:
        n, k = (10, 5) if size == "tiny" else (250, 20)
        return data.SynthConfig(
            num_identities=n,
            samples_per_identity_per_modality=k,
            input_dim=32,
            modality_gap=0.3,
            noise_sigma=0.1,
            seed=seed,
        )

    def setup(self, seed, size, workdir):
        dataset = data.generate_synthetic(self.synth(seed, size))
        core.save_dataset_csv(dataset, workdir / "gallery.csv")
        state = trainer.init_train_state(dataset, trainer.TrainConfig(seed=self.checkpoint_seed))
        encoder.save_checkpoint(
            workdir / "checkpoint.txt",
            state.params,
            state.modality_prototypes,
            state.identity_prototypes,
        )

    def prepare(self, seed, size, workdir):
        cfg = self.synth(seed, size)
        return {"workdir": workdir, "rows": 2 * cfg.num_identities * cfg.samples_per_identity_per_modality}

    def run(self, ctx):
        wd = ctx["workdir"]
        argv = ["eval", "--checkpoint", str(wd / "checkpoint.txt"),
                "--data", str(wd / "gallery.csv"), "--out", str(wd / "eval")]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"sas eval exited with {code}")
        return wd / "eval"

    def outputs(self, ctx, out_dir: Path, rep: int) -> dict:
        report = json.loads((out_dir / "report.json").read_text())
        values = {}
        for d in self.directions:
            cmc = report[d]["cmc"]
            values.update({f"{d}.map": report[d]["map"], f"{d}.rank1": report[d]["rank1"]})
            values.update({f"{d}.cmc{r}": cmc[r - 1] for r in (5, 10, 20) if r <= len(cmc)})
        for key, val in report["prototype_diagnostics"].items():
            values[f"prototype_diagnostics.{key}"] = val
        per_modality = ctx["rows"] // 2
        return {
            "digest": _sha256(out_dir / "report.json"),
            "values": values,
            "mean_map": float(np.mean([report[d]["map"] for d in self.directions])),
            "samples": ctx["rows"],
            "pairs": 2 * per_modality * per_modality,
        }

    def verify(self, ctx, out_dir: Path) -> list[str]:
        """Recompute CMC and mAP from the exported embeddings with a
        vectorized stable sort (ties: lower gallery index first) and compare
        with report.json."""
        report = json.loads((out_dir / "report.json").read_text())
        with open(out_dir / "embeddings.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        ids = np.array([int(r[0]) for r in rows])
        vis = np.array([r[1] == "V" for r in rows])
        emb = np.array([[float(v) for v in r[2:]] for r in rows])
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        problems = []
        for d, q_mask in (("vis2nir", vis), ("nir2vis", ~vis)):
            cmc, mean_ap = _oracle_cmc_map(emb[q_mask], ids[q_mask], emb[~q_mask], ids[~q_mask])
            got = report[d]
            if abs(got["map"] - mean_ap) > self.oracle_tol:
                problems.append(f"{d} map {got['map']!r} != oracle {mean_ap!r}")
            if np.max(np.abs(np.array(got["cmc"]) - cmc)) > self.oracle_tol:
                problems.append(f"{d} cmc differs from oracle")
        return problems


def _oracle_cmc_map(q, q_ids, g, g_ids, chunk=500):
    n_q, n_g = len(q), len(g)
    cmc = np.zeros(n_g)
    ap_sum = 0.0
    ranks = np.arange(1, n_g + 1)
    for lo in range(0, n_q, chunk):
        sim = q[lo:lo + chunk] @ g.T
        order = np.argsort(-sim, axis=1, kind="stable")
        rel = g_ids[order] == q_ids[lo:lo + chunk, None]
        first = rel.argmax(axis=1)
        np.add.at(cmc, first, 1.0)
        precision = np.cumsum(rel, axis=1) / ranks
        ap_sum += float(((precision * rel).sum(axis=1) / rel.sum(axis=1)).sum())
    return np.cumsum(cmc) / n_q, ap_sum / n_q


WORKLOADS = {
    "desk_ablation": DeskAblation(),
    "wide_train": WideTrain(),
    "gallery_eval": GalleryEval(),
}
