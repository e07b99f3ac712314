"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints a PASS/FAIL
line (run with -s to see them). The direction-reproduction criteria (3-6, 10)
all run on the frozen desk protocol from sasoftmax.experiments.desk_protocol;
the ablation is trained once per module and shared.
"""

import hashlib
import importlib.util
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sasoftmax.analysis import check_eq3_grid, check_fm_ambiguity, check_softmax_failure_mode
from sasoftmax.data import generate_synthetic
from sasoftmax.encoder import save_checkpoint
from sasoftmax.experiments import (
    desk_protocol,
    make_split,
    run_ablation,
    run_sweep,
    save_rows_csv,
    summarize,
)
from sasoftmax.gradcheck import check_all_losses, check_pipeline
from sasoftmax import evaluation
from sasoftmax.evaluation import cmc_map
from sasoftmax.trainer import train
from test_eval import brute_force_cmc_map

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCES = PERFBENCH / "references" / "desk_ablation.json"


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


@pytest.fixture(scope="module")
def ablation_rows():
    """One full desk-protocol ablation (5 variants x 3 seeds), shared by
    criteria 3, 4, 5 and 6 and the golden-output check."""
    start = time.monotonic()
    rows = run_ablation(desk_protocol())
    return rows, time.monotonic() - start


@pytest.fixture(scope="module")
def ablation_summary(ablation_rows):
    rows, elapsed = ablation_rows
    summary = {r["variant"]: r for r in summarize(rows)}
    return summary, elapsed


def test_desk_rows_bit_identical_to_references(ablation_rows, tmp_path):
    """Each seed's rows, written as the benchmark writes them, hash to the
    digest recorded in perfbench/references/desk_ablation.json."""
    rows, _ = ablation_rows
    refs = json.loads(REFERENCES.read_text())
    mismatched = []
    for seed in desk_protocol().seed_list():
        path = tmp_path / f"rows-{seed}.csv"
        save_rows_csv([r for r in rows if r["seed"] == seed], path)
        if hashlib.sha256(path.read_bytes()).hexdigest() != refs[str(seed)]["digest"]:
            mismatched.append(seed)
    report("golden desk rows", not mismatched, f"seeds differing from the references: {mismatched}")
    assert not mismatched


def perfbench_workload(name: str):
    """The benchmark's own workload object, loaded from perfbench/ by path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS[name]


def test_wide_rows_bit_identical_to_references(tmp_path):
    """One wide_train unit (1,200 prototype columns, a 256-sample batch), run
    through the benchmark's own workload code, hashes to the digest recorded
    in perfbench/references/wide_train.json."""
    work, seed = perfbench_workload("wide_train"), 7
    work.setup(seed, "full", tmp_path)
    ctx = work.prepare(seed, "full", tmp_path)
    rows = work.run(ctx)
    digest = work.outputs(ctx, rows, 0)["digest"]
    expected = json.loads((PERFBENCH / "references" / "wide_train.json").read_text())[str(seed)]
    # the wide products round differently at another OpenBLAS thread count
    blas = evaluation._openblas()
    blas = "no OpenBLAS found" if blas is None else f"{blas[0]} at {blas[1]()} threads"
    report("golden wide rows", digest == expected["digest"], f"seed {seed} digest {digest}, {blas}")
    assert digest == expected["digest"], f"seed {seed} digest {digest} with {blas}"
    assert work.verify(ctx, rows) == []


def test_gallery_report_bit_identical_to_references(tmp_path):
    """One gallery_eval unit (`sas eval` on 5,000 samples per modality), run
    through the benchmark's own workload code: report.json hashes to the
    digest in perfbench/references/gallery_eval.json, and the workload's
    oracle, which recomputes CMC/mAP from embeddings.csv, agrees."""
    work, seed = perfbench_workload("gallery_eval"), 3
    work.setup(seed, "full", tmp_path)
    ctx = work.prepare(seed, "full", tmp_path)
    out_dir = work.run(ctx)
    digest = work.outputs(ctx, out_dir, 0)["digest"]
    expected = json.loads((PERFBENCH / "references" / "gallery_eval.json").read_text())[str(seed)]
    report("golden gallery report", digest == expected["digest"], f"seed {seed} digest {digest}")
    assert digest == expected["digest"]
    assert work.verify(ctx, out_dir) == []


# sha256 of trainlog.csv and of the save_checkpoint bytes after six desk
# epochs (seed 1); no ablation or benchmark digest trains these variants
HEAD_ONLY_DIGESTS = {
    "AM_SOFTMAX": (
        "c4a919b168cd9cde55e111cb3d36bcedff2442a1a316ff57e867d702b8d1c7f7",
        "407a4648a77fda75716b1b293e064daa7d2d27ca7615058aebb671d4c4d6225f",
    ),
    "CIRCLE": (
        "42b6c35abb1a3db48eb7fc3c8326b275ba38a0349f382b41b6330f11d5bdd14d",
        "9721298dd8ad35af34aab135e5d6a2364ce358290889ec759403924afe0e33fd",
    ),
}


@pytest.mark.parametrize("variant", sorted(HEAD_ONLY_DIGESTS))
def test_head_only_variants_bit_identical_to_recorded_digests(variant, tmp_path):
    """The identity-head-only variants, trained at the desk protocol, write
    the training log and checkpoint whose digests are recorded above."""
    cfg = desk_protocol(epochs=6, seed=1, variant=variant)
    state, log = train(make_split(cfg)[0], cfg)
    log.save_csv(tmp_path / "trainlog.csv")
    save_checkpoint(tmp_path / "checkpoint.txt", state.params,
                    state.modality_prototypes, state.identity_prototypes)
    got = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("trainlog.csv", "checkpoint.txt")
    )
    report(f"golden {variant} training", got == HEAD_ONLY_DIGESTS[variant], f"digests {got}")
    assert got == HEAD_ONLY_DIGESTS[variant]


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    rows = check_all_losses(range(20), tolerance=1e-6)
    rows += check_pipeline(range(20), tolerance=1e-5)
    elapsed = time.monotonic() - start
    failures = [r for r in rows if not r.passed]
    worst = max(r.rel_error for r in rows)
    ok = not failures and elapsed < 30.0
    report(
        "criterion 1 (gradient correctness)",
        ok,
        f"{len(rows)} checks, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )
    assert not failures
    assert elapsed < 30.0


def test_criterion_2_evaluator_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    mismatches = 0
    for case in range(100):
        n_q = int(rng.integers(1, 7))
        n_g = int(rng.integers(2, 11))
        g_ids = rng.integers(0, 3, size=n_g)
        q_ids = g_ids[rng.integers(0, n_g, size=n_q)]
        sim = rng.normal(size=(n_q, n_g))
        if case % 3 == 0:
            sim = np.round(sim)  # constructed ties
        cmc, mean_ap = cmc_map(sim, q_ids, g_ids)
        ref_cmc, ref_map = brute_force_cmc_map(sim, q_ids, g_ids)
        if not (np.allclose(cmc, ref_cmc, atol=1e-12) and abs(mean_ap - ref_map) < 1e-12):
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 5.0
    report(
        "criterion 2 (evaluator oracle)",
        ok,
        f"100 instances, {mismatches} mismatches, {elapsed:.2f}s",
    )
    assert mismatches == 0
    assert elapsed < 5.0


def test_criterion_3_ablation_ordering(ablation_summary):
    summary, elapsed = ablation_summary
    m = {k: v["mean_map_mean"] for k, v in summary.items()}
    tie = 0.005  # 0.5 mAP points
    ast_ok = m["SAS_FM_AST"] >= m["SAS_FM"] - tie
    fm_ok = m["SAS_FM"] >= m["SAS"] - tie
    gap = m["SAS"] - m["SOFTMAX"]
    gap_ok = gap >= 0.03
    time_ok = elapsed < 600.0
    ok = ast_ok and fm_ok and gap_ok and time_ok
    report(
        "criterion 3 (ablation ordering)",
        ok,
        "mAP AST {:.4f} / FM {:.4f} / SAS {:.4f} / SOFTMAX {:.4f}; "
        "SAS-SOFTMAX gap {:.1f} pts; {:.0f}s".format(
            m["SAS_FM_AST"], m["SAS_FM"], m["SAS"], m["SOFTMAX"], 100 * gap, elapsed
        ),
    )
    assert ast_ok
    assert fm_ok
    assert gap_ok
    assert time_ok


def test_criterion_4_weight_mask_underperforms(ablation_summary):
    summary, _ = ablation_summary
    wm = summary["SAS_FM_WM"]["mean_map_mean"]
    fm = summary["SAS_FM"]["mean_map_mean"]
    ok = wm < fm
    report(
        "criterion 4 (weight mask underperforms)",
        ok,
        f"mAP WM {wm:.4f} < FM {fm:.4f}",
    )
    assert ok


def test_criterion_5_weight_mask_aligns_prototypes(ablation_summary):
    summary, _ = ablation_summary
    wm = summary["SAS_FM_WM"]["proto_cos_vis_nir_mean"]
    fm = summary["SAS_FM"]["proto_cos_vis_nir_mean"]
    ok = wm > fm
    report(
        "criterion 5 (prototype similarity under WM)",
        ok,
        f"mean cos(P_v, P_n) WM {wm:.4f} > FM {fm:.4f}",
    )
    assert ok


def test_criterion_6_similarity_distributions(ablation_summary):
    summary, _ = ablation_summary
    ast_cos = summary["SAS_FM_AST"]["test_intra_cross_cosine_mean"]
    sm_cos = summary["SOFTMAX"]["test_intra_cross_cosine_mean"]
    ast_ov = summary["SAS_FM_AST"]["hist_overlap_mean"]
    sm_ov = summary["SOFTMAX"]["hist_overlap_mean"]
    ok = ast_cos > sm_cos and ast_ov < sm_ov
    report(
        "criterion 6 (similarity histograms)",
        ok,
        f"intra cross cosine {ast_cos:.4f} > {sm_cos:.4f}; "
        f"overlap {ast_ov:.4f} < {sm_ov:.4f}",
    )
    assert ok


def test_criterion_7_angular_probe():
    rows, ok_signs = check_eq3_grid()
    # probe vs finite difference of the two-class loss; the log1p form keeps
    # full relative precision even where the loss saturates near zero
    def loss(ti, tj, s):
        zi, zj = s * np.cos(ti), s * np.cos(tj)
        return np.log1p(np.exp(zj - zi))

    h = 1e-6
    worst = 0.0
    for r in rows[:: len(rows) // 50]:
        ti, tj, s = r["theta_i"], r["theta_j"], r["s"]
        fd = (loss(ti + h, tj, s) - loss(ti - h, tj, s)) / (2 * h)
        worst = max(worst, abs(r["d_loss_d_theta_i"] - fd) / max(abs(fd), 1e-300))
    ok = ok_signs and worst <= 1e-6
    report(
        "criterion 7 (angular derivative claims)",
        ok,
        f"{len(rows)} grid points, all signs correct={ok_signs}, "
        f"worst probe-vs-FD rel err {worst:.2e}",
    )
    assert ok_signs
    assert worst <= 1e-6


def test_criterion_8_failure_witness_and_ambiguity():
    witness = check_softmax_failure_mode(seed=0, budget=1_000_000)
    ambiguity = check_fm_ambiguity(range(40))
    ok = witness["checks"]["all_hold"] and ambiguity["num_ambiguous"] >= 1
    report(
        "criterion 8 (failure witness + masking ambiguity)",
        ok,
        f"witness after {witness['attempts']} attempts; "
        f"{ambiguity['num_ambiguous']}/40 ambiguous unmasked steps",
    )
    assert witness["checks"]["all_hold"]
    assert ambiguity["num_ambiguous"] >= 1


def test_criterion_9_determinism(tmp_path):
    cfg = desk_protocol(
        num_identities=8,
        samples_per_identity_per_modality=4,
        epochs=3,
        batches_per_epoch=3,
        p=4,
        k=2,
    )
    dataset = generate_synthetic(cfg.synth_config())
    paths = []
    for tag in ("a", "b"):
        _, log = train(dataset, replace(cfg, seed=1))
        path = tmp_path / f"log_{tag}.csv"
        log.save_csv(path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    report(
        "criterion 9 (determinism)",
        identical,
        "repeated run produced bit-identical training CSV",
    )
    assert identical


def test_criterion_10_hyperparameter_directions():
    cfg = desk_protocol()
    alpha_rows = run_sweep(cfg, "alpha", [0.0, 0.3, 0.5, 0.7, 1.0])
    alpha = {
        r["value"]: r["mean_map_mean"]
        for r in summarize(alpha_rows, group_key="value", metrics=["mean_map"])
    }
    # interior behavior: alpha=0.7 must not trail BOTH endpoints by > 0.5 pts
    alpha_ok = (alpha[0.7] >= alpha[0.0] - 0.005) or (alpha[0.7] >= alpha[1.0] - 0.005)

    beta_rows = run_sweep(cfg, "beta", [1.0, 4.0])
    beta = {
        r["value"]: r["mean_map_mean"]
        for r in summarize(beta_rows, group_key="value", metrics=["mean_map"])
    }
    beta_ok = beta[4.0] < beta[1.0]
    ok = alpha_ok and beta_ok
    report(
        "criterion 10 (hyper-parameter directions)",
        ok,
        "alpha sweep "
        + ", ".join(f"{k}:{v:.4f}" for k, v in sorted(alpha.items()))
        + f"; beta 1.0 {beta[1.0]:.4f} vs 4.0 {beta[4.0]:.4f}",
    )
    assert alpha_ok
    assert beta_ok
