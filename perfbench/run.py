"""Benchmark entry point: one workload, one seed, measured for a time budget.

    python3 perfbench/run.py --workload desk_ablation --seed 1 --seconds 30 --trace 0

Set-up runs SETUP_REPS times and each timed unit runs in its own fresh
worker process (worker.py); both report medians. With `--trace 0` every unit
is untraced and the result holds the end-to-end metrics named in
BENCHMARK.json. With `--trace 1` traced and untraced units alternate and the
result holds the per-layer metrics, taken from the traced unit with the
median wall time, plus the tracing overhead against the untraced ones.

Every unit's output is checked: against the workload's own invariants (first
unit only), against the other units of the run (bit-identical reruns), and,
when perfbench/references holds the seed, against the stored reference. A
unit fails when it raises, breaks an invariant or leaves the reference's
tolerance; a unit that differs from the reference only within tolerance
counts as not bit-identical but not as failed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Lines before it give the machine
record and a readable summary; the full record goes to
.perfbench_work/<workload>-<size>-seed<seed>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkout import PACKAGE_DIR, ROOT

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
REFERENCES = HERE / "references"
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_REPS = 5
MIN_UNITS = 3
# Stop starting units once the whole run would pass this many seconds.
DEADLINE_S = 165.0
# A unit whose digest differs from the reference still passes when every
# value is within this tolerance (summation-order changes stay below it).
REL_TOL, ABS_TOL = 1e-6, 1e-9


class WorkerFailed(Exception):
    pass


def run_worker(spec: dict, workdir: Path, timeout: float) -> tuple[dict, float]:
    """Run one worker; return its result and its peak RSS in MiB."""
    result_path = workdir / f"{spec['phase']}-{spec['rep']}.json"
    spec = {**spec, "workdir": str(workdir), "result": str(result_path)}
    log_path = workdir / "worker.log"
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), json.dumps(spec)],
            stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
        )
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise WorkerFailed(f"{spec['phase']} {spec['rep']} timed out after {timeout:.0f}s")
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log_path.read_text(errors="replace").strip().splitlines()[-1:]
        raise WorkerFailed(f"{spec['phase']} {spec['rep']} exited {proc.returncode}: {tail}")
    return json.loads(result_path.read_text()), usage.ru_maxrss / 1024.0


def within_tolerance(got: dict, ref: dict) -> list[str]:
    if set(got) != set(ref):
        return [f"value keys differ: {sorted(set(got) ^ set(ref))}"]
    return [
        f"{k}: {got[k]!r} vs reference {ref[k]!r}"
        for k in sorted(ref)
        if not abs(got[k] - ref[k]) <= ABS_TOL + REL_TOL * abs(ref[k])
    ]


def load_reference(workload: str, size: str, seed: int) -> dict | None:
    path = REFERENCES / f"{workload}.json"
    if size != "full" or not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def check_units(units: list[dict], reference: dict | None) -> dict:
    """Mark each unit ok or failed; count bit-identical matches."""
    first_digest = None
    identical = 0
    for unit in units:
        if "error" in unit:
            continue
        problems = list(unit.pop("problems", []))
        if first_digest is None:
            first_digest = unit["digest"]
        elif unit["digest"] != first_digest:
            problems.append("output differs from the first unit of this run")
        if reference is not None:
            if unit["digest"] == reference["digest"]:
                identical += 1
            else:
                problems += within_tolerance(unit["values"], reference["values"])
        if problems:
            unit["error"] = "; ".join(problems)
    return {"outputs_bit_identical": identical, "units_compared": len(units) if reference else 0}


def main(argv=None) -> int:
    bench = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the smoke check")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: no package at {PACKAGE_DIR}", file=sys.stderr)
        return 2

    started = time.monotonic()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.size}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    base = {"workload": args.workload, "seed": args.seed, "size": args.size}

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    try:
        setups = [
            run_worker({**base, "phase": "setup", "rep": i, "record_env": i == 0},
                       workdir, remaining())[0]
            for i in range(SETUP_REPS)
        ]
    except WorkerFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    env = {**setups[0]["env"], "workload": args.workload, "seed": args.seed, "size": args.size}
    print("env " + json.dumps(env, sort_keys=True))

    units: list[dict] = []
    measure_start = time.monotonic()
    while True:
        durations = [u["elapsed"] for u in units]
        typical = statistics.median(durations) if durations else 0.0
        if len(units) >= MIN_UNITS and time.monotonic() - measure_start + typical > args.seconds:
            break
        if units and remaining() < typical:
            break
        i = len(units)
        traced = bool(args.trace) and i % 2 == 1
        spec = {**base, "phase": "unit", "rep": i, "trace": traced, "verify": i == 0}
        t0 = time.monotonic()
        try:
            unit, rss = run_worker(spec, workdir, remaining())
            unit.update(peak_rss_mb=rss)
        except WorkerFailed as exc:
            unit = {"error": str(exc)}
        unit.update(rep=i, traced=traced, elapsed=time.monotonic() - t0)
        units.append(unit)

    reference = load_reference(args.workload, args.size, args.seed)
    check = check_units(units, reference)
    failed = sum("error" in u for u in units)
    good = [u for u in units if "error" not in u]
    for u in units:
        kind = "traced" if u["traced"] else "untraced"
        status = f"FAILED {u['error']}" if "error" in u else f"wall {u['wall_s']:.3f}s"
        print(f"unit {u['rep']} ({kind}): {status}")
    print(
        f"check: {len(units)} units, {failed} failed, "
        f"{check['outputs_bit_identical']}/{check['units_compared']} bit-identical to the stored reference"
        + ("" if reference else " (no reference stored for this seed)")
    )
    plain = [u for u in good if not u["traced"]]
    if not plain or (args.trace and not any(u["traced"] for u in good)):
        print("error: no successful unit to report", file=sys.stderr)
        return 1

    def med(key):
        return statistics.median(u[key] for u in plain)

    e2e = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "samples_per_s": statistics.median(u["samples"] / u["wall_s"] for u in plain),
        "eval_pairs_per_s": statistics.median(u["pairs"] / u["wall_s"] for u in plain),
        "peak_rss_mb": med("peak_rss_mb"),
        "mean_map": plain[0]["mean_map"],
    }
    if args.trace:
        traced = sorted((u for u in good if u["traced"]), key=lambda u: u["wall_s"])
        layers = dict(traced[(len(traced) - 1) // 2]["layers"])
        layers["trace.untraced_wall_s"] = e2e["wall_s"]
        layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["wall_s"]
        layers["check.outputs_bit_identical"] = check["outputs_bit_identical"]
        layers["check.units_compared"] = check["units_compared"]
        layers["check.error_rate"] = failed / len(units)
        specs, values = bench["per_layer"], layers
    else:
        specs, values = bench["end_to_end"], e2e
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in specs}
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")

    record = {
        "env": env,
        "setup_s": [s["setup_s"] for s in setups],
        "units": units,
        "check": check,
        "metrics": metrics,
        "not_produced": sorted(m["name"] for m in specs if m["name"] not in values),
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
