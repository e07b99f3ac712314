"""Smoke check of the benchmark's own code.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that the
result line carries exactly the metrics BENCHMARK.json names, all finite, with
every unit passing its output check; that the per-module self times of a
traced run add up to its traced wall time; that every per-layer metric is
produced by at least one workload; and that the benchmark exits non-zero,
without a result line, when the checkout holds only BENCHMARK.json and the
benchmark's own files. Takes well under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from checkout import ROOT

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(workload: str, trace: int, failures: list[str]) -> set[str]:
    done = run(workload, trace)
    label = f"{workload} trace={trace}"
    if done.returncode != 0:
        failures.append(f"{label}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
        return set()
    result = json.loads(done.stdout.strip().splitlines()[-1])
    specs = BENCH["per_layer" if trace else "end_to_end"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        failures.append(f"{label}: output check failed")
    metrics = result["metrics"]
    if list(metrics) != [m["name"] for m in specs]:
        failures.append(f"{label}: metric names differ from BENCHMARK.json")
    for m in specs:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not math.isfinite(got.get("value", math.nan)):
            failures.append(f"{label}: bad metric {m['name']}: {got}")
    if trace:
        modules = [m["name"] for m in specs
                   if m["name"].count(".") == 1 and m["name"].endswith(".self_s")]
        total = metrics["bench.unit.self_s"]["value"] + sum(metrics[m]["value"] for m in modules)
        wall = metrics["trace.wall_s"]["value"]
        if not math.isclose(total, wall, rel_tol=1e-9):
            failures.append(f"{label}: layer self times sum to {total!r}, traced wall {wall!r}")
    if not trace:
        return set()
    workdir = ROOT / ".perfbench_work" / f"{workload}-tiny-seed0"
    record = json.loads((workdir / "result.json").read_text())
    return {m["name"] for m in specs} - set(record["not_produced"])


def check_without_program(failures: list[str]) -> None:
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run(BENCH["workloads"][0]["name"], 0, cwd=bare)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 or (lines and lines[-1].startswith("{")):
        failures.append("benchmark did not fail in a checkout without the program")
    shutil.rmtree(bare)


def main() -> int:
    failures: list[str] = []
    produced: set[str] = set()
    for w in BENCH["workloads"]:
        for trace in (0, 1):
            produced |= check_result(w["name"], trace, failures)
    missing = {m["name"] for m in BENCH["per_layer"]} - produced
    if missing:
        failures.append(f"per-layer metrics no workload produces: {sorted(missing)}")
    check_without_program(failures)
    for f in failures:
        print("FAIL", f)
    print("smoke check", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
