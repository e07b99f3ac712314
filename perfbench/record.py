"""Record reference outputs for the benchmark's output check.

    python3 perfbench/record.py --workload desk_ablation --seeds 0-23

For each seed, runs the workload's set-up and one unit in this process,
applies the workload's own checks, and stores the output digest and values in
perfbench/references/<workload>.json (entries for other seeds are kept). Run
it in a checkout of the commit whose outputs are the reference, usually the
parent of a change under test, to cover seeds that have no stored reference.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import checkout

REFERENCES = checkout.ROOT / "perfbench" / "references"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    checkout.use_checkout_src()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="e.g. 0-23 or 1,5,9")
    args = parser.parse_args(argv)

    work = workloads.WORKLOADS[args.workload]
    path = REFERENCES / f"{args.workload}.json"
    refs = json.loads(path.read_text()) if path.is_file() else {}
    workdir = checkout.ROOT / ".perfbench_work" / f"record-{args.workload}"
    for seed in parse_seeds(args.seeds):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        work.setup(seed, "full", workdir)
        ctx = work.prepare(seed, "full", workdir)
        raw = work.run(ctx)
        out = work.outputs(ctx, raw, 0)
        problems = work.verify(ctx, raw)
        if problems:
            print(f"seed {seed}: output check failed: {problems}", file=sys.stderr)
            return 1
        refs[str(seed)] = {"digest": out["digest"], "values": out["values"]}
        print(f"seed {seed}: {out['digest']} mean_map {out['mean_map']!r}", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    REFERENCES.mkdir(exist_ok=True)
    ordered = dict(sorted(refs.items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(ordered, indent=1, sort_keys=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
