"""One set-up or one timed unit, in a fresh process.

    python3 perfbench/worker.py '<json spec>'

run.py starts one worker per set-up and per unit, so every unit starts cold
as a `sas` command does and its peak RSS is its own. The worker writes its
result as JSON to the path named in the spec.
"""

from time import perf_counter, process_time

STARTED = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    import checkout

    checkout.use_checkout_src()
    import sasoftmax.cli  # noqa: F401  (loads every module the tracer patches)
    import spans
    import workloads

    work = workloads.WORKLOADS[spec["workload"]]
    workdir = Path(spec["workdir"])
    seed, size = spec["seed"], spec["size"]
    result: dict = {}
    if spec["phase"] == "setup":
        work.setup(seed, size, workdir)
        result["setup_s"] = perf_counter() - STARTED
        if spec["record_env"]:
            result["env"] = checkout.environment()
    else:
        ctx = work.prepare(seed, size, workdir)
        tracer = spans.Tracer() if spec["trace"] else None
        if tracer is not None:
            tracer.install()
        t0, c0 = perf_counter(), process_time()
        with tracer.root("bench.unit") if tracer else nullcontext():
            raw = work.run(ctx)
        wall, cpu = perf_counter() - t0, process_time() - c0
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            tracer.write(workdir / f"spans-{spec['rep']}.csv")
        result.update(work.outputs(ctx, raw, spec["rep"]), wall_s=wall, cpu_s=cpu)
        if spec["verify"]:
            result["problems"] = work.verify(ctx, raw)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
