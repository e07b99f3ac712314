import multiprocessing
import os
import time
from dataclasses import replace

import pytest

from sasoftmax import cli, core, experiments, trainer
from sasoftmax.core import Dataset
from sasoftmax.errors import ContractViolation, NumericError
from sasoftmax.experiments import (
    ABLATION_VARIANTS,
    desk_protocol,
    make_split,
    run_ablation,
    run_single,
    run_sweep,
    save_rows_csv,
)


def small_protocol(**kw):
    return desk_protocol(**{"seeds": "1,2", "epochs": 3, **kw})


def fresh_split(split):
    """Copies of the split's datasets, each with an empty schedule memo."""
    return tuple(
        Dataset(d.features, d.identities, d.modalities, d.num_identities, d.input_dim)
        for d in split
    )


class TestSharedSchedules:
    def test_ablation_rows_match_private_schedules_byte_for_byte(self, tmp_path):
        cfg = small_protocol()
        split = make_split(cfg)
        private = [
            run_single(cfg, v, s, split=fresh_split(split))
            for v in ABLATION_VARIANTS
            for s in cfg.seed_list()
        ]
        save_rows_csv(run_ablation(cfg), tmp_path / "shared.csv")
        save_rows_csv(private, tmp_path / "private.csv")
        assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "private.csv").read_bytes()

    def test_sweep_rows_match_private_schedules_byte_for_byte(self, tmp_path):
        cfg = small_protocol()
        split = make_split(cfg)
        grid = [0.0, 0.5]
        private = []
        for seed in cfg.seed_list():
            for value in grid:
                variant = "SAS_FM" if value == 0.0 else "SAS_FM_AST"
                row = run_single(replace(cfg, beta=value), variant, seed, split=fresh_split(split))
                private.append({**row, "parameter": "beta", "value": value})
        save_rows_csv(run_sweep(cfg, "beta", grid), tmp_path / "shared.csv")
        save_rows_csv(private, tmp_path / "private.csv")
        assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "private.csv").read_bytes()

    def test_runs_on_one_split_draw_each_batch_once(self, monkeypatch):
        cfg = small_protocol(seeds="1")
        split = make_split(cfg)
        calls = []
        draw = trainer.pk_sample
        monkeypatch.setattr(trainer, "pk_sample", lambda *a: calls.append(a[3]) or draw(*a))
        run_single(cfg, "SAS_FM_AST", 1, split=split)
        run_single(cfg, "SOFTMAX", 1, split=split)
        assert len(calls) == cfg.epochs * cfg.batches_per_epoch

    @pytest.mark.parametrize("run", [run_ablation, lambda cfg: run_sweep(cfg, "alpha", [0.3, 0.7])])
    def test_ablation_and_sweep_draw_each_seeds_batches_once(self, monkeypatch, run):
        cfg = small_protocol()
        calls = []
        draw = trainer.pk_sample
        monkeypatch.setattr(trainer, "pk_sample", lambda *a: calls.append(a[3]) or draw(*a))
        run(cfg)
        assert len(calls) == len(cfg.seed_list()) * cfg.epochs * cfg.batches_per_epoch


class TestValidatesBeforeTraining:
    @pytest.mark.parametrize(
        "run, message",
        [
            (lambda: run_ablation(small_protocol(seeds="1,2,3", beta=-1.0)), "beta"),
            (lambda: run_ablation(small_protocol(alpha=2.0)), "alpha"),
            (lambda: run_ablation(small_protocol(p=100)), "P exceeds"),
            (lambda: run_sweep(small_protocol(), "beta", [0.5, -1.0]), "beta"),
            (lambda: run_sweep(small_protocol(), "alpha", [0.5, 1.5]), "alpha"),
            # the head-only variants' values are checked when each point is built
            (lambda: run_sweep(small_protocol(), "am_margin", [0.1, -0.2]), "am_margin"),
            (lambda: run_sweep(small_protocol(), "circle_gamma", [32.0, 0.0]), "circle_gamma"),
            (lambda: run_sweep(small_protocol(), "alpha", [0.5, float("nan")]), "alpha"),
            (lambda: run_sweep(small_protocol(seeds=""), "alpha", [0.5]), "needs at least one seed"),
        ],
    )
    def test_bad_value_trains_nothing(self, monkeypatch, run, message):
        calls = []
        monkeypatch.setattr(experiments, "train", lambda *a, **kw: calls.append(a))
        with pytest.raises(ContractViolation, match=message):
            run()
        assert len(calls) == 0


class TestRunJobs:
    def test_variant_dependent_bad_value_trains_nothing(self, monkeypatch):
        """beta 0 is valid for the first three variants and bad only for
        SAS_FM_AST, the fourth: the ablation fails before training any."""
        calls = []
        monkeypatch.setattr(experiments, "train", lambda *a, **kw: calls.append(a))
        with pytest.raises(ContractViolation, match="SAS_FM_AST requires beta > 0"):
            run_ablation(small_protocol(beta=0.0))
        assert calls == []

    @pytest.mark.parametrize(
        "run", [run_ablation, lambda cfg: run_sweep(cfg, "beta", [0.0, 0.5, 1.0])]
    )
    def test_failing_job_reaches_the_caller_and_stops_the_list(self, monkeypatch, run):
        """On one CPU the jobs run in this process, in order. The second job
        raises: its error reaches the caller unchanged and no later job runs."""
        monkeypatch.setattr(core, "_cpu_count", lambda: 1)
        started = []

        def fail_second(cfg, variant, seed, split):
            started.append((variant, seed))
            if len(started) == 2:
                raise NumericError(f"loss_total is not finite in {variant} seed {seed}")
            return {"variant": variant, "seed": seed}

        monkeypatch.setattr(experiments, "run_single", fail_second)
        cfg = small_protocol()
        with pytest.raises(NumericError) as info:
            run(cfg)
        variant, seed = started[1]
        assert str(info.value) == f"loss_total is not finite in {variant} seed {seed}"
        assert len(started) == 2


GRID = [0.0, 0.5, 1.0]
# per run: the runner, a job's key from (point, seed), and the keys in job order
RUNS = {
    "ablation": (
        run_ablation,
        lambda point, seed: (point.variant, seed),
        [(v, s) for v in ABLATION_VARIANTS for s in (1, 2)],
    ),
    "sweep": (
        lambda cfg: run_sweep(cfg, "beta", GRID),
        lambda point, seed: (point.beta, seed),
        [(b, s) for s in (1, 2) for b in GRID],
    ),
}


def fake_jobs(monkeypatch, name, job):
    """Replace run_single by `job(i, variant, seed)`, i the job's index."""
    _, key, order = RUNS[name]
    monkeypatch.setattr(
        experiments, "run_single",
        lambda point, variant, seed, split: job(order.index(key(point, seed)), variant, seed),
    )


class TestJobPool:
    """`_run_jobs` on the caller and W - 1 forked children, W = min(CPUs, jobs)."""

    @pytest.fixture(scope="class")
    def serial_rows(self, tmp_path_factory):
        """The ablation's and the sweep's CSV bytes on one CPU."""
        path = tmp_path_factory.mktemp("serial") / "rows.csv"
        out = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_cpu_count", lambda: 1)
            for name, (run, _, _) in RUNS.items():
                save_rows_csv(run(small_protocol()), path)
                out[name] = path.read_bytes()
        return out

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("name", RUNS)
    def test_rows_byte_identical_at_any_cpu_count(
        self, monkeypatch, tmp_path, serial_rows, workers, name
    ):
        monkeypatch.setattr(core, "_cpu_count", lambda: workers)
        save_rows_csv(RUNS[name][0](small_protocol()), tmp_path / "rows.csv")
        assert (tmp_path / "rows.csv").read_bytes() == serial_rows[name]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_jobs_split_over_processes_and_the_caller_runs_the_last(self, monkeypatch, workers):
        """Job i runs in the caller when (n - 1 - i) % W == 0; each other
        share runs in a child of its own, with OpenBLAS held to one thread."""
        threads = [4]
        monkeypatch.setattr(
            core, "_openblas",
            lambda: ("fake", lambda: threads[0], lambda n: threads.__setitem__(0, n)),
        )
        monkeypatch.setattr(core, "_cpu_count", lambda: workers)
        fake_jobs(
            monkeypatch, "ablation", lambda i, v, s: {"i": i, "pid": os.getpid(), "blas": threads[0]}
        )
        rows = run_ablation(small_protocol())
        n = len(rows)
        assert [row["i"] for row in rows] == list(range(n))
        pids = {}
        for i, row in enumerate(rows):
            pids.setdefault((n - 1 - i) % workers, set()).add(row["pid"])
        assert pids[0] == {os.getpid()}
        assert all(len(p) == 1 for p in pids.values())
        assert len(set().union(*pids.values())) == min(workers, n)
        assert {row["blas"] for row in rows} == {1}
        assert threads == [4]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blas_thread_count_set_once_per_call(self, monkeypatch, workers):
        """The count is set to 1 once before the jobs and restored once
        after them, not around each job: each restore re-creates OpenBLAS's
        worker thread, which then spins beside the other processes' jobs."""
        counts = []
        monkeypatch.setattr(
            core, "_openblas", lambda: ("fake", lambda: 4, counts.append)
        )
        monkeypatch.setattr(core, "_cpu_count", lambda: workers)
        fake_jobs(monkeypatch, "ablation", lambda i, v, s: {"variant": v, "seed": s})
        run_ablation(small_protocol())
        assert counts == [1, 4]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [2, 3, 8])
    @pytest.mark.parametrize("name", RUNS)
    def test_first_failing_job_in_job_order_reaches_the_caller(self, monkeypatch, workers, name):
        """Jobs 2 and 5 raise: job 2's error reaches the caller, type and
        message unchanged, whichever process ran either, and no child is
        left. Job 0 takes 0.2 s; at W = 2 job 2 runs after it in a child
        and starts after job 5, in the caller, has failed."""
        monkeypatch.setattr(core, "_cpu_count", lambda: workers)

        def fail_2_and_5(i, variant, seed):
            if i == 0:
                time.sleep(0.2)
            if i in (2, 5):
                raise NumericError(f"loss_total is not finite in {variant} seed {seed}")
            return {"variant": variant, "seed": seed}

        fake_jobs(monkeypatch, name, fail_2_and_5)
        with pytest.raises(NumericError) as info:
            RUNS[name][0](small_protocol())
        order = RUNS[name][2]
        variant = order[2][0] if name == "ablation" else "SAS_FM_AST"
        assert str(info.value) == f"loss_total is not finite in {variant} seed {order[2][1]}"
        assert multiprocessing.active_children() == []

    def test_a_child_that_dies_fails_its_jobs(self, monkeypatch):
        """A child that ends without reporting (here by os._exit; the OOM
        killer would do the same) fails its first job with its exit code."""
        monkeypatch.setattr(core, "_cpu_count", lambda: 2)
        caller = os.getpid()

        def job(i, variant, seed):
            if os.getpid() != caller:
                os._exit(7)
            return {"variant": variant, "seed": seed}

        fake_jobs(monkeypatch, "ablation", job)
        with pytest.raises(ChildProcessError, match="^a job process ended with exit code 7$"):
            run_ablation(small_protocol())
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("name", RUNS)
    def test_schedules_drawn_once_in_the_caller(self, monkeypatch, tmp_path, workers, name):
        """Every seed's batches are drawn before forking: each pk_sample call
        is the caller's, one per step and seed."""
        monkeypatch.setattr(core, "_cpu_count", lambda: workers)
        log = tmp_path / "draws"
        draw = trainer.pk_sample

        def logged(*args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return draw(*args)

        monkeypatch.setattr(trainer, "pk_sample", logged)
        cfg = small_protocol()
        RUNS[name][0](cfg)
        pids = log.read_text().split()
        assert set(pids) == {str(os.getpid())}
        assert len(pids) == len(cfg.seed_list()) * cfg.epochs * cfg.batches_per_epoch

    @pytest.mark.parametrize("workers", [2, 3])
    def test_no_job_starts_after_a_failure(self, monkeypatch, tmp_path, workers):
        """Job 1 raises; every other job waits until it has, then returns.
        Each process started only its first job: none started once the
        failure was seen."""
        monkeypatch.setattr(core, "_cpu_count", lambda: workers)
        log = tmp_path / "started"
        log.touch()

        def fail_1(i, variant, seed):
            with open(log, "a") as fh:
                fh.write(f"{i}\n" if i != 1 else "1\nfailed\n")
            if i == 1:
                raise ContractViolation("job 1 failed")
            deadline = time.monotonic() + 30
            while "failed" not in log.read_text() and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)  # the failure is recorded once the exception leaves the job
            return {"variant": variant, "seed": seed}

        fake_jobs(monkeypatch, "ablation", fail_1)
        with pytest.raises(ContractViolation, match="^job 1 failed$"):
            run_ablation(small_protocol())
        n = len(RUNS["ablation"][2])
        started = {int(line) for line in log.read_text().split() if line != "failed"}
        assert started == {(n - 1 - share) % workers for share in range(workers)}
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("fail", [None, 0, 9])
    def test_blas_thread_count_restored(self, monkeypatch, workers, fail):
        """OpenBLAS's thread count is the caller's again after a return, and
        after a raise in the caller's last job (9) or in job 0, a child's
        at W = 2."""
        blas = core._openblas()
        count = (lambda: blas[1]()) if blas is not None else (lambda: None)
        before = count()
        monkeypatch.setattr(core, "_cpu_count", lambda: workers)

        def job(i, variant, seed):
            if i == fail:
                raise NumericError(f"job {i}")
            return {"variant": variant, "seed": seed}

        fake_jobs(monkeypatch, "ablation", job)
        if fail is None:
            run_ablation(small_protocol())
        else:
            with pytest.raises(NumericError, match=f"^job {fail}$"):
                run_ablation(small_protocol())
        assert count() == before
        assert multiprocessing.active_children() == []

    def test_interrupt_ends_the_children(self, monkeypatch):
        """^C in the caller's job, while the children are in theirs: the
        interrupt reaches the caller and the children are ended."""
        monkeypatch.setattr(core, "_cpu_count", lambda: 3)
        caller = os.getpid()

        def job(i, variant, seed):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(60)

        fake_jobs(monkeypatch, "ablation", job)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_ablation(small_protocol())
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "error, code, prefix",
        [(NumericError, 2, "numeric failure: "), (ContractViolation, 1, "error: "),
         (MemoryError, 3, "out of memory: ")],
    )
    def test_failure_in_a_child_reaches_the_cli(
        self, monkeypatch, tmp_path, capsys, error, code, prefix
    ):
        """`sas ablation` on 2 CPUs: the child runs jobs 1 and 3 and both
        raise. Job 1's error gives the exit code and the one stderr line,
        and no output is written."""
        monkeypatch.setattr(core, "_cpu_count", lambda: 2)
        caller = os.getpid()

        def fail_in_child(point, variant, seed, split):
            if os.getpid() != caller:
                raise error(f"{variant} seed {seed} failed")
            return {"variant": variant, "seed": seed}

        monkeypatch.setattr(experiments, "run_single", fail_in_child)
        out = tmp_path / "out"
        argv = ["ablation", "--protocol", "desk", "--seeds", "1", "--epochs", "1", "--out", str(out)]
        assert cli.main(argv) == code
        assert capsys.readouterr().err.splitlines() == [f"{prefix}{ABLATION_VARIANTS[1]} seed 1 failed"]
        assert not out.exists()
