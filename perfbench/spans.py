"""In-memory span tracer that wraps the package's public functions from outside.

Callers bind names at import (`from .data import pk_sample`), so patching the
defining module alone would miss most calls. `Tracer.install` therefore
replaces every module attribute, in every loaded module of the package, that
is one of the package's public functions, and patches the listed methods on
their classes. Each call records a span (name, start, end, parent); counters
for the layer boundaries named in COUNT_HOOKS accumulate alongside.

Self time of a span is its duration minus the durations of its direct
children, so the self times of all spans under one root add up to the root's
duration exactly.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PACKAGE = "sasoftmax"

# (module, class, method) patched on the class itself.
METHODS = (("core", "Dataset", "indices_of"),)


def _file_bytes(param):
    def hook(counts, name, bound, result):
        counts[f"{name}.bytes"] += os.path.getsize(bound[param])

    return hook


def _cosine_counts(counts, name, bound, result):
    counts[f"{name}.pairs"] += bound["queries"].shape[0] * bound["gallery"].shape[0]
    counts[f"{name}.bytes_computed"] += result.nbytes


def _cmc_queries(counts, name, bound, result):
    counts[f"{name}.queries"] += bound["sim"].shape[0]


# Exact work counts at layer boundaries; they repeat bit-for-bit across runs.
COUNT_HOOKS = {
    "evaluation.cosine_matrix": _cosine_counts,
    "evaluation.cmc_map": _cmc_queries,
    "core.load_dataset_csv": _file_bytes("path"),
    "encoder.load_checkpoint": _file_bytes("path"),
    "evaluation.export_embeddings": _file_bytes("path"),
    "evaluation.save_histogram_csv": _file_bytes("path"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._undo: list[tuple] = []

    def _open(self, name: str) -> int:
        i = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, name: str, fn):
        hook = COUNT_HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if hook is not None:
                hook(self.counts, name, sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public package function at each of its lookup sites."""
        modules = [
            m for key, m in sys.modules.items()
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj) and obj.__module__.startswith(PACKAGE)):
                    continue
                if obj.__name__.startswith("_"):
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__[len(PACKAGE) + 1:]
                    wrappers[id(obj)] = self._wrap(f"{layer}.{obj.__qualname__}", obj)
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-function self time and calls, per-module self time, derived
        ratios and percentiles, and the hook counters."""
        starts = np.array(self.starts)
        dur = np.array(self.ends) - starts
        parents = np.array(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_time = dur - child

        out: dict[str, float] = defaultdict(float)
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, name in enumerate(self.names):
            by_name[name].append(i)
        for name, idx in by_name.items():
            out[f"{name}.self_s"] = float(self_time[idx].sum())
            out[f"{name}.calls"] = float(len(idx))
            module = name.split(".", 1)[0]
            if module != "bench":
                out[f"{module}.self_s"] += float(self_time[idx].sum())
        steps = by_name.get("trainer.train_step", [])
        if steps:
            ms = dur[steps] * 1e3
            out["trainer.train_step.ms_p50"] = float(np.percentile(ms, 50))
            out["trainer.train_step.ms_p99"] = float(np.percentile(ms, 99))
            out["losses.combined_loss.calls_per_step"] = (
                out.get("losses.combined_loss.calls", 0.0) / len(steps)
            )
        samples = out.get("data.pk_sample.calls", 0.0)
        if samples:
            out["data.pk_sample.indices_of_per_call"] = (
                out.get("core.Dataset.indices_of.calls", 0.0) / samples
            )
        roots = [i for i, p in enumerate(self.parents) if p < 0]
        out["trace.wall_s"] = float(dur[roots].sum())
        out["trace.spans"] = float(len(self.names))
        out.update(self.counts)
        return dict(out)

    def write(self, path) -> None:
        """Spans as CSV, times in seconds from the first span's start."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for i, (name, s, e, p) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                fh.write(f"{i},{name},{s - t0!r},{e - t0!r},{p}\n")
