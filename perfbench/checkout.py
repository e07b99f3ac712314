"""The checkout under test and the machine it runs on.

The benchmark always measures the package in this checkout's `src/`, never an
installed copy, and records enough about the machine to compare two results.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "sasoftmax"


def use_checkout_src() -> None:
    """Put this checkout's `src/` first on the import path and make sure the
    package really comes from there."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise SystemExit(f"no package at {PACKAGE_DIR}: run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import sasoftmax

    if Path(sasoftmax.__file__).resolve().parent != PACKAGE_DIR.resolve():
        raise SystemExit(f"sasoftmax imported from {sasoftmax.__file__}, not {PACKAGE_DIR}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> dict:
    """BLAS library and the thread count it actually runs with. OpenBLAS
    threads are left at their default; this only records them."""
    import numpy

    info: dict = {"library": None, "version": None, "threads": None}
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(library=dep.get("name"), version=dep.get("version"))
    except (KeyError, TypeError):
        pass
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                info["threads"] = fn()
                return info
    return info


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_sha256() -> str:
    """Digest of the package sources; identifies the code when the checkout
    is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }
