"""Run metadata: interpreter, libraries, BLAS, thread settings, machine,
revision.  Thread variables are recorded as found; the benchmark never
sets them."""

from __future__ import annotations

import os
import platform
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def thread_env() -> dict:
    return {name: os.environ.get(name) for name in THREAD_VARS}


def _blas() -> dict:
    import numpy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return {"name": "unknown", "version": "unknown"}
    blas = deps.get("blas", {})
    return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git;
    'unknown' when the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def collect(root: Path, seed: int, env_at_start: dict) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env_at_start": env_at_start,
        "thread_env_after_import": thread_env(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "git_revision": git_revision(root),
        "seed": seed,
        "fresh_process": True,
        "process_note": ("each invocation is a new interpreter; every set-up "
                         "re-imports uwofdm, so its lru_caches (_context, "
                         "_fixed_equalizer, _dft_matrix) start empty and then "
                         "persist across the passes that follow"),
    }
