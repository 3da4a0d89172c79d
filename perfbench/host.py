"""Facts about the host and the build a result was measured on."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

# Pinned to 1 by run.py before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_BLAS_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
_BLAS_CONFIG = ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config")


def facts(root):
    import numpy as np

    blas_config, blas_threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_config or _numpy_blas_version(np),
        "blas_threads": blas_threads,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": git_sha(root),
    }


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas():
    """(config string, threads in use) from the OpenBLAS numpy loaded, if any."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None, None
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        config = threads = None
        for name in _BLAS_CONFIG:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_char_p
                config = fn().decode(errors="replace").strip()
                break
        for name in _BLAS_THREADS:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        return config, threads
    return None, None


def _numpy_blas_version(np):
    try:
        return np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return None


def git_sha(root):
    """Commit of the checkout, read from .git without running git; None outside a repository."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None
