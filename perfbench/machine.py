"""Environment record and machine-speed probe.

The record says what a result was measured on: CPU count, BLAS library and
its live thread setting, interpreter and library versions, the source
revision, and the harness worker count. The speed probe is a fixed
pure-numpy loop timed beside every repeat, so run-to-run spread can be put
down to the machine rather than to the code.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import time

import numpy as np
import scipy

from bootstrap import ROOT

# Thread-count getters exported by the OpenBLAS builds numpy and scipy ship
# (64-bit-integer and plain builds, with and without the scipy prefix).
_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_GETTERS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return []
    return sorted(p for p in paths if ".so" in p)


def _first_symbol(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn
    return None


def blas_libraries() -> list[dict]:
    """Name, configuration string and live thread count of each loaded
    OpenBLAS; ``threads`` is None when the library exports no getter."""
    import scipy.linalg  # noqa: F401  (maps scipy's own BLAS too)

    out = []
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        threads = _first_symbol(lib, _THREAD_GETTERS, ctypes.c_int)
        config = _first_symbol(lib, _CONFIG_GETTERS, ctypes.c_char_p)
        out.append(
            {
                "library": os.path.basename(path),
                "config": config().decode() if config else None,
                "threads": threads() if threads else None,
            }
        )
    return out


def unpinned_blas(libs: list[dict]) -> list[str]:
    """Libraries whose live thread count is not 1."""
    return [f"{b['library']} runs {b['threads']} threads" for b in libs if b["threads"] not in (None, 1)]


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def environment(blas: list[dict]) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    numpy_blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": numpy_blas.get("name"),
        "blas_version": numpy_blas.get("version"),
        "blas_loaded": blas,
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "simojed_workers": os.environ.get("SIMOJED_WORKERS"),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
    }


_PROBE_N = 17
_PROBE_ROUNDS = 400


def speed_probe() -> float:
    """Milliseconds for a fixed loop of small complex mat-vec products,
    norms and clips, the operation mix of one solver iteration."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((_PROBE_N, _PROBE_N)) + 1j * rng.standard_normal((_PROBE_N, _PROBE_N))
    A /= np.linalg.norm(A, 2)
    x = np.ones(_PROBE_N, dtype=np.complex128)
    t0 = time.perf_counter()
    for _ in range(_PROBE_ROUNDS):
        y = A @ x
        x = np.clip(y.real, -1.0, 1.0) + 1j * np.clip(y.imag, -1.0, 1.0)
        x /= max(float(np.linalg.norm(x)), 1e-12)
    return (time.perf_counter() - t0) * 1e3
