"""Process set-up shared by the benchmark entry points.

Imports only the standard library, so it can pin the thread environment
before numpy is imported, and it imports ``simojed`` from the ``src/`` tree
of the checkout the benchmark sits in, never from an installed copy.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Every variable that can give numpy's BLAS more than one thread, plus the
# harness worker count. Each must read "1" before numpy is imported.
PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SIMOJED_WORKERS")


def pin_environment() -> str | None:
    """Set each pinned variable to 1 unless the caller already set it.

    Returns an error message when a variable is set to anything else, or
    when numpy was imported before the variables could take effect.
    """
    for var in PINNED_ENV:
        value = os.environ.setdefault(var, "1")
        if value != "1":
            return f"{var}={value!r}: the benchmark runs single-threaded and needs {var}=1"
    if "numpy" in sys.modules:
        return "numpy was imported before the BLAS thread count could be pinned"
    return None


def import_simojed():
    """Import the package from ``<checkout>/src``; raise ImportError if the
    checkout has no source tree or the import resolves elsewhere."""
    if not (SRC / "simojed" / "__init__.py").is_file():
        raise ImportError(f"no simojed source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("simojed")
    if Path(pkg.__file__).resolve().parent != SRC / "simojed":
        raise ImportError(f"simojed resolved to {pkg.__file__}, not the checkout's src/")
    return pkg
