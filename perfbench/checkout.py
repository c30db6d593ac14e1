"""Where the package source lives in this checkout, and the process settings.

Every benchmark entry point calls :func:`prepare` before anything imports
numpy, because the BLAS and OpenMP thread pools are sized when numpy loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin native thread pools to one thread; put the checkout's src first on sys.path."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "newton_landweber" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))


def verify_source(module) -> None:
    """Refuse to measure a newton_landweber imported from outside this checkout."""
    origin = Path(module.__file__).resolve()
    if not origin.is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported {origin}, not the package under {SRC}")


def commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
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
