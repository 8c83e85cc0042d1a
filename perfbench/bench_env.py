"""Locating and importing linres from the checkout, and run provenance."""

from __future__ import annotations

import importlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"


def import_linres(fresh: bool = False):
    """Import linres from ./src and the test corpus from ./tests/corpus.py.

    With *fresh*, drop every linres module and the corpus first so the
    import runs the module code again; the benchmark times set-up that way.
    """
    for path in (SRC / "linres" / "__init__.py", TESTS / "corpus.py"):
        if not path.is_file():
            raise SystemExit(f"{path.relative_to(ROOT)} not found under {ROOT}")
    for path in (TESTS, SRC):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    if fresh:
        for name in [m for m in sys.modules
                     if m in ("linres", "corpus") or m.startswith("linres.")]:
            del sys.modules[name]
    lr = importlib.import_module("linres")
    importlib.import_module("linres.cli")
    importlib.import_module("corpus")
    return lr


def _git_commit() -> str:
    """HEAD of the checkout read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, workload: str) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }
