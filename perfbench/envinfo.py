"""The numeric environment a result was measured in."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np


def _cpuinfo() -> dict:
    info = {"model": None, "flags": None}
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return info
    for line in text.splitlines():
        key, _, value = line.partition(":")
        key = key.strip()
        if key == "model name" and info["model"] is None:
            info["model"] = value.strip()
        elif key == "flags" and info["flags"] is None:
            info["flags"] = value.split()
    return info


def _mem_total_mb() -> float | None:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _blas() -> dict:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no dict mode
        return {"blas": None, "lapack": None}
    deps = config.get("Build Dependencies", {})
    return {"blas": deps.get("blas"), "lapack": deps.get("lapack")}


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = root / ".git"
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
    return None


def environment(root: Path, thread_env: dict) -> dict:
    cpu = _cpuinfo()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_blas(),
        "thread_env": {k: os.environ.get(k) for k in thread_env},
        "cpu_model": cpu["model"],
        "cpu_flags": cpu["flags"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total_mb": _mem_total_mb(),
        "git_commit": git_commit(root),
    }
