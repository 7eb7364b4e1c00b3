"""Machine and software metadata recorded with every result."""

from __future__ import annotations

import glob
import os
import platform
import subprocess
import sys


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = {}
            for name in ("level", "type", "size"):
                with open(os.path.join(index, name), encoding="utf-8") as fh:
                    fields[name] = fh.read().strip()
        except OSError:
            continue
        kind = {"Data": "d", "Instruction": "i"}.get(fields["type"], "")
        caches[f"L{fields['level']}{kind}"] = fields["size"]
    return caches


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown", "version": "unknown"}


def _git_commit(root: str) -> str:
    """HEAD of the repository whose top level is ``root``, else "unknown"
    (a benchmark checkout need not be a git repository)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return "unknown"
    if os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


def collect(root: str, blas_threads: int) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "platform": platform.platform(),
        "executable": os.path.basename(sys.executable),
        "git_commit": _git_commit(root),
    }
