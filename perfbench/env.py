"""Where the program under test lives, and what a result records about its run."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SRC = ROOT / "src"


def bootstrap() -> None:
    """Put the checkout's sources on the path.

    Exits with status 2 when the checkout does not hold the program, so a
    copy of the benchmark alone never reports a result.
    """
    package = SRC / "scckit" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: not a scckit checkout, missing {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for subprocesses that import the checkout's scckit."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def provenance(workload: str, seed: int, trace: int, seconds: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "git_commit": _git_commit(),
    }


def _git_commit() -> str | None:
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None
