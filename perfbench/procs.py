"""Measurements that need a fresh process: the `scc` CLI and peak memory."""

from __future__ import annotations

import json
import subprocess
import sys
import time

from env import BENCH, ROOT, child_env

TIMEOUT_S = 120


def time_command(argv: list[str], ledger=None, expected_stdout: str | None = None) -> float:
    """Wall seconds of one run of ``python <argv>``; its exit status and
    output are checked when ``ledger`` is given."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if ledger is not None:
        ok = proc.returncode == 0 and (expected_stdout is None or proc.stdout == expected_stdout)
        ledger.record(ok, f"{' '.join(argv[:3])}: exit {proc.returncode} or output differs")
    return elapsed


def peak_rss(workload: str, seed: int, ledger) -> dict:
    """Memory figures, in MB, of a fresh process running one round of the
    workload; ``peak_rss_mb`` is the peak the program adds to its inputs."""
    proc = subprocess.run([sys.executable, str(BENCH / "rss_probe.py"), workload, str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        ledger.record(False, f"rss probe exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return {"peak_rss_mb": float("nan")}
    result = json.loads(proc.stdout.splitlines()[-1])
    ledger.add(result.pop("attempted"), result.pop("failed"), result.pop("errors"))
    return result
