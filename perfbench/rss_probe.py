"""Run one round of a workload, untraced, and print the peak memory it adds.

Usage: python perfbench/rss_probe.py <workload> <seed>

The workload's inputs and references (for webcam-stream, every frame of the
stream and the frame each emit must deliver) are built before the round and
stay alive through it, so they are not the program's memory. The probe reads
the resident set once they are built, runs the round, and reports the peak
over the whole process minus that baseline: what the program itself (its
parsed specs, runtimes and action logs) held at the peak.
"""

from __future__ import annotations

import gc
import json
import sys

import env


def main(argv: list[str]) -> None:
    env.bootstrap()
    import harness
    from tracing import NullTracer

    workload = harness.WORKLOADS[argv[0]](int(argv[1]))
    ledger = harness.Ledger()
    gc.collect()
    base_kib = _status_kib("VmRSS")
    workload.round(NullTracer(), harness.Stats(), ledger)
    peak_kib = _status_kib("VmHWM")
    print(json.dumps({"peak_rss_mb": (peak_kib - base_kib) / 1024, "base_rss_mb": base_kib / 1024,
                      "peak_mb": peak_kib / 1024, "attempted": ledger.attempted,
                      "failed": ledger.failed, "errors": ledger.errors}))


def _status_kib(field: str) -> int:
    # Read from this process's own status: ru_maxrss would also count the
    # parent's pages this process held between fork and exec.
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise LookupError(f"/proc/self/status has no {field}")


if __name__ == "__main__":
    main(sys.argv[1:])
