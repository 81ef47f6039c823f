"""How fast the host runs the interpreter right now, to put timings at a
fixed host speed.

On a shared host, other tenants slow every process by tens of percent for
stretches of seconds to minutes, so a timing taken in one run can differ from
the same timing in the next by more than any change to the program would move
it. A fixed piece of pure-Python work, which touches nothing of scckit, slows
with the host. The benchmark times it about every ``INTERVAL_NS`` between its
own timed operations, and scales each timing by ``REFERENCE_S`` over the
median of the latest ``SMOOTH`` reference times: the result is what the
operation would have taken while the reference ran in ``REFERENCE_S``. A change to the program moves the
scaled timing as it moves the raw one; a slower host moves both the timing
and the reference.

The reference runs with the cyclic collector off, so its time does not depend
on how many objects the program keeps alive.
"""

from __future__ import annotations

import gc
import statistics
import time

perf_ns = time.perf_counter_ns

#: Quiet-host time of one ``reference_ns()`` call: the 10th percentile of
#: 2,000 calls on an Intel Xeon (Sapphire Rapids) KVM guest with 2 vCPUs,
#: under CPython 3.11.
REFERENCE_S = 0.0037
INTERVAL_NS = 50_000_000
SMOOTH = 3


class _Node:
    __slots__ = ("name", "deps")

    def __init__(self, name, deps):
        self.name, self.deps = name, deps


def _work() -> int:
    # Small objects, string keys, frozensets, closures and method calls: the
    # kind of interpreter work a pure-Python kernel does.
    nodes = {}
    for i in range(400):
        name = f"n{i}"
        nodes[name] = _Node(name, frozenset((f"n{i // 2}", f"n{i // 3}", f"n{i // 5}")))
    total = 0
    for _ in range(6):
        reach = {}
        for node in nodes.values():
            seen = {node.name}
            for dep in node.deps:
                other = nodes.get(dep)
                if other is not None:
                    seen.add(other.name)
                    seen.update(other.deps)
            reach[node.name] = frozenset(seen)
        total += sum(len(v) for v in sorted(reach.values(), key=len))
    return total


def reference_ns() -> int:
    """Nanoseconds of one run of the fixed reference work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_ns()
        _work()
        return perf_ns() - t0
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """The host's speed as of the latest reference runs.

    ``scale()`` gives the factor that puts a timing taken just now at the
    reference speed, running the reference again when the last run is more
    than ``INTERVAL_NS`` old. ``samples`` keeps every reference time, in ns.
    """

    def __init__(self):
        self.samples: list[int] = []
        self._at = 0
        self._scale = 1.0

    def measure(self) -> float:
        self.samples.append(reference_ns())
        self._at = perf_ns()
        # The median of the latest few runs: one run that a brief stall of
        # the host slowed would otherwise mis-scale everything timed after it.
        self._scale = REFERENCE_S * 1e9 / statistics.median(self.samples[-SMOOTH:])
        return self._scale

    def scale(self) -> float:
        if perf_ns() - self._at > INTERVAL_NS:
            return self.measure()
        return self._scale
