"""The two workloads, the timed paths they share, and the output checks.

Every path goes through scckit's public functions, the way `scc` and an
embedding application would call them:

- check: ``parse``, ``validate``, ``derive_all``, ``render_contract`` per
  contract (the in-process path of ``scc check --contracts``);
- graph: ``build_flow_graph``, ``export_graph`` as dot and json, and
  ``source_ancestors`` of every action (the in-process path of ``scc graph``
  plus the query "which sources can reach this effect");
- setup: from spec to a sealed runtime;
- emit: one ``Runtime.emit``, timed from the call until it returns, with the
  runtime drained. The loop is closed and runs in one thread.

Each operation is checked against a reference the benchmark computes itself
(see ``gen``); an operation fails if it raises or its output differs.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass, field

import scckit
from scckit import DataType, RecordingSink, ScriptedSource, SourceText, Value

import gen
from hostspeed import HostClock

perf_ns = time.perf_counter_ns


class Ledger:
    """Operations attempted and failed, with the first few failures described."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    def add(self, attempted: int, failed: int, errors) -> None:
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors[: max(0, 20 - len(self.errors))])


TIMED = ("setup", "check", "graph", "emit")


@dataclass
class Stats:
    """Timings in ns, one entry per operation, each with the host-speed scale
    at the time it was taken (see ``hostspeed``), and what the emits delivered."""

    setup: list = field(default_factory=list)
    check: list = field(default_factory=list)
    graph: list = field(default_factory=list)
    emit: list = field(default_factory=list)
    scales: dict = field(default_factory=lambda: {kind: [] for kind in TIMED})
    clock: HostClock = field(default_factory=HostClock)
    rounds: list = field(default_factory=list)  # per round: (end index in each list, ns)
    deliveries: int = 0
    taint_total: int = 0

    def add(self, kind: str, ns: int) -> None:
        getattr(self, kind).append(ns)
        self.scales[kind].append(self.clock.scale())

    def scaled(self, kind: str) -> list:
        """The samples of ``kind`` in ns at the reference host speed."""
        return [ns * s for ns, s in zip(getattr(self, kind), self.scales[kind])]

    def delivered(self, log) -> None:
        self.deliveries += len(log)
        self.taint_total += sum(len(tv.taints) for _, tv in log)

    def ends(self) -> tuple:
        return tuple(len(getattr(self, kind)) for kind in TIMED)

    def per_round(self, kind: str) -> list[list]:
        """The samples of ``kind`` at the reference host speed, split by the
        round that took them."""
        i, start, out = TIMED.index(kind), 0, []
        samples = self.scaled(kind)
        for ends, _ in self.rounds:
            if ends[i] > start:
                out.append(samples[start:ends[i]])
            start = ends[i]
        return out


# -- shared paths ---------------------------------------------------------------

def run_check(text: str, tracer, stats: Stats, ledger: Ledger, expected_lines=None):
    """Time the check path on ``text``; returns (spec, contract lines) or None."""
    t0 = perf_ns()
    try:
        with tracer.root("check"):
            spec = tracer.call("parser.parse", scckit.parse, SourceText(text, "<bench>"))
            tracer.count("parser.decls", len(spec.declarations))
            report = tracer.call("decls.validate", scckit.validate, spec)
            contracts = tracer.call("contracts.derive_all", scckit.derive_all, spec)
            with tracer.span("contracts.render"):
                lines = tuple(f"{name}: {scckit.render_contract(c)}" for name, c in contracts.items())
    except Exception as exc:
        ledger.record(False, f"check raised {exc!r}")
        return None
    stats.add("check", perf_ns() - t0)
    ok = not report and (expected_lines is None or lines == expected_lines)
    ledger.record(ok, "check: diagnostics or contracts differ from the reference")
    return spec, lines


def run_graph(spec, tracer, stats: Stats, ledger: Ledger, expected_counts, expected_ancestors=None):
    """Time the graph path; returns the ancestors of every action, or None."""
    t0 = perf_ns()
    try:
        with tracer.root("graph"):
            graph = tracer.call("flow.build", scckit.build_flow_graph, spec)
            with tracer.span("flow.export"):
                dot = scckit.export_graph(graph, "dot")
                exported = scckit.export_graph(graph, "json")
            with tracer.span("flow.ancestors"):
                ancestors = {n.name: scckit.source_ancestors(graph, n.name)
                             for n in graph.nodes if n.kind == "action"}
    except Exception as exc:
        ledger.record(False, f"graph raised {exc!r}")
        return None
    stats.add("graph", perf_ns() - t0)
    payload = json.loads(exported)
    counts = (len(payload["nodes"]), len(payload["edges"]))
    ok = (counts == expected_counts and dot.count(" -> ") == expected_counts[1]
          and (expected_ancestors is None or ancestors == expected_ancestors))
    ledger.record(ok, f"graph: exports or ancestors differ from the reference ({counts})")
    return ancestors


def timed_emit(emit, source: str, value, stats: Stats, ledger: Ledger) -> bool:
    t0 = perf_ns()
    try:
        emit(source, value)
    except Exception as exc:
        ledger.record(False, f"emit {source} raised {exc!r}")
        return False
    stats.add("emit", perf_ns() - t0)
    return True


# -- webcam-stream ----------------------------------------------------------------

class WebcamStream:
    """The paper's app: one sealed runtime per segment of a long Camera stream.

    The stream is cut into segments of ``SEGMENT_BLOCKS`` blocks, each on a
    fresh runtime, so the action log (which the runtime keeps forever) and
    the collector's work per emit stay the same however fast emits get.
    """

    name = "webcam-stream"
    SEGMENT_BLOCKS = 1250  # 20,000 emits
    STATIC_REPS = 20

    def __init__(self, seed: int, segment_blocks: int = SEGMENT_BLOCKS):
        self.steps = gen.webcam_stream(seed, segment_blocks)
        self.ads = [None if s.ad is None else Value(DataType.STRING, s.ad) for s in self.steps]
        self.spec_text = scckit.WEBCAM_SPEC
        self.contract_lines = gen.WEBCAM_CONTRACT_LINES

    def round(self, tracer, stats: Stats, ledger: Ledger) -> None:
        app = None
        for _ in range(self.STATIC_REPS):
            checked = run_check(self.spec_text, tracer, stats, ledger, self.contract_lines)
            if checked is not None:
                run_graph(checked[0], tracer, stats, ledger, (7, 6), {"Screen": gen.WEBCAM_TAINTS})
            app = self.setup(tracer, stats, ledger) or app
        if app is not None:
            self.segment(app, tracer, stats, ledger)

    def setup(self, tracer, stats: Stats, ledger: Ledger):
        t0 = perf_ns()
        try:
            with tracer.root("setup"):
                app = scckit.build_webcam_app(tracer.hook)
        except Exception as exc:
            ledger.record(False, f"setup raised {exc!r}")
            return None
        stats.add("setup", perf_ns() - t0)
        ledger.record(app.runtime.sealed, "setup: runtime not sealed")
        return app

    def segment(self, app, tracer, stats: Stats, ledger: Ledger) -> None:
        rt, screen = app.runtime, app.screen.deliveries
        emit = tracer.emitter(rt.emit)
        emitted = []  # per emit: (expected frame or None, deliveries the screen got)
        for step, ad in zip(self.steps, self.ads):
            if ad is not None:
                rt.set_source("IP", ad)
                continue
            before = len(screen)
            if timed_emit(emit, "Camera", step.frame, stats, ledger):
                emitted.append((step.expected, len(screen) - before))
        log = rt.action_log()
        stats.delivered(log)
        ledger.record(len(log) == len(screen), "webcam: action log and screen disagree")
        pos = 0
        for expected, grew in emitted:
            got = [(t, tv.value, tv.taints) for t, tv in log[pos:pos + grew]]
            pos += grew
            want = [] if expected is None else [("Screen", expected, gen.WEBCAM_TAINTS)]
            ledger.record(got == want, "webcam emit: delivery differs from the reference frame")


# -- large-spec ---------------------------------------------------------------------

class LargeSpec:
    """One generated spec of ~1,600 declarations through check, graph, setup
    and a burst of emits that pulls through every chain."""

    name = "large-spec"
    BURST_ROUNDS = 150  # emits per round: BURST_ROUNDS per pipeline

    def __init__(self, seed: int, **shape):
        self.spec = gen.large_spec(seed, **shape)
        self.spec_text = self.spec.text
        self.contract_lines = self.spec.contract_lines
        self.impls = self.spec.impls()
        self.burst = gen.burst(self.spec, seed + 1, self.BURST_ROUNDS)
        self.sources = [n for p in self.spec.pipelines for n in (p.src, p.trg)]
        self.actions = sorted(self.spec.ancestors)

    def round(self, tracer, stats: Stats, ledger: Ledger) -> None:
        counts = (self.spec.decl_count, self.spec.edge_count)
        checked = run_check(self.spec_text, tracer, stats, ledger, self.contract_lines)
        if checked is not None:
            run_graph(checked[0], tracer, stats, ledger, counts, self.spec.ancestors)
        rt = self.setup(tracer, stats, ledger)
        if rt is not None:
            self.emit_burst(rt, tracer, stats, ledger)

    def setup(self, tracer, stats: Stats, ledger: Ledger):
        t0 = perf_ns()
        try:
            with tracer.root("setup"):
                spec = tracer.call("parser.parse", scckit.parse, SourceText(self.spec_text, "<bench>"))
                rt = tracer.create_runtime(spec)
                for name, impl in self.impls.items():
                    rt.register(name, impl)
                for name in self.sources:
                    rt.bind_source(name, ScriptedSource())
                for name in self.actions:
                    rt.bind_action(name, RecordingSink())
                rt.seal()
        except Exception as exc:
            ledger.record(False, f"setup raised {exc!r}")
            return None
        stats.add("setup", perf_ns() - t0)
        ledger.record(rt.sealed, "setup: runtime not sealed")
        return rt

    def emit_burst(self, rt, tracer, stats: Stats, ledger: Ledger) -> None:
        emit = tracer.emitter(rt.emit)
        done = []
        for b in self.burst:
            rt.set_source(b.pipeline.src, b.src)
            if timed_emit(emit, b.pipeline.trg, b.trg, stats, ledger):
                done.append(b)
        log = rt.action_log()
        stats.delivered(log)
        fanout = len(self.burst[0].expected)
        if len(log) != fanout * len(done):
            for _ in done:
                ledger.record(False, f"large-spec burst: {len(log)} deliveries for {len(done)} emits")
            return
        for i, b in enumerate(done):
            got = sorted(((t, tv.value, tv.taints) for t, tv in log[i * fanout:(i + 1) * fanout]),
                         key=lambda e: e[0])
            ledger.record(tuple(got) == b.expected, "large-spec emit: deliveries differ from closed form")


WORKLOADS = {w.name: w for w in (WebcamStream, LargeSpec)}


def run_rounds(workload, tracer, stats: Stats, ledger: Ledger, seconds: float) -> int:
    """Run whole rounds until they have taken ``seconds`` (at least one)."""
    spent = 0
    while True:
        t0 = perf_ns()
        workload.round(tracer, stats, ledger)
        elapsed = perf_ns() - t0
        spent += elapsed
        stats.rounds.append((stats.ends(), elapsed))
        gc.collect()
        if spent >= seconds * 1e9:
            return len(stats.rounds)
