"""Spans and counters for the traced run, recorded from the benchmark's side.

The benchmark wraps its own calls into each layer in spans, and, while a
traced run lasts, rebinds the names through which the program calls its
other layers (``scckit.runtime.validate``, ``scckit.webcam.parse``, ...), so
those calls get spans too. The runtimes it creates are instrumented at their
public surface: registered implementations, the capability handles those
receive, source providers and action sinks are wrapped, and the
``Runtime.trace`` hook counts activations and pulls. No file of the program
changes.

A span's self time is its duration minus the durations of its direct
children. Spans are aggregated as they close: per root span (one check,
graph, setup or demo path, or one emit) into self time per layer, so memory
stays flat however many emits run; the first ``KEEP_SPANS`` spans are also kept
raw to be written out.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

import scckit
import scckit.runtime
import scckit.webcam

#: Roots kept one by one, for medians; "emit" roots are only summed.
STATIC_ROOTS = ("check", "graph", "setup", "demo")
#: Spans kept raw, in the order they close, to be written out.
KEEP_SPANS = 20000


class NullTracer:
    """Stands in for a tracer in untraced runs: every hook is a no-op."""

    hook = None
    _null = contextlib.nullcontext()

    def root(self, name):
        return self._null

    span = root

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n=1):
        pass

    def emitter(self, emit):
        return emit

    def create_runtime(self, spec):
        return scckit.create_runtime(spec)


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.tracer.begin(self.name)

    def __exit__(self, *exc):
        self.tracer.end()


class Tracer:
    def __init__(self):
        self.raw: list[tuple] = []  # (id, parent id, name, start ns, end ns)
        self._open: list[list] = []  # [name, start ns, child ns, id]
        self._next_id = 0
        self.self_ns = Counter()  # (root, name) -> summed self time
        self.calls = Counter()  # (root, name) -> spans closed
        self.instances = defaultdict(list)  # static root -> per instance {name: self ns}
        self._instance = Counter()  # the open root's {name: self ns, ("dur", name): ns}
        self.counts = Counter()  # (root, counter) -> events
        self.hook = self._on_trace_event

    # -- spans -----------------------------------------------------------------

    def begin(self, name: str) -> None:
        self._next_id += 1
        self._open.append([name, time.perf_counter_ns(), 0, self._next_id])

    def end(self) -> None:
        end = time.perf_counter_ns()
        name, start, child, span_id = self._open.pop()
        dur = end - start
        root = self._open[0][0] if self._open else name
        if self._open:
            self._open[-1][2] += dur
        self.self_ns[(root, name)] += dur - child
        self.calls[(root, name)] += 1
        if root in STATIC_ROOTS:
            self._instance[name] += dur - child
            self._instance[("dur", name)] += dur
            if not self._open:
                self.instances[root].append(self._instance)
                self._instance = Counter()
        if len(self.raw) < KEEP_SPANS:
            parent = self._open[-1][3] if self._open else None
            self.raw.append((span_id, parent, name, start, end))

    def root(self, name: str) -> _Span:
        return _Span(self, name)

    span = root

    def call(self, name: str, fn, *args):
        return self.wrap(name, fn)(*args)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self._open[0][0] if self._open else None, name)] += n

    def _on_trace_event(self, event) -> None:
        self.count(event.kind)

    def wrap(self, name: str, fn):
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced

    def emitter(self, emit):
        return self.wrap("emit", emit)

    # -- runtime instrumentation -------------------------------------------------

    def create_runtime(self, spec):
        return self.instrument_runtime(self.wrap("runtime.create", scckit.runtime.create_runtime)(spec))

    def instrument_runtime(self, rt):
        """Wrap what ``rt`` will call into: implementations, providers and sinks."""
        wrap = self.wrap
        register, bind_source, bind_action = rt.register, rt.bind_source, rt.bind_action
        rt.trace = self.hook
        rt.register = wrap("runtime.register", lambda name, impl: register(name, self._impl(impl)))
        rt.bind_source = wrap("runtime.bind",
                              lambda name, provider: bind_source(name, _Provider(provider, self)))
        rt.bind_action = wrap("runtime.bind", lambda name, sink: bind_action(name, wrap("impl", sink)))
        rt.seal = wrap("runtime.seal", rt.seal)
        return rt

    def _impl(self, impl):
        begin, end, handle = self.begin, self.end, self._handle

        def traced(*args):
            begin("impl")
            try:
                return impl(*[handle(a) if callable(a) else a for a in args])
            finally:
                end()

        return traced

    def _handle(self, fn):
        # Capability handles and continuations are kernel code running inside
        # an implementation's span; without their own span the kernel's pull
        # and publish work would count as the implementation's.
        return self.wrap("runtime.handle", fn)

    # -- results ---------------------------------------------------------------

    def per_root(self, roots, name, inclusive: bool = False) -> list[float]:
        """Seconds in layer ``name`` per root instance that reached it: self
        time, or with ``inclusive`` the spans' whole durations."""
        key = ("dur", name) if inclusive else name
        return [inst[key] / 1e9 for r in roots for inst in self.instances[r] if key in inst]

    def dump(self) -> dict:
        return {
            "spans": [{"id": i, "parent": p, "name": n, "start_ns": s, "end_ns": e}
                      for i, p, n, s, e in self.raw],
            "self_ns": [{"root": r, "name": n, "ns": v, "calls": self.calls[(r, n)]}
                        for (r, n), v in sorted(self.self_ns.items(), key=str)],
            "counts": [{"root": r, "name": n, "n": v} for (r, n), v in sorted(self.counts.items(), key=str)],
        }


class _Provider:
    """Source provider whose answers are timed as platform code."""

    def __init__(self, inner, tracer: Tracer):
        self.current = tracer.wrap("impl", inner.current)
        self.set = tracer.wrap("impl", inner.set)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind the program's internal cross-layer calls to spanned versions.

    Bindings a module no longer has are skipped, so the traced run keeps
    working when a layer stops calling another.
    """
    patches = [
        (scckit.runtime, "validate", lambda f: tracer.wrap("decls.validate", f)),
        (scckit.runtime, "derive_all", lambda f: tracer.wrap("contracts.derive_all", f)),
        (scckit.webcam, "parse", lambda f: tracer.wrap("parser.parse", f)),
        (scckit.webcam, "create_runtime", lambda f: tracer.create_runtime),
        (scckit.Specification, "find", lambda f: _counted(tracer, f)),
        (scckit.Specification, "by_name", lambda f: _counted(tracer, f)),
    ]
    saved = []
    try:
        for owner, attr, make in patches:
            if attr in vars(owner):
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _counted(tracer: Tracer, fn):
    def counted(*args, **kwargs):
        tracer.count("decls.by_name_calls")
        return fn(*args, **kwargs)

    return counted
