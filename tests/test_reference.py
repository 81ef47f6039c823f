"""Differential tests: the kernel against the reference interpreter.

Both run the same implementations over the same specification, each with
its own providers, sinks and fault injector, and must agree on the action
log, the trace events, the outcome of the run (completed, or the fault's
code, component and message), ``failed`` and an empty queue afterwards.
"""

import dataclasses
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genspec
import scckit.runtime
from reference import Reference
from scckit import (
    ActionDecl,
    DataType,
    KernelError,
    RecordingSink,
    ScriptedSource,
    SourceDecl,
    Value,
    build_flow_graph,
    create_runtime,
    make_picture,
    source_ancestors,
    webcam,
)

WEBCAM_IMPLS = {"ProcessPicture": webcam.process_picture, "MakeAd": webcam.make_ad,
                "ComposeDisplay": webcam.compose_display, "Display": webcam.display}


def _twins(spec, impls: dict, kernel_injector, reference_injector):
    """The kernel and the reference over ``spec`` and ``impls``, wrapped by one
    injector each in the same order, so that both pick the same culprit."""
    kernel_wrap, reference_wrap = kernel_injector.wrap, reference_injector.wrap
    rt = create_runtime(spec)
    for name, impl in impls.items():
        rt.register(name, kernel_wrap("implementation", name, impl))
    ref_impls = {name: reference_wrap("implementation", name, impl) for name, impl in impls.items()}
    providers, sinks = {}, {}
    for d in spec.declarations:
        if isinstance(d, SourceDecl):
            rt.bind_source(d.name, kernel_wrap("provider", d.name, ScriptedSource()))
            providers[d.name] = reference_wrap("provider", d.name, ScriptedSource())
        elif isinstance(d, ActionDecl):
            rt.bind_action(d.name, kernel_wrap("sink", d.name, RecordingSink()))
            sinks[d.name] = reference_wrap("sink", d.name, RecordingSink())
    rt.seal()
    return rt, Reference(spec, ref_impls, providers, sinks)


def _observe(runtime, queue, steps, injector):
    """Everything one run shows: its trace, its log, how it ended, and its state after."""
    events = []
    runtime.trace = injector.wrap("hook", "trace", events.append)
    try:
        for step in steps:
            step(runtime)
        outcome = "completed"
    except KernelError as fault:
        outcome = (type(fault).__name__, fault.code, fault.component, str(fault), type(fault.__cause__))
    return events, runtime.action_log(), outcome, runtime.failed, len(queue)


def _agree(spec, impls, steps, pick, at, corrupt):
    kernel_injector, reference_injector = (genspec.Injector(pick, at, corrupt) for _ in range(2))
    rt, ref = _twins(spec, impls, kernel_injector, reference_injector)
    kernel = _observe(rt, rt._queue, steps, kernel_injector)
    assert kernel == _observe(ref, ref.queue, steps, reference_injector)
    assert kernel[4] == 0
    graph = build_flow_graph(spec)
    for target, tv in kernel[1]:
        assert tv.taints <= source_ancestors(graph, target)


def _genspec_steps(app, seed):
    """The set_source and emit calls of ``genspec.drive(app, seed)``, as steps."""
    calls = []

    class Recorder:
        def set_source(self, name, v):
            calls.append(lambda rt: rt.set_source(name, v))

        def emit(self, name, v):
            calls.append(lambda rt: rt.emit(name, v))

    genspec.drive(dataclasses.replace(app, runtime=Recorder()), seed)
    return calls


def _implementations(seed, tail=False):
    impls = {}

    def keep(kind, name, obj):
        if kind == "implementation":
            impls[name] = obj
        return obj

    return genspec.random_app(seed, wrap=keep, tail=tail), impls


@settings(max_examples=500, deadline=None)  # about 250 each way
@given(seed=st.integers(0, 10_000), pick=st.integers(0, 50), at=st.integers(1, 12),
       fault=st.sampled_from(["none", "raise", "corrupt"]), tail=st.booleans())
def test_kernel_agrees_with_the_reference_on_generated_apps(seed, pick, at, fault, tail):
    """``tail`` apps run their continuations by return, the others by escape."""
    app, impls = _implementations(seed, tail)
    steps = _genspec_steps(app, seed)
    _agree(app.spec, impls, steps, pick, at if fault != "none" else 10**9, fault == "corrupt")


_AD = st.sampled_from(["", "Ads Inc", "Buy!", "x"])
_STEP = st.one_of(
    st.builds(lambda ad: lambda rt: rt.set_source("IP", Value(DataType.STRING, ad)), _AD),
    st.builds(lambda ad: lambda rt: rt.emit("IP", Value(DataType.STRING, ad)), _AD),
    st.builds(lambda w, h, seed: lambda rt: rt.emit("Camera", make_picture(w, h, seed)),
              st.integers(1, 64), st.integers(1, 64), st.integers(-5, 5)),
)


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(_STEP, max_size=12), pick=st.integers(0, 20), at=st.integers(1, 8),
       fault=st.sampled_from(["none", "raise", "corrupt"]))
def test_kernel_agrees_with_the_reference_on_the_webcam_app(steps, pick, at, fault):
    _agree(webcam.webcam_spec(), WEBCAM_IMPLS, steps, pick, at if fault != "none" else 10**9,
           fault == "corrupt")


_WIDE = 70  # genspec.ladder(70): 71 sources joined on one path, masks of three 30-bit digits


@pytest.mark.parametrize("pick, at, corrupt", [(0, 10**9, False), (69, 1, False), (110, 2, False), (30, 2, True)])
def test_kernel_agrees_with_the_reference_on_wide_taints(pick, at, corrupt):
    """Each P<i> of the ladder pulls S<i> and publishes, so P<i>'s taints hold T and S0 .. S<i>."""
    impls = {f"P{i}": lambda x, get, publish: publish(x + get()) for i in range(_WIDE)}
    impls["C"] = lambda x, do: do(x)
    sets = [lambda rt, i=i: rt.set_source(f"S{i}", Value(DataType.INT, i)) for i in range(_WIDE)]
    emit = lambda rt: rt.emit("T", Value(DataType.INT, 1))  # noqa: E731
    _agree(genspec.ladder(_WIDE), impls, sets + [emit, emit], pick, at, corrupt)


def test_generated_apps_cover_every_contract_shape():
    shapes, keys = set(), set()
    for seed in range(60):
        app, _ = _implementations(seed)
        for c in app.runtime.contracts.values():
            shapes.add((c.activation_param is not None, c.capability and c.capability.kind, c.publish))
            keys.add((c.capability and c.capability.kind, c.publish))
    assert len(shapes) == 7
    assert keys == set(scckit.runtime._SHAPES)


class _Reenter:
    """Wraps one party of an app so that its first call first calls ``action`` on
    ``runtime``, the kernel or the reference the party belongs to, then goes on."""

    def __init__(self, kind, name, method, action):
        self.route, self.method, self.action = (kind, name), method, action
        self.runtime, self.done = None, False

    def _once(self, fn):
        def call(*args):
            if not self.done:
                self.done = True
                self.action(self.runtime)
            return fn(*args)

        return call

    def wrap(self, kind, name, obj):
        if (kind, name) != self.route:
            return obj
        if self.method is None:
            return self._once(obj)
        methods = {"set": obj.set, "current": obj.current}
        methods[self.method] = self._once(methods[self.method])
        return types.SimpleNamespace(**methods)


def _nested_emit(rt):
    rt.emit("Camera", make_picture(2, 2, 99))


_WEBCAM_STEPS = [lambda rt: rt.set_source("IP", Value(DataType.STRING, "Ads Inc")),
                 lambda rt: rt.emit("Camera", make_picture(4, 3, 1))]
_REENTRY_ROUTES = {  # who calls emit during a drain, and the fault that names it
    "sink": (("sink", "Screen", None), "PLATFORM_FAULT", "Screen", "sink"),
    "implementation": (("implementation", "ProcessPicture", None), "IMPLEMENTATION_PANIC", "ProcessPicture",
                       "implementation"),
    "hook": (("hook", "trace", None), "HOOK_FAULT", "ProcessPicture", "trace hook"),
    "provider set": (("provider", "Camera", "set"), "PLATFORM_FAULT", "Camera", "provider"),
    "provider current": (("provider", "IP", "current"), "PLATFORM_FAULT", "IP", "provider"),
}


def _agree_on_reentry(party, action, steps):
    """The kernel's run of ``steps`` on the webcam app, where ``party`` (kind, name,
    provider method) calls ``action`` once, and the reference's run must agree."""
    kernel_injector, reference_injector = (_Reenter(*party, action) for _ in range(2))
    rt, ref = _twins(webcam.webcam_spec(), WEBCAM_IMPLS, kernel_injector, reference_injector)
    kernel_injector.runtime, reference_injector.runtime = rt, ref
    kernel = _observe(rt, rt._queue, steps, kernel_injector)
    assert kernel == _observe(ref, ref.queue, steps, reference_injector)
    return rt, kernel


@pytest.mark.parametrize("route", _REENTRY_ROUTES)
def test_reentrant_emit_is_refused_and_blamed_on_its_caller(route):
    party, code, component, who = _REENTRY_ROUTES[route]
    rt, kernel = _agree_on_reentry(party, _nested_emit, _WEBCAM_STEPS)
    detail = "emit of 'Camera' started while an emit of this runtime runs"
    assert kernel[1:] == ((), ("RuntimeFault", code, component,
                               f"{code} [{component}]: {who} raised KernelError: REENTRANT_EMIT: {detail}",
                               KernelError), True, 0)
    with pytest.raises(KernelError) as err:
        rt.emit("Camera", make_picture(1, 1, 0))
    assert err.value.code == "RUNTIME_FAILED"


def test_set_source_during_a_drain_stays_allowed():
    def set_ad(rt):
        rt.set_source("IP", Value(DataType.STRING, "Buy!"))

    _, kernel = _agree_on_reentry(("sink", "Screen", None), set_ad, _WEBCAM_STEPS + _WEBCAM_STEPS[1:])
    assert kernel[2:] == ("completed", False, 0)
    assert [str(tv.value.payload).count("Buy!") for _, tv in kernel[1]] == [0, 1]
