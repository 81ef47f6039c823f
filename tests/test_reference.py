"""Differential tests: the kernel against the reference interpreter.

Both run the same implementations over the same specification, each with
its own providers, sinks and fault injector, and must agree on the action
log, the trace events, the outcome of the run (completed, or the fault's
code, component and message), ``failed`` and an empty queue afterwards.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

import genspec
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


def _implementations(seed):
    impls = {}

    def keep(kind, name, obj):
        if kind == "implementation":
            impls[name] = obj
        return obj

    return genspec.random_app(seed, wrap=keep), impls


@settings(max_examples=250, deadline=None)
@given(seed=st.integers(0, 10_000), pick=st.integers(0, 50), at=st.integers(1, 12),
       fault=st.sampled_from(["none", "raise", "corrupt"]))
def test_kernel_agrees_with_the_reference_on_generated_apps(seed, pick, at, fault):
    app, impls = _implementations(seed)
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


def test_generated_apps_cover_every_contract_shape():
    shapes = set()
    for seed in range(60):
        app, _ = _implementations(seed)
        for c in app.runtime.contracts.values():
            shapes.add((c.activation_param is not None, c.capability and c.capability.kind, c.publish))
    assert len(shapes) == 7
