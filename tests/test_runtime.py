"""Engine semantics: registry, sealing, dispatch, contracts, taints, handles."""

import dataclasses
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genspec
import scckit.runtime
from scckit import (
    ActionDecl,
    ContextDecl,
    ControllerDecl,
    DataType,
    KernelError,
    PictureData,
    PublishSpec,
    RecordingSink,
    RuntimeFault,
    ScriptedSource,
    SourceDecl,
    Specification,
    TaintedValue,
    Value,
    build_flow_graph,
    build_webcam_app,
    create_runtime,
    make_picture,
    parse_scenario,
    render_taints,
    render_value,
    run_scenario,
    source_ancestors,
    webcam_spec,
    when_provided,
    when_required,
)
from scckit.decls import MAX_PULL_DEPTH

INT, STRING = DataType.INT, DataType.STRING


def wire(spec, impls, seal=True):
    """Register impls, bind scripted sources and recording sinks, seal."""
    rt = create_runtime(spec)
    for name, impl in impls.items():
        rt.register(name, impl)
    sources, sinks = {}, {}
    for d in spec.declarations:
        if isinstance(d, SourceDecl):
            sources[d.name] = ScriptedSource()
            rt.bind_source(d.name, sources[d.name])
        elif isinstance(d, ActionDecl):
            sinks[d.name] = RecordingSink()
            rt.bind_action(d.name, sinks[d.name])
    if seal:
        rt.seal()
    return rt, sources, sinks


CHAIN = Specification((
    SourceDecl("S", INT),
    ActionDecl("A", INT),
    ContextDecl("P", INT, when_provided("S", PublishSpec.ALWAYS)),
    ControllerDecl("C", "P", "A"),
))


def chain_impls(**overrides):
    impls = {"P": lambda v, publish: publish(v + 1), "C": lambda v, do: do(v)}
    impls.update(overrides)
    return impls


def int_value(n):
    return Value(INT, n)


# -- construction and registry ----------------------------------------------

def test_create_runtime_precomputes_contracts():
    rt = create_runtime(webcam_spec())
    assert set(rt.contracts) == {"MakeAd", "ProcessPicture", "ComposeDisplay", "Display"}


def test_empty_spec_runtime_seals_trivially():
    rt = create_runtime(Specification(()))
    assert rt.contracts == {}
    rt.seal()
    assert rt.sealed


def test_invalid_spec_is_rejected():
    bad = Specification((SourceDecl("S", INT), SourceDecl("S", INT)))
    with pytest.raises(KernelError) as err:
        create_runtime(bad)
    assert err.value.code == "INVALID_SPEC"


def test_duplicate_registration():
    rt = create_runtime(CHAIN)
    rt.register("P", lambda v, publish: publish(v))
    with pytest.raises(KernelError) as err:
        rt.register("P", lambda v, publish: publish(v))
    assert err.value.code == "DUPLICATE_IMPLEMENTATION"


def test_register_requires_declared_computing_component():
    rt = create_runtime(CHAIN)
    for name in ("Ghost", "S", "A"):
        with pytest.raises(KernelError) as err:
            rt.register(name, lambda: None)
        assert err.value.code == "UNDECLARED_COMPONENT"


def test_bindings_check_kind_and_uniqueness():
    rt = create_runtime(CHAIN)
    with pytest.raises(KernelError) as err:
        rt.bind_source("A", ScriptedSource())
    assert err.value.code == "WRONG_KIND"
    rt.bind_action("A", RecordingSink())
    with pytest.raises(KernelError) as err:
        rt.bind_action("A", RecordingSink())
    assert err.value.code == "DUPLICATE_BINDING"


def test_sealed_runtime_is_frozen():
    rt, _, _ = wire(CHAIN, chain_impls())
    for call in (lambda: rt.register("P", lambda: None),
                 lambda: rt.bind_source("S", ScriptedSource()),
                 lambda: rt.seal()):
        with pytest.raises(KernelError) as err:
            call()
        assert err.value.code == "SEALED"


def test_seal_names_missing_implementations():
    rt, _, _ = wire(CHAIN, {"P": lambda v, publish: publish(v)}, seal=False)
    with pytest.raises(KernelError) as err:
        rt.seal()
    assert err.value.code == "MISSING_IMPLEMENTATION"
    assert err.value.names == ("C",)
    assert "C" in err.value.detail


def test_seal_names_missing_bindings():
    rt = create_runtime(CHAIN)
    for name, impl in chain_impls().items():
        rt.register(name, impl)
    rt.bind_source("S", ScriptedSource())
    with pytest.raises(KernelError) as err:
        rt.seal()
    assert err.value.code == "MISSING_BINDING"
    assert err.value.names == ("A",)


def test_seal_checks_activation_types_once():
    # Activations take their payloads unchecked, so seal must refuse a plan
    # whose payload types disagree with what the triggers publish.
    rt, _, _ = wire(CHAIN, chain_impls(), seal=False)
    rt.contracts["C"] = dataclasses.replace(rt.contracts["C"], activation_param=STRING)
    with pytest.raises(KernelError) as err:
        rt.seal()
    assert (err.value.code, err.value.component) == ("CONTRACT_VIOLATION", "C")
    assert str(err.value) == "CONTRACT_VIOLATION [C]: activation value must be Int, the type 'P' publishes"
    assert not rt.sealed

    pulled = Specification((
        SourceDecl("S", INT),
        ContextDecl("R", INT, when_required()),
        ContextDecl("P", INT, when_provided("S", PublishSpec.ALWAYS, get="R")),
    ))
    rt, _, _ = wire(pulled, {"R": lambda: 1, "P": lambda v, get, pub: pub(get())}, seal=False)
    rt.contracts["R"] = dataclasses.replace(rt.contracts["R"], activation_param=INT)
    with pytest.raises(KernelError) as err:
        rt.seal()
    assert (err.value.code, err.value.component) == ("CONTRACT_VIOLATION", "P")
    assert not rt.sealed


def test_publish_cycle_is_an_invalid_spec():
    looped = Specification((
        SourceDecl("S", INT),
        ContextDecl("P1", INT, when_provided("P2", PublishSpec.ALWAYS)),
        ContextDecl("P2", INT, when_provided("P1", PublishSpec.ALWAYS)),
    ))
    with pytest.raises(KernelError) as err:
        create_runtime(looped)
    assert err.value.code == "INVALID_SPEC"


# -- emission entry checks ---------------------------------------------------

def test_emit_requires_seal():
    rt, _, _ = wire(CHAIN, chain_impls(), seal=False)
    with pytest.raises(KernelError) as err:
        rt.emit("S", int_value(1))
    assert err.value.code == "UNSEALED"


def test_emit_type_checks_against_source_type():
    rt, _, _ = wire(CHAIN, chain_impls())
    with pytest.raises(KernelError) as err:
        rt.emit("S", Value(STRING, "x"))
    assert err.value.code == "TYPE_MISMATCH"
    assert rt.action_log() == ()


def test_emit_rejects_non_sources_and_unknowns():
    rt, _, _ = wire(CHAIN, chain_impls())
    with pytest.raises(KernelError) as err:
        rt.emit("A", int_value(1))
    assert err.value.code == "WRONG_KIND"
    with pytest.raises(KernelError) as err:
        rt.emit("Ghost", int_value(1))
    assert err.value.code == "UNDECLARED_COMPONENT"


# -- dispatch semantics -------------------------------------------------------

def test_emit_activates_subscriber_with_payload_and_updates_pull_value():
    rt, sources, sinks = wire(CHAIN, chain_impls())
    rt.emit("S", int_value(41))
    assert sinks["A"].deliveries == [int_value(42)]
    assert sources["S"].current() == int_value(41)
    ((target, tv),) = rt.action_log()
    assert target == "A" and tv.value == int_value(42) and tv.taints == {"S"}


def test_dispatch_is_breadth_first_in_declaration_order():
    spec = Specification((
        SourceDecl("S", INT),
        ActionDecl("A", INT),
        ContextDecl("P1", INT, when_provided("S", PublishSpec.ALWAYS)),
        ContextDecl("P2", INT, when_provided("S", PublishSpec.ALWAYS)),
        ControllerDecl("C1", "P1", "A"),
        ControllerDecl("C2", "P2", "A"),
    ))
    impls = {
        "P1": lambda v, p: p(v), "P2": lambda v, p: p(v),
        "C1": lambda v, do: do(v), "C2": lambda v, do: do(v),
    }
    rt, _, _ = wire(spec, impls)
    order = []
    rt.trace = lambda ev: order.append(ev.component) if ev.kind == "activate" else None
    rt.emit("S", int_value(0))
    assert order == ["P1", "P2", "C1", "C2"]


def test_nopublish_stops_propagation():
    impls = chain_impls(P=lambda v, publish: publish(v))
    spec = Specification((
        SourceDecl("S", INT),
        ActionDecl("A", INT),
        ContextDecl("P", INT, when_provided("S", PublishSpec.MAYBE)),
        ControllerDecl("C", "P", "A"),
    ))

    def gate(v, publish, nopublish):
        if v < 0:
            nopublish()
        publish(v)

    rt, _, sinks = wire(spec, {"P": gate, "C": impls["C"]})
    rt.emit("S", int_value(-5))
    assert sinks["A"].deliveries == []
    rt.emit("S", int_value(5))
    assert sinks["A"].deliveries == [int_value(5)]


def test_pull_resolves_required_context_chain_and_accumulates_taints():
    spec = Specification((
        SourceDecl("S1", INT),
        SourceDecl("S2", INT),
        ActionDecl("A", INT),
        ContextDecl("R", INT, when_required(get="S2")),
        ContextDecl("P", INT, when_provided("S1", PublishSpec.ALWAYS, get="R")),
        ControllerDecl("C", "P", "A"),
    ))
    impls = {
        "R": lambda get: get() * 10,
        "P": lambda v, get, publish: publish(v + get()),
        "C": lambda v, do: do(v),
    }
    rt, _, _ = wire(spec, impls)
    rt.set_source("S2", int_value(3))
    rt.emit("S1", int_value(1))
    ((_, tv),) = rt.action_log()
    assert tv.value == int_value(31)
    assert tv.taints == {"S1", "S2"}


def test_pull_before_value_names_the_puller():
    spec = Specification((
        SourceDecl("S", INT),
        SourceDecl("Unset", INT),
        ActionDecl("A", INT),
        ContextDecl("P", INT, when_provided("S", PublishSpec.ALWAYS, get="Unset")),
        ControllerDecl("C", "P", "A"),
    ))
    rt, _, _ = wire(spec, {"P": lambda v, get, pub: pub(get()), "C": lambda v, do: do(v)})
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(1))
    assert err.value.code == "PULL_BEFORE_VALUE"
    assert err.value.component == "P"


def test_deepest_valid_pull_chain_runs_with_a_hook_attached():
    spec = genspec.pull_chain(MAX_PULL_DEPTH)
    impls = {f"R{i}": lambda get: get() + 1 for i in range(1, MAX_PULL_DEPTH + 1)}
    impls.update(P=lambda v, get, publish: publish(get()), C=lambda v, do: do(v))
    rt, _, sinks = wire(spec, impls)
    events = []
    rt.trace = events.append
    rt.set_source("S", int_value(0))
    rt.emit("S", int_value(0))
    assert sinks["A"].deliveries == [int_value(MAX_PULL_DEPTH)]
    assert rt.action_log()[0][1].taints == {"S"}
    assert [ev.kind for ev in events].count("pull") == MAX_PULL_DEPTH + 1


def test_each_pull_level_costs_three_interpreter_frames():
    """The get handle, the pulled plan's run and the implementation: no trampoline
    between the plan and the implementation it calls (see ``decls.MAX_PULL_DEPTH``)."""
    depth, frames = 5, {}

    def level(i):
        def impl(get):
            frames[i] = len(inspect.stack(0))
            return get() + 1
        return impl

    impls = {f"R{i}": level(i) for i in range(1, depth + 1)}
    impls.update(P=lambda v, get, publish: publish(get()), C=lambda v, do: do(v))
    rt, _, sinks = wire(genspec.pull_chain(depth), impls)
    rt.set_source("S", int_value(0))
    rt.emit("S", int_value(0))
    assert sinks["A"].deliveries == [int_value(depth)]
    assert [frames[i + 1] - frames[i] for i in range(1, depth)] == [3] * (depth - 1)


def test_get_capability_takes_no_arguments():
    grabbed = []
    spec = Specification((
        SourceDecl("S", INT),
        ActionDecl("A", INT),
        ContextDecl("P", INT, when_provided("S", PublishSpec.ALWAYS, get="S")),
        ControllerDecl("C", "P", "A"),
    ))

    def snoop(v, get, publish):
        grabbed.append(get)
        publish(v)

    rt, _, _ = wire(spec, {"P": snoop, "C": lambda v, do: do(v)})
    rt.emit("S", int_value(1))
    assert len(inspect.signature(grabbed[0]).parameters) == 0


# -- continuation discipline --------------------------------------------------

def test_returning_without_continuation_is_an_error():
    rt, _, _ = wire(CHAIN, chain_impls(P=lambda v, publish: None))
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(1))
    assert err.value.code == "NO_CONTINUATION_CALLED"
    assert err.value.component == "P"


def test_second_continuation_is_an_error():
    spec = Specification((
        SourceDecl("S", INT),
        ActionDecl("A", INT),
        ContextDecl("P", INT, when_provided("S", PublishSpec.MAYBE)),
        ControllerDecl("C", "P", "A"),
    ))

    def greedy(v, publish, nopublish):
        try:
            publish(v)
        except BaseException:  # swallowing the escape must not hide the fault
            pass
        nopublish()

    rt, _, _ = wire(spec, {"P": greedy, "C": lambda v, do: do(v)})
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(1))
    assert err.value.code == "DOUBLE_CONTINUATION"


def test_publish_does_not_return_to_the_body():
    after = []

    def impl(v, publish):
        publish(v)
        after.append("unreachable")

    rt, _, sinks = wire(CHAIN, chain_impls(P=impl))
    rt.emit("S", int_value(1))
    assert after == []
    assert sinks["A"].deliveries == [int_value(1)]


# -- boundary checks ----------------------------------------------------------

def test_published_value_is_type_checked():
    rt, _, _ = wire(CHAIN, chain_impls(P=lambda v, publish: publish("wrong")))
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(1))
    assert err.value.code == "CONTRACT_VIOLATION"
    assert err.value.component == "P"


def test_do_argument_is_type_checked():
    rt, _, _ = wire(CHAIN, chain_impls(C=lambda v, do: do("wrong")))
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(1))
    assert err.value.code == "CONTRACT_VIOLATION"
    assert err.value.component == "C"


def test_controller_must_return_nothing():
    rt, _, _ = wire(CHAIN, chain_impls(C=lambda v, do: 7))
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(1))
    assert err.value.code == "CONTRACT_VIOLATION"


def test_controller_may_command_zero_or_many_times():
    def eager(v, do):
        do(v)
        do(v * 2)

    rt, _, sinks = wire(CHAIN, chain_impls(C=eager))
    rt.emit("S", int_value(2))
    assert sinks["A"].deliveries == [int_value(3), int_value(6)]

    rt2, _, sinks2 = wire(CHAIN, chain_impls(C=lambda v, do: None))
    rt2.emit("S", int_value(2))
    assert sinks2["A"].deliveries == []


def test_pulled_context_return_value_is_type_checked():
    spec = Specification((
        SourceDecl("S", INT),
        ActionDecl("A", INT),
        ContextDecl("R", INT, when_required()),
        ContextDecl("P", INT, when_provided("S", PublishSpec.ALWAYS, get="R")),
        ControllerDecl("C", "P", "A"),
    ))
    rt, _, _ = wire(spec, {"R": lambda: "nope", "P": lambda v, get, pub: pub(get()),
                           "C": lambda v, do: do(v)})
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(1))
    assert err.value.code == "CONTRACT_VIOLATION"
    assert err.value.component == "R"


# -- failure handling ---------------------------------------------------------

def test_implementation_panic_names_component_and_poisons_runtime():
    def boom(v, publish):
        raise ValueError("kaput")

    rt, _, _ = wire(CHAIN, chain_impls(P=boom))
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(1))
    assert err.value.code == "IMPLEMENTATION_PANIC"
    assert err.value.component == "P"
    assert rt.failed
    assert rt.action_log() == ()  # still inspectable
    with pytest.raises(KernelError) as err2:
        rt.emit("S", int_value(2))
    assert err2.value.code == "RUNTIME_FAILED"


def test_swallowed_fault_still_surfaces():
    def sneaky(v, publish):
        try:
            publish("wrong type")
        except Exception:
            pass
        publish(v)

    rt, _, _ = wire(CHAIN, chain_impls(P=sneaky))
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(1))
    assert err.value.code == "CONTRACT_VIOLATION"


def test_failing_trace_hook_poisons_runtime_and_drops_the_queue():
    spec = Specification((
        SourceDecl("S", INT),
        ActionDecl("A", INT),
        ContextDecl("P", INT, when_provided("S", PublishSpec.ALWAYS)),
        ContextDecl("Q", INT, when_provided("S", PublishSpec.ALWAYS)),
        ControllerDecl("C", "P", "A"),
    ))

    def hook(event):
        if event.kind == "activate" and event.component == "P":
            raise OSError("trace sink closed")

    rt, _, _ = wire(spec, chain_impls(Q=lambda v, publish: publish(v)))
    rt.trace = hook
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(1))
    assert str(err.value) == "HOOK_FAULT [P]: trace hook raised OSError: trace sink closed"
    assert isinstance(err.value.__cause__, OSError)
    assert rt.failed
    assert not rt._queue  # Q was still queued when the hook raised
    with pytest.raises(KernelError) as err:
        rt.emit("S", int_value(2))
    assert err.value.code == "RUNTIME_FAILED"


def test_delivery_is_logged_only_after_the_sink_takes_it():
    def sink(value):
        if value.payload > 5:
            raise OSError("screen unplugged")

    rt = create_runtime(CHAIN)
    for name, impl in chain_impls().items():
        rt.register(name, impl)
    rt.bind_source("S", ScriptedSource())
    rt.bind_action("A", sink)
    rt.seal()
    rt.emit("S", int_value(1))
    with pytest.raises(RuntimeFault):
        rt.emit("S", int_value(7))
    assert [(target, tv.value) for target, tv in rt.action_log()] == [("A", int_value(2))]


def test_action_log_reads_are_equal_tuples_of_tainted_values():
    def sink(value):
        if value.payload > 5:
            raise OSError("screen unplugged")

    events = []
    rt = create_runtime(CHAIN)
    for name, impl in chain_impls().items():
        rt.register(name, impl)
    rt.bind_source("S", ScriptedSource())
    rt.bind_action("A", sink)
    rt.seal()
    rt.trace = events.append
    rt.emit("S", int_value(1))
    with pytest.raises(RuntimeFault):
        rt.emit("S", int_value(7))  # the sink refuses 8: nothing is logged
    first, second = rt.action_log(), rt.action_log()
    assert first == second == (("A", TaintedValue(int_value(2), frozenset({"S"}))),)
    assert type(first[0][1]) is TaintedValue and first is not second
    assert [type(ev.value) for ev in events] == [TaintedValue] * 4  # P and C, twice


@pytest.mark.parametrize("swallow", [False, True])
def test_failing_sink_is_a_platform_fault_of_its_action(swallow):
    def sink(value):
        raise OSError("screen unplugged")

    def controller(v, do):
        try:
            do(v)
        except Exception:
            if not swallow:
                raise

    rt = create_runtime(CHAIN)
    for name, impl in chain_impls(C=controller).items():
        rt.register(name, impl)
    rt.bind_source("S", ScriptedSource())
    rt.bind_action("A", sink)
    rt.seal()
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(1))
    assert str(err.value) == "PLATFORM_FAULT [A]: sink raised OSError: screen unplugged"
    assert isinstance(err.value.__cause__, OSError)
    assert rt.failed and rt.action_log() == ()


@pytest.mark.parametrize("swallow", [False, True])
def test_failing_provider_is_a_platform_fault_of_its_source(swallow):
    class Offline:
        def set(self, v):
            pass

        def current(self):
            raise OSError("sensor offline")

    spec = Specification((
        SourceDecl("S", INT),
        SourceDecl("T", INT),
        ActionDecl("A", INT),
        ContextDecl("P", INT, when_provided("S", PublishSpec.ALWAYS, get="T")),
        ControllerDecl("C", "P", "A"),
    ))

    def puller(v, get, publish):
        try:
            v += get()
        except Exception:
            if not swallow:
                raise
        publish(v)

    rt = create_runtime(spec)
    rt.register("P", puller)
    rt.register("C", lambda v, do: do(v))
    rt.bind_source("S", ScriptedSource())
    rt.bind_source("T", Offline())
    rt.bind_action("A", RecordingSink())
    rt.seal()
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(1))
    assert str(err.value) == "PLATFORM_FAULT [T]: provider raised OSError: sensor offline"
    assert isinstance(err.value.__cause__, OSError)
    assert rt.failed and not rt._queue and rt.action_log() == ()


class _Unplugged(ScriptedSource):
    def set(self, v):
        raise OSError("camera gone")


@pytest.mark.parametrize("during_emit", [True, False])
def test_failing_provider_set_is_a_platform_fault_of_its_source(during_emit):
    rt = create_runtime(CHAIN)
    for name, impl in chain_impls().items():
        rt.register(name, impl)
    rt.bind_source("S", _Unplugged())
    rt.bind_action("A", RecordingSink())
    rt.seal()
    with pytest.raises(RuntimeFault) as err:
        (rt.emit if during_emit else rt.set_source)("S", int_value(1))
    assert str(err.value) == "PLATFORM_FAULT [S]: provider raised OSError: camera gone"
    assert isinstance(err.value.__cause__, OSError)
    assert rt.failed is during_emit  # set_source runs outside any drain
    assert not rt._queue and rt.action_log() == ()


def test_binding_none_is_rejected():
    rt = create_runtime(CHAIN)
    for bind, name in ((rt.bind_source, "S"), (rt.bind_action, "A")):
        with pytest.raises(KernelError) as err:
            bind(name, None)
        assert str(err.value) == f"MISSING_BINDING: '{name}' cannot be bound to None"
    rt.bind_source("S", ScriptedSource())  # the refused binding left the name free


def test_registering_none_is_rejected():
    rt = create_runtime(CHAIN)
    with pytest.raises(KernelError) as err:
        rt.register("Ghost", None)
    assert err.value.code == "UNDECLARED_COMPONENT"  # the declared-component check comes first
    for name in ("P", "C"):
        with pytest.raises(KernelError) as err:
            rt.register(name, None)
        assert str(err.value) == f"MISSING_IMPLEMENTATION: '{name}' cannot be registered as None"
    rt.register("P", chain_impls()["P"])  # the refused registration left the name free


def test_set_source_on_an_unbound_source_is_a_missing_binding():
    rt = create_runtime(CHAIN)
    with pytest.raises(KernelError) as err:
        rt.set_source("S", int_value(1))
    assert str(err.value) == "MISSING_BINDING [S]: source 'S' has no provider bound"


def test_emitting_a_bare_payload_is_a_type_mismatch():
    app = build_webcam_app()
    with pytest.raises(KernelError) as err:
        app.runtime.emit("Camera", 5)
    assert str(err.value) == "TYPE_MISMATCH [Camera]: source 'Camera' carries Picture, got 5"
    assert not app.runtime.failed  # refused at entry, before any drain


def test_forged_fault_is_the_implementations_own_panic():
    forged = RuntimeFault("PLATFORM_FAULT", "provider raised OSError: no", component="S")

    def liar(v, publish):
        raise forged

    rt, _, _ = wire(CHAIN, chain_impls(P=liar))
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(1))
    assert (err.value.code, err.value.component) == ("IMPLEMENTATION_PANIC", "P")
    assert err.value.__cause__ is forged
    assert rt.failed


def test_provider_answer_of_wrong_type_blames_the_puller():
    spec = Specification((
        SourceDecl("S", INT),
        SourceDecl("T", INT),
        ActionDecl("A", INT),
        ContextDecl("P", INT, when_provided("S", PublishSpec.ALWAYS, get="T")),
        ControllerDecl("C", "P", "A"),
    ))
    rt, sources, _ = wire(spec, {"P": lambda v, get, pub: pub(get()), "C": lambda v, do: do(v)})
    sources["T"].set(Value(STRING, "x"))  # behind the kernel's back: the provider is platform code
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(1))
    assert str(err.value) == "TYPE_MISMATCH [P]: provider for 'T' answered with String 'x', expected Int"
    assert rt.failed


PULLED = Specification((
    SourceDecl("S", INT),
    SourceDecl("T", INT),
    ActionDecl("A", INT),
    ContextDecl("R", INT, when_required(get="T")),
    ContextDecl("P", INT, when_provided("S", PublishSpec.ALWAYS, get="R")),
    ControllerDecl("C", "P", "A"),
))


@pytest.mark.parametrize("swallow", [False, True])
@pytest.mark.parametrize("kind, component", [("activate", "R"), ("pull", "R"), ("pull", "P")])
def test_failing_hook_is_a_hook_fault_of_the_event_component(kind, component, swallow):
    def hook(event):
        if (event.kind, event.component) == (kind, component):
            raise OSError("hook down")

    def puller(v, get, publish):
        try:
            v = get()
        except Exception:
            if not swallow:
                raise
        publish(v)

    rt, sources, sinks = wire(PULLED, {"R": lambda get: get(), "P": puller, "C": lambda v, do: do(v)})
    rt.set_source("T", int_value(5))
    rt.trace = hook
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(1))
    assert str(err.value) == f"HOOK_FAULT [{component}]: trace hook raised OSError: hook down"
    assert isinstance(err.value.__cause__, OSError)
    assert rt.failed and not rt._queue and sinks["A"].deliveries == []


def test_stale_handle_after_activation_ends():
    stash = []

    def keeper(v, publish):
        stash.append(publish)
        publish(v)

    rt, _, _ = wire(CHAIN, chain_impls(P=keeper))
    rt.emit("S", int_value(1))
    with pytest.raises(RuntimeFault) as err:
        stash[0](99)
    assert err.value.code == "STALE_HANDLE"


# P pulls R and may publish; C sends what P publishes to A. Between them they hold all four handles.
LENDING = Specification((
    SourceDecl("S", INT),
    ActionDecl("A", INT),
    ContextDecl("R", INT, when_required()),
    ContextDecl("P", INT, when_provided("S", PublishSpec.MAYBE, get="R")),
    ControllerDecl("C", "P", "A"),
))


def test_handle_borrowed_by_another_activation_is_stale():
    """R, pulled by P, calls a handle of P's live activation (get, publish or nopublish)
    or, on the second emit, the do handle of C's ended one."""
    for borrowed, owner in (("get", "P"), ("publish", "P"), ("nopublish", "P"), ("do", "C")):
        stash = {}

        def p_impl(v, get, publish, nopublish):
            stash.update(get=get, publish=publish, nopublish=nopublish)
            get()
            publish(v)

        def c_impl(v, do):
            stash["do"] = do
            do(v)

        def r_impl():
            if borrowed in stash:
                stash[borrowed](*HANDLE_ARGUMENTS[borrowed])  # another component's handle
            return 0

        rt, _, sinks = wire(LENDING, {"P": p_impl, "R": r_impl, "C": c_impl})
        if borrowed == "do":
            rt.emit("S", int_value(1))  # C stashes its do handle, then its activation ends
        with pytest.raises(RuntimeFault) as err:
            rt.emit("S", int_value(2))
        assert (err.value.code, err.value.component) == ("STALE_HANDLE", owner), borrowed
        assert sinks["A"].deliveries == [int_value(1)] * (borrowed == "do")


def test_every_handle_raises_the_swallowed_fault_again():
    """Once an implementation has caught its activation's fault, each of its handles
    raises that first fault again, and so does the activation."""
    for culprit, first in (("R", ("IMPLEMENTATION_PANIC", "R")), ("A", ("PLATFORM_FAULT", "A"))):
        caught = []

        def swallow(*calls):
            for call in calls:
                with pytest.raises(RuntimeFault) as err:
                    call()
                caught.append(err.value)

        def r_impl():
            if culprit == "R":
                raise OSError("R down")
            return 0

        def sink(v):
            if culprit == "A":
                raise OSError("A down")

        def p_impl(v, get, publish, nopublish):
            if culprit != "R":
                publish(get())
            swallow(get, get, lambda: publish(v), nopublish)

        rt = create_runtime(LENDING)
        rt.register("R", r_impl)
        rt.register("P", p_impl)
        rt.register("C", lambda v, do: swallow(lambda: do(v), lambda: do(v), lambda: do(v)))
        rt.bind_source("S", ScriptedSource())
        rt.bind_action("A", sink)
        rt.seal()
        with pytest.raises(RuntimeFault) as err:
            rt.emit("S", int_value(1))
        assert (err.value.code, err.value.component) == first
        assert len(caught) == 4 - (culprit == "A") and all(fault is err.value for fault in caught)
        assert rt.failed


# -- determinism and the taint invariant --------------------------------------

def test_identical_runs_produce_identical_logs():
    for seed in (3, 13, 17):
        first = genspec.random_app(seed)
        second = genspec.random_app(seed)
        genspec.drive(first, seed)
        genspec.drive(second, seed)
        assert first.runtime.action_log() == second.runtime.action_log()
        assert first.runtime.action_log()  # scenarios actually delivered something


def test_source_emissions_carry_their_own_taint():
    events = []
    rt, _, _ = wire(CHAIN, chain_impls())
    rt.trace = events.append
    rt.emit("S", int_value(1))
    first = events[0]
    assert first.kind == "activate" and first.component == "P"
    assert first.value.taints == {"S"}


FAULT_CODES = {"implementation": "IMPLEMENTATION_PANIC", "provider": "PLATFORM_FAULT",
               "sink": "PLATFORM_FAULT", "hook": "HOOK_FAULT"}


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), pick=st.integers(0, 50), at=st.integers(1, 12))
def test_injected_faults_poison_the_runtime_and_blame_the_culprit(seed, pick, at):
    injector = genspec.Injector(pick, at)
    app = genspec.random_app(seed, wrap=injector.wrap)
    app.runtime.trace = injector.wrap("hook", "trace", lambda event: None)
    try:
        genspec.drive(app, seed)
    except RuntimeFault as fault:
        kind, name = injector.culprit
        assert injector.calls == at
        assert isinstance(fault.__cause__, genspec.Injected)
        assert (fault.code, fault.component) == (FAULT_CODES[kind], injector.blamed)
        # A provider's first call is the set() of drive's presetting set_source,
        # which runs outside any drain and so poisons nothing.
        assert app.runtime.failed is not (kind == "provider" and at == 1)
        assert not app.runtime._queue
    else:
        assert injector.calls < at and not app.runtime.failed
    graph = build_flow_graph(app.spec)
    for target, tv in app.runtime.action_log():
        assert tv.taints <= source_ancestors(graph, target)


# -- tailored activators ---------------------------------------------------------

# The seven contract shapes: component X's interaction contract (None for a
# controller) and the handles its implementation receives after the payload.
SHAPES = {
    "when-required": (when_required(), ()),
    "when-required get": (when_required(get="T"), ("get",)),
    "always_publish": (when_provided("S", PublishSpec.ALWAYS), ("publish",)),
    "always_publish get": (when_provided("S", PublishSpec.ALWAYS, get="T"), ("get", "publish")),
    "maybe_publish": (when_provided("S", PublishSpec.MAYBE), ("publish", "nopublish")),
    "maybe_publish get": (when_provided("S", PublishSpec.MAYBE, get="T"), ("get", "publish", "nopublish")),
    "controller": (None, ("do",)),
}
HANDLE_ARGUMENTS = {"get": (), "do": (5,), "publish": (5,), "nopublish": ()}


def _shape_app(contract):
    """An app in which X has ``contract`` (None: X is a controller on P) and runs once per emit of S."""
    decls = [SourceDecl("S", INT), SourceDecl("T", INT), ActionDecl("A", INT)]
    if contract is None:
        decls += [ContextDecl("P", INT, when_provided("S", PublishSpec.ALWAYS)), ControllerDecl("X", "P", "A")]
        return Specification(tuple(decls)), {"P": lambda v, publish: publish(v)}
    decls.append(ContextDecl("X", INT, contract))
    if contract.trigger is None:  # pulled by P
        decls += [ContextDecl("P", INT, when_provided("S", PublishSpec.ALWAYS, get="X")),
                  ControllerDecl("C", "P", "A")]
        return Specification(tuple(decls)), {"P": lambda v, get, publish: publish(get()),
                                             "C": lambda v, do: do(v)}
    decls.append(ControllerDecl("C", "X", "A"))
    return Specification(tuple(decls)), {"C": lambda v, do: do(v)}


@pytest.mark.parametrize("shape", SHAPES)
def test_each_shape_gets_exactly_its_contracts_arguments_and_every_handle_goes_stale(shape):
    contract, handle_names = SHAPES[shape]
    triggered = contract is None or contract.trigger is not None
    seen = []

    def x_impl(*args):
        seen.append(args)
        handles = dict(zip(handle_names, args[len(args) - len(handle_names):]))
        value = (args[0] if triggered else 0) + (handles["get"]() if "get" in handles else 0) + 2
        for name in ("do", "publish"):
            if name in handles:
                handles[name](value)
        return None if triggered else value

    spec, impls = _shape_app(contract)
    rt, sources, sinks = wire(spec, {**impls, "X": x_impl})
    sources["T"].set(int_value(10))
    rt.emit("S", int_value(1))
    assert sinks["A"].deliveries == [int_value(triggered + 10 * ("get" in handle_names) + 2)]
    (args,) = seen
    payload, handles = (args[0], args[1:]) if triggered else (None, args)
    assert payload == (1 if triggered else None)
    assert [h.__name__ for h in handles] == list(handle_names)
    assert len({id(h.__self__) for h in handles}) <= 1  # all bound to one activation
    for handle in handles:
        with pytest.raises(RuntimeFault) as err:
            handle(*HANDLE_ARGUMENTS[handle.__name__])
        assert (err.value.code, err.value.component) == ("STALE_HANDLE", "X")
    assert not rt.failed


def test_the_sealed_hot_path_looks_up_no_names(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("a name was looked up in the specification after seal")

    for trace in (None, []):
        app = build_webcam_app(trace=None if trace is None else trace.append)
        monkeypatch.setattr(Specification, "find", refuse)
        monkeypatch.setattr(Specification, "by_name", refuse)
        app.runtime.set_source("IP", Value(STRING, "Ads Inc"))
        app.runtime.emit("Camera", make_picture(640, 480, 7))
        app.runtime.emit("IP", Value(STRING, "Ads Inc"))
        ((target, tv),) = app.runtime.action_log()
        assert f"{target} <- {render_value(tv.value)} taints={render_taints(tv.taints)}" == \
            'Screen <- picture(640x480,seed=7,overlays=["Ads Inc"]) taints={Camera,IP}'
        assert trace is None or [ev.kind for ev in trace].count("pull") == 2
        monkeypatch.undo()


# -- tracing -------------------------------------------------------------------

TRACE_SCRIPT = 'set IP ""\nemit Camera picture(8x6,seed=1)\nset IP "Ads"\nemit Camera picture(8x6,seed=2)\n'


def test_untraced_emit_builds_no_trace_event(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a trace event was built with no hook attached")

    app = build_webcam_app()
    monkeypatch.setattr(scckit.runtime, "TraceEvent", refuse)
    run_scenario(app.runtime, parse_scenario(TRACE_SCRIPT))
    assert len(app.screen.deliveries) == 1


def test_hook_attached_after_seal_sees_what_a_hook_given_at_build_sees():
    at_build, after_seal = [], []
    first = build_webcam_app(trace=at_build.append)
    second = build_webcam_app()
    second.runtime.trace = after_seal.append
    for app in (first, second):
        run_scenario(app.runtime, parse_scenario(TRACE_SCRIPT))
    assert after_seal == at_build
    assert {(ev.kind, ev.component) for ev in at_build} == {
        ("activate", "ProcessPicture"), ("activate", "ComposeDisplay"), ("activate", "MakeAd"),
        ("activate", "Display"), ("pull", "MakeAd"), ("pull", "ComposeDisplay")}
    display = [ev for ev in at_build if ev.component == "Display"]
    assert display[0].value.value == Value(DataType.PICTURE, PictureData(8, 6, 2, ("Ads",)))
    assert display[0].value.taints == {"Camera", "IP"}
