"""Engine semantics: registry, sealing, dispatch, contracts, taints, handles."""

import contextlib
import dataclasses
import enum
import functools
import gc
import inspect
import pickle
import random
import sys
import textwrap
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genspec
import reference
import scckit.runtime
import scckit.webcam as webcam
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
    derive_all,
    derive_contract,
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
from scckit.flow import _ancestry
from scckit.values import INT64_MAX, INT64_MIN

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
        assert str(err.value) == f"UNDECLARED_COMPONENT [{name}]: '{name}' is not a declared context or controller"
        assert err.value.component == name


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


def test_seal_names_every_missing_name_in_declaration_order_components_first():
    spec = Specification((
        SourceDecl("Sb", INT),
        ContextDecl("Pz", INT, when_provided("Sb", PublishSpec.ALWAYS)),
        ActionDecl("Ay", INT),
        SourceDecl("Sa", INT),
        ControllerDecl("Cb", "Pz", "Ay"),
        ContextDecl("Pa", INT, when_provided("Sa", PublishSpec.ALWAYS)),
        ActionDecl("Ax", INT),
        ControllerDecl("Ca", "Pa", "Ax"),
    ))
    rt = create_runtime(spec)
    rt.register("Cb", lambda v, do: do(v))
    rt.register("Pa", lambda v, publish: publish(v))
    rt.bind_source("Sb", ScriptedSource())
    rt.bind_action("Ax", RecordingSink())
    with pytest.raises(KernelError) as err:
        rt.seal()
    assert str(err.value) == "MISSING_IMPLEMENTATION: unimplemented components: Pz, Ca"
    assert err.value.names == ("Pz", "Ca") and err.value.component is None
    rt.register("Ca", lambda v, do: do(v))
    rt.register("Pz", lambda v, publish: publish(v))
    with pytest.raises(KernelError) as err:
        rt.seal()
    assert str(err.value) == "MISSING_BINDING: unbound resources: Ay, Sa"
    assert err.value.names == ("Ay", "Sa") and err.value.component is None
    assert not rt.sealed


def test_rt_contracts_cannot_change_what_seal_links():
    # validate and derive_all prove the wiring once and seal trusts it, so the
    # contracts seal reads must be out of reach: rt.contracts is a read-only view.
    rt, _, sinks = wire(CHAIN, chain_impls(), seal=False)
    p, c = rt.contracts["P"], rt.contracts["C"]
    tampered = {"P": dataclasses.replace(p, publish=PublishSpec.MAYBE),
                "C": dataclasses.replace(c, activation_param=STRING, capability=None)}
    for name, contract in tampered.items():
        with pytest.raises(TypeError):
            rt.contracts[name] = contract
        with pytest.raises(TypeError):
            del rt.contracts[name]
    assert rt.contracts == {"P": p, "C": c}
    rt.contracts = tampered
    rt.seal()
    rt.emit("S", int_value(1))
    assert sinks["A"].deliveries == [int_value(2)]
    assert not rt.failed


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


def test_each_point_of_the_lifecycle_gives_each_call_its_code():
    """``sealed``, ``failed`` and what ``register``, ``bind_action``, ``emit`` and ``seal`` give (None: they
    succeed), before ``seal``, after it, from a sink during a drain, and after a failed drain."""
    rt, sink, armed, seen = create_runtime(CHAIN), RecordingSink(), [], []

    def probe():
        outcome = [rt.sealed, rt.failed]
        for call, *args in (("register", "P", chain_impls()["P"]), ("bind_action", "A", reentering),
                            ("emit", "S", int_value(1)), ("seal",)):
            try:
                outcome.append(getattr(rt, call)(*args))
            except KernelError as err:
                outcome.append(err.code)
        return outcome

    def reentering(v):
        sink(v)
        if armed:
            seen.append(probe())
            rt.emit("S", int_value(2))  # refused, and the refusal leaves the sink

    for name, impl in chain_impls().items():
        rt.register(name, impl)
    rt.bind_source("S", ScriptedSource())
    rt.bind_action("A", reentering)
    assert probe() == [False, False, "DUPLICATE_IMPLEMENTATION", "DUPLICATE_BINDING", "UNSEALED", None]
    assert probe() == [True, False, "SEALED", "SEALED", None, "SEALED"]
    armed.append(True)
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(3))
    assert seen == [[True, False, "SEALED", "SEALED", "REENTRANT_EMIT", "SEALED"]]
    assert str(err.value) == ("PLATFORM_FAULT [A]: sink raised KernelError: REENTRANT_EMIT: "
                              "emit of 'S' started while an emit of this runtime runs")
    armed.clear()
    assert probe() == [True, True, "SEALED", "SEALED", "RUNTIME_FAILED", "SEALED"]
    assert [v.payload for v in sink.deliveries] == [2, 4] and not rt._queue


def test_emit_type_checks_against_source_type():
    rt, _, _ = wire(CHAIN, chain_impls())
    with pytest.raises(KernelError) as err:
        rt.emit("S", Value(STRING, "x"))
    assert err.value.code == "TYPE_MISMATCH"
    assert rt.action_log() == ()


def test_wrong_kind_messages_name_each_kind_with_its_article():
    unsealed, app = create_runtime(webcam_spec()), build_webcam_app()
    refusals = [(unsealed.bind_source, "Screen", ScriptedSource()), (unsealed.bind_action, "Camera", RecordingSink()),
                (app.runtime.emit, "Screen", make_picture(8, 6, 1)),
                (derive_contract, unsealed.spec, "Camera"), (derive_contract, unsealed.spec, "Screen")]
    messages = []
    for call, *args in refusals:
        with pytest.raises(KernelError) as err:
            call(*args)
        assert err.value.code == "WRONG_KIND"
        messages.append(err.value.detail)
    assert messages == [
        "'Screen' is an action, not a source",
        "'Camera' is a source, not an action",
        "'Screen' is an action, not a source",
        "'Camera' is a source; only contexts and controllers carry boundary contracts",
        "'Screen' is an action; only contexts and controllers carry boundary contracts",
    ]


@pytest.mark.parametrize("call", ["bind_source", "bind_action", "set_source", "emit"])
@pytest.mark.parametrize("name, expected", [
    ("Ghost", "UNDECLARED_COMPONENT [Ghost]: 'Ghost' is not declared"),
    ("P", "WRONG_KIND [P]: 'P' is a context, not {}"),
    ("C", "WRONG_KIND [C]: 'C' is a controller, not {}"),
    ("", "UNDECLARED_COMPONENT []: '' is not declared"),
    (0, "UNDECLARED_COMPONENT [0]: '0' is not declared"),
])
def test_each_registry_call_refuses_a_name_of_no_resource_it_takes(call, name, expected):
    """``bind_*``, ``set_source`` and ``emit`` name what they were asked for: a missing name, then a wrong
    kind. A falsy name keeps its blame in the text."""
    rt = wire(CHAIN, chain_impls())[0] if call == "emit" else create_runtime(CHAIN)
    arg = {"bind_source": ScriptedSource(), "bind_action": RecordingSink()}.get(call, int_value(1))
    with pytest.raises(KernelError) as err:
        getattr(rt, call)(name, arg)
    assert str(err.value) == expected.format("an action" if call == "bind_action" else "a source")
    assert err.value.component == name


@pytest.mark.parametrize("call", ["register", "bind_source", "bind_action", "set_source", "emit"])
@pytest.mark.parametrize("name", [["P"], {}, ("S", ["S"])], ids=["list", "dict", "tuple of a list"])
def test_a_name_that_is_not_hashable_is_an_undeclared_component(call, name):
    """Each registry call refuses a name that is not hashable with a stable code that blames it, and the
    refusal poisons nothing: the runtime then wires, seals and emits as usual."""
    rt, sink = create_runtime(CHAIN), RecordingSink()

    def wire_up():
        for declared, impl in chain_impls().items():
            rt.register(declared, impl)
        rt.bind_source("S", ScriptedSource())
        rt.bind_action("A", sink)
        rt.seal()

    if call in ("set_source", "emit"):
        wire_up()
    arg = {"register": chain_impls()["P"], "bind_source": ScriptedSource(), "bind_action": RecordingSink()}
    with pytest.raises(KernelError) as err:
        getattr(rt, call)(name, arg.get(call, int_value(1)))
    assert (err.value.code, err.value.component) == ("UNDECLARED_COMPONENT", name)
    assert err.value.detail == f"'{name}' is not " + ("a declared context or controller" if call == "register"
                                                      else "declared")
    assert not rt.failed
    if not rt.sealed:
        wire_up()
    rt.emit("S", int_value(1))
    assert [v.payload for v in sink.deliveries] == [2]


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


def test_each_pull_level_costs_two_interpreter_frames():
    """The get handle and the implementation it calls: the handle starts the pulled
    activation itself, with no frame between (see ``decls.MAX_PULL_DEPTH``)."""
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
    assert [frames[i + 1] - frames[i] for i in range(1, depth)] == [2] * (depth - 1)


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


# -- tail-call continuations --------------------------------------------------

# The rule that lets a continuation return reads CPython 3.11 bytecode; elsewhere every one raises.
TAIL_RULE = sys.version_info[:2] == (3, 11)


@pytest.fixture
def escapes(monkeypatch):
    """The component of each escape a continuation raises, in order."""
    raised = []

    class Counting(scckit.runtime._ActivationEscape):
        def __init__(self, act):
            super().__init__(act)
            raised.append(act.plan.name)

    monkeypatch.setattr(scckit.runtime, "_ActivationEscape", Counting)
    return raised


MAYBE_CHAIN = Specification((
    SourceDecl("S", INT),
    ActionDecl("A", INT),
    ContextDecl("P", INT, when_provided("S", PublishSpec.MAYBE)),
    ControllerDecl("C", "P", "A"),
))


def _def(body):
    """P's implementation with ``body``, which returns at once, with no continuation, for 0.
    ``after`` records code that ran past a continuation, ``stash`` handles that outlive it."""
    source = "def impl(v, publish, nopublish):\n    if v == 0:\n        return\n" + textwrap.indent(body, "    ")

    def make(after, stash):
        def helper(handle, x):
            stash.append(handle)
            handle(x)
            after.append(x)

        scope = {"after": after, "stash": stash, "helper": helper, "contextlib": contextlib}
        exec(source, scope)
        return scope["impl"]
    return make


def _starred(v, *handles):
    if v != 0:
        handles[0](v)


def _with_extra(extra, v, publish, nopublish):
    if v != 0:
        publish(v)


class _Impl:
    def method(self, v, publish, nopublish):
        if v != 0:
            publish(v)

    __call__ = method


# Whether each form's publish returns under TAIL_RULE, and the form.
TAIL_FORMS = {
    "the last statement": (True, _def("publish(v)")),
    "return publish(v)": (True, _def("return publish(v)")),
    "a lambda": (True, lambda after, stash: lambda v, publish, nopublish: v and publish(v)),
    "beside a non-tail nopublish": (True, _def("if v < 0:\n    nopublish()\npublish(v)")),
    "code after the call": (False, _def("publish(v)\nafter.append(v)\nnopublish()")),
    "a call in a loop": (False, _def("for x in (v, v):\n    publish(x)")),
    "try/except": (False, _def("try:\n    publish(v)\nexcept Exception:\n    after.append(v)")),
    "try/finally": (False, _def("try:\n    publish(v)\nfinally:\n    pass")),
    "with": (False, _def("with contextlib.nullcontext():\n    publish(v)")),
    "passed to a helper": (False, _def("helper(publish, v)")),
    "stored": (False, _def("p = publish\np(v)")),
    "closed over": (False, _def("call = lambda x: publish(x)\nstash.append(call)\ncall(v)")),
    "deleted": (False, _def("if v < 0:\n    del publish\n    return nopublish()\nreturn publish(v)")),
    "publish(publish(v))": (False, _def("publish(publish(v))")),
    "a conditional argument": (False, _def("publish(v if v > 0 else -v)")),
    "a walrus on the handle": (False, _def("return (t := publish)(helper(t, v))")),
    "a jump in a helper's argument": (False, _def("return helper(publish, v + (0 if v else 1))")),
    "a conditional around the call": (True, lambda after, stash: lambda v, publish, nopublish:
                                      publish(v) if v else None),  # a jump to the return the branches share
    "a conditional statement, then return": (True, _def("publish(v) if v > 0 else nopublish()\nreturn")),
    "return of a conditional": (True, _def("return publish(v) if v > 0 else nopublish()")),
    "a jump to a store": (False, _def("x = publish(v) if v else None\nafter.append(x)")),
    "a jump to another test": (False, _def("return (publish(v) if v else None) or after.append(v)")),
    "a test of the call's result": (False, _def("return publish(v) or after.append(v)")),
    "*args": (False, lambda after, stash: _starred),
    "functools.partial": (False, lambda after, stash: functools.partial(_with_extra, None)),
    "a bound method": (False, lambda after, stash: _Impl().method),
    "a callable object": (False, lambda after, stash: _Impl()),
}


@pytest.mark.parametrize("form", TAIL_FORMS)
def test_publish_returns_only_where_the_implementation_returns_right_after_it(form, escapes):
    """A continuation that raised before raises still: the body never runs past it, and
    DOUBLE_CONTINUATION, NO_CONTINUATION_CALLED and STALE_HANDLE come as before."""
    returns, make = TAIL_FORMS[form]
    after, stash = [], []
    rt, _, sinks = wire(MAYBE_CHAIN, chain_impls(P=make(after, stash)))
    rt.emit("S", int_value(1))
    rt.emit("S", int_value(2))
    assert sinks["A"].deliveries == [int_value(1), int_value(2)]  # no DOUBLE_CONTINUATION
    assert escapes == ([] if returns and TAIL_RULE else ["P", "P"])
    assert after == []
    for handle in stash:
        with pytest.raises(RuntimeFault) as err:
            handle(5)
        assert (err.value.code, err.value.component) == ("STALE_HANDLE", "P")
    assert not rt.failed
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(0))
    assert (err.value.code, err.value.component) == ("NO_CONTINUATION_CALLED", "P")


def test_a_generator_body_never_runs_inside_its_activation(escapes):
    """So the tail rule need not refuse generators: their handles are stale before the
    body could call them."""
    rt, _, sinks = wire(MAYBE_CHAIN, chain_impls(P=_def("publish(v)\nif v < 0:\n    yield")([], [])))
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(1))
    assert (err.value.code, err.value.component) == ("NO_CONTINUATION_CALLED", "P")
    assert sinks["A"].deliveries == [] and escapes == []


@pytest.mark.skipif(not TAIL_RULE, reason="every continuation raises off CPython 3.11")
def test_continuations_raise_only_where_code_could_follow_them(escapes):
    """The webcam app raises one escape per frame withheld for an empty ad (its
    nopublish), and none otherwise; chains of tail lambdas raise none."""
    app = build_webcam_app()
    expected = []
    for seed, ad in enumerate(["Ads Inc", "", "x", ""]):
        app.runtime.set_source("IP", Value(STRING, ad))
        for _ in range(3):
            app.runtime.emit("Camera", make_picture(8, 8, seed))
            expected += ["ComposeDisplay"] * (ad == "")
    assert escapes == expected and len(app.screen.deliveries) == 6

    escapes.clear()
    impls = {f"P{i}": lambda v, publish: publish(v + 1) for i in range(1, 6)}
    rt, _, sinks = wire(genspec.publish_chain(5), {**impls, "C": lambda v, do: do(v)})
    impls = {f"R{i}": lambda get: get() + 1 for i in range(1, 6)}
    pulled, _, pulled_sinks = wire(genspec.pull_chain(5), {
        **impls, "P": lambda v, get, publish: publish(get()), "C": lambda v, do: do(v)})
    for n in range(3):
        rt.emit("S", int_value(n))
        pulled.emit("S", int_value(n))
    assert sinks["A"].deliveries == [int_value(n + 5) for n in range(3)]
    assert pulled_sinks["A"].deliveries == sinks["A"].deliveries
    assert escapes == []


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


def test_a_delivery_keeps_two_tracked_objects_and_the_log_pairs_them_at_each_read():
    """The log holds a delivery's action name and ``TaintedValue`` side by side: with the
    collector off, n deliveries through a sink that drops its values add exactly 2n objects
    it tracks (each ``TaintedValue`` and its ``Value``), and no pair tuple."""
    n, refused = 400, 10**6

    def sink(value):
        if value.payload == refused + 1:
            raise OSError("screen unplugged")

    rt = create_runtime(CHAIN)
    for name, impl in chain_impls().items():
        rt.register(name, impl)
    rt.bind_source("S", ScriptedSource())
    rt.bind_action("A", sink)
    rt.seal()
    values = [int_value(i) for i in range(n + 1)]
    rt.emit("S", values[0])  # the first emit, which may fill caches, is not counted
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for v in values[1:]:
            rt.emit("S", v)
        held = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert held == 2 * n

    want = tuple(("A", TaintedValue(int_value(i + 1), frozenset({"S"}))) for i in range(n + 1))
    first, second = rt.action_log(), rt.action_log()
    assert first == second == want and first is not second
    assert all(type(entry) is tuple and type(entry[0]) is str and type(entry[1]) is TaintedValue
               and a is not b for entry, a, b in zip(first, first, second))
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(refused))  # the sink refuses what C sends: nothing is logged
    assert err.value.code == "PLATFORM_FAULT" and rt.failed
    assert rt.action_log() == want  # a poisoned runtime's log stays readable


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


class _LostLink(ScriptedSource):
    """A provider whose ``current`` and ``set`` are properties that raise once it is ``armed``: then
    looking either up fails, before any call. Binding looks both up, so arm it after ``seal``."""

    armed = False

    @property
    def current(self):
        return self._linked(super().current)

    @property
    def set(self):
        return self._linked(super().set)

    def _linked(self, method):
        if self.armed:
            raise RuntimeError("provider lost its link")
        return method


class _Offline(ScriptedSource):
    def current(self):
        raise OSError("sensor offline")


class _Unplugged(ScriptedSource):
    def set(self, v):
        raise OSError("camera gone")


# S wakes P, which pulls T.
PULL_T = Specification((
    SourceDecl("S", INT),
    SourceDecl("T", INT),
    ActionDecl("A", INT),
    ContextDecl("P", INT, when_provided("S", PublishSpec.ALWAYS, get="T")),
    ControllerDecl("C", "P", "A"),
))


@pytest.mark.parametrize("swallow", [False, True])
@pytest.mark.parametrize("fails", ["call", "lookup"])
def test_failing_provider_is_a_platform_fault_of_its_source(fails, swallow):
    """A pull of T fails as T's provider's fault, whether ``current`` raises when called or
    when looked up, and even if the puller swallows it."""
    def puller(v, get, publish):
        try:
            v += get()
        except Exception:
            if not swallow:
                raise
        publish(v)

    rt = create_runtime(PULL_T)
    rt.register("P", puller)
    rt.register("C", lambda v, do: do(v))
    rt.bind_source("S", ScriptedSource())
    provider = _Offline() if fails == "call" else _LostLink(int_value(2))
    rt.bind_source("T", provider)
    rt.bind_action("A", RecordingSink())
    rt.seal()
    provider.armed = True  # read by _LostLink alone
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(1))
    raised = OSError("sensor offline") if fails == "call" else RuntimeError("provider lost its link")
    assert str(err.value) == f"PLATFORM_FAULT [T]: provider raised {type(raised).__name__}: {raised}"
    assert type(err.value.__cause__) is type(raised)
    assert rt.failed and not rt._queue and rt.action_log() == ()


@pytest.mark.parametrize("during_emit", [True, False])
@pytest.mark.parametrize("fails", ["call", "lookup"])
def test_failing_provider_set_is_a_platform_fault_of_its_source(fails, during_emit):
    rt = create_runtime(CHAIN)
    for name, impl in chain_impls().items():
        rt.register(name, impl)
    provider = _Unplugged() if fails == "call" else _LostLink()
    rt.bind_source("S", provider)
    rt.bind_action("A", RecordingSink())
    rt.seal()
    provider.armed = True  # read by _LostLink alone
    with pytest.raises(RuntimeFault) as err:
        (rt.emit if during_emit else rt.set_source)("S", int_value(1))
    raised = OSError("camera gone") if fails == "call" else RuntimeError("provider lost its link")
    assert str(err.value) == f"PLATFORM_FAULT [S]: provider raised {type(raised).__name__}: {raised}"
    assert type(err.value.__cause__) is type(raised)
    assert rt.failed is during_emit  # set_source runs outside any drain
    assert not rt._queue and rt.action_log() == ()


@pytest.mark.parametrize("entry", ["pull", "emit", "set_source"])
def test_a_provider_lookup_that_raises_fails_as_the_reference_does(entry):
    """Looking up T's ``current`` in a pull, or S's ``set`` in ``emit`` or ``set_source``, raises:
    the kernel and the reference both blame that provider, with the same fault, ``failed``,
    queue and log."""
    seen = []
    for make in ("kernel", "reference"):
        providers, sinks = {"S": _LostLink(), "T": _LostLink(int_value(2))}, {"A": RecordingSink()}
        impls = {"P": lambda v, get, publish: publish(v + get()), "C": lambda v, do: do(v)}
        if make == "kernel":
            rt = create_runtime(PULL_T)
            for name, impl in impls.items():
                rt.register(name, impl)
            for name, provider in providers.items():
                rt.bind_source(name, provider)
            rt.bind_action("A", sinks["A"])
            rt.seal()
            queue = rt._queue
        else:
            rt = reference.Reference(PULL_T, impls, providers, sinks)
            queue = rt.queue
        providers["T" if entry == "pull" else "S"].armed = True
        with pytest.raises(RuntimeFault) as err:
            (rt.set_source if entry == "set_source" else rt.emit)("S", int_value(1))
        seen.append((str(err.value), type(err.value.__cause__), rt.failed, tuple(queue), rt.action_log()))
    assert seen[0] == seen[1]
    blamed = "T" if entry == "pull" else "S"
    assert seen[0] == (f"PLATFORM_FAULT [{blamed}]: provider raised RuntimeError: provider lost its link",
                       RuntimeError, entry != "set_source", (), ())


def test_binding_none_is_rejected():
    rt = create_runtime(CHAIN)
    for bind, name in ((rt.bind_source, "S"), (rt.bind_action, "A")):
        with pytest.raises(KernelError) as err:
            bind(name, None)
        assert str(err.value) == f"MISSING_BINDING: '{name}' cannot be bound to None"
    rt.bind_source("S", ScriptedSource())  # the refused binding left the name free


class _NoCurrent:
    def set(self, v):
        pass


class _Misnamed:
    current = None  # not callable, so no provider's current

    def set_value(self, v):
        pass


@pytest.mark.parametrize("name, obj, expected", [
    ("S", _NoCurrent(), "'S' cannot be bound to an object without a callable 'current'"),
    ("S", _Misnamed(), "'S' cannot be bound to an object without a callable 'current' and 'set'"),
    ("S", types.SimpleNamespace(current=lambda: None), "'S' cannot be bound to an object without a callable 'set'"),
    ("A", ScriptedSource(), "'A' cannot be bound to an object that is not callable"),
])
def test_binding_an_object_without_the_duck_type_is_rejected(name, obj, expected):
    """A provider needs a callable ``current`` and ``set``, and a sink must be callable: the
    binding is refused at once, not blamed later on a puller or on no party."""
    rt = create_runtime(CHAIN)
    with pytest.raises(KernelError) as err:
        (rt.bind_source if name == "S" else rt.bind_action)(name, obj)
    assert str(err.value) == f"MISSING_BINDING: {expected}"
    rt.bind_source("S", ScriptedSource())  # the refused binding left the name free
    rt.bind_action("A", RecordingSink())


@pytest.mark.parametrize("impl, what", [
    (None, "None"), (5, "an object that is not callable"), ("P", "an object that is not callable"),
    (types.SimpleNamespace(__call__=lambda v, publish: None), "an object that is not callable"),
])
def test_registering_an_object_that_is_not_callable_is_rejected(impl, what):
    """The caller's fault, refused at once: not a panic blamed on the component at its first
    activation, after sinks in that drain may have been called, or never if it is never woken."""
    rt = create_runtime(CHAIN)
    with pytest.raises(KernelError) as err:
        rt.register("Ghost", impl)
    assert err.value.code == "UNDECLARED_COMPONENT"  # the declared-component check comes first
    for name in ("P", "C"):
        with pytest.raises(KernelError) as err:
            rt.register(name, impl)
        assert str(err.value) == f"MISSING_IMPLEMENTATION: '{name}' cannot be registered as {what}"
    for name, impl in chain_impls().items():  # the refused registrations left the names free
        rt.register(name, impl)


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


# S wakes P, which always publishes; C1 and C2 both send what P publishes to A.
FAN_OUT = Specification((
    SourceDecl("S", INT),
    ActionDecl("A", INT),
    ContextDecl("P", INT, when_provided("S", PublishSpec.ALWAYS)),
    ControllerDecl("C1", "P", "A"),
    ControllerDecl("C2", "P", "A"),
))


PANIC = "IMPLEMENTATION_PANIC [{}]: implementation raised the escape of another activation's continuation"
REPLAYED = {"P": PANIC.format("P"), "C1": PANIC.format("C1"), "forger": PANIC.format("C1"),
            "swallower": "CONTRACT_VIOLATION [C1]: value sent to 'A' must be Int, got 'not an int'"}


@pytest.mark.parametrize("replayer", REPLAYED)
def test_replayed_escape_is_the_panic_of_the_component_that_raises_it(replayer):
    """P keeps the escape its publish raised; P raises it again on the next emit, or C1
    raises it in the same drain, while C2 still waits in the queue. A forger's C1 raises
    an escape it made itself. A swallower's C1 first swallows the fault of a bad do, which
    the escape it raises then surfaces."""
    kept = [scckit.runtime._ActivationEscape()] if replayer == "forger" else []

    def keeper(v, publish):
        if kept and replayer == "P":
            raise kept[0]
        try:
            publish(v)
        except BaseException as escape:
            kept.append(escape)
            raise

    def c1(v, do):
        if replayer == "swallower":
            with contextlib.suppress(RuntimeFault):
                do("not an int")
        if replayer != "P":
            raise kept[0]
        do(v)

    rt, _, sinks = wire(FAN_OUT, {"P": keeper, "C1": c1, "C2": lambda v, do: do(v)})
    if replayer == "P":
        rt.emit("S", int_value(1))
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(2))
    assert str(err.value) == REPLAYED[replayer]
    assert rt.failed and not rt._queue
    assert sinks["A"].deliveries == [int_value(1)] * 2 * (replayer == "P")


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
HANDLE_ARGUMENTS = {"get": (), "do": (5,), "publish": (5,), "nopublish": ()}


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


# How each handle of LENDING fails, by how it is misused, as (code, component), or None
# when it works: after its activation ended, while another activation is on top, after a
# fault its implementation swallowed, and used a second time in its live activation.
MISUSES = {
    "ended": {"get": ("STALE_HANDLE", "P"), "do": ("STALE_HANDLE", "C"),
              "publish": ("STALE_HANDLE", "P"), "nopublish": ("STALE_HANDLE", "P")},
    "other on top": {"get": ("STALE_HANDLE", "P"), "do": ("STALE_HANDLE", "C"),
                     "publish": ("STALE_HANDLE", "P"), "nopublish": ("STALE_HANDLE", "P")},
    "swallowed fault": {"get": ("IMPLEMENTATION_PANIC", "R"), "do": ("PLATFORM_FAULT", "A"),
                        "publish": ("IMPLEMENTATION_PANIC", "R"), "nopublish": ("IMPLEMENTATION_PANIC", "R")},
    "second use": {"get": None, "do": None,
                   "publish": ("DOUBLE_CONTINUATION", "P"), "nopublish": ("DOUBLE_CONTINUATION", "P")},
}


def _misuse_app(handle, misuse):
    """LENDING's implementations, sink and steps in which ``handle`` is misused as ``misuse`` says."""
    stash, args, calls = {}, HANDLE_ARGUMENTS[handle], []

    def r_impl():
        calls.append("R")
        if misuse == "other on top" and handle in stash:
            stash[handle](*args)  # P's live handle, or on the second emit C's ended do
        if misuse == "swallowed fault" and handle != "do":
            raise ValueError("R broke")
        return 0

    def p_impl(v, get, publish, nopublish):
        own = {"get": get, "publish": publish, "nopublish": nopublish}
        stash.update(own)
        if handle in own and misuse == "swallowed fault":
            with contextlib.suppress(Exception):
                get()
            own[handle](*args)
        if handle in own and misuse == "second use":
            with contextlib.suppress(BaseException):  # a continuation's escape, too
                own[handle](*args)
            own[handle](*args)
        publish(v + get())

    def c_impl(v, do):
        stash["do"] = do
        if handle == "do" and misuse != "ended":
            with contextlib.suppress(Exception):
                do(v)
        do(v)

    def sink(value):
        calls.append("A")
        if handle == "do" and misuse == "swallowed fault":
            raise OSError("screen unplugged")

    steps = [lambda rt: rt.emit("S", int_value(1))]
    if misuse == "ended":
        steps.append(lambda rt: stash[handle](*args))
    elif handle == "do" and misuse == "other on top":
        steps.append(lambda rt: rt.emit("S", int_value(2)))
    return {"R": r_impl, "P": p_impl, "C": c_impl}, sink, steps, calls


@pytest.mark.parametrize("misuse", MISUSES)
@pytest.mark.parametrize("handle", HANDLE_ARGUMENTS)
def test_each_misused_handle_fails_as_the_reference_does(handle, misuse):
    """Each misuse of a handle fails with the code and component ``MISUSES`` gives it, and the
    kernel and the reference agree on the fault's message, the log, ``failed`` and the calls
    of R and of the sink: a handle refused after a fault calls neither again."""
    seen = []
    for make in ("kernel", "reference"):
        impls, sink, steps, calls = _misuse_app(handle, misuse)
        source = ScriptedSource(int_value(3))
        if make == "kernel":
            rt = create_runtime(LENDING)
            for name, impl in impls.items():
                rt.register(name, impl)
            rt.bind_source("S", source)
            rt.bind_action("A", sink)
            rt.seal()
        else:
            rt = reference.Reference(LENDING, impls, {"S": source}, {"A": sink})
        try:
            for step in steps:
                step(rt)
            outcome = None
        except KernelError as err:
            outcome = (err.code, err.component), str(err)
        seen.append((outcome, rt.action_log(), rt.failed, calls))
    assert seen[0] == seen[1]
    outcome, _, failed, _ = seen[0]
    assert (outcome and outcome[0]) == MISUSES[misuse][handle]
    assert failed is (misuse != "ended" and outcome is not None)


class _Level(enum.IntEnum):
    HIGH = 3


class _Count(int):
    pass


# Each INT payload, and whether an INT boundary admits it (what the reference's ``has_type`` says).
INT_PAYLOADS = [(INT64_MIN, True), (INT64_MAX, True), (INT64_MIN - 1, False), (INT64_MAX + 1, False),
                (True, False), (False, False), (_Level.HIGH, True), (_Count(7), True), (1.0, False)]
# Where an INT payload crosses from an implementation or the platform into the kernel, and
# the fault's code and component when it is refused there (see the LENDING spec).
INT_SITES = {"emit": ("TYPE_MISMATCH", "S"), "publish": ("CONTRACT_VIOLATION", "P"),
             "do": ("CONTRACT_VIOLATION", "C"), "return": ("CONTRACT_VIOLATION", "R")}


@pytest.mark.parametrize("site", INT_SITES)
@pytest.mark.parametrize("payload,admitted", INT_PAYLOADS, ids=repr)
def test_int_boundaries_admit_exactly_int64_ints_and_not_bools(site, payload, admitted):
    assert reference.has_type(payload, INT) is admitted

    def p_impl(v, get, publish, nopublish):
        pulled = get()
        publish(payload if site == "publish" else pulled if site == "return" else v)

    impls = {"R": lambda: payload if site == "return" else 0, "P": p_impl,
             "C": lambda v, do: do(payload if site == "do" else v)}
    rt, _, sinks = wire(LENDING, impls)
    try:
        rt.emit("S", Value(INT, payload if site == "emit" else 1))
    except KernelError as err:
        assert not admitted and (err.code, err.component) == INT_SITES[site]
    else:
        assert admitted and sinks["A"].deliveries[0].payload is payload


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


def _ladder_impls(n, pulls=lambda i, x: True):
    """``genspec.ladder(n)``'s implementations: P<i> passes its payload on, plus what it pulls from
    S<i> where ``pulls(i, payload)``, and C sends what it gets to A."""
    def step(i):
        return lambda x, get, publish: publish(x + get() if pulls(i, x) else x)

    return {**{f"P{i}": step(i) for i in range(n)}, "C": lambda x, do: do(x)}


def _bound_backwards(spec, impls):
    """A sealed runtime over ``spec`` with its resources bound in reverse declaration order."""
    rt = create_runtime(spec)
    for name, impl in impls.items():
        rt.register(name, impl)
    for d in reversed(spec.declarations):
        if isinstance(d, SourceDecl):
            rt.bind_source(d.name, ScriptedSource())
        elif isinstance(d, ActionDecl):
            rt.bind_action(d.name, RecordingSink())
    rt.seal()
    return rt


def test_the_kernel_numbers_sources_as_the_flow_graph_does():
    """Bit ``i`` of a runtime's taint masks is the ``i``-th source of ``flow._ancestry``, whatever
    order the sources are bound in, so each delivery's mask lies inside its action's ancestor
    mask: acceptance criterion 7 as one AND."""
    webcam_impls = {"ProcessPicture": webcam.process_picture, "MakeAd": webcam.make_ad,
                    "ComposeDisplay": webcam.compose_display, "Display": webcam.display}
    runs = [(webcam_spec(), webcam_impls,
             [("set", "IP", Value(STRING, "Ads Inc")), ("emit", "Camera", make_picture(4, 3, 1))]),
            (genspec.ladder(40), _ladder_impls(40),
             [("set", f"S{i}", int_value(i)) for i in range(40)] + [("emit", "T", int_value(1))] * 2)]
    for seed in range(300):
        impls = {}
        app = genspec.random_app(seed, wrap=lambda kind, name, obj: impls.setdefault(name, obj))
        steps = []
        genspec.drive(dataclasses.replace(app, runtime=types.SimpleNamespace(
            set_source=lambda name, v: steps.append(("set", name, v)),
            emit=lambda name, v: steps.append(("emit", name, v)))), seed)
        runs.append((app.spec, {name: impls[name] for name in app.runtime.contracts}, steps))
    delivered = 0
    for spec, impls, steps in runs:
        masks, sources = _ancestry(build_flow_graph(spec))
        rt = _bound_backwards(spec, impls)
        assert list(rt._names.sources) == sources
        assert [rt._plans[name].taints for name in sources] == [1 << i for i in range(len(sources))]
        for how, name, v in steps:
            (rt.set_source if how == "set" else rt.emit)(name, v)
        for action, tv in rt.action_log():
            mask = sum(1 << sources.index(name) for name in tv.taints)
            assert mask & ~masks[action] == 0
            delivered += 1
    assert delivered > 1000


def test_the_decode_cache_stays_bounded_and_every_delivery_keeps_its_names():
    """On ``genspec.ladder(13)``, P<i> pulls S<i> when bit ``i`` of its payload is set, so the
    emits of 0 .. 2**13 - 1 deliver 8,192 distinct masks. Each costs the cache its names plus
    one: 69,632 in all, over four times its bound, so it is emptied several times."""
    n, bound = 13, scckit.runtime._NAMES_BOUND
    rt, sources, _ = wire(genspec.ladder(n), _ladder_impls(n, lambda i, x: x >> i & 1))
    for name in sources:
        rt.set_source(name, int_value(0))
    held = []
    rt.trace = lambda event: held.append(rt._names.held)  # each event's taints are decoded first
    for x in range(2 ** n):
        rt.emit("T", int_value(x))
        held.append(rt._names.held)
    assert 2 ** n * 2 + n * 2 ** (n - 1) > 4 * bound
    assert max(held) <= bound and sum(a > b for a, b in zip(held, held[1:])) >= 4
    assert rt._names.held == sum(len(names) + 1 for names in rt._names.values())
    log = rt.action_log()
    assert [tv.taints for _, tv in log] == [frozenset({"T"} | {f"S{i}" for i in range(n) if x >> i & 1})
                                            for x in range(2 ** n)]
    rt.trace = None
    rt.emit("T", int_value(2 ** n - 1))  # a mask the cache still holds: its frozenset is shared
    assert rt.action_log()[-1][1].taints is log[-1][1].taints


def test_the_decode_names_exactly_the_set_bits_of_a_mask():
    names = scckit.runtime._Names()
    names.sources, names.held = {f"S{i}": 1 << i for i in range(300)}, 0
    rng = random.Random(0)
    for width in (0, 1, 2, 7, 8, 9, 64, 299, 300):
        for mask in {0, (1 << width) - 1, *(rng.getrandbits(width) for _ in range(20))}:
            want = frozenset(f"S{i}" for i in range(width) if mask >> i & 1)
            assert names[mask] == want and type(names[mask]) is frozenset


def test_a_mask_wider_than_the_decode_bound_is_held_alone(monkeypatch):
    monkeypatch.setattr(scckit.runtime, "_NAMES_BOUND", 3)
    rt, sources, _ = wire(genspec.ladder(4), _ladder_impls(4))
    for name in sources:
        rt.set_source(name, int_value(0))
    rt.emit("T", int_value(1))
    assert rt.action_log()[0][1].taints == {"T", "S0", "S1", "S2", "S3"}
    assert list(rt._names.values()) == [rt.action_log()[0][1].taints] and rt._names.held == 6


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


def test_the_wiring_index_is_built_once_per_spec(monkeypatch):
    builds = []

    def counted(spec):
        builds.append(spec)
        post_init(spec)

    post_init = Specification.__post_init__
    monkeypatch.setattr(Specification, "__post_init__", counted)
    spec = webcam_spec()
    assert scckit.validate(spec) == []
    derive_all(spec)
    build_flow_graph(spec)
    rt, _, _ = wire(spec, {"ProcessPicture": webcam.process_picture, "MakeAd": webcam.make_ad,
                           "ComposeDisplay": webcam.compose_display, "Display": webcam.display})
    assert rt.sealed and len(builds) == 1 and builds[0] is spec


def test_the_sealed_hot_path_looks_up_no_names(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("a name was looked up in the specification after seal")

    for trace in (None, []):
        app = build_webcam_app(trace=None if trace is None else trace.append)
        monkeypatch.setattr(Specification, "find", refuse)
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


def test_kernel_built_deliveries_equal_constructor_built_ones():
    """``do`` builds each delivery's ``Value`` and ``TaintedValue`` past their constructors. Each
    must compare, hash, print and pickle as the constructors' would, with exact frozenset taints;
    the pinned field names make a new field fail here instead of being left unset."""
    assert [f.name for f in dataclasses.fields(Value)] == ["tag", "payload"]
    assert [f.name for f in dataclasses.fields(TaintedValue)] == ["value", "taints"]
    webcam_app = build_webcam_app()
    run_scenario(webcam_app.runtime, parse_scenario(TRACE_SCRIPT * 3))
    logs = [(webcam_app.runtime.action_log(), webcam_app.screen.deliveries)]
    for seed in range(200):
        app = genspec.random_app(seed)
        genspec.drive(app, seed)
        logs.append((app.runtime.action_log(), [v for sink in app.sinks.values() for v in sink.deliveries]))
    delivered = 0
    for log, sunk in logs:
        assert sorted(map(id, sunk)) == sorted(id(tv.value) for _, tv in log)  # what each sink was handed
        for _, tv in log:
            built = TaintedValue(Value(tv.value.tag, tv.value.payload), tv.taints)
            assert type(tv) is TaintedValue and type(tv.value) is Value and type(tv.taints) is frozenset
            assert tv == built and tv.value == built.value and hash(tv) == hash(built) and repr(tv) == repr(built)
            back = pickle.loads(pickle.dumps(tv))
            # A set's repr follows its table, which a pickle rebuilds: compare the taints by value.
            assert back == tv and repr(back.value) == repr(tv.value) and type(back.taints) is frozenset
            delivered += 1
    assert delivered > 1000


# P pulls R1, which pulls R2, which pulls R3, which pulls S: three pulled activations above P.
# Q is still queued while P runs, and D while C delivers.
TOPPLE = Specification((
    SourceDecl("S", INT),
    ActionDecl("A", INT),
    ContextDecl("R1", INT, when_required("R2")),
    ContextDecl("R2", INT, when_required("R3")),
    ContextDecl("R3", INT, when_required("S")),
    ContextDecl("P", INT, when_provided("S", PublishSpec.ALWAYS, get="R1")),
    ContextDecl("Q", INT, when_provided("S", PublishSpec.ALWAYS)),
    ControllerDecl("C", "P", "A"),
    ControllerDecl("D", "P", "A"),
))


def _topple_app(impls=(), provider=None, sink=None, hook=None):
    """``TOPPLE`` sealed with R1 and P each pulling twice, the given overrides and a recording
    sink unless one is given; also the handles P and R1 were granted, kept, and whether each ran
    on top after its pulls."""
    kept, on_top = [], []

    def r1(get):
        kept.append(get)
        x = get() + get()
        on_top.append(rt._top is get.__self__)
        return x

    def p(v, get, publish):
        kept.append(get)
        x = get() + get()
        on_top.append(rt._top is get.__self__)
        publish(x)

    rt = create_runtime(TOPPLE)
    for name, impl in {"R1": r1, "R2": lambda get: get() + 1, "R3": lambda get: get() + 1, "P": p,
                       "Q": lambda v, publish: publish(v), "C": lambda v, do: do(v), "D": lambda v, do: do(v),
                       **dict(impls)}.items():
        rt.register(name, impl)
    rt.bind_source("S", provider or ScriptedSource())
    rt.bind_action("A", sink or RecordingSink())
    rt.seal()
    rt.trace = hook
    return rt, kept, on_top


def test_a_pullers_get_handle_works_again_after_its_pulled_context_returns():
    rt, kept, on_top = _topple_app()
    rt.emit("S", int_value(1))  # R3 2, R2 3, R1 3 + 3, P 6 + 6
    assert rt.action_log() == (("A", TaintedValue(int_value(12), {"S"})),) * 2
    assert len(kept) == 3 and on_top == [True] * 3  # P's handle, then R1's, once per pull of P
    assert rt._top is None and not rt._queue and not rt.failed
    with pytest.raises(RuntimeFault) as err:
        kept[0]()
    assert (err.value.code, err.value.component) == ("STALE_HANDLE", "P")
    assert rt._top is None and not rt.failed
    rt.emit("S", int_value(2))
    assert [tv.value for _, tv in rt.action_log()[2:]] == [int_value(16)] * 2


class _DeadProvider(ScriptedSource):
    def current(self):
        raise OSError("camera gone")


class _DeafProvider(ScriptedSource):
    def set(self, v):
        raise OSError("camera deaf")


def _dead_sink(v):
    raise OSError("screen gone")


def _hook_down(event):
    if event.kind == "pull" and event.component == "R3":
        raise OSError("hook down")


def _swallow(get):
    try:
        return get()
    except RuntimeFault:
        return 0


TOPPLINGS = {  # what makes the drain fail, and the fault it fails with
    "implementation": ({"impls": {"R3": lambda get: get() // 0}}, "IMPLEMENTATION_PANIC [R3]: implementation "
                       "raised ZeroDivisionError: integer division or modulo by zero", ZeroDivisionError),
    "provider": ({"provider": _DeadProvider()}, "PLATFORM_FAULT [S]: provider raised OSError: camera gone", OSError),
    "provider set": ({"provider": _DeafProvider()}, "PLATFORM_FAULT [S]: provider raised OSError: camera deaf",
                     OSError),
    "sink": ({"sink": _dead_sink}, "PLATFORM_FAULT [A]: sink raised OSError: screen gone", OSError),
    "hook": ({"hook": _hook_down}, "HOOK_FAULT [R3]: trace hook raised OSError: hook down", OSError),
    "swallowed": ({"impls": {"R3": lambda get: "x", "R2": _swallow}},
                  "CONTRACT_VIOLATION [R3]: returned value must be Int, got 'x'", None),
}


@pytest.mark.parametrize("kind", TOPPLINGS)
def test_no_activation_is_left_on_top_after_a_fault(kind):
    """Whichever party raises, three pulls deep, in a sink or before any activation, the drain ends
    with no activation on top, its queue empty and the runtime failed; every handle of the drain
    is stale after it."""
    overrides, message, cause = TOPPLINGS[kind]
    rt, kept, _ = _topple_app(**overrides)
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(1))
    assert str(err.value) == message
    assert (type(err.value.__cause__) if cause else err.value.__cause__) is cause
    assert rt._top is None and not rt._queue and rt.failed and rt.action_log() == ()
    fault = rt._fault
    for handle in kept:
        with pytest.raises(RuntimeFault) as stale:
            handle()
        assert stale.value.code == "STALE_HANDLE"
    assert rt._top is None and rt._fault is fault


def _reraise_escape(get, kept):
    raise kept["escape"]


def _swallow_stale(get, kept):
    with contextlib.suppress(RuntimeFault):
        kept["get"]()  # its get handle of the first emit
    return 0


PULLED_EXITS = {  # how the deepest pulled context leaves on the second emit, the fault and its cause
    "raises": (lambda get, kept: get() // 0, "IMPLEMENTATION_PANIC [{}]: implementation raised "
               "ZeroDivisionError: integer division or modulo by zero", ZeroDivisionError),
    "raises another activation's escape": (_reraise_escape, PANIC, None),
    "swallows a recorded fault": (_swallow_stale, "STALE_HANDLE [{}]: handle used outside the activation it "
                                  "was granted to", None),
    "returns the wrong type": (lambda get, kept: "x", "CONTRACT_VIOLATION [{}]: returned value must be Int, "
                               "got 'x'", None),
    "fails its hook": (lambda get, kept: get(), "HOOK_FAULT [{}]: trace hook raised OSError: hook down", OSError),
}


@pytest.mark.parametrize("depth", [1, 3])
@pytest.mark.parametrize("case", PULLED_EXITS)
def test_each_exit_of_a_pulled_context_fails_the_drain_with_its_fault(case, depth):
    """``genspec.pull_chain(depth)``: P and each R<i> above the deepest pull twice, and each runs on
    top again after its pulls. On the second emit R<depth> leaves by ``case``: its fault, blamed on it,
    fails the drain through every puller, which gets no value, with no activation left on top and an
    empty queue."""
    leave, message, cause = PULLED_EXITS[case]
    deepest, kept, on_top, pulled = f"R{depth}", {}, [], []

    def deepest_impl(get):
        if "leave" in kept:
            return leave(get, kept)
        kept["get"] = get
        return get()

    def pull(get):
        pulled.append(get())
        return pulled[-1]

    def relay(get):
        x = pull(get) + pull(get)
        on_top.append(rt._top is get.__self__)
        return x

    def puller(v, get, publish):
        x = pull(get) + pull(get)
        on_top.append(rt._top is get.__self__)
        try:  # not a tail call: the publish raises its escape, which P keeps
            publish(x)
        except BaseException as escape:
            kept["escape"] = escape
            raise

    def hook(event):
        if (event.kind, event.component) == ("activate", deepest) and case == "fails its hook":
            raise OSError("hook down")

    impls = {f"R{i}": relay for i in range(1, depth)}
    impls.update({deepest: deepest_impl, "P": puller, "C": lambda v, do: do(v)})
    rt, _, sinks = wire(genspec.pull_chain(depth), impls)
    rt.emit("S", int_value(1))
    assert sinks["A"].deliveries == [int_value(2 ** depth)]
    assert on_top == [True] * (2 ** depth - 1) and rt._top is None and not rt.failed
    assert len(pulled) == 2 * len(on_top)
    rt.trace, kept["leave"] = hook, True
    with pytest.raises(RuntimeFault) as err:
        rt.emit("S", int_value(1))
    assert str(err.value) == message.format(deepest) and err.value.component == deepest
    assert (type(err.value.__cause__) if cause else err.value.__cause__) is cause
    assert rt.failed and not rt._queue and rt._top is None
    assert sinks["A"].deliveries == [int_value(2 ** depth)] and len(pulled) == 2 * len(on_top)
