"""Well-formedness checks and lookups over declaration ASTs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genspec
import scckit.decls
from scckit import (
    ActionDecl,
    CapabilityKind,
    ContextDecl,
    ControllerDecl,
    DataType,
    InteractionContract,
    KernelError,
    PublishSpec,
    RecordingSink,
    ScriptedSource,
    SourceDecl,
    Specification,
    Value,
    create_runtime,
    output_type_of,
    validate,
    webcam_spec,
    when_provided,
    when_required,
)
from scckit.decls import MAX_PULL_DEPTH

PICTURE, STRING, INT = DataType.PICTURE, DataType.STRING, DataType.INT


def codes(spec):
    return [d.code for d in validate(spec)]


def test_webcam_spec_validates_clean():
    assert validate(webcam_spec()) == []


def test_empty_spec_validates_clean():
    assert validate(Specification(())) == []


def test_duplicate_name():
    spec = Specification((SourceDecl("Camera", PICTURE), SourceDecl("Camera", STRING)))
    report = validate(spec)
    assert [d.code for d in report] == ["DUP_NAME"]
    assert report[0].index == 1


def test_pull_target_must_be_when_required():
    spec = Specification((
        SourceDecl("Camera", PICTURE),
        ContextDecl("ProcessPicture", PICTURE, when_provided("Camera", PublishSpec.ALWAYS)),
        ContextDecl("ComposeDisplay", PICTURE,
                    when_provided("ProcessPicture", PublishSpec.MAYBE, get="ProcessPicture")),
    ))
    assert codes(spec) == ["PULL_NOT_REQUIRED"]


def test_when_required_must_not_publish():
    spec = Specification((
        ContextDecl("X", INT, InteractionContract(None, None, PublishSpec.ALWAYS)),
    ))
    assert codes(spec) == ["BAD_PUBLISH_SPEC"]


def test_when_provided_needs_publish_spec():
    spec = Specification((
        SourceDecl("S", INT),
        ContextDecl("X", INT, InteractionContract("S", None, PublishSpec.NO)),
    ))
    assert codes(spec) == ["BAD_PUBLISH_SPEC"]


def test_unresolved_references():
    spec = Specification((
        ContextDecl("X", INT, when_provided("Ghost", PublishSpec.ALWAYS)),
        ContextDecl("Y", INT, when_required(get="Phantom")),
        ControllerDecl("C", "Spook", "Wraith"),
    ))
    assert codes(spec) == ["UNRESOLVED_REF"] * 4


def test_get_cycle_between_required_contexts():
    spec = Specification((
        ContextDecl("R0", INT, when_required(get="R1")),
        ContextDecl("R1", INT, when_required(get="R0")),
    ))
    assert codes(spec) == ["GET_CYCLE", "GET_CYCLE"]


def test_self_get_is_a_cycle():
    spec = Specification((ContextDecl("R", INT, when_required(get="R")),))
    assert codes(spec) == ["GET_CYCLE"]


def test_acyclic_get_chain_is_clean():
    spec = Specification((
        SourceDecl("S", INT),
        ContextDecl("R0", INT, when_required(get="S")),
        ContextDecl("R1", INT, when_required(get="R0")),
    ))
    assert codes(spec) == []


def test_pull_depth_is_bounded():
    assert codes(genspec.pull_chain(MAX_PULL_DEPTH)) == []
    (too_deep,) = validate(genspec.pull_chain(MAX_PULL_DEPTH + 1))
    assert (too_deep.index, too_deep.code) == (MAX_PULL_DEPTH + 3, "PULL_TOO_DEEP")
    assert too_deep.message == "get chain of 'P' nests 101 when-required contexts; the limit is 100"
    # one level more and the first pulled context's own chain is over the limit too
    assert [(d.index, d.code) for d in validate(genspec.pull_chain(MAX_PULL_DEPTH + 2))] == [
        (2, "PULL_TOO_DEEP"), (MAX_PULL_DEPTH + 4, "PULL_TOO_DEEP")]
    # declared deepest first, each walk measures one context and joins the chain measured before
    backwards = Specification(tuple(reversed(genspec.pull_chain(MAX_PULL_DEPTH + 1).declarations)))
    assert [(d.index, d.code) for d in validate(backwards)] == [(1, "PULL_TOO_DEEP")]
    with pytest.raises(KernelError) as err:
        create_runtime(genspec.pull_chain(MAX_PULL_DEPTH + 1))
    assert err.value.code == "INVALID_SPEC"


def test_pull_depth_follows_the_contexts_other_diagnostics_and_skips_cycles():
    chain = genspec.pull_chain(MAX_PULL_DEPTH + 1).declarations
    ghost = ContextDecl("P", INT, when_provided("Ghost", PublishSpec.ALWAYS, get="R1"))
    assert codes(Specification(chain[:-2] + (ghost,))) == ["UNRESOLVED_REF", "PULL_TOO_DEEP"]
    # a long chain that runs into a cycle has no depth: only the cycle is reported
    loop = ContextDecl("Loop", INT, when_required(get="Loop"))
    into_loop = chain[:-3] + (ContextDecl(f"R{MAX_PULL_DEPTH + 1}", INT, when_required(get="Loop")),)
    assert codes(Specification((loop,) + into_loop + chain[-2:])) == ["GET_CYCLE"]


def test_publish_cycle_between_provided_contexts():
    spec = Specification((
        SourceDecl("S", INT),
        ContextDecl("P1", INT, when_provided("P2", PublishSpec.ALWAYS)),
        ContextDecl("P2", INT, when_provided("P1", PublishSpec.ALWAYS)),
    ))
    assert codes(spec) == ["PUBLISH_CYCLE", "PUBLISH_CYCLE"]
    assert validate(spec)[0].message == "publish triggers of 'P1' form a cycle"


def test_self_trigger_is_a_publish_cycle():
    spec = Specification((ContextDecl("P", INT, when_provided("P", PublishSpec.MAYBE)),))
    assert codes(spec) == ["PUBLISH_CYCLE"]


def test_publish_cycle_follows_the_contexts_other_diagnostics():
    spec = Specification((
        ContextDecl("P1", INT, when_provided("P2", PublishSpec.ALWAYS, get="Ghost")),
        ContextDecl("P2", INT, when_provided("P1", PublishSpec.NO)),
    ))
    assert codes(spec) == ["UNRESOLVED_REF", "PUBLISH_CYCLE", "BAD_PUBLISH_SPEC", "PUBLISH_CYCLE"]


def test_context_trigger_must_be_source_or_context():
    spec = Specification((
        ActionDecl("A", INT),
        ContextDecl("X", INT, when_provided("A", PublishSpec.ALWAYS)),
    ))
    assert codes(spec) == ["BAD_TRIGGER_KIND"]


def test_source_is_a_legal_context_trigger():
    spec = Specification((
        SourceDecl("S", INT),
        ContextDecl("X", INT, when_provided("S", PublishSpec.MAYBE)),
    ))
    assert codes(spec) == []


def test_controller_trigger_must_be_context():
    spec = Specification((
        SourceDecl("S", INT),
        ActionDecl("A", INT),
        ControllerDecl("C", "S", "A"),
    ))
    assert codes(spec) == ["BAD_TRIGGER_KIND"]


def test_controller_do_target_must_be_action():
    spec = Specification((
        SourceDecl("S", INT),
        ContextDecl("P", INT, when_provided("S", PublishSpec.ALWAYS)),
        ControllerDecl("C", "P", "S"),
    ))
    assert codes(spec) == ["BAD_TRIGGER_KIND"]


def test_get_target_must_not_be_an_action():
    spec = Specification((
        SourceDecl("S", INT),
        ActionDecl("A", INT),
        ContextDecl("X", INT, when_provided("S", PublishSpec.ALWAYS, get="A")),
    ))
    assert codes(spec) == ["BAD_TRIGGER_KIND"]


def test_malformed_name_in_programmatic_ast():
    spec = Specification((SourceDecl("9lives", INT),))
    assert codes(spec) == ["BAD_NAME"]


def test_diagnostics_are_ordered_and_deterministic():
    spec = Specification((
        SourceDecl("S", INT),
        SourceDecl("S", INT),
        ContextDecl("X", INT, when_provided("Ghost", PublishSpec.ALWAYS)),
    ))
    report = validate(spec)
    assert [d.index for d in report] == sorted(d.index for d in report)
    assert validate(spec) == report


def test_reordering_preserves_diagnostic_code_set():
    decls = (
        SourceDecl("S", INT),
        SourceDecl("S", INT),
        ContextDecl("X", INT, when_provided("Ghost", PublishSpec.ALWAYS)),
        ContextDecl("Y", INT, InteractionContract(None, None, PublishSpec.MAYBE)),
    )
    forward = sorted(codes(Specification(decls)))
    backward = sorted(codes(Specification(tuple(reversed(decls)))))
    assert forward == backward == ["BAD_PUBLISH_SPEC", "DUP_NAME", "UNRESOLVED_REF"]


def test_output_type_of_webcam_components():
    spec = webcam_spec()
    assert output_type_of(spec, "Camera") is PICTURE
    assert output_type_of(spec, "MakeAd") is STRING


def test_output_type_of_rejects_controllers_and_unknowns():
    spec = webcam_spec()
    with pytest.raises(KernelError) as controller_err:
        output_type_of(spec, "Display")
    assert controller_err.value.code == "WRONG_KIND"
    with pytest.raises(KernelError) as unknown_err:
        output_type_of(spec, "Nonesuch")
    assert unknown_err.value.code == "NOT_FOUND"


def test_name_table_first_occurrence_wins():
    first = SourceDecl("S", INT)
    spec = Specification((first, SourceDecl("S", STRING)))
    assert spec.by_name()["S"] is first
    assert spec.find("missing") is None
    spec.by_name().clear()  # a copy: the spec's own table is untouched
    assert spec.find("S") is first


# -- cycles against a brute-force reachability oracle -------------------------

CYCLE_NAMES = ("A", "B", "C", "D", "E")
DEFAULTS = {INT: 0, STRING: ""}


@st.composite
def cycle_specs(draw):
    """Small specs of mixed kinds. An untidy one repeats names and draws each
    reference from every name and a dangling one; a tidy one has unique names
    and draws references of the kind each slot accepts, so validate rejects
    it only for a cycle or a missing kind. Either may refer to itself."""
    tidy = draw(st.booleans())
    names = draw(st.lists(st.sampled_from(CYCLE_NAMES), max_size=7, unique=tidy))
    kinds = [draw(st.sampled_from(("source", "action", "required", "provided", "controller")))
             for _ in names]

    def ref(*accepted):
        pool = [n for n, k in zip(names, kinds) if k in accepted] if tidy else names + ["Ghost"]
        return draw(st.sampled_from(pool or ["Ghost"]))

    def maybe_ref(*accepted):
        return ref(*accepted) if draw(st.booleans()) else None

    publish = st.sampled_from([PublishSpec.ALWAYS, PublishSpec.MAYBE] if tidy else list(PublishSpec))
    decls = []
    for name, kind in zip(names, kinds):
        t = draw(st.sampled_from([INT, STRING]))
        if kind == "source":
            decls.append(SourceDecl(name, t))
        elif kind == "action":
            decls.append(ActionDecl(name, t))
        elif kind == "required":
            decls.append(ContextDecl(name, t, when_required(maybe_ref("source", "required"))))
        elif kind == "provided":
            trigger = ref("source", "required", "provided")
            get = maybe_ref("source", "required")
            decls.append(ContextDecl(name, t, InteractionContract(trigger, get, draw(publish))))
        else:
            decls.append(ControllerDecl(name, ref("required", "provided"), ref("action")))
    return Specification(tuple(decls))


def _required(d):
    return isinstance(d, ContextDecl) and d.contract.trigger is None


def _provided(d):
    return isinstance(d, ContextDecl) and d.contract.trigger is not None


def _looping_names(spec, keep, successor):
    """Names that reach themselves in the graph whose nodes are the first kept
    declaration of each name, by transitive closure of its edges."""
    nodes = {}
    for d in spec.declarations:
        if keep(d):
            nodes.setdefault(d.name, d)
    reach = {(n, successor(d)) for n, d in nodes.items() if successor(d) in nodes}
    while True:
        grown = reach | {(a, d) for a, b in reach for c, d in reach if b == c}
        if grown == reach:
            return {a for a, b in reach if a == b}
        reach = grown


def _stub(contract):
    """Implementation that uses every capability it is granted, then finishes."""
    def impl(*args):
        args = list(args)
        if contract.activation_param is not None:
            args.pop(0)
        if contract.capability is not None:
            handle = args.pop(0)
            if contract.capability.kind is CapabilityKind.GET:
                handle()
            else:
                handle(DEFAULTS[contract.capability.value_type])
        if contract.publish is not PublishSpec.NO:
            args[0](DEFAULTS[contract.publish_type])
        return None if contract.result_type is None else DEFAULTS[contract.result_type]
    return impl


@settings(max_examples=300)
@given(cycle_specs())
def test_cycle_diagnostics_match_reachability_oracle(spec):
    pulls = _looping_names(spec, _required, lambda d: d.contract.get_target)
    publishes = _looping_names(spec, _provided, lambda d: d.contract.trigger)
    expected = [(i, "GET_CYCLE") if _required(d) else (i, "PUBLISH_CYCLE")
                for i, d in enumerate(spec.declarations)
                if (_required(d) and d.name in pulls) or (_provided(d) and d.name in publishes)]
    report = validate(spec)
    assert [(d.index, d.code) for d in report if d.code.endswith("_CYCLE")] == expected
    if report:
        return

    # Whatever validate accepts seals, and every emit drains to quiescence.
    rt = create_runtime(spec)
    for name, contract in rt.contracts.items():
        rt.register(name, _stub(contract))
    for d in spec.declarations:
        if isinstance(d, SourceDecl):
            rt.bind_source(d.name, ScriptedSource())
            rt.set_source(d.name, Value(d.out_type, DEFAULTS[d.out_type]))
        elif isinstance(d, ActionDecl):
            rt.bind_action(d.name, RecordingSink())
    rt.seal()
    for d in spec.declarations:
        if isinstance(d, SourceDecl):
            rt.emit(d.name, Value(d.out_type, DEFAULTS[d.out_type]))
    assert not rt.failed


def _naive_pull_depth(spec, name):
    """When-required contexts one pull of ``name`` activates, found by
    following get targets one by one; None when the chain enters a cycle."""
    nodes = {}
    for d in spec.declarations:
        if _required(d):
            nodes.setdefault(d.name, d)
    seen = []
    while name in nodes:
        if name in seen:
            return None
        seen.append(name)
        name = nodes[name].contract.get_target
    return len(seen)


@settings(max_examples=300)
@given(cycle_specs(), st.integers(0, 3))
def test_pull_depth_diagnostics_match_a_naive_walk(spec, limit):
    saved = scckit.decls.MAX_PULL_DEPTH
    scckit.decls.MAX_PULL_DEPTH = limit  # small, so that small specs reach it
    try:
        report = validate(spec)
    finally:
        scckit.decls.MAX_PULL_DEPTH = saved
    expected = []
    for i, d in enumerate(spec.declarations):
        depth = _naive_pull_depth(spec, d.contract.get_target) if isinstance(d, ContextDecl) else None
        if depth is not None and depth > limit:
            expected.append((i, f"get chain of '{d.name}' nests {depth} when-required contexts; "
                                f"the limit is {limit}"))
    assert [(d.index, d.message) for d in report if d.code == "PULL_TOO_DEEP"] == expected
