"""Well-formedness checks and lookups over declaration ASTs."""

import copy
import pickle

import pytest
from hypothesis import example, given, settings
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
    build_flow_graph,
    create_runtime,
    output_type_of,
    validate,
    webcam_spec,
    when_provided,
    when_required,
)
from scckit.decls import MAX_PULL_DEPTH
from scckit.flow import _ancestry

PICTURE, STRING, INT = DataType.PICTURE, DataType.STRING, DataType.INT


def codes(spec):
    return [d.code for d in validate(spec)]


def triples(spec):
    return [(d.index, d.code, d.message) for d in validate(spec)]


def test_webcam_spec_validates_clean():
    assert validate(webcam_spec()) == []


def test_empty_spec_validates_clean():
    assert validate(Specification(())) == []


def test_duplicate_name():
    spec = Specification((SourceDecl("Camera", PICTURE), SourceDecl("Camera", STRING)))
    assert triples(spec) == [(1, "DUP_NAME", "'Camera' is already declared")]


def test_pull_target_must_be_when_required():
    spec = Specification((
        SourceDecl("Camera", PICTURE),
        ContextDecl("ProcessPicture", PICTURE, when_provided("Camera", PublishSpec.ALWAYS)),
        ContextDecl("ComposeDisplay", PICTURE,
                    when_provided("ProcessPicture", PublishSpec.MAYBE, get="ProcessPicture")),
    ))
    assert triples(spec) == [
        (2, "PULL_NOT_REQUIRED", "get target 'ProcessPicture' is not a when-required context")]


def test_when_required_must_not_publish():
    spec = Specification((
        ContextDecl("X", INT, InteractionContract(None, None, PublishSpec.ALWAYS)),
    ))
    assert triples(spec) == [
        (0, "BAD_PUBLISH_SPEC", "publish specification is not allowed with when-required activation")]


def test_when_provided_needs_publish_spec():
    spec = Specification((
        SourceDecl("S", INT),
        ContextDecl("X", INT, InteractionContract("S", None, PublishSpec.NO)),
    ))
    assert triples(spec) == [
        (1, "BAD_PUBLISH_SPEC", "when-provided contexts must declare always_publish or maybe_publish")]


def test_unresolved_references():
    spec = Specification((
        ContextDecl("X", INT, when_provided("Ghost", PublishSpec.ALWAYS)),
        ContextDecl("Y", INT, when_required(get="Phantom")),
        ControllerDecl("C", "Spook", "Wraith"),
    ))
    assert triples(spec) == [
        (0, "UNRESOLVED_REF", "trigger 'Ghost' is not declared"),
        (1, "UNRESOLVED_REF", "get target 'Phantom' is not declared"),
        (2, "UNRESOLVED_REF", "trigger 'Spook' is not declared"),
        (2, "UNRESOLVED_REF", "action 'Wraith' is not declared"),
    ]


def test_get_cycle_between_required_contexts():
    spec = Specification((
        ContextDecl("R0", INT, when_required(get="R1")),
        ContextDecl("R1", INT, when_required(get="R0")),
    ))
    assert triples(spec) == [(0, "GET_CYCLE", "get dependencies of 'R0' form a cycle"),
                            (1, "GET_CYCLE", "get dependencies of 'R1' form a cycle")]


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
    assert triples(spec) == [(1, "BAD_TRIGGER_KIND", "trigger 'A' is an action; expected a source or context")]


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
    assert triples(spec) == [
        (2, "BAD_TRIGGER_KIND", "trigger 'S' is a source; controllers are triggered by contexts")]


def test_controller_do_target_must_be_action():
    spec = Specification((
        SourceDecl("S", INT),
        ContextDecl("P", INT, when_provided("S", PublishSpec.ALWAYS)),
        ControllerDecl("C", "P", "S"),
    ))
    assert triples(spec) == [(2, "BAD_TRIGGER_KIND", "do target 'S' is a source; expected an action")]


def test_get_target_must_not_be_an_action():
    spec = Specification((
        SourceDecl("S", INT),
        ActionDecl("A", INT),
        ContextDecl("X", INT, when_provided("S", PublishSpec.ALWAYS, get="A")),
    ))
    assert triples(spec) == [(2, "BAD_TRIGGER_KIND",
                             "get target 'A' is an action; expected a source or when-required context")]


# Each reference that names a declaration of the wrong kind, told the kind it found.
KINDS = (SourceDecl("S", INT), ActionDecl("A", INT), ContextDecl("R", INT, when_required()),
         ContextDecl("P", INT, when_provided("S", PublishSpec.ALWAYS)), ControllerDecl("K", "P", "A"))


@pytest.mark.parametrize("decl, message", [
    (ContextDecl("X", INT, when_provided("K", PublishSpec.ALWAYS)),
     "trigger 'K' is a controller; expected a source or context"),
    (ContextDecl("X", INT, when_required(get="K")),
     "get target 'K' is a controller; expected a source or when-required context"),
    (ControllerDecl("X", "A", "A"), "trigger 'A' is an action; controllers are triggered by contexts"),
    (ControllerDecl("X", "K", "A"), "trigger 'K' is a controller; controllers are triggered by contexts"),
    (ControllerDecl("X", "P", "R"), "do target 'R' is a context; expected an action"),
    (ControllerDecl("X", "P", "K"), "do target 'K' is a controller; expected an action"),
])
def test_wrong_kind_messages_name_the_kind_found(decl, message):
    assert triples(Specification(KINDS + (decl,))) == [(5, "BAD_TRIGGER_KIND", message)]


def test_one_declaration_reports_its_diagnostics_in_a_fixed_order():
    spec = Specification(KINDS + (
        ContextDecl("9", INT, InteractionContract("A", "P", PublishSpec.NO)),
        ContextDecl("9", INT, InteractionContract(None, "Ghost", PublishSpec.MAYBE)),
        ControllerDecl("K", "Nope", "S"),
        ContextDecl("Q", INT, InteractionContract("Q", "Q", PublishSpec.NO)),
    ))
    assert triples(spec) == [
        (5, "BAD_NAME", "'9' is not a valid component name"),
        (5, "BAD_PUBLISH_SPEC", "when-provided contexts must declare always_publish or maybe_publish"),
        (5, "BAD_TRIGGER_KIND", "trigger 'A' is an action; expected a source or context"),
        (5, "PULL_NOT_REQUIRED", "get target 'P' is not a when-required context"),
        (6, "BAD_NAME", "'9' is not a valid component name"),
        (6, "DUP_NAME", "'9' is already declared"),
        (6, "BAD_PUBLISH_SPEC", "publish specification is not allowed with when-required activation"),
        (6, "UNRESOLVED_REF", "get target 'Ghost' is not declared"),
        (7, "DUP_NAME", "'K' is already declared"),
        (7, "UNRESOLVED_REF", "trigger 'Nope' is not declared"),
        (7, "BAD_TRIGGER_KIND", "do target 'S' is a source; expected an action"),
        (8, "BAD_PUBLISH_SPEC", "when-provided contexts must declare always_publish or maybe_publish"),
        (8, "PULL_NOT_REQUIRED", "get target 'Q' is not a when-required context"),
        (8, "PUBLISH_CYCLE", "publish triggers of 'Q' form a cycle"),
    ]


def test_malformed_name_in_programmatic_ast():
    spec = Specification((SourceDecl("9lives", INT),))
    assert triples(spec) == [(0, "BAD_NAME", "'9lives' is not a valid component name")]


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
    assert spec.find("S") is first
    assert spec.find("missing") is None


def test_indexed_spec_equals_hashes_pickles_and_copies_as_fresh_one():
    indexed, fresh = webcam_spec(), webcam_spec()
    assert validate(indexed) == []
    for twin in (indexed, pickle.loads(pickle.dumps(indexed)), copy.copy(indexed), copy.deepcopy(indexed)):
        assert twin == fresh
        assert hash(twin) == hash(fresh)
        assert repr(twin) == repr(fresh)
        assert pickle.dumps(twin) == pickle.dumps(fresh)
        assert build_flow_graph(twin) == build_flow_graph(Specification(fresh.declarations))


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
@example(Specification((  # a name's first declaration stands for it: only the second R and P loop
    SourceDecl("S", INT), ContextDecl("R", INT, when_required("S")), ContextDecl("R", INT, when_required("R")),
    ContextDecl("P", INT, when_provided("S", PublishSpec.ALWAYS)),
    ContextDecl("P", INT, when_provided("P", PublishSpec.ALWAYS)))))
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


def _edges_of(d):
    """The flow edges ``(from, to, kind)`` that one declaration adds, in order."""
    if isinstance(d, ControllerDecl):
        return [(d.trigger, d.name, "publish"), (d.name, d.action, "command")]
    if not isinstance(d, ContextDecl):
        return []
    c = d.contract
    return ([(c.trigger, d.name, "publish")] if c.trigger is not None else []) + \
           ([(c.get_target, d.name, "pull")] if c.get_target is not None else [])


@settings(max_examples=300)
@given(cycle_specs(), st.booleans())
def test_flow_edges_match_a_per_declaration_oracle(spec, validated_first):
    if validated_first:  # the graph then reuses the index that validate built
        validate(spec)
    graph = build_flow_graph(spec)
    assert [(e.src, e.dst, e.kind) for e in graph.edges] == [e for d in spec.declarations for e in _edges_of(d)]
    assert [(n.name, n.kind) for n in graph.nodes] == [(d.name, d.kind) for d in spec.declarations]


@settings(max_examples=300)
@given(cycle_specs())
@example(Specification((SourceDecl("S", INT), SourceDecl("S", INT))))
@example(Specification((ContextDecl("X", INT, when_required()), SourceDecl("X", INT))))
@example(Specification((SourceDecl("S", INT),) * 2))  # one declaration object, twice
def test_the_flow_graph_numbers_sources_as_the_spec_index_does(spec):
    """A repeated name is numbered once, where its first declaration is a source, with the same bit
    in the flow graph's ancestor masks as in the spec index, so a taint mask and an ancestor mask agree."""
    assert spec._sources == {n: 1 << i for i, n in enumerate(_ancestry(build_flow_graph(spec))[1])}


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
