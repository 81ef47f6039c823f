"""Boundary-contract derivation and arrow-notation rendering."""

import re

import pytest
from hypothesis import given, settings

import genspec
from scckit import (
    ActionDecl,
    CapabilityKind,
    ContextDecl,
    ControllerDecl,
    DataType,
    KernelError,
    PublishSpec,
    ResultKind,
    SourceDecl,
    Specification,
    derive_all,
    derive_contract,
    render_contract,
    validate,
    webcam_spec,
    when_provided,
    when_required,
)
from test_decls import cycle_specs


@pytest.fixture(scope="module")
def webcam():
    return webcam_spec()


def test_compose_display_contract_structure(webcam):
    c = derive_contract(webcam, "ComposeDisplay")
    assert c.activation_param is DataType.PICTURE
    assert (c.capability.kind, c.capability.target, c.capability.value_type) == \
        (CapabilityKind.GET, "MakeAd", DataType.STRING)
    assert (c.publish, c.publish_type) == (PublishSpec.MAYBE, DataType.PICTURE)
    assert c.result is ResultKind.NO_RETURN


def test_make_ad_contract_structure(webcam):
    c = derive_contract(webcam, "MakeAd")
    assert c.activation_param is None
    assert (c.capability.kind, c.capability.target) == (CapabilityKind.GET, "IP")
    assert c.publish is PublishSpec.NO
    assert (c.result, c.result_type) == (ResultKind.RETURNS_VALUE, DataType.STRING)


def test_process_picture_contract_structure(webcam):
    c = derive_contract(webcam, "ProcessPicture")
    assert c.activation_param is DataType.PICTURE
    assert c.capability is None
    assert (c.publish, c.publish_type) == (PublishSpec.ALWAYS, DataType.PICTURE)
    assert c.result is ResultKind.NO_RETURN


def test_display_contract_structure(webcam):
    c = derive_contract(webcam, "Display")
    assert c.activation_param is DataType.PICTURE
    assert (c.capability.kind, c.capability.target, c.capability.value_type) == \
        (CapabilityKind.DO, "Screen", DataType.PICTURE)
    assert c.publish is PublishSpec.NO
    assert c.result is ResultKind.RETURNS_NOTHING


def test_rendered_contract_strings(webcam):
    rendered = {name: render_contract(c) for name, c in derive_all(webcam).items()}
    assert rendered == {
        "ProcessPicture": "(-> picture? (-> picture? void?) none/c)",
        "MakeAd": "(-> (-> string?) string?)",
        "ComposeDisplay": "(-> picture? (-> string?) (-> picture? void?) (-> void?) none/c)",
        "Display": "(-> picture? (-> picture? void?) void?)",
    }


def test_derive_all_covers_contexts_and_controllers_in_order(webcam):
    assert list(derive_all(webcam)) == ["ProcessPicture", "MakeAd", "ComposeDisplay", "Display"]


def test_derive_contract_rejects_resources_and_unknowns(webcam):
    for name in ("Camera", "Screen"):
        with pytest.raises(KernelError) as err:
            derive_contract(webcam, name)
        assert err.value.code == "WRONG_KIND"
    with pytest.raises(KernelError) as err:
        derive_contract(webcam, "Nonesuch")
    assert err.value.code == "NOT_FOUND"


@pytest.mark.parametrize("action, expected", [
    ("Nope", "NOT_FOUND [Nope]: 'Nope' is not declared"),
    ("S", "WRONG_KIND [S]: 'S' is a source and has no input type"),
])
def test_controller_contract_names_a_do_target_that_is_no_action(action, expected):
    spec = Specification((  # not validated: K's do target is undeclared, or a source
        SourceDecl("S", DataType.INT),
        ContextDecl("C", DataType.INT, when_provided("S", PublishSpec.ALWAYS)),
        ControllerDecl("K", "C", action),
    ))
    for derive in (lambda: derive_contract(spec, "K"), lambda: derive_all(spec)):
        with pytest.raises(KernelError) as err:
            derive()
        assert (str(err.value), err.value.component) == (expected, action)


def test_a_source_triggered_controller_gets_no_contract():
    spec = Specification((SourceDecl("S", DataType.INT), ActionDecl("A", DataType.INT),
                          ControllerDecl("K", "S", "A")))
    assert [(d.code, d.message) for d in validate(spec)] == [
        ("BAD_TRIGGER_KIND", "trigger 'S' is a source; controllers are triggered by contexts")]
    for derive in (lambda: derive_contract(spec, "K"), lambda: derive_all(spec)):
        with pytest.raises(KernelError) as err:
            derive()
        assert (str(err.value), err.value.component) == (
            "WRONG_KIND [S]: 'S' is a source; controllers are triggered by contexts", "S")


# One declaration of each kind; each case below adds X, whose one reference under test names ``ref``.
_EACH_KIND = (SourceDecl("S", DataType.INT), ActionDecl("A", DataType.INT),
              ContextDecl("C", DataType.INT, when_provided("S", PublishSpec.ALWAYS)), ControllerDecl("K", "C", "A"))
_REFERRING = {
    "context trigger": lambda ref: ContextDecl("X", DataType.INT, when_provided(ref, PublishSpec.ALWAYS)),
    "get target": lambda ref: ContextDecl("X", DataType.INT, when_required(ref)),
    "controller trigger": lambda ref: ControllerDecl("X", ref, "A"),
    "do target": lambda ref: ControllerDecl("X", "C", ref),
}
_MISSING = "NOT_FOUND [Nope]: 'Nope' is not declared"


@pytest.mark.parametrize("reference, ref, expected", [
    ("context trigger", "Nope", _MISSING),
    ("context trigger", "A", "WRONG_KIND [A]: 'A' is an action and has no output type"),
    ("context trigger", "K", "WRONG_KIND [K]: 'K' is a controller and has no output type"),
    ("get target", "Nope", _MISSING),
    ("get target", "A", "WRONG_KIND [A]: 'A' is an action and has no output type"),
    ("get target", "K", "WRONG_KIND [K]: 'K' is a controller and has no output type"),
    ("controller trigger", "Nope", _MISSING),
    ("controller trigger", "S", "WRONG_KIND [S]: 'S' is a source; controllers are triggered by contexts"),
    ("controller trigger", "A", "WRONG_KIND [A]: 'A' is an action; controllers are triggered by contexts"),
    ("controller trigger", "K", "WRONG_KIND [K]: 'K' is a controller; controllers are triggered by contexts"),
    ("do target", "Nope", _MISSING),
    ("do target", "S", "WRONG_KIND [S]: 'S' is a source and has no input type"),
    ("do target", "C", "WRONG_KIND [C]: 'C' is a context and has no input type"),
    ("do target", "K", "WRONG_KIND [K]: 'K' is a controller and has no input type"),
])
def test_each_reference_a_contract_cannot_resolve_is_refused_naming_it(reference, ref, expected):
    spec = Specification(_EACH_KIND + (_REFERRING[reference](ref),))
    for derive in (lambda: derive_contract(spec, "X"), lambda: derive_all(spec)):
        with pytest.raises(KernelError) as err:
            derive()
        assert (str(err.value), err.value.component) == (expected, ref)


@pytest.mark.parametrize("spec, name, expected", [
    (Specification(_EACH_KIND), "Nope", "NOT_FOUND [Nope]: 'Nope' is not declared"),
    (Specification(_EACH_KIND), "S", "WRONG_KIND [S]: 'S' is a source; only contexts and controllers carry "
                                     "boundary contracts"),
    (Specification(_EACH_KIND), "A", "WRONG_KIND [A]: 'A' is an action; only contexts and controllers carry "
                                     "boundary contracts"),
    # derive_all asks for each context and controller by name, and a name is its first declaration.
    (Specification((SourceDecl("X", DataType.INT), ContextDecl("X", DataType.INT, when_required()))), None,
     "WRONG_KIND [X]: 'X' is a source; only contexts and controllers carry boundary contracts"),
    (Specification(_EACH_KIND + (ActionDecl("X", DataType.INT), ControllerDecl("X", "C", "A"))), None,
     "WRONG_KIND [X]: 'X' is an action; only contexts and controllers carry boundary contracts"),
])
def test_a_name_that_is_no_context_or_controller_gets_no_contract(spec, name, expected):
    with pytest.raises(KernelError) as err:
        derive_contract(spec, name) if name else derive_all(spec)
    assert (str(err.value), err.value.component) == (expected, name or "X")


def test_a_controller_with_a_bad_trigger_and_do_target_is_refused_for_its_trigger():
    spec = Specification(_EACH_KIND + (ControllerDecl("X", "S", "Nope"),))
    assert [d.message for d in validate(spec)] == [
        "trigger 'S' is a source; controllers are triggered by contexts", "action 'Nope' is not declared"]
    for derive in (lambda: derive_contract(spec, "X"), lambda: derive_all(spec)):
        with pytest.raises(KernelError) as err:
            derive()
        assert (str(err.value), err.value.component) == (
            "WRONG_KIND [S]: 'S' is a source; controllers are triggered by contexts", "S")


_CONTRACT_CODES = {"UNRESOLVED_REF": "NOT_FOUND", "BAD_TRIGGER_KIND": "WRONG_KIND"}


@settings(max_examples=300)
@given(cycle_specs())
def test_derive_contract_refuses_exactly_the_references_validate_refuses(spec):
    """For each name whose first declaration is a context or controller, derive_contract raises
    exactly when validate refuses one of that declaration's references, with the matching code,
    naming the name quoted by the first such diagnostic."""
    refused = {}
    for d in validate(spec):
        if d.code in _CONTRACT_CODES:
            refused.setdefault(d.index, d)
    for i, decl in enumerate(spec.declarations):
        if spec.find(decl.name) is not decl or not isinstance(decl, (ContextDecl, ControllerDecl)):
            continue
        diag = refused.get(i)
        if diag is None:
            derive_contract(spec, decl.name)
            continue
        with pytest.raises(KernelError) as err:
            derive_contract(spec, decl.name)
        assert err.value.code == _CONTRACT_CODES[diag.code]
        assert err.value.component == re.search("'(.*?)'", diag.message).group(1)


def test_bare_when_required_contract_renders_to_thunk_type():
    spec = Specification((ContextDecl("R", DataType.INT, when_required()),))
    assert render_contract(derive_contract(spec, "R")) == "(-> int?)"


def test_bool_predicate_rendering():
    spec = Specification((
        SourceDecl("S", DataType.BOOL),
        ContextDecl("P", DataType.BOOL, when_provided("S", PublishSpec.ALWAYS)),
    ))
    assert render_contract(derive_contract(spec, "P")) == "(-> bool? (-> bool? void?) none/c)"


def test_render_suffix_laws_over_generated_specs():
    for seed in range(60):
        spec = genspec.random_app(seed).spec
        for decl in spec.declarations:
            if not isinstance(decl, ContextDecl):
                continue
            c = derive_contract(spec, decl.name)
            text = render_contract(c)
            assert (c.activation_param is not None) == (decl.contract.trigger is not None)
            if c.publish is PublishSpec.MAYBE:
                assert text.endswith("(-> void?) none/c)")
            elif c.publish is PublishSpec.ALWAYS:
                assert text.endswith("void?) none/c)")
                assert not text.endswith("(-> void?) none/c)")
        for name, c in derive_all(spec).items():
            if c.result is ResultKind.RETURNS_NOTHING:
                assert render_contract(c).endswith("void?)")
