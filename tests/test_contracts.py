"""Boundary-contract derivation and arrow-notation rendering."""

import pytest

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
