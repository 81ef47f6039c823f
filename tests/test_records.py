"""The record contract: every slotted frozen record built in bulk behaves as a frozen dataclass."""

import copy
import dataclasses
import pickle

import pytest

import scckit
from scckit import (
    ActionDecl,
    BoundaryContract,
    Capability,
    CapabilityKind,
    ContextDecl,
    ControllerDecl,
    DataType,
    Diagnostic,
    FlowEdge,
    FlowNode,
    InteractionContract,
    KernelError,
    PictureData,
    PublishSpec,
    ResultKind,
    SourceDecl,
    TaintedValue,
    Value,
)

INT, STRING, PICTURE = DataType.INT, DataType.STRING, DataType.PICTURE
AD_CONTRACT = InteractionContract("Cam", "IP", PublishSpec.MAYBE)
GET_IP = Capability(CapabilityKind.GET, "IP", STRING)

# One record of each class with every field given positionally, its repr, and
# another value for its first field.
CASES = [
    (AD_CONTRACT, "InteractionContract(trigger='Cam', get_target='IP', "
                  "publish=<PublishSpec.MAYBE: 'maybe_publish'>)", None),
    (SourceDecl("Cam", PICTURE, (1, 2)), "SourceDecl(name='Cam', out_type=<DataType.PICTURE: 'Picture'>)", "IP"),
    (ActionDecl("Screen", PICTURE, (2, 1)), "ActionDecl(name='Screen', in_type=<DataType.PICTURE: 'Picture'>)",
     "Fan"),
    (ContextDecl("Ad", STRING, AD_CONTRACT, (3, 1)),
     "ContextDecl(name='Ad', out_type=<DataType.STRING: 'String'>, contract=InteractionContract(trigger='Cam', "
     "get_target='IP', publish=<PublishSpec.MAYBE: 'maybe_publish'>))", "Banner"),
    (ControllerDecl("Show", "Ad", "Screen", (4, 1)), "ControllerDecl(name='Show', trigger='Ad', action='Screen')",
     "Hide"),
    (Diagnostic(2, "BAD_NAME", "'9x' is not a valid component name"),
     "Diagnostic(index=2, code='BAD_NAME', message=\"'9x' is not a valid component name\")", 3),
    (GET_IP, "Capability(kind=<CapabilityKind.GET: 'get'>, target='IP', value_type=<DataType.STRING: 'String'>)",
     CapabilityKind.DO),
    (BoundaryContract("Ad", PICTURE, GET_IP, PublishSpec.ALWAYS, PICTURE, ResultKind.NO_RETURN, None),
     "BoundaryContract(component='Ad', activation_param=<DataType.PICTURE: 'Picture'>, "
     "capability=Capability(kind=<CapabilityKind.GET: 'get'>, target='IP', value_type=<DataType.STRING: "
     "'String'>), publish=<PublishSpec.ALWAYS: 'always_publish'>, publish_type=<DataType.PICTURE: 'Picture'>, "
     "result=<ResultKind.NO_RETURN: 'no_return'>, result_type=None)", "Show"),
    (FlowNode("Cam", "source"), "FlowNode(name='Cam', kind='source')", "IP"),
    (FlowEdge("Cam", "Ad", "publish"), "FlowEdge(src='Cam', dst='Ad', kind='publish')", "IP"),
    (Value(INT, 7), "Value(tag=<DataType.INT: 'Int'>, payload=7)", STRING),
    (TaintedValue(Value(INT, 7), frozenset({"Cam"})),
     "TaintedValue(value=Value(tag=<DataType.INT: 'Int'>, payload=7), taints=frozenset({'Cam'}))", Value(INT, 8)),
    (PictureData(8, 6, 1, ("Ads",)), "PictureData(width=8, height=6, seed=1, overlays=('Ads',))", 9),
]
IDS = [type(record).__name__ for record, _, _ in CASES]

# Frozen dataclasses in `__all__` that are built one at a time, not in bulk,
# and keep an instance dict: a specification and a flow graph keep derived
# tables in theirs.
UNSLOTTED = {"EmitStep", "FlowGraph", "Scenario", "SetStep", "SourceText", "Specification"}


def _values(record) -> list:
    """Every field's value, those that take no part in equality included."""
    return [getattr(record, f.name) for f in dataclasses.fields(record)]


def _rebuilt(record, **changes):
    return type(record)(*[changes.get(f.name, getattr(record, f.name)) for f in dataclasses.fields(record)])


@pytest.mark.parametrize("record, text, other", CASES, ids=IDS)
def test_construction_by_position_keyword_and_default(record, text, other):
    fields = dataclasses.fields(record)
    by_keyword = type(record)(**{f.name: getattr(record, f.name) for f in fields})
    assert _values(by_keyword) == _values(record) == _values(_rebuilt(record))
    required = [getattr(record, f.name) for f in fields if f.default is dataclasses.MISSING]
    defaulted = type(record)(*required)
    for f in fields[len(required):]:
        assert getattr(defaulted, f.name) == f.default


@pytest.mark.parametrize("record, text, other", CASES, ids=IDS)
def test_equality_and_hash(record, text, other):
    first = dataclasses.fields(record)[0].name
    same = _rebuilt(record)
    assert same == record and hash(same) == hash(record)
    assert _rebuilt(record, **{first: other}) != record
    if hasattr(record, "pos"):  # position is metadata only
        moved = _rebuilt(record, pos=(99, 9))
        assert moved == record and hash(moved) == hash(record)


@pytest.mark.parametrize("record, text, other", CASES, ids=IDS)
def test_repr_is_pinned(record, text, other):
    assert repr(record) == text


@pytest.mark.parametrize("record, text, other", CASES, ids=IDS)
def test_fields_can_be_neither_set_nor_deleted(record, text, other):
    for f in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, f.name)
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record, text, other", CASES, ids=IDS)
def test_replace(record, text, other):
    first = dataclasses.fields(record)[0].name
    changed = dataclasses.replace(record, **{first: other})
    assert _values(changed) == _values(_rebuilt(record, **{first: other}))
    assert _values(record) == _values(_rebuilt(record))  # the original is untouched


@pytest.mark.parametrize("record, text, other", CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trips(record, text, other):
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert twin == record and type(twin) is type(record) and _values(twin) == _values(record)


def test_records_keep_their_checks():
    with pytest.raises(KernelError) as err:
        PictureData(0, 6, 1)
    assert err.value.code == "BAD_DIMENSIONS"
    with pytest.raises(KernelError) as err:
        dataclasses.replace(PictureData(8, 6, 1), height=0)
    assert err.value.code == "BAD_DIMENSIONS"
    assert PictureData(8, 6, 1, ["a", "b"]).overlays == ("a", "b")
    assert PictureData(width=8, height=6, seed=1, overlays=["a"]).overlays == ("a",)
    tv = TaintedValue(Value(INT, 1), {"B", "A"})
    assert type(tv.taints) is frozenset and tv.taints == {"A", "B"}
    assert type(dataclasses.replace(tv, taints={"C"}).taints) is frozenset


def test_records_keep_an_exact_frozenset_or_tuple_and_convert_the_rest():
    overlays, taints = ("a", "b"), frozenset({"A", "B"})
    pic = PictureData(8, 6, 1, overlays)
    assert pic.overlays is overlays
    assert dataclasses.replace(pic, seed=2).overlays is overlays
    assert TaintedValue(Value(INT, 1), taints).taints is taints
    assert TaintedValue(Value(INT, 1)).taints is TaintedValue(Value(INT, 2)).taints  # the default
    for given in (["a", "b"], (text for text in "ab")):
        built = PictureData(8, 6, 1, given)
        assert type(built.overlays) is tuple and built.overlays == overlays
    for given in ({"A", "B"}, ["B", "A"]):
        tv = TaintedValue(Value(INT, 1), given)
        assert type(tv.taints) is frozenset and tv.taints == taints
    converted = dataclasses.replace(pic, overlays=["c"])
    assert type(converted.overlays) is tuple and converted.overlays == ("c",)


def test_bulk_records_have_no_instance_dict():
    """A frozen dataclass exported by the package is a ``_record``, or is named in
    ``UNSLOTTED``: without slots, or with the frozen dataclass ``__init__`` that sets
    each field through ``object.__setattr__``, construction in bulk slows down."""
    records = set()
    for name in scckit.__all__:
        cls = getattr(scckit, name)
        if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen:
            if name not in UNSLOTTED:
                records.add(name)
                assert cls.__dictoffset__ == 0, f"{name} instances have a __dict__"
                assert "__setattr__" not in cls.__init__.__code__.co_names, f"{name} sets fields one call at a time"
    assert records == set(IDS)
