"""Boundary contracts: the call signature each component implementation must obey.

A contract fixes, in order: the activation argument (present only for
publication-triggered components), one optional resource capability (a get
closure or a do closure), the publish/no-publish continuations, and the
result kind. Components with publish continuations never return normally;
pull-activated contexts return their value; controllers return nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .decls import (
    ActionDecl,
    ContextDecl,
    ControllerDecl,
    DataType,
    PublishSpec,
    Specification,
    output_type_of,
)
from .errors import KernelError


class CapabilityKind(Enum):
    GET = "get"
    DO = "do"


@dataclass(frozen=True)
class Capability:
    """One granted resource interaction.

    GET capabilities take no arguments and yield a value of ``value_type``
    (pulls cannot carry data toward the pulled component). DO capabilities
    take one ``value_type`` argument and yield nothing.
    """

    kind: CapabilityKind
    target: str
    value_type: DataType


class ResultKind(Enum):
    RETURNS_VALUE = "returns_value"
    RETURNS_NOTHING = "returns_nothing"
    NO_RETURN = "no_return"


@dataclass(frozen=True)
class BoundaryContract:
    component: str
    activation_param: DataType | None
    capability: Capability | None
    publish: PublishSpec
    publish_type: DataType | None
    result: ResultKind
    result_type: DataType | None = None


def derive_contract(spec: Specification, name: str) -> BoundaryContract:
    """Contract for a declared context or controller of a validated spec."""
    decl = spec.find(name)
    if decl is None:
        raise KernelError("NOT_FOUND", f"'{name}' is not declared", component=name)
    if isinstance(decl, ContextDecl):
        c = decl.contract
        activation = None if c.trigger is None else output_type_of(spec, c.trigger)
        capability = None
        if c.get_target is not None:
            capability = Capability(CapabilityKind.GET, c.get_target, output_type_of(spec, c.get_target))
        if c.publish is PublishSpec.NO:
            return BoundaryContract(name, activation, capability, PublishSpec.NO, None,
                                    ResultKind.RETURNS_VALUE, decl.out_type)
        return BoundaryContract(name, activation, capability, c.publish, decl.out_type,
                                ResultKind.NO_RETURN)
    if isinstance(decl, ControllerDecl):
        action = spec.find(decl.action)
        assert isinstance(action, ActionDecl)
        return BoundaryContract(name, output_type_of(spec, decl.trigger),
                                Capability(CapabilityKind.DO, decl.action, action.in_type),
                                PublishSpec.NO, None, ResultKind.RETURNS_NOTHING)
    raise KernelError("WRONG_KIND", f"'{name}' is a {decl.kind}; only contexts and controllers "
                                    "carry boundary contracts", component=name)


def derive_all(spec: Specification) -> dict[str, BoundaryContract]:
    """Contracts for every context and controller, keyed by name."""
    return {d.name: derive_contract(spec, d.name)
            for d in spec.declarations if isinstance(d, (ContextDecl, ControllerDecl))}


_TYPE_PREDICATES = {t: f"{t.value.lower()}?" for t in DataType}  # DataType.INT -> "int?"


def render_contract(c: BoundaryContract) -> str:
    """Arrow notation for documentation and golden tests.

    ``void?`` marks a no-value slot, ``none/c`` a component that never
    returns (it must leave through a continuation instead).
    """
    parts = []
    if c.activation_param is not None:
        parts.append(_TYPE_PREDICATES[c.activation_param])
    if c.capability is not None:
        t = _TYPE_PREDICATES[c.capability.value_type]
        parts.append(f"(-> {t})" if c.capability.kind is CapabilityKind.GET else f"(-> {t} void?)")
    if c.publish is not PublishSpec.NO:
        parts.append(f"(-> {_TYPE_PREDICATES[c.publish_type]} void?)")
        if c.publish is PublishSpec.MAYBE:
            parts.append("(-> void?)")
    if c.result is ResultKind.RETURNS_VALUE:
        parts.append(_TYPE_PREDICATES[c.result_type])
    elif c.result is ResultKind.RETURNS_NOTHING:
        parts.append("void?")
    else:
        parts.append("none/c")
    return "(-> " + " ".join(parts) + ")"
