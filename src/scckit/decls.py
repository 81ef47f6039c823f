"""Abstract syntax and well-formedness checks for component declarations.

An application is an ordered list of declarations: sources and actions
(platform resources), contexts (computation triggered by pull or by another
component's publication), and controllers (react to a context by commanding
an action). ``validate`` checks cross-references and structural rules and
returns diagnostics instead of raising.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from .errors import KernelError

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# Most when-required contexts one get chain may activate, nested one inside the
# next. Each level costs the interpreter about 3 frames (handle, activation,
# implementation), so the bound keeps every pull far below the default
# recursion limit of 1,000, with room for tracing wrappers around each level.
MAX_PULL_DEPTH = 100


class DataType(Enum):
    BOOL = "Bool"
    INT = "Int"
    STRING = "String"
    PICTURE = "Picture"

    def __str__(self) -> str:
        return self.value


class PublishSpec(Enum):
    NO = "no_publish"
    ALWAYS = "always_publish"
    MAYBE = "maybe_publish"


@dataclass(frozen=True)
class InteractionContract:
    """How a context is activated and what it may do when it runs.

    ``trigger is None`` means pull-activated (when-required); in that case
    the context never publishes and hands its value back to the puller.
    A non-None trigger means the context wakes on that component's
    publications and must itself declare always_publish or maybe_publish.
    """

    trigger: str | None
    get_target: str | None = None
    publish: PublishSpec = PublishSpec.NO


def when_required(get: str | None = None) -> InteractionContract:
    return InteractionContract(None, get, PublishSpec.NO)


def when_provided(trigger: str, publish: PublishSpec, get: str | None = None) -> InteractionContract:
    return InteractionContract(trigger, get, publish)


# 'pos' is the (line, col) of the declaration in its source file; it is
# diagnostic metadata only and never takes part in equality.

@dataclass(frozen=True)
class SourceDecl:
    kind = "source"
    name: str
    out_type: DataType
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ActionDecl:
    kind = "action"
    name: str
    in_type: DataType
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ContextDecl:
    kind = "context"
    name: str
    out_type: DataType
    contract: InteractionContract
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ControllerDecl:
    kind = "controller"
    name: str
    trigger: str
    action: str
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


Declaration = SourceDecl | ActionDecl | ContextDecl | ControllerDecl


@dataclass(frozen=True)
class Specification:
    declarations: tuple[Declaration, ...]

    def __post_init__(self):
        object.__setattr__(self, "declarations", tuple(self.declarations))
        table: dict[str, Declaration] = {}
        for d in self.declarations:
            table.setdefault(d.name, d)
        object.__setattr__(self, "_table", table)

    def by_name(self) -> dict[str, Declaration]:
        """Copy of the name table; on duplicates the first occurrence wins."""
        return dict(self._table)

    def find(self, name: str) -> Declaration | None:
        return self._table.get(name)


@dataclass(frozen=True)
class Diagnostic:
    index: int  # position of the offending declaration
    code: str
    message: str


def output_type_of(spec: Specification, name: str) -> DataType:
    """Declared output type of a source or context."""
    decl = spec.find(name)
    if decl is None:
        raise KernelError("NOT_FOUND", f"'{name}' is not declared", component=name)
    if isinstance(decl, (SourceDecl, ContextDecl)):
        return decl.out_type
    raise KernelError("WRONG_KIND", f"'{name}' is {_article(decl.kind)} and has no output type", component=name)


def _article(kind: str) -> str:
    return ("an " if kind[0] in "aeiou" else "a ") + kind


def _is_required_context(decl: Declaration | None) -> bool:
    return isinstance(decl, ContextDecl) and decl.contract.trigger is None


def _is_provided_context(decl: Declaration | None) -> bool:
    return isinstance(decl, ContextDecl) and decl.contract.trigger is not None


def validate(spec: Specification) -> list[Diagnostic]:
    """Check every structural rule; empty result means the spec is well-formed.

    Pure and deterministic: diagnostics come out ordered by declaration
    index, with a fixed check order within each declaration.
    """
    table = spec._table
    pulls, depths = _chains(spec, _is_required_context, lambda d: d.contract.get_target)
    publishes, _ = _chains(spec, _is_provided_context, lambda d: d.contract.trigger)
    diags: list[Diagnostic] = []
    seen: set[str] = set()
    for i, decl in enumerate(spec.declarations):
        if not NAME_RE.fullmatch(decl.name):
            diags.append(Diagnostic(i, "BAD_NAME", f"'{decl.name}' is not a valid component name"))
        if decl.name in seen:
            diags.append(Diagnostic(i, "DUP_NAME", f"'{decl.name}' is already declared"))
        seen.add(decl.name)
        if isinstance(decl, ControllerDecl):
            diags.extend(_check_controller(i, decl, table))
        if not isinstance(decl, ContextDecl):
            continue
        diags.extend(_check_context(i, decl, table))
        if decl.name in pulls and _is_required_context(decl):
            diags.append(Diagnostic(i, "GET_CYCLE", f"get dependencies of '{decl.name}' form a cycle"))
        elif decl.name in publishes and _is_provided_context(decl):
            diags.append(Diagnostic(i, "PUBLISH_CYCLE", f"publish triggers of '{decl.name}' form a cycle"))
        # A pull of a context nests every when-required context on its target's chain.
        depth = depths.get(decl.contract.get_target, 0)
        if depth > MAX_PULL_DEPTH:
            diags.append(Diagnostic(i, "PULL_TOO_DEEP", f"get chain of '{decl.name}' nests {depth} "
                                    f"when-required contexts; the limit is {MAX_PULL_DEPTH}"))
    return diags


def _check_context(i: int, decl: ContextDecl, table: dict[str, Declaration]) -> list[Diagnostic]:
    out = []
    c = decl.contract
    if c.trigger is None and c.publish is not PublishSpec.NO:
        out.append(Diagnostic(i, "BAD_PUBLISH_SPEC",
                              "publish specification is not allowed with when-required activation"))
    if c.trigger is not None and c.publish is PublishSpec.NO:
        out.append(Diagnostic(i, "BAD_PUBLISH_SPEC",
                              "when-provided contexts must declare always_publish or maybe_publish"))
    if c.trigger is not None:
        trig = table.get(c.trigger)
        if trig is None:
            out.append(Diagnostic(i, "UNRESOLVED_REF", f"trigger '{c.trigger}' is not declared"))
        elif not isinstance(trig, (SourceDecl, ContextDecl)):
            out.append(Diagnostic(i, "BAD_TRIGGER_KIND",
                                  f"trigger '{c.trigger}' is {_article(trig.kind)}; expected a source or context"))
    if c.get_target is not None:
        target = table.get(c.get_target)
        if target is None:
            out.append(Diagnostic(i, "UNRESOLVED_REF", f"get target '{c.get_target}' is not declared"))
        elif isinstance(target, ContextDecl):
            if target.contract.trigger is not None:
                out.append(Diagnostic(i, "PULL_NOT_REQUIRED",
                                      f"get target '{c.get_target}' is not a when-required context"))
        elif not isinstance(target, SourceDecl):
            out.append(Diagnostic(i, "BAD_TRIGGER_KIND",
                                  f"get target '{c.get_target}' is {_article(target.kind)}; "
                                  "expected a source or when-required context"))
    return out


def _check_controller(i: int, decl: ControllerDecl, table: dict[str, Declaration]) -> list[Diagnostic]:
    out = []
    trig = table.get(decl.trigger)
    if trig is None:
        out.append(Diagnostic(i, "UNRESOLVED_REF", f"trigger '{decl.trigger}' is not declared"))
    elif not isinstance(trig, ContextDecl):
        out.append(Diagnostic(i, "BAD_TRIGGER_KIND",
                              f"trigger '{decl.trigger}' is {_article(trig.kind)}; "
                              "controllers are triggered by contexts"))
    act = table.get(decl.action)
    if act is None:
        out.append(Diagnostic(i, "UNRESOLVED_REF", f"action '{decl.action}' is not declared"))
    elif not isinstance(act, ActionDecl):
        out.append(Diagnostic(i, "BAD_TRIGGER_KIND",
                              f"do target '{decl.action}' is {_article(act.kind)}; expected an action"))
    return out


def _chains(spec: Specification, keep, successor) -> tuple[set[str], dict[str, int]]:
    """Cycles and chain lengths of the graph over the kept declarations.

    The first kept declaration of each name is its node, and a node's only
    edge leads to ``successor(decl)`` when that names a node, itself
    included. Returns the names on a cycle, and for every node whose chain
    ends without entering one, the number of nodes on that chain, itself
    included. With at most one successor per node, a walk from each node
    that stops at the first node already walked visits every node once:
    linear time.
    """
    nodes: dict[str, Declaration] = {}
    for decl in spec.declarations:
        if keep(decl):
            nodes.setdefault(decl.name, decl)
    members: set[str] = set()
    lengths: dict[str, int] = {}
    walked: set[str] = set()
    for name in nodes:
        if name in walked:
            continue
        path: dict[str, int] = {}  # this walk's nodes, in order
        while name in nodes and name not in walked:
            walked.add(name)
            path[name] = len(path)
            name = successor(nodes[name])
        if name in path:  # the walk closed a loop of its own
            members.update(list(path)[path[name]:])
        elif name not in walked or name in lengths:  # the chain ends, or joins one already measured
            length = lengths.get(name, 0)
            for step in reversed(path):
                length += 1
                lengths[step] = length
    return members, lengths
