"""Abstract syntax and well-formedness checks for component declarations.

An application is an ordered list of declarations: sources and actions
(platform resources), contexts (computation triggered by pull or by another
component's publication), and controllers (react to a context by commanding
an action). ``validate`` checks cross-references and structural rules and
returns diagnostics instead of raising.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum

from .errors import KernelError

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# Most when-required contexts one get chain may activate, nested one inside the
# next. Each level costs the interpreter 2 frames untraced (the get handle and
# the implementation it calls), so the bound keeps every pull far below the
# default recursion limit of 1,000, with room for tracing wrappers around each
# level.
MAX_PULL_DEPTH = 100


class DataType(Enum):
    BOOL = "Bool"
    INT = "Int"
    STRING = "String"
    PICTURE = "Picture"

    __hash__ = object.__hash__  # members are singletons; Enum's own hash is Python code

    def __str__(self) -> str:
        return self.value


class PublishSpec(Enum):
    NO = "no_publish"
    ALWAYS = "always_publish"
    MAYBE = "maybe_publish"

    __hash__ = object.__hash__  # as in DataType: seal looks contract shapes up by member


# Plain globals for Enum members, here and in contracts, for other modules to import: in 3.11
# EnumType defines __getattr__, which makes every load through the class several times slower.
_NO_PUBLISH, _ALWAYS, _MAYBE = PublishSpec.NO, PublishSpec.ALWAYS, PublishSpec.MAYBE


def _record(cls):
    """``dataclass(frozen=True, slots=True)`` whose ``__init__`` sets each field through its
    slot's descriptor, not by an ``object.__setattr__`` call per field, then calls any
    ``__post_init__``. Fields take no ``default_factory``."""
    doc = cls.__doc__
    cls.__doc__ = "-"  # without a docstring, dataclass would spell one through the slow inspect.signature
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    ns, params, body = {}, [], []
    for f in fields(cls):
        if f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: a record field takes no default_factory")
        ns[f"_set_{f.name}"], ns[f"_d_{f.name}"] = cls.__dict__[f.name].__set__, f.default
        params.append(f.name if f.default is MISSING else f"{f.name}=_d_{f.name}")
        body.append(f"_set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), ns)
    cls.__init__ = ns["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__doc__ = doc or f"{cls.__name__}({', '.join(f.name for f in fields(cls))})"
    return cls


@_record
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
    return InteractionContract(None, get, _NO_PUBLISH)


def when_provided(trigger: str, publish: PublishSpec, get: str | None = None) -> InteractionContract:
    return InteractionContract(trigger, get, publish)


# 'pos' is the (line, col) of the declaration in its source file; it is
# diagnostic metadata only and never takes part in equality.

@_record
class SourceDecl:
    kind = "source"
    name: str
    out_type: DataType
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@_record
class ActionDecl:
    kind = "action"
    name: str
    in_type: DataType
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@_record
class ContextDecl:
    kind = "context"
    name: str
    out_type: DataType
    contract: InteractionContract
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@_record
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
        """Index, in one loop, how the declarations connect, for validate, the flow graph and the
        runtime. ``_table``: each name's first declaration, and ``_sources`` each source's bit there.
        ``_wiring``: the flow edges in order, as parallel tuples of sources, targets and kinds, and
        the successor maps of the pull graph (when-required context -> get target) and of the
        publish graph (when-provided context -> trigger), where a name's first such declaration
        stands for it. All sit in the instance dict, out of equality, hashing and repr."""
        declarations = tuple(self.declarations)
        # No object per edge: 1,600 edge tuples, kept or only gathered, slowed large-spec setup in 9 of 9 pairs.
        table, flat, pulls, publishes, sources = {}, [], {}, {}, {}  # flat: each edge's source, target, kind
        for d in declarations:
            table.setdefault(d.name, d)
            if isinstance(d, ContextDecl):
                trigger, target = d.contract.trigger, d.contract.get_target
                if trigger is None:
                    pulls.setdefault(d.name, target)
                else:
                    publishes.setdefault(d.name, trigger)
                    flat += trigger, d.name, "publish"
                if target is not None:
                    flat += target, d.name, "pull"
            elif isinstance(d, ControllerDecl):
                flat += d.trigger, d.name, "publish", d.name, d.action, "command"
            elif isinstance(d, SourceDecl) and table[d.name] is d:  # numbered once, even where one object repeats
                sources.setdefault(d.name, 1 << len(sources))
        edges = tuple(flat[0::3]), tuple(flat[1::3]), tuple(flat[2::3])
        self.__dict__.update(declarations=declarations, _table=table, _wiring=(edges, pulls, publishes),
                             _sources=sources)

    def find(self, name: str) -> Declaration | None:
        return self._table.get(name)


@_record
class Diagnostic:
    index: int  # position of the offending declaration
    code: str
    message: str


def output_type_of(spec: Specification, name: str) -> DataType:
    """Declared output type of a source or context."""
    return _resolve(name, _CONTEXT_TRIGGER, spec._table).out_type


def _article(kind: str) -> str:
    return ("an " if kind[0] in "aeiou" else "a ") + kind


# One row per rule a name is resolved under: the kinds it may name and what a contract says of a wrong
# kind; then, for validate's four (a trigger, get target or do target), the label a missing name gets,
# the label a wrong kind gets and what it is told to expect. The fifth is derive_contract's own name,
# and the last two the runtime's: the name bound as a provider or emitted, and the one bound as a sink.
_CONTEXT_TRIGGER = ((SourceDecl, ContextDecl), " and has no output type", "trigger", "trigger",
                    "expected a source or context")
_GET_TARGET = ((SourceDecl, ContextDecl), " and has no output type", "get target", "get target",
               "expected a source or when-required context")
_CONTROLLER_TRIGGER = (ContextDecl, "; controllers are triggered by contexts", "trigger", "trigger",
                       "controllers are triggered by contexts")
_DO_TARGET = (ActionDecl, " and has no input type", "action", "do target", "expected an action")
_COMPONENT = ((ContextDecl, ControllerDecl), "; only contexts and controllers carry boundary contracts")
_SOURCE = (SourceDecl, ", not a source")
_ACTION = (ActionDecl, ", not an action")


def validate(spec: Specification) -> list[Diagnostic]:
    """Check every structural rule; empty result means the spec is well-formed.

    Pure and deterministic: diagnostics come out ordered by declaration
    index, with a fixed check order within each declaration.
    """
    table = spec._table
    _, pull_successors, publish_successors = spec._wiring
    pulls, depths = _chains(pull_successors)
    publishes, _ = _chains(publish_successors)
    diags: list[Diagnostic] = []

    def refuse(name, row, found):  # validate's refusal of a reference of declaration i, the one being checked
        _, _, missing, wrong, expected = row
        if found is None:
            diags.append(Diagnostic(i, "UNRESOLVED_REF", f"{missing} '{name}' is not declared"))
        else:
            diags.append(Diagnostic(i, "BAD_TRIGGER_KIND", f"{wrong} '{name}' is {_article(found.kind)}; {expected}"))

    seen: set[str] = set()
    for i, decl in enumerate(spec.declarations):
        if not NAME_RE.fullmatch(decl.name):
            diags.append(Diagnostic(i, "BAD_NAME", f"'{decl.name}' is not a valid component name"))
        if decl.name in seen:
            diags.append(Diagnostic(i, "DUP_NAME", f"'{decl.name}' is already declared"))
        seen.add(decl.name)
        if isinstance(decl, ControllerDecl):
            _resolve(decl.trigger, _CONTROLLER_TRIGGER, table, refuse)
            _resolve(decl.action, _DO_TARGET, table, refuse)
        if not isinstance(decl, ContextDecl):
            continue
        c = decl.contract
        if c.trigger is None and c.publish is not _NO_PUBLISH:
            diags.append(Diagnostic(i, "BAD_PUBLISH_SPEC",
                                    "publish specification is not allowed with when-required activation"))
        if c.trigger is not None and c.publish is _NO_PUBLISH:
            diags.append(Diagnostic(i, "BAD_PUBLISH_SPEC",
                                    "when-provided contexts must declare always_publish or maybe_publish"))
        if c.trigger is not None:
            _resolve(c.trigger, _CONTEXT_TRIGGER, table, refuse)
        if c.get_target is not None:
            pulled = _resolve(c.get_target, _GET_TARGET, table, refuse)
            if isinstance(pulled, ContextDecl) and pulled.contract.trigger is not None:
                diags.append(Diagnostic(i, "PULL_NOT_REQUIRED",
                                        f"get target '{c.get_target}' is not a when-required context"))
        if decl.name in pulls and c.trigger is None:
            diags.append(Diagnostic(i, "GET_CYCLE", f"get dependencies of '{decl.name}' form a cycle"))
        elif decl.name in publishes and c.trigger is not None:
            diags.append(Diagnostic(i, "PUBLISH_CYCLE", f"publish triggers of '{decl.name}' form a cycle"))
        # A pull of a context nests every when-required context on its target's chain.
        depth = depths.get(c.get_target, 0)
        if depth > MAX_PULL_DEPTH:
            diags.append(Diagnostic(i, "PULL_TOO_DEEP", f"get chain of '{decl.name}' nests {depth} "
                                    f"when-required contexts; the limit is {MAX_PULL_DEPTH}"))
    return diags


def _refused(name: str, row: tuple, found: Declaration | None, missing: str = "NOT_FOUND"):
    """The refusal of a reference ``name`` that does not resolve under ``row``, outside ``validate``:
    the ``missing`` code if it is not declared (the runtime's is ``UNDECLARED_COMPONENT``)."""
    if found is None:
        raise KernelError(missing, f"'{name}' is not declared", component=name)
    raise KernelError("WRONG_KIND", f"'{name}' is {_article(found.kind)}{row[1]}", component=name)


def _resolve(name: str, row: tuple, table: dict[str, Declaration], refuse=_refused) -> Declaration | None:
    """The declaration ``name`` names under ``row``: the one lookup and kind test. When it is missing or of
    a kind the row does not allow, what ``refuse(name, row, found)`` gives (``found`` None or the wrong kind)."""
    try:
        found = table.get(name)
    except TypeError:  # a name that is not hashable names nothing
        found = None
    if isinstance(found, row[0]):
        return found
    return refuse(name, row, found)


def _chains(successor: dict[str, str | None]) -> tuple[set[str], dict[str, int]]:
    """Cycles and chain lengths of a graph in which each node has one edge, to
    ``successor[node]`` when that is a node, itself included. Returns the names
    on a cycle, and for every node whose chain ends without entering one, the
    number of nodes on that chain, itself included. A walk from each node that
    stops at the first node already walked visits every node once: linear time."""
    members: set[str] = set()
    lengths: dict[str, int] = {}
    walked: set[str] = set()
    for name in successor:
        if name in walked:
            continue
        path: dict[str, int] = {}  # this walk's nodes, in order
        while name in successor and name not in walked:
            walked.add(name)
            path[name] = len(path)
            name = successor[name]
        if name in path:  # the walk closed a loop of its own
            members.update(list(path)[path[name]:])
        elif name not in walked or name in lengths:  # the chain ends, or joins one already measured
            length = lengths.get(name, 0)
            for step in reversed(path):
                length += 1
                lengths[step] = length
    return members, lengths
