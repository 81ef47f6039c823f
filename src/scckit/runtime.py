"""Reactive execution engine with capability injection and taint tracking.

Implementations never see the engine: each one is called with exactly the
arguments its boundary contract grants, in a fixed order — activation
payload, resource capability (a get or do handle), then the publish /
no-publish continuations. Publishing is a non-returning control transfer;
taints accumulate per activation and ride along on every outgoing value.
Each value is checked once, where untrusted code hands it in. ``seal`` proves
that activation payload types agree with what triggers publish, links each
component to the plans it wakes and reaches, and fixes its entry checks and
its shape code: ``_Plan.run`` calls the implementation directly, by one of
seven calls, so no activation reads a contract or looks up a name.

A single engine instance is single-threaded. Capability and continuation
handles are the bound methods of one activation; calling one after it ends
is a fault.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .contracts import _GET, _MAYBE, _NO_PUBLISH, _NO_RETURN, _RETURNS_VALUE, derive_all
from .decls import ActionDecl, ContextDecl, ControllerDecl, SourceDecl, Specification, validate
from .errors import KernelError, RuntimeFault
from .values import PAYLOAD_CHECKS, TaintedValue, Value

_NO_TAINTS: frozenset[str] = frozenset()
_new = object.__new__


class _ActivationEscape(BaseException):
    """Internal control transfer raised by continuations, with the activation
    it leaves as its one argument. Never catch it."""


@dataclass
class TraceEvent:
    kind: str  # "activate" | "pull"
    component: str
    value: TaintedValue | None
    target: str | None = None


class _Plan:
    """One declaration as registered or bound, then sealed. A source or action has its
    provider or sink, type (``tag``), that type's check and its taint; a component
    has its implementation, contract, result kind, capability ``target`` plan, the
    check ``ok`` of what it publishes or returns, and its ``shape`` code. Plans
    link to the ``subscribers`` they wake but never back to their runtime, so a
    dropped runtime is freed at once, without the cycle collector."""

    __slots__ = ("name", "impl", "resource", "tag", "accepts", "taints", "contract", "result", "shape",
                 "target", "ok", "subscribers")

    def __init__(self, name: str, impl, resource):
        self.name, self.impl, self.resource = name, impl, resource
        self.subscribers = ()

    def admits(self, v) -> bool:
        """Whether ``v`` is a ``Value`` of this source's or action's type."""
        return isinstance(v, Value) and v.tag is self.tag and self.accepts(v.payload)

    def run(self, rt: Runtime, payload, taints: frozenset[str]):
        """The activator: run this context or controller once in ``rt``. A
        pull-activated context returns ``(payload, taints)``."""
        act = _new(_Activation)  # filled in place: no __init__ frame on the hot path
        act.rt, act.plan, act.taints, act.fired, act.fault = rt, self, taints, False, None
        trace = rt.trace
        if trace is not None:
            param = self.contract.activation_param
            value = None if param is None else TaintedValue(Value(param, payload), taints)
            rt._call_out("HOOK_FAULT", self.name, "trace hook", trace, TraceEvent("activate", self.name, value))
        stack, shape, impl = rt._stack, self.shape, self.impl
        stack.append(act)
        try:  # the call of this contract's shape (see _SHAPES)
            if shape == 0:
                returned = impl(act.get)
            elif shape == 1:
                returned = impl(payload, act.publish)
            elif shape == 2:
                returned = impl(payload, act.do)
            elif shape == 3:
                returned = impl(payload, act.get, act.publish, act.nopublish)
            elif shape == 4:
                returned = impl(payload, act.get, act.publish)
            elif shape == 5:
                returned = impl(payload, act.publish, act.nopublish)
            else:
                returned = impl()
        except _ActivationEscape as esc:
            if esc.args[0] is not act:  # foreign escape: never ours to absorb
                raise
            returned = None
        except Exception as exc:
            if act.fault is not None:  # recorded on its way out, or swallowed before this exception
                raise act.fault
            raise rt._record(RuntimeFault("IMPLEMENTATION_PANIC", f"implementation raised "
                                          f"{type(exc).__name__}: {exc}", self.name)) from exc
        finally:
            stack.pop()

        if act.fault is not None:  # a fault the implementation swallowed
            raise act.fault
        if self.result is _NO_RETURN:
            if not act.fired:
                raise rt._record(RuntimeFault("NO_CONTINUATION_CALLED", "implementation finished "
                                              "without publish or nopublish", self.name))
        elif self.result is _RETURNS_VALUE:
            if not self.ok(returned):
                raise rt._record(RuntimeFault("CONTRACT_VIOLATION", f"returned value must be "
                                              f"{self.contract.result_type}, got {returned!r}", self.name))
            return returned, act.taints
        elif returned is not None:
            raise rt._record(RuntimeFault("CONTRACT_VIOLATION", f"controller returned a value "
                                          f"({returned!r}) but must not", self.name))
        return None


# The seven contract shapes, keyed by the handles the contract grants, and the codes
# ``_Plan.run`` tests in order: pulled contexts, publishers and controllers first. Each
# call hands an implementation exactly its arguments: the payload if any, then those handles.
_SHAPES = {("get",): 0, ("publish",): 1, ("do",): 2, ("get", "publish", "nopublish"): 3,
           ("get", "publish"): 4, ("publish", "nopublish"): 5, (): 6}


class _Activation:
    """One run of one component. Its bound methods ``get``, ``do``, ``publish``
    and ``nopublish`` are the handles its implementation receives, so every
    handle belongs to exactly one activation and dies with it. Only ``_Plan.run``
    makes one, and fills its slots itself."""

    __slots__ = ("rt", "plan", "taints", "fired", "fault")  # fired: a continuation has taken effect

    def _live(self):
        """A handle works only while its activation runs on top, and not after a fault."""
        stack = self.rt._stack
        if not stack or stack[-1] is not self:
            raise self.rt._record(RuntimeFault("STALE_HANDLE", "handle used outside the activation it "
                                               "was granted to", self.plan.name))
        if self.fault is not None:
            raise self.fault

    def get(self):
        self._live()
        rt, plan = self.rt, self.plan
        target, v = plan.target, None
        if target.impl is not None:  # a pull-activated context
            payload, taints = target.run(rt, None, _NO_TAINTS)
        else:
            v = rt._call_out("PLATFORM_FAULT", target.name, "provider", target.resource.current)
            if v is None:
                raise rt._record(RuntimeFault("PULL_BEFORE_VALUE", f"source '{target.name}' pulled before "
                                              "any value was set", plan.name))
            if not target.admits(v):
                raise rt._record(RuntimeFault("TYPE_MISMATCH", f"provider for '{target.name}' answered with "
                                              f"{_describe(v)}, expected {target.tag}", plan.name))
            payload, taints = v.payload, target.taints
        trace = rt.trace
        if trace is not None:
            v = Value(plan.contract.capability.value_type, payload) if v is None else v
            rt._call_out("HOOK_FAULT", plan.name, "trace hook", trace,
                         TraceEvent("pull", plan.name, TaintedValue(v, taints), target=target.name))
        mine = self.taints
        if not taints <= mine:  # no copy when either side is empty or the pull adds nothing
            self.taints = mine | taints if mine else taints
        return payload

    def do(self, payload):
        self._live()
        rt, target = self.rt, self.plan.target
        if not target.accepts(payload):
            raise rt._record(RuntimeFault("CONTRACT_VIOLATION", f"value sent to '{target.name}' must be "
                                          f"{target.tag}, got {payload!r}", self.plan.name))
        v = Value(target.tag, payload)
        rt._call_out("PLATFORM_FAULT", target.name, "sink", target.resource, v)
        rt._log.append((target.name, TaintedValue(v, self.taints)))

    def publish(self, payload):
        self._fire()
        plan = self.plan
        if not plan.ok(payload):
            raise self.rt._record(RuntimeFault("CONTRACT_VIOLATION", f"published value must be "
                                               f"{plan.contract.publish_type}, got {payload!r}", plan.name))
        append, taints = self.rt._queue.append, self.taints
        for subscriber in plan.subscribers:
            append((subscriber, payload, taints))
        raise _ActivationEscape(self)

    def nopublish(self):
        self._fire()
        raise _ActivationEscape(self)

    def _fire(self):
        """``_live``, inlined, for a continuation, which takes effect once."""
        stack = self.rt._stack
        if not stack or stack[-1] is not self or self.fault is not None or self.fired:
            self._live()  # raises STALE_HANDLE or the fault, if either comes first
            raise self.rt._record(RuntimeFault("DOUBLE_CONTINUATION", "a continuation was already "
                                               "invoked in this activation", self.plan.name))
        self.fired = True


class Runtime:
    """Sealed-registry event engine for one validated specification.

    Lifecycle: register implementations and bind platform resources, seal,
    then emit source values. Each emission drains the activation queue to
    quiescence before returning. Anything that escapes a drain drops the
    queue and poisons the engine: it stays inspectable but accepts no
    further emits. Blame is assigned in two places only: ``_call_out`` and
    ``_record``.
    """

    def __init__(self, spec: Specification):
        report = validate(spec)
        if report:
            raise KernelError("INVALID_SPEC",
                              f"specification has {len(report)} diagnostic(s); first: {report[0].message}")
        self.spec = spec
        self.contracts = derive_all(spec)
        self._plans: dict[str, _Plan] = {}  # every registered component and bound resource
        self._sources: dict[str, _Plan] = {}  # the bound sources
        self._queue: deque[tuple[_Plan, object, frozenset[str]]] = deque()
        self._stack: list[_Activation] = []
        self._log: list[tuple[str, TaintedValue]] = []
        self._sealed = False
        self._failed = False
        self.trace = None  # optional callable(TraceEvent), platform-side

    # -- registry ----------------------------------------------------------

    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def failed(self) -> bool:
        return self._failed

    def _ensure_unsealed(self):
        if self._sealed:
            raise KernelError("SEALED", "the runtime is sealed; registrations and bindings are frozen")

    def register(self, name: str, impl) -> None:
        """Bind ``impl`` as the one implementation of a context or controller."""
        self._ensure_unsealed()
        if name not in self.contracts:
            raise KernelError("UNDECLARED_COMPONENT",
                              f"'{name}' is not a declared context or controller", component=name)
        if impl is None:
            raise KernelError("MISSING_IMPLEMENTATION", f"'{name}' cannot be registered as None")
        if name in self._plans:
            raise KernelError("DUPLICATE_IMPLEMENTATION",
                              f"'{name}' already has an implementation", component=name)
        self._plans[name] = _Plan(name, impl, None)

    def bind_source(self, name: str, provider) -> None:
        """Attach the platform object answering pulls of source ``name``.

        The provider duck type is ``current() -> Value | None`` and
        ``set(Value)``; emitted values are pushed into it so later pulls see
        the newest value.
        """
        self._bind(name, provider, SourceDecl)

    def bind_action(self, name: str, sink) -> None:
        """Attach the platform callable consuming values sent to action ``name``."""
        self._bind(name, sink, ActionDecl)

    def _bind(self, name, obj, decl_cls):
        self._ensure_unsealed()
        decl = self._decl(name, decl_cls)
        if obj is None:
            raise KernelError("MISSING_BINDING", f"'{name}' cannot be bound to None")
        if name in self._plans:
            raise KernelError("DUPLICATE_BINDING", f"'{name}' is already bound", component=name)
        plan = self._plans[name] = _Plan(name, None, obj)
        plan.tag = decl.out_type if decl_cls is SourceDecl else decl.in_type
        plan.accepts, plan.taints = PAYLOAD_CHECKS[plan.tag], frozenset((name,))
        if decl_cls is SourceDecl:
            self._sources[name] = plan

    def _decl(self, name: str, decl_cls):
        decl = self.spec.find(name)
        if decl is None:
            raise KernelError("UNDECLARED_COMPONENT", f"'{name}' is not declared", component=name)
        if not isinstance(decl, decl_cls):
            raise KernelError("WRONG_KIND", f"'{name}' is a {decl.kind}, not a {decl_cls.kind}", component=name)
        return decl

    def seal(self) -> None:
        """Freeze the registry once every component is implemented and bound, and
        compile it in one pass over the declarations (see the module docstring)."""
        self._ensure_unsealed()
        plans, contracts = self._plans, self.contracts
        # Plans are keyed by declared names only, so equal counts mean nothing is missing.
        if len(plans) < len(self.spec.declarations):
            unbound = [d.name for d in self.spec.declarations
                       if isinstance(d, (SourceDecl, ActionDecl)) and d.name not in plans]
            for code, what, missing in (("MISSING_IMPLEMENTATION", "unimplemented components",
                                         [name for name in contracts if name not in plans]),
                                        ("MISSING_BINDING", "unbound resources", unbound)):
                if missing:
                    err = KernelError(code, f"{what}: " + ", ".join(missing))
                    err.names = tuple(missing)
                    raise err
        subscribers: dict[str, list[_Plan]] = {}  # linked only once the whole pass succeeds
        for d in self.spec.declarations:
            if isinstance(d, ContextDecl):
                trigger = d.contract.trigger
            elif isinstance(d, ControllerDecl):
                trigger = d.trigger
            else:
                continue
            plan = plans[d.name]
            c = plan.contract = contracts[d.name]
            # Activations take payloads unchecked: prove once that each payload type is what its
            # trigger publishes, and that pulls reach only pull-activated contexts.
            if trigger is not None:
                published = contracts[trigger].publish_type if trigger in contracts else plans[trigger].tag
                if published is not None:  # a trigger that never publishes wakes no one
                    if c.activation_param is not published:
                        raise KernelError("CONTRACT_VIOLATION", f"activation value must be {published}, "
                                          f"the type '{trigger}' publishes", component=d.name)
                    subscribers.setdefault(trigger, []).append(plan)
            handles = ()
            if c.capability is not None:
                target = c.capability.target
                if target in contracts and contracts[target].activation_param is not None:
                    raise KernelError("CONTRACT_VIOLATION", f"get target '{target}' is not pull-activated",
                                      component=d.name)
                plan.target = plans[target]
                handles = ("get",) if c.capability.kind is _GET else ("do",)
            if c.publish is not _NO_PUBLISH:
                handles += ("publish", "nopublish") if c.publish is _MAYBE else ("publish",)
            out_type = c.publish_type or c.result_type  # a controller neither publishes nor returns
            plan.ok = None if out_type is None else PAYLOAD_CHECKS[out_type]
            plan.result, plan.shape = c.result, _SHAPES[handles]
        for name, woken in subscribers.items():
            plans[name].subscribers = woken
        self._sealed = True

    # -- execution ---------------------------------------------------------

    def set_source(self, name: str, v: Value) -> None:
        """Update a source's pull value without publishing."""
        source = self._sources.get(name)
        if source is None or not source.admits(v):
            self._checked_source(name, v)
        self._call_out("PLATFORM_FAULT", name, "provider", source.resource.set, v)

    def emit(self, name: str, v: Value) -> None:
        """Publish ``v`` from source ``name`` and run all reactions to quiescence."""
        if not self._sealed:
            raise KernelError("UNSEALED", "seal the runtime before emitting")
        if self._failed:
            raise KernelError("RUNTIME_FAILED",
                              "a previous activation fault poisoned this runtime; no further emits")
        source = self._sources.get(name)
        if source is None or not source.admits(v):
            self._checked_source(name, v)
        try:
            self._call_out("PLATFORM_FAULT", name, "provider", source.resource.set, v)
            queue, payload, taints = self._queue, v.payload, source.taints
            for subscriber in source.subscribers:
                queue.append((subscriber, payload, taints))
            while queue:
                plan, payload, taints = queue.popleft()
                plan.run(self, payload, taints)
        except BaseException:
            self._failed = True
            self._queue.clear()
            raise

    def _checked_source(self, name: str, v) -> None:
        """Raise the entry error of ``v``, which no bound source ``name`` admits."""
        decl = self._decl(name, SourceDecl)
        if name not in self._sources:
            raise KernelError("MISSING_BINDING", f"source '{name}' has no provider bound", component=name)
        raise KernelError("TYPE_MISMATCH", f"source '{name}' carries {decl.out_type}, got {_describe(v)}",
                          component=name)

    def action_log(self) -> tuple[tuple[str, TaintedValue], ...]:
        """Every action delivery its sink accepted so far, in delivery order."""
        return tuple(self._log)

    # -- blame -------------------------------------------------------------

    def _record(self, fault: RuntimeFault) -> RuntimeFault:
        """Give ``fault`` to every activation on the stack that holds none yet, and
        return it. The stack is one pull chain, so a fault aborts all of it; each
        activation fails with the first fault it got, even if its code caught it."""
        for act in self._stack:
            if act.fault is None:
                act.fault = fault
        return fault

    def _call_out(self, code: str, component: str, party: str, fn, *args):
        """Call platform code (a provider, a sink or the trace hook); what it raises
        becomes a ``code`` fault blamed on ``component``, with the raised exception as cause."""
        try:
            return fn(*args)
        except Exception as exc:
            raise self._record(RuntimeFault(code, f"{party} raised {type(exc).__name__}: {exc}",
                                            component)) from exc


def create_runtime(spec: Specification) -> Runtime:
    """Engine for ``spec``; the spec must validate cleanly."""
    return Runtime(spec)


def _describe(v) -> str:
    if isinstance(v, Value):
        return f"{v.tag} {v.payload!r}"
    return repr(v)
