"""Reactive execution engine with capability injection and taint tracking.

Implementations never see the engine: each one is called with exactly the
arguments its boundary contract grants, in a fixed order — activation
payload, resource capability (a get or do handle), then the publish /
no-publish continuations. Publishing is a non-returning control transfer;
taints accumulate per activation and ride along on every outgoing value.
Each value is checked once, where untrusted code hands it in; ``seal`` proves
that activation payload types agree with what triggers publish.

A single engine instance is single-threaded. Capability and continuation
handles are the bound methods of one activation; calling one after it ends
is a fault.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .contracts import BoundaryContract, CapabilityKind, ResultKind, derive_all
from .decls import (
    ActionDecl,
    ContextDecl,
    ControllerDecl,
    PublishSpec,
    SourceDecl,
    Specification,
    validate,
)
from .errors import KernelError, RuntimeFault
from .values import TaintedValue, Value, check_value, payload_matches


class _ActivationEscape(BaseException):
    """Internal control transfer raised by continuations, with the activation
    it leaves as its one argument. Never catch it."""


@dataclass
class TraceEvent:
    kind: str  # "activate" | "pull"
    component: str
    value: TaintedValue | None
    target: str | None = None


@dataclass(slots=True)
class _Plan:
    """What ``seal`` fixes for one component."""

    name: str
    impl: object
    contract: BoundaryContract
    resource: object  # provider or sink the capability reaches; None for a pulled context
    handles: tuple[str, ...]  # the _Activation methods the implementation receives, in order
    subscribers: tuple[str, ...]


class _Activation:
    """One run of one component. Its bound methods ``get``, ``do``, ``publish``
    and ``nopublish`` are the handles its implementation receives, so every
    handle belongs to exactly one activation and dies with it."""

    __slots__ = ("rt", "plan", "taints", "fired", "fault")

    def __init__(self, rt: Runtime, plan: _Plan, taints: frozenset[str]):
        self.rt = rt
        self.plan = plan
        self.taints = taints
        self.fired = False  # a continuation has taken effect
        self.fault: RuntimeFault | None = None

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
        rt, cap, resource = self.rt, self.plan.contract.capability, self.plan.resource
        v = None
        if resource is None:  # a pull-activated context
            payload, taints = rt._activate(cap.target, None, frozenset())
        else:
            v = rt._call_out("PLATFORM_FAULT", cap.target, "provider", resource.current)
            if v is None:
                raise rt._record(RuntimeFault("PULL_BEFORE_VALUE", f"source '{cap.target}' pulled before "
                                              "any value was set", self.plan.name))
            if not check_value(v, cap.value_type):
                raise rt._record(RuntimeFault("TYPE_MISMATCH", f"provider for '{cap.target}' answered with "
                                              f"{_describe(v)}, expected {cap.value_type}", self.plan.name))
            payload, taints = v.payload, frozenset((cap.target,))
        trace = rt.trace
        if trace is not None:
            v = Value(cap.value_type, payload) if v is None else v
            rt._call_out("HOOK_FAULT", self.plan.name, "trace hook", trace,
                         TraceEvent("pull", self.plan.name, TaintedValue(v, taints), target=cap.target))
        self.taints |= taints
        return payload

    def do(self, payload):
        self._live()
        rt, cap = self.rt, self.plan.contract.capability
        if not payload_matches(cap.value_type, payload):
            raise rt._record(RuntimeFault("CONTRACT_VIOLATION", f"value sent to '{cap.target}' must be "
                                          f"{cap.value_type}, got {payload!r}", self.plan.name))
        v = Value(cap.value_type, payload)
        rt._call_out("PLATFORM_FAULT", cap.target, "sink", self.plan.resource, v)
        rt._log.append((cap.target, TaintedValue(v, self.taints)))

    def publish(self, payload):
        self._fire()
        publish_type = self.plan.contract.publish_type
        if not payload_matches(publish_type, payload):
            raise self.rt._record(RuntimeFault("CONTRACT_VIOLATION", f"published value must be "
                                               f"{publish_type}, got {payload!r}", self.plan.name))
        self.rt._queue.extend([(sub, payload, self.taints) for sub in self.plan.subscribers])
        raise _ActivationEscape(self)

    def nopublish(self):
        self._fire()
        raise _ActivationEscape(self)

    def _fire(self):
        self._live()
        if self.fired:
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
        self._impls: dict[str, object] = {}
        self._resources: dict[str, object] = {}  # the provider of each source, the sink of each action
        self._subscribers: dict[str, list[str]] = {}
        for d in spec.declarations:
            if isinstance(d, ContextDecl) and d.contract.trigger is not None:
                self._subscribers.setdefault(d.contract.trigger, []).append(d.name)
            elif isinstance(d, ControllerDecl):
                self._subscribers.setdefault(d.trigger, []).append(d.name)
        self._plan: dict[str, _Plan] = {}
        self._queue: deque[tuple[str, object, frozenset[str]]] = deque()
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
        if name in self._impls:
            raise KernelError("DUPLICATE_IMPLEMENTATION",
                              f"'{name}' already has an implementation", component=name)
        self._impls[name] = impl

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
        self._decl(name, decl_cls)
        if obj is None:
            raise KernelError("MISSING_BINDING", f"'{name}' cannot be bound to None")
        if name in self._resources:
            raise KernelError("DUPLICATE_BINDING", f"'{name}' is already bound", component=name)
        self._resources[name] = obj

    def _decl(self, name: str, decl_cls):
        decl = self.spec.find(name)
        if decl is None:
            raise KernelError("UNDECLARED_COMPONENT", f"'{name}' is not declared", component=name)
        if not isinstance(decl, decl_cls):
            raise KernelError("WRONG_KIND", f"'{name}' is a {decl.kind}, not a {decl_cls.kind}", component=name)
        return decl

    def seal(self) -> None:
        """Freeze the registry once every component is implemented and bound."""
        self._ensure_unsealed()
        missing_impls = [name for name in self.contracts if name not in self._impls]
        if missing_impls:
            err = KernelError("MISSING_IMPLEMENTATION",
                              "unimplemented components: " + ", ".join(missing_impls))
            err.names = tuple(missing_impls)
            raise err
        missing_bindings = [d.name for d in self.spec.declarations
                            if isinstance(d, (SourceDecl, ActionDecl)) and d.name not in self._resources]
        if missing_bindings:
            err = KernelError("MISSING_BINDING",
                              "unbound resources: " + ", ".join(missing_bindings))
            err.names = tuple(missing_bindings)
            raise err
        # Activations take payloads unchecked: prove once that each payload type is what its
        # trigger publishes, and that pulls reach only pull-activated contexts.
        for trigger, subscribers in self._subscribers.items():
            c = self.contracts.get(trigger)
            published = self.spec.find(trigger).out_type if c is None else c.publish_type
            for sub in subscribers if published else ():  # a trigger that never publishes wakes no one
                if self.contracts[sub].activation_param is not published:
                    raise KernelError("CONTRACT_VIOLATION", f"activation value must be {published}, "
                                      f"the type '{trigger}' publishes", component=sub)
        for name, c in self.contracts.items():
            cap = c.capability
            target = cap and cap.target
            if target in self.contracts and self.contracts[target].activation_param is not None:
                raise KernelError("CONTRACT_VIOLATION", f"get target '{target}' is not pull-activated",
                                  component=name)
            handles = () if cap is None else ("get",) if cap.kind is CapabilityKind.GET else ("do",)
            if c.publish is not PublishSpec.NO:
                handles += ("publish", "nopublish") if c.publish is PublishSpec.MAYBE else ("publish",)
            self._plan[name] = _Plan(name, self._impls[name], c, self._resources.get(target), handles,
                                     tuple(self._subscribers.get(name, ())))
        self._sealed = True

    # -- execution ---------------------------------------------------------

    def set_source(self, name: str, v: Value) -> None:
        """Update a source's pull value without publishing."""
        self._call_out("PLATFORM_FAULT", name, "provider", self._checked_source(name, v).set, v)

    def emit(self, name: str, v: Value) -> None:
        """Publish ``v`` from source ``name`` and run all reactions to quiescence."""
        if not self._sealed:
            raise KernelError("UNSEALED", "seal the runtime before emitting")
        if self._failed:
            raise KernelError("RUNTIME_FAILED",
                              "a previous activation fault poisoned this runtime; no further emits")
        provider = self._checked_source(name, v)
        try:
            self._call_out("PLATFORM_FAULT", name, "provider", provider.set, v)
            taints = frozenset((name,))
            self._queue.extend([(sub, v.payload, taints) for sub in self._subscribers.get(name, ())])
            while self._queue:
                self._activate(*self._queue.popleft())
        except BaseException:
            self._failed = True
            self._queue.clear()
            raise

    def _checked_source(self, name: str, v: Value):
        decl = self._decl(name, SourceDecl)
        provider = self._resources.get(name)
        if provider is None:
            raise KernelError("MISSING_BINDING", f"source '{name}' has no provider bound", component=name)
        if not check_value(v, decl.out_type):
            raise KernelError("TYPE_MISMATCH",
                              f"source '{name}' carries {decl.out_type}, got {_describe(v)}",
                              component=name)
        return provider

    def action_log(self) -> tuple[tuple[str, TaintedValue], ...]:
        """Every action delivery its sink accepted so far, in delivery order."""
        return tuple(self._log)

    def _activate(self, component: str, payload, taints: frozenset[str]):
        """Run one activation; a pull-activated context returns ``(payload, taints)``."""
        plan = self._plan[component]
        c = plan.contract
        param = c.activation_param
        act = _Activation(self, plan, taints)
        trace = self.trace
        if trace is not None:
            value = None if param is None else TaintedValue(Value(param, payload), taints)
            self._call_out("HOOK_FAULT", component, "trace hook", trace, TraceEvent("activate", component, value))
        args = [getattr(act, handle) for handle in plan.handles]
        if param is not None:
            args.insert(0, payload)

        self._stack.append(act)
        try:
            returned = plan.impl(*args)
        except _ActivationEscape as esc:
            if esc.args[0] is not act:  # foreign escape: never ours to absorb
                raise
            returned = None
        except Exception as exc:
            if act.fault is not None:  # recorded on its way out, or swallowed before this exception
                raise act.fault
            raise self._record(RuntimeFault("IMPLEMENTATION_PANIC", f"implementation raised "
                                            f"{type(exc).__name__}: {exc}", component)) from exc
        finally:
            self._stack.pop()

        if act.fault is not None:  # a fault the implementation swallowed
            raise act.fault
        if c.result is ResultKind.NO_RETURN:
            if not act.fired:
                raise self._record(RuntimeFault("NO_CONTINUATION_CALLED", "implementation finished "
                                                "without publish or nopublish", component))
            return None
        if c.result is ResultKind.RETURNS_NOTHING:
            if returned is not None:
                raise self._record(RuntimeFault("CONTRACT_VIOLATION", f"controller returned a value "
                                                f"({returned!r}) but must not", component))
            return None
        if not payload_matches(c.result_type, returned):
            raise self._record(RuntimeFault("CONTRACT_VIOLATION", f"returned value must be "
                                            f"{c.result_type}, got {returned!r}", component))
        return returned, act.taints

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
