"""Reactive execution engine with capability injection and taint tracking.

Implementations never see the engine: each one is called with exactly the
arguments its boundary contract grants, in a fixed order — activation
payload, resource capability (a get or do closure), then the publish /
no-publish continuations. Publishing is a non-returning control transfer;
taints accumulate per activation and ride along on every outgoing value.
Each value is checked once, where untrusted code hands it in; ``seal`` proves
that activation payload types agree with what triggers publish.

A single engine instance is single-threaded. Capability and continuation
handles die with their activation; calling one later is a fault.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .contracts import Capability, CapabilityKind, ResultKind, derive_all
from .decls import (
    ActionDecl,
    ContextDecl,
    ControllerDecl,
    DataType,
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


class _Activation:
    __slots__ = ("component", "taints", "fired", "fault")

    def __init__(self, component: str, taints: frozenset[str]):
        self.component = component
        self.taints = taints
        self.fired = False  # a continuation has taken effect
        self.fault: RuntimeFault | None = None


class Runtime:
    """Sealed-registry event engine for one validated specification.

    Lifecycle: register implementations and bind platform resources, seal,
    then emit source values. Each emission drains the activation queue to
    quiescence before returning. Anything that escapes a drain, an activation
    fault or an exception from a platform hook, drops the queue and poisons
    the engine: it stays inspectable but accepts no further emits.
    """

    def __init__(self, spec: Specification):
        report = validate(spec)
        if report:
            raise KernelError("INVALID_SPEC",
                              f"specification has {len(report)} diagnostic(s); first: {report[0].message}")
        self.spec = spec
        self.contracts = derive_all(spec)
        self._decls = spec.by_name()
        self._impls: dict[str, object] = {}
        self._sources: dict[str, object] = {}
        self._actions: dict[str, object] = {}
        self._subscribers: dict[str, list[str]] = {}
        for d in spec.declarations:
            if isinstance(d, ContextDecl) and d.contract.trigger is not None:
                self._subscribers.setdefault(d.contract.trigger, []).append(d.name)
            elif isinstance(d, ControllerDecl):
                self._subscribers.setdefault(d.trigger, []).append(d.name)
        # per component, fixed at seal: (impl, activation type, capability, its provider or
        # sink, publish kind, publish type, result kind, result type, subscribers)
        self._plan: dict[str, tuple] = {}
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
        self._bind(name, provider, SourceDecl, self._sources, "source")

    def bind_action(self, name: str, sink) -> None:
        """Attach the platform callable consuming values sent to action ``name``."""
        self._bind(name, sink, ActionDecl, self._actions, "action")

    def _bind(self, name, obj, decl_cls, table, kind):
        self._ensure_unsealed()
        decl = self._decls.get(name)
        if decl is None:
            raise KernelError("UNDECLARED_COMPONENT", f"'{name}' is not declared", component=name)
        if not isinstance(decl, decl_cls):
            raise KernelError("WRONG_KIND", f"'{name}' is a {decl.kind}, not a {kind}", component=name)
        if name in table:
            raise KernelError("DUPLICATE_BINDING", f"'{name}' is already bound", component=name)
        table[name] = obj

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
                            if isinstance(d, (SourceDecl, ActionDecl))
                            and d.name not in self._sources and d.name not in self._actions]
        if missing_bindings:
            err = KernelError("MISSING_BINDING",
                              "unbound resources: " + ", ".join(missing_bindings))
            err.names = tuple(missing_bindings)
            raise err
        # Activations take payloads unchecked: prove once that each payload type is what its
        # trigger publishes, and that pulls reach only pull-activated contexts.
        for trigger, subscribers in self._subscribers.items():
            c = self.contracts.get(trigger)
            published = self._decls[trigger].out_type if c is None else c.publish_type
            for sub in subscribers if published else ():  # a trigger that never publishes wakes no one
                if self.contracts[sub].activation_param is not published:
                    raise KernelError("CONTRACT_VIOLATION", f"activation value must be {published}, "
                                      f"the type '{trigger}' publishes", component=sub)
        for name, c in self.contracts.items():
            target = c.capability and c.capability.target
            if target in self.contracts and self.contracts[target].activation_param is not None:
                raise KernelError("CONTRACT_VIOLATION", f"get target '{target}' is not pull-activated",
                                  component=name)
            resource = self._sources.get(target, self._actions.get(target))
            self._plan[name] = (self._impls[name], c.activation_param, c.capability, resource,
                                c.publish, c.publish_type, c.result, c.result_type,
                                tuple(self._subscribers.get(name, ())))
        self._sealed = True

    # -- execution ---------------------------------------------------------

    def set_source(self, name: str, v: Value) -> None:
        """Update a source's pull value without publishing."""
        provider = self._checked_source(name, v)
        provider.set(v)

    def emit(self, name: str, v: Value) -> None:
        """Publish ``v`` from source ``name`` and run all reactions to quiescence."""
        if not self._sealed:
            raise KernelError("UNSEALED", "seal the runtime before emitting")
        if self._failed:
            raise KernelError("RUNTIME_FAILED",
                              "a previous activation fault poisoned this runtime; no further emits")
        provider = self._checked_source(name, v)
        provider.set(v)
        taints = frozenset((name,))
        self._queue.extend([(sub, v.payload, taints) for sub in self._subscribers.get(name, ())])
        self._drain()

    def _checked_source(self, name: str, v: Value):
        decl = self._decls.get(name)
        if decl is None:
            raise KernelError("UNDECLARED_COMPONENT", f"'{name}' is not declared", component=name)
        if not isinstance(decl, SourceDecl):
            raise KernelError("WRONG_KIND", f"'{name}' is a {decl.kind}, not a source", component=name)
        provider = self._sources.get(name)
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

    def _drain(self):
        try:
            while self._queue:
                self._activate(*self._queue.popleft())
        except BaseException:
            self._failed = True
            self._queue.clear()
            raise

    def _activate(self, component: str, payload, taints: frozenset[str]):
        """Run one activation; a pull-activated context returns ``(payload, taints)``."""
        impl, param, cap, resource, publish, publish_type, result, result_type, subscribers = \
            self._plan[component]
        act = _Activation(component, taints)
        trace = self.trace
        if trace is not None:
            trace(TraceEvent("activate", component,
                             None if param is None else TaintedValue(Value(param, payload), taints)))
        args = [] if param is None else [payload]
        if cap is not None:
            args.append(self._make_capability_handle(act, cap, resource))
        if publish is not PublishSpec.NO:
            args += self._make_continuations(act, publish_type, subscribers, publish is PublishSpec.MAYBE)

        self._stack.append(act)
        try:
            try:
                returned = impl(*args)
            except _ActivationEscape as esc:
                if esc.args[0] is not act:  # foreign escape: never ours to absorb
                    raise
                returned = None
            except RuntimeFault as fault:
                if act.fault is None:
                    act.fault = fault
                raise
            except Exception as exc:
                if act.fault is not None:
                    raise act.fault from exc
                raise RuntimeFault("IMPLEMENTATION_PANIC",
                                   f"implementation raised {type(exc).__name__}: {exc}",
                                   component=component) from exc
        finally:
            self._stack.pop()

        if act.fault is not None:  # a fault the implementation swallowed
            raise act.fault
        if result is ResultKind.NO_RETURN:
            if not act.fired:
                raise RuntimeFault("NO_CONTINUATION_CALLED",
                                   "implementation finished without publish or nopublish",
                                   component=component)
            return None
        if result is ResultKind.RETURNS_NOTHING:
            if returned is not None:
                raise RuntimeFault("CONTRACT_VIOLATION",
                                   f"controller returned a value ({returned!r}) but must not",
                                   component=component)
            return None
        if not payload_matches(result_type, returned):
            raise RuntimeFault("CONTRACT_VIOLATION",
                               f"returned value must be {result_type}, got {returned!r}",
                               component=component)
        return returned, act.taints

    # -- handles -----------------------------------------------------------

    def _guard(self, act: _Activation):
        if not self._stack or self._stack[-1] is not act:
            fault = RuntimeFault("STALE_HANDLE",
                                 "handle used outside the activation it was granted to",
                                 component=act.component)
            if self._stack:
                current = self._stack[-1]
                if current.fault is None:
                    current.fault = fault
            raise fault
        if act.fault is not None:
            raise act.fault

    def _fault(self, act: _Activation, code: str, detail: str, component: str | None = None):
        fault = RuntimeFault(code, detail, component=component or act.component)
        if act.fault is None:
            act.fault = fault
        return fault

    def _make_capability_handle(self, act: _Activation, cap: Capability, resource):
        if cap.kind is CapabilityKind.GET:
            def pull():
                self._guard(act)
                v = None
                if resource is None:  # a pull-activated context
                    try:
                        payload, taints = self._activate(cap.target, None, frozenset())
                    except RuntimeFault as fault:
                        if act.fault is None:
                            act.fault = fault
                        raise
                else:
                    try:
                        v = resource.current()
                    except Exception as exc:
                        raise self._fault(act, "PLATFORM_FAULT",
                                          f"provider raised {type(exc).__name__}: {exc}",
                                          cap.target) from exc
                    if v is None:
                        raise self._fault(act, "PULL_BEFORE_VALUE",
                                          f"source '{cap.target}' pulled before any value was set")
                    if not check_value(v, cap.value_type):
                        raise self._fault(act, "TYPE_MISMATCH",
                                          f"provider for '{cap.target}' answered with {_describe(v)}, "
                                          f"expected {cap.value_type}")
                    payload, taints = v.payload, frozenset((cap.target,))
                trace = self.trace
                if trace is not None:
                    v = Value(cap.value_type, payload) if v is None else v
                    trace(TraceEvent("pull", act.component, TaintedValue(v, taints), target=cap.target))
                act.taints |= taints
                return payload
            return pull

        def send(payload):
            self._guard(act)
            if not payload_matches(cap.value_type, payload):
                raise self._fault(act, "CONTRACT_VIOLATION",
                                  f"value sent to '{cap.target}' must be {cap.value_type}, "
                                  f"got {payload!r}")
            v = Value(cap.value_type, payload)
            try:
                resource(v)
            except Exception as exc:
                raise self._fault(act, "PLATFORM_FAULT",
                                  f"sink raised {type(exc).__name__}: {exc}", cap.target) from exc
            self._log.append((cap.target, TaintedValue(v, act.taints)))
        return send

    def _fire(self, act: _Activation):
        self._guard(act)
        if act.fired:
            raise self._fault(act, "DOUBLE_CONTINUATION",
                              "a continuation was already invoked in this activation")
        act.fired = True

    def _make_continuations(self, act: _Activation, publish_type: DataType, subscribers: tuple[str, ...],
                            maybe: bool) -> tuple:
        def publish(payload):
            self._fire(act)
            if not payload_matches(publish_type, payload):
                raise self._fault(act, "CONTRACT_VIOLATION",
                                  f"published value must be {publish_type}, got {payload!r}")
            self._queue.extend([(sub, payload, act.taints) for sub in subscribers])
            raise _ActivationEscape(act)

        def nopublish():
            self._fire(act)
            raise _ActivationEscape(act)
        return (publish, nopublish) if maybe else (publish,)


def create_runtime(spec: Specification) -> Runtime:
    """Engine for ``spec``; the spec must validate cleanly."""
    return Runtime(spec)


def _describe(v) -> str:
    if isinstance(v, Value):
        return f"{v.tag} {v.payload!r}"
    return repr(v)
