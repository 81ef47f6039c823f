"""Reactive execution engine with capability injection and taint tracking.

Implementations never see the engine: each one is called with exactly the
arguments its boundary contract grants, in a fixed order — activation
payload, resource capability (a get or do closure), then the publish /
no-publish continuations. Publishing is a non-returning control transfer;
taints accumulate per activation and ride along on every outgoing value.

A single engine instance is single-threaded. Capability and continuation
handles die with their activation; calling one later is a fault.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .contracts import BoundaryContract, Capability, CapabilityKind, ResultKind, derive_all
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
    """Internal control transfer raised by continuations. Never catch it."""

    def __init__(self, activation):
        self.activation = activation


@dataclass
class TraceEvent:
    kind: str  # "activate" | "pull"
    component: str
    value: TaintedValue | None
    target: str | None = None


class _Activation:
    __slots__ = ("component", "contract", "taints", "fired", "fault")

    def __init__(self, component: str, contract: BoundaryContract):
        self.component = component
        self.contract = contract
        self.taints: set[str] = set()
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
        self._queue: deque[tuple[str, TaintedValue]] = deque()
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
        tainted = TaintedValue(v, frozenset({name}))
        for sub in self._subscribers.get(name, ()):
            self._queue.append((sub, tainted))
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
                component, tainted = self._queue.popleft()
                self._activate(component, tainted)
        except BaseException:
            self._failed = True
            self._queue.clear()
            raise

    def _trace(self, event: TraceEvent):
        if self.trace is not None:
            self.trace(event)

    def _activate(self, component: str, tainted: TaintedValue | None) -> TaintedValue | None:
        """Run one activation; returns the tainted result for pull-activated contexts."""
        contract = self.contracts[component]
        act = _Activation(component, contract)
        args = []
        if contract.activation_param is not None:
            if tainted is None or not check_value(tainted.value, contract.activation_param):
                raise RuntimeFault("CONTRACT_VIOLATION",
                                   f"activation value must be {contract.activation_param}, "
                                   f"got {_describe(tainted and tainted.value)}", component=component)
            act.taints |= tainted.taints
            args.append(tainted.value.payload)
        self._trace(TraceEvent("activate", component, tainted))
        if contract.capability is not None:
            args.append(self._make_capability_handle(act, contract.capability))
        if contract.publish is not PublishSpec.NO:
            args.append(self._make_publish_handle(act))
            if contract.publish is PublishSpec.MAYBE:
                args.append(self._make_nopublish_handle(act))

        self._stack.append(act)
        try:
            try:
                result = self._impls[component](*args)
            except _ActivationEscape as esc:
                if esc.activation is not act:  # foreign escape: never ours to absorb
                    raise
                result = None
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
        if contract.result is ResultKind.NO_RETURN:
            if not act.fired:
                raise RuntimeFault("NO_CONTINUATION_CALLED",
                                   "implementation finished without publish or nopublish",
                                   component=component)
            return None
        if contract.result is ResultKind.RETURNS_NOTHING:
            if result is not None:
                raise RuntimeFault("CONTRACT_VIOLATION",
                                   f"controller returned a value ({result!r}) but must not",
                                   component=component)
            return None
        if not payload_matches(contract.result_type, result):
            raise RuntimeFault("CONTRACT_VIOLATION",
                               f"returned value must be {contract.result_type}, got {result!r}",
                               component=component)
        return TaintedValue(Value(contract.result_type, result), frozenset(act.taints))

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

    def _fault(self, act: _Activation, code: str, detail: str) -> RuntimeFault:
        fault = RuntimeFault(code, detail, component=act.component)
        if act.fault is None:
            act.fault = fault
        return fault

    def _make_capability_handle(self, act: _Activation, cap: Capability):
        if cap.kind is CapabilityKind.GET:
            def pull():
                self._guard(act)
                try:
                    tainted = self._resolve_pull(act, cap)
                except RuntimeFault as fault:
                    if act.fault is None:
                        act.fault = fault
                    raise
                act.taints |= tainted.taints
                return tainted.value.payload
            return pull

        def send(payload):
            self._guard(act)
            if not payload_matches(cap.value_type, payload):
                raise self._fault(act, "CONTRACT_VIOLATION",
                                  f"value sent to '{cap.target}' must be {cap.value_type}, "
                                  f"got {payload!r}")
            tainted = TaintedValue(Value(cap.value_type, payload), frozenset(act.taints))
            self._actions[cap.target](tainted.value)
            self._log.append((cap.target, tainted))
        return send

    def _resolve_pull(self, act: _Activation, cap: Capability) -> TaintedValue:
        decl = self._decls[cap.target]
        if isinstance(decl, SourceDecl):
            v = self._sources[cap.target].current()
            if v is None:
                raise self._fault(act, "PULL_BEFORE_VALUE",
                                  f"source '{cap.target}' pulled before any value was set")
            if not check_value(v, decl.out_type):
                raise self._fault(act, "TYPE_MISMATCH",
                                  f"provider for '{cap.target}' answered with {_describe(v)}, "
                                  f"expected {decl.out_type}")
            tainted = TaintedValue(v, frozenset({cap.target}))
        else:
            tainted = self._activate(cap.target, None)
        self._trace(TraceEvent("pull", act.component, tainted, target=cap.target))
        return tainted

    def _make_publish_handle(self, act: _Activation):
        def publish(payload):
            self._guard(act)
            if act.fired:
                raise self._fault(act, "DOUBLE_CONTINUATION",
                                  "a continuation was already invoked in this activation")
            if not payload_matches(act.contract.publish_type, payload):
                raise self._fault(act, "CONTRACT_VIOLATION",
                                  f"published value must be {act.contract.publish_type}, "
                                  f"got {payload!r}")
            tainted = TaintedValue(Value(act.contract.publish_type, payload), frozenset(act.taints))
            act.fired = True
            for sub in self._subscribers.get(act.component, ()):
                self._queue.append((sub, tainted))
            raise _ActivationEscape(act)
        return publish

    def _make_nopublish_handle(self, act: _Activation):
        def nopublish():
            self._guard(act)
            if act.fired:
                raise self._fault(act, "DOUBLE_CONTINUATION",
                                  "a continuation was already invoked in this activation")
            act.fired = True
            raise _ActivationEscape(act)
        return nopublish


def create_runtime(spec: Specification) -> Runtime:
    """Engine for ``spec``; the spec must validate cleanly."""
    return Runtime(spec)


def _describe(v) -> str:
    if isinstance(v, Value):
        return f"{v.tag} {v.payload!r}"
    return repr(v)
