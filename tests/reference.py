"""A reference interpreter for sealed apps, written for clarity, not speed.

It runs the same implementations, providers and sinks as ``scckit.Runtime``
and must agree with it on every observable: the action log, the trace events,
and the fault that ends a run (its code, component and message). Unlike the
kernel it compiles nothing: it re-derives each component's contract on every
activation, wraps every payload in a ``Value``, type-checks every hand-off
(activation payloads included) and keeps its own first-in, first-out queue.
"""

from __future__ import annotations

from collections import deque

from scckit import (
    ActionDecl,
    CapabilityKind,
    ContextDecl,
    ControllerDecl,
    DataType,
    PictureData,
    PublishSpec,
    ResultKind,
    RuntimeFault,
    SourceDecl,
    TaintedValue,
    TraceEvent,
    Value,
    derive_contract,
)


def has_type(payload, tag: DataType) -> bool:
    if tag is DataType.BOOL:
        return type(payload) is bool
    if tag is DataType.INT:
        return isinstance(payload, int) and type(payload) is not bool and -2**63 <= payload < 2**63
    if tag is DataType.STRING:
        return isinstance(payload, str)
    return isinstance(payload, PictureData)


def _shown(v) -> str:
    return f"{v.tag} {v.payload!r}" if isinstance(v, Value) else repr(v)


class _Leave(BaseException):
    """A continuation leaving the activation it belongs to."""

    def __init__(self, act):
        self.act = act


class _Act:
    def __init__(self, name: str, taints: frozenset[str]):
        self.name, self.taints, self.fired, self.fault = name, taints, False, None


class Reference:
    """Same surface as a sealed ``Runtime``: ``set_source``, ``emit``,
    ``action_log``, ``failed`` and ``trace``; its queue is ``queue``."""

    def __init__(self, spec, impls: dict, providers: dict, sinks: dict):
        self.spec, self.impls, self.providers, self.sinks = spec, impls, providers, sinks
        self.queue: deque = deque()  # (component, TaintedValue)
        self.stack: list[_Act] = []
        self.log: list = []
        self.failed = False
        self.trace = None  # callable(TraceEvent)

    def set_source(self, name: str, v: Value) -> None:
        self._call_out("PLATFORM_FAULT", name, "provider", self.providers[name].set, v)

    def emit(self, name: str, v: Value) -> None:
        assert not self.failed and isinstance(self.spec.find(name), SourceDecl)
        assert has_type(v.payload, self.spec.find(name).out_type)
        try:
            self._call_out("PLATFORM_FAULT", name, "provider", self.providers[name].set, v)
            self._wake(name, TaintedValue(v, frozenset({name})))
            while self.queue:
                self._activate(*self.queue.popleft())
        except BaseException:
            self.failed = True
            self.queue.clear()
            raise

    def action_log(self) -> tuple:
        return tuple(self.log)

    def _wake(self, trigger: str, tv: TaintedValue) -> None:
        """Queue every component that ``trigger``'s publications wake, in declaration order."""
        for d in self.spec.declarations:
            if isinstance(d, ControllerDecl) and d.trigger == trigger:
                self.queue.append((d.name, tv))
            elif isinstance(d, ContextDecl) and d.contract.trigger == trigger:
                self.queue.append((d.name, tv))

    def _activate(self, name: str, tv: TaintedValue | None):
        c = derive_contract(self.spec, name)
        if tv is not None:
            assert has_type(tv.value.payload, c.activation_param) and tv.value.tag is c.activation_param
        act = _Act(name, frozenset() if tv is None else tv.taints)
        self._event("activate", name, tv, None)
        args = [] if tv is None else [tv.value.payload]
        if c.capability is not None:
            args.append(self._get_handle(act, c) if c.capability.kind is CapabilityKind.GET
                        else self._do_handle(act, c))
        if c.publish is not PublishSpec.NO:
            args.append(self._publish_handle(act, c))
        if c.publish is PublishSpec.MAYBE:
            args.append(self._nopublish_handle(act))
        self.stack.append(act)
        try:
            returned = self.impls[name](*args)
        except _Leave as leave:
            if leave.act is not act:
                raise
            returned = None
        except Exception as exc:
            if act.fault is not None:
                raise act.fault
            raise self._fail("IMPLEMENTATION_PANIC",
                             f"implementation raised {type(exc).__name__}: {exc}", name) from exc
        finally:
            self.stack.pop()
        if act.fault is not None:
            raise act.fault
        if c.result is ResultKind.NO_RETURN and not act.fired:
            raise self._fail("NO_CONTINUATION_CALLED",
                             "implementation finished without publish or nopublish", name)
        if c.result is ResultKind.RETURNS_NOTHING and returned is not None:
            raise self._fail("CONTRACT_VIOLATION",
                             f"controller returned a value ({returned!r}) but must not", name)
        if c.result is ResultKind.RETURNS_VALUE:
            if not has_type(returned, c.result_type):
                raise self._fail("CONTRACT_VIOLATION",
                                 f"returned value must be {c.result_type}, got {returned!r}", name)
            return TaintedValue(Value(c.result_type, returned), act.taints)
        return None

    def _check_live(self, act: _Act) -> None:
        if not self.stack or self.stack[-1] is not act:
            raise self._fail("STALE_HANDLE",
                             "handle used outside the activation it was granted to", act.name)
        if act.fault is not None:
            raise act.fault

    def _get_handle(self, act: _Act, c):
        target, tag = c.capability.target, c.capability.value_type

        def get():
            self._check_live(act)
            if isinstance(self.spec.find(target), SourceDecl):
                v = self._call_out("PLATFORM_FAULT", target, "provider", self.providers[target].current)
                if v is None:
                    raise self._fail("PULL_BEFORE_VALUE",
                                     f"source '{target}' pulled before any value was set", act.name)
                if not (isinstance(v, Value) and v.tag is tag and has_type(v.payload, tag)):
                    raise self._fail("TYPE_MISMATCH", f"provider for '{target}' answered with "
                                     f"{_shown(v)}, expected {tag}", act.name)
                tv = TaintedValue(v, frozenset({target}))
            else:
                tv = self._activate(target, None)
            self._event("pull", act.name, tv, target)
            act.taints = act.taints | tv.taints
            return tv.value.payload

        return get

    def _do_handle(self, act: _Act, c):
        target, tag = c.capability.target, c.capability.value_type
        assert isinstance(self.spec.find(target), ActionDecl)

        def do(payload):
            self._check_live(act)
            if not has_type(payload, tag):
                raise self._fail("CONTRACT_VIOLATION",
                                 f"value sent to '{target}' must be {tag}, got {payload!r}", act.name)
            v = Value(tag, payload)
            self._call_out("PLATFORM_FAULT", target, "sink", self.sinks[target], v)
            self.log.append((target, TaintedValue(v, act.taints)))

        return do

    def _fire(self, act: _Act) -> None:
        self._check_live(act)
        if act.fired:
            raise self._fail("DOUBLE_CONTINUATION",
                             "a continuation was already invoked in this activation", act.name)
        act.fired = True

    def _publish_handle(self, act: _Act, c):
        def publish(payload):
            self._fire(act)
            if not has_type(payload, c.publish_type):
                raise self._fail("CONTRACT_VIOLATION",
                                 f"published value must be {c.publish_type}, got {payload!r}", act.name)
            self._wake(act.name, TaintedValue(Value(c.publish_type, payload), act.taints))
            raise _Leave(act)

        return publish

    def _nopublish_handle(self, act: _Act):
        def nopublish():
            self._fire(act)
            raise _Leave(act)

        return nopublish

    def _event(self, kind: str, component: str, tv, target) -> None:
        if self.trace is not None:
            event = TraceEvent(kind, component, tv, target)
            self._call_out("HOOK_FAULT", component, "trace hook", self.trace, event)

    def _fail(self, code: str, detail: str, component: str) -> RuntimeFault:
        return self._record(RuntimeFault(code, detail, component))

    def _record(self, fault: RuntimeFault) -> RuntimeFault:
        for act in self.stack:
            if act.fault is None:
                act.fault = fault
        return fault

    def _call_out(self, code: str, component: str, party: str, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            raise self._fail(code, f"{party} raised {type(exc).__name__}: {exc}", component) from exc
