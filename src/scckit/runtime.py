"""Reactive execution engine with capability injection and taint tracking.

Implementations never see the engine: each one is called with exactly the arguments its boundary
contract grants, in a fixed order — activation payload, resource capability (a get or do handle),
then the publish / no-publish continuations. Publishing is a non-returning control transfer: a
continuation raises ``_ActivationEscape``, unless ``seal`` has seen that the implementation
returns right after every call of it (``_tail_params``); then it returns. Taints accumulate per
activation as an ``int`` mask over the spec's sources (``Specification._sources``), ride along on
every outgoing value, and leave as names (``_Names``). Each value is checked once, where untrusted
code hands it in. ``validate`` and ``derive_all`` prove that each activation payload type is what
its trigger publishes and that each pull reaches a source or a when-required context; ``seal``
relies on that and does not check it again. It fixes each component's targets, type, entry check
and shape code from its contract and links subscribers along the spec's index. The drain in ``emit``
starts a queued component and a get handle a pulled context, each calling the implementation by one
of seven calls and telling a controller by its shape code, so no activation reads a name, nor a
contract but to trace it. Only ``Runtime._trace`` builds a ``TraceEvent``; each event site calls it
while ``rt.trace``, read there, is set. The registry resolves each name by ``decls._resolve``, the
rule of ``validate`` and the contracts, and tests no declaration class itself.

A single engine instance is single-threaded. Capability and continuation handles are the bound
methods of one activation, and work only while it runs on top (``Runtime._top``, one slot; a pulled
context's puller is the ``self`` of the get handle). Blame is assigned in two places: ``_blame``,
the ``except`` of one ``try`` around each whole call of a provider, sink or hook, lookup included,
and ``_record``, which keeps a drain's first fault for every handle to raise again. The kernel
builds each delivery's ``Value`` and ``TaintedValue`` itself, past their constructors, which would
only check its own hand-off. The action log holds each delivery's action name and ``TaintedValue``
in two lists side by side, and ``action_log()`` pairs them at each read, so a delivery keeps two
objects the cycle collector tracks (its ``TaintedValue`` and ``Value``), not three.
"""

from __future__ import annotations

import dis
import functools
import sys
from collections import deque
from dataclasses import dataclass
from itertools import compress
from types import FunctionType, MappingProxyType

from .contracts import _DO, _GET, derive_all
from .decls import _ACTION, _ALWAYS, _MAYBE, _NO_PUBLISH, _SOURCE, Specification, _refused, _resolve, validate
from .errors import KernelError, RuntimeFault
from .values import PAYLOAD_CHECKS, TaintedValue, Value

_NAMES_BOUND = 1 << 14  # the names a decode cache holds at most, each mask counting one more
_BITS = bytes.maketrans(b"01", b"\x00\x01")  # a mask's binary digits, as the selectors of compress
_new = object.__new__
_set_tag, _set_payload = Value.tag.__set__, Value.payload.__set__
_set_value, _set_taints = TaintedValue.value.__set__, TaintedValue.taints.__set__
_undeclared = functools.partial(_refused, missing="UNDECLARED_COMPONENT")  # the registry's refusal of a name
_UNSEALED, _READY, _EMITTING, _FAILED = "unsealed", "ready", "emitting", "failed"  # Runtime._state, in order


class _ActivationEscape(BaseException):
    """Internal control transfer raised by a continuation that its implementation
    might outlive, with the activation it leaves as its one argument. Never catch
    it: one raised again outside its activation is the raiser's own panic."""


class _Names(dict):
    """A runtime's decode of taint masks into frozensets of source names (``sources``, in bit
    order); equal masks share one. A miss that would take it over ``_NAMES_BOUND`` empties it first."""

    def __missing__(self, mask: int) -> frozenset[str]:
        names = frozenset(compress(self.sources, bin(mask)[:1:-1].encode().translate(_BITS)))
        self.held += len(names) + 1
        if self.held > _NAMES_BOUND:  # then it holds this mask alone, however wide
            self.clear()
            self.held = len(names) + 1
        self[mask] = names
        return names


@dataclass
class TraceEvent:
    kind: str  # "activate" | "pull"
    component: str
    value: TaintedValue | None
    target: str | None = None


class _Plan:
    """One declaration as registered or bound, then sealed. Each has a type (``tag``), which a
    component publishes or returns (a controller none), and its check (``accepts``). A source or
    action also has its provider or sink, and its taint: a source its bit, an action None. A
    component has its implementation, capability ``target`` plan, ``shape`` code (how its activations
    start, a controller's code 2: see _SHAPES) and, if it publishes, whether its ``publish`` and
    ``nopublish`` return; no contract and no result kind. Plans link to the ``subscribers`` they wake
    but never back to their runtime, so a dropped runtime is freed at once, without the cycle collector."""

    __slots__ = ("name", "impl", "resource", "tag", "accepts", "taints", "shape", "target", "subscribers",
                 "publish_returns", "nopublish_returns")

    def __init__(self, name: str, impl, resource):
        self.name, self.impl, self.resource = name, impl, resource
        self.subscribers = ()

    def admits(self, v) -> bool:
        """Whether ``v`` is a ``Value`` of this source's or action's type."""
        return isinstance(v, Value) and v.tag is self.tag and self.accepts(v.payload)


# The seven contract shapes, keyed by a contract's capability kind (None without one) and publish
# spec: the drain in ``Runtime.emit`` tests codes 1-5 in order, for queued components, and the get
# handle 0 against 6, for pulled contexts. Each call hands an implementation exactly its arguments:
# the payload if any, the capability's handle, then the continuations the publish spec grants.
_SHAPES = {(_GET, _NO_PUBLISH): 0, (None, _ALWAYS): 1, (_DO, _NO_PUBLISH): 2, (_GET, _MAYBE): 3,
           (_GET, _ALWAYS): 4, (None, _MAYBE): 5, (None, _NO_PUBLISH): 6}


class _Activation:
    """One run of one component. Its bound methods ``get``, ``do``, ``publish``
    and ``nopublish`` are the handles its implementation receives, so every
    handle belongs to exactly one activation and dies with it. Only the drain in
    ``Runtime.emit`` (a queued one) and ``get`` (a pulled one) make one, in place."""

    __slots__ = ("rt", "plan", "taints", "fired")  # fired: a continuation has taken effect

    def _refuse(self):
        """Raise why a handle may not take effect: a handle works only while its activation
        is ``rt._top`` and no fault is kept, and a continuation only once. Each handle tests
        that in line and calls this only when the test fails."""
        rt = self.rt
        if rt._top is not self:
            raise rt._record(RuntimeFault("STALE_HANDLE", "handle used outside the activation it "
                                          "was granted to", self.plan.name))
        if rt._fault is not None:
            raise rt._fault
        raise rt._record(RuntimeFault("DOUBLE_CONTINUATION", "a continuation was already "
                                      "invoked in this activation", self.plan.name))

    def get(self):
        rt, plan = self.rt, self.plan
        if rt._top is not self or rt._fault is not None:
            self._refuse()
        target = plan.target
        if target.impl is not None:  # activate the pulled context, untainted, with this one below it
            act = _new(_Activation)
            act.rt, act.plan, act.taints, act.fired = rt, target, 0, False
            if rt.trace is not None:
                rt._trace("activate", target.name, None, None, 0)
            rt._top = act
            try:  # shape 0 or 6 (see _SHAPES)
                payload = target.impl(act.get) if target.shape == 0 else target.impl()
            except _ActivationEscape:  # never its own: a pulled context gets no continuation
                rt._panic(target.name)
            except Exception as exc:
                rt._panic(target.name, exc)
            finally:
                rt._top = self
            if rt._fault is not None:  # a fault the implementation swallowed
                raise rt._fault
            if not target.accepts(payload):
                raise rt._record(RuntimeFault("CONTRACT_VIOLATION", f"returned value must be "
                                              f"{target.tag}, got {payload!r}", target.name))
            taints = act.taints
        else:
            try:
                v = target.resource.current()
            except Exception as exc:
                raise rt._blame("PLATFORM_FAULT", target.name, "provider", exc) from exc
            if v is None:
                raise rt._record(RuntimeFault("PULL_BEFORE_VALUE", f"source '{target.name}' pulled before "
                                              "any value was set", plan.name))
            if not target.admits(v):
                raise rt._record(RuntimeFault("TYPE_MISMATCH", f"provider for '{target.name}' answered with "
                                              f"{_describe(v)}, expected {target.tag}", plan.name))
            payload, taints = v.payload, target.taints
        if rt.trace is not None:
            rt._trace("pull", plan.name, target.tag, payload, taints, target.name)
        self.taints |= taints
        return payload

    def do(self, payload):
        rt, target = self.rt, self.plan.target
        if rt._top is not self or rt._fault is not None:
            self._refuse()
        if not target.accepts(payload):
            raise rt._record(RuntimeFault("CONTRACT_VIOLATION", f"value sent to '{target.name}' must be "
                                          f"{target.tag}, got {payload!r}", self.plan.name))
        v = _new(Value)  # the kernel's own hand-off: built without the constructors' frames
        _set_tag(v, target.tag)
        _set_payload(v, payload)
        try:
            target.resource(v)
        except Exception as exc:
            raise rt._blame("PLATFORM_FAULT", target.name, "sink", exc) from exc
        rt._log_names.append(target.name)
        tv = _new(TaintedValue)
        _set_value(tv, v)
        _set_taints(tv, rt._names[self.taints])
        rt._log_values.append(tv)

    def publish(self, payload):
        rt, plan = self.rt, self.plan
        if rt._top is not self or rt._fault is not None or self.fired:
            self._refuse()
        self.fired = True
        if not plan.accepts(payload):
            raise rt._record(RuntimeFault("CONTRACT_VIOLATION", f"published value must be "
                                          f"{plan.tag}, got {payload!r}", plan.name))
        append, taints = rt._queue.append, self.taints
        for subscriber in plan.subscribers:
            append((subscriber, payload, taints))
        if plan.publish_returns:  # the implementation returns right after this call
            return
        raise _ActivationEscape(self)

    def nopublish(self):
        rt = self.rt
        if rt._top is not self or rt._fault is not None or self.fired:
            self._refuse()
        self.fired = True
        if self.plan.nopublish_returns:
            return
        raise _ActivationEscape(self)


class Runtime:
    """Sealed-registry event engine for one validated specification.

    Its lifecycle is one field, ``_state``: unsealed while implementations are registered and resources
    bound, ready once sealed, emitting while an emit drains the queue to quiescence, and failed
    (inspectable, but refusing emits) once anything escapes a drain, which drops the queue.
    """

    def __init__(self, spec: Specification):
        report = validate(spec)
        if report:
            raise KernelError("INVALID_SPEC",
                              f"specification has {len(report)} diagnostic(s); first: {report[0].message}")
        self.spec = spec
        self._contracts = derive_all(spec)
        self.contracts = MappingProxyType(self._contracts)  # read-only: seal trusts what it holds
        self._plans: dict[str, _Plan] = {}  # every registered component and bound resource
        self._sources: dict[str, _Plan] = {}  # the bound sources
        self._queue: deque[tuple[_Plan, object, int]] = deque()
        self._top: _Activation | None = None  # the running activation
        self._fault: RuntimeFault | None = None  # the drain's first fault, which every handle raises again
        self._log_names: list[str] = []
        self._log_values: list[TaintedValue] = []
        self._names = _Names()
        self._names.sources, self._names.held = spec._sources, 0
        self._state = _UNSEALED
        self.trace = None  # optional callable(TraceEvent), platform-side

    # -- registry ----------------------------------------------------------

    @property
    def sealed(self) -> bool:
        return self._state is not _UNSEALED

    @property
    def failed(self) -> bool:
        return self._state is _FAILED

    def _ensure_unsealed(self):
        if self._state is not _UNSEALED:
            raise KernelError("SEALED", "the runtime is sealed; registrations and bindings are frozen")

    def register(self, name: str, impl) -> None:
        """Bind ``impl`` as the one implementation of a context or controller."""
        self._ensure_unsealed()
        if not isinstance(name, str) or name not in self._contracts:  # a name that is not a str is not declared
            raise KernelError("UNDECLARED_COMPONENT",
                              f"'{name}' is not a declared context or controller", component=name)
        if not callable(impl):
            raise KernelError("MISSING_IMPLEMENTATION", f"'{name}' cannot be registered as "
                              f"{'None' if impl is None else 'an object that is not callable'}")
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
        self._bind(name, provider, _SOURCE)

    def bind_action(self, name: str, sink) -> None:
        """Attach the platform callable consuming values sent to action ``name``."""
        self._bind(name, sink, _ACTION)

    def _bind(self, name, obj, row):
        self._ensure_unsealed()
        decl = _resolve(name, row, self.spec._table, _undeclared)
        if row is _SOURCE:  # the provider duck type: a callable current and set
            lacks = " and ".join(f"'{m}'" for m in ("current", "set") if not callable(getattr(obj, m, None)))
            lacks = lacks and f"without a callable {lacks}"
        else:
            lacks = "" if callable(obj) else "that is not callable"
        if lacks:
            raise KernelError("MISSING_BINDING",
                              f"'{name}' cannot be bound to {'None' if obj is None else 'an object ' + lacks}")
        if name in self._plans:
            raise KernelError("DUPLICATE_BINDING", f"'{name}' is already bound", component=name)
        plan = self._plans[name] = _Plan(name, None, obj)
        plan.tag = decl.out_type if row is _SOURCE else decl.in_type
        plan.accepts, plan.taints = PAYLOAD_CHECKS[plan.tag], self.spec._sources.get(name)
        if row is _SOURCE:
            self._sources[name] = plan

    def seal(self) -> None:
        """Freeze the registry once every component is implemented and bound, and compile
        it from the contracts and the spec's wiring index (see the module docstring)."""
        self._ensure_unsealed()
        plans, contracts = self._plans, self._contracts
        # Plans are keyed by declared names only, so equal counts mean nothing is missing. Missing
        # components are named before resources, each in declaration order.
        if len(plans) < len(self.spec.declarations):
            missing = [name for name in self.spec._table if name not in plans]
            missing = [name for name in missing if name in contracts] or missing
            code, what = (("MISSING_IMPLEMENTATION", "unimplemented components") if missing[0] in contracts
                          else ("MISSING_BINDING", "unbound resources"))
            err = KernelError(code, f"{what}: " + ", ".join(missing))
            err.names = tuple(missing)
            raise err
        for name, c in contracts.items():
            plan = plans[name]
            if c.capability is not None:
                plan.target = plans[c.capability.target]
            if c.publish is not _NO_PUBLISH:
                # Which continuations return (see _tail_params): publish follows the payload and any
                # capability handle, and nopublish follows publish.
                tails = _tail_params(plan.impl.__code__) if type(plan.impl) is FunctionType else ()
                at = 2 if c.capability is not None else 1
                plan.publish_returns = at in tails
                plan.nopublish_returns = c.publish is _MAYBE and at + 1 in tails
            plan.tag = c.publish_type or c.result_type  # a controller neither publishes nor returns
            plan.accepts = PAYLOAD_CHECKS.get(plan.tag)
            plan.shape = _SHAPES[c.capability and c.capability.kind, c.publish]
        subscribers: dict[str, list[_Plan]] = {}
        for trigger, name, kind in zip(*self.spec._wiring[0]):
            if kind == "publish":
                subscribers.setdefault(trigger, []).append(plans[name])
        for name, woken in subscribers.items():
            plans[name].subscribers = woken
        self._state = _READY

    # -- execution ---------------------------------------------------------

    def set_source(self, name: str, v: Value) -> None:
        """Update a source's pull value without publishing."""
        source = self._source(name, v)
        try:
            source.resource.set(v)
        except Exception as exc:
            raise self._blame("PLATFORM_FAULT", name, "provider", exc) from exc

    def emit(self, name: str, v: Value) -> None:
        """Publish ``v`` from source ``name`` and run all reactions to quiescence."""
        if self._state is not _READY:  # emitting: refused in the call-out that made it, which blames its party
            if self._state is _UNSEALED:
                raise KernelError("UNSEALED", "seal the runtime before emitting")
            if self._state is _FAILED:
                raise KernelError("RUNTIME_FAILED",
                                  "a previous activation fault poisoned this runtime; no further emits")
            raise KernelError("REENTRANT_EMIT", f"emit of '{name}' started while an emit of this runtime runs")
        try:  # costs nothing on 3.11 until it raises
            source = self._sources.get(name)
        except TypeError:  # a name that is not hashable, which _source refuses
            source = None
        if source is None or not source.admits(v):
            source = self._source(name, v)
        self._state = _EMITTING
        try:
            try:
                source.resource.set(v)
            except Exception as exc:
                raise self._blame("PLATFORM_FAULT", name, "provider", exc) from exc
            queue, payload, taints = self._queue, v.payload, source.taints
            for subscriber in source.subscribers:
                queue.append((subscriber, payload, taints))
            while queue:  # activate each queued context or controller (see _SHAPES), nothing below it
                plan, payload, taints = queue.popleft()
                act = _new(_Activation)  # filled in place: no __init__ frame on the hot path
                act.rt, act.plan, act.taints, act.fired = self, plan, taints, False
                if self.trace is not None:
                    self._trace("activate", plan.name, self._contracts[plan.name].activation_param, payload, taints)
                shape, impl = plan.shape, plan.impl
                self._top = act
                try:
                    if shape == 1:
                        returned = impl(payload, act.publish)
                    elif shape == 2:
                        returned = impl(payload, act.do)
                    elif shape == 3:
                        returned = impl(payload, act.get, act.publish, act.nopublish)
                    elif shape == 4:
                        returned = impl(payload, act.get, act.publish)
                    else:
                        returned = impl(payload, act.publish, act.nopublish)
                except _ActivationEscape as esc:
                    if not esc.args or esc.args[0] is not act:
                        self._panic(plan.name)
                    returned = None
                except Exception as exc:
                    self._panic(plan.name, exc)
                finally:
                    self._top = None
                if self._fault is not None:  # a fault the implementation swallowed
                    raise self._fault
                if shape == 2:  # a controller, which returns nothing
                    if returned is not None:
                        raise self._record(RuntimeFault("CONTRACT_VIOLATION", f"controller returned a value "
                                                        f"({returned!r}) but must not", plan.name))
                elif not act.fired:  # a when-provided context, which leaves by a continuation
                    raise self._record(RuntimeFault("NO_CONTINUATION_CALLED", "implementation finished "
                                                    "without publish or nopublish", plan.name))
        except BaseException:
            self._state = _FAILED
            self._queue.clear()
            raise
        self._state = _READY

    def _source(self, name: str, v) -> _Plan:
        """The bound source ``name`` if it admits ``v``; else raise the entry error of ``emit`` and ``set_source``."""
        decl = _resolve(name, _SOURCE, self.spec._table, _undeclared)
        source = self._sources.get(name)
        if source is None:
            raise KernelError("MISSING_BINDING", f"source '{name}' has no provider bound", component=name)
        if source.admits(v):
            return source
        raise KernelError("TYPE_MISMATCH", f"source '{name}' carries {decl.out_type}, got {_describe(v)}",
                          component=name)

    def action_log(self) -> tuple[tuple[str, TaintedValue], ...]:
        """Every action delivery its sink accepted so far, in delivery order, as
        ``(action, TaintedValue)`` pairs made at each read."""
        return tuple(zip(self._log_names, self._log_values))

    # -- blame -------------------------------------------------------------

    def _record(self, fault: RuntimeFault) -> RuntimeFault:
        """Keep ``fault`` as the drain's fault unless one is kept or no activation runs, and
        return it. Every handle raises the kept fault again, so no activation starts after it:
        each running one fails with it, even if its code caught it, and the drain ends poisoned."""
        if self._top is not None and self._fault is None:
            self._fault = fault
        return fault

    def _blame(self, code: str, component: str, party: str, exc: Exception) -> RuntimeFault:
        """The ``code`` fault, blamed on ``component``, of platform code (``party``) that raised ``exc``."""
        return self._record(RuntimeFault(code, f"{party} raised {type(exc).__name__}: {exc}", component))

    def _panic(self, component: str, exc: Exception | None = None):
        """Raise the kept fault, else ``component``'s panic for ``exc`` (None: another activation's escape)."""
        if self._fault is not None:  # recorded on its way out, or swallowed before this exception
            raise self._fault
        what = "the escape of another activation's continuation" if exc is None else f"{type(exc).__name__}: {exc}"
        raise self._record(RuntimeFault("IMPLEMENTATION_PANIC", f"implementation raised {what}", component)) from exc

    def _trace(self, kind: str, component: str, tag, payload, taints: int, target: str | None = None) -> None:
        """Build and hand the trace hook ``component``'s ``kind`` event: the one place a ``TraceEvent`` is
        made. Its value is ``payload`` as a ``tag`` value with ``taints`` decoded, or None without a tag."""
        value = None if tag is None else TaintedValue(Value(tag, payload), self._names[taints])
        try:
            self.trace(TraceEvent(kind, component, value, target))
        except Exception as exc:
            raise self._blame("HOOK_FAULT", component, "trace hook", exc) from exc


_JUMPS = frozenset(dis.hasjrel + dis.hasjabs)


@functools.lru_cache(maxsize=1024)
def _tail_params(code) -> frozenset[int]:
    """The positional parameters of a function's ``code`` that it only ever calls, each
    time as a tail call: it returns right after the call. A continuation passed there
    returns instead of raising ``_ActivationEscape``, since the function does nothing
    more either way. Whatever the rule does not recognise keeps the raise, including
    any ``try`` or ``with``, and all bytecode but CPython 3.11's, which it reads. A
    generator or coroutine needs no test: its body never runs inside its activation."""
    if sys.version_info[:2] != (3, 11) or code.co_exceptiontable:
        return frozenset()
    ops = list(dis.get_instructions(code))
    return frozenset(i for i, name in enumerate(code.co_varnames[:code.co_argcount])
                     if name not in code.co_cellvars and _tail_calls_only(ops, name))


def _tail_calls_only(ops, name: str) -> bool:
    """Whether each use of local ``name`` in ``ops`` is a call that the function returns right after."""
    for i, op in enumerate(ops):
        if op.opcode not in dis.haslocal or op.argval != name:
            continue
        if op.opname != "LOAD_FAST":  # stored or deleted
            return False
        depth = 1  # stack slots from the loaded local up
        for j in range(i + 1, len(ops)):
            if ops[j].opcode in _JUMPS:
                return False
            if depth == 1 and ops[j].opname == "CALL":  # the call of the local itself
                break
            depth += dis.stack_effect(ops[j].opcode, ops[j].arg)
            # Only that call's PRECALL may leave nothing above the local. Any other op that does
            # took it, or a copy of it, as an operand: an argument, a walrus, a subscript.
            if depth < 2 and ops[j].opname != "PRECALL":
                return False
        nxt = ops[j + 1:j + 2]  # the op after the call: none if the walk found no call
        k = [o.offset for o in ops].index(nxt[0].argval) if nxt and nxt[0].opname == "JUMP_FORWARD" else j + 1
        after = [(o.opname, o.argval) for o in ops[k:k + 3]]  # past one jump to a return branches share
        if after[:1] != [("RETURN_VALUE", None)] and after != [("POP_TOP", None), ("LOAD_CONST", None),
                                                                ("RETURN_VALUE", None)]:
            return False
    return True


def create_runtime(spec: Specification) -> Runtime:
    """Engine for ``spec``; the spec must validate cleanly."""
    return Runtime(spec)


def _describe(v) -> str:
    return f"{v.tag} {v.payload!r}" if isinstance(v, Value) else repr(v)
