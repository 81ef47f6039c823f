"""Seeded generator of valid specifications with safe implementations.

Topologies are layered so they validate by construction: when-required
contexts only pull from sources or earlier when-required contexts, and
when-provided contexts only trigger on sources or earlier when-provided
contexts, so neither get chains nor publish chains can cycle.
Implementations come from a fixed combinator menu (constant, pass-through,
pull-then-combine, conditional no-publish) chosen and baked at generation
time, so a rebuilt app with the same seed behaves identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from scckit import (
    ActionDecl,
    ContextDecl,
    ControllerDecl,
    DataType,
    PublishSpec,
    RecordingSink,
    Runtime,
    ScriptedSource,
    SourceDecl,
    Specification,
    Value,
    create_runtime,
    when_provided,
    when_required,
)

TYPES = (DataType.BOOL, DataType.INT, DataType.STRING)


def const_of(rng: random.Random, t: DataType):
    if t is DataType.BOOL:
        return rng.random() < 0.5
    if t is DataType.INT:
        return rng.randrange(-1000, 1000)
    return rng.choice(["", "ad", "frame", "hello world"])


def convert(payload, t: DataType):
    """Deterministic coercion of any safe payload into type t."""
    if t is DataType.BOOL:
        return len(payload) % 2 == 0 if isinstance(payload, str) else bool(payload)
    if t is DataType.INT:
        if isinstance(payload, bool):
            return int(payload)
        if isinstance(payload, int):
            return payload
        return len(payload)
    return str(payload)


def mix(a, b, t: DataType):
    if t is DataType.BOOL:
        return a != b
    return a + b  # ints add, strings concatenate


@dataclass
class GeneratedApp:
    spec: Specification
    runtime: Runtime
    sources: dict[str, ScriptedSource]
    sinks: dict[str, RecordingSink]
    source_types: dict[str, DataType]


def _required_impl(rng, out_t, has_get):
    flavor = rng.choice(("const", "pull") if has_get else ("const",))
    c = const_of(rng, out_t)
    if flavor == "const":
        return lambda *handles: c
    return lambda get: convert(get(), out_t)


def _provided_impl(rng, out_t, has_get, pub):
    flavors = ["const", "pass"] + (["mix"] if has_get else [])
    flavor = rng.choice(flavors)
    c = const_of(rng, out_t)
    gate = rng.randrange(2, 4) if pub is PublishSpec.MAYBE else None

    def impl(payload, *rest):
        handles = list(rest)
        get = handles.pop(0) if has_get else None
        publish = handles[0]
        nopublish = handles[1] if gate is not None else None
        if gate is not None and convert(payload, DataType.INT) % gate == 0:
            nopublish()
        if flavor == "const":
            publish(c)
        elif flavor == "pass":
            publish(convert(payload, out_t))
        else:
            publish(mix(convert(payload, out_t), convert(get(), out_t), out_t))

    return impl


def _controller_impl(rng, action_t):
    flavor = rng.choice(("forward", "forward", "const", "twice", "skip"))
    c = const_of(rng, action_t)

    def impl(payload, do):
        if flavor == "skip":
            return
        if flavor == "const":
            do(c)
            return
        do(convert(payload, action_t))
        if flavor == "twice":
            do(convert(payload, action_t))

    return impl


def _keep(kind: str, name: str, obj):
    return obj


def random_app(seed: int, wrap=_keep) -> GeneratedApp:
    """Generate, wire and seal an app. ``wrap(kind, name, obj)`` may replace
    each implementation, provider and sink (kinds "implementation",
    "provider", "sink") before it is registered or bound."""
    rng = random.Random(seed)
    decls: list = []
    impls: dict = {}

    sources = [(f"S{i}", rng.choice(TYPES)) for i in range(rng.randint(1, 3))]
    decls += [SourceDecl(n, t) for n, t in sources]
    actions = [(f"A{i}", rng.choice(TYPES)) for i in range(rng.randint(1, 2))]
    decls += [ActionDecl(n, t) for n, t in actions]

    pullable = [n for n, _ in sources]
    for i in range(rng.randint(0, 2)):
        name, t = f"R{i}", rng.choice(TYPES)
        get = rng.choice(pullable + [None])
        decls.append(ContextDecl(name, t, when_required(get)))
        impls[name] = _required_impl(rng, t, get is not None)
        pullable.append(name)

    provided = []
    for i in range(rng.randint(1, 3)):
        name, t = f"P{i}", rng.choice(TYPES)
        trigger = rng.choice([n for n, _ in sources] + provided)
        get = rng.choice(pullable + [None])
        pub = rng.choice((PublishSpec.ALWAYS, PublishSpec.MAYBE))
        decls.append(ContextDecl(name, t, when_provided(trigger, pub, get)))
        impls[name] = _provided_impl(rng, t, get is not None, pub)
        provided.append(name)

    for i in range(rng.randint(0, 2)):
        name = f"C{i}"
        action_name, action_t = rng.choice(actions)
        decls.append(ControllerDecl(name, rng.choice(provided), action_name))
        impls[name] = _controller_impl(rng, action_t)

    spec = Specification(tuple(decls))
    rt = create_runtime(spec)
    for impl_name, impl in impls.items():
        rt.register(impl_name, wrap("implementation", impl_name, impl))
    providers = {n: ScriptedSource() for n, _ in sources}
    sinks = {n: RecordingSink() for n, _ in actions}
    for n, provider in providers.items():
        rt.bind_source(n, wrap("provider", n, provider))
    for n, sink in sinks.items():
        rt.bind_action(n, wrap("sink", n, sink))
    rt.seal()
    return GeneratedApp(spec, rt, providers, sinks, dict(sources))


class Injected(Exception):
    pass


#: What a corrupted call hands across a boundary: a payload of no declared type.
WRONG = 1.5


class Injector:
    """Wraps every implementation, provider and sink of an app, and its trace
    hook, and on the ``at``-th call of one chosen culprit raises from it.

    With ``corrupt`` the culprit instead hands a wrongly typed value across
    the boundary on that call: an implementation's publish and do handles
    send ``WRONG`` and its returned value, if any, becomes ``WRONG``; a
    provider's ``current()`` answers ``WRONG``. Sinks and hooks stay honest.
    """

    def __init__(self, pick: int, at: int, corrupt: bool = False):
        self.pick, self.at, self.corrupt = pick, at, corrupt
        self.wrapped: list[tuple[str, str]] = []
        self.calls = 0
        self.blamed = None  # the component the raising call was made for

    @property
    def culprit(self) -> tuple[str, str]:
        return self.wrapped[self.pick % len(self.wrapped)]

    def _tick(self, kind, name, blamed) -> bool:
        """Count a call; True if it is the one that must go wrong and does so by corruption."""
        if (kind, name) != self.culprit:
            return False
        self.calls += 1
        if self.calls != self.at:
            return False
        if not self.corrupt:
            self.blamed = blamed
            raise Injected(f"{kind} {name} fails on call {self.at}")
        return True

    def wrap(self, kind, name, obj):
        self.wrapped.append((kind, name))
        tick = self._tick
        if kind == "provider":
            class Provider:
                @staticmethod
                def set(v):
                    tick(kind, name, name)
                    return obj.set(v)

                @staticmethod
                def current():
                    return WRONG if tick(kind, name, name) else obj.current()
            return Provider()

        def call(*args):
            blamed = args[0].component if kind == "hook" else name  # a hook's event names its component
            if not tick(kind, name, blamed) or kind != "implementation":
                return obj(*args)
            bent = [_bent(a) if callable(a) else a for a in args]
            returned = obj(*bent)
            return returned if returned is None else WRONG
        return call


def _bent(handle):
    """``handle`` with every argument it is given replaced by ``WRONG``."""
    return lambda *args: handle(*(WRONG for _ in args))


def pull_chain(depth: int) -> Specification:
    """One when-provided context P on source S whose get chain R1 -> ... -> R<depth>
    -> S nests ``depth`` when-required contexts; controller C sends P's value to A."""
    return Specification((
        SourceDecl("S", DataType.INT),
        ActionDecl("A", DataType.INT),
        *(ContextDecl(f"R{i}", DataType.INT, when_required(f"R{i + 1}" if i < depth else "S"))
          for i in range(1, depth + 1)),
        ContextDecl("P", DataType.INT, when_provided("S", PublishSpec.ALWAYS, "R1")),
        ControllerDecl("C", "P", "A"),
    ))


def drive(app: GeneratedApp, seed: int, emissions: int = 20) -> None:
    """Pre-set every source, then emit a deterministic random sequence."""
    rng = random.Random(seed ^ 0x5EED)
    for name, t in app.source_types.items():
        app.runtime.set_source(name, Value(t, const_of(rng, t)))
    names = list(app.source_types)
    for _ in range(emissions):
        name = rng.choice(names)
        t = app.source_types[name]
        app.runtime.emit(name, Value(t, const_of(rng, t)))
