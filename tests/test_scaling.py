"""Opt-in scaling check: every static stage should cost time linear in the spec's size, and
the kernel's cost per activation should stay constant.

Skipped unless ``SCC_SCALING=1`` is set, because it times code on whatever host runs it:

    SCC_SCALING=1 python -m pytest -q tests/test_scaling.py

Each static stage runs on three families of specs at about 1,000 and 4,000 declarations:
ladders, pull chains as deep as ``MAX_PULL_DEPTH`` allows, and a fan-out. A stage's time is the
minimum of 3 runs with the collector off; the ×4 step may cost at most ×6, which leaves room for
the sort in the exports and for noise, not for a quadratic stage (×16). A step over the bound is
measured twice more before the check fails.

The emits run on those families and on a publish chain, at the same two sizes but for the
ladder, which is twice as large: about 2,000 and 8,000 declarations. Their time per activation
may grow at most ×2 over the ×4 step. On a ladder every activation joins one more source into
taints that hold all the sources before it, so a join that copies the taint set costs time in
its width. Under about a thousand sources a fixed cost per activation hides that; over it, the
×4 step cost ×5 or more per activation with such a join.
"""

import gc
import os
import time

import pytest

import genspec
from scckit import (
    ActionDecl,
    ContextDecl,
    ControllerDecl,
    DataType,
    PublishSpec,
    RecordingSink,
    ScriptedSource,
    SourceDecl,
    Specification,
    Value,
    build_flow_graph,
    create_runtime,
    derive_all,
    export_graph,
    parse,
    pretty_print,
    source_ancestors,
    validate,
    when_provided,
    when_required,
)
from scckit.decls import MAX_PULL_DEPTH

pytestmark = pytest.mark.skipif(os.environ.get("SCC_SCALING") != "1",
                                reason="timing check; set SCC_SCALING=1 to run it")

STEP, BOUND, EMIT_BOUND = 4, 6.0, 2.0


def pull_chains(count: int) -> Specification:
    """``count`` chains of ``MAX_PULL_DEPTH`` when-required contexts, each pulled by a
    when-provided context on the chain's own source, whose controller sends to an action."""
    decls = []
    for c in range(count):
        decls += [SourceDecl(f"S{c}", DataType.INT), ActionDecl(f"A{c}", DataType.INT)]
        decls += [ContextDecl(f"R{c}_{i}", DataType.INT,
                              when_required(f"R{c}_{i + 1}" if i < MAX_PULL_DEPTH else f"S{c}"))
                  for i in range(1, MAX_PULL_DEPTH + 1)]
        decls += [ContextDecl(f"P{c}", DataType.INT, when_provided(f"S{c}", PublishSpec.ALWAYS, f"R{c}_1")),
                  ControllerDecl(f"C{c}", f"P{c}", f"A{c}")]
    return Specification(tuple(decls))


def fan_out(count: int) -> Specification:
    """One source wakes one context, whose ``count`` controllers each send to an action of their own."""
    return Specification((
        SourceDecl("S", DataType.INT),
        ContextDecl("P", DataType.INT, when_provided("S", PublishSpec.ALWAYS)),
        *(decl for j in range(count) for decl in (
            ActionDecl(f"A{j}", DataType.INT), ControllerDecl(f"C{j}", "P", f"A{j}"))),
    ))


# Each family's builder, and the units it takes at the small end: about 1,000 declarations.
FAMILIES = {"ladder": (genspec.ladder, 500), "pull_chains": (pull_chains, 10), "fan_out": (fan_out, 500)}
EMIT_FAMILIES = {**FAMILIES, "ladder": (genspec.ladder, 1000), "publish_chain": (genspec.publish_chain, 1000)}
ACTIVATIONS = 20_000  # about as many per timed run at either size


def _implementation(*args):
    return None


def _unsealed(spec: Specification):
    rt = create_runtime(spec)
    for d in spec.declarations:
        if isinstance(d, (ContextDecl, ControllerDecl)):
            rt.register(d.name, _implementation)
        elif isinstance(d, SourceDecl):
            rt.bind_source(d.name, ScriptedSource())
        else:
            rt.bind_action(d.name, RecordingSink())
    return rt


def _emitting(spec: Specification):
    """A sealed runtime over ``spec`` with every source set to 1, each context passing on its
    payload plus what it pulls, and the sources whose emits wake something."""
    rt = create_runtime(spec)
    for d in spec.declarations:
        if isinstance(d, ControllerDecl):
            rt.register(d.name, lambda x, do: do(x))
        elif isinstance(d, ContextDecl) and d.contract.trigger is None:
            rt.register(d.name, lambda get: get())  # each when-required context here has a get target
        elif isinstance(d, ContextDecl) and d.contract.get_target is None:
            rt.register(d.name, lambda x, publish: publish(x))
        elif isinstance(d, ContextDecl):
            rt.register(d.name, lambda x, get, publish: publish(x + get()))
        elif isinstance(d, SourceDecl):
            rt.bind_source(d.name, ScriptedSource())
        else:
            rt.bind_action(d.name, RecordingSink())
    rt.seal()
    sources = [d.name for d in spec.declarations if isinstance(d, SourceDecl)]
    for name in sources:
        rt.set_source(name, Value(DataType.INT, 1))
    woken = {d.contract.trigger for d in spec.declarations if isinstance(d, ContextDecl)}
    return rt, [name for name in sources if name in woken]


def _emits(spec: Specification):
    """The untimed set-up and the timed call of ``_best`` for emits on ``spec``, and how
    many activations the call runs: each waking source is emitted as often as it takes
    to run about ``ACTIVATIONS``."""
    rt, woken = _emitting(spec)
    counted = []
    rt.trace = lambda event: counted.append(event.kind == "activate")
    for name in woken:
        rt.emit(name, Value(DataType.INT, 1))
    rounds = -(-ACTIVATIONS // sum(counted))
    one = Value(DataType.INT, 1)

    def run(rt):
        for _ in range(rounds):
            for name in woken:
                rt.emit(name, one)

    return (lambda: _emitting(spec)[0], run), rounds * sum(counted)


def _best(make, run, runs: int = 3) -> float:
    """Minimum time of ``run(make())`` over ``runs`` runs, collector off; ``make`` is not timed."""
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(runs):
            arg = make()
            t0 = time.perf_counter()
            run(arg)
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def _stages(spec: Specification) -> dict:
    """Each static stage on ``spec``, as the untimed set-up and the timed call ``_best`` takes."""
    text = pretty_print(spec).content
    actions = [d.name for d in spec.declarations if isinstance(d, ActionDecl)]
    same = lambda: spec  # noqa: E731
    fresh = lambda: build_flow_graph(spec)  # noqa: E731
    return {
        "parse": (lambda: text, parse),
        "validate": (same, validate),
        "derive_all": (same, derive_all),
        "build_flow_graph": (same, build_flow_graph),
        "exports": (fresh, lambda g: (export_graph(g, "dot"), export_graph(g, "json"))),
        "ancestors": (fresh, lambda g: [source_ancestors(g, a) for a in actions]),
        "seal": (lambda: _unsealed(spec), lambda rt: rt.seal()),
    }


def _ratio(slow, fast, bound: float) -> float:
    """``_best`` time of ``slow`` over that of ``fast``. A ratio over ``bound`` is measured again,
    up to twice, and the lowest kept: on a shared host one slow moment can cost a millisecond
    run more than the stage itself, while a stage that really grows too fast fails every time."""
    ratio = _best(*slow) / _best(*fast)
    for _ in range(2):
        if ratio <= bound:
            break
        ratio = min(ratio, _best(*slow) / _best(*fast))
    return ratio


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_static_stages_scale_linearly(family):
    build, units = FAMILIES[family]
    small, large = build(units), build(STEP * units)
    assert validate(small) == [] and validate(large) == []
    assert abs(len(large.declarations) / len(small.declarations) - STEP) < 0.01
    before, after = _stages(small), _stages(large)
    ratios = {stage: _ratio(after[stage], before[stage], BOUND) for stage in before}
    assert max(ratios.values()) <= BOUND, f"{family}: " + ", ".join(f"{stage} x{r:.1f}" for stage, r in ratios.items())


def test_first_ancestor_query_on_a_ladder_costs_a_few_graph_builds():
    # 4,003 declarations; one forward walk per source made the first query cost over 100x build_flow_graph.
    spec = genspec.ladder(2000)
    first = (lambda: build_flow_graph(spec), lambda g: source_ancestors(g, "A"))
    ratio = _ratio(first, (lambda: spec, build_flow_graph), 3)
    assert ratio <= 3, f"the first query costs x{ratio:.1f} build_flow_graph"


@pytest.mark.parametrize("family", sorted(EMIT_FAMILIES))
def test_emit_cost_per_activation_stays_constant(family):
    build, units = EMIT_FAMILIES[family]
    (small, small_count), (large, large_count) = _emits(build(units)), _emits(build(STEP * units))
    scale = small_count / large_count  # activations: turns a ratio of run times into one per activation
    ratio = _ratio(large, small, EMIT_BOUND / scale) * scale
    assert ratio <= EMIT_BOUND, f"{family}: the x{STEP} step costs x{ratio:.2f} per activation"
