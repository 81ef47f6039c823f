"""Opt-in scaling check: every static stage should cost time linear in the spec's size.

Skipped unless ``SCC_SCALING=1`` is set, because it times code on whatever host runs it:

    SCC_SCALING=1 python -m pytest -q tests/test_scaling.py

Each stage runs on three families of specs at about 1,000 and 4,000 declarations: ladders,
pull chains as deep as ``MAX_PULL_DEPTH`` allows, and a fan-out. A stage's time is the minimum
of 3 runs with the collector off; the ×4 step may cost at most ×6, which leaves room for the
sort in the exports and for noise, not for a quadratic stage (×16). A step over the bound is
measured twice more before the check fails.
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

STEP, BOUND = 4, 6.0


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
