"""Tests of the benchmark itself, at small sizes.

Run from the root of the repository:

    python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import statistics

import env

env.bootstrap()

import pytest  # noqa: E402

import gen  # noqa: E402
import harness  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import scckit  # noqa: E402
import scckit.runtime  # noqa: E402
from scckit import DataType, RecordingSink, ScriptedSource, Value, WebcamApp  # noqa: E402
from tracing import NullTracer, Tracer, instrument  # noqa: E402

SMALL = dict(pipelines=3, get_chain=4, publish_chain=5, fanout=4)


def _clean(w):
    ledger = harness.Ledger()
    w.round(NullTracer(), harness.Stats(), ledger)
    return ledger


def test_large_spec_text_validates_and_predicts_its_contracts():
    spec_gen = gen.large_spec(7, **SMALL)
    spec = scckit.parse(spec_gen.text)
    assert scckit.validate(spec) == []
    assert len(spec.declarations) == spec_gen.decl_count
    derived = tuple(f"{n}: {scckit.render_contract(c)}" for n, c in scckit.derive_all(spec).items())
    assert derived == spec_gen.contract_lines
    graph = scckit.build_flow_graph(spec)
    assert len(graph.edges) == spec_gen.edge_count
    assert {a: scckit.source_ancestors(graph, a) for a in spec_gen.ancestors} == spec_gen.ancestors


def test_default_large_spec_has_about_1600_declarations_and_validates():
    spec_gen = gen.large_spec(1)
    assert 1500 <= spec_gen.decl_count <= 1700
    assert scckit.validate(scckit.parse(spec_gen.text)) == []


@pytest.mark.parametrize("workload", [
    harness.WebcamStream(3, segment_blocks=4),
    harness.LargeSpec(3, **SMALL),
])
def test_every_operation_passes_its_reference_at_this_commit(workload):
    ledger = _clean(workload)
    ledger2 = _clean(workload)
    assert (ledger.failed, ledger2.failed) == (0, 0), ledger.errors + ledger2.errors
    assert ledger.attempted > 0


def _webcam_app(compose):
    """The webcam app with ``compose`` in place of ComposeDisplay's implementation."""
    from scckit import webcam

    rt = scckit.create_runtime(webcam.webcam_spec())
    rt.register("ProcessPicture", webcam.process_picture)
    rt.register("MakeAd", webcam.make_ad)
    rt.register("ComposeDisplay", compose)
    rt.register("Display", webcam.display)
    camera, ip, screen = ScriptedSource(), ScriptedSource(), RecordingSink()
    rt.bind_source("Camera", camera)
    rt.bind_source("IP", ip)
    rt.bind_action("Screen", screen)
    rt.seal()
    return WebcamApp(rt, camera, ip, screen)


def test_webcam_check_fails_on_a_tampered_delivery():
    from scckit import webcam, overlay

    w = harness.WebcamStream(5, segment_blocks=2)

    def shouting(pic, get_ad, publish, nopublish):
        ad = get_ad()
        if ad == "":
            nopublish()
        publish(overlay(pic, ad.upper() + "!"))

    for compose, failures in ((webcam.compose_display, 0), (shouting, 24)):
        ledger = harness.Ledger()
        w.segment(_webcam_app(compose), NullTracer(), harness.Stats(), ledger)
        assert (ledger.attempted, ledger.failed) == (33, failures)


def test_webcam_check_fails_when_the_empty_ad_still_delivers():
    from scckit import overlay

    w = harness.WebcamStream(5, segment_blocks=2)

    def always(pic, get_ad, publish, nopublish):
        publish(overlay(pic, get_ad()))

    ledger = harness.Ledger()
    w.segment(_webcam_app(always), NullTracer(), harness.Stats(), ledger)
    assert ledger.failed == 8  # the 4 emits after each block's empty ad


def test_large_spec_check_fails_on_a_tampered_value():
    w = harness.LargeSpec(4, **SMALL)
    ledger = _clean(w)
    assert ledger.failed == 0
    victim = next(n for n in w.impls if n.startswith("Ctl"))
    w.impls[victim] = lambda x, do: do(x + x)
    ledger = _clean(w)
    assert ledger.failed == harness.LargeSpec.BURST_ROUNDS  # every emit on that pipeline


def test_check_and_graph_fail_against_a_wrong_reference():
    stats, ledger = harness.Stats(), harness.Ledger()
    spec, lines = harness.run_check(scckit.WEBCAM_SPEC, NullTracer(), stats, ledger, gen.WEBCAM_CONTRACT_LINES)
    harness.run_check(scckit.WEBCAM_SPEC, NullTracer(), stats, ledger, lines[:-1])
    harness.run_graph(spec, NullTracer(), stats, ledger, (7, 6), {"Screen": gen.WEBCAM_TAINTS})
    harness.run_graph(spec, NullTracer(), stats, ledger, (7, 6), {"Screen": frozenset({"Camera"})})
    assert (ledger.attempted, ledger.failed) == (4, 2)


def test_demo_reference_matches_the_cli(tmp_path, capsys):
    from scckit.cli import main

    steps = gen.webcam_stream(9, 3)
    script = tmp_path / "stream.scn"
    script.write_text(gen.scenario_text(steps), encoding="utf-8")
    assert main(["demo", "--scenario", str(script)]) == 0
    assert capsys.readouterr().out == gen.demo_output(steps)


def test_timings_are_scaled_by_the_latest_reference_run():
    stats = harness.Stats()
    stats.add("check", 1000)
    stats.add("check", 3000)
    (ref,) = stats.clock.samples  # the second timing came within the interval
    assert stats.check == [1000, 3000]
    assert stats.scaled("check") == [pytest.approx(n * hostspeed.REFERENCE_S * 1e9 / ref) for n in (1000, 3000)]
    for _ in range(hostspeed.SMOOTH + 1):
        stats.clock.measure()
    stats.add("check", 1000)
    latest = statistics.median(stats.clock.samples[-hostspeed.SMOOTH:])
    assert stats.scaled("check")[-1] == pytest.approx(1000 * hostspeed.REFERENCE_S * 1e9 / latest)


def test_webcam_stream_has_fixed_counts_per_block():
    for seed in (1, 2):
        steps = gen.webcam_stream(seed, 10)
        emits = [s for s in steps if s.ad is None]
        assert len(emits) == 10 * gen.BLOCK_EMITS
        assert sum(s.expected is None for s in emits) == 10 * 4


def test_instrument_restores_every_binding():
    before = (scckit.runtime.validate, scckit.runtime.derive_all, scckit.Specification.find)
    with instrument(Tracer()):
        assert scckit.runtime.validate is not before[0]
    assert (scckit.runtime.validate, scckit.runtime.derive_all, scckit.Specification.find) == before


def _traced(workload):
    base, traced, ledger, tracer = harness.Stats(), harness.Stats(), harness.Ledger(), Tracer()
    workload.round(NullTracer(), base, ledger)
    with instrument(tracer):
        workload.round(tracer, traced, ledger)
        with tracer.root("demo"):
            tracer.call("scenario.parse", scckit.parse_scenario, scckit.DEFAULT_SCENARIO)
            tracer.call("webcam.build", scckit.build_webcam_app, tracer.hook)
    assert ledger.failed == 0, ledger.errors
    return run.per_layer(tracer, base, traced, [0.05], [0.1]), tracer, traced


def test_traced_counts_follow_the_workload_shape():
    layers, _, _ = _traced(harness.LargeSpec(2, **SMALL))
    p = SMALL
    assert layers["runtime.activations_per_emit"][0] == p["publish_chain"] + p["get_chain"] + p["fanout"]
    assert layers["runtime.pulls_per_emit"][0] == p["get_chain"] + 1
    assert layers["runtime.deliveries_per_emit"][0] == p["fanout"]
    layers, _, _ = _traced(harness.WebcamStream(2, segment_blocks=2))
    assert layers["runtime.activations_per_emit"][0] == 3.75
    assert layers["runtime.pulls_per_emit"][0] == 2
    assert layers["runtime.taint_size_mean"][0] == 2


def test_trace_ratios_divide_traced_time_by_the_untraced_base():
    _, tracer, traced = _traced(harness.LargeSpec(2, **SMALL))
    # A traced check takes as long as its root span.
    for traced_ns, inst in zip(traced.check, tracer.instances["check"]):
        assert inst[("dur", "check")] <= traced_ns < 1.05 * inst[("dur", "check")] + 1e5
    # An untraced base that took exactly half as long as each traced operation.
    base = harness.Stats(**{kind: [n / 2 for n in getattr(traced, kind)] for kind in harness.TIMED},
                         scales=traced.scales)
    layers = run.per_layer(tracer, base, traced, [0.05], [0.1])
    for ratio in ("trace.overhead_ratio", "trace.check_ratio", "trace.setup_ratio"):
        assert layers[ratio][0] == pytest.approx(2)


def test_metric_names_match_benchmark_json():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    layers, _, _ = _traced(harness.LargeSpec(2, **SMALL))
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    stats = harness.Stats()
    harness.run_rounds(harness.WebcamStream(2, segment_blocks=2), NullTracer(), stats, harness.Ledger(), 0)
    e2e = run.end_to_end(stats, [0.1], [0.2], 30.0)
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    assert {n: u for n, (_, u) in {**e2e, **layers}.items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
