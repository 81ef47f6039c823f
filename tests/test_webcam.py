"""End-to-end webcam application: demo scenarios and leak freedom."""

import random

import pytest

from scckit import (
    DataType,
    PictureData,
    RuntimeFault,
    Value,
    build_flow_graph,
    build_webcam_app,
    make_picture,
    parse,
    parse_scenario,
    run_scenario,
    source_ancestors,
    webcam_spec,
)
from scckit.webcam import DEFAULT_SCENARIO, WEBCAM_SPEC

AD_SCENARIO = 'set IP "Ads Inc"\nemit Camera picture(640x480,seed=7)\n'


def test_shipped_example_file_is_the_canonical_spec(webcam_scc):
    assert webcam_scc.read_bytes() == WEBCAM_SPEC.encode("utf-8")  # bytes: no newline translation
    assert parse(WEBCAM_SPEC) == webcam_spec()


def test_shipped_default_scenario_matches_bundled_one(default_scn):
    assert default_scn.read_bytes() == DEFAULT_SCENARIO.encode("utf-8")


def test_nonempty_ad_scenario_delivers_one_composed_frame():
    app = build_webcam_app()
    run_scenario(app.runtime, parse_scenario(AD_SCENARIO))
    ((target, tv),) = app.runtime.action_log()
    assert target == "Screen"
    assert tv.value.payload == PictureData(640, 480, 7, ("Ads Inc",))
    assert tv.taints == {"Camera", "IP"}
    assert app.screen.deliveries == [tv.value]


def test_empty_ad_scenario_withholds_the_frame():
    app = build_webcam_app()
    run_scenario(app.runtime, parse_scenario('set IP ""\nemit Camera picture(640x480,seed=7)'))
    assert app.runtime.action_log() == ()
    assert app.screen.deliveries == []


def test_emitting_without_setting_ip_faults_in_make_ad():
    app = build_webcam_app()
    with pytest.raises(RuntimeFault) as err:
        app.runtime.emit("Camera", make_picture(8, 8, 1))
    assert err.value.code == "PULL_BEFORE_VALUE"
    assert err.value.component == "MakeAd"


def test_each_frame_is_composed_against_the_current_ad():
    app = build_webcam_app()
    rt = app.runtime
    rt.set_source("IP", Value(DataType.STRING, "first"))
    rt.emit("Camera", make_picture(10, 10, 1))
    rt.set_source("IP", Value(DataType.STRING, "second"))
    rt.emit("Camera", make_picture(10, 10, 2))
    overlays = [tv.value.payload.overlays for _, tv in rt.action_log()]
    assert overlays == [("first",), ("second",)]


def test_static_leak_freedom():
    graph = build_flow_graph(webcam_spec())
    assert "Camera" not in source_ancestors(graph, "MakeAd")
    assert source_ancestors(graph, "MakeAd") == {"IP"}


def _random_webcam_run(seed: int):
    rng = random.Random(seed)
    events = []
    app = build_webcam_app(trace=events.append)
    ads = ["", "Ads Inc", "Buy!", "Sale  now"]
    app.runtime.set_source("IP", Value(DataType.STRING, rng.choice(ads)))
    for _ in range(15):
        roll = rng.random()
        if roll < 0.5:
            app.runtime.emit("Camera", make_picture(
                rng.randint(1, 64), rng.randint(1, 64), rng.randrange(100)))
        elif roll < 0.8:
            app.runtime.set_source("IP", Value(DataType.STRING, rng.choice(ads)))
        else:
            app.runtime.emit("IP", Value(DataType.STRING, rng.choice(ads)))
    return app, events


def test_dynamic_leak_freedom_over_randomized_scenarios():
    for seed in range(40):
        app, events = _random_webcam_run(seed)
        for ev in events:
            if ev.component == "MakeAd":
                if ev.kind == "pull":
                    assert "Camera" not in ev.value.taints, seed
                else:
                    assert ev.value is None  # pull-activated: no payload can reach it
        for _, tv in app.runtime.action_log():
            assert tv.taints <= {"Camera", "IP"}


def test_webcam_runs_are_deterministic():
    logs = []
    for _ in range(2):
        app, _ = _random_webcam_run(1234)
        logs.append(app.runtime.action_log())
    assert logs[0] == logs[1]
    assert logs[0]
