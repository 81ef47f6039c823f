"""Scenario scripts: parsing, formatting, scripted resources, the driver."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scckit import (
    DataType,
    EmitStep,
    KernelError,
    ParseError,
    PictureData,
    RecordingSink,
    Scenario,
    ScriptedSource,
    SetStep,
    Value,
    build_webcam_app,
    format_scenario,
    make_picture,
    parse_scenario,
    run_scenario,
)
from scckit.values import INT64_MAX, INT64_MIN


def test_parse_set_step():
    sc = parse_scenario('set IP "Ads Inc"')
    assert sc == Scenario((SetStep("IP", Value(DataType.STRING, "Ads Inc")),))


def test_parse_empty_text():
    assert parse_scenario("") == Scenario(())


def test_parse_emit_picture():
    sc = parse_scenario("emit Camera picture(640x480,seed=7)")
    assert sc == Scenario((EmitStep("Camera", make_picture(640, 480, 7)),))


def test_parse_all_literal_kinds_with_comments():
    text = (
        "# header\n"
        "\n"
        "set A true\n"
        "set B false   # trailing note\n"
        "  emit C -12\n"
        'emit D "a \\"b\\" \\\\ c"\n'
    )
    sc = parse_scenario(text)
    assert [type(s) for s in sc.steps] == [SetStep, SetStep, EmitStep, EmitStep]
    assert sc.steps[0].value == Value(DataType.BOOL, True)
    assert sc.steps[1].value == Value(DataType.BOOL, False)
    assert sc.steps[2].value == Value(DataType.INT, -12)
    assert sc.steps[3].value == Value(DataType.STRING, 'a "b" \\ c')


@pytest.mark.parametrize("text,line,col_fragment", [
    ("go IP 1", 1, ":1:1:"),
    ("set 9bad 1", 1, ":1:5:"),
    ("set IP", 1, ":1:7:"),
    ('set IP "unterminated', 1, ":1:8:"),
    ('set IP "bad \\n escape"', 1, ":1:13:"),
    ("set IP picture(640x480)", 1, ":1:8:"),
    ("set IP 1 2", 1, ":1:10:"),
    ("set IP ok\n", 1, ":1:8:"),
    ("set A true\nemit B maybe", 2, ":2:8:"),
])
def test_parse_errors_carry_positions(text, line, col_fragment):
    with pytest.raises(ParseError) as err:
        parse_scenario(text, origin="demo.scn")
    assert err.value.code == "SCENARIO_PARSE_ERROR"
    assert err.value.line == line
    assert ("demo.scn" + col_fragment) in str(err.value)


def test_out_of_range_literals_rejected():
    with pytest.raises(ParseError):
        parse_scenario(f"set A {INT64_MAX + 1}")
    with pytest.raises(ParseError) as err:
        parse_scenario("set A picture(0x5,seed=1)")
    assert "1x1" in err.value.detail


def test_format_scenario_canonical_text():
    sc = Scenario((
        SetStep("IP", Value(DataType.STRING, "Ads Inc")),
        EmitStep("Camera", make_picture(640, 480, 7)),
    ))
    assert format_scenario(sc) == 'set IP "Ads Inc"\nemit Camera picture(640x480,seed=7)\n'


literals = st.one_of(
    st.booleans().map(lambda b: Value(DataType.BOOL, b)),
    st.integers(INT64_MIN, INT64_MAX).map(lambda n: Value(DataType.INT, n)),
    st.text(max_size=12).map(lambda s: Value(DataType.STRING, s)),
    st.builds(lambda w, h, s: Value(DataType.PICTURE, PictureData(w, h, s)),
              st.integers(1, 4000), st.integers(1, 4000), st.integers(-99, 99)),
)
step_names = st.sampled_from(("Camera", "IP", "S1", "x_2"))
steps = st.one_of(st.builds(SetStep, step_names, literals),
                  st.builds(EmitStep, step_names, literals))
scenarios = st.builds(lambda ss: Scenario(tuple(ss)), st.lists(steps, max_size=6))


# Where str.splitlines, and so parse_scenario, ends a line.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@given(scenarios)
def test_scenario_round_trip(sc):
    unwritable = any(step.value.tag is DataType.STRING and set(step.value.payload) & set(LINE_BREAKS)
                     for step in sc.steps)
    if unwritable:
        with pytest.raises(ValueError, match="a string with a line break"):
            format_scenario(sc)
    else:
        assert parse_scenario(format_scenario(sc)) == sc


@pytest.mark.parametrize("text", ["a\x0cb", "a\nb", "line\u2028"])
def test_format_scenario_refuses_strings_with_line_breaks(text):
    sc = Scenario((SetStep("IP", Value(DataType.STRING, text)),))
    with pytest.raises(ValueError) as err:
        format_scenario(sc)
    assert str(err.value) == "a string with a line break cannot be written as a scenario literal"


def test_scripted_source_set_then_current():
    src = ScriptedSource()
    assert src.current() is None
    v = Value(DataType.INT, 5)
    src.set(v)
    assert src.current() == v


def test_recording_sink_preserves_order_and_values():
    sink = RecordingSink()
    first, second = Value(DataType.INT, 1), Value(DataType.INT, 2)
    sink(first)
    sink(second)
    assert sink.deliveries == [first, second]
    assert sink.deliveries[0] is first  # stored, not copied or mutated


def test_set_does_not_publish_but_emit_does():
    app = build_webcam_app()
    run_scenario(app.runtime, parse_scenario('set IP "x"\nset Camera picture(8x8,seed=1)'))
    assert app.runtime.action_log() == ()
    run_scenario(app.runtime, parse_scenario("emit Camera picture(8x8,seed=1)"))
    assert len(app.runtime.action_log()) == 1


def test_runtime_errors_carry_step_index():
    app = build_webcam_app()
    with pytest.raises(KernelError) as err:
        run_scenario(app.runtime, parse_scenario('set IP "x"\nemit Ghost 1'))
    assert err.value.code == "UNDECLARED_COMPONENT"
    assert err.value.step_index == 1


def test_wrong_typed_set_reports_step_zero():
    app = build_webcam_app()
    with pytest.raises(KernelError) as err:
        run_scenario(app.runtime, parse_scenario("set IP 3"))
    assert err.value.code == "TYPE_MISMATCH"
    assert err.value.step_index == 0
