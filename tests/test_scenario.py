"""Scenario scripts: parsing, formatting, scripted resources, the driver."""

import re

import pytest
from hypothesis import given, settings
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
from scckit.decls import NAME_RE
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


@pytest.mark.parametrize("text,col,detail", [
    ("\xa0go IP 1", 2, "expected 'set' or 'emit'"),
    ("setIP 1", 1, "expected 'set' or 'emit'"),
    ("emit\x1f9bad 1", 6, "expected a source name"),
    ("set IP\u3000", 8, "expected a literal"),
    ("set IP maybe # no", 8, "expected a literal, found 'maybe # no'"),
    ("set IP \u0663", 8, "expected a literal, found '\u0663'"),
    ('set IP "open \\"', 8, "unterminated string literal"),
    ('set IP "a\\\\b\\n"', 13, "unknown escape; only \\\" and \\\\ are supported"),
    ('set IP "a\\', 10, "unknown escape; only \\\" and \\\\ are supported"),
    ("set IP picture(640x480)", 8, "malformed picture literal; expected picture(WxH,seed=N)"),
    ("set IP picture(0x5,seed=1)", 8, "picture dimensions must be at least 1x1, got 0x5"),
    (f"set IP picture(1x1,seed={INT64_MAX + 1})", 8, "picture seed out of 64-bit range"),
    (f"set IP picture(1x1,seed={INT64_MIN - 1})", 8, "picture seed out of 64-bit range"),
    (f"set IP {INT64_MIN - 1}", 8, "integer literal out of 64-bit range"),
    pytest.param("set IP " + "9" * 4301, 8, "integer literal out of 64-bit range", id="int-4301-digits"),
    pytest.param("set IP -" + "1" * 5000, 8, "integer literal out of 64-bit range", id="int-minus-5000-digits"),
    pytest.param("set IP " + "0" * 5000 + "1x", 5009, "unexpected text after step: 'x'", id="int-zero-padded"),
    pytest.param(f"set IP picture(1x1,seed={'7' * 4400})", 8, "picture seed out of 64-bit range",
                 id="seed-4400-digits"),
    pytest.param(f"set IP picture({'1' * 4400}x1,seed=1)", 8, "picture dimensions out of 64-bit range",
                 id="width-4400-digits"),
    pytest.param(f"set IP picture(1x{'2' * 4400},seed=1)", 8, "picture dimensions out of 64-bit range",
                 id="height-4400-digits"),
    (f"set IP picture({INT64_MAX + 1}x1,seed=1)", 8, "picture dimensions out of 64-bit range"),
    ("set IP true\xa0x #", 13, "unexpected text after step: 'x #'"),
    ("set IP 12ab", 10, "unexpected text after step: 'ab'"),
])
def test_parse_error_messages(text, col, detail):
    with pytest.raises(ParseError) as err:
        parse_scenario("# head\n" + text, origin="t.scn")
    assert str(err.value) == f"t.scn:2:{col}: SCENARIO_PARSE_ERROR: {detail}"


def test_extreme_literals_parse():
    sc = parse_scenario(f"set A {INT64_MIN}\nemit B picture(1x1,seed={INT64_MAX})\t# max\nset C \"\"")
    assert sc.steps == (SetStep("A", Value(DataType.INT, INT64_MIN)),
                        EmitStep("B", make_picture(1, 1, INT64_MAX)),
                        SetStep("C", Value(DataType.STRING, "")))


def test_zero_padded_literals_parse_however_long():
    pad = "0" * 5000
    sc = parse_scenario(f"set A {pad}42\nset B -{pad}7\nemit C picture({pad}2x{pad}3,seed=-{pad}1)")
    assert sc.steps == (SetStep("A", Value(DataType.INT, 42)), SetStep("B", Value(DataType.INT, -7)),
                        EmitStep("C", make_picture(2, 3, -1)))


def test_out_of_range_literals_rejected():
    with pytest.raises(ParseError):
        parse_scenario(f"set A {INT64_MAX + 1}")
    with pytest.raises(ParseError) as err:
        parse_scenario("set A picture(0x5,seed=1)")
    assert "1x1" in err.value.detail


# The character-at-a-time reader that the regex one replaced, kept as an oracle.

_CMD_RE = re.compile(r"(set|emit)\b")
_WORD_RE = re.compile(r"true\b|false\b")
_INT_RE = re.compile(r"-?[0-9]+")
_PICTURE_RE = re.compile(r"picture\(([0-9]+)x([0-9]+),seed=(-?[0-9]+)\)")


def _oracle_parse_scenario(text: str, origin: str = "<memory>") -> Scenario:
    steps = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        step = _parse_line(line, lineno, origin)
        if step is not None:
            steps.append(step)
    return Scenario(tuple(steps))


def _err(origin, lineno, col, detail):
    return ParseError("SCENARIO_PARSE_ERROR", detail, origin, lineno, col)


def _parse_line(line: str, lineno: int, origin: str):
    i = _skip_spaces(line, 0)
    if i >= len(line) or line[i] == "#":
        return None
    cmd = _CMD_RE.match(line, i)
    if cmd is None:
        raise _err(origin, lineno, i + 1, "expected 'set' or 'emit'")
    i = _skip_spaces(line, cmd.end())
    name = NAME_RE.match(line, i)
    if name is None:
        raise _err(origin, lineno, i + 1, "expected a source name")
    i = _skip_spaces(line, name.end())
    value, i = _parse_literal(line, i, lineno, origin)
    i = _skip_spaces(line, i)
    if i < len(line) and line[i] != "#":
        raise _err(origin, lineno, i + 1, f"unexpected text after step: {line[i:]!r}")
    step_cls = SetStep if cmd.group(1) == "set" else EmitStep
    return step_cls(name.group(0), value)


def _skip_spaces(line: str, i: int) -> int:
    while i < len(line) and line[i].isspace():
        i += 1
    return i


def _parse_literal(line: str, i: int, lineno: int, origin: str) -> tuple[Value, int]:
    if i >= len(line):
        raise _err(origin, lineno, i + 1, "expected a literal")
    c = line[i]
    if c == '"':
        return _parse_string(line, i, lineno, origin)
    word = _WORD_RE.match(line, i)
    if word is not None:
        return Value(DataType.BOOL, word.group(0) == "true"), word.end()
    if line.startswith("picture", i):
        m = _PICTURE_RE.match(line, i)
        if m is None:
            raise _err(origin, lineno, i + 1, "malformed picture literal; expected picture(WxH,seed=N)")
        width, height, seed = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if not INT64_MIN <= seed <= INT64_MAX:
            raise _err(origin, lineno, i + 1, "picture seed out of 64-bit range")
        if not (width <= INT64_MAX and height <= INT64_MAX):
            raise _err(origin, lineno, i + 1, "picture dimensions out of 64-bit range")
        try:
            return Value(DataType.PICTURE, PictureData(width, height, seed)), m.end()
        except KernelError as exc:
            raise _err(origin, lineno, i + 1, exc.detail)
    num = _INT_RE.match(line, i)
    if num is not None:
        n = int(num.group(0))
        if not INT64_MIN <= n <= INT64_MAX:
            raise _err(origin, lineno, i + 1, "integer literal out of 64-bit range")
        return Value(DataType.INT, n), num.end()
    raise _err(origin, lineno, i + 1, f"expected a literal, found {line[i:]!r}")


def _parse_string(line: str, i: int, lineno: int, origin: str) -> tuple[Value, int]:
    out = []
    j = i + 1
    while j < len(line):
        c = line[j]
        if c == '"':
            return Value(DataType.STRING, "".join(out)), j + 1
        if c == "\\":
            if j + 1 >= len(line) or line[j + 1] not in '"\\':
                raise _err(origin, lineno, j + 1, "unknown escape; only \\\" and \\\\ are supported")
            out.append(line[j + 1])
            j += 2
        else:
            out.append(c)
            j += 1
    raise _err(origin, lineno, i + 1, "unterminated string literal")


# Gaps of every whitespace kind the two readers must agree on (str.isspace),
# line breaks between steps, and fragments of every literal kind, well-formed
# or not, with ASCII look-alikes that are not ASCII digits, letters or spaces.
_SPACES = (" ", "\t", "\xa0", "\x1f", "\u3000", "\u2007")
_BREAKS = ("\n", "\r\n", "\x1c", "\u2028")
_STRING_PARTS = ("a", " ", "#", "\u00e9", '\\"', "\\\\", "\\n", "\\\u00e9", "\\")
_LITERALS = ("true", "false", "truex", "false\u00e9", "0", "-12", "007", "-", "\u0663", "1\u0663",
             str(INT64_MAX), str(INT64_MAX + 1), str(INT64_MIN), str(INT64_MIN - 1),
             "picture(640x480,seed=7)", "picture(8x8,seed=-1)", "picture(0x5,seed=1)", "picture(3x0,seed=1)",
             f"picture(1x1,seed={INT64_MAX + 1})", f"picture(1x1,seed={INT64_MIN - 1})",
             "picture(\u0663x4,seed=1)", "picture(640x480)", "picture", "pictures", "")
_HEADS = ("set", "emit") * 8 + ("sets", "emit\u00e9", "go", "#", "")
_NAMES = ("IP", "Camera", "x_2") * 4 + ("9bad", "\u00e9", "IP\u00e9", "A\u0663", "")
_TAILS = ("", "# note", "#") * 3 + ("x", "1", "\u0663", '"s"', "\u00e9")

_gaps = st.sampled_from(_SPACES + (" \xa0\t", ""))  # hypothesis favours the first: a space
_strings = st.builds(lambda parts, close: '"' + "".join(parts) + close,
                     st.lists(st.sampled_from(_STRING_PARTS), max_size=4), st.sampled_from(('"', "")))
# A step line: head, name, literal and trailing text, with a gap before each and at the end.
_step_lines = st.tuples(_gaps, st.sampled_from(_HEADS), _gaps, st.sampled_from(_NAMES), _gaps,
                        st.one_of(st.sampled_from(_LITERALS), _strings), _gaps, st.sampled_from(_TAILS),
                        _gaps).map("".join)
_junk = st.lists(st.sampled_from(_SPACES + _HEADS + _NAMES + _LITERALS + _STRING_PARTS
                                 + ('"', "(", ")", "x", ",seed=")), max_size=12).map("".join)
_scripts = st.lists(st.tuples(st.one_of(_step_lines, _step_lines, _junk), st.sampled_from(_BREAKS)),
                    max_size=4).map(lambda lines: "".join(line + br for line, br in lines))


def _scenario_outcome(read, text):
    try:
        return read(text, "t.scn")
    except ParseError as exc:
        return exc.code, exc.line, exc.col, str(exc)


@settings(max_examples=1000)
@given(_scripts)
def test_reader_matches_the_character_oracle(text):
    assert _scenario_outcome(parse_scenario, text) == _scenario_outcome(_oracle_parse_scenario, text)


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
