"""Surface-syntax tests: examples, error positions, and round-trip laws."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scckit import parser
from scckit import (
    ActionDecl,
    ContextDecl,
    ControllerDecl,
    DataType,
    ParseError,
    PublishSpec,
    SourceDecl,
    SourceText,
    Specification,
    parse,
    pretty_print,
    when_provided,
    when_required,
)
from scckit.webcam import WEBCAM_SPEC

PICTURE, STRING, INT = DataType.PICTURE, DataType.STRING, DataType.INT


def test_parse_make_ad_context():
    spec = parse("(define-context MakeAd String [when-required get IP])")
    assert spec == Specification((
        ContextDecl("MakeAd", STRING, when_required(get="IP")),
    ))


def test_parse_empty_file():
    assert parse("") == Specification(())


def test_parse_controller():
    spec = parse("(define-controller Display [when-provided ComposeDisplay do Screen])")
    assert spec == Specification((ControllerDecl("Display", "ComposeDisplay", "Screen"),))


def test_parse_resource_forms():
    spec = parse("(define-source Camera Picture) (define-action Screen Picture)")
    assert spec == Specification((
        SourceDecl("Camera", PICTURE),
        ActionDecl("Screen", PICTURE),
    ))


def test_parse_provided_with_get():
    spec = parse("(define-context ComposeDisplay Picture "
                 "[when-provided ProcessPicture get MakeAd maybe_publish])")
    (decl,) = spec.declarations
    assert decl.contract == when_provided("ProcessPicture", PublishSpec.MAYBE, get="MakeAd")


def test_publish_spec_is_illegal_under_when_required():
    with pytest.raises(ParseError) as err:
        parse("(define-context X Int [when-required always_publish])")
    assert err.value.code == "PARSE_ERROR"


def test_comments_and_whitespace_never_change_the_ast():
    squeezed = " ".join(
        line.split(";")[0].strip() for line in WEBCAM_SPEC.splitlines()
    )
    assert parse(squeezed) == parse(WEBCAM_SPEC)


def test_declaration_positions_are_recorded():
    spec = parse("; banner\n(define-source A Int)\n  (define-source B Int)")
    assert spec.declarations[0].pos == (2, 1)
    assert spec.declarations[1].pos == (3, 3)


def test_error_position_and_rendering():
    with pytest.raises(ParseError) as err:
        parse(SourceText("(define-source Camera Picture)\n(define-source 9x Int)",
                         origin="app.scc"))
    assert (err.value.line, err.value.col) == (2, 16)
    assert str(err.value).startswith("app.scc:2:16: PARSE_ERROR:")


def test_unknown_keyword():
    with pytest.raises(ParseError) as err:
        parse("(define-gizmo X Int)")
    assert err.value.code == "UNKNOWN_KEYWORD"


def test_unknown_type():
    with pytest.raises(ParseError) as err:
        parse("(define-source X Float)")
    assert err.value.code == "UNKNOWN_TYPE"


@pytest.mark.parametrize("text", [
    "(define-source Camera Picture",          # unclosed form
    "(define-context X Int when-required)",   # missing bracket
    "(define-context X Int [when-provided S oops_publish])",
    "(define-controller C [when-required do A])",
    ")",
    "(define-source Camera Picture))",
])
def test_malformed_inputs_fail_with_positions(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line >= 1 and err.value.col >= 1


def test_pretty_print_canonical_forms():
    spec = Specification((
        SourceDecl("IP", STRING),
        ContextDecl("MakeAd", STRING, when_required(get="IP")),
        ContextDecl("ProcessPicture", PICTURE, when_provided("Camera", PublishSpec.ALWAYS)),
        ControllerDecl("Display", "ComposeDisplay", "Screen"),
    ))
    assert pretty_print(spec).content == (
        "(define-source IP String)\n"
        "(define-context MakeAd String [when-required get IP])\n"
        "(define-context ProcessPicture Picture [when-provided Camera always_publish])\n"
        "(define-controller Display [when-provided ComposeDisplay do Screen])\n"
    )


def test_pretty_print_empty_spec_is_empty_text():
    assert pretty_print(Specification(())).content == ""


def test_webcam_text_round_trips():
    spec = parse(WEBCAM_SPEC)
    assert parse(pretty_print(spec)) == spec


# keyword-shaped names are legal identifiers and must survive printing
names = st.sampled_from(("A", "B9", "get", "do", "Camera", "x_1", "Zz", "set"))
types = st.sampled_from(list(DataType))
contracts = st.one_of(
    st.builds(when_required, st.none() | names),
    st.builds(when_provided, names,
              st.sampled_from([PublishSpec.ALWAYS, PublishSpec.MAYBE]),
              st.none() | names),
)
declarations = st.one_of(
    st.builds(SourceDecl, names, types),
    st.builds(ActionDecl, names, types),
    st.builds(ContextDecl, names, types, contracts),
    st.builds(ControllerDecl, names, names, names),
)
specs = st.builds(lambda ds: Specification(tuple(ds)), st.lists(declarations, max_size=6))


@given(specs)
def test_pretty_print_round_trips(spec):
    assert parse(pretty_print(spec)) == spec


@settings(max_examples=200)
@given(st.text(max_size=80))
def test_parse_is_total_on_arbitrary_text(text):
    try:
        parse(text)
    except ParseError:
        pass


@settings(max_examples=200)
@given(st.text(alphabet="()[]; \n\"dgetoXwhenrequidpovABC_-129", max_size=60))
def test_parse_is_total_on_syntax_shaped_text(text):
    try:
        parse(text)
    except ParseError:
        pass


@pytest.mark.parametrize("text,rendered", [
    ("(define-source A ; trailing",
     "<memory>:1:18: PARSE_ERROR: expected a type, found end of input"),
    ("(define-source A Int)\n(define-action B ;x",
     "<memory>:2:18: PARSE_ERROR: expected a type, found end of input"),
    ("(define-context C Int [when-required get",
     "<memory>:1:41: PARSE_ERROR: expected component name, found end of input"),
])
def test_end_of_input_column_stops_at_a_trailing_comment(text, rendered):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == rendered


def _oracle_tokenize(src):
    """The character-at-a-time tokenizer that the regex one replaced, as an oracle."""
    tokens = []
    line, col = 1, 1
    i, text = 0, src.content
    while i < len(text):
        c = text[i]
        if c == "\n":
            line, col = line + 1, 1
            i += 1
        elif c.isspace():
            col += 1
            i += 1
        elif c == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif c in "()[]":
            tokens.append((c, line, col))
            col += 1
            i += 1
        else:
            start, start_col = i, col
            while i < len(text) and not text[i].isspace() and text[i] not in "()[]" and text[i] != ";":
                i += 1
                col += 1
            tokens.append((text[start:i], line, start_col))
    tokens.append(("", line, col))
    return tokens


# Every whitespace kind the two tokenizers must agree on: \n is the only line
# break; the rest, \r and \u2028 included, advance the column by one.
_SPACES = ("\n", "\r", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000", " ")
_WORDS = ("define-source", "define-action", "define-context", "define-controller",
          "Bool", "Int", "String", "Picture", "get", "do", "when-required", "when-provided",
          "always_publish", "maybe_publish", "A", "B9", "x_", "Cam", "-", "7", "\u00e9")
_DECLS = (
    ("(", "define-source", "A", "Int", ")"),
    ("(", "define-action", "B", "String", ")"),
    ("(", "define-context", "C", "Int", "[", "when-required", "get", "A", "]", ")"),
    ("(", "define-context", "D", "Int", "[", "when-provided", "A", "maybe_publish", "]", ")"),
    ("(", "define-controller", "E", "[", "when-provided", "D", "do", "B", "]", ")"),
)
_gaps = st.lists(st.sampled_from(_SPACES + ("; note\n", ";")), max_size=3).map("".join)


@st.composite
def _spaced_specs(draw):
    """Well-formed declarations with any whitespace and comments between tokens."""
    parts = []
    for decl in draw(st.lists(st.sampled_from(_DECLS), max_size=4)):
        for token in decl:
            parts += [draw(_gaps), token]
    parts.append(draw(_gaps))
    return "".join(parts)


def _outcome(src):
    try:
        spec = parse(src)
    except ParseError as exc:
        return str(exc)
    return spec, [d.pos for d in spec.declarations]


@settings(max_examples=500)
@given(st.one_of(
    st.lists(st.sampled_from(("(", ")", "[", "]", ";") + _SPACES + _WORDS), max_size=40).map("".join),
    _spaced_specs(),
))
def test_tokenizer_and_parser_match_the_character_oracle(text):
    src = SourceText(text)
    assert parser._tokenize(src) == _oracle_tokenize(src)
    got = _outcome(src)
    with mock.patch.object(parser, "_tokenize", _oracle_tokenize):
        assert got == _outcome(src)
