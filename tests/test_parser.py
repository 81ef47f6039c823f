"""Surface-syntax tests: examples, error positions, and round-trip laws."""

import random
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import genspec
from scckit import parser
from scckit import (
    ActionDecl,
    ContextDecl,
    ControllerDecl,
    DataType,
    InteractionContract,
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


@pytest.mark.parametrize("contract,message", [
    (InteractionContract(None, "IP", PublishSpec.ALWAYS),
     "when-required contract with a publish specification has no written form"),
    (InteractionContract("Camera", None, PublishSpec.NO),
     "when-provided contract without a publish specification has no written form"),
])
def test_pretty_print_refuses_contracts_without_a_written_form(contract, message):
    with pytest.raises(ValueError) as err:
        pretty_print(Specification((ContextDecl("X", STRING, contract),)))
    assert str(err.value) == message


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


_BRACKETS = ("(", ")", "[", "]")
_token_soup = st.lists(st.sampled_from(_BRACKETS + (";",) + _SPACES + _WORDS), max_size=40).map("".join)


@settings(max_examples=500)
@given(st.one_of(_token_soup, _spaced_specs()))
def test_tokenizer_and_parser_match_the_character_oracle(text):
    src = SourceText(text)
    assert parser._tokenize(src) == _oracle_tokenize(src)
    got = _outcome(src)
    with mock.patch.object(parser, "_tokenize", _oracle_tokenize):
        assert got == _outcome(src)


def _descent_outcome(src):
    """What the recursive descent alone makes of ``src``, in the form of ``_outcome``."""
    try:
        spec = parser._Parser(src).specification()
    except ParseError as exc:
        return str(exc)
    return spec, [d.pos for d in spec.declarations]


@settings(max_examples=600)
@given(st.one_of(_token_soup, _spaced_specs(), st.text(max_size=80)))
@example("\n (define-source A Int)\r\n\n\t(define-action B Int)")
def test_parse_matches_the_descent(text):
    src = SourceText(text, "app.scc")
    expected = _descent_outcome(src)
    assert _outcome(src) == expected
    if not isinstance(expected, str):  # the regex is as wide as the grammar, so the descent never runs here
        assert parser._scan(text) == expected[0]


def _respaced(text, rng):
    """``text`` with every gap between its tokens redrawn from whitespace,
    CRLF line ends and comments; a gap next to a bracket may be empty."""
    gaps = (" ", "  ", "\t", "\n", "\r\n", "\u3000", " ; note\n", ";;\r\n", "\n\n; (define-source X Int)\n")
    tokens = re.findall(r"[()\[\]]|[^\s()\[\]]+", text)
    out = [rng.choice(gaps)]
    for before, token in zip(tokens, tokens[1:]):
        bracket = before in _BRACKETS or token in _BRACKETS
        out += [before, "" if bracket and rng.random() < 0.5 else rng.choice(gaps)]
    out += [tokens[-1], rng.choice(gaps)]
    return "".join(out)


def _large_text(rng):
    decls = []
    seed = 0
    while len(decls) < 1600:
        decls += genspec.random_app(seed).spec.declarations
        seed += 1
    return "; a generated spec\r\n" + _respaced(pretty_print(Specification(tuple(decls))).content, rng)


def test_parse_matches_the_descent_at_scale():
    rng = random.Random(5)
    text = _large_text(rng)
    got = _outcome(SourceText(text))
    assert len(got[0].declarations) >= 1600
    assert parser._scan(text) == got[0]
    assert got == _descent_outcome(SourceText(text))
    # One malformed declaration deep in the file: the same error as the descent.
    cut = text.index("(define-context", len(text) * 3 // 4)
    bad = SourceText(text[:cut] + "(define-context 9Bad Int [when-required])" + text[cut:], "big.scc")
    rendered = _outcome(bad)
    assert rendered == _descent_outcome(bad)
    assert rendered.endswith(": PARSE_ERROR: '9Bad' is not a valid component name")


@pytest.mark.parametrize("text", [
    "(define-source A Int)" + ";" * 50,
    "(define-source A Int)" + ";" * 50 + "\n(",
    "(define-source A " + ";" * 50,
    "; note\n" * 20_000 + "(define-source A Int) )",
    "(define-source A" + " " * 100_000 + "Float)",
    "(define-context C Int [when-provided A" + " " * 100_000 + "get" + " " * 100_000 + "B ]",
], ids=["semicolons", "semicolons-then-open", "semicolons-for-a-type", "comment-lines",
        "spaces-before-a-type", "spaces-around-get"])
def test_long_gaps_give_the_descents_outcome(text):
    assert _outcome(SourceText(text)) == _descent_outcome(SourceText(text))


@pytest.mark.parametrize("text", [
    "(define-source A-b Int)",
    "(define-source 9A Int)",
    "(define-source A Integer)",
    "(define-sourceA Int)",
    "(define-source A Int]",
    "(define-context C Int [when-requiredget A])",
    "(define-context C Int [when-required get A-b])",
    "(define-context C Int [when-provided A getB always_publish])",
    "(define-context C Int [when-provided A always_publish_])",
    "(define-context C Int [when-provided A get always_publish])",
    "(define-controller C [when-provided A doB])",
    "(define-controller C [when-provided A do B] )x",
])
def test_near_misses_are_left_to_the_descent(text):
    assert parser._scan(text) is None
    assert isinstance(_outcome(SourceText(text)), str)
