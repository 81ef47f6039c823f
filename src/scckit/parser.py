"""Parser and pretty-printer for the `.scc` declaration syntax.

The surface syntax is s-expression flavored:

    (define-source Camera Picture)
    (define-action Screen Picture)
    (define-context MakeAd String [when-required get IP])
    (define-context ProcessPicture Picture [when-provided Camera always_publish])
    (define-controller Display [when-provided ComposeDisplay do Screen])

Comments run from ';' to end of line. Parsing never checks cross-references;
that is validate()'s job.

``parse`` reads well-formed text with one regex match per declaration, on a
copy of the text whose comments are blanked to spaces, and builds each
declaration from the match's groups. Every word of that regex must end where
a token ends, so it accepts only what the grammar accepts, with the same
fields. When a declaration does not match, ``parse`` runs the recursive
descent (``_Parser``) over the tokens of the original text instead: it alone
spells every positioned ``ParseError``, and it returns the specification if
the regex was narrower than the grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .decls import (
    NAME_RE,
    ActionDecl,
    ContextDecl,
    ControllerDecl,
    DataType,
    Declaration,
    InteractionContract,
    PublishSpec,
    SourceDecl,
    Specification,
)
from .errors import ParseError

_KEYWORDS = ("define-source", "define-action", "define-context", "define-controller")
_PUNCT = "()[]"
_TYPE_NAMES = {t.value: t for t in DataType}
# Plain globals, as in decls and contracts: a load through the Enum class is slow.
_NO, _ALWAYS, _MAYBE = PublishSpec.NO, PublishSpec.ALWAYS, PublishSpec.MAYBE


@dataclass(frozen=True)
class SourceText:
    content: str
    origin: str = "<memory>"


# One alternative per token kind, tried at each offset: a line break, a
# comment, or a token. Other whitespace (exactly what str.isspace() accepts)
# is skipped by finditer's search.
_TOKEN_RE = re.compile(r"(\n)|(;[^\n]*)|([()\[\]]|[^\s()\[\];]+)")


def _tokenize(src: SourceText) -> list[tuple[str, int, int]]:
    """(text, line, col) triples, 1-based, ending with ("", line, col) for end of input."""
    tokens = []
    line, line_start, text = 1, 0, src.content
    for m in _TOKEN_RE.finditer(text):
        if m.lastindex == 3:
            tokens.append((m.group(3), line, m.start() - line_start + 1))
        elif m.lastindex == 1:
            line, line_start = line + 1, m.end()
    # The end-of-input column stops where a trailing comment starts.
    end = text.find(";", line_start)
    tokens.append(("", line, (len(text) if end < 0 else end) - line_start + 1))
    return tokens


def _describe(text: str) -> str:
    return "end of input" if text == "" else f"'{text}'"


class _Parser:
    def __init__(self, src: SourceText):
        self.origin = src.origin
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def advance(self) -> tuple[str, int, int]:
        tok = self.tokens[self.pos]
        if tok[0] != "":
            self.pos += 1
        return tok

    def fail(self, tok: tuple[str, int, int], detail: str, code: str = "PARSE_ERROR"):
        raise ParseError(code, detail, self.origin, tok[1], tok[2])

    def expect(self, text: str) -> tuple[str, int, int]:
        tok = self.advance()
        if tok[0] != text:
            self.fail(tok, f"expected '{text}', found {_describe(tok[0])}")
        return tok

    def symbol(self, what: str) -> tuple[str, int, int]:
        tok = self.advance()
        if tok[0] in _PUNCT or tok[0] == "":
            self.fail(tok, f"expected {what}, found {_describe(tok[0])}")
        return tok

    def name(self, what: str) -> str:
        tok = self.symbol(what)
        if not NAME_RE.fullmatch(tok[0]):
            self.fail(tok, f"{_describe(tok[0])} is not a valid {what}")
        return tok[0]

    def data_type(self) -> DataType:
        tok = self.symbol("a type")
        if tok[0] not in _TYPE_NAMES:
            expected = ", ".join(sorted(_TYPE_NAMES))
            self.fail(tok, f"unknown type {_describe(tok[0])}; expected one of {expected}", code="UNKNOWN_TYPE")
        return _TYPE_NAMES[tok[0]]

    def specification(self) -> Specification:
        decls = []
        while self.peek() != "":
            decls.append(self.declaration())
        return Specification(tuple(decls))

    def declaration(self) -> Declaration:
        pos = self.expect("(")[1:]
        head = self.symbol("a declaration keyword")
        keyword = head[0]
        if keyword not in _KEYWORDS:
            self.fail(head, f"unknown declaration keyword {_describe(keyword)}; "
                            f"expected one of {', '.join(_KEYWORDS)}", code="UNKNOWN_KEYWORD")
        if keyword == "define-source":
            decl = SourceDecl(self.name("component name"), self.data_type(), pos=pos)
        elif keyword == "define-action":
            decl = ActionDecl(self.name("component name"), self.data_type(), pos=pos)
        elif keyword == "define-context":
            name = self.name("component name")
            out_type = self.data_type()
            self.expect("[")
            contract = self.context_contract()
            self.expect("]")
            decl = ContextDecl(name, out_type, contract, pos=pos)
        else:
            name = self.name("component name")
            self.expect("[")
            self.expect("when-provided")
            trigger = self.name("component name")
            self.expect("do")
            action = self.name("component name")
            self.expect("]")
            decl = ControllerDecl(name, trigger, action, pos=pos)
        self.expect(")")
        return decl

    def context_contract(self) -> InteractionContract:
        head = self.advance()
        if head[0] == "when-required":
            get = None
            if self.peek() == "get":
                self.advance()
                get = self.name("component name")
            return InteractionContract(None, get, _NO)
        if head[0] == "when-provided":
            trigger = self.name("component name")
            get = None
            if self.peek() == "get":
                self.advance()
                get = self.name("component name")
            pub = self.advance()
            if pub[0] == "always_publish":
                publish = _ALWAYS
            elif pub[0] == "maybe_publish":
                publish = _MAYBE
            else:
                self.fail(pub, f"expected 'always_publish' or 'maybe_publish', found {_describe(pub[0])}")
            return InteractionContract(trigger, get, publish)
        self.fail(head, f"expected 'when-required' or 'when-provided', found {_describe(head[0])}")


# The accepting path. Comments are blanked before matching, so a gap is only
# whitespace. Two words are always parted by \s+, and a word and a bracket by
# \s*, so every word the regex matches is a whole token, as the tokenizer cuts
# it. No gap is ever split between two quantifiers, so a failed match reads a
# gap a bounded number of times: linear in its length.
_PUBLISH = {"always_publish": _ALWAYS, "maybe_publish": _MAYBE}
_NAME = f"({NAME_RE.pattern})"
_TYPE = f"({'|'.join(_TYPE_NAMES)})"
_GET = rf"(?:\s+get\s+{_NAME})?"
_DECL_RE = re.compile(
    rf"\(\s*define-(?:"
    rf"source\s+{_NAME}\s+{_TYPE}"
    rf"|action\s+{_NAME}\s+{_TYPE}"
    rf"|context\s+{_NAME}\s+{_TYPE}\s*\[\s*(?:when-required{_GET}"
    rf"|when-provided\s+{_NAME}{_GET}\s+({'|'.join(_PUBLISH)}))\s*\]"
    rf"|controller\s+{_NAME}\s*\[\s*when-provided\s+{_NAME}\s+do\s+{_NAME}\s*\]"
    r")\s*\)\s*")
_COMMENT_RE = re.compile(r";[^\n]*")


def _blank(m: re.Match) -> str:
    return " " * (m.end() - m.start())


def _scan(text: str) -> Specification | None:
    """The declarations of ``text``, or None at the first one the regex does not match."""
    if ";" in text:
        text = _COMMENT_RE.sub(_blank, text)
    match, types, end = _DECL_RE.match, _TYPE_NAMES, len(text)
    decls = []
    start = end - len(text.lstrip())  # str.isspace() is what \s matches
    line, line_start, prev = 1, 0, 0
    while start < end:
        m = match(text, start)
        if m is None:
            return None
        breaks = text.count("\n", prev, start)
        if breaks:
            line += breaks
            line_start = text.rfind("\n", prev, start) + 1
        pos, prev = (line, start - line_start + 1), start
        (source, source_type, action, action_type, context, context_type, required_get,
         trigger, provided_get, publish, controller, controller_trigger, controller_action) = m.groups()
        if context is not None:
            if publish is None:
                contract = InteractionContract(None, required_get, _NO)
            else:
                contract = InteractionContract(trigger, provided_get, _PUBLISH[publish])
            decls.append(ContextDecl(context, types[context_type], contract, pos=pos))
        elif source is not None:
            decls.append(SourceDecl(source, types[source_type], pos=pos))
        elif action is not None:
            decls.append(ActionDecl(action, types[action_type], pos=pos))
        else:
            decls.append(ControllerDecl(controller, controller_trigger, controller_action, pos=pos))
        start = m.end()
    return Specification(tuple(decls))


def parse(text: SourceText | str) -> Specification:
    src = text if isinstance(text, SourceText) else SourceText(text)
    spec = _scan(src.content)
    return spec if spec is not None else _Parser(src).specification()


def pretty_print(spec: Specification) -> SourceText:
    """Canonical one-declaration-per-line rendering; re-parses to an equal AST."""
    lines = [_format_declaration(d) for d in spec.declarations]
    return SourceText("".join(line + "\n" for line in lines))


def _format_declaration(decl: Declaration) -> str:
    if isinstance(decl, SourceDecl):
        return f"(define-source {decl.name} {decl.out_type})"
    if isinstance(decl, ActionDecl):
        return f"(define-action {decl.name} {decl.in_type})"
    if isinstance(decl, ContextDecl):
        return f"(define-context {decl.name} {decl.out_type} [{_format_contract(decl.contract)}])"
    return f"(define-controller {decl.name} [when-provided {decl.trigger} do {decl.action}])"


def _format_contract(c: InteractionContract) -> str:
    if c.trigger is None:
        if c.publish is not _NO:
            raise ValueError("when-required contract with a publish specification has no written form")
        return "when-required" + (f" get {c.get_target}" if c.get_target else "")
    if c.publish is _NO:
        raise ValueError("when-provided contract without a publish specification has no written form")
    words = ["when-provided", c.trigger]
    if c.get_target:
        words += ["get", c.get_target]
    words.append(c.publish.value)
    return " ".join(words)
