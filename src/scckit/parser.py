"""Parser and pretty-printer for the `.scc` declaration syntax.

The surface syntax is s-expression flavored:

    (define-source Camera Picture)
    (define-action Screen Picture)
    (define-context MakeAd String [when-required get IP])
    (define-context ProcessPicture Picture [when-provided Camera always_publish])
    (define-controller Display [when-provided ComposeDisplay do Screen])

Comments run from ';' to end of line. Parsing never checks cross-references;
that is validate()'s job.
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
            return InteractionContract(None, get, PublishSpec.NO)
        if head[0] == "when-provided":
            trigger = self.name("component name")
            get = None
            if self.peek() == "get":
                self.advance()
                get = self.name("component name")
            pub = self.advance()
            if pub[0] == "always_publish":
                publish = PublishSpec.ALWAYS
            elif pub[0] == "maybe_publish":
                publish = PublishSpec.MAYBE
            else:
                self.fail(pub, f"expected 'always_publish' or 'maybe_publish', found {_describe(pub[0])}")
            return InteractionContract(trigger, get, publish)
        self.fail(head, f"expected 'when-required' or 'when-provided', found {_describe(head[0])}")


def parse(text: SourceText | str) -> Specification:
    src = text if isinstance(text, SourceText) else SourceText(text)
    return _Parser(src).specification()


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
        if c.publish is not PublishSpec.NO:
            raise ValueError("when-required contract with a publish specification has no written form")
        return "when-required" + (f" get {c.get_target}" if c.get_target else "")
    if c.publish is PublishSpec.NO:
        raise ValueError("when-provided contract without a publish specification has no written form")
    words = ["when-provided", c.trigger]
    if c.get_target:
        words += ["get", c.get_target]
    words.append(c.publish.value)
    return " ".join(words)
