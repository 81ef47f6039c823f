"""Scripted platform resources and the `.scn` scenario driver.

A scenario is a line-per-step script against a sealed runtime:

    # provision the ad text, then capture a frame
    set IP "Ads Inc"
    emit Camera picture(640x480,seed=7)

``set`` updates a source's pull value without publishing; ``emit`` does both.
Literals are true/false, decimal integers, double-quoted strings with \\"
and \\\\ escapes, and picture(WxH,seed=N).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .decls import DataType, NAME_RE
from .errors import KernelError, ParseError
from .runtime import Runtime
from .values import INT64_MAX, INT64_MIN, PictureData, Value, render_literal


class ScriptedSource:
    """Source provider whose current value is driven by a scenario."""

    def __init__(self, initial: Value | None = None):
        self._current = initial

    def set(self, v: Value) -> None:
        self._current = v

    def current(self) -> Value | None:
        return self._current


class RecordingSink:
    """Action sink that keeps every delivered value, in order."""

    def __init__(self):
        self.deliveries: list[Value] = []

    def __call__(self, v: Value) -> None:
        self.deliveries.append(v)


@dataclass(frozen=True)
class SetStep:
    source: str
    value: Value


@dataclass(frozen=True)
class EmitStep:
    source: str
    value: Value


Step = SetStep | EmitStep


@dataclass(frozen=True)
class Scenario:
    steps: tuple[Step, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))


_HEAD_RE = re.compile(rf"\s*(?:(#|$)|(set|emit)\b\s*(?:({NAME_RE.pattern})\s*)?)?")
_LITERAL_RE = re.compile(r"""
    "(?P<string>(?:[^"\\]|\\["\\])*)(?:(?P<closed>")|(?P<escape>\\)|)  # neither: unterminated
  | (?P<word>true|false)\b
  | picture(?:\((?P<width>[0-9]+)x(?P<height>[0-9]+),seed=(?P<seed>-?[0-9]+)\))?  # neither: malformed
  | (?P<number>-?[0-9]+)
""", re.VERBOSE)
_GAP_RE = re.compile(r"\s*")


def parse_scenario(text: str, origin: str = "<memory>") -> Scenario:
    steps = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        head = _HEAD_RE.match(line)
        blank, cmd, name = head.groups()
        if blank is not None:
            continue
        at = head.end()  # where the missing or faulty part starts
        lit = _LITERAL_RE.match(line, at) if name else None
        string, closed, escape, word, width, height, seed, number = lit.groups() if lit else (None,) * 8
        value = None
        if cmd is None:
            detail = "expected 'set' or 'emit'"
        elif name is None:
            detail = "expected a source name"
        elif lit is None:
            detail = f"expected a literal, found {line[at:]!r}" if line[at:] else "expected a literal"
        elif closed:
            value = Value(DataType.STRING, re.sub(r"\\(.)", r"\1", string))
        elif escape:
            at, detail = lit.start("escape"), "unknown escape; only \\\" and \\\\ are supported"
        elif string is not None:
            detail = "unterminated string literal"
        elif word:
            value = Value(DataType.BOOL, word == "true")
        elif number is not None and INT64_MIN <= int(number) <= INT64_MAX:
            value = Value(DataType.INT, int(number))
        elif number is not None:
            detail = "integer literal out of 64-bit range"
        elif width is None:
            detail = "malformed picture literal; expected picture(WxH,seed=N)"
        elif not INT64_MIN <= int(seed) <= INT64_MAX:
            detail = "picture seed out of 64-bit range"
        else:
            try:
                value = Value(DataType.PICTURE, PictureData(int(width), int(height), int(seed)))
            except KernelError as exc:
                detail = exc.detail
        if value is not None:
            at = _GAP_RE.match(line, lit.end()).end()
            if line[at:at + 1] in ("", "#"):
                steps.append((SetStep if cmd == "set" else EmitStep)(name, value))
                continue
            detail = f"unexpected text after step: {line[at:]!r}"
        raise ParseError("SCENARIO_PARSE_ERROR", detail, origin, lineno, at + 1)
    return Scenario(tuple(steps))


def format_scenario(sc: Scenario) -> str:
    """Canonical text whose parse is ``sc`` again."""
    lines = []
    for step in sc.steps:
        cmd = "set" if isinstance(step, SetStep) else "emit"
        lines.append(f"{cmd} {step.source} {render_literal(step.value)}")
    return "".join(line + "\n" for line in lines)


def run_scenario(rt: Runtime, sc: Scenario) -> None:
    """Apply the steps in order; errors carry the failing step index."""
    for index, step in enumerate(sc.steps):
        try:
            if isinstance(step, SetStep):
                rt.set_source(step.source, step.value)
            else:
                rt.emit(step.source, step.value)
        except KernelError as exc:
            exc.step_index = index
            raise
