"""Typed runtime values, provenance tags, and the simulated picture payload.

Pictures stand in for bitmaps: a size, a seed identifying the pixel content,
and the ordered list of texts drawn on top. Content identity is all the
runtime ever inspects, so nothing is actually rendered.
"""

from __future__ import annotations

from .decls import DataType, _record
from .errors import KernelError

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


@_record
class PictureData:
    width: int
    height: int
    seed: int
    overlays: tuple[str, ...] = ()

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise KernelError("BAD_DIMENSIONS",
                              f"picture dimensions must be at least 1x1, got {self.width}x{self.height}")
        if type(self.overlays) is not tuple:
            object.__setattr__(self, "overlays", tuple(self.overlays))


@_record
class Value:
    tag: DataType
    payload: object


@_record
class TaintedValue:
    """A value plus the set of source names it may derive from."""

    value: Value
    taints: frozenset[str] = frozenset()

    def __post_init__(self):
        if type(self.taints) is not frozenset:
            object.__setattr__(self, "taints", frozenset(self.taints))


def make_picture(width: int, height: int, seed: int) -> Value:
    return Value(DataType.PICTURE, PictureData(width, height, seed))


def overlay(pic: PictureData, text: str) -> PictureData:
    """Copy of ``pic`` with ``text`` drawn on top; the original is untouched."""
    return PictureData(pic.width, pic.height, pic.seed, pic.overlays + (text,))


#: Each type's payload check, looked up once at bind or seal; ``cls.__instancecheck__`` is isinstance in C.
PAYLOAD_CHECKS = {
    DataType.BOOL: bool.__instancecheck__,
    # An exact int, the payload of nearly every INT value, costs one type test; subclasses fall through.
    DataType.INT: lambda p: ((type(p) is int or isinstance(p, int) and not isinstance(p, bool))
                             and INT64_MIN <= p <= INT64_MAX),
    DataType.STRING: str.__instancecheck__,
    DataType.PICTURE: PictureData.__instancecheck__,
}


def payload_matches(tag: DataType, payload: object) -> bool:
    return PAYLOAD_CHECKS[tag](payload)


def check_value(v: object, tag: DataType) -> bool:
    return isinstance(v, Value) and v.tag is tag and payload_matches(tag, v.payload)


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_value(v: Value) -> str:
    """Display form used in logs and traces."""
    if v.tag is DataType.BOOL:
        return "true" if v.payload else "false"
    if v.tag is DataType.INT:
        return str(v.payload)
    if v.tag is DataType.STRING:
        return _quote(v.payload)
    p = v.payload
    texts = ",".join(_quote(t) for t in p.overlays)
    return f"picture({p.width}x{p.height},seed={p.seed},overlays=[{texts}])"


def render_literal(v: Value) -> str:
    """Scenario-file literal form. Pictures with overlays and strings with line breaks have none."""
    if v.tag is DataType.PICTURE:
        p = v.payload
        if p.overlays:
            raise ValueError("a picture with overlays cannot be written as a scenario literal")
        return f"picture({p.width}x{p.height},seed={p.seed})"
    if v.tag is DataType.STRING and "".join(v.payload.splitlines()) != v.payload:
        raise ValueError("a string with a line break cannot be written as a scenario literal")
    return render_value(v)


def render_taints(taints: frozenset[str]) -> str:
    return "{" + ",".join(sorted(taints)) + "}"
