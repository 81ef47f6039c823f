"""Static potential-information-flow graph over a validated specification.

Edges follow the data: publications flow trigger -> subscriber, pulls flow
pulled -> puller (a pull carries no argument, so the only data movement is
the returned value), and controller commands flow controller -> action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii as _q
from operator import attrgetter

from .decls import Specification, _record
from .errors import KernelError


@_record
class FlowNode:
    name: str
    kind: str  # source | action | context | controller


@_record
class FlowEdge:
    src: str
    dst: str
    kind: str  # publish | pull | command


@dataclass(frozen=True)
class FlowGraph:
    nodes: tuple[FlowNode, ...]
    edges: tuple[FlowEdge, ...]

    @cached_property
    def _reach(self) -> tuple[set[str], list[tuple[str, set[str]]]]:
        """Node names, and every source with the names reachable from it; kept on
        the instance, not as a field, so equality, hashing and repr are unchanged."""
        succs: dict[str, list[str]] = {}
        for e in self.edges:
            succs.setdefault(e.src, []).append(e.dst)
        reach = []
        for source in {n.name for n in self.nodes if n.kind == "source"}:
            reached, stack = {source}, [source]
            while stack:
                for d in succs.get(stack.pop(), ()):
                    if d not in reached:
                        reached.add(d)
                        stack.append(d)
            reach.append((source, reached))
        return {n.name for n in self.nodes}, reach


def build_flow_graph(spec: Specification) -> FlowGraph:
    return FlowGraph(tuple(FlowNode(d.name, d.kind) for d in spec.declarations),
                     tuple(map(FlowEdge, *spec._wiring[0])))


def source_ancestors(graph: FlowGraph, name: str) -> set[str]:
    """Sources from which ``name`` is reachable; a source is its own ancestor.

    The first query on a graph walks forward once from every source and keeps
    what each walk reached, so it costs one walk per source, however few nodes
    are asked about; every query then tests ``name`` against each source's set."""
    names, reach = graph._reach
    if name not in names:
        raise KernelError("NOT_FOUND", f"'{name}' is not a node of the flow graph", component=name)
    return {source for source, reached in reach if name in reached}


_DOT_SHAPES = {"source": "box", "action": "box", "context": "ellipse", "controller": "diamond"}
# Each character that would end a DOT string or line gets its own escape, so distinct
# names stay distinct: a backslash, a quote and each line break str.splitlines knows.
_DOT_ESCAPES = str.maketrans({c: c.encode("unicode_escape").decode() for c in "\\\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}
                             | {'"': '\\"'})


def _dot_quote(name: str) -> str:
    """``name`` escaped for a DOT string on one line; every valid name, an identifier, is unchanged."""
    return name if name.isidentifier() else name.translate(_DOT_ESCAPES)


def _sorted(graph: FlowGraph) -> tuple[list[FlowNode], list[FlowEdge]]:
    return (sorted(graph.nodes, key=attrgetter("name")),
            sorted(graph.edges, key=attrgetter("src", "dst", "kind")))


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def export_graph(graph: FlowGraph, format: str) -> str:
    """Deterministic text form of the graph: 'dot' or 'json'.

    The JSON is written directly, byte-identical to ``json.dumps(indent=2)`` of
    ``{"nodes": [{"name", "kind"}...], "edges": [{"from", "to", "kind"}...]}``."""
    nodes, edges = _sorted(graph)
    if format == "dot":
        lines = ["digraph flow {"]
        for n in nodes:
            lines.append(f'  "{_dot_quote(n.name)}" [shape={_DOT_SHAPES[n.kind]}];')
        for e in edges:
            style = ", style=dashed" if e.kind == "pull" else ""
            lines.append(f'  "{_dot_quote(e.src)}" -> "{_dot_quote(e.dst)}" [label="{e.kind}"{style}];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if format == "json":
        node_items = [f'    {{\n      "name": {_q(n.name)},\n      "kind": {_q(n.kind)}\n    }}' for n in nodes]
        edge_items = [f'    {{\n      "from": {_q(e.src)},\n      "to": {_q(e.dst)},\n      "kind": {_q(e.kind)}\n    }}'
                      for e in edges]
        return f'{{\n  "nodes": {_json_list(node_items)},\n  "edges": {_json_list(edge_items)}\n}}\n'
    raise ValueError(f"unknown export format {format!r}; expected 'dot' or 'json'")
