"""Static potential-information-flow graph over a validated specification.

Edges follow the data: publications flow trigger -> subscriber, pulls flow
pulled -> puller (a pull carries no argument, so the only data movement is
the returned value), and controller commands flow controller -> action.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Nodes and edges. Views derived on first use, the export order (``_order``) and the
    ancestor masks (``_ancestry``), sit in the instance dict, out of equality, hashing and repr."""

    nodes: tuple[FlowNode, ...]
    edges: tuple[FlowEdge, ...]


def build_flow_graph(spec: Specification) -> FlowGraph:
    return FlowGraph(tuple(FlowNode(d.name, d.kind) for d in spec.declarations),
                     tuple(map(FlowEdge, *spec._wiring[0])))


def _ancestry(graph: FlowGraph) -> tuple[dict[str, int], list[str]]:
    """Each node's source ancestors, as a bitmask over ``sources``, made once per graph.

    Kahn's topological pass ORs each vertex's mask into its successors' once all of its own
    in-edges are taken, so each edge is taken once: linear in nodes and edges, and each OR
    costs a machine word per 30 sources. Vertices on or behind a cycle never come due; a
    worklist over them then ORs until nothing changes, which can take each of their edges
    once per source. A name that edges mention but no node has carries reachability like any
    vertex, and is dropped at the end."""
    masks, sources = {}, []
    for n in graph.nodes:
        if n.kind == "source" and n.name not in masks:  # a name's first node only, as the spec index numbers sources
            masks[n.name] = 1 << len(sources)
            sources.append(n.name)
        else:
            masks.setdefault(n.name, 0)
    nodes = len(masks)  # names that are not nodes are added after these
    succs, waits = {}, {}  # waits: each vertex's in-edges, counted down until its last is taken
    for e in graph.edges:
        d = e.dst
        succs.setdefault(e.src, []).append(d)
        waits[d] = waits.get(d, 0) + 1
    due = [v for v in succs if v not in waits]
    roots = len(due)
    for v in due:
        m = masks.get(v, 0)
        for d in succs.get(v, ()):
            masks[d] = masks.get(d, 0) | m
            w = waits[d]
            if w == 1:
                due.append(d)
            else:
                waits[d] = w - 1
    if len(due) < roots + len(waits):
        done = set(due)
        work = [v for v in succs if v not in done]
        for v in work:
            m = masks.get(v, 0)
            for d in succs[v]:
                old = masks.get(d, 0)
                if old | m != old:
                    masks[d] = old | m
                    if d in succs:
                        work.append(d)
    if len(masks) > nodes:
        for v in list(masks)[nodes:]:
            del masks[v]
    ancestry = graph.__dict__["_ancestry"] = masks, sources
    return ancestry


def source_ancestors(graph: FlowGraph, name: str) -> set[str]:
    """Sources from which ``name`` is reachable; a source is its own ancestor.

    The first query on a graph finds every node's ancestors in one pass, linear in nodes
    and edges on an acyclic graph (see ``_ancestry``), and keeps them on the graph; each
    query then reads ``name``'s mask into a fresh set, one step per source in the answer."""
    masks, sources = graph.__dict__.get("_ancestry") or _ancestry(graph)
    mask = masks.get(name)
    if mask is None:
        raise KernelError("NOT_FOUND", f"'{name}' is not a node of the flow graph", component=name)
    answer = set()
    while mask:
        low = mask & -mask
        answer.add(sources[low.bit_length() - 1])
        mask ^= low
    return answer


_DOT_SHAPES = {"source": "box", "action": "box", "context": "ellipse", "controller": "diamond"}
# Each character that would end a DOT string or line gets its own escape, so distinct
# names stay distinct: a backslash, a quote and each line break str.splitlines knows.
_DOT_ESCAPES = str.maketrans({c: c.encode("unicode_escape").decode() for c in "\\\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}
                             | {'"': '\\"'})


def _dot_quote(name: str) -> str:
    """``name`` escaped for a DOT string on one line. The DOT export writes an identifier, as every
    valid name is, unchanged without calling it: a call for every name took a sixth of the export."""
    return name.translate(_DOT_ESCAPES)


def _order(graph: FlowGraph) -> tuple[tuple[FlowNode, ...], tuple[FlowEdge, ...]]:
    """The nodes by name and the edges by source, target and kind: sorted once per graph,
    on the first export, and shared by both formats."""
    order = graph.__dict__.get("_order")
    if order is None:
        order = graph.__dict__["_order"] = (tuple(sorted(graph.nodes, key=attrgetter("name"))),
                                            tuple(sorted(graph.edges, key=attrgetter("src", "dst", "kind"))))
    return order


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def export_graph(graph: FlowGraph, format: str) -> str:
    """Deterministic text form of the graph: 'dot' or 'json'.

    Both formats list the nodes and edges in one order, sorted on a graph's first export and
    kept on it (``_order``). The JSON is written directly, byte-identical to
    ``json.dumps(indent=2)`` of ``{"nodes": [{"name", "kind"}...], "edges": [{"from", "to", "kind"}...]}``."""
    nodes, edges = _order(graph)
    if format == "dot":
        lines = ["digraph flow {"]
        for n in nodes:
            name = n.name
            lines.append(f'  "{name if name.isidentifier() else _dot_quote(name)}" [shape={_DOT_SHAPES[n.kind]}];')
        for e in edges:
            src, dst = e.src, e.dst
            src, dst = src if src.isidentifier() else _dot_quote(src), dst if dst.isidentifier() else _dot_quote(dst)
            style = ", style=dashed" if e.kind == "pull" else ""
            lines.append(f'  "{src}" -> "{dst}" [label="{e.kind}"{style}];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if format == "json":
        node_items = [f'    {{\n      "name": {_q(n.name)},\n      "kind": {_q(n.kind)}\n    }}' for n in nodes]
        edge_items = [f'    {{\n      "from": {_q(e.src)},\n      "to": {_q(e.dst)},\n      "kind": {_q(e.kind)}\n    }}'
                      for e in edges]
        return f'{{\n  "nodes": {_json_list(node_items)},\n  "edges": {_json_list(edge_items)}\n}}\n'
    raise ValueError(f"unknown export format {format!r}; expected 'dot' or 'json'")
