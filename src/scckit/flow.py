"""Static potential-information-flow graph over a validated specification.

Edges follow the data: publications flow trigger -> subscriber, pulls flow
pulled -> puller (a pull carries no argument, so the only data movement is
the returned value), and controller commands flow controller -> action.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from .decls import ContextDecl, ControllerDecl, Specification
from .errors import KernelError


@dataclass(frozen=True)
class FlowNode:
    name: str
    kind: str  # source | action | context | controller


@dataclass(frozen=True)
class FlowEdge:
    src: str
    dst: str
    kind: str  # publish | pull | command


@dataclass(frozen=True)
class FlowGraph:
    nodes: tuple[FlowNode, ...]
    edges: tuple[FlowEdge, ...]

    def __post_init__(self):
        # Built once, for source_ancestors; not fields, so equality is unchanged.
        preds: dict[str, list[str]] = {}
        for e in self.edges:
            preds.setdefault(e.dst, []).append(e.src)
        object.__setattr__(self, "_preds", preds)
        object.__setattr__(self, "_names", {n.name for n in self.nodes})
        object.__setattr__(self, "_sources", {n.name for n in self.nodes if n.kind == "source"})


def build_flow_graph(spec: Specification) -> FlowGraph:
    nodes = tuple(FlowNode(d.name, d.kind) for d in spec.declarations)
    edges = []
    for d in spec.declarations:
        if isinstance(d, ContextDecl):
            if d.contract.trigger is not None:
                edges.append(FlowEdge(d.contract.trigger, d.name, "publish"))
            if d.contract.get_target is not None:
                edges.append(FlowEdge(d.contract.get_target, d.name, "pull"))
        elif isinstance(d, ControllerDecl):
            edges.append(FlowEdge(d.trigger, d.name, "publish"))
            edges.append(FlowEdge(d.name, d.action, "command"))
    return FlowGraph(nodes, tuple(edges))


def source_ancestors(graph: FlowGraph, name: str) -> set[str]:
    """Sources from which ``name`` is reachable; a source is its own ancestor."""
    if name not in graph._names:
        raise KernelError("NOT_FOUND", f"'{name}' is not a node of the flow graph", component=name)
    reached = {name}
    frontier = deque([name])
    while frontier:
        for p in graph._preds.get(frontier.popleft(), ()):
            if p not in reached:
                reached.add(p)
                frontier.append(p)
    return reached & graph._sources


_DOT_SHAPES = {"source": "box", "action": "box", "context": "ellipse", "controller": "diamond"}


def export_graph(graph: FlowGraph, format: str) -> str:
    """Deterministic text form of the graph: 'dot' or 'json'."""
    nodes = sorted(graph.nodes, key=lambda n: n.name)
    edges = sorted(graph.edges, key=lambda e: (e.src, e.dst, e.kind))
    if format == "dot":
        lines = ["digraph flow {"]
        for n in nodes:
            lines.append(f'  "{n.name}" [shape={_DOT_SHAPES[n.kind]}];')
        for e in edges:
            style = ", style=dashed" if e.kind == "pull" else ""
            lines.append(f'  "{e.src}" -> "{e.dst}" [label="{e.kind}"{style}];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if format == "json":
        payload = {
            "nodes": [{"name": n.name, "kind": n.kind} for n in nodes],
            "edges": [{"from": e.src, "to": e.dst, "kind": e.kind} for e in edges],
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown export format {format!r}; expected 'dot' or 'json'")
