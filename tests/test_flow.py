"""Static information-flow graph: construction, reachability, exports."""

import copy
import json
import pickle
import random

import pytest

import genspec
from scckit import (
    ActionDecl,
    ContextDecl,
    ControllerDecl,
    DataType,
    FlowEdge,
    FlowGraph,
    FlowNode,
    KernelError,
    PublishSpec,
    SourceDecl,
    Specification,
    build_flow_graph,
    export_graph,
    source_ancestors,
    validate,
    webcam_spec,
    when_provided,
    when_required,
)

WEBCAM_EDGES = {
    ("Camera", "ProcessPicture", "publish"),
    ("ProcessPicture", "ComposeDisplay", "publish"),
    ("MakeAd", "ComposeDisplay", "pull"),
    ("IP", "MakeAd", "pull"),
    ("ComposeDisplay", "Display", "publish"),
    ("Display", "Screen", "command"),
}


@pytest.fixture(scope="module")
def webcam_graph():
    return build_flow_graph(webcam_spec())


def test_webcam_nodes(webcam_graph):
    assert [(n.name, n.kind) for n in webcam_graph.nodes] == [
        ("Camera", "source"),
        ("IP", "source"),
        ("Screen", "action"),
        ("ProcessPicture", "context"),
        ("MakeAd", "context"),
        ("ComposeDisplay", "context"),
        ("Display", "controller"),
    ]


def test_webcam_edges(webcam_graph):
    assert {(e.src, e.dst, e.kind) for e in webcam_graph.edges} == WEBCAM_EDGES
    assert len(webcam_graph.edges) == 6


def test_webcam_source_ancestors(webcam_graph):
    expected = {
        "Camera": {"Camera"},
        "IP": {"IP"},
        "Screen": {"Camera", "IP"},
        "ProcessPicture": {"Camera"},
        "MakeAd": {"IP"},
        "ComposeDisplay": {"Camera", "IP"},
        "Display": {"Camera", "IP"},
    }
    for name, ancestors in expected.items():
        assert source_ancestors(webcam_graph, name) == ancestors


def test_source_ancestors_unknown_node():
    graph = build_flow_graph(webcam_spec())
    with pytest.raises(KernelError) as err:
        source_ancestors(graph, "Nonesuch")
    assert err.value.code == "NOT_FOUND"
    # The same once the first query has built the graph's closure.
    assert source_ancestors(graph, "Screen") == {"Camera", "IP"}
    with pytest.raises(KernelError) as err:
        source_ancestors(graph, "Nonesuch")
    assert (err.value.code, err.value.component) == ("NOT_FOUND", "Nonesuch")


def test_empty_graph_dot_export():
    assert export_graph(build_flow_graph(Specification(())), "dot") == "digraph flow {\n}\n"


def test_empty_graph_json_export():
    assert export_graph(build_flow_graph(Specification(())), "json") == '{\n  "nodes": [],\n  "edges": []\n}\n'


def test_dot_export_matches_golden(webcam_graph, golden_dir):
    rendered = export_graph(webcam_graph, "dot")
    assert rendered == (golden_dir / "webcam.dot").read_text(encoding="utf-8")
    assert '"MakeAd" -> "ComposeDisplay" [label="pull", style=dashed];' in rendered


def test_json_export_matches_golden(webcam_graph, golden_dir):
    rendered = export_graph(webcam_graph, "json")
    assert rendered == (golden_dir / "webcam.json").read_text(encoding="utf-8")
    payload = json.loads(rendered)
    assert len(payload["nodes"]) == 7
    assert len(payload["edges"]) == 6


def test_export_rejects_unknown_format(webcam_graph):
    with pytest.raises(ValueError):
        export_graph(webcam_graph, "svg")


def _json_oracle(graph: FlowGraph) -> str:
    """The JSON export as ``json.dumps`` writes it; independent of the emitter in the library."""
    nodes = sorted(graph.nodes, key=lambda n: n.name)
    edges = sorted(graph.edges, key=lambda e: (e.src, e.dst, e.kind))
    payload = {
        "nodes": [{"name": n.name, "kind": n.kind} for n in nodes],
        "edges": [{"from": e.src, "to": e.dst, "kind": e.kind} for e in edges],
    }
    return json.dumps(payload, indent=2) + "\n"


# Quotes, backslashes, control characters, DEL, non-ASCII, line and paragraph
# separators, a byte-order mark, astral characters and the empty name.
_ODD_NAMES = ('é"\\\n x', 'say "hi"', "back\\slash\\", "ctl\x00\x01\x08\x0c\x1b\x1f\x7f\t\r",
              "caf\u00e9 \u00ff\u0100", "\u2028\u2029\ufeff", "\U0001F4F7 cam \U0010FFFF", "")


def _odd_spec() -> Specification:
    """A spec over ``_ODD_NAMES``: every name appears as a node and on an edge."""
    decls = []
    for i, name in enumerate(_ODD_NAMES):
        prev = _ODD_NAMES[i - 1]
        decls += [
            SourceDecl(name, DataType.STRING),
            ContextDecl(name + "\x85ctx", DataType.STRING, when_required(prev)),
            ContextDecl("\u00e9" + name, DataType.STRING,
                        when_provided(name, PublishSpec.MAYBE, prev + "\x85ctx")),
            ActionDecl(name + "\U0001F50A", DataType.STRING),
            ControllerDecl(name + '"ctl', "\u00e9" + name, name + "\U0001F50A"),
        ]
    return Specification(tuple(decls))


def test_json_export_matches_json_dumps():
    specs = [genspec.random_app(seed).spec for seed in range(80)]
    specs += [webcam_spec(), Specification(()), _odd_spec()]
    for i, spec in enumerate(specs):
        graph = build_flow_graph(spec)
        assert export_graph(graph, "json") == _json_oracle(graph), i


def _dot_quote_oracle(name: str) -> str:
    """``name`` as the DOT export quotes it: each line break that ``str.splitlines`` knows
    gets its own escape, as a backslash and a quote do."""
    out = []
    for c in name:
        if c in '\\"':
            out.append("\\" + c)
        elif c.splitlines() != [c]:
            out.append({"\n": "\\n", "\r": "\\r"}.get(c) or (f"\\x{ord(c):02x}" if ord(c) < 0x100 else f"\\u{ord(c):04x}"))
        else:
            out.append(c)
    return '"' + "".join(out) + '"'


def _dot_oracle(graph: FlowGraph) -> str:
    """The DOT export, one line per node and edge; independent of the emitter in the library."""
    shapes = {"source": "box", "action": "box", "context": "ellipse", "controller": "diamond"}
    q = _dot_quote_oracle
    lines = ["digraph flow {"]
    lines += [f"  {q(n.name)} [shape={shapes[n.kind]}];" for n in sorted(graph.nodes, key=lambda n: n.name)]
    for e in sorted(graph.edges, key=lambda e: (e.src, e.dst, e.kind)):
        style = ", style=dashed" if e.kind == "pull" else ""
        lines.append(f'  {q(e.src)} -> {q(e.dst)} [label="{e.kind}"{style}];')
    return "\n".join(lines + ["}"]) + "\n"


def test_dot_export_escapes_quotes_backslashes_and_line_breaks():
    spec = Specification((
        SourceDecl('a"b', DataType.INT),
        ContextDecl("C\\", DataType.INT, when_provided('a"b', PublishSpec.ALWAYS)),
        ControllerDecl("K", "C\\", "x\ny"),
        ActionDecl("x\ny", DataType.INT),
    ))
    assert export_graph(build_flow_graph(spec), "dot") == (
        'digraph flow {\n'
        '  "C\\\\" [shape=ellipse];\n'
        '  "K" [shape=diamond];\n'
        '  "a\\"b" [shape=box];\n'
        '  "x\\ny" [shape=box];\n'
        '  "C\\\\" -> "K" [label="publish"];\n'
        '  "K" -> "x\\ny" [label="command"];\n'
        '  "a\\"b" -> "C\\\\" [label="publish"];\n'
        '}\n')


def test_dot_export_matches_oracle_on_one_line_per_node_and_edge():
    specs = [genspec.random_app(seed).spec for seed in range(20)] + [webcam_spec(), _odd_spec()]
    graphs = [build_flow_graph(spec) for spec in specs]
    # Line breaks and no quote; the first two names differ only in their line break.
    graphs.append(FlowGraph((FlowNode("x\ny", "source"), FlowNode("x\ry", "source"), FlowNode("p\u2028q\r\n", "action")),
                            (FlowEdge("x\ny", "p\u2028q\r\n", "command"), FlowEdge("x\ry", "p\u2028q\r\n", "command"))))
    for i, graph in enumerate(graphs):
        text = export_graph(graph, "dot")
        assert text == _dot_oracle(graph), i
        lines = text.splitlines()
        assert len(lines) == 2 + len(graph.nodes) + len(graph.edges), i
        assert len(set(lines)) == len(lines), i  # distinct names stay distinct


def test_exports_order_parallel_edges_by_kind():
    graph = FlowGraph((FlowNode("B", "context"), FlowNode("A", "source")),
                      (FlowEdge("A", "B", "pull"), FlowEdge("A", "B", "publish")))
    assert export_graph(graph, "dot") == (
        'digraph flow {\n  "A" [shape=box];\n  "B" [shape=ellipse];\n'
        '  "A" -> "B" [label="publish"];\n  "A" -> "B" [label="pull", style=dashed];\n}\n')
    assert export_graph(graph, "json") == _json_oracle(graph)


def _closure_oracle(graph: FlowGraph):
    """Floyd-Warshall reachability; independent of the walk in the library. Names that
    edges mention but no node has are vertices too, and get no answer."""
    vertices = list(dict.fromkeys([n.name for n in graph.nodes] + [v for e in graph.edges for v in (e.src, e.dst)]))
    reach = {a: {b: False for b in vertices} for a in vertices}
    for e in graph.edges:
        reach[e.src][e.dst] = True
    for k in vertices:
        for a in vertices:
            if reach[a][k]:
                for b in vertices:
                    if reach[k][b]:
                        reach[a][b] = True
    first = {}
    for n in graph.nodes:
        first.setdefault(n.name, n.kind)  # a repeated name is what its first node is, as in the spec index
    sources = {name for name, kind in first.items() if kind == "source"}
    return {
        n.name: {s for s in sources if s == n.name or reach[s][n.name]}
        for n in graph.nodes
    }


def test_source_ancestors_agrees_with_closure_oracle():
    for seed in range(80):
        spec = genspec.random_app(seed).spec
        graph = build_flow_graph(spec)
        oracle = _closure_oracle(graph)
        for node in graph.nodes:
            assert source_ancestors(graph, node.name) == oracle[node.name], (seed, node.name)


def _random_graph(rng: random.Random) -> FlowGraph:
    """Up to 8 nodes and 14 edges, with cycles, self-loops and edges into sources."""
    nodes = tuple(FlowNode(f"n{i}", rng.choice(("source", "context", "controller", "action")))
                  for i in range(rng.randint(1, 8)))
    names = [n.name for n in nodes]
    edges = tuple(FlowEdge(rng.choice(names), rng.choice(names), "publish") for _ in range(rng.randint(0, 14)))
    return FlowGraph(nodes, edges)


def test_source_ancestors_exact_on_cyclic_graphs():
    cycle = FlowGraph(
        (FlowNode("S", "source"), FlowNode("T", "source"), FlowNode("A", "context"),
         FlowNode("B", "context"), FlowNode("C", "controller"), FlowNode("Z", "action")),
        (FlowEdge("S", "A", "publish"), FlowEdge("A", "B", "publish"), FlowEdge("B", "A", "pull"),
         FlowEdge("B", "B", "publish"), FlowEdge("B", "T", "publish"), FlowEdge("T", "C", "publish")),
    )
    assert {n.name: source_ancestors(cycle, n.name) for n in cycle.nodes} == _closure_oracle(cycle)
    assert source_ancestors(cycle, "C") == {"S", "T"}
    rng = random.Random(11)
    for i in range(300):
        graph = _random_graph(rng)
        oracle = _closure_oracle(graph)
        for node in graph.nodes:
            assert source_ancestors(graph, node.name) == oracle[node.name], (i, graph)


def test_source_ancestors_through_undeclared_names():
    # build_flow_graph accepts specs that have not been validated; a trigger
    # that names no declaration is an edge from a name that is not a node.
    spec = Specification((
        SourceDecl("S", DataType.INT),
        ContextDecl("A", DataType.INT, when_provided("Ghost", PublishSpec.ALWAYS)),
        ContextDecl("B", DataType.INT, when_provided("S", PublishSpec.ALWAYS, "A")),
    ))
    built = build_flow_graph(spec)
    graph = FlowGraph(built.nodes, built.edges + (FlowEdge("S", "Ghost", "publish"),))
    assert source_ancestors(graph, "A") == {"S"}
    assert source_ancestors(graph, "B") == {"S"}
    with pytest.raises(KernelError) as err:
        source_ancestors(graph, "Ghost")
    assert err.value.code == "NOT_FOUND"


def test_ancestor_answers_are_fresh_sets():
    graph = build_flow_graph(webcam_spec())
    first = source_ancestors(graph, "Screen")
    first.add("Intruder")
    first.discard("Camera")
    assert source_ancestors(graph, "Screen") == {"Camera", "IP"}
    assert source_ancestors(graph, "Screen") is not source_ancestors(graph, "Screen")


def _views_and_answers(graph: FlowGraph):
    """Both exports and every node's ancestors, in that order."""
    return (export_graph(graph, "dot"), export_graph(graph, "json"),
            {n.name: source_ancestors(graph, n.name) for n in graph.nodes})


def _answers_and_views(graph: FlowGraph):
    """Every node's ancestors, then both exports: the same results as ``_views_and_answers``."""
    answers = {n.name: source_ancestors(graph, n.name) for n in graph.nodes}
    return export_graph(graph, "dot"), export_graph(graph, "json"), answers


def test_queried_graph_equals_and_hashes_as_fresh_one():
    # The export order and the ancestor masks a graph keeps once asked are invisible: exports,
    # answers, equality, hash and repr stay those of a fresh graph, also on copies and pickles.
    specs = [webcam_spec(), _odd_spec()] + [genspec.random_app(seed).spec for seed in range(20)]
    for i, spec in enumerate(specs):
        fresh = build_flow_graph(spec)
        expected = _dot_oracle(fresh), _json_oracle(fresh), _closure_oracle(fresh)
        for first in (_views_and_answers, _answers_and_views):
            used = build_flow_graph(spec)
            assert first(used) == expected, (i, first.__name__)
            assert used.__dict__.keys() >= {"_order", "_ancestry"}
            clones = copy.copy(used), copy.deepcopy(used), pickle.loads(pickle.dumps(used))
            for graph in (used, *clones):
                assert graph == fresh and not graph != fresh, i
                assert hash(graph) == hash(fresh), i
                assert repr(graph) == repr(fresh), i
            for clone in clones:
                assert _views_and_answers(clone) == expected, i
                assert _answers_and_views(clone) == expected, i
        assert fresh.__dict__.keys() == {"nodes", "edges"}


def test_exports_sort_each_graph_once():
    graph = build_flow_graph(genspec.random_app(3).spec)
    export_graph(graph, "json")
    order = graph.__dict__["_order"]
    assert export_graph(graph, "dot") == _dot_oracle(graph)
    assert export_graph(graph, "json") == _json_oracle(graph)
    assert graph.__dict__["_order"] is order


def test_source_ancestors_with_duplicate_node_names():
    # An unvalidated graph may repeat a name; it is a source if its first node is one, as a spec's
    # index has it, so a source declared after a context of its name is no source of its own.
    for nodes, x_ancestors in (((FlowNode("X", "context"), FlowNode("X", "source")), {"S"}),
                               ((FlowNode("X", "source"), FlowNode("X", "context")), {"S", "X"}),
                               ((FlowNode("X", "source"), FlowNode("X", "source")), {"S", "X"})):
        graph = FlowGraph(nodes + (FlowNode("S", "source"), FlowNode("Y", "action")),
                          (FlowEdge("X", "Y", "command"), FlowEdge("S", "X", "publish")))
        assert source_ancestors(graph, "X") == x_ancestors
        assert source_ancestors(graph, "Y") == x_ancestors
        assert {name: source_ancestors(graph, name) for name in ("X", "S", "Y")} == _closure_oracle(graph)


def test_edge_count_bound_over_generated_specs():
    for seed in range(80):
        spec = genspec.random_app(seed).spec
        graph = build_flow_graph(spec)
        provided = sum(1 for d in spec.declarations
                       if isinstance(d, ContextDecl) and d.contract.trigger is not None)
        gets = sum(1 for d in spec.declarations
                   if isinstance(d, ContextDecl) and d.contract.get_target is not None)
        controllers = sum(1 for d in spec.declarations if isinstance(d, ControllerDecl))
        assert len(graph.edges) <= provided + gets + 2 * controllers


def test_adding_declarations_never_removes_ancestors():
    base = webcam_spec()
    grown = Specification(base.declarations + (
        SourceDecl("Mic", genspec.TYPES[0]),
        ControllerDecl("Archiver", "ComposeDisplay", "Screen"),
    ))
    g_base, g_grown = build_flow_graph(base), build_flow_graph(grown)
    for node in g_base.nodes:
        assert source_ancestors(g_base, node.name) <= source_ancestors(g_grown, node.name)


def test_ladder_ancestors_follow_the_closed_form():
    # P<i>'s ancestors are T and S0..S<i>; at 4,000 stages they hold 8 million names in all.
    n = 4000
    spec = genspec.ladder(n)
    assert validate(spec) == []
    graph = build_flow_graph(spec)
    for i in (n - 1, 0, 1, 2, 1000, 2047, n - 2, *random.Random(4).sample(range(n), 8)):
        assert source_ancestors(graph, f"P{i}") == {"T", *(f"S{j}" for j in range(i + 1))}, i
        assert source_ancestors(graph, f"S{i}") == {f"S{i}"}, i
    everything = {"T", *(f"S{j}" for j in range(n))}
    assert source_ancestors(graph, "C") == source_ancestors(graph, "A") == everything
    assert source_ancestors(graph, "T") == {"T"}


def test_ladder_agrees_with_closure_oracle_with_and_without_back_edges():
    for n in range(1, 7):
        base = build_flow_graph(genspec.ladder(n))
        last = f"P{n - 1}"
        graphs = [base] + [FlowGraph(base.nodes, base.edges + extra) for extra in (
            # A cycle through every stage; an edge into a source halfway up; a cycle through every
            # node, and a self-loop; a cycle through a name that is no node.
            (FlowEdge(last, "P0", "publish"),),
            (FlowEdge(last, f"S{n // 2}", "publish"),),
            (FlowEdge("A", "T", "command"), FlowEdge(last, last, "publish")),
            (FlowEdge(last, "Ghost", "publish"), FlowEdge("Ghost", "P0", "pull")),
        )]
        for graph in graphs:
            oracle = _closure_oracle(graph)
            added = graph.edges[len(base.edges):]
            assert {name: source_ancestors(graph, name) for name in oracle} == oracle, (n, added)


def test_source_ancestors_exact_on_cyclic_graphs_through_names_that_are_no_nodes():
    rng = random.Random(12)
    for i in range(300):
        graph = _random_graph(rng)
        names = [n.name for n in graph.nodes] + ["g0", "g1"]
        extra = tuple(FlowEdge(rng.choice(names), rng.choice(names), "pull") for _ in range(rng.randint(1, 6)))
        graph = FlowGraph(graph.nodes, graph.edges + extra)
        oracle = _closure_oracle(graph)
        assert {name: source_ancestors(graph, name) for name in oracle} == oracle, (i, graph)
        for ghost in ("g0", "g1"):
            with pytest.raises(KernelError):
                source_ancestors(graph, ghost)
