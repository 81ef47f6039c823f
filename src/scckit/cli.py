"""Command-line front end: `scc check`, `scc graph`, `scc demo`.

Exit codes: 0 success, 1 spec or runtime failure, 2 usage or I/O trouble.
Diagnostics go to stderr, one per line as `<file>:<line>:<col>: <CODE>:
<message>`; artifacts (contracts, graphs, run logs) go to stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .contracts import derive_all, render_contract
from .decls import Specification, validate
from .errors import KernelError, ParseError
from .flow import build_flow_graph, export_graph
from .parser import SourceText, parse


class _CliIOError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is not text
    except OSError as exc:
        raise _CliIOError(f"scc: cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _CliIOError(f"scc: cannot read {path}: {exc}") from exc


def _load_spec(path: str) -> Specification | None:
    """Parse and validate; on any diagnostic, report to stderr and return None."""
    try:
        spec = parse(SourceText(_read_text(path), origin=path))
    except ParseError as exc:
        print(exc, file=sys.stderr)
        return None
    report = validate(spec)
    if report:
        for d in report:
            line, col = spec.declarations[d.index].pos or (0, 0)
            print(f"{path}:{line}:{col}: {d.code}: {d.message}", file=sys.stderr)
        return None
    return spec


def cmd_check(args) -> int:
    spec = _load_spec(args.spec)
    if spec is None:
        return 1
    if args.contracts:
        for name, contract in derive_all(spec).items():
            print(f"{name}: {render_contract(contract)}")
    return 0


def cmd_graph(args) -> int:
    spec = _load_spec(args.spec)
    if spec is None:
        return 1
    rendered = export_graph(build_flow_graph(spec), args.format)
    if args.out is None:
        sys.stdout.write(rendered)
    else:
        try:
            Path(args.out).write_text(rendered, encoding="utf-8")
        except OSError as exc:
            raise _CliIOError(f"scc: cannot write {args.out}: {exc.strerror or exc}") from exc
    return 0


def cmd_demo(args) -> int:
    # Imported here so that `scc check` and `scc graph` never load the runtime.
    from .scenario import parse_scenario, run_scenario
    from .values import render_taints, render_value
    from .webcam import DEFAULT_SCENARIO, build_webcam_app

    if args.scenario is None:
        text, origin = DEFAULT_SCENARIO, "<default>"
    else:
        text, origin = _read_text(args.scenario), args.scenario
    try:
        sc = parse_scenario(text, origin)
    except ParseError as exc:
        print(exc, file=sys.stderr)
        return 1
    app = build_webcam_app(trace=_print_trace if args.trace else None)
    try:
        run_scenario(app.runtime, sc)
    except KernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for target, tv in app.runtime.action_log():
        print(f"{target} <- {render_value(tv.value)} taints={render_taints(tv.taints)}")
    return 0


def _print_trace(ev) -> None:
    from .values import render_taints, render_value

    if ev.kind == "activate":
        if ev.value is None:
            print(f"* activate {ev.component}")
        else:
            print(f"* activate {ev.component} <- {render_value(ev.value.value)} "
                  f"taints={render_taints(ev.value.taints)}")
    else:
        print(f"* pull {ev.component} <- {ev.target} = {render_value(ev.value.value)} "
              f"taints={render_taints(ev.value.taints)}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scc",
        description="Check, analyze, and demo sense/compute/control declarations.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and validate a declaration file")
    check.add_argument("spec", help="path to a .scc file")
    check.add_argument("--contracts", action="store_true",
                       help="print each derived boundary contract on success")

    graph = sub.add_parser("graph", help="export the static information-flow graph")
    graph.add_argument("spec", help="path to a .scc file")
    graph.add_argument("--format", choices=["dot", "json"], default="dot")
    graph.add_argument("--out", default=None, help="output path (default: stdout)")

    demo = sub.add_parser("demo", help="run the bundled webcam application")
    demo.add_argument("--scenario", default=None, help="path to a .scn script")
    demo.add_argument("--trace", action="store_true",
                      help="print activations and pulls as they happen")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"check": cmd_check, "graph": cmd_graph, "demo": cmd_demo}[args.command]
    try:
        return handler(args)
    except _CliIOError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
