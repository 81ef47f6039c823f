"""Declaration-driven sense/compute/control application kernel.

Applications are declared as sources, actions, contexts, and controllers;
the kernel validates the declarations, derives a boundary contract for
every computing component, builds the static information-flow graph, and
runs registered implementations under capability injection with dynamic
taint tracking.
"""

import importlib

from .contracts import (
    BoundaryContract,
    Capability,
    CapabilityKind,
    ResultKind,
    derive_all,
    derive_contract,
    render_contract,
)
from .decls import (
    ActionDecl,
    ContextDecl,
    ControllerDecl,
    DataType,
    Declaration,
    Diagnostic,
    InteractionContract,
    PublishSpec,
    SourceDecl,
    Specification,
    output_type_of,
    validate,
    when_provided,
    when_required,
)
from .errors import KernelError, ParseError, RuntimeFault
from .flow import FlowEdge, FlowGraph, FlowNode, build_flow_graph, export_graph, source_ancestors
from .parser import SourceText, parse, pretty_print

# `scc check` and `scc graph` never need the runtime side, so its names load
# on first use (PEP 562); `from scckit import X` works the same either way.
_LAZY = {
    "runtime": ("Runtime", "TraceEvent", "create_runtime"),
    "scenario": ("EmitStep", "RecordingSink", "Scenario", "ScriptedSource", "SetStep",
                 "format_scenario", "parse_scenario", "run_scenario"),
    "values": ("PictureData", "TaintedValue", "Value", "check_value", "make_picture", "overlay",
               "render_taints", "render_value"),
    "webcam": ("DEFAULT_SCENARIO", "WEBCAM_SPEC", "WebcamApp", "build_webcam_app", "webcam_spec"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_HOME})


__version__ = "0.1.0"

# The eager names imported above and the lazy ones, in code-point order.
__all__ = sorted([
    "BoundaryContract", "Capability", "CapabilityKind", "ResultKind", "derive_all", "derive_contract",
    "render_contract", "ActionDecl", "ContextDecl", "ControllerDecl", "DataType", "Declaration", "Diagnostic",
    "InteractionContract", "PublishSpec", "SourceDecl", "Specification", "output_type_of", "validate",
    "when_provided", "when_required", "KernelError", "ParseError", "RuntimeFault", "FlowEdge", "FlowGraph",
    "FlowNode", "build_flow_graph", "export_graph", "source_ancestors", "SourceText", "parse", "pretty_print",
    *_HOME,
])
