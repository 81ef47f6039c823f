"""Declaration-driven sense/compute/control application kernel.

Applications are declared as sources, actions, contexts, and controllers;
the kernel validates the declarations, derives a boundary contract for
every computing component, builds the static information-flow graph, and
runs registered implementations under capability injection with dynamic
taint tracking.
"""

import importlib

# Every export, by the module that defines it. `import scckit` loads the static
# side, the first five modules. `scc check` and `scc graph` never need the runtime
# side, so its names load on first use (PEP 562); `from scckit import X` works the
# same either way.
_EXPORTS = {
    "errors": ("KernelError", "ParseError", "RuntimeFault"),
    "decls": ("ActionDecl", "ContextDecl", "ControllerDecl", "DataType", "Declaration", "Diagnostic",
              "InteractionContract", "PublishSpec", "SourceDecl", "Specification", "output_type_of", "validate",
              "when_provided", "when_required"),
    "parser": ("SourceText", "parse", "pretty_print"),
    "contracts": ("BoundaryContract", "Capability", "CapabilityKind", "ResultKind", "derive_all",
                  "derive_contract", "render_contract"),
    "flow": ("FlowEdge", "FlowGraph", "FlowNode", "build_flow_graph", "export_graph", "source_ancestors"),
    "runtime": ("Runtime", "TraceEvent", "create_runtime"),
    "scenario": ("EmitStep", "RecordingSink", "Scenario", "ScriptedSource", "SetStep",
                 "format_scenario", "parse_scenario", "run_scenario"),
    "values": ("PictureData", "TaintedValue", "Value", "check_value", "make_picture", "overlay",
               "render_taints", "render_value"),
    "webcam": ("DEFAULT_SCENARIO", "WEBCAM_SPEC", "WebcamApp", "build_webcam_app", "webcam_spec"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
for _module in ("errors", "decls", "parser", "contracts", "flow"):
    _static = importlib.import_module(f".{_module}", __name__)
    globals().update((name, getattr(_static, name)) for name in _EXPORTS[_module])
del _module, _static


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})


__version__ = "0.1.0"
__all__ = sorted(_HOME)
