"""The package's exports: `__all__`, eager and lazily loaded names, `dir()`."""

import importlib
import os
import subprocess
import sys

import pytest

import scckit

# `__all__` in order, each name with the module that defines it.
EXPORTS = {
    "ActionDecl": "decls",
    "BoundaryContract": "contracts",
    "Capability": "contracts",
    "CapabilityKind": "contracts",
    "ContextDecl": "decls",
    "ControllerDecl": "decls",
    "DEFAULT_SCENARIO": "webcam",
    "DataType": "decls",
    "Declaration": "decls",
    "Diagnostic": "decls",
    "EmitStep": "scenario",
    "FlowEdge": "flow",
    "FlowGraph": "flow",
    "FlowNode": "flow",
    "InteractionContract": "decls",
    "KernelError": "errors",
    "ParseError": "errors",
    "PictureData": "values",
    "PublishSpec": "decls",
    "RecordingSink": "scenario",
    "ResultKind": "contracts",
    "Runtime": "runtime",
    "RuntimeFault": "errors",
    "Scenario": "scenario",
    "ScriptedSource": "scenario",
    "SetStep": "scenario",
    "SourceDecl": "decls",
    "SourceText": "parser",
    "Specification": "decls",
    "TaintedValue": "values",
    "TraceEvent": "runtime",
    "Value": "values",
    "WEBCAM_SPEC": "webcam",
    "WebcamApp": "webcam",
    "build_flow_graph": "flow",
    "build_webcam_app": "webcam",
    "check_value": "values",
    "create_runtime": "runtime",
    "derive_all": "contracts",
    "derive_contract": "contracts",
    "export_graph": "flow",
    "format_scenario": "scenario",
    "make_picture": "values",
    "output_type_of": "decls",
    "overlay": "values",
    "parse": "parser",
    "parse_scenario": "scenario",
    "pretty_print": "parser",
    "render_contract": "contracts",
    "render_taints": "values",
    "render_value": "values",
    "run_scenario": "scenario",
    "source_ancestors": "flow",
    "validate": "decls",
    "webcam_spec": "webcam",
    "when_provided": "decls",
    "when_required": "decls",
}
LAZY_MODULES = ("runtime", "scenario", "values", "webcam")


def test_all_is_frozen():
    assert scckit.__all__ == list(EXPORTS)


def test_every_export_is_its_defining_modules_object():
    wrong = [name for name, home in EXPORTS.items()
             if getattr(scckit, name) is not getattr(importlib.import_module(f"scckit.{home}"), name)]
    assert wrong == []


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from scckit import *", namespace)
    assert {name: namespace[name] for name in EXPORTS} == {name: getattr(scckit, name) for name in EXPORTS}
    assert set(EXPORTS) <= set(dir(scckit))


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError) as err:
        scckit.nope
    assert str(err.value) == "module 'scckit' has no attribute 'nope'"


_FRESH_IMPORT = """
import sys
import scckit
loaded = sorted(name for name in sys.modules if name.startswith("scckit."))
assert loaded == ["scckit.contracts", "scckit.decls", "scckit.errors", "scckit.flow", "scckit.parser"], loaded
lazy = [f"scckit.{name}" for name in sys.argv[1:]]
assert not [name for name in lazy if name in sys.modules], "loaded by a plain import"
assert set(scckit.__all__) <= set(dir(scckit))
for name in sys.argv[1:]:
    assert getattr(scckit, name) is sys.modules[f"scckit.{name}"]
assert scckit.create_runtime is sys.modules["scckit.runtime"].create_runtime
"""


def test_plain_import_defers_the_lazy_modules_until_first_use(repo_root):
    env = {**os.environ, "PYTHONPATH": str(repo_root / "src")}
    probe = subprocess.run([sys.executable, "-c", _FRESH_IMPORT, *LAZY_MODULES],
                           env=env, capture_output=True, text=True)
    assert (probe.returncode, probe.stderr) == (0, "")
