"""Kernel errors survive copy and pickle with every field and their message."""

import copy
import pickle

import pytest

from scckit import KernelError, ParseError, RuntimeFault


def _errors():
    missing = KernelError("MISSING_BINDING", "unbound resources: Screen")
    missing.names = ("Screen",)
    fault = RuntimeFault("PLATFORM_FAULT", "provider raised OSError: camera gone", "Camera")
    fault.step_index = 3
    return {
        "KernelError": missing,
        "KernelError with a component": KernelError("WRONG_KIND", "'A' is an action", component="A"),
        "RuntimeFault": fault,
        "ParseError": ParseError("UNKNOWN_TYPE", "unknown type 'Float'", "app.scc", 4, 17),
    }


@pytest.mark.parametrize("name", _errors())
@pytest.mark.parametrize("twin", [copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))],
                         ids=["copy", "deepcopy", "pickle"])
def test_kernel_errors_round_trip(name, twin):
    err = _errors()[name]
    again = twin(err)
    assert type(again) is type(err) and again is not err
    assert vars(again) == vars(err)
    assert (str(again), repr(again), again.args) == (str(err), repr(err), err.args)
