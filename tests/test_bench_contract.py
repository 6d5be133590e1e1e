"""The benchmark's pins on the library.

perfbench/tracing.py wraps each layer its LAYERS table names, and
perfbench/workloads.py gates every request on the verdicts and work counts
of the library's reports.  A library change that breaks either pin shows
here, in the test suite, and not only as failed benchmark requests.  Both
files are loaded by path and left as they are.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize(
    "module, path",
    tracing.LAYERS,
    ids=[tracing.layer_name(module, path) for module, path in tracing.LAYERS],
)
def test_traced_layer_exists(module, path):
    # the tracer reads the layer from the namespace that defines it
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = vars(owner)[part]
    assert attr in vars(owner)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_requests_pass_their_own_checks(name):
    for request in workloads.WORKLOADS[name].round(1, 0, True):
        reason = request.verify(request.call())
        assert reason is None, "%s: %s" % (request.kind, reason)
