"""The benchmark's pins on the library.

perfbench/tracing.py wraps each layer its LAYERS table names,
perfbench/workloads.py gates every request on the verdicts and work counts
of the library's reports, and perfbench/worker.py empties and reads the
atom product cache of tensor_gluing around every timed and traced run.  A
library change that breaks any of these pins shows here, in the test
suite, and not only as failed benchmark requests.  The files are loaded or
parsed by path and left as they are.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from tqps import tensor_gluing

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


def test_worker_reads_the_atom_product_cache():
    # every tensor_gluing.<name>.<attribute> the worker reads, from its source
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    reads = {
        (node.value.attr, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "tensor_gluing"
    }
    assert {("_mul_toeplitz_atoms", "cache_info"), ("_mul_toeplitz_atoms", "cache_clear")} <= reads
    for name, attr in reads:
        assert callable(getattr(getattr(tensor_gluing, name), attr)), (name, attr)
