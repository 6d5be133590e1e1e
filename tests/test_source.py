"""Rules the library's source itself keeps."""

import ast
import pathlib

import pytest

from tqps.tensor_gluing import TensorElement
from tqps.toeplitz_core import ToeplitzElement

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tqps"


def test_no_check_is_an_assert_statement():
    # python -O drops assert statements, and every check they made with them
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    asserts = [
        "%s:%d" % (path.name, node.lineno)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def _files_naming(name, paths):
    return sorted(str(path.relative_to(ROOT)) for path in paths if name in path.read_text())


# A single-slot operator is a one-slot TensorElement.  ToeplitzElement
# survives only in toeplitz_core, for the benchmark's traced product, and no
# converter or second sampler comes back.


def test_only_toeplitz_core_names_the_stub_operator_class():
    assert _files_naming("ToeplitzElement", SRC.glob("*.py")) == ["src/tqps/toeplitz_core.py"]


def test_the_stub_operator_class_is_a_name_only():
    # no base to inherit a term map from, and no method but the traced one
    assert ToeplitzElement.__bases__ == (object,)
    assert [k for k, v in vars(ToeplitzElement).items() if callable(v)] == ["__mul__"]
    with pytest.raises(TypeError):
        ToeplitzElement() * ToeplitzElement()


def _library_tests_and_readme():
    tests = [path for path in (ROOT / "tests").glob("*.py") if path.name != "test_source.py"]
    return [*SRC.glob("*.py"), *tests, ROOT / "README.md"]


@pytest.mark.parametrize("name", ["embed_toeplitz", "random_toeplitz_element"])
def test_no_second_single_slot_route_returns(name):
    assert _files_naming(name, _library_tests_and_readme()) == []


# Every freeness test returns order_lattice.FreenessReport, whose bundle
# holds the verdict, the witness and the evidence; no second report class
# comes back.


def test_no_second_freeness_report_returns():
    assert _files_naming("FreenessEvidence", _library_tests_and_readme()) == []


# A class modulo slot kernels is its canonical tensor, which project_slots
# keeps, and phi maps those tensors; no class wrapping a representative
# comes back.


def test_no_quotient_class_wrapper_returns():
    assert _files_naming("QuotientClass", _library_tests_and_readme()) == []


# TensorElement is the one term map, built on object; no generic base class
# of term maps comes back.


def test_no_second_term_map_class_returns():
    assert TensorElement.__bases__ == (object,)
    assert _files_naming("Terms", _library_tests_and_readme()) == []


# util._charts is the one reader of chart collections: every entry point
# that takes a set of charts reads it there, in its words, and no second
# collection reader or second wording of its refusals comes back.


def test_no_second_chart_reader_returns():
    modules = list(SRC.glob("*.py"))
    assert _files_naming("_chart_collection", modules) == []
    assert _files_naming("chart index must be an integer between", modules) == []
    assert _files_naming("must be a collection of chart indices", modules) == ["src/tqps/util.py"]


# A private helper no one calls is a second path left beside the one in
# use: every private function or class in src/tqps (one leading underscore,
# no dunder) is named somewhere in src/tqps other than by its definition.


def _private_definitions_and_names():
    defined, named = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name)
    return defined, named


def test_every_private_helper_has_a_reference():
    defined, named = _private_definitions_and_names()
    assert len(defined) > 10
    unused = ["%s:%d %s" % d for d in defined if d[2] not in named]
    assert unused == []
