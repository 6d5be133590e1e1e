"""Rules the library's source itself keeps."""

import ast
import pathlib

import pytest

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


@pytest.mark.parametrize("name", ["embed_toeplitz", "random_toeplitz_element"])
def test_no_second_single_slot_route_returns(name):
    tests = [path for path in (ROOT / "tests").glob("*.py") if path.name != "test_source.py"]
    assert _files_naming(name, [*SRC.glob("*.py"), *tests, ROOT / "README.md"]) == []
