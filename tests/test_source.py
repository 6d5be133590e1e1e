"""Rules the library's source itself keeps."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tqps"


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
