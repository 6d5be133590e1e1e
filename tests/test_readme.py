"""The README's library quick start runs as written."""

import doctest
import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    block = section[section.index("```python\n") + len("```python\n") :]
    block = block[: block.index("```")]
    test = doctest.DocTestParser().get_doctest(block, {}, "README quick start", str(README), 0)
    assert len(test.examples) == 10
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.failures == 0
