"""The README's library quick start and CLI example run as written."""

import doctest
import pathlib

from tqps.cli import main

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


def test_cli_example_matches_the_output(capsys):
    command = "$ tqps verify psi --n 2 --samples 200\n"
    text = README.read_text()
    block = text[text.index(command) + len(command) :]
    expected = block[: block.index("\n\n") + 1]
    assert main(command.split()[2:]) == 0
    assert capsys.readouterr().out == expected
