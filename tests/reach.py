"""The reach map: which functions of src/tqps each source of traffic calls.

Three sources are traced apart, each under one sys.setprofile hook that
keeps the code object of every Python call:

- suites: every _SUITE_TABLE row of tqps.cli through cli.main, in process,
  with each count option at its smallest value and once per --format and
  --target it offers, plus `classical lattice --n 4` and the freeness
  control `verify freeness --n 2 --generator-map 1=0`;
- workloads: one --tiny round of each workload in perfbench/workloads.py,
  built and checked as tests/test_bench_contract.py does;
- readme: the README's library quick start, run through doctest.

A call is read as the function whose `def` line or first decorator line
is its code object's co_firstlineno, so Pythons that put a decorated
function's first line on either map it alike.
Run as a script, `PYTHONPATH=src:tests python tests/reach.py` prints, per
module, the functions no source reaches and, for the rest, the sources
that reach each.  The map is not a gate.
"""

import argparse
import ast
import contextlib
import doctest
import importlib.util
import io
import itertools
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tqps"


def definitions():
    """{(file, line): (module, qualname, lines)} for every def under SRC,
    keyed by its `def` line and by its first decorator's line; lines runs
    from the `def` to the last line of the body."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        module = "tqps." + path.stem
        file = os.path.realpath(path)

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    entry = (module, prefix + child.name, child.end_lineno - child.lineno + 1)
                    out[file, child.lineno] = entry
                    for decorator in child.decorator_list:
                        out[file, decorator.lineno] = entry
                    walk(child, prefix + child.name + ".")

        walk(ast.parse(path.read_text(), str(path)), "")
    return out


def reached(run, defs=None):
    """The (module, qualname) of every src/tqps function that run() calls,
    its output to stdout and stderr discarded."""
    defs = definitions() if defs is None else defs
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(hook)
        try:
            run()
        finally:
            sys.setprofile(previous)
    files = {}
    out = set()
    for code in codes:
        file = files.get(code.co_filename)
        if file is None:
            file = files[code.co_filename] = os.path.realpath(code.co_filename)
        entry = defs.get((file, code.co_firstlineno))
        if entry is not None:
            out.add(entry[:2])
    return out


def _suite_argvs(cli):
    """The argv lists of the suites source: each row once per --format and
    choice it offers, every count option at its smallest value."""
    for suite in cli._SUITE_TABLE:
        counts, choices = [], {"--format": ["json", "text"]}
        for flag, kwargs in suite.options:
            if "choices" in kwargs:
                choices[flag] = kwargs["choices"]
            elif kwargs.get("required"):
                counts += [flag, str(_smallest(kwargs["type"]))]
        argvs = [suite.words.split() + counts]
        for flag, values in choices.items():
            argvs = [argv + [flag, v] for argv in argvs for v in values]
        yield from argvs
    yield ["classical", "lattice", "--n", "4", "--format", "json"]
    yield ["verify", "freeness", "--n", "2", "--generator-map", "1=0", "--format", "json"]


def _smallest(count):
    """The smallest value a cli._count argparse type accepts."""
    for value in itertools.count():
        try:
            count(str(value))
        except argparse.ArgumentTypeError:
            continue
        return value


def run_suites():
    # imported here, so that run as a script the calls that build
    # _SUITE_TABLE at import count for the suites
    import tqps.cli as cli

    for argv in _suite_argvs(cli):
        # every suite passes at these sizes; the control refutes
        expected = 1 if "--generator-map" in argv else 0
        if cli.main(argv) != expected:
            raise AssertionError("tqps %s did not exit %d" % (" ".join(argv), expected))


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, ROOT / "perfbench" / (name + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_workloads():
    workloads = _load("workloads")
    for name in sorted(workloads.WORKLOADS):
        for request in workloads.WORKLOADS[name].round(1, 0, True):
            reason = request.verify(request.call())
            if reason is not None:
                raise AssertionError("%s: %s" % (request.kind, reason))


def run_readme():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Library quick start") :]
    block = section[section.index("```python\n") + len("```python\n") :]
    block = block[: block.index("```")]
    test = doctest.DocTestParser().get_doctest(block, {}, "README quick start", "README.md", 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    if runner.failures:
        raise AssertionError("%d README examples failed" % runner.failures)


SOURCES = {"suites": run_suites, "workloads": run_workloads, "readme": run_readme}


def reach_map():
    """{(module, qualname): (lines, sources that reach it)} for every def."""
    defs = definitions()
    by_source = {name: reached(run, defs) for name, run in SOURCES.items()}
    return {
        entry[:2]: (entry[2], tuple(s for s in SOURCES if entry[:2] in by_source[s]))
        for entry in set(defs.values())
    }


def markdown(table):
    unreached = [key for key, (_, sources) in table.items() if not sources]
    lines = [
        "### Reach map of src/tqps",
        "",
        "%d of %d functions are reached by no source (%d lines from `def` to last line)."
        % (len(unreached), len(table), sum(table[key][0] for key in unreached)),
    ]
    for module in sorted({module for module, _ in table}):
        groups = {}
        for (mod, name), (_, sources) in sorted(table.items()):
            if mod == module:
                groups.setdefault(sources, []).append(name)
        lines += ["", "**%s**" % module, ""]
        for sources in sorted(groups, key=lambda s: (len(s), s)):
            label = ", ".join(sources) or "no source"
            lines.append("- %s: %s" % (label, ", ".join("`%s`" % n for n in groups[sources])))
    return "\n".join(lines)


if __name__ == "__main__":
    print(markdown(reach_map()))
