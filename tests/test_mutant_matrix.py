"""The mutant matrix: the exit status of each verify suite on each mutant.

Every cell runs `tqps verify <suite> --n 2 --format json` in process,
through cli.main, with its row's mutant from tests/mutants.py patched in.
Exit 1 is a refutation; exit 3 is a crash, never a refutation.  A cell or
row check that should refute but does not yet is a strict xfail naming
the ROADMAP item whose prover closes it, so the run fails once that
prover lands until the table here is moved to match.
"""

import contextlib
import functools
import io

import pytest

import mutants
from tqps import cli, tensor_gluing
from tqps.tensor_gluing import TensorElement

SUITES = ("psi", "cocycle", "kernel-images", "freeness")

# the exit status each cell expects, by mutant; None is the library itself
EXPECTED = {
    None: dict.fromkeys(SUITES, 0),
    "a": dict.fromkeys(SUITES, 0),
    "b": dict.fromkeys(SUITES, 0),
    "c": dict.fromkeys(SUITES, 0),
    "s": {"psi": 0, "cocycle": 1, "kernel-images": 0, "freeness": 1},
}

# cells expected to refute that do not yet, and the item that closes each
PENDING = {
    ("s", "freeness"): "ROADMAP item 2: verify freeness crashes on (s), exit 3, as extend "
    "raises ExtensionError; the orbit walk reports NOT_FREE instead",
}


@functools.cache
def _run(mutant, suite):
    """Exit status and stderr of the suite at n = 2, the mutant patched in."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if mutant is not None:
            mutants.MUTANTS[mutant](mp)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", suite, "--n", "2", "--format", "json"])
    return code, err.getvalue()


def _cells():
    for mutant, row in EXPECTED.items():
        for suite, status in row.items():
            pending = PENDING.get((mutant, suite))
            marks = [pytest.mark.xfail(strict=True, reason=pending)] if pending else []
            yield pytest.param(
                mutant, suite, status, marks=marks, id="%s-%s" % (mutant or "library", suite)
            )


@pytest.mark.parametrize("mutant, suite, status", list(_cells()))
def test_cell(mutant, suite, status):
    code, err = _run(mutant, suite)
    assert code == status, err[-2000:]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: no suite reads a matrix unit's degree or the reflected "
    "exponent through a check that can fail on it",
)
def test_some_suite_refutes_each_degree_mutant():
    unrefuted = [m for m in "abc" if not any(_run(m, suite)[0] == 1 for suite in SUITES)]
    assert unrefuted == []


@pytest.mark.parametrize("mutant", sorted(mutants.MUTANTS))
def test_every_mutant_changes_glue(monkeypatch, mutant):
    # a shift and a matrix unit: every move reads the unit's degree, and the
    # moves from chart 2 keep the term, so a sign shows too
    x = TensorElement.pure((("T", 1), ("E", 0, 1)))
    moves = [(src, dst) for src in range(3) for dst in range(3) if src != dst]
    before = [tensor_gluing.glue(x, src, dst) for src, dst in moves]
    mutants.MUTANTS[mutant](monkeypatch)
    assert [tensor_gluing.glue(x, src, dst) for src, dst in moves] != before


def test_a_line_not_found_once_makes_no_mutant():
    with pytest.raises(LookupError, match="has 0 lines"):
        mutants._rewritten_move_circle("h += 1", "h += 2")
