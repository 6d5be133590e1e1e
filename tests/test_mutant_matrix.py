"""The mutant matrix: the exit status of each suite on each mutant.

Every cell runs a suite's command at `--n 2 --format json` in process,
through cli.main, with its row's mutant from tests/mutants.py patched in.
Exit 1 is a refutation; exit 3 is a crash, never a refutation.  A cell,
row or column check that should refute but does not yet is a strict xfail
naming the ROADMAP item whose prover closes it, so the run fails once
that prover lands until the table here is moved to match.

Run as a script, `PYTHONPATH=src:tests python tests/test_mutant_matrix.py`
prints the exit status of every cell as a Markdown table.
"""

import contextlib
import functools
import io

import pytest

import mutants
from tqps import classical_cpn, cli, tensor_gluing
from tqps.tensor_gluing import TensorElement
from tqps.util import derived_rng

# each column's command words, before the options every cell shares
SUITES = {
    "psi": ("verify", "psi"),
    "cocycle": ("verify", "cocycle"),
    "kernel-images": ("verify", "kernel-images"),
    "freeness": ("verify", "freeness"),
    "classical transitions": ("classical", "transitions"),
}

# the exit status each cell expects, by mutant; None is the library itself
EXPECTED = {
    None: dict.fromkeys(SUITES, 0),
    "a": dict.fromkeys(SUITES, 0),
    "b": dict.fromkeys(SUITES, 0),
    "c": dict.fromkeys(SUITES, 0),
    "s": {**dict.fromkeys(SUITES, 0), "cocycle": 1, "freeness": 1},
    "t": {**dict.fromkeys(SUITES, 0), "classical transitions": 1},
    "u": {**dict.fromkeys(SUITES, 0), "cocycle": 1, "kernel-images": 1, "freeness": 1},
    "m": {**dict.fromkeys(SUITES, 0), "kernel-images": 1, "freeness": 1},
    "d": {**dict.fromkeys(SUITES, 0), "cocycle": 1, "freeness": 1},
}

# cells expected to refute that do not yet, and the item that closes each
PENDING = {
    (mutant, "freeness"): "ROADMAP item 2: verify freeness crashes on (%s), exit 3, as "
    "extend raises ExtensionError; the orbit walk reports NOT_FREE instead" % mutant
    for mutant in "sumd"
}

# suites that refute no mutant yet, and the item that closes each
UNREFUTING = {
    "psi": "ROADMAP item 3: each mutated reflection is still an involution, so the "
    "sampled psi check passes every mutant; its proof must refute one",
    "freeness": "ROADMAP item 2: (s), (u), (m) and (d) crash verify freeness with exit 3, "
    "and a crash is no refutation",
}

# the degree mutants no suite refutes yet
DEGREE_MUTANTS = "abc"


@functools.cache
def _run(mutant, suite):
    """Exit status and stderr of the suite at n = 2, the mutant patched in."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if mutant is not None:
            mutants.MUTANTS[mutant](mp)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*SUITES[suite], "--n", "2", "--format", "json"])
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


def test_every_mutant_has_a_row():
    assert set(EXPECTED) - {None} == set(mutants.MUTANTS) == set(mutants.DESCRIPTIONS)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: no suite reads a matrix unit's degree or the reflected "
    "exponent through a check that can fail on it",
)
def test_some_suite_refutes_each_degree_mutant():
    unrefuted = [m for m in DEGREE_MUTANTS if not any(_run(m, suite)[0] == 1 for suite in SUITES)]
    assert unrefuted == []


@pytest.mark.parametrize("mutant", sorted(set(mutants.MUTANTS) - set(DEGREE_MUTANTS)))
def test_some_suite_refutes_mutant(mutant):
    assert any(_run(mutant, suite)[0] == 1 for suite in SUITES)


def _columns():
    for suite in SUITES:
        reason = UNREFUTING.get(suite)
        marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
        yield pytest.param(suite, marks=marks, id=suite)


@pytest.mark.parametrize("suite", list(_columns()))
def test_suite_refutes_some_mutant(suite):
    assert any(_run(mutant, suite)[0] == 1 for mutant in mutants.MUTANTS)


@pytest.mark.parametrize("mutant", [m for m in sorted(mutants.MUTANTS) if m != "t"])
def test_every_mutant_changes_glue(monkeypatch, mutant):
    # a shift and a matrix unit: every move reads the unit's degree, and the
    # moves from chart 2 keep the term, so a sign shows too
    x = TensorElement.pure((("T", 1), ("E", 0, 1)))
    moves = [(src, dst) for src in range(3) for dst in range(3) if src != dst]
    before = [tensor_gluing.glue(x, src, dst) for src, dst in moves]
    mutants.MUTANTS[mutant](monkeypatch)
    assert [tensor_gluing.glue(x, src, dst) for src, dst in moves] != before


def test_the_transition_mutant_changes_the_transition(monkeypatch):
    # a point on the overlap of charts 0 and 1 at n = 2, read in chart 0
    x = classical_cpn.random_overlap_point(derived_rng(1, "mutant"), 2, 0, 1)
    p = classical_cpn.ChartPoint(classical_cpn.chart(0, x), tensor_gluing.slot_for(0, 1))
    before = classical_cpn.transition(p, 0, 1)
    mutants.MUTANTS["t"](monkeypatch)
    after = classical_cpn.transition(p, 0, 1)
    assert after.circle_slot == before.circle_slot
    assert after.distance(before) > classical_cpn.TRANSITION_TOL


def test_a_line_not_found_once_makes_no_mutant():
    with pytest.raises(LookupError, match="has 0 lines"):
        mutants._rewritten_move_circle("h += 1", "h += 2")


def markdown_table():
    """The exit status of every cell as a Markdown table, one row a mutant;
    a pending cell shows the status it expects after its own."""
    lines = [
        "| mutant | %s |" % " | ".join(SUITES),
        "|---|%s" % ("---|" * len(SUITES)),
    ]
    for mutant in EXPECTED:
        label = "library" if mutant is None else "(%s) %s" % (mutant, mutants.DESCRIPTIONS[mutant])
        cells = []
        for suite in SUITES:
            cell = str(_run(mutant, suite)[0])
            if (mutant, suite) in PENDING:
                cell += " (pending: %d)" % EXPECTED[mutant][suite]
            cells.append(cell)
        lines.append("| %s | %s |" % (label, " | ".join(cells)))
    return "\n".join(lines)


def test_the_table_shows_each_expected_status():
    rows = [line.split(" | ")[1:] for line in markdown_table().splitlines()[2:]]
    assert len(rows) == len(EXPECTED)
    for (mutant, expected), row in zip(EXPECTED.items(), rows):
        for suite, cell in zip(SUITES, row):
            cell = cell.rstrip(" |")
            if (mutant, suite) in PENDING:
                assert cell.endswith("(pending: %d)" % expected[suite])
            else:
                assert cell == str(expected[suite])


if __name__ == "__main__":
    print("### Mutant matrix: exit status of each suite at --n 2\n")
    print(markdown_table())
