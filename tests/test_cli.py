"""End-to-end checks of the command line entry point."""

import importlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tqps import classical_cpn, cli, multipullback, tensor_gluing
from tqps.cli import main
from tqps.order_lattice import FiniteDistributiveLattice, Poset, fdl_enumerate, fdl_join, fdl_meet
from tqps.sampling import random_poset
from tqps.util import canonical_json, derived_rng


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv + ["--format", "json"])
    return code, json.loads(out)


def test_list_names_every_suite(capsys):
    code, out = run(capsys, ["--list"])
    assert code == 0
    for name in (
        "fdl enumerate",
        "birkhoff roundtrip",
        "verify psi",
        "verify cocycle",
        "verify kernel-images",
        "verify freeness",
        "classical lattice",
        "classical transitions",
        "export hasse",
    ):
        assert name in out


def test_console_script_runs_the_cli(capsys):
    # the [project.scripts] entry that pip installs as `tqps`
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["tqps"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry(["--list"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["%-24s %s" % (s.words, s.claim) for s in cli._SUITE_TABLE]


def test_no_command_prints_help(capsys):
    code, out = run(capsys, [])
    assert code == 2
    assert "usage" in out.lower()


def test_fdl_enumerate(capsys):
    code, payload = run_json(capsys, ["fdl", "enumerate", "--generators", "3"])
    assert code == 0
    assert payload["size"] == 18
    assert payload["antichains_with_empty"] == 20
    assert payload["consistent"] is True
    code, out = run(capsys, ["fdl", "enumerate", "--generators", "2"])
    assert code == 0
    assert "size: 4" in out


def test_fdl_enumerate_lists_small_cases(capsys):
    code, payload = run_json(capsys, ["fdl", "enumerate", "--generators", "2"])
    assert code == 0
    assert len(payload["elements"]) == 4


def test_birkhoff_roundtrip(capsys):
    code, payload = run_json(
        capsys,
        ["birkhoff", "roundtrip", "--poset-size", "5", "--trials", "20", "--seed", "3"],
    )
    assert code == 0
    assert payload["passed"] is True
    assert payload["trials"] == 20


def test_birkhoff_roundtrip_skips_a_trial_without_a_lattice(capsys, monkeypatch):
    real = FiniteDistributiveLattice.from_upper_sets
    calls = []

    def refusing_the_second(poset):
        calls.append(poset)
        if len(calls) == 2:
            raise ValueError("too many upper sets")
        return real(poset)

    monkeypatch.setattr(FiniteDistributiveLattice, "from_upper_sets", refusing_the_second)
    code, payload = run_json(
        capsys, ["birkhoff", "roundtrip", "--poset-size", "4", "--trials", "3"]
    )
    assert len(calls) == 3
    assert code == 0
    assert payload["skipped_trials"] == [1]
    assert payload["failures"] == []
    assert payload["passed"] is True


def test_birkhoff_roundtrip_reports_each_failed_trial(capsys, monkeypatch):
    monkeypatch.setattr(Poset, "isomorphic", lambda self, other: False)
    code, payload = run_json(
        capsys, ["birkhoff", "roundtrip", "--poset-size", "4", "--trials", "3", "--seed", "5"]
    )
    assert code == 1
    assert payload["passed"] is False
    assert payload["skipped_trials"] == []
    assert payload["failures"] == [
        {"trial": t, "poset": random_poset(derived_rng(5, "roundtrip", 4, t), 4).to_json()}
        for t in range(3)
    ]


def test_verify_psi(capsys):
    code, payload = run_json(capsys, ["verify", "psi", "--n", "2", "--samples", "40"])
    assert code == 0
    assert payload["passed"] is True
    assert payload["check"] == "gluing-involution"


def test_verify_cocycle(capsys):
    code, payload = run_json(capsys, ["verify", "cocycle", "--n", "2", "--samples", "10"])
    assert code == 0
    assert payload["passed"] is True


def test_verify_kernel_images(capsys):
    code, payload = run_json(
        capsys, ["verify", "kernel-images", "--n", "2", "--samples", "5"]
    )
    assert code == 0
    assert payload["passed"] is True
    assert len(payload["reports"]) == 6
    assert all(r["passed"] for r in payload["reports"])


def test_verify_freeness(capsys):
    code, payload = run_json(
        capsys, ["verify", "freeness", "--n", "1", "--samples", "10"]
    )
    assert code == 0
    assert payload["verdict"] == "FREE"


def test_verify_freeness_reaches_four_charts(capsys):
    code, payload = run_json(capsys, ["verify", "freeness", "--n", "4", "--samples", "1"])
    assert code == 0
    assert payload["verdict"] == "FREE"
    assert len(payload["separations"]) == 180
    with pytest.raises(SystemExit) as exc:
        main(["verify", "freeness", "--n", "5"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "psi", "--n", "4"])  # the other suites stay at n = 3
    assert exc.value.code == 2


def test_verify_freeness_control_fails(capsys):
    code, payload = run_json(
        capsys,
        [
            "verify",
            "freeness",
            "--n",
            "2",
            "--samples",
            "10",
            "--generator-map",
            "1=0",
        ],
    )
    assert code == 1
    assert payload["verdict"] == "NOT_FREE"
    assert payload["witness"]["clause"] == "order"


def test_an_empty_generator_map_entry_is_skipped(capsys):
    argv = ["verify", "freeness", "--n", "2", "--samples", "1", "--generator-map"]
    assert run_json(capsys, argv + ["1=0,"]) == run_json(capsys, argv + ["1=0"])


def test_text_output_indents_the_witness(capsys):
    argv = ["verify", "freeness", "--n", "2", "--samples", "1", "--generator-map", "1=0"]
    code, out = run(capsys, argv + ["--format", "text"])
    assert code == 1
    witness = "witness:\n  I: 0\n  J: 1\n  clause: order\n"
    assert witness + "  expected_leq: False\n  observed_leq: True\n" in out


def test_classical_lattice(capsys, monkeypatch):
    def no_tables(*args, **kwargs):
        raise AssertionError("the covering lattice was tabulated")

    # the verdict comes from the point types alone
    monkeypatch.setattr(cli.classical_cpn, "covering_lattice", no_tables)
    monkeypatch.setattr(cli.order_lattice.FiniteDistributiveLattice, "from_elements", no_tables)
    # past n = 4 the size is not measured; the cap is n = 8
    for n, size in ((1, 4), (2, 18), (3, 166), (8, None)):
        code, payload = run_json(capsys, ["classical", "lattice", "--n", str(n)])
        assert code == 0
        assert payload["schema"] == 2
        assert payload["verdict"] == "FREE"
        assert payload["witness"] is None
        assert payload["probes"] == 2 ** (n + 1) - 2
        assert payload["sublattice_size"] == size
        assert payload["passed"] is True
    with pytest.raises(SystemExit) as exc:
        main(["classical", "lattice", "--n", "9"])
    assert exc.value.code == 2
    assert "n must be between 1 and 8, got 9" in capsys.readouterr().err


def test_readme_lists_the_suites_of_tqps_list(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    listing = section.split("```\n", 2)[1]
    code, out = run(capsys, ["--list"])
    assert code == 0
    assert listing == out


def test_classical_transitions(capsys):
    code, payload = run_json(
        capsys, ["classical", "transitions", "--n", "2", "--trials", "25"]
    )
    assert code == 0
    assert payload["passed"] is True


def test_export_hasse_dot(capsys):
    code, out = run(capsys, ["export", "hasse", "--target", "fdl", "--generators", "2"])
    assert code == 0
    assert out.startswith("digraph")
    assert "->" in out


def test_export_hasse_targets(capsys):
    for target, extra in (
        ("classical", ["--n", "1"]),
        ("kernels", ["--n", "1"]),
    ):
        code, out = run(capsys, ["export", "hasse", "--target", target] + extra)
        assert code == 0
        assert "digraph" in out


def test_export_hasse_kernel_labels(capsys):
    code, out = run(capsys, ["export", "hasse", "--target", "kernels", "--n", "1"])
    assert code == 0
    assert "ker" in out


# every size export hasse accepts
_EXPORTS = [("fdl", "--generators", g) for g in (1, 2, 3, 4)]
_EXPORTS += [(target, "--n", n) for target in ("classical", "kernels") for n in (1, 2, 3)]


def _export_argv(target, flag, size):
    return ["export", "hasse", "--target", target, flag, str(size)]


def test_export_hasse_builds_no_tables(capsys, monkeypatch):
    def no_tables(*args, **kwargs):
        raise AssertionError("the exported lattice was tabulated")

    # the up-set elements hold their own order
    monkeypatch.setattr(cli.order_lattice.FiniteDistributiveLattice, "from_elements", no_tables)
    for export in _EXPORTS:
        for fmt in ("dot", "json", "text"):
            code, out = run(capsys, _export_argv(*export) + ["--format", fmt])
            assert code == 0, (export, fmt)
            assert out


@pytest.mark.parametrize(
    "target, flag, size", _EXPORTS, ids=["%s %s %d" % export for export in _EXPORTS]
)
def test_export_hasse_covers_match_the_table_order(capsys, target, flag, size):
    if target == "classical":
        elements = classical_cpn.covering_lattice(size)
    else:
        elements = fdl_enumerate(size if target == "fdl" else size + 1)
    # the reference order is the one the join table of the tabulated
    # lattice defines
    lat = FiniteDistributiveLattice.from_elements(elements, fdl_join, fdl_meet)
    pairs = [(i, j) for i in range(lat.n) for j in range(lat.n) if i != j and lat.leq(i, j)]
    code, payload = run_json(capsys, _export_argv(target, flag, size))
    assert code == 0
    assert payload["size"] == lat.n
    assert payload["elements"] == [e.to_json() for e in elements]
    assert [tuple(c) for c in payload["covers"]] == sorted(Poset(range(lat.n), pairs).covers())


def test_json_output_is_deterministic(capsys):
    argv = ["verify", "psi", "--n", "1", "--samples", "20", "--format", "json"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second


def test_bad_arguments_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "psi", "--n", "9"])  # beyond the supported range
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "psi"])  # --n is required
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["fdl", "enumerate", "--generators", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # a command without its subcommand
    assert exc.value.code == 2
    assert "missing subcommand for 'verify'" in capsys.readouterr().err


_LIBRARY_WORDS = {
    "7=0": "generator must be between 0 and 2, got 7",
    "1=3": "generator's chart must be between 0 and 2, got 3",
    "abc": "n must be an integer, got 'abc'",
    "1.5": "poset size must be an integer, got '1.5'",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "psi", "--n", "2", "--samples", "-1"],
        ["verify", "freeness", "--n", "2", "--samples", "-3"],
        ["classical", "transitions", "--n", "2", "--trials", "-3"],
        ["verify", "cocycle", "--n", "2", "--samples", "0"],
        ["verify", "kernel-images", "--n", "2", "--samples", "0"],
        ["verify", "cocycle", "--n", "1"],
        ["verify", "kernel-images", "--n", "1"],
        ["classical", "transitions", "--n", "2", "--trials", "0"],
        ["birkhoff", "roundtrip", "--poset-size", "4", "--trials", "0"],
        ["verify", "freeness", "--n", "2", "--generator-map", "7=0"],
        ["verify", "freeness", "--n", "2", "--generator-map", "1=3"],
        ["verify", "freeness", "--n", "2", "--generator-map", "1=0,1=2"],
        ["verify", "freeness", "--n", "2", "--generator-map", "1"],
        ["verify", "psi", "--n", "abc"],
        ["birkhoff", "roundtrip", "--poset-size", "1.5"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_counts_that_check_nothing_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the message states the rule; argparse's fallback names the parser function
    assert "invalid" not in captured.err
    # a generator map entry out of range is refused in the library's words
    assert _LIBRARY_WORDS.get(argv[-1], "") in captured.err


def test_an_extension_error_under_a_generator_map_is_a_crash(capsys, monkeypatch):
    def failing_extension(partial, n):
        raise multipullback.ExtensionError("completion failed")

    monkeypatch.setattr(multipullback, "extend", failing_extension)
    argv = ["verify", "freeness", "--n", "2", "--samples", "1", "--generator-map", "1=2,2=1"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ExtensionError: completion failed" in captured.err


def test_a_crashing_suite_is_not_a_refuted_claim(capsys, monkeypatch):
    def crash(**options):
        raise RuntimeError("suite crashed")

    table = [
        suite._replace(run=crash) if suite.words == "verify cocycle" else suite
        for suite in cli._SUITE_TABLE
    ]
    monkeypatch.setattr(cli, "_SUITE_TABLE", table)
    code = main(["verify", "cocycle", "--n", "2", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "Traceback" in captured.err
    assert "RuntimeError: suite crashed" in captured.err


@pytest.mark.parametrize(
    "suite, library_call",
    [
        ("verify psi", tensor_gluing.psi_involution_check),
        ("verify cocycle", tensor_gluing.cocycle_check),
        ("verify freeness", lambda n: multipullback.verify_freeness(n).to_json()),
        ("classical transitions", classical_cpn.transition_agreement),
    ],
    ids=["verify psi", "verify cocycle", "verify freeness", "classical transitions"],
)
def test_each_default_is_the_library_default(capsys, suite, library_call):
    code, out = run(capsys, suite.split() + ["--n", "2", "--format", "json"])
    assert code == 0
    assert out == canonical_json(library_call(2)) + "\n"


def test_kernel_images_default_is_the_library_default(capsys):
    code, payload = run_json(capsys, ["verify", "kernel-images", "--n", "2"])
    assert code == 0
    reports = [
        tensor_gluing.kernel_image_check(2, *triple)
        for triple in itertools.permutations(range(3), 3)
    ]
    assert payload["reports"] == json.loads(canonical_json(reports))
    for report in reports:
        assert (payload["samples"], payload["seed"]) == (report["samples"], report["seed"])


def test_readme_example_is_the_text_output(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    command = "$ tqps verify psi --n 2 --samples 200\n"
    example = readme.split(command, 1)[1].split("\n\n", 1)[0] + "\n"
    code, out = run(capsys, command.split()[2:])
    assert code == 0
    assert out == example


@pytest.mark.parametrize("stdout", ["reader-gone", "no-descriptor"])
@pytest.mark.parametrize(
    "argv, status",
    [
        (["--list"], 0),
        (["export", "hasse", "--target", "fdl", "--generators", "4", "--format", "dot"], 0),
        (["verify", "psi", "--n", "2", "--samples", "1", "--format", "json"], 0),
        (["verify", "psi", "--n", "2", "--samples", "1"], 0),
        (["verify", "freeness", "--n", "2", "--samples", "1", "--generator-map", "1=0"], 1),
    ],
    ids=["list", "hasse-dot", "psi-json", "psi-text", "refuted-control"],
)
def test_a_closed_stdout_keeps_the_status_quietly(argv, status, stdout):
    # reader-gone: stdout is a pipe whose reader is gone before the first
    # write, as with `| head` once head has exited, so the write fails at
    # once, every time.  no-descriptor: descriptor 1 is closed, as by
    # `>&-`, and Python starts with sys.stdout set to None
    read_end, write_end = os.pipe()
    os.close(read_end)
    if stdout == "reader-gone":
        redirect = {"stdout": write_end}
    else:
        redirect = {"preexec_fn": lambda: os.close(1)}
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tqps.cli", *argv],
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
            **redirect,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == status
