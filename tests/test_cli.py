"""End-to-end checks of the command line entry point."""

import itertools
import json
from pathlib import Path

import pytest

from tqps import classical_cpn, cli, multipullback, tensor_gluing
from tqps.cli import main
from tqps.util import canonical_json


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


def test_classical_lattice(capsys, monkeypatch):
    def no_tables(*args, **kwargs):
        raise AssertionError("the covering lattice was tabulated")

    # the verdict comes from the point types alone
    monkeypatch.setattr(cli.classical_cpn, "covering_lattice", no_tables)
    monkeypatch.setattr(cli.order_lattice.FiniteDistributiveLattice, "from_elements", no_tables)
    # past n = 4 the Dedekind table gives no size; the cap is n = 8
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
