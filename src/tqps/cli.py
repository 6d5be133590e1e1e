"""Command line front end for the verification suites and lattice exports.

Each suite is one row of _SUITE_TABLE: its command words, the claim it
checks (printed by --list and used as its help), the function that runs
it, its options with the suite's own caps, and the test of its report.
build_parser, --list and the dispatch in main all read that table.
Options the user does not give are not passed, so a suite that runs a
library check takes the library's own defaults, which its report echoes.

Exit codes: 0 when every check passes, 1 when a verification fails (the
counterexample is serialized in the report), 2 for usage errors, and 3
when a suite crashes (the traceback goes to stderr, nothing to stdout).
JSON output is canonical: sorted keys, fixed separators, byte-identical for
identical inputs.
"""

import argparse
import collections
import itertools
import operator
import sys
import traceback

from . import classical_cpn, multipullback, order_lattice, sampling, tensor_gluing
from .util import DEFAULT_SEED, _index, canonical_json, derived_rng


def _count(kind, low, high=None):
    """Argparse type for an integer count in [low, high], in _index's words."""

    def parse(text):
        value = int(text)
        try:
            return _index(value, kind, low, high)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _generator_map(text):
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        k, _, v = part.partition("=")
        try:
            k, v = int(k), int(v)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "generator map entries are k=v with integers k and v, got %r" % part
            ) from None
        if k in out:
            raise argparse.ArgumentTypeError("generator %d is mapped twice" % k)
        out[k] = v
    return out


def _emit(payload, fmt):
    if fmt == "json":
        print(canonical_json(payload))
        return
    for line in _text_lines(payload):
        print(line)


def _text_lines(payload, prefix=""):
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            yield "%s%s:" % (prefix, key)
            yield from _text_lines(value, prefix + "  ")
        elif isinstance(value, list):
            if not value:
                yield "%s%s: none" % (prefix, key)
            elif len(value) <= 8 and all(not isinstance(v, (dict, list)) for v in value):
                yield "%s%s: %s" % (prefix, key, ", ".join(str(v) for v in value))
            else:
                yield "%s%s: %d entries" % (prefix, key, len(value))
        else:
            yield "%s%s: %s" % (prefix, key, value)


def _fdl_enumerate(generators):
    forms = order_lattice.fdl_enumerate(generators)
    count_all = order_lattice.antichain_count(generators)
    payload = {
        "schema": 1,
        "check": "free-lattice-enumeration",
        "generators": generators,
        "size": len(forms),
        "antichains_with_empty": count_all,
        "consistent": len(forms) == count_all - 2,
    }
    if generators <= 4:
        payload["elements"] = [f.to_json() for f in forms]
    return payload


def _birkhoff_roundtrip(poset_size, trials, seed):
    failures = []
    skipped = []
    for t in range(trials):
        rng = derived_rng(seed, "roundtrip", poset_size, t)
        poset = sampling.random_poset(rng, poset_size)
        try:
            lat = order_lattice.FiniteDistributiveLattice.from_upper_sets(poset)
        except ValueError:
            skipped.append(t)
            continue
        result = order_lattice.birkhoff_transform(lat)
        if not result.poset.isomorphic(poset):
            failures.append({"trial": t, "poset": poset.to_json()})
    return {
        "schema": 1,
        "check": "upper-set-transform-roundtrip",
        "poset_size": poset_size,
        "trials": trials,
        "seed": seed,
        "skipped_trials": skipped,
        "failures": failures,
        "passed": not failures,
    }


def _verify_kernel_images(n, **options):
    reports = [
        tensor_gluing.kernel_image_check(n, *triple, **options)
        for triple in itertools.permutations(range(n + 1), 3)
    ]
    return {
        "schema": 1,
        "check": "kernel-image-exchange",
        "n": n,
        "samples": reports[0]["samples"],
        "seed": reports[0]["seed"],
        "reports": reports,
        "passed": all(r["passed"] for r in reports),
    }


def _classical_lattice(n):
    report = classical_cpn.classical_freeness(n)
    return {
        "schema": 2,
        "check": "classical-covering-freeness",
        "n": n,
        "verdict": report.verdict,
        "witness": report.witness,
        "probes": report.details["probes"],
        "sublattice_size": report.details.get("sublattice_size"),
        "passed": report.free,
    }


def _export_hasse(target, generators, n, format):
    if target == "classical":
        elements, name = classical_cpn.covering_lattice(n), "classical%d" % n
    elif target == "fdl":
        elements, name = order_lattice.fdl_enumerate(generators), "fdl%d" % generators
    else:
        elements, name = order_lattice.fdl_enumerate(n + 1), "kernels%d" % n
    lat = order_lattice.FiniteDistributiveLattice.from_elements(
        elements, operator.or_, operator.and_
    )
    if format == "dot":
        label = None
        if target == "kernels":
            label = lambda i: _kernel_label(lat.elements[i])
        print(lat.to_dot(name=name, label_fn=label))
        return None
    return {
        "schema": 1,
        "target": target,
        "size": lat.n,
        "covers": sorted(lat.order_poset().covers()),
        "elements": [e.to_json() for e in lat.elements],
    }


def _kernel_label(form):
    parts = form.minimal_sets()
    return " + ".join("(" + "&".join("ker%d" % i for i in s) + ")" for s in parts)


# run(**options) gets exactly the row's options the user gave, plus those
# with a default; holds(report) decides the exit code.  A row that lists
# no --format of its own gets the json/text one.
_Suite = collections.namedtuple(
    "_Suite", "words claim run options holds", defaults=(operator.itemgetter("passed"),)
)


def _n(low, high):
    return "--n", {"type": _count("n", low, high), "required": True}


def _samples(low):
    return "--samples", {"type": _count("samples", low)}


_SEED = ("--seed", {"type": int})

_SUITE_TABLE = [
    _Suite(
        "fdl enumerate",
        "counts and elements of the free distributive lattice",
        _fdl_enumerate,
        [("--generators", {"type": _count("generators", 1, 5), "required": True})],
        holds=operator.itemgetter("consistent"),
    ),
    _Suite(
        "birkhoff roundtrip",
        "the upper-set lattice of a poset transforms back to the poset",
        _birkhoff_roundtrip,
        [
            ("--poset-size", {"type": _count("poset size", 1, 20), "required": True}),
            ("--trials", {"type": _count("trials", 1), "default": 100}),
            ("--seed", {"type": int, "default": DEFAULT_SEED}),
        ],
    ),
    _Suite(
        "verify psi",
        "the gluing map composed with itself fixes every atom tensor",
        tensor_gluing.psi_involution_check,
        [_n(1, 3), _samples(0), _SEED],
    ),
    _Suite(
        "verify cocycle",
        "quotient chart transitions compose consistently over chart triples",
        tensor_gluing.cocycle_check,
        [_n(2, 3), _samples(1), _SEED],
    ),
    _Suite(
        "verify kernel-images",
        "both chart projections push a third kernel onto the same ideal",
        _verify_kernel_images,
        [_n(2, 3), _samples(1), _SEED],
    ),
    _Suite(
        "verify freeness",
        "chart kernels generate a free distributive lattice, with witnesses",
        multipullback.verify_freeness,
        [
            # verify_freeness draws `samples` members for each of its
            # annihilation checks: 575 of them at n = 4, 2346 at n = 5
            _n(1, 4),
            _SEED,
            _samples(0),
            (
                "--generator-map",
                {
                    "type": _generator_map,
                    "help": "reassign generators to charts, e.g. 1=0 (degenerate control)",
                },
            ),
        ],
        holds=operator.attrgetter("free"),
    ),
    _Suite(
        "classical lattice",
        "chartwise covering sets generate freely, by point types",
        _classical_lattice,
        [_n(1, 8)],
    ),
    _Suite(
        "classical transitions",
        "the transition formula agrees with the chart-map composite",
        classical_cpn.transition_agreement,
        [_n(1, 3), ("--trials", {"type": _count("trials", 1)}), _SEED],
    ),
    _Suite(
        "export hasse",
        "Hasse diagrams of the supported lattices",
        _export_hasse,
        [
            ("--target", {"choices": ["fdl", "classical", "kernels"], "required": True}),
            (
                "--generators",
                {"type": _count("generators", 1, 4), "default": 2, "help": "fdl target only"},
            ),
            (
                "--n",
                {"type": _count("n", 1, 3), "default": 1, "help": "classical and kernels targets"},
            ),
            ("--format", {"choices": ["dot", "json", "text"], "default": "dot"}),
        ],
        holds=lambda report: True,
    ),
]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tqps",
        description="Exact checks for a Toeplitz multipullback model of projective space.",
    )
    parser.add_argument(
        "--list", action="store_true", help="list the suites and the claims they check"
    )
    commands = parser.add_subparsers(dest="command")
    groups = {}
    for suite in _SUITE_TABLE:
        group, name = suite.words.split()
        groups.setdefault(group, []).append((name, suite))
    for group, members in groups.items():
        names = ", ".join(name for name, _ in members)
        sub = commands.add_parser(group, help=names).add_subparsers(dest="subcommand")
        for name, suite in members:
            cmd = sub.add_parser(name, help=suite.claim, argument_default=argparse.SUPPRESS)
            dests = [cmd.add_argument(flag, **kwargs).dest for flag, kwargs in suite.options]
            if "format" not in dests:
                cmd.add_argument("--format", choices=["json", "text"], default="text")
            cmd.set_defaults(suite=suite, dests=dests)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        for suite in _SUITE_TABLE:
            print("%-24s %s" % (suite.words, suite.claim))
        return 0
    if not args.command:
        parser.print_help()
        return 2
    suite = getattr(args, "suite", None)
    if suite is None:
        parser.error("missing subcommand for %r" % args.command)
    for k, v in (getattr(args, "generator_map", None) or {}).items():
        if not (0 <= k <= args.n and 0 <= v <= args.n):
            parser.error("generator map entry %d=%d is outside 0..%d" % (k, v, args.n))
    options = {dest: getattr(args, dest) for dest in args.dests if hasattr(args, dest)}
    try:
        report = suite.run(**options)
        code = 0 if suite.holds(report) else 1
    except Exception:
        traceback.print_exc()
        return 3
    if report is not None:
        _emit(report.to_json() if hasattr(report, "to_json") else report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
