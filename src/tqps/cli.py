"""Command line front end for the verification suites and lattice exports.

Exit codes: 0 when every check passes, 1 when a verification fails (the
counterexample is serialized in the report), 2 for usage errors, and 3
when a suite crashes (the traceback goes to stderr, nothing to stdout).
JSON output is canonical: sorted keys, fixed separators, byte-identical for
identical inputs.
"""

import argparse
import operator
import sys
import traceback

from . import classical_cpn, multipullback, order_lattice, sampling, tensor_gluing
from .util import DEFAULT_SEED, canonical_json, derived_rng

MAX_N = 3
# verify_freeness draws `samples` members for each of its annihilation
# checks: 575 of them at n = 4, 2346 at n = 5
MAX_FREENESS_N = 4
MAX_GENERATORS = 5
MAX_POSET = 20

_SUITES = [
    ("fdl enumerate", "counts and elements of the free distributive lattice"),
    ("birkhoff roundtrip", "the upper-set lattice of a poset transforms back to the poset"),
    ("verify psi", "the gluing map composed with itself fixes every atom tensor"),
    ("verify cocycle", "quotient chart transitions compose consistently over chart triples"),
    ("verify kernel-images", "both chart projections push a third kernel onto the same ideal"),
    ("verify freeness", "chart kernels generate a free distributive lattice, with witnesses"),
    ("classical lattice", "chartwise covering sets generate freely, by point types"),
    ("classical transitions", "the transition formula agrees with the chart-map composite"),
    ("export hasse", "Hasse diagrams of the supported lattices"),
]


def _count(kind, low, high=None):
    """Argparse type for an integer count in [low, high] (no upper cap if None)."""

    def parse(text):
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = "at least %d" % low if high is None else "between %d and %d" % (low, high)
            raise argparse.ArgumentTypeError("%s must be %s" % (kind, bound))
        return value

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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tqps",
        description="Exact checks for a Toeplitz multipullback model of projective space.",
    )
    parser.add_argument(
        "--list", action="store_true", help="list the suites and the claims they check"
    )
    sub = parser.add_subparsers(dest="command")

    fdl = sub.add_parser("fdl", help="free distributive lattice").add_subparsers(
        dest="subcommand"
    )
    fdl_enum = fdl.add_parser("enumerate", help="enumerate elements")
    fdl_enum.add_argument(
        "--generators", type=_count("generators", 1, MAX_GENERATORS), required=True
    )
    fdl_enum.add_argument("--format", choices=["json", "text"], default="text")

    birkhoff = sub.add_parser("birkhoff", help="upper-set transform").add_subparsers(
        dest="subcommand"
    )
    roundtrip = birkhoff.add_parser("roundtrip", help="poset recovery through the transform")
    roundtrip.add_argument("--poset-size", type=_count("poset size", 1, MAX_POSET), required=True)
    roundtrip.add_argument("--trials", type=_count("trials", 1), default=100)
    roundtrip.add_argument("--seed", type=int, default=DEFAULT_SEED)
    roundtrip.add_argument("--format", choices=["json", "text"], default="text")

    verify = sub.add_parser("verify", help="verification suites").add_subparsers(
        dest="subcommand"
    )
    v_psi = verify.add_parser("psi", help="gluing involution")
    v_psi.add_argument("--n", type=_count("n", 1, MAX_N), required=True)
    v_psi.add_argument("--samples", type=_count("samples", 0), default=1000)
    v_psi.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v_psi.add_argument("--format", choices=["json", "text"], default="text")

    v_coc = verify.add_parser("cocycle", help="transition cocycle")
    v_coc.add_argument("--n", type=_count("n", 2, MAX_N), required=True)
    v_coc.add_argument("--samples", type=_count("samples", 1), default=100)
    v_coc.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v_coc.add_argument("--format", choices=["json", "text"], default="text")

    v_ker = verify.add_parser("kernel-images", help="kernel image exchange")
    v_ker.add_argument("--n", type=_count("n", 2, MAX_N), required=True)
    v_ker.add_argument("--samples", type=_count("samples", 1), default=50)
    v_ker.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v_ker.add_argument("--format", choices=["json", "text"], default="text")

    v_free = verify.add_parser("freeness", help="kernel lattice freeness")
    v_free.add_argument("--n", type=_count("n", 1, MAX_FREENESS_N), required=True)
    v_free.add_argument("--seed", type=int, default=0)
    v_free.add_argument("--samples", type=_count("samples", 0), default=200)
    v_free.add_argument(
        "--generator-map",
        type=_generator_map,
        default=None,
        help="reassign generators to charts, e.g. 1=0 (degenerate control)",
    )
    v_free.add_argument("--format", choices=["json", "text"], default="text")

    classical = sub.add_parser("classical", help="classical covering lattice").add_subparsers(
        dest="subcommand"
    )
    c_lat = classical.add_parser("lattice", help="generated covering lattice")
    c_lat.add_argument("--n", type=_count("n", 1, MAX_N), required=True)
    c_lat.add_argument("--format", choices=["json", "text"], default="text")

    c_tr = classical.add_parser("transitions", help="chart transition agreement")
    c_tr.add_argument("--n", type=_count("n", 1, MAX_N), required=True)
    c_tr.add_argument("--trials", type=_count("trials", 1), default=1000)
    c_tr.add_argument("--seed", type=int, default=DEFAULT_SEED)
    c_tr.add_argument("--format", choices=["json", "text"], default="text")

    export = sub.add_parser("export", help="diagram exports").add_subparsers(dest="subcommand")
    hasse = export.add_parser("hasse", help="Hasse diagram of a lattice")
    hasse.add_argument("--target", choices=["fdl", "classical", "kernels"], required=True)
    hasse.add_argument(
        "--generators", type=_count("generators", 1, 4), default=2, help="fdl target only"
    )
    hasse.add_argument(
        "--n", type=_count("n", 1, MAX_N), default=1, help="classical and kernels targets"
    )
    hasse.add_argument("--format", choices=["dot", "json", "text"], default="dot")

    return parser


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


def _cmd_fdl_enumerate(args):
    forms = order_lattice.fdl_enumerate(args.generators)
    count_all = order_lattice.antichain_count(args.generators)
    payload = {
        "schema": 1,
        "check": "free-lattice-enumeration",
        "generators": args.generators,
        "size": len(forms),
        "antichains_with_empty": count_all,
        "consistent": len(forms) == count_all - 2,
    }
    if args.generators <= 4:
        payload["elements"] = [f.to_json() for f in forms]
    return (0 if payload["consistent"] else 1), payload


def _cmd_birkhoff_roundtrip(args):
    failures = []
    skipped = []
    for t in range(args.trials):
        rng = derived_rng(args.seed, "roundtrip", args.poset_size, t)
        poset = sampling.random_poset(rng, args.poset_size)
        try:
            lat = order_lattice.FiniteDistributiveLattice.from_upper_sets(poset)
        except ValueError:
            skipped.append(t)
            continue
        result = order_lattice.birkhoff_transform(lat)
        if not result.poset.isomorphic(poset):
            failures.append({"trial": t, "poset": poset.to_json()})
    payload = {
        "schema": 1,
        "check": "upper-set-transform-roundtrip",
        "poset_size": args.poset_size,
        "trials": args.trials,
        "seed": args.seed,
        "skipped_trials": skipped,
        "failures": failures,
        "passed": not failures,
    }
    return (0 if payload["passed"] else 1), payload


def _cmd_verify_psi(args):
    payload = tensor_gluing.psi_involution_check(args.n, samples=args.samples, seed=args.seed)
    return (0 if payload["passed"] else 1), payload


def _cmd_verify_cocycle(args):
    payload = tensor_gluing.cocycle_check(args.n, samples=args.samples, seed=args.seed)
    return (0 if payload["passed"] else 1), payload


def _cmd_verify_kernel_images(args):
    triples = [
        (i, j, k)
        for i in range(args.n + 1)
        for j in range(args.n + 1)
        for k in range(args.n + 1)
        if len({i, j, k}) == 3
    ]
    reports = [
        tensor_gluing.kernel_image_check(args.n, *t, samples=args.samples, seed=args.seed)
        for t in triples
    ]
    payload = {
        "schema": 1,
        "check": "kernel-image-exchange",
        "n": args.n,
        "samples": args.samples,
        "seed": args.seed,
        "reports": reports,
        "passed": all(r["passed"] for r in reports),
    }
    return (0 if payload["passed"] else 1), payload


def _cmd_verify_freeness(args):
    evidence = multipullback.verify_freeness(
        args.n, seed=args.seed, samples=args.samples, generator_map=args.generator_map
    )
    return (0 if evidence.free else 1), evidence.bundle


def _cmd_classical_lattice(args):
    report = classical_cpn.classical_freeness(args.n)
    payload = {
        "schema": 2,
        "check": "classical-covering-freeness",
        "n": args.n,
        "verdict": report.verdict,
        "witness": report.witness,
        "probes": report.details["probes"],
        "sublattice_size": report.details.get("sublattice_size"),
        "passed": report.free,
    }
    return (0 if payload["passed"] else 1), payload


def _cmd_classical_transitions(args):
    payload = classical_cpn.transition_agreement(args.n, trials=args.trials, seed=args.seed)
    return (0 if payload["passed"] else 1), payload


def _cmd_export_hasse(args):
    if args.target == "classical":
        elements, name = classical_cpn.covering_lattice(args.n), "classical%d" % args.n
    elif args.target == "fdl":
        elements, name = order_lattice.fdl_enumerate(args.generators), "fdl%d" % args.generators
    else:
        elements, name = order_lattice.fdl_enumerate(args.n + 1), "kernels%d" % args.n
    lat = order_lattice.FiniteDistributiveLattice.from_elements(
        elements, operator.or_, operator.and_
    )
    if args.format == "dot":
        label = None
        if args.target == "kernels":
            label = lambda i: _kernel_label(lat.elements[i])
        print(lat.to_dot(name=name, label_fn=label))
        return 0, None
    payload = {
        "schema": 1,
        "target": args.target,
        "size": lat.n,
        "covers": sorted(lat.order_poset().covers()),
        "elements": [e.to_json() for e in lat.elements],
    }
    return 0, payload


def _kernel_label(form):
    parts = form.minimal_sets()
    return " + ".join("(" + "&".join("ker%d" % i for i in s) + ")" for s in parts)


_HANDLERS = {
    ("fdl", "enumerate"): _cmd_fdl_enumerate,
    ("birkhoff", "roundtrip"): _cmd_birkhoff_roundtrip,
    ("verify", "psi"): _cmd_verify_psi,
    ("verify", "cocycle"): _cmd_verify_cocycle,
    ("verify", "kernel-images"): _cmd_verify_kernel_images,
    ("verify", "freeness"): _cmd_verify_freeness,
    ("classical", "lattice"): _cmd_classical_lattice,
    ("classical", "transitions"): _cmd_classical_transitions,
    ("export", "hasse"): _cmd_export_hasse,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        for name, claim in _SUITES:
            print("%-24s %s" % (name, claim))
        return 0
    if not args.command:
        parser.print_help()
        return 2
    subcommand = getattr(args, "subcommand", None)
    handler = _HANDLERS.get((args.command, subcommand))
    if handler is None:
        parser.error("missing subcommand for %r" % args.command)
    for k, v in (getattr(args, "generator_map", None) or {}).items():
        if not (0 <= k <= args.n and 0 <= v <= args.n):
            parser.error("generator map entry %d=%d is outside 0..%d" % (k, v, args.n))
    try:
        code, payload = handler(args)
    except Exception:
        traceback.print_exc()
        return 3
    if payload is not None:
        _emit(payload, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
