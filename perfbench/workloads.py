"""The benchmark's four workloads: request kinds, known answers, check counts.

A workload is an endless cycle of rounds.  Every round holds the same fixed
mix of request kinds, so each run sees the same kind shares.  The shares keep
the 50% and 90% ranks of the verdict times inside one kind's block (kinds
sorted by their time), so a percentile never flips from one kind to another.

A request calls the public tqps entry points the CLI suites call and returns a
JSON-ready report.  `verify` compares the report with the answer known in
advance and returns None when it matches, else the reason.  `checks` is the
number of elementary checks behind the verdict, fixed by the request's own
parameters.

Library functions are looked up through their modules at call time, never
bound when a round is built, so the traced run sees the wrapped versions.
"""

from itertools import combinations
from math import comb

from tqps import classical_cpn, multipullback, order_lattice, sampling, tensor_gluing
from tqps.util import derived_rng

# Free distributive lattice sizes without the empty and the full antichain:
# Dedekind numbers (OEIS A000372) minus 2, for 3, 4 and 5 generators.
FREE_LATTICE_SIZE = {3: 18, 4: 166, 5: 7579}

# Toeplitz atoms (7 shifts, 16 matrix units) and circle atoms (7 exponents)
# in the exhaustive psi sweep at the library's default degree and index bounds.
TOEPLITZ_ATOMS = 23
CIRCLE_ATOMS = 7

# Non-injective generator maps for n = 2; each must come back NOT_FREE with
# an order witness.
CONTROL_MAPS = ({1: 0}, {2: 0}, {2: 1}, {0: 1}, {0: 2}, {1: 2})


class Request:
    __slots__ = ("kind", "call", "verify", "checks")

    def __init__(self, kind, call, verify, checks):
        self.kind = kind
        self.call = call
        self.verify = verify
        self.checks = checks


def _expect_passed(report):
    return None if report["passed"] is True else "claim reported as failing"


# ---------------------------------------------------------------- gluing


def _cocycle(n, samples, seed):
    triples = comb(n + 1, 3) + 2

    def call():
        return tensor_gluing.cocycle_check(n, samples=samples, seed=seed)

    def verify(report):
        if len(report["triples"]) != triples:
            return "checked %d triples, expected %d" % (len(report["triples"]), triples)
        return _expect_passed(report)

    return Request("cocycle", call, verify, samples * triples)


def _kernel_images(n, samples, seed):
    triples = [
        (i, j, k)
        for i in range(n + 1)
        for j in range(n + 1)
        for k in range(n + 1)
        if len({i, j, k}) == 3
    ]

    def call():
        reports = [
            tensor_gluing.kernel_image_check(n, *t, samples=samples, seed=seed) for t in triples
        ]
        return {"n": n, "reports": reports, "passed": all(r["passed"] for r in reports)}

    return Request("kernel_images", call, _expect_passed, 2 * samples * len(triples))


def _psi(n, samples, seed):
    checks = TOEPLITZ_ATOMS ** (n - 1) * CIRCLE_ATOMS + samples

    def call():
        return tensor_gluing.psi_involution_check(n, samples=samples, seed=seed)

    def verify(report):
        if report["atoms_and_samples"] != checks:
            return "checked %d tensors, expected %d" % (report["atoms_and_samples"], checks)
        return _expect_passed(report)

    return Request("psi", call, verify, checks)


def gluing_round(seed, index, tiny):
    """Cocycle 30% (fastest), kernel images 40%, psi sweep 30% (slowest):
    the median lands mid kernel images, the 90th percentile inside psi."""
    cn, cs, kn, ks, pn, ps = (3, 1, 2, 2, 2, 10) if tiny else (4, 2, 3, 5, 3, 100)
    rng = derived_rng(seed, "perfbench", "gluing", index)
    out = [_cocycle(cn, cs, rng.getrandbits(32)) for _ in range(3)]
    out += [_kernel_images(kn, ks, rng.getrandbits(32)) for _ in range(4)]
    out += [_psi(pn, ps, rng.getrandbits(32)) for _ in range(3)]
    rng.shuffle(out)
    return out


# -------------------------------------------------------------- freeness


def _freeness_work(n, samples):
    """Separations and annihilation samples behind a FREE verdict of
    verify_freeness(n) with an injective generator map.

    The order clause separates each proper index set J from every strictly
    larger index set.  The irreducibility clause, for each proper index set
    I, has one row per chart outside I, and each row samples every strict
    superset of I.
    """
    g = n + 1
    separations = sum(comb(g, r) * (2 ** (g - r) - 1) for r in range(1, g))
    rows = sum(comb(g, r) * (g - r) * (2 ** (g - r) - 1) for r in range(1, g))
    return separations, rows * samples


def _free(kind, n, samples, seed):
    separations, annihilation = _freeness_work(n, samples)

    def call():
        return multipullback.verify_freeness(n, seed=seed, samples=samples).bundle

    def verify(bundle):
        if bundle["verdict"] != "FREE":
            return "verdict %s, expected FREE" % bundle["verdict"]
        drawn = sum(a["samples"] for row in bundle["irreducibility"] for a in row["annihilation"])
        done = (len(bundle["separations"]), drawn)
        if done != (separations, annihilation):
            return "separations/samples %d/%d, expected %d/%d" % (
                done + (separations, annihilation)
            )
        return None

    return Request(kind, call, verify, separations + annihilation)


def _control(n, samples, seed, generator_map):
    def call():
        return multipullback.verify_freeness(
            n, seed=seed, samples=samples, generator_map=generator_map
        ).bundle

    def verify(bundle):
        if bundle["verdict"] != "NOT_FREE":
            return "control verdict %s, expected NOT_FREE" % bundle["verdict"]
        if (bundle["witness"] or {}).get("clause") != "order":
            return "control refuted without an order witness"
        return None

    # One refuted order relation.
    return Request("control", call, verify, 1)


# Known library defect: verify_freeness(n, seed=k) raises ValueError ("witness
# must be a nonzero n-slot Toeplitz tensor") for a few k in ten thousand,
# because witness_xI can draw a compact-only tensor whose terms cancel.  The
# benchmark cannot fix the library, and a request must not fail, so each k is
# first tried on witness_xI for every chart set verify_freeness(n) asks it
# for, and a k on which it raises is replaced by the next draw.  Every k
# replaced is kept in DEFECT_SEEDS, which the facts line reports.  Set-up
# stops if more than MAX_DEFECT_SHARE of the k tried are replaced, so a
# change that makes the defect common cannot hide behind the screen.
DEFECT_SEEDS = []
MAX_DEFECT_SHARE = 0.01
_screened = {}


def witnesses_build(n, k):
    """True when witness_xI(seed=k) builds a witness for every nonempty
    proper chart set, the sets verify_freeness(n, seed=k) asks for."""
    for r in range(1, n + 1):
        for charts in combinations(range(n + 1), r):
            try:
                multipullback.witness_xI(charts, n, seed=k)
            except ValueError:
                return False
    return True


def _freeness_seed(rng, n):
    """The next k drawn from rng on which every witness builds.

    Results are kept, so regenerating a round (as the traced replay does)
    calls witness_xI no more.
    """
    while True:
        k = rng.getrandbits(32)
        if (n, k) not in _screened:
            _screened[n, k] = witnesses_build(n, k)
            if not _screened[n, k]:
                DEFECT_SEEDS.append(k)
                if len(DEFECT_SEEDS) > 1 + MAX_DEFECT_SHARE * len(_screened):
                    raise RuntimeError(
                        "witness_xI raised on %d of %d seeds" % (len(DEFECT_SEEDS), len(_screened))
                    )
        if _screened[n, k]:
            return k


def freeness_round(seed, index, tiny):
    """Controls 10% (they stop at the first order violation), FREE with
    `samples` annihilation samples 70%, FREE with three times as many 20%:
    the median lands mid the first FREE block, the 90th percentile mid the
    second.  (With one FREE block of 90%, whose requests all do the same
    work, the 90th percentile was the tail of that block: it measured the
    machine's interruptions, not the library.)"""
    samples = 2 if tiny else 20
    rng = derived_rng(seed, "perfbench", "freeness", index)
    out = [_free("free", 2, samples, _freeness_seed(rng, 2)) for _ in range(7)]
    out += [_free("free_3x", 2, 3 * samples, _freeness_seed(rng, 2)) for _ in range(2)]
    control_map = CONTROL_MAPS[index % len(CONTROL_MAPS)]
    out.append(_control(2, samples, _freeness_seed(rng, 2), control_map))
    rng.shuffle(out)
    return out


# --------------------------------------------------------------- lattice


def _roundtrips(posets):
    """Upper-set transform roundtrips over a batch of posets, as the CLI's
    birkhoff roundtrip suite runs its trials."""

    def call():
        trials = []
        for poset in posets:
            lat = order_lattice.FiniteDistributiveLattice.from_upper_sets(poset)
            lat.validate()
            result = order_lattice.birkhoff_transform(lat)
            trials.append(
                {
                    "poset": poset.to_json(),
                    "upper_sets": lat.n,
                    "passed": result.poset.isomorphic(poset),
                }
            )
        return {"trials": trials, "passed": all(t["passed"] for t in trials)}

    return Request("roundtrips", call, _expect_passed, len(posets))


def _transitions(n, trials, seed):
    def call():
        return classical_cpn.transition_agreement(n, trials=trials, seed=seed)

    return Request("transitions", call, _expect_passed, trials * comb(n + 1, 2))


def _enumerate(generators):
    size = FREE_LATTICE_SIZE[generators]

    def call():
        forms = order_lattice.fdl_enumerate(generators)
        return {
            "generators": generators,
            "size": len(forms),
            "first": forms[0].to_json(),
            "last": forms[-1].to_json(),
        }

    def verify(report):
        return None if report["size"] == size else "size %d, expected %d" % (report["size"], size)

    return Request("fdl_enumerate", call, verify, size)


def _classical_freeness(n):
    size = FREE_LATTICE_SIZE[n + 1]

    def call():
        return classical_cpn.classical_freeness(n).to_json()

    def verify(report):
        if report["verdict"] != "FREE":
            return "verdict %s, expected FREE" % report["verdict"]
        got = report["details"]["sublattice_size"]
        return None if got == size else "closure of %d elements, expected %d" % (got, size)

    return Request("classical_freeness", call, verify, size)


def _table_lattice(generators):
    """Stage four of verify_freeness(generators - 1) on its own: the explicit
    table lattice of the free lattice, validated and transformed back."""
    size = FREE_LATTICE_SIZE[generators]
    irreducibles = 2**generators - 2

    def call():
        forms = order_lattice.fdl_enumerate(generators)
        lat = order_lattice.FiniteDistributiveLattice.from_elements(
            forms, order_lattice.fdl_join, order_lattice.fdl_meet
        )
        lat.validate()
        mirr = order_lattice.meet_irreducibles(lat)
        result = order_lattice.birkhoff_transform(lat)
        subsets = order_lattice.Poset.subsets(generators, nonempty=True, proper=True)
        return {
            "size": lat.n,
            "meet_irreducibles": len(mirr),
            "irreducible_poset_matches_proper_subsets": result.poset.isomorphic(subsets),
        }

    def verify(report):
        if (report["size"], report["meet_irreducibles"]) != (size, irreducibles):
            return "lattice %d/%d, expected %d/%d" % (
                report["size"], report["meet_irreducibles"], size, irreducibles
            )
        if not report["irreducible_poset_matches_proper_subsets"]:
            return "irreducible poset is not the proper subsets"
        return None

    return Request("table_lattice", call, verify, size)


def lattice_round(seed, index, tiny):
    """Transitions 10% (fastest), roundtrip batches 70%, one enumeration (5%),
    two classical closures (10%), one table lattice (5%, slowest): the median
    lands mid roundtrips, the 90th percentile mid classical."""
    sizes, (tn, trials), gens = ((5, 6), (2, 20), 4) if tiny else ((11, 12), (3, 200), 5)
    rng = derived_rng(seed, "perfbench", "lattice", index)
    out = [_transitions(tn, trials, rng.getrandbits(32)) for _ in range(2)]
    for _ in range(14):
        out.append(_roundtrips([sampling.random_poset(rng, size) for size in sizes * 2]))
    out.append(_enumerate(gens))
    out += [_classical_freeness(gens - 2) for _ in range(2)]
    out.append(_table_lattice(gens - 1))
    rng.shuffle(out)
    return out


# --------------------------------------------------------------- algebra


def _associativity(partials, n):
    def call():
        a, b, c = (multipullback.extend(p, n) for p in partials)
        lhs = (a * b) * c
        rhs = a * (b * c)
        return {
            "associative": lhs == rhs,
            "member": multipullback.is_member(lhs),
            "product": lhs.to_json(),
        }

    def verify(report):
        if not report["associative"]:
            return "(a*b)*c != a*(b*c)"
        return None if report["member"] else "(a*b)*c is not a pullback member"

    # Four tensor products: a*b, (a*b)*c, b*c, a*(b*c).
    return Request("associativity", call, verify, 4)


def algebra_round(seed, index, tiny):
    """Members a, b, c extended from one random component each; one kind."""
    n, terms = (2, (2, 3)) if tiny else (3, (5, 6))
    rng = derived_rng(seed, "perfbench", "algebra", index)
    out = []
    for _ in range(10):
        partials = []
        for _ in range(3):
            chart = rng.randrange(n + 1)
            x = tensor_gluing.random_tensor_element(rng, n, min_terms=terms[0], max_terms=terms[1])
            partials.append({chart: x})
        out.append(_associativity(partials, n))
    return out


class Workload:
    """pool_rounds rounds are built during set-up and then cycled; the traced
    run replays the first trace_rounds of them."""

    __slots__ = ("round", "pool_rounds", "trace_rounds")

    def __init__(self, round_fn, pool_rounds, trace_rounds):
        self.round = round_fn
        self.pool_rounds = pool_rounds
        self.trace_rounds = trace_rounds


WORKLOADS = {
    "gluing": Workload(gluing_round, 64, 3),
    "freeness": Workload(freeness_round, 64, 3),
    "lattice": Workload(lattice_round, 16, 1),
    "algebra": Workload(algebra_round, 96, 3),
}
