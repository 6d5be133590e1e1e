"""Multipullback of tensor-power components along slotwise-symbol gluings.

A pullback element over n + 1 charts is a tuple of components, one per
chart, each a pure Toeplitz tensor with n slots.  Slot slot_for(i, k) of
component i tracks chart k.  Components i < j agree when the slotwise
symbol of component i at slot_for(i, j) equals glue(component j, j, i),
the symbol of component j seen from chart i; is_member checks all pairs.

extend completes a compatible partial family to a full member with
minimal support: a missing component m must have the symbol
glue(component t, t, m) at slot_for(m, t) for every known chart t, and it
is the union of those constraints lifted by transition_representative,
with every unconstrained all-matrix-unit pattern left at zero.  The pair
check that defines membership is the only check, on every pair with a
built component, so an inconsistent family raises instead of silently
producing a non-member.

The freeness machinery certifies that the chart kernels generate a free
distributive lattice.  Pure intersections of kernels are compared through
explicit member witnesses; join-irreducibility of each pure intersection
is backed by projecting away the matrix units of a slot set, which
provably kills every kernel outside the index set and visibly does not
kill the intersection itself.  The sampled cross-check of those kills
draws each kernel intersection's members once and shares them among every
index set and chart that reads that intersection.
check_freeness_criterion reads both on index sets of charts: the order as
certified containment of one intersection in another, the irreducibility
as those projections.  Every inequality it relies on is grounded in a
constructed witness, a degenerate generator assignment is reported as
NOT_FREE with the violating pair, and the verdict reads only this
evidence, never a listing of the free lattice.
"""

import itertools

from .order_lattice import check_freeness_criterion
from .tensor_gluing import (
    TensorElement,
    glue,
    project_slots,
    random_tensor_element,
    slot_for,
    slot_symbol,
    transition_representative,
)
from .util import DEFAULT_SEED, _charts, _index, derived_rng


class IncompatiblePartialFamily(ValueError):
    """A partial family already violates a pairwise gluing constraint."""

    def __init__(self, failures):
        super().__init__("partial family is incompatible: %r" % (failures,))
        self.failures = failures


class ExtensionError(ValueError):
    """No minimal-support completion satisfies all gluing constraints."""


class PullbackElement:
    """Tuple of chart components, one n-slot tensor per chart 0..n."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = list(components)
        n = _index(len(components), "chart count", 2) - 1
        for c in components:
            if not isinstance(c, TensorElement) or c.n_slots != n or c.circle_slot is not None:
                raise ValueError("components must be pure Toeplitz tensors with %d slots" % n)
        self.components = tuple(components)

    @classmethod
    def zero(cls, n):
        return cls([TensorElement.zero(n) for _ in range(n + 1)])

    @classmethod
    def unit(cls, n):
        return cls([TensorElement.one(n) for _ in range(n + 1)])

    @property
    def n(self):
        return len(self.components) - 1

    def __eq__(self, other):
        if not isinstance(other, PullbackElement):
            return NotImplemented
        return self.components == other.components

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, PullbackElement):
            return NotImplemented
        return PullbackElement([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        if not isinstance(other, PullbackElement):
            return NotImplemented
        return PullbackElement([a - b for a, b in zip(self.components, other.components)])

    def __neg__(self):
        return PullbackElement([-a for a in self.components])

    def __mul__(self, other):
        if not isinstance(other, PullbackElement):
            return NotImplemented
        return PullbackElement([a * b for a, b in zip(self.components, other.components)])

    def scale(self, scalar):
        return PullbackElement([a.scale(scalar) for a in self.components])

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def __repr__(self):
        return "PullbackElement(n=%d)" % self.n

    def to_json(self):
        return {"n": self.n, "components": [c.to_json() for c in self.components]}


def compatibility_failures(components):
    """Violated gluing constraints among the given chart components.

    Accepts a PullbackElement, or a dict of chart index to component for a
    partial family; only pairs with both charts present are checked.
    """
    if isinstance(components, PullbackElement):
        comps = dict(enumerate(components.components))
    else:
        comps = dict(components)
    return _pair_failures(comps, itertools.combinations(sorted(comps), 2))


def _pair_failures(comps, pairs):
    """Violated gluing constraints among the given chart pairs i < j."""
    out = []
    for i, j in pairs:
        lhs = slot_symbol(comps[i], slot_for(i, j))
        rhs = glue(comps[j], j, i)
        if lhs != rhs:
            out.append(
                {"pair": [i, j], "from_low": lhs.to_json(), "from_high": rhs.to_json()}
            )
    return out


def is_member(p):
    return not compatibility_failures(p)


def extend(partial, n):
    """Complete a compatible partial family to a full pullback member.

    The completion has minimal support: each missing component carries
    exactly the terms its constraints prescribe, and every term pattern no
    constraint sees (a matrix unit in every constrained slot) gets
    coefficient zero.  Raises IncompatiblePartialFamily if the given
    components already disagree, ExtensionError naming the failing pairs
    if the completion is not a member.  An empty family completes to the
    zero member.

    The membership pair check is the one check, and each chart pair runs
    it once.  The pairs of given components are checked up front; the
    final membership check runs only the pairs with at least one built
    component, so it runs nothing when the family was already complete.
    Two constraints giving one term different coefficients leave a wrong
    symbol at that term, so the final check also catches those.
    """
    n = _index(n, "n", 1)
    comps = {}
    for k, v in dict(partial).items():
        # dict keys are distinct already, so each is read alone
        k = _index(k, "chart index", 0, n)
        if not isinstance(v, TensorElement) or v.n_slots != n or v.circle_slot is not None:
            raise ValueError("component %r must be a pure Toeplitz tensor with %d slots" % (k, n))
        comps[k] = v
    if not comps:
        return PullbackElement.zero(n)
    failures = compatibility_failures(comps)
    if failures:
        raise IncompatiblePartialFamily(failures)
    built = [m for m in range(n + 1) if m not in comps]
    for m in built:
        terms = {}
        for t in sorted(comps):
            terms.update(transition_representative(comps[t], m, t).terms)
        # lifted constraints hold valid keys and nonzero coefficients, and
        # no two were added, so the component is built trusted
        comps[m] = TensorElement._trusted(terms, (n, None))
    new_pairs = [
        (i, j) for i, j in itertools.combinations(range(n + 1), 2) if i in built or j in built
    ]
    failures = _pair_failures(comps, new_pairs)
    if failures:
        pairs = [f["pair"] for f in failures]
        raise ExtensionError("completion failed the final membership check on pairs %s" % pairs)
    return PullbackElement([comps[i] for i in range(n + 1)])


def witness_xI(zero_charts, n, seed=DEFAULT_SEED):
    """Member that vanishes exactly on the given charts.

    Draws from the seed a tensor x with a matrix unit in every slot,
    redrawing while the drawn terms cancel to zero.  All slotwise symbols
    of x vanish, so placing x on the remaining charts and zero on
    `zero_charts` satisfies every gluing constraint, which is_member
    confirms.  The result lies in the kernel of each listed chart
    projection and in no other.
    """
    n = _index(n, "n", 1)
    zero_charts = frozenset(_charts(n, *zero_charts))
    rng = derived_rng(seed, "compact-witness", n, sorted(zero_charts))
    every_slot = range(1, n + 1)
    x = random_tensor_element(rng, n, compact_slots=every_slot)
    while x.is_zero():
        x = random_tensor_element(rng, n, compact_slots=every_slot)
    zero = TensorElement.zero(n)
    p = PullbackElement([zero if i in zero_charts else x for i in range(n + 1)])
    if not is_member(p):
        raise ValueError("witness on charts %s fails a gluing constraint" % sorted(zero_charts))
    return p


def witness_TmI(m, charts, n):
    """Irreducibility witness for chart m against the chart set `charts`.

    Returns (T, sigma): T is the pure tensor whose slot tracking chart k
    holds a matrix unit when k is in `charts` and the unilateral shift
    otherwise; sigma is the set of slots tracking a chart outside `charts`.
    The slotwise symbol at sigma vanishes exactly where
    project_slots(., sigma) does, since the symbol map is injective on the
    terms the projection keeps.  By construction the projection of T to
    any chart in `charts` vanishes while project_slots(T, sigma) keeps T
    alive, and the symbol at sigma composed with the projection to chart m
    kills the kernel of every chart projection outside `charts`.
    """
    m, *charts = _charts(_index(n, "n", 1), m, *charts)
    charts = frozenset(charts)
    atoms = []
    sigma_slots = set()
    # slot_for(m, k) increases with k, so the atoms come out in slot order
    for k in range(n + 1):
        if k == m:
            continue
        if k in charts:
            atoms.append(("E", 0, 0))
        else:
            atoms.append(("T", 1))
            sigma_slots.add(slot_for(m, k))
    T = TensorElement.pure(tuple(atoms))
    return T, frozenset(sigma_slots)


def sample_kernel_intersection(rng, n, charts):
    """Random member vanishing on every chart in `charts`.

    Seeds one free chart with a random tensor whose slots tracking
    `charts` are forced to matrix units, then completes by extension; the
    completion vanishes on `charts` because its constraints there do.
    """
    charts = frozenset(charts)
    free = sorted(set(range(n + 1)) - charts)
    if not free:
        return PullbackElement.zero(n)
    m0 = free[rng.randrange(len(free))]
    forced = {slot_for(m0, c) for c in charts}
    y = random_tensor_element(rng, n, compact_slots=forced)
    partial = {c: TensorElement.zero(n) for c in charts}
    partial[m0] = y
    p = extend(partial, n)
    if not all(p.components[c].is_zero() for c in charts):
        raise ExtensionError("completion does not vanish on charts %s" % sorted(charts))
    return p


class FreenessEvidence:
    """Verdict plus the witness data behind it, JSON-ready."""

    __slots__ = ("bundle",)

    def __init__(self, bundle):
        self.bundle = bundle

    @property
    def verdict(self):
        return self.bundle["verdict"]

    @property
    def free(self):
        return self.verdict == "FREE"

    def to_json(self):
        return self.bundle

    def __repr__(self):
        return "FreenessEvidence(%s)" % self.verdict


def _generator_charts(n, generator_map):
    """Chart of each generator 0..n: generator i sits on chart i unless
    generator_map reassigns it; an entry outside 0..n raises ValueError."""
    gmap = list(range(n + 1))
    for k, v in dict(generator_map or {}).items():
        gmap[_index(k, "generator", 0, n)] = _index(v, "generator's chart", 0, n)
    return gmap


def verify_freeness(n, seed=0, samples=200, generator_map=None):
    """Certify that the chart kernels generate a free distributive lattice.

    Stage one orders the pure kernel intersections by explicit member
    witnesses: for every violation of index-set inclusion a constructed
    member separates the two intersections, and a failed separation is
    treated as a genuine collapse.  Stage two backs join-irreducibility of
    each pure intersection with the projection away from the matrix units
    of a slot set: it provably annihilates every generating kernel outside
    the index set, visibly keeps a constructed member of the intersection
    alive, and is additionally cross-checked on `samples` sampled members
    of each strictly finer intersection.  Those members are drawn once per
    intersection, on the first irreducibility question, and shared by every
    check that reads that intersection; only failure counts are kept.
    Stage three hands both to check_freeness_criterion on index sets of
    generators, the order of joins as leq(I, J) = contains(I | J, J), whose
    verdict and witness the bundle reports; the free lattice itself is
    never listed.

    generator_map reassigns generator i to chart generator_map[i]; a
    non-injective assignment is the intended control and comes back
    NOT_FREE with an order witness.  samples < 0 raises ValueError.
    """
    n, samples = _index(n, "n", 1), _index(samples, "samples", 0)
    gen_count = n + 1
    gmap = _generator_charts(n, generator_map)

    separations = []
    irreducibility = []
    contain_cache = {}
    witness_cache = {}
    failures = None  # (I, m, J) -> failing samples, counted on the first prover call

    def charts_of(I):
        return frozenset(gmap[i] for i in I)

    def strict_supersets(I):
        complement = [k for k in range(gen_count) if k not in I]
        return [
            I | frozenset(extra)
            for r in range(1, len(complement) + 1)
            for extra in itertools.combinations(complement, r)
        ]

    def chart_witness(chart_set):
        if chart_set not in witness_cache:
            witness_cache[chart_set] = witness_xI(chart_set, n, seed=seed)
        return witness_cache[chart_set]

    def contains(X, Y):
        # certified containment of the X-intersection over the Y-intersection
        key = (X, Y)
        if key in contain_cache:
            return contain_cache[key]
        if X <= Y:
            contain_cache[key] = True
            return True
        DY = charts_of(Y)
        w = chart_witness(DY)
        sep_chart = None
        for i in sorted(X - Y):
            if not w.components[gmap[i]].is_zero():
                sep_chart = gmap[i]
                break
        separations.append(
            {
                "I": sorted(X),
                "J": sorted(Y),
                "witness_zero_charts": sorted(DY),
                "separating_chart": sep_chart,
                "separated": sep_chart is not None,
            }
        )
        result = sep_chart is None
        contain_cache[key] = result
        return result

    def count_annihilation_failures():
        # every entry (I, m, J) projects members of the DJ-intersection, so
        # the entries reading one DJ share its members: each member is drawn
        # once, projected for all of them and dropped
        readers = {}
        for r in range(1, gen_count):
            for I in map(frozenset, itertools.combinations(range(gen_count), r)):
                D = charts_of(I)
                for m in range(n + 1):
                    if m not in D:
                        sigma = witness_TmI(m, D, n)[1]
                        for J in strict_supersets(I):
                            readers.setdefault(charts_of(J), []).append(((I, m, J), m, sigma))
        counts = {}
        for DJ, entries in readers.items():
            rng = derived_rng(seed, "annihilation", n, sorted(DJ))
            for key, _, _ in entries:
                counts[key] = 0
            for _ in range(samples):
                y = sample_kernel_intersection(rng, n, DJ)
                for key, m, sigma in entries:
                    if not project_slots(y.components[m], sigma).is_zero():
                        counts[key] += 1
        return counts

    def prover(I):
        nonlocal failures
        if failures is None:
            failures = count_annihilation_failures()
        D = charts_of(I)
        complement = [k for k in range(gen_count) if k not in I]
        rows = []
        ok_all = True
        for m in range(n + 1):
            if m in D:
                continue
            T, sigma = witness_TmI(m, D, n)
            partial = {d: TensorElement.zero(n) for d in D}
            partial[m] = T
            p = extend(partial, n)
            witness_nonzero = not project_slots(p.components[m], sigma).is_zero()
            # the projection at sigma kills ker of chart m outright (it acts on
            # the component at m) and ker of any chart outside D by the slot
            # argument; only a generator landing inside D breaks the proof
            exact_kills = all(gmap[k] not in D for k in complement)
            annihilation = [
                {"J": sorted(J), "samples": samples, "failures": failures[I, m, J]}
                for J in strict_supersets(I)
            ]
            sampled_kills = not any(a["failures"] for a in annihilation)
            row_ok = witness_nonzero and exact_kills and sampled_kills
            rows.append(
                {
                    "I": sorted(I),
                    "m": m,
                    "witness_nonzero": witness_nonzero,
                    "exact_generator_kills": exact_kills,
                    "annihilation": annihilation,
                    "ok": row_ok,
                }
            )
            ok_all = ok_all and row_ok
        irreducibility.extend(rows)
        return ok_all, {"rows": len(rows)}

    # the join over I lies below the join over J exactly when the
    # (I | J)-intersection contains the J-intersection
    report = check_freeness_criterion(
        gen_count, lambda I, J: contains(I | J, J), irreducibility=prover
    )

    bundle = {
        "schema": 2,
        "check": "kernel-lattice-freeness",
        "n": n,
        "seed": seed,
        "samples": samples,
        "generator_map": list(gmap),
        "verdict": report.verdict,
        "witness": report.witness,
        "separations": separations,
        "irreducibility": irreducibility,
    }
    return FreenessEvidence(bundle)
