"""Multipullback of tensor-power components along slotwise-symbol gluings.

A pullback element over n + 1 charts is a tuple of components, one per
chart, each a pure Toeplitz tensor with n slots.  Slot slot_for(i, k) of
component i tracks chart k.  Components i < j agree when the slotwise
symbol of component i at slot_for(i, j) equals glue(component j, j, i),
the symbol of component j seen from chart i; is_member checks all pairs.
Both sides only rewrite term keys, so both are linear and a zero
component's side is the zero tensor: the pair check builds only the sides
of nonzero components and decides the pair with one comparison of their
term maps.  Most pairs the freeness machinery checks have a zero
component, since a member of a kernel intersection is zero on its charts.
_components reads every member and partial family given from outside;
every member tqps builds goes through PullbackElement._trusted.

extend completes a compatible partial family to a full member with
minimal support: a missing component m must have the symbol
glue(component t, t, m) at slot_for(m, t) for every given chart t, and it
is the union of those constraints lifted by transition_representative
from the given components, with every unconstrained all-matrix-unit
pattern left at zero.  The pair check that defines membership is the only
check, on every pair with a built component, so an inconsistent family
raises instead of silently producing a non-member.

The freeness machinery certifies that the chart kernels generate a free
distributive lattice.  Pure intersections of kernels are compared through
explicit member witnesses; join-irreducibility of each pure intersection
is backed by projecting away the matrix units of a slot set, which
provably kills every kernel outside the index set and visibly does not
kill the intersection itself.  _irreducibility_rows builds those rows in
one walk over every (index set, chart, finer index set) entry; its
sampled cross-check of the kills draws each kernel intersection's members
once, from one _kernel_members stream that reads its charts once, and
shares them among every entry that reads that intersection.
check_freeness_criterion reads both on index sets of generators, which
differ from chart sets when generator_map reassigns a generator: the
order as certified containment of one intersection in another, the
irreducibility as those projections.  Every inequality it relies on is
grounded in a constructed witness, a degenerate generator assignment is
reported as NOT_FREE with the violating pair, and the verdict reads only
this evidence, never a listing of the free lattice.  The FreenessReport
it returns holds every separation and irreducibility row in its bundle.
"""

import functools
import itertools
import operator

from .order_lattice import FreenessReport, check_freeness_criterion
from .tensor_gluing import (
    TensorElement,
    _draws,
    glue,
    project_slots,
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
        try:
            family = dict(enumerate(components))
        except TypeError:
            raise ValueError("components must be a sequence, got %r" % (components,)) from None
        n = _index(len(family), "chart count", 2) - 1
        self.components = tuple(_components(family, n).values())

    @classmethod
    def _trusted(cls, components):
        """Element holding the tuple `components` as given, without __init__.

        Sound when they are n + 1 pure Toeplitz tensors of n slots, n >= 1.
        Componentwise arithmetic keeps that: members of different n differ
        in length and slot count, so the first pair raises ValueError in
        TensorElement._check before zip can drop a component.
        """
        out = object.__new__(cls)
        out.components = components
        return out

    @classmethod
    def zero(cls, n):
        n = _index(n, "n", 1)
        return cls._trusted(tuple(TensorElement.zero(n) for _ in range(n + 1)))

    @classmethod
    def unit(cls, n):
        n = _index(n, "n", 1)
        return cls._trusted(tuple(TensorElement.one(n) for _ in range(n + 1)))

    @property
    def n(self):
        return len(self.components) - 1

    def __eq__(self, other):
        if not isinstance(other, PullbackElement):
            return NotImplemented
        return self.components == other.components

    __hash__ = None

    def _zip(self, other, op):
        if not isinstance(other, PullbackElement):
            return NotImplemented
        return self._trusted(tuple(map(op, self.components, other.components)))

    def __add__(self, other):
        return self._zip(other, operator.add)

    def __sub__(self, other):
        return self._zip(other, operator.sub)

    def __mul__(self, other):
        return self._zip(other, operator.mul)

    def __neg__(self):
        return self._trusted(tuple(-a for a in self.components))

    def scale(self, scalar):
        return self._trusted(tuple(a.scale(scalar) for a in self.components))

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def __repr__(self):
        return "PullbackElement(n=%d)" % self.n

    def to_json(self):
        return {"n": self.n, "components": [c.to_json() for c in self.components]}


def _components(family, n=None):
    """A partial family as a dict of int chart index to component.

    Raises ValueError unless dict() reads family as a mapping, every
    component is a pure Toeplitz tensor, all have the same slot count n (the
    first component's when n is not given) and every key is a chart index
    in 0..n.
    """
    try:
        family = dict(family)
    except (TypeError, ValueError):
        raise ValueError("family must map charts to components, got %r" % (family,)) from None
    comps = {}
    for k, v in family.items():
        if not isinstance(v, TensorElement) or v.shape[1] is not None:
            raise ValueError("component %r must be a pure Toeplitz tensor" % (k,))
        if n is None:
            n = v.shape[0]
        elif v.shape[0] != n:
            raise ValueError("component %r must have %d slots, got %d" % (k, n, v.shape[0]))
        # dict keys are distinct already, so each is read alone
        comps[_index(k, "chart index", 0, n)] = v
    return comps


def compatibility_failures(components):
    """Violated gluing constraints among the given chart components.

    Accepts a PullbackElement, or a dict of chart index to component for a
    partial family; only pairs with both charts present are checked.  A
    dict is read by _components first, so a malformed one raises
    ValueError before any pair is checked.
    """
    if isinstance(components, PullbackElement):
        comps = dict(enumerate(components.components))
    else:
        comps = _components(components)
    return _pair_failures(comps, itertools.combinations(sorted(comps), 2))


def _pair_failures(comps, pairs):
    """Violated gluing constraints among the given chart pairs i < j.

    slot_symbol and glue rewrite term keys, so both sides are linear and a
    zero component's side is the zero tensor: only nonzero components build
    their sides, and as both sides have shape (n, slot_for(i, j)), one
    comparison of term maps decides the pair, a side not built having none.
    A failing pair builds its missing side, so each failure reports both.
    """
    out = []
    for i, j in pairs:
        low, high = comps[i], comps[j]
        # a tensor is zero exactly when it has no terms
        if not low.terms and not high.terms:
            continue
        lhs = slot_symbol(low, slot_for(i, j)) if low.terms else None
        rhs = glue(high, j, i) if high.terms else None
        if (lhs.terms if lhs else {}) == (rhs.terms if rhs else {}):
            continue
        lhs = lhs or slot_symbol(low, slot_for(i, j))
        rhs = rhs or glue(high, j, i)
        out.append({"pair": [i, j], "from_low": lhs.to_json(), "from_high": rhs.to_json()})
    return out


def is_member(p):
    return not compatibility_failures(p)


def extend(partial, n):
    """Complete a compatible partial family to a full pullback member.

    The completion has minimal support: each missing component carries
    exactly the terms its constraints prescribe, lifted from the given
    nonzero components only, and every term pattern no constraint sees (a
    matrix unit in every constrained slot) gets coefficient zero.  Raises
    IncompatiblePartialFamily if the given components already disagree,
    ExtensionError naming the failing pairs if the completion is not a
    member.  An empty family completes to the zero member.

    The family is read once, and the membership pair check is the one
    check, each chart pair running it once: the given pairs up front, then
    the pairs with a built component.  A built component's terms are lifts
    of given ones, so lifting it on to a later chart adds nothing while the
    law holds, and two constraints giving one term different coefficients
    leave a wrong symbol there, which the final check catches.
    """
    n = _index(n, "n", 1)
    comps = _components(partial, n)
    failures = _pair_failures(comps, itertools.combinations(sorted(comps), 2))
    if failures:
        raise IncompatiblePartialFamily(failures)
    # a zero component's lifted constraint has no terms to add
    sources = [(t, c) for t, c in sorted(comps.items()) if c.terms]
    built = [m for m in range(n + 1) if m not in comps]
    for m in built:
        terms = {}
        for t, c in sources:
            terms.update(transition_representative(c, m, t).terms)
        # keys of lifted constraints, none summed; the final check sees a clash
        comps[m] = TensorElement._trusted(terms, (n, None))
    new_pairs = [
        (i, j) for i, j in itertools.combinations(range(n + 1), 2) if i in built or j in built
    ]
    failures = _pair_failures(comps, new_pairs)
    if failures:
        pairs = [f["pair"] for f in failures]
        raise ExtensionError("completion failed the final membership check on pairs %s" % pairs)
    # each component read by _components or built with n slots
    return PullbackElement._trusted(tuple([comps[i] for i in range(n + 1)]))


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
    zero_charts = frozenset(_charts(n, zero_charts, "zero_charts"))
    rng = derived_rng(seed, "compact-witness", n, sorted(zero_charts))
    draws = _draws(rng, n, compact_slots=range(1, n + 1))
    x = next(draws)
    while x.is_zero():
        x = next(draws)
    zero = TensorElement.zero(n)
    p = PullbackElement._trusted(tuple(zero if i in zero_charts else x for i in range(n + 1)))
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
    n = _index(n, "n", 1)
    charts, m = frozenset(_charts(n, charts)), _index(m, "chart index", 0, n)
    if m in charts:
        raise ValueError("chart %d must lie outside charts %s" % (m, sorted(charts)))
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


def _kernel_members(rng, n, charts):
    """Stream of random members vanishing on every chart in `charts`, one
    per next(), each drawn as sample_kernel_intersection draws it from rng.

    n and each chart are read once, on the first next() and before its
    first draw.  Each member picks a free chart with randrange, seeds it
    from that chart's _draws stream, opened on rng the first time the chart
    is picked, with the slots tracking `charts` forced to matrix units, and
    completes by extension; the completion vanishes on `charts` because its
    constraints there do, which each member checks.
    """
    n = _index(n, "n", 1)
    charts = frozenset(_charts(n, charts))
    free = sorted(set(range(n + 1)) - charts)
    if not free:
        while True:
            yield PullbackElement.zero(n)
    randrange, count = rng.randrange, len(free)
    zero, streams = TensorElement.zero(n), {}
    while True:
        m0 = free[randrange(count)]
        draws = streams.get(m0)
        if draws is None:
            forced = {slot_for(m0, c) for c in charts}
            draws = streams[m0] = _draws(rng, n, compact_slots=forced)
        partial = dict.fromkeys(charts, zero)
        partial[m0] = next(draws)
        p = extend(partial, n)
        if not all(p.components[c].is_zero() for c in charts):
            raise ExtensionError("completion does not vanish on charts %s" % sorted(charts))
        yield p


def sample_kernel_intersection(rng, n, charts):
    """Random member vanishing on every chart in `charts`: one next() of a
    fresh _kernel_members stream, so n and each chart are read before the
    first draw.  A caller that draws many members of one intersection from
    one rng holds one stream and has them read once.

    Seeds one free chart with a random tensor whose slots tracking
    `charts` are forced to matrix units, then completes by extension; the
    completion vanishes on `charts` because its constraints there do.
    """
    return next(_kernel_members(rng, n, charts))


def _generator_charts(n, generator_map):
    """Chart of each generator 0..n: generator i sits on chart i unless
    generator_map reassigns it; a map dict() cannot read or an entry
    outside 0..n raises ValueError."""
    try:
        entries = {} if generator_map is None else dict(generator_map)
    except (TypeError, ValueError):
        message = "generator_map must map generators to charts, got %r" % (generator_map,)
        raise ValueError(message) from None
    gmap = list(range(n + 1))
    for k, v in entries.items():
        gmap[_index(k, "generator", 0, n)] = _index(v, "generator's chart", 0, n)
    return gmap


def _irreducibility_rows(n, gmap, seed, samples):
    """Irreducibility rows of every index set I of generators, keyed by I.

    One walk over the (I, m, J) entries: chart m outside D = gmap(I) gets
    one witness_TmI and one extend, and each strict superset J of I one
    annihilation entry, filed under the chart set gmap(J) it samples.  Each
    chart set then draws `samples` members once from one _kernel_members
    stream on its own derived rng, which reads the chart set once, before
    its first draw, and every entry filed under it counts the members that
    project_slots at its sigma keeps alive, so entries reading one chart set
    share their members; a member is zero at each chart of its set, and a
    zero component is not projected.  A row is ok when its witness survives
    the projection, no other generator lands inside D and no sample failed.
    """
    gens = range(n + 1)
    index_sets = [frozenset(c) for r in range(1, n + 2) for c in itertools.combinations(gens, r)]
    rows = {}
    readers = {}  # chart set -> [(annihilation entry, m, sigma)]
    for I in index_sets[:-1]:  # every index set but the full one
        D = frozenset(gmap[i] for i in I)
        # the projection at sigma kills ker of chart m outright (it acts on
        # the component at m) and ker of any chart outside D by the slot
        # argument; only a generator landing inside D breaks the proof
        exact_kills = all(gmap[k] not in D for k in gens if k not in I)
        rows[I] = []
        for m in range(n + 1):
            if m in D:
                continue
            T, sigma = witness_TmI(m, D, n)
            partial = {d: TensorElement.zero(n) for d in D}
            partial[m] = T
            p = extend(partial, n)
            annihilation = []
            for J in index_sets:
                if not I < J:
                    continue
                entry = {"J": sorted(J), "samples": samples, "failures": 0}
                annihilation.append(entry)
                DJ = frozenset(gmap[j] for j in J)
                readers.setdefault(DJ, []).append((entry, m, sigma))
            rows[I].append(
                {
                    "I": sorted(I),
                    "m": m,
                    "witness_nonzero": not project_slots(p.components[m], sigma).is_zero(),
                    "exact_generator_kills": exact_kills,
                    "annihilation": annihilation,
                }
            )
    for DJ, entries in readers.items():
        members = _kernel_members(derived_rng(seed, "annihilation", n, sorted(DJ)), n, DJ)
        for _ in range(samples):
            y = next(members)
            for entry, m, sigma in entries:
                component = y.components[m]
                if component.terms and project_slots(component, sigma).terms:
                    entry["failures"] += 1
    for row in itertools.chain.from_iterable(rows.values()):
        # set once every sample is in, as the row's last field
        row["ok"] = (
            row["witness_nonzero"]
            and row["exact_generator_kills"]
            and not any(a["failures"] for a in row["annihilation"])
        )
    return rows


def verify_freeness(n, seed=0, samples=200, generator_map=None):
    """Certify that the chart kernels generate a free distributive lattice.

    Stage one orders the pure kernel intersections by explicit member
    witnesses: for every violation of index-set inclusion a constructed
    member separates the two intersections, and a failed separation is
    treated as a genuine collapse.  Each chart set's witness is built once,
    and each containment question is answered, and its separation
    recorded, once.  Stage two backs join-irreducibility of each pure
    intersection with the projection away from the matrix units of a slot
    set: it provably annihilates every generating kernel outside the index
    set, visibly keeps a constructed member of the intersection alive, and
    is additionally cross-checked on `samples` sampled members of each
    strictly finer intersection.  _irreducibility_rows builds the rows of
    every index set in one walk on the first irreducibility question, so a
    control the order clause refutes draws nothing, while an irreducibility
    failure at the first index set has built every row by then; the bundle
    still lists only the rows the walk reached.  Stage three hands both to
    check_freeness_criterion on index sets of generators, the order of
    joins as leq(I, J) = contains(I | J, J), whose verdict and witness the
    bundle reports; the free lattice itself is never listed.

    generator_map reassigns generator i to chart generator_map[i]; a
    non-injective assignment is the intended control and comes back
    NOT_FREE with an order witness.  samples < 0 raises ValueError.
    """
    n, samples = _index(n, "n", 1), _index(samples, "samples", 0)
    gmap = _generator_charts(n, generator_map)
    separations = []
    irreducibility = []

    witness = functools.cache(lambda chart_set: witness_xI(chart_set, n, seed=seed))

    @functools.cache
    def contains(X, Y):
        # certified containment of the X-intersection over the Y-intersection
        if X <= Y:
            return True
        DY = frozenset(gmap[i] for i in Y)
        w = witness(DY)
        sep_chart = next(
            (gmap[i] for i in sorted(X - Y) if not w.components[gmap[i]].is_zero()), None
        )
        separations.append(
            {
                "I": sorted(X),
                "J": sorted(Y),
                "witness_zero_charts": sorted(DY),
                "separating_chart": sep_chart,
                "separated": sep_chart is not None,
            }
        )
        return sep_chart is None

    all_rows = functools.cache(lambda: _irreducibility_rows(n, gmap, seed, samples))

    def prover(I):
        rows = all_rows()[I]
        irreducibility.extend(rows)
        return all(row["ok"] for row in rows), {"rows": len(rows)}

    # the join over I lies below the join over J exactly when the
    # (I | J)-intersection contains the J-intersection
    report = check_freeness_criterion(n + 1, lambda I, J: contains(I | J, J), irreducibility=prover)

    return FreenessReport(
        report.verdict,
        report.witness,
        schema=2,
        check="kernel-lattice-freeness",
        n=n,
        seed=seed,
        samples=samples,
        generator_map=list(gmap),
        separations=separations,
        irreducibility=irreducibility,
    )
