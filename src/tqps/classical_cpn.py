"""Covering lattice and chart transitions of classical projective space.

Points are homogeneous coordinate tuples.  The basic covering sets are
V_a = {x : |x_i| is maximal for every i in a}, one per nonempty index set
a; the chartwise sets V_{i} generate the lattice under union and
intersection.  A covering set is the family of all index sets a whose
test point (coordinate 1 on a, 1/2 off a) it contains: an up-set of the
index sets on n + 1 points, stored as one int in the encoding that
order_lattice.UpSet shares with free-lattice elements.  Union is `|`,
intersection is `&`, and a point lies in the set when the index set where
its coordinates peak is a member.

lattice_R reads an antichain form as a join of meets of chartwise sets
and produces the covering set by floating-point membership tests of the
test points, the commutative cross-check; lattice_L returns the minimal
members, recovering the form exactly.

Chart overlaps carry closed-disc coordinates with one unit-modulus slot;
slot s of the chart at index i tracks the homogeneous index shared with
the quantum components (slot_for).  transition, the one chart change in
either direction, divides through by the circle coordinate and moves each
coordinate to the slot tracking the same index; it is checked against the
composite of the chart maps and against its own reverse.  This is the
only module that works in floating point: membership resolves at 1e-12,
transition agreement at 1e-10.
"""

import cmath
import itertools
from numbers import Number
from operator import sub

from .order_lattice import (
    AntichainForm,
    FreenessReport,
    UpSet,
    fdl_enumerate,
    freeness_by_types,
)
from .tensor_gluing import slot_for
from .util import DEFAULT_SEED, _index, derived_rng

MEMBERSHIP_TOL = 1e-12
TRANSITION_TOL = 1e-10
_DISC_BOUND = 1.0 + TRANSITION_TOL


def probe_point(a, n):
    """Homogeneous test point of the index set a: 1 on a, 1/2 elsewhere."""
    return tuple(1.0 if i in a else 0.5 for i in range(n + 1))


def max_index_set(x):
    """Indices where |x_i| attains the maximum, up to MEMBERSHIP_TOL; a
    coordinate that is not a number, a modulus that is not finite, which
    max reads by position, or one too large for a float, which the
    tolerance cannot be subtracted from, raises ValueError."""
    try:
        mags = [abs(c) for c in x]
    except TypeError:
        for i, c in enumerate(x):
            if not isinstance(c, Number):
                raise ValueError("coordinate %d, %r, is not a number" % (i, c)) from None
        raise
    try:
        finite = all(map(cmath.isfinite, mags))
    except OverflowError:
        raise ValueError("coordinate moduli must be finite, got one past float range") from None
    if not finite:
        raise ValueError("coordinate moduli must be finite, got %r" % (mags,))
    m = max(mags)
    return frozenset(i for i, v in enumerate(mags) if v >= m - MEMBERSHIP_TOL)


def _peak_mask(x):
    return sum(1 << i for i in max_index_set(x))


class CoveringSet(UpSet):
    """Finite union of basic covering sets, as the up-set of its members."""

    __slots__ = ()

    def __init__(self, n, members):
        n = _index(n, "n", 0)
        masks = self._masks(n + 1, members)
        super().__init__(n + 1, masks)
        if self.up.bit_count() != len(masks):
            raise ValueError("members are not closed upward")

    @classmethod
    def from_family(cls, n, family):
        n = _index(n, "n", 0)
        family = cls._masks(n + 1, family)
        members = []
        for r in range(1, n + 2):
            for a in itertools.combinations(range(n + 1), r):
                peak = _peak_mask(probe_point(a, n))
                if any(not t & ~peak for t in family):
                    members.append(a)
        return cls(n, members)

    @classmethod
    def basic(cls, n, i):
        return cls.from_family(n, [frozenset([i])])

    @property
    def n(self):
        return self.k - 1

    def contains_point(self, x):
        if len(x) != self.k:
            raise ValueError("point has wrong length")
        return bool(self.up >> _peak_mask(x) & 1)

    def __repr__(self):
        return "CoveringSet(n=%d, %s)" % (self.n, self.render())

    def render(self):
        parts = sorted(self._index_sets(self.up), key=lambda a: (len(a), a))
        return "{" + ", ".join("V" + "".join(str(i) for i in a) for a in parts) + "}"

    def to_json(self):
        return [list(a) for a in self._index_sets(self.up)]


def lattice_R(form):
    """Covering set denoted by an antichain form over the chartwise sets."""
    return CoveringSet.from_family(form.n_generators - 1, form.antichain)


def lattice_L(cov):
    """Antichain form of a covering set: its minimal members."""
    return AntichainForm(cov.k, cov.minimal_sets())


class ChartPoint:
    """Point of a chart in closed-disc coordinates with one circle slot.

    The slots are walked in order, each read as a complex number and
    tested, so the error names the first failing slot: the circle slot
    within TRANSITION_TOL of modulus 1, every other slot at most
    1 + TRANSITION_TOL.  Every test reads as "not ... <=", which refuses a
    NaN modulus, since NaN compares false both ways; a coordinate or
    modulus past float range is refused with the kind of its slot, and a
    coordinate that is not a number, a string included, with its slot.  A
    complex coordinate is taken as it is, with no conversion.
    """

    __slots__ = ("coords", "circle_slot")

    def __init__(self, coords, circle_slot):
        coords = tuple(coords)
        if type(circle_slot) is not int or not 1 <= circle_slot <= len(coords):
            raise ValueError(
                "circle slot must be an integer from 1 to %d, got %r" % (len(coords), circle_slot)
            )
        out = []
        try:
            for s, c in enumerate(coords, start=1):
                t = type(c)
                if t is not complex:
                    # complex() reads a string too, and only a string
                    if t is not float and isinstance(c, str):
                        raise TypeError
                    c = complex(c)
                if s == circle_slot:
                    if not abs(abs(c) - 1.0) <= TRANSITION_TOL:
                        raise ValueError("circle coordinate has modulus %r" % abs(c))
                elif not abs(c) <= _DISC_BOUND:
                    raise ValueError("disc coordinate has modulus %r" % abs(c))
                out.append(c)
        except OverflowError:
            kind = "circle" if s == circle_slot else "disc"
            raise ValueError("%s coordinate has a modulus past float range" % kind) from None
        except TypeError:
            kind = "circle" if s == circle_slot else "disc"
            raise ValueError("%s coordinate %r in slot %d is not a number" % (kind, c, s)) from None
        self.coords = tuple(out)
        self.circle_slot = circle_slot

    def __eq__(self, other):
        if not isinstance(other, ChartPoint):
            return NotImplemented
        return self.circle_slot == other.circle_slot and self.coords == other.coords

    __hash__ = None

    def distance(self, other):
        if self.circle_slot != other.circle_slot or len(self.coords) != len(other.coords):
            return float("inf")
        return max(map(abs, map(sub, self.coords, other.coords)))

    def __repr__(self):
        return "ChartPoint(circle=%d, %r)" % (self.circle_slot, self.coords)


def chart(i, x):
    """Affine coordinates of the chart at index i: divide through by x_i."""
    if type(i) is not int or not 0 <= i < len(x):
        raise ValueError("chart index must be an integer from 0 to %d, got %r" % (len(x) - 1, i))
    xi = x[i]
    if abs(xi) == 0:
        raise ValueError("point misses the chart")
    return tuple([c / xi for c in x[:i]] + [c / xi for c in x[i + 1 :]])


def chart_inv(i, coords):
    """Homogeneous representative with 1 in position i."""
    coords = tuple(coords)
    if type(i) is not int or not 0 <= i <= len(coords):
        raise ValueError("chart index must be an integer from 0 to %d, got %r" % (len(coords), i))
    return coords[:i] + (1.0 + 0.0j,) + coords[i:]


def transition(p, src, dst):
    """Chart change from index src to index dst, dividing by the circle.

    The input tracks dst in its circle slot; the output tracks src.  The
    output slot tracking chart h reads the input coordinate tracking h,
    which sits at index h - (h > src), times the inverse circle value; the
    output coordinate tracking src is the inverse circle value itself.
    """
    if type(src) is not int or type(dst) is not int:
        raise ValueError("chart indices must be integers, got %r and %r" % (src, dst))
    coords = p.coords
    n = len(coords)
    if src == dst or not (0 <= src <= n and 0 <= dst <= n):
        raise ValueError("need two distinct chart indices in 0..n")
    slot = slot_for(src, dst)
    if p.circle_slot != slot:
        raise ValueError("input circle slot tracks the wrong index")
    inv = 1.0 / coords[slot - 1]
    out = [inv if h == src else inv * coords[h - (h > src)] for h in range(n + 1) if h != dst]
    return ChartPoint(out, slot_for(dst, src))


def random_overlap_point(rng, n, i, j):
    """Homogeneous point with unit modulus at i and j, smaller elsewhere.

    n, i and j must be ints, with i and j distinct in 0..n; anything else
    raises ValueError before the first draw.  Each draw uniform(0, b) is
    read as b * random(), the value uniform computes.
    """
    if type(n) is not int or type(i) is not int or type(j) is not int:
        raise ValueError("n and chart indices must be integers, got %r, %r and %r" % (n, i, j))
    if i == j or not (0 <= i <= n and 0 <= j <= n):
        raise ValueError("need two distinct chart indices in 0..%d, got %d and %d" % (n, i, j))
    random, exp, tau = rng.random, cmath.exp, 2 * cmath.pi
    x = []
    for t in range(n + 1):
        if t == i or t == j:
            x.append(exp(1j * (tau * random())))
        else:
            x.append(0.9 * random() * exp(1j * (tau * random())))
    return tuple(x)


def transition_agreement(n, trials=1000, seed=DEFAULT_SEED):
    """Compare the transition formula with the chart-map composite.

    Random overlap points go through both paths for every pair i < j; the
    report records the worst coordinate deviation, the inverse roundtrip
    error, and any trial beyond tolerance.  Each pair's two slots are read
    once, and every point is built, and so checked, by ChartPoint.
    """
    n, trials = _index(n, "n", 1), _index(trials, "trials", 1)
    failures = []
    worst = 0.0
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            slot_ij, slot_ji = slot_for(i, j), slot_for(j, i)
            rng = derived_rng(seed, "overlap", n, i, j)
            for t in range(trials):
                x = random_overlap_point(rng, n, i, j)
                p = ChartPoint(chart(i, x), slot_ij)
                via_formula = transition(p, i, j)
                via_charts = ChartPoint(chart(j, chart_inv(i, p.coords)), slot_ji)
                err = via_formula.distance(via_charts)
                back = transition(via_formula, j, i).distance(p)
                err = max(err, back)
                worst = max(worst, err)
                if err > TRANSITION_TOL:
                    failures.append({"pair": [i, j], "trial": t, "error": err})
    return {
        "schema": 1,
        "check": "chart-transition-agreement",
        "n": n,
        "trials": trials,
        "seed": seed,
        "max_error": worst,
        "tolerance": TRANSITION_TOL,
        "failures": failures,
        "passed": not failures,
    }


def covering_generators(n):
    return [CoveringSet.basic(n, i) for i in range(_index(n, "n", 0) + 1)]


def classical_freeness(n):
    """Freeness of the chartwise covering sets under union and intersection.

    The test point of each nonempty proper index set a peaks exactly on a,
    so its type under the chartwise sets should be a; freeness_by_types
    decides freeness from the types the probes find.  The report's details
    give the probe count and, for a FREE verdict with n at most 4, the size
    of the lattice the chartwise sets generate, counted by _generated_size
    (past n = 4 that lattice has millions of elements).
    """
    n = _index(n, "n", 1)
    gens = covering_generators(n)
    types = []
    for r in range(1, n + 1):
        for a in itertools.combinations(range(n + 1), r):
            x = probe_point(a, n)
            types.append(sum(1 << i for i, g in enumerate(gens) if g.contains_point(x)))
    found = freeness_by_types(n + 1, types)
    details = {"probes": len(types)}
    if found.free and n <= 4:
        details["sublattice_size"] = _generated_size(gens)
    return FreenessReport(found.verdict, found.witness, details=details)


def _generated_size(gens):
    """Number of elements the covering sets gens generate under | and &:
    in a distributive lattice of sets each is a join of meets of gens, so
    closing gens under & and then those meets under | reaches them all."""
    meets = set()
    for g in gens:
        meets |= {g & m for m in meets}
        meets.add(g)
    joins = set()
    for m in meets:
        joins |= {m | j for j in joins}
        joins.add(m)
    return len(joins)


def covering_lattice(n):
    """All covering sets generated by the charts, as canonical families."""
    return [lattice_R(form) for form in fdl_enumerate(n + 1)]
