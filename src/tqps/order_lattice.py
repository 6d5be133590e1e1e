"""Finite posets, distributive lattices, the upper-set transform, and the
free distributive lattice on a finite generating family.

Conventions.  The transform sends a lattice element to the set of meet
irreducibles above it; those sets are upper sets of the irreducible poset,
and lattice join lands on intersection while lattice meet lands on union.
The upper-set lattice constructor adopts the same pairing (join is
intersection) so the two directions invert each other on the nose.  The
transform is also the one lattice check: it verifies on every pair that
the map is injective and a homomorphism onto the upper sets, which by
itself proves every lattice law and distributivity on every triple.

By Birkhoff's theorem an element of the free distributive lattice on
generators g_0..g_{n-1} is an up-set of the Boolean lattice of index sets:
the join over its minimal index sets of the meets over each set.  UpSet
stores such an up-set on k points as one 2^k-bit int, bit t standing for
the index set with mask t, so join is `|`, meet is `&` and the order is a
subset test.  AntichainForm (k = n) is that element; the covering sets of
classical_cpn (k = n + 1) share the encoding.

Two freeness tests follow from the theorem.  Sets G_0..G_{k-1} generate
a free distributive lattice exactly when every nonempty proper index set
is the type {i : x in G_i} of some point x (freeness_by_types): the
evaluation map sending an up-set U to {x : type(x) in U} is then
injective.  A lattice known only through join, meet and equality
callbacks is free on its generators exactly when every join over a
nonempty proper generator subset is meet irreducible and the order
between such joins is index-set inclusion; check_freeness_criterion
checks the order itself and takes the irreducibility evidence from the
caller, as the kernel lattice of multipullback supplies it.
"""

import functools
import itertools

# Largest element list FiniteDistributiveLattice.from_elements tabulates.
MAX_TABLE_ELEMENTS = 1200


class LatticeError(ValueError):
    """A lattice axiom or the distributive law failed to hold."""


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """Finite poset over hashable labels.

    The relation is stored as one up-set bitmask per element.  The
    constructor takes strict or reflexive pairs of labels; with close=True
    it forms the transitive closure, otherwise transitivity is required.
    Cycles are rejected either way.
    """

    __slots__ = ("labels", "_index", "up")

    def __init__(self, labels, pairs=(), close=False):
        self.labels = list(labels)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise LatticeError("duplicate labels")
        n = len(self.labels)
        up = [1 << i for i in range(n)]
        for a, b in pairs:
            up[self._index[a]] |= 1 << self._index[b]
        if close:
            for k in range(n):
                bit = 1 << k
                for i in range(n):
                    if up[i] & bit:
                        up[i] |= up[k]
        self.up = up
        self._validate()

    def _validate(self):
        n = len(self.labels)
        for i in range(n):
            ui = self.up[i]
            for j in _bits(ui):
                if self.up[j] & ~ui:
                    raise LatticeError(
                        "relation not transitive at %r <= %r" % (self.labels[i], self.labels[j])
                    )
                if i != j and (self.up[j] >> i) & 1:
                    raise LatticeError(
                        "cycle through %r and %r" % (self.labels[i], self.labels[j])
                    )

    @classmethod
    def chain(cls, k):
        return cls(range(k), [(i, i + 1) for i in range(k - 1)], close=True)

    @classmethod
    def antichain(cls, k):
        return cls(range(k))

    @classmethod
    def subsets(cls, base_size, nonempty=True, proper=False):
        """Poset of subsets of a base_size-point set, ordered by inclusion."""
        members = []
        for r in range(0 if not nonempty else 1, base_size + 1):
            if proper and r == base_size:
                continue
            members.extend(frozenset(c) for c in itertools.combinations(range(base_size), r))
        pairs = [(a, b) for a in members for b in members if a < b]
        return cls(members, pairs, close=True)

    @property
    def n(self):
        return len(self.labels)

    def index(self, label):
        return self._index[label]

    def leq_idx(self, i, j):
        return bool((self.up[i] >> j) & 1)

    def leq(self, a, b):
        return self.leq_idx(self._index[a], self._index[b])

    def strict_pairs(self):
        """All pairs (a, b) of labels with a < b."""
        return [
            (self.labels[i], self.labels[j])
            for i in range(self.n)
            for j in _bits(self.up[i])
            if i != j
        ]

    def covers(self):
        """Index pairs (i, j) where j covers i."""
        down = [0] * self.n
        for a in range(self.n):
            for b in _bits(self.up[a]):
                down[b] |= 1 << a
        out = []
        for i in range(self.n):
            strict = self.up[i] & ~(1 << i)
            for j in _bits(strict):
                between = strict & down[j] & ~(1 << j)
                if not between:
                    out.append((i, j))
        return out

    def linear_extension(self):
        """Element indices, minimal elements first."""
        return sorted(range(self.n), key=lambda i: (-self.up[i].bit_count(), i))

    def _profiles(self):
        down = [0] * self.n
        for i in range(self.n):
            for j in _bits(self.up[i]):
                down[j] |= 1 << i
        base = [(self.up[i].bit_count(), down[i].bit_count()) for i in range(self.n)]
        refined = []
        for i in range(self.n):
            ups = tuple(sorted(base[j] for j in _bits(self.up[i] & ~(1 << i))))
            downs = tuple(sorted(base[j] for j in _bits(down[i] & ~(1 << i))))
            refined.append((base[i], ups, downs))
        return refined

    def isomorphic(self, other):
        """Backtracking isomorphism test with profile pruning."""
        if self.n != other.n:
            return False
        pa, pb = self._profiles(), other._profiles()
        if sorted(pa) != sorted(pb):
            return False
        candidates = [[j for j in range(other.n) if pb[j] == pa[i]] for i in range(self.n)]
        order = sorted(range(self.n), key=lambda i: len(candidates[i]))
        assigned = {}
        used = set()

        def extend(pos):
            if pos == len(order):
                return True
            i = order[pos]
            for j in candidates[i]:
                if j in used:
                    continue
                ok = True
                for i2, j2 in assigned.items():
                    if self.leq_idx(i, i2) != other.leq_idx(j, j2) or self.leq_idx(
                        i2, i
                    ) != other.leq_idx(j2, j):
                        ok = False
                        break
                if ok:
                    assigned[i] = j
                    used.add(j)
                    if extend(pos + 1):
                        return True
                    del assigned[i]
                    used.discard(j)
            return False

        return extend(0)

    def to_dot(self, name="poset", label_fn=str):
        lines = ["digraph %s {" % name, "  rankdir=BT;", "  node [shape=box];"]
        for i, lab in enumerate(self.labels):
            lines.append('  n%d [label="%s"];' % (i, _dot_escape(label_fn(lab))))
        for i, j in sorted(self.covers()):
            lines.append("  n%d -> n%d;" % (i, j))
        lines.append("}")
        return "\n".join(lines)

    def to_json(self):
        return {
            "labels": [_label_json(lab) for lab in self.labels],
            "strict_pairs": sorted(
                [self.labels.index(a), self.labels.index(b)] for a, b in self.strict_pairs()
            ),
        }


def _dot_escape(s):
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _label_json(lab):
    if isinstance(lab, frozenset):
        return sorted(_label_json(x) for x in lab)
    if isinstance(lab, (set, tuple, list)):
        return [_label_json(x) for x in lab]
    return lab


def upper_set_masks(poset, limit=1 << 14):
    """All upper sets of the poset as bitmasks, sorted by (size, mask).

    Elements are decided maximal-first; a point may join only when its
    strict up-set is already in, so every search node is a valid partial
    choice and the run time is linear in the output.
    """
    order = poset.linear_extension()[::-1]
    out = []

    def rec(pos, mask):
        if len(out) > limit:
            raise ValueError("more than %d upper sets" % limit)
        if pos == len(order):
            out.append(mask)
            return
        i = order[pos]
        rec(pos + 1, mask)
        strict = poset.up[i] & ~(1 << i)
        if strict & ~mask == 0:
            rec(pos + 1, mask | (1 << i))

    rec(0, 0)
    out.sort(key=lambda m: (m.bit_count(), m))
    return out


def upper_sets(poset):
    """All upper sets as frozensets of labels."""
    return [
        frozenset(poset.labels[i] for i in _bits(mask)) for mask in upper_set_masks(poset)
    ]


class FiniteDistributiveLattice:
    """Finite lattice with explicit join and meet tables.

    Elements are arbitrary distinct values; tables hold element indices.
    validate() checks the lattice axioms and the distributive law on every
    table, whatever its size, through Birkhoff's embedding.
    """

    __slots__ = ("elements", "join_table", "meet_table")

    def __init__(self, elements, join_table, meet_table):
        self.elements = list(elements)
        self.join_table = join_table
        self.meet_table = meet_table

    @classmethod
    def from_upper_sets(cls, poset):
        """Lattice of all upper sets, join = intersection, meet = union."""
        masks = upper_set_masks(poset)
        if len(masks) > 4096:
            raise ValueError("upper set lattice too large for tables")
        pos = {m: i for i, m in enumerate(masks)}
        join = [[pos[a & b] for b in masks] for a in masks]
        meet = [[pos[a | b] for b in masks] for a in masks]
        elements = [frozenset(poset.labels[i] for i in _bits(m)) for m in masks]
        return cls(elements, join, meet)

    @classmethod
    def from_elements(cls, elements, join_fn, meet_fn):
        """Tables from callables; elements must be hashable and closed."""
        elements = list(elements)
        if len(elements) > MAX_TABLE_ELEMENTS:
            raise ValueError("too many elements for explicit tables")
        pos = {}
        for i, e in enumerate(elements):
            if e in pos:
                raise ValueError("duplicate element %r" % (e,))
            pos[e] = i
        join = [[0] * len(elements) for _ in elements]
        meet = [[0] * len(elements) for _ in elements]
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                try:
                    join[i][j] = pos[join_fn(a, b)]
                    meet[i][j] = pos[meet_fn(a, b)]
                except KeyError:
                    raise ValueError("join or meet escapes the element list")
        return cls(elements, join, meet)

    @property
    def n(self):
        return len(self.elements)

    def leq(self, i, j):
        return self.join_table[i][j] == j

    def top(self):
        for i in range(self.n):
            if all(self.leq(j, i) for j in range(self.n)):
                return i
        raise LatticeError("no top element")

    def validate(self):
        """Check the lattice laws and distributivity through birkhoff_transform.

        The image check there runs on every pair of elements of every
        lattice, and passing it proves every law on every triple; a failure
        raises LatticeError.
        """
        birkhoff_transform(self)

    def order_poset(self):
        pairs = [
            (i, j) for i in range(self.n) for j in range(self.n) if i != j and self.leq(i, j)
        ]
        return Poset(range(self.n), pairs)

    def to_dot(self, name="lattice", label_fn=None):
        if label_fn is None:
            label_fn = lambda i: _render_element(self.elements[i])
        return self.order_poset().to_dot(name=name, label_fn=label_fn)

    def to_json(self):
        return {
            "schema": 1,
            "size": self.n,
            "elements": [_render_element(e) for e in self.elements],
            "join": self.join_table,
            "meet": self.meet_table,
        }


def _render_element(e):
    if isinstance(e, AntichainForm):
        return e.render()
    if isinstance(e, frozenset):
        return "{" + ", ".join(sorted(str(x) for x in e)) + "}"
    return str(e)


def meet_irreducibles(lat):
    """Indices of elements with no nontrivial meet decomposition, top excluded."""
    reducible = set()
    mt = lat.meet_table
    for a in range(lat.n):
        for b in range(a + 1, lat.n):
            m = mt[a][b]
            if m != a and m != b:
                reducible.add(m)
    top = lat.top()
    return [c for c in range(lat.n) if c != top and c not in reducible]


class BirkhoffResult:
    __slots__ = ("poset", "irreducibles", "mapping")

    def __init__(self, poset, irreducibles, mapping):
        self.poset = poset
        self.irreducibles = irreducibles
        self.mapping = mapping


def birkhoff_transform(lat):
    """Map each element to the set of meet irreducibles above it.

    Returns the poset of meet irreducibles (labelled by their positions in
    the irreducible list) together with the images, each an int mask over
    irreducible positions as upper_set_masks encodes them.  On every lattice
    it first verifies that the map is injective, turns joins into
    intersections and meets into unions on every pair, and lands exactly on
    the upper sets of that poset.  An injective map with those two
    properties makes the tables a family of sets closed under intersection
    and union, so passing proves every lattice law and distributivity;
    any failure raises LatticeError.
    """
    mirr = meet_irreducibles(lat)
    jt, mt = lat.join_table, lat.meet_table
    mapping = [sum(1 << x for x, c in enumerate(mirr) if row[c] == c) for row in jt]
    pairs = [(x, y) for x, c in enumerate(mirr) for y in _bits(mapping[c]) if x != y]
    poset = Poset(range(len(mirr)), pairs)
    if len(set(mapping)) != lat.n:
        raise LatticeError("transform not injective; lattice is not distributive")
    for a, fa in enumerate(mapping):
        ja, ma = jt[a], mt[a]
        for b, fb in enumerate(mapping):
            if mapping[ja[b]] != fa & fb:
                raise LatticeError("join does not map to intersection at (%d, %d)" % (a, b))
            if mapping[ma[b]] != fa | fb:
                raise LatticeError("meet does not map to union at (%d, %d)" % (a, b))
    try:
        onto = set(mapping) == set(upper_set_masks(poset, limit=lat.n))
    except ValueError:
        onto = False
    if not onto:
        raise LatticeError("image is not the full upper set family")
    return BirkhoffResult(poset, mirr, mapping)


@functools.lru_cache(maxsize=None)
def _lacking(k):
    """(2^i, bits of the masks lacking point i) for each point i < k: 2^i ones
    then 2^i zeros, repeated, which is (2^(2^k) - 1) / (2^(2^i) + 1)."""
    full = (1 << (1 << k)) - 1
    return tuple((1 << i, full // ((1 << (1 << i)) + 1)) for i in range(k))


class UpSet:
    """Up-set of the Boolean lattice of index sets on k points, as one int.

    Bit t of `up` stands for the index set with mask t.  Join is union
    (`|`), meet is intersection (`&`) and the order is inclusion (`<=`);
    equality and hashing read (type, k, up) only.  Subclasses validate a
    family in their constructors and read it back through minimal_sets().
    """

    __slots__ = ("k", "up")

    def __init__(self, k, masks):
        """Up-closure of a set of distinct masks on k points."""
        up = sum(1 << t for t in masks)
        for step, lacking in _lacking(k):
            up |= (up & lacking) << step
        self.k, self.up = k, up

    @staticmethod
    def _masks(k, family):
        """Distinct masks of the index sets in family, each nonempty on k points."""
        masks = set()
        for s in family:
            s = frozenset(s)
            if not s or not all(0 <= i < k for i in s):
                raise LatticeError("bad index set %r" % (s,))
            masks.add(sum(1 << i for i in s))
        return masks

    @classmethod
    def _from_up(cls, k, up):
        out = object.__new__(cls)
        out.k, out.up = k, up
        return out

    @staticmethod
    def _index_sets(bits):
        """Sorted index tuples of the masks set in bits."""
        return sorted(tuple(_bits(t)) for t in _bits(bits))

    def minimal_sets(self):
        """Sorted index tuples of the members with no member one point smaller."""
        covered = 0
        for step, lacking in _lacking(self.k):
            covered |= (self.up & lacking) << step
        return self._index_sets(self.up & ~covered)

    def _check(self, other):
        if type(other) is not type(self) or self.k != other.k:
            raise ValueError("cannot combine %r with %r" % (self, other))

    def __or__(self, other):
        self._check(other)
        return self._from_up(self.k, self.up | other.up)

    def __and__(self, other):
        self._check(other)
        return self._from_up(self.k, self.up & other.up)

    def __le__(self, other):
        self._check(other)
        return not self.up & ~other.up

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.k == other.k and self.up == other.up

    def __hash__(self):
        return hash((self.k, self.up))


class AntichainForm(UpSet):
    """Join of meets over indexed generators, stored as its up-set.

    The antichain is a set of nonempty, pairwise incomparable index sets;
    the element it denotes is the join over the family of the meets over
    each set, and the up-set on n_generators points is everything above
    the family.  Two forms are equal exactly when they denote the same
    element of the free distributive lattice.
    """

    __slots__ = ()

    def __init__(self, n_generators, family):
        masks = self._masks(n_generators, family)
        if not masks:
            raise LatticeError("empty families are not elements here")
        super().__init__(n_generators, masks)
        if len(self.minimal_sets()) != len(masks):
            raise LatticeError("family is not an antichain")

    @classmethod
    def generator(cls, i, n_generators):
        return cls(n_generators, [frozenset([i])])

    @classmethod
    def pure_join(cls, indices, n_generators):
        return cls(n_generators, [frozenset([i]) for i in indices])

    @property
    def n_generators(self):
        return self.k

    def is_meet_irreducible(self):
        """True when the element has exactly one upper cover in the free lattice.

        An upper cover adds one nonempty index set outside the up-set whose
        one-point-larger supersets all lie inside it, so the element is
        meet irreducible exactly when there is one such set.
        """
        outside = ((1 << (1 << self.k)) - 2) & ~self.up
        for step, lacking in _lacking(self.k):
            outside &= (self.up >> step) | ~lacking
        return outside.bit_count() == 1

    @property
    def antichain(self):
        return frozenset(frozenset(s) for s in self.minimal_sets())

    def render(self):
        parts = self.minimal_sets()
        return " v ".join("^".join("g%d" % i for i in s) for s in parts)

    def __repr__(self):
        return "AntichainForm(%d, %s)" % (self.k, self.render())

    def to_json(self):
        return [list(s) for s in self.minimal_sets()]


def fdl_join(x, y):
    return x | y


def fdl_meet(x, y):
    return x & y


def fdl_leq(x, y):
    return x <= y


def _boolean_poset(n):
    """All subsets of an n-point set by inclusion; a subset's index is its mask."""
    pairs = [(t, t | 1 << i) for t in range(1 << n) for i in range(n)]
    return Poset(range(1 << n), pairs, close=True)


def antichain_count(n):
    """Number of antichains of subsets of an n-point set, empty ones included.

    Antichains correspond to their up-sets, which are counted here.
    """
    return len(upper_set_masks(_boolean_poset(n)))


def fdl_enumerate(n):
    """All elements of the free distributive lattice on n generators.

    The up-sets of the subset lattice other than the empty one and the one
    holding the empty set; the list is sorted canonically by antichain and
    has antichain_count(n) - 2 entries.
    """
    forms = [
        AntichainForm._from_up(n, up)
        for up in upper_set_masks(_boolean_poset(n))
        if up and not up & 1
    ]
    forms.sort(key=AntichainForm.minimal_sets)
    return forms


class FreenessReport:
    """Outcome of the generator-freeness test.

    verdict is FREE, NOT_FREE (with a witness identifying the violated
    clause) or INCONSISTENT (the callbacks broke a lattice law, so the
    freeness question was never reached).
    """

    __slots__ = ("verdict", "witness", "details")

    def __init__(self, verdict, witness=None, details=None):
        self.verdict = verdict
        self.witness = witness
        self.details = details or {}

    @property
    def free(self):
        return self.verdict == "FREE"

    def to_json(self):
        return {"verdict": self.verdict, "witness": self.witness, "details": self.details}

    def __repr__(self):
        return "FreenessReport(%s)" % self.verdict


def freeness_by_types(k, types):
    """Decide whether k sets generate a free distributive lattice, by types.

    types holds the type of every point x of the universe, as the mask
    with bit i set when x lies in G_i.  By Birkhoff's theorem the sets are free exactly when every
    nonempty proper index set occurs as a type; otherwise the missing set S
    is the witness, as the up-sets above S with and without S itself then
    evaluate to the same set.
    """
    if k < 1:
        raise ValueError("need at least one generator")
    seen = set(types)
    for mask in range(1, (1 << k) - 1):
        if mask not in seen:
            return FreenessReport("NOT_FREE", witness={"clause": "type", "I": list(_bits(mask))})
    return FreenessReport("FREE")


def check_freeness_criterion(generators, join, meet, eq, irreducibility):
    """Decide whether the generators generate freely, via callbacks.

    The test has two halves.  First, joins over nonempty proper index sets
    must be ordered exactly by inclusion of the index sets.  Second, each
    such join must be meet irreducible in the generated lattice; the
    caller supplies that evidence through irreducibility(index_set) ->
    (ok, info).  A distributivity spot check on the generators comes
    first; a broken law yields INCONSISTENT rather than a freeness verdict.
    """
    gens = list(generators)
    n = len(gens)
    if n < 1:
        raise ValueError("need at least one generator")

    def leq(a, b):
        return eq(join(a, b), b)

    index_sets = []
    for r in range(1, n):
        index_sets.extend(frozenset(c) for c in itertools.combinations(range(n), r))

    pure = {}
    for I in index_sets:
        it = iter(sorted(I))
        e = gens[next(it)]
        for i in it:
            e = join(e, gens[i])
        pure[I] = e

    for x in gens:
        for y in gens:
            for z in gens:
                lhs = meet(x, join(y, z))
                rhs = join(meet(x, y), meet(x, z))
                if not eq(lhs, rhs):
                    return FreenessReport(
                        "INCONSISTENT",
                        witness={"law": "distributivity", "note": "generator triple"},
                    )

    for I in index_sets:
        for J in index_sets:
            expected = I <= J
            observed = leq(pure[I], pure[J])
            if expected != observed:
                return FreenessReport(
                    "NOT_FREE",
                    witness={
                        "clause": "order",
                        "I": sorted(I),
                        "J": sorted(J),
                        "expected_leq": expected,
                        "observed_leq": observed,
                    },
                    details={"pure_joins": len(index_sets)},
                )

    evidence = []
    for I in index_sets:
        ok, info = irreducibility(I)
        evidence.append({"I": sorted(I), "ok": bool(ok), "info": info})
        if not ok:
            return FreenessReport(
                "NOT_FREE",
                witness={"clause": "irreducibility", "I": sorted(I), "info": info},
                details={"irreducibility": evidence},
            )
    return FreenessReport(
        "FREE",
        details={"pure_joins": len(index_sets), "irreducibility": evidence},
    )
