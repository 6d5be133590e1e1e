"""Finite posets, distributive lattices, the upper-set transform, and the
free distributive lattice on a finite generating family.

Conventions.  The transform sends a lattice element to the set of meet
irreducibles above it; those sets are upper sets of the irreducible poset,
and lattice join lands on intersection while lattice meet lands on union.
The upper-set lattice constructor adopts the same pairing (join is
intersection) so the two directions invert each other on the nose.  The
transform is also the one lattice check: it reads every entry of both
tables, the pairs a <= b through the map and the rest through symmetry,
and verifies that the map is injective and a homomorphism, which by
itself proves every lattice law and distributivity on every triple and,
by Birkhoff's theorem, makes the image exactly the upper sets.
FiniteDistributiveLattice keeps only the join and meet tables that check
reads; its constructor is the one check of their shape and entries, so
the transform reads them as positions without a second scan.

By Birkhoff's theorem an element of the free distributive lattice on
generators g_0..g_{n-1} is an up-set of the Boolean lattice of index sets:
the join over its minimal index sets of the meets over each set.  UpSet
stores such an up-set on k points as one 2^k-bit int, bit t standing for
the index set with mask t, so join is `|`, meet is `&` and the order is a
subset test.  AntichainForm (k = n) is that element; the covering sets of
classical_cpn (k = n + 1) share the encoding.  A list of such elements is
its own lattice: its Hasse diagram is the Poset of their `<=`, with no
tables built.  fdl_enumerate lists FD(n) in the order of minimal_sets()
by one depth-first walk over the antichains of ranked index sets, with
no up-set search and no sort.

Two freeness tests follow from the theorem.  Sets G_0..G_{k-1} generate
a free distributive lattice exactly when every nonempty proper index set
is the type {i : x in G_i} of some point x (freeness_by_types): the
evaluation map sending an up-set U to {x : type(x) in U} is then
injective.  A distributive lattice generated by g_0..g_{k-1} is free on
them exactly when every join over a nonempty proper index set is meet
irreducible and the order between such joins is index-set inclusion.
Both conditions are about index sets, so check_freeness_criterion takes
the order as leq(I, J) and the irreducibility evidence as a callback on
I, as the kernel lattice of multipullback supplies them.  Every freeness
test returns one FreenessReport: verdict, witness and evidence in a dict.
"""

import collections
import functools
import itertools

from .util import _index

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
    """Finite poset over hashable labels: the order the given pairs generate.

    The relation is stored as one up-set bitmask per element.  The
    constructor takes strict or reflexive pairs of labels and closes them
    in reverse topological order, by a depth-first search with one OR per
    given pair; a pair that closes a cycle is rejected.
    """

    __slots__ = ("labels", "_index", "up")

    def __init__(self, labels, pairs=()):
        labels, self._index = _elements(labels)
        self.labels = list(labels)
        n = len(self.labels)
        above = [[] for _ in range(n)]
        try:
            for a, b in pairs:
                i, j = self._index[a], self._index[b]
                if i != j:
                    above[i].append(j)
        except KeyError as exc:
            raise LatticeError("pair names unknown label %r" % (exc.args[0],)) from None
        except (TypeError, ValueError):
            raise LatticeError("pairs are not a sequence of label pairs") from None
        # up[i] is 0 before the search reaches i, -1 while i is on the
        # search path and the closed up-set once every element above is
        up = [0] * n
        for root in range(n):
            if up[root]:
                continue
            up[root] = -1
            stack = [(root, iter(above[root]))]
            while stack:
                i, rest = stack[-1]
                for j in rest:
                    if up[j] < 0:
                        raise LatticeError(
                            "cycle through %r and %r" % (self.labels[j], self.labels[i])
                        )
                    if not up[j]:
                        up[j] = -1
                        stack.append((j, iter(above[j])))
                        break
                else:
                    stack.pop()
                    mask = 1 << i
                    for j in above[i]:
                        mask |= up[j]
                    up[i] = mask
        self.up = up

    @classmethod
    def chain(cls, k):
        k = _index(k, "chain length", 0)
        return cls(range(k), [(i, i + 1) for i in range(k - 1)])

    @classmethod
    def antichain(cls, k):
        return cls(range(_index(k, "antichain size", 0)))

    @classmethod
    def subsets(cls, base_size, nonempty=True, proper=False):
        """Poset of subsets of a base_size-point set, ordered by inclusion."""
        base_size = _index(base_size, "base size", 0)
        members = []
        for r in range(0 if not nonempty else 1, base_size + 1):
            if proper and r == base_size:
                continue
            members.extend(frozenset(c) for c in itertools.combinations(range(base_size), r))
        pairs = [(a, b) for a in members for b in members if a < b]
        return cls(members, pairs)

    @property
    def n(self):
        return len(self.labels)

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

    def _down_masks(self):
        down = [0] * self.n
        for i in range(self.n):
            for j in _bits(self.up[i]):
                down[j] |= 1 << i
        return down

    def covers(self):
        """Index pairs (i, j) where j covers i."""
        down = self._down_masks()
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
        down = self._down_masks()
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
            "strict_pairs": [
                [i, j] for i in range(self.n) for j in _bits(self.up[i]) if i != j
            ],
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

    Each search node decides the first undecided element x of a linear
    extension, minimal elements first.  Taking an element takes its whole
    up-set, so nothing below an undecided x was taken: leaving x out forces
    nothing, and taking x in takes up[x].  Both branches end in at least one upper
    set, and a node with nothing left undecided is one, so the search
    visits fewer than twice as many nodes as it returns.  It keeps its own
    stack, so a deep poset costs no recursion; more than `limit` upper sets
    raise ValueError.
    """
    limit = _index(limit, "limit", 0)
    # (bit, up-set) of each element, minimal elements first
    steps = [(1 << i, poset.up[i]) for i in poset.linear_extension()]
    out = []
    # (position in steps, undecided mask, taken mask)
    stack = [(0, (1 << poset.n) - 1, 0)]
    while stack:
        pos, rest, taken = stack.pop()
        if not rest:
            if len(out) == limit:
                raise ValueError("more than %d upper sets" % limit)
            out.append(taken)
            continue
        while not rest & steps[pos][0]:
            pos += 1
        bit, up = steps[pos]
        stack.append((pos + 1, rest & ~up, taken | up))
        stack.append((pos + 1, rest & ~bit, taken))
    out.sort(key=lambda m: (m.bit_count(), m))
    return out


def upper_sets(poset):
    """All upper sets as frozensets of labels."""
    return [
        frozenset(poset.labels[i] for i in _bits(mask)) for mask in upper_set_masks(poset)
    ]


def _mirror(lower):
    """Complete a lower-triangular table (row i holds columns 0..i) to the
    symmetric square of tuple rows: row i gains column i below the
    diagonal.  Each new row is built at its exact size in place of the old
    one, which is freed once the column walk has read past it, so no second
    table is held."""
    for i, col in enumerate(itertools.zip_longest(*lower)):
        lower[i] = tuple(lower[i]) + col[i + 1 :]
    return tuple(lower)


def _checked_table(name, table, n):
    """table as tuple rows once it is n rows of n ints in 0..n-1; otherwise
    LatticeError names the table and the first row or cell that fails."""
    try:
        table = tuple(table)
    except TypeError:
        raise LatticeError("%s table is not a sequence" % name) from None
    if len(table) != n:
        raise LatticeError("%s table has %d rows, expected %d" % (name, len(table), n))
    rows = []
    for a, row in enumerate(table):
        try:
            row = tuple(row)
        except TypeError:
            raise LatticeError("%s table row %d is not a sequence" % (name, a)) from None
        if len(row) != n:
            raise LatticeError(
                "%s table row %d has %d entries, expected %d" % (name, a, len(row), n)
            )
        for b, v in enumerate(row):
            if type(v) is not int:
                raise LatticeError("%s table entry %r at (%d, %d) is not an int" % (name, v, a, b))
            if not 0 <= v < n:
                raise LatticeError(
                    "%s table entry %r at (%d, %d) is not in 0..%d" % (name, v, a, b, n - 1)
                )
        rows.append(row)
    return tuple(rows)


def _elements(elements):
    """elements as a tuple, and the position of each; LatticeError unless
    they are a sequence of distinct hashable values."""
    try:
        elements = tuple(elements)
    except TypeError:
        raise LatticeError("elements are not a sequence") from None
    pos = {}
    for i, e in enumerate(elements):
        try:
            if pos.setdefault(e, i) != i:
                raise LatticeError("duplicate element %r" % (e,))
        except TypeError:
            raise LatticeError("element %r is not hashable" % (e,)) from None
    return elements, pos


class FiniteDistributiveLattice:
    """Finite lattice with explicit join and meet tables.

    Elements are distinct hashable values; tables hold element indices.
    The constructor refuses a repeated element, then is the one check of
    the tables: n rows of n entries, each an int in 0..n-1 (a float or bool
    equal to an index would read as it), naming the first table, row or
    cell that fails.  Elements and table rows are stored as tuples, so
    nothing that scan read changes after it.
    validate() checks the lattice axioms and the distributive law on every
    table, whatever its size, through Birkhoff's embedding.  The class
    holds only what that check reads: the tables, n, leq and top.  Up-sets
    that already carry their order (UpSet) need no tables to be drawn.
    """

    __slots__ = ("elements", "join_table", "meet_table")

    def __init__(self, elements, join_table, meet_table):
        self.elements = _elements(elements)[0]
        n = len(self.elements)
        self.join_table = _checked_table("join", join_table, n)
        self.meet_table = _checked_table("meet", meet_table, n)

    @classmethod
    def _int_tables(cls, elements, join_table, meet_table):
        """The lattice without the constructor's scan.  Every caller meets
        its condition, which makes skipping it sound: n x n tables of int
        positions in 0..n-1, each read from the caller's position dict."""
        out = object.__new__(cls)
        out.elements = tuple(elements)
        out.join_table = tuple(map(tuple, join_table))
        out.meet_table = tuple(map(tuple, meet_table))
        return out

    @classmethod
    def from_upper_sets(cls, poset):
        """Lattice of all upper sets, join = intersection, meet = union."""
        masks = upper_set_masks(poset, limit=4096)
        pos = {m: i for i, m in enumerate(masks)}
        join = _mirror([[pos[a & b] for b in masks[: i + 1]] for i, a in enumerate(masks)])
        meet = _mirror([[pos[a | b] for b in masks[: i + 1]] for i, a in enumerate(masks)])
        elements = [frozenset(poset.labels[i] for i in _bits(m)) for m in masks]
        return cls._int_tables(elements, join, meet)

    @classmethod
    def from_elements(cls, elements, join_fn, meet_fn):
        """Tables from callables; elements must be distinct, hashable and
        closed under both."""
        elements, pos = _elements(elements)
        if len(elements) > MAX_TABLE_ELEMENTS:
            raise ValueError("too many elements for explicit tables")
        try:
            join = [tuple([pos[join_fn(a, b)] for b in elements]) for a in elements]
            meet = [tuple([pos[meet_fn(a, b)] for b in elements]) for a in elements]
        except KeyError:
            raise ValueError("join or meet escapes the element list")
        return cls._int_tables(elements, join, meet)

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

        The constructor has checked the tables' shape and entries; the
        check there reads every entry of both tables of every lattice: the
        pairs a <= b through the images, the rest through symmetry.  Passing
        it proves every law on every triple; a failure raises LatticeError.
        """
        birkhoff_transform(self)


def meet_irreducibles(lat):
    """Indices of elements with no nontrivial meet decomposition, top excluded."""
    reducible = set()
    mt = lat.meet_table
    for a in range(lat.n):
        row = mt[a]
        for b in range(a + 1, lat.n):
            m = row[b]
            if m != a and m != b:
                reducible.add(m)
    top = lat.top()
    return [c for c in range(lat.n) if c != top and c not in reducible]


BirkhoffResult = collections.namedtuple("BirkhoffResult", ["poset", "irreducibles", "mapping"])


def birkhoff_transform(lat):
    """Map each element to the set of meet irreducibles above it.

    Returns the poset of meet irreducibles (labelled by their positions in
    the irreducible list) together with the images, each an int mask over
    irreducible positions as upper_set_masks encodes them.  The constructor
    has checked that both tables are n x n over 0..n-1; on every lattice
    this verifies that the map is injective and that it turns joins into
    intersections and meets into unions on every pair: the pairs a <= b
    through the images, the rest through the symmetry of both tables, so
    every entry is read.  An injective map with those two properties makes
    the tables a family of sets closed under intersection and union, so
    passing proves every lattice law and distributivity; any failure raises
    LatticeError.  The pairs a <= b are read in row-major order before each
    table is compared with its transpose, so on symmetric tables the first
    failing pair named is the one a check of every pair would name.

    The image is then exactly the upper sets of the irreducible poset, as
    Birkhoff's theorem says, so no onto pass is run: a <= b reads as
    mapping[b] within mapping[a], so each image {x : a <= c_x} is an upper
    set and the irreducible c_x maps to the principal upper set of x; the
    top maps to the empty set, as it is no irreducible, and meets map to
    unions, so every union of principal upper sets, which is every upper
    set, is an image.
    """
    n = lat.n
    mirr = meet_irreducibles(lat)
    jt, mt = lat.join_table, lat.meet_table
    mapping = [sum(1 << x for x, c in enumerate(mirr) if row[c] == c) for row in jt]
    pairs = [(x, y) for x, c in enumerate(mirr) for y in _bits(mapping[c]) if x != y]
    poset = Poset(range(len(mirr)), pairs)
    if len(set(mapping)) != n:
        raise LatticeError("transform not injective; lattice is not distributive")
    for a, fa in enumerate(mapping):
        ja, ma = jt[a], mt[a]
        for b, fb in enumerate(mapping[a:], a):
            if mapping[ja[b]] != fa & fb:
                raise LatticeError("join does not map to intersection at (%d, %d)" % (a, b))
            if mapping[ma[b]] != fa | fb:
                raise LatticeError("meet does not map to union at (%d, %d)" % (a, b))
    for name, table in (("join", jt), ("meet", mt)):
        for a, (row, col) in enumerate(zip(table, zip(*table))):
            if row != col:
                b = next(b for b in range(a + 1, n) if row[b] != col[b])
                raise LatticeError("%s table is not symmetric at (%d, %d)" % (name, a, b))
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
    equality reads (type, k, up) only, and the hash up alone.  Subclasses
    validate a family in their constructors and read it back through
    minimal_sets().
    """

    __slots__ = ("k", "up")

    def __init__(self, k, masks):
        """Up-closure of the masks on k points, each an int in 0..2^k - 1;
        a repeated mask counts once."""
        k = _index(k, "point count", 0)
        high = (1 << k) - 1
        up = sum(1 << t for t in {_index(t, "mask", 0, high) for t in masks})
        for step, lacking in _lacking(k):
            up |= (up & lacking) << step
        self.k, self.up = k, up

    @staticmethod
    def _masks(k, family):
        """Distinct masks of the index sets in family, each a nonempty set
        of ints in 0..k-1."""
        masks = set()
        try:
            for s in family:
                s = frozenset(s)
                if not s or not all(type(i) is int and 0 <= i < k for i in s):
                    raise LatticeError("bad index set %r" % (s,))
                masks.add(sum(1 << i for i in s))
        except TypeError:
            raise LatticeError("family is not a sequence of index sets") from None
        return masks

    @staticmethod
    def _index_sets(bits):
        """Sorted index tuples of the masks set in bits."""
        return sorted(tuple(_bits(t)) for t in _bits(bits))

    def minimal_sets(self):
        """Sorted index tuples of the members with no member one point smaller:
        the members lacking point i, shifted by 2^i, mark the rest."""
        up, covered = self.up, 0
        for step, lacking in _lacking(self.k):
            covered |= (up & lacking) << step
        return self._index_sets(up & ~covered)

    def _mismatch(self, other):
        return ValueError("cannot combine %r with %r" % (self, other))

    # The operators run once per table cell, so each tests type and k and
    # builds its result in line, k and up set on a bare object.
    def __or__(self, other):
        cls = type(self)
        if type(other) is not cls or self.k != other.k:
            raise self._mismatch(other)
        out = object.__new__(cls)
        out.k, out.up = self.k, self.up | other.up
        return out

    def __and__(self, other):
        cls = type(self)
        if type(other) is not cls or self.k != other.k:
            raise self._mismatch(other)
        out = object.__new__(cls)
        out.k, out.up = self.k, self.up & other.up
        return out

    def __le__(self, other):
        if type(other) is not type(self) or self.k != other.k:
            raise self._mismatch(other)
        return not self.up & ~other.up

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.k == other.k and self.up == other.up

    def __hash__(self):
        # equal elements share up, and an int hashes alike in every process
        return hash(self.up)


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
        n_generators = _index(n_generators, "generator count", 0)
        masks = self._masks(n_generators, family)
        if not masks:
            raise LatticeError("empty families are not elements here")
        super().__init__(n_generators, masks)
        if len(self.minimal_sets()) != len(masks):
            raise LatticeError("family is not an antichain")

    @property
    def n_generators(self):
        return self.k

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


def antichain_count(n):
    """Number of antichains of subsets of an n-point set, empty ones included.

    These are the Dedekind numbers (OEIS A000372), read from a table that
    no listing here produced; n past the table raises ValueError.
    """
    return (2, 3, 6, 20, 168, 7581)[_index(n, "tabulated generator count", 0, 5)]


def fdl_enumerate(n):
    """All elements of the free distributive lattice on n generators.

    One form per nonempty antichain of nonempty index sets, which makes
    antichain_count(n) - 2 forms, so n is read against the same table.
    With the index sets ranked by their index tuples, a depth-first walk
    emits each antichain, as a rising rank list, before its extensions and
    a smaller last rank first: the order of minimal_sets(), with no sort.
    It keeps its own stack, as a recursive closure would hold each listing
    in a reference cycle until a full garbage collection.
    """
    n = _index(n, "tabulated generator count", 0, 5)
    sets = sorted(range(1, 1 << n), key=lambda t: tuple(_bits(t)))
    # above[r]: bits of the masks containing set r; clash[r]: ranks of the
    # sets comparable with set r, r itself included
    above = [sum(1 << u for u in range(1 << n) if u & t == t) for t in sets]
    clash = [sum(1 << r for r, u in enumerate(sets) if u & t in (t, u)) for t in sets]
    full = (1 << len(sets)) - 1
    # (up-set of a rank list, ranks above its last that clash with none of
    # it), siblings pushed largest first; forms are built in line
    stack = [(above[r], full & ~((1 << r) - 1 | clash[r])) for r in reversed(range(len(sets)))]
    out = []
    new = object.__new__
    while stack:
        up, free = stack.pop()
        form = new(AntichainForm)
        form.k, form.up = n, up
        out.append(form)
        rest = free
        while rest:
            r = rest.bit_length() - 1
            rest ^= 1 << r  # now the ranks of free below r
            stack.append((up | above[r], free & ~(rest | clash[r])))
    return out


class FreenessReport:
    """Outcome of a freeness test, as one JSON-ready dict, `bundle`.

    bundle holds the verdict, FREE or NOT_FREE, the witness naming the
    violated clause (None when FREE) and whatever evidence the test passes
    as keyword arguments; every property reads it and to_json returns it.
    """

    __slots__ = ("bundle",)

    def __init__(self, verdict, witness=None, **evidence):
        self.bundle = {"verdict": verdict, "witness": witness, **evidence}

    @property
    def verdict(self):
        return self.bundle["verdict"]

    @property
    def witness(self):
        return self.bundle["witness"]

    @property
    def free(self):
        return self.verdict == "FREE"

    def to_json(self):
        return self.bundle

    def __repr__(self):
        return "FreenessReport(%s)" % self.verdict


def freeness_by_types(k, types):
    """Decide whether k sets generate a free distributive lattice, by types.

    types holds the type of every point x of the universe, as the mask
    with bit i set when x lies in G_i.  By Birkhoff's theorem the sets are free exactly when every
    nonempty proper index set occurs as a type; otherwise the missing set S
    is the witness, as the up-sets above S with and without S itself then
    evaluate to the same set.  A type that is no int in 0..2^k - 1 raises
    ValueError before any verdict.
    """
    k = _index(k, "k", 2)
    full = (1 << k) - 1
    try:
        seen = {_index(t, "type", 0, full) for t in types}
    except TypeError:
        raise ValueError("types are not a sequence of masks") from None
    for mask in range(1, full):
        if mask not in seen:
            return FreenessReport("NOT_FREE", witness={"clause": "type", "I": list(_bits(mask))})
    return FreenessReport("FREE")


def check_freeness_criterion(k, leq, irreducibility):
    """Decide whether k generators of a distributive lattice generate freely.

    Both halves walk the nonempty proper index sets of range(k).  First,
    leq(I, J), whether the join over I lies below the join over J, must be
    exactly I <= J.  Second, each such join must be meet irreducible; the
    caller supplies that evidence through irreducibility(I) -> (ok, info).
    The report carries the verdict and, for NOT_FREE, a witness naming the
    first failed clause, with the info of a failed irreducibility answer.
    """
    k = _index(k, "k", 2)
    index_sets = []
    for r in range(1, k):
        index_sets.extend(frozenset(c) for c in itertools.combinations(range(k), r))

    for I in index_sets:
        for J in index_sets:
            expected = I <= J
            observed = bool(leq(I, J))
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
                )

    for I in index_sets:
        ok, info = irreducibility(I)
        if not ok:
            return FreenessReport(
                "NOT_FREE", witness={"clause": "irreducibility", "I": sorted(I), "info": info}
            )
    return FreenessReport("FREE")
