"""Checks for posets, distributive lattices, and the freeness criterion."""

import gc
import operator
import re

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    antichain_join,
    antichain_leq,
    antichain_meet,
    brute_upper_sets,
    closure_size,
    full_pair_birkhoff,
    minimal_sets,
    naive_antichain_count,
    searched_free_lattice,
)
from tqps.classical_cpn import CoveringSet, covering_generators
from tqps.order_lattice import (
    MAX_TABLE_ELEMENTS,
    AntichainForm,
    FiniteDistributiveLattice,
    LatticeError,
    Poset,
    UpSet,
    antichain_count,
    birkhoff_transform,
    check_freeness_criterion,
    fdl_enumerate,
    fdl_join,
    fdl_meet,
    freeness_by_types,
    meet_irreducibles,
    upper_set_masks,
    upper_sets,
)
from tqps.sampling import DEFAULT_SEED, random_poset
from tqps.util import _index, canonical_json, derived_rng


def rng_for(name):
    return derived_rng(DEFAULT_SEED, "test-lattice", name)


# hypothesis strategies: the pairs of a random DAG on 1..6 points, orienting
# random pairs by a shuffled order, and the poset they generate
@st.composite
def dag_pairs(draw):
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(n)))
    pairs = [(order[a], order[b]) for a in range(n) for b in range(a + 1, n) if draw(st.booleans())]
    return n, pairs


def posets():
    return dag_pairs().map(lambda data: Poset(range(data[0]), data[1]))


def test_poset_validation():
    with pytest.raises(LatticeError, match="cycle through 0 and 1"):
        Poset([0, 1], [(0, 1), (1, 0)])  # antisymmetry
    with pytest.raises(LatticeError, match="cycle through 0 and 2"):
        Poset([0, 1, 2], [(0, 1), (1, 2), (2, 0)])  # the pair closing a longer cycle
    # pairs that are not transitively closed generate their closure
    assert Poset([0, 1, 2], [(0, 1), (1, 2)]).up == [0b111, 0b110, 0b100]
    with pytest.raises(LatticeError):
        Poset([0, 0], [])  # duplicate labels
    for pairs in ([(0, 5)], [(5, 0)]):
        with pytest.raises(LatticeError, match="unknown label 5"):
            Poset([0, 1], pairs)


@given(dag_pairs())
def test_poset_is_the_order_its_pairs_generate(data):
    # oracle: Warshall's transitive closure over sets
    n, pairs = data
    reach = [{i} for i in range(n)]
    for a, b in pairs:
        reach[a].add(b)
    for k in range(n):
        for i in range(n):
            if k in reach[i]:
                reach[i] |= reach[k]
    p = Poset(range(n), pairs)
    assert [{j for j in range(n) if p.leq(i, j)} for i in range(n)] == reach


def test_poset_constructors():
    chain = Poset.chain(4)
    assert len(chain.strict_pairs()) == 6
    assert Poset.antichain(4).strict_pairs() == []
    three = Poset.subsets(3, nonempty=True)
    assert three.n == 7
    assert Poset.subsets(3, nonempty=False).n == 8
    assert Poset.subsets(3, nonempty=True, proper=True).n == 6


def test_covers_of_the_subset_diamond():
    p = Poset.subsets(2, nonempty=False)
    covers = {(p.labels[i], p.labels[j]) for i, j in p.covers()}
    assert covers == {
        (frozenset(), frozenset({0})),
        (frozenset(), frozenset({1})),
        (frozenset({0}), frozenset({0, 1})),
        (frozenset({1}), frozenset({0, 1})),
    }


@given(posets())
def test_linear_extension_respects_order(p):
    order = [p.labels[i] for i in p.linear_extension()]
    position = {label: i for i, label in enumerate(order)}
    for a, b in p.strict_pairs():
        assert position[a] < position[b]


def test_isomorphism_sees_orientation():
    vee = Poset(["a", "b", "c"], [("a", "b"), ("a", "c")])
    wedge = Poset(["x", "y", "z"], [("x", "z"), ("y", "z")])
    assert vee.isomorphic(vee)
    assert not vee.isomorphic(wedge)
    assert not vee.isomorphic(Poset.chain(3))
    relabeled = Poset([10, 20, 30], [(20, 10), (20, 30)])
    assert vee.isomorphic(relabeled)


def test_isomorphism_refuses_a_size_mismatch():
    assert not Poset(range(3)).isomorphic(Poset(range(4)))


def test_isomorphism_backtracks_past_a_wrong_first_choice():
    # every element shares its profile with another, and the first
    # candidates the search tries do not extend: it backtracks three times
    # before it finds the relabelling
    pairs = [(0, 1), (0, 3), (1, 5), (2, 6), (3, 6), (4, 5)]
    relabel = [4, 2, 5, 6, 3, 1, 0]
    p = Poset(range(7), pairs)
    q = Poset(range(7), [(relabel[a], relabel[b]) for a, b in pairs])
    assert p.isomorphic(q) and q.isomorphic(p)
    assert not p.isomorphic(Poset(range(7), pairs[:-1] + [(4, 6)]))


@given(posets())
def test_upper_sets_match_exhaustive_filter(p):
    assert set(upper_sets(p)) == set(brute_upper_sets(p))


def test_upper_set_counts():
    # proper nonempty subsets of a 3-point base: 19 upper sets; adding the
    # empty set to the base poset brings the count to the full 20
    assert len(upper_sets(Poset.subsets(3, nonempty=True))) == 19
    assert len(upper_sets(Poset.subsets(3, nonempty=False))) == 20
    assert len(upper_sets(Poset.subsets(2, nonempty=True))) == 5
    assert len(upper_sets(Poset.chain(4))) == 5
    assert len(upper_sets(Poset.antichain(4))) == 16


def test_upper_set_search_needs_no_recursion():
    # one search level per element: a deep chain must not reach the
    # interpreter's recursion limit
    masks = upper_set_masks(Poset.chain(3000))
    assert len(masks) == 3001
    assert masks[:2] == [0, 1 << 2999]
    with pytest.raises(ValueError, match="more than 15 upper sets"):
        upper_set_masks(Poset.antichain(4), limit=15)
    assert len(upper_set_masks(Poset.antichain(4), limit=16)) == 16


@given(posets())
def test_birkhoff_roundtrip(p):
    lat = FiniteDistributiveLattice.from_upper_sets(p)
    lat.validate()
    result = birkhoff_transform(lat)
    assert result.poset.isomorphic(p)


def test_birkhoff_roundtrip_keeps_orientation():
    vee = Poset(["a", "b", "c"], [("a", "b"), ("a", "c")])
    lat = FiniteDistributiveLattice.from_upper_sets(vee)
    assert birkhoff_transform(lat).poset.isomorphic(vee)
    wedge = Poset(["x", "y", "z"], [("x", "z"), ("y", "z")])
    assert not birkhoff_transform(lat).poset.isomorphic(wedge)


def test_diamond_irreducibles():
    lat = FiniteDistributiveLattice.from_upper_sets(Poset.antichain(2))
    assert lat.n == 4
    assert len(meet_irreducibles(lat)) == 2


def _m3_tables():
    # the five-element modular, non-distributive lattice
    bot, a, b, c, top = "0", "a", "b", "c", "1"
    pairs = [(a, b), (a, c), (b, c)]
    join = {frozenset(p): top for p in pairs}
    meet = {frozenset(p): bot for p in pairs}
    for x in (a, b, c):
        join[frozenset((bot, x))] = x
        join[frozenset((x, top))] = top
        meet[frozenset((bot, x))] = bot
        meet[frozenset((x, top))] = x
    join[frozenset((bot, top))] = top
    meet[frozenset((bot, top))] = bot
    join_fn = lambda x, y: x if x == y else join[frozenset((x, y))]
    meet_fn = lambda x, y: x if x == y else meet[frozenset((x, y))]
    return join_fn, meet_fn


def _m3():
    join_fn, meet_fn = _m3_tables()
    return FiniteDistributiveLattice.from_elements(
        ["0", "a", "b", "c", "1"], join_fn, meet_fn
    )


def _n5():
    # the five-element pentagon 0 < a < b < 1, 0 < c < 1: not modular
    labels = ["0", "a", "b", "c", "1"]
    up = {"0": set(labels), "a": {"a", "b", "1"}, "b": {"b", "1"}, "c": {"c", "1"}, "1": {"1"}}

    def least(bounds):
        return next(z for z in bounds if all(w in up[z] for w in bounds))

    def greatest(bounds):
        return next(z for z in bounds if all(z in up[w] for w in bounds))

    return FiniteDistributiveLattice.from_elements(
        labels,
        lambda x, y: least([z for z in labels if z in up[x] & up[y]]),
        lambda x, y: greatest([z for z in labels if x in up[z] and y in up[z]]),
    )


def _chain_under_m3(length):
    # a chain of `length` elements whose top is the bottom of M3, so
    # length + 4 elements; every non-distributive triple sits in M3
    m3_join, m3_meet = _m3_tables()
    chain = list(range(length - 1))

    def join_fn(x, y):
        if isinstance(x, int) and isinstance(y, int):
            return max(x, y)
        if isinstance(x, int) or isinstance(y, int):
            return y if isinstance(x, int) else x
        return m3_join(x, y)

    def meet_fn(x, y):
        if isinstance(x, int) and isinstance(y, int):
            return min(x, y)
        if isinstance(x, int) or isinstance(y, int):
            return x if isinstance(x, int) else y
        return m3_meet(x, y)

    return FiniteDistributiveLattice.from_elements(
        chain + ["0", "a", "b", "c", "1"], join_fn, meet_fn
    )


def _two_element(join, meet):
    return FiniteDistributiveLattice(["0", "1"], join, meet)


def test_non_distributive_lattice_is_rejected():
    # M3 and N5, then two-element tables that break idempotence,
    # commutativity and absorption: laws with no loop of their own
    for lat in (
        _m3(),
        _n5(),
        _two_element([[1, 1], [1, 1]], [[0, 0], [0, 1]]),
        _two_element([[0, 1], [0, 1]], [[0, 0], [0, 1]]),
        _two_element([[0, 1], [1, 1]], [[0, 1], [1, 1]]),
    ):
        with pytest.raises(LatticeError):
            lat.validate()
        with pytest.raises(LatticeError):
            birkhoff_transform(lat)


@pytest.mark.parametrize("length, size", [(37, 41), (300, 304)])
def test_large_non_distributive_lattice_is_rejected(length, size):
    # past 40 elements every pair is still checked: no triple is sampled
    lat = _chain_under_m3(length)
    assert lat.n == size
    with pytest.raises(LatticeError):
        lat.validate()
    with pytest.raises(LatticeError):
        birkhoff_transform(lat)


def test_empty_tables_are_rejected():
    with pytest.raises(LatticeError):
        FiniteDistributiveLattice([], [], []).validate()


def test_a_join_off_the_intersection_is_rejected():
    # upper sets of two points, in the order [], [0], [1], [0, 1]; the join
    # of [0] and [1] is their intersection, index 0.  Pointing it at index
    # 3 leaves every image, the top and the irreducibles as they were, so
    # only the pair check can see it
    lat = FiniteDistributiveLattice.from_upper_sets(Poset.antichain(2))
    assert lat.join_table[1][2] == 0
    bad = _with_cell(lat, "join", 1, 2, 3, False)
    with pytest.raises(LatticeError, match=r"join does not map to intersection at \(1, 2\)"):
        birkhoff_transform(bad)


_TWO_ELEMENT_TABLES = [[0, 1], [1, 1]], [[0, 0], [0, 1]]


@pytest.mark.parametrize(
    "build",
    [
        lambda: FiniteDistributiveLattice(["0", "1"], *_TWO_ELEMENT_TABLES),
        lambda: FiniteDistributiveLattice._int_tables(["0", "1"], *_TWO_ELEMENT_TABLES),
        lambda: FiniteDistributiveLattice.from_upper_sets(Poset.chain(2)),
        lambda: FiniteDistributiveLattice.from_elements([0, 1, 2], max, min),
    ],
    ids=["constructor", "int-tables", "upper-sets", "elements"],
)
def test_a_built_lattice_keeps_its_cells(build):
    # a 1.0 written into a cell that holds 1 after the constructor's scan
    # would read as index 1 and pass validate(); each table is a tuple of
    # tuple rows, however the lattice was built, so no cell or row can be
    # written.  n is the length of the elements the scan read against, and
    # they are a tuple too, so no append grows n past the tables
    lat = build()
    for table in (lat.join_table, lat.meet_table):
        with pytest.raises(TypeError):
            table[1][1] = 1.0
        with pytest.raises(TypeError):
            table[1] = [1, 1]
    with pytest.raises(AttributeError):
        lat.elements.append("2")
    assert lat.n == len(lat.join_table) == len(lat.meet_table)
    lat.validate()


def _accepts(check, lat):
    try:
        check(lat)
    except LatticeError:
        return False
    return True


def _with_cell(lat, name, a, b, v, mirrored):
    """A copy of lat with entry (a, b) of one table, and (b, a) if mirrored,
    set to v, built through the constructor, whose scan sees v."""
    tables = {
        "join": [list(row) for row in lat.join_table],
        "meet": [list(row) for row in lat.meet_table],
    }
    table = tables[name]
    table[a][b] = v
    if mirrored:
        table[b][a] = v
    return FiniteDistributiveLattice(lat.elements, tables["join"], tables["meet"])


def _single_cell_corruptions(lat):
    """(lattice, symmetric) for every cell of either table set to every other
    in-range index, alone and together with its mirror cell."""
    n = lat.n
    for name, table in (("join", lat.join_table), ("meet", lat.meet_table)):
        for a in range(n):
            for b in range(n):
                for v in range(n):
                    if v != table[a][b]:
                        yield _with_cell(lat, name, a, b, v, False), a == b
                        if a != b:
                            yield _with_cell(lat, name, a, b, v, True), True


@pytest.mark.parametrize(
    "poset",
    [Poset.chain(2), Poset.antichain(2), Poset(["a", "b", "c"], [("a", "b")])],
    ids=["chain-3", "boolean-4", "upper-sets-6"],
)
def test_one_triangle_check_misses_no_corrupted_cell(poset):
    # the check reads pairs a <= b through the images and the rest through
    # symmetry; every single-cell corruption must still be refused, as the
    # every-pair reference refuses it, and on a symmetric table both name
    # the same first failure
    lat = FiniteDistributiveLattice.from_upper_sets(poset)
    assert _accepts(birkhoff_transform, lat) and _accepts(full_pair_birkhoff, lat)
    n = lat.n
    seen = 0
    for bad, symmetric in _single_cell_corruptions(lat):
        assert not _accepts(full_pair_birkhoff, bad)
        with pytest.raises(LatticeError) as refused:
            birkhoff_transform(bad)
        if symmetric:
            with pytest.raises(LatticeError) as reference:
                full_pair_birkhoff(bad)
            assert str(refused.value) == str(reference.value)
        seen += 1
    assert seen == 2 * (n - 1) * (n + 2 * n * (n - 1))


def test_an_asymmetric_table_is_named():
    # chain of three: the meet of elements 1 and 2 is 2.  Changing only the
    # cell below the diagonal leaves every pair a <= b and every image as
    # they were, so only the symmetry test can see it
    lat = FiniteDistributiveLattice.from_upper_sets(Poset.chain(2))
    bad = _with_cell(lat, "meet", 2, 1, 0, False)
    with pytest.raises(LatticeError, match=r"meet table is not symmetric at \(1, 2\)"):
        birkhoff_transform(bad)
    with pytest.raises(LatticeError, match="not symmetric"):
        bad.validate()
    # the tables are stored as tuple rows, whatever sequence held them
    as_lists = [[list(row) for row in t] for t in (lat.join_table, lat.meet_table)]
    FiniteDistributiveLattice(lat.elements, *as_lists).validate()


def test_entries_outside_the_index_range_are_refused():
    # a negative entry v - 3 or v - 6 of the chain of three would read as v
    # through a list index, or through that list padded to 2n, and v + 3 is
    # past the end; the constructor refuses each cell, mirrored, of either
    # table by the first of the two in row-major order, with no validate()
    lat = FiniteDistributiveLattice.from_upper_sets(Poset.chain(2))
    for name, table in (("join", lat.join_table), ("meet", lat.meet_table)):
        for a in range(3):
            for b in range(3):
                v = table[a][b]
                first = (min(a, b), max(a, b))
                for bad_v in (v - 3, v - 6, v + 3):
                    message = r"^%s table entry %d at \(%d, %d\) is not in 0..2$" % (
                        name,
                        bad_v,
                        *first,
                    )
                    with pytest.raises(LatticeError, match=message):
                        _with_cell(lat, name, a, b, bad_v, True)
    # an index past the end, a row too long, a row too short, a row missing
    meet = [[0, 0], [0, 1]]
    for join, message in [
        ([[0, 1], [1, 5]], r"join table entry 5 at \(1, 1\) is not in 0..1"),
        ([[0, 1, 5], [1, 1]], "join table row 0 has 3 entries, expected 2"),
        ([[0, 1], [1]], "join table row 1 has 1 entries, expected 2"),
        ([[0, 1]], "join table has 1 rows, expected 2"),
    ]:
        with pytest.raises(LatticeError, match=message):
            FiniteDistributiveLattice(["0", "1"], join, meet)
    with pytest.raises(LatticeError, match="meet table has 3 rows, expected 2"):
        FiniteDistributiveLattice(["0", "1"], [[0, 1], [1, 1]], meet + [[0, 1]])


@pytest.mark.parametrize(
    "join, meet, message",
    [
        pytest.param([0], [[0]], "join table row 0 is not a sequence", id="row"),
        pytest.param(5, [[0]], "join table is not a sequence", id="join"),
        pytest.param([[0]], None, "meet table is not a sequence", id="meet"),
    ],
)
def test_a_table_or_row_that_is_no_sequence_is_refused(join, meet, message):
    # a LatticeError naming the table and row, not a TypeError from reading it
    with pytest.raises(LatticeError, match="^%s$" % message):
        FiniteDistributiveLattice(["0"], join, meet)


@pytest.mark.parametrize(
    "elements, join, meet, message",
    [
        pytest.param(5, [[0]], [[0]], "elements are not a sequence", id="no-sequence"),
        pytest.param(["a", "a"], *_TWO_ELEMENT_TABLES, "duplicate element 'a'", id="duplicate"),
        pytest.param(
            [[0], [1]], *_TWO_ELEMENT_TABLES, r"element \[0\] is not hashable", id="unhashable"
        ),
    ],
)
def test_elements_that_are_no_sequence_of_distinct_values_are_refused(
    elements, join, meet, message
):
    # a LatticeError before the table scan, never a TypeError, from the
    # one reader the constructor and from_elements share: two positions
    # never name one element
    with pytest.raises(LatticeError, match="^%s$" % message):
        FiniteDistributiveLattice(elements, join, meet)
    with pytest.raises(LatticeError, match="^%s$" % message):
        FiniteDistributiveLattice.from_elements(elements, max, min)


def test_an_entry_out_of_range_is_refused_before_a_reader_sees_it():
    # the meet of {0} and {1} is {0, 1}, index 4 of the eight upper sets of
    # three points.  Read unchecked, -4 there would leave meet_irreducibles
    # counting 4 as irreducible, [1, 2, 3, 4]; the constructor refuses it,
    # so no reader of the tables sees it
    lat = FiniteDistributiveLattice.from_upper_sets(Poset.antichain(3))
    assert lat.meet_table[1][2] == 4 and meet_irreducibles(lat) == [1, 2, 3]
    with pytest.raises(LatticeError, match=r"^meet table entry -4 at \(1, 2\) is not in 0..7$"):
        _with_cell(lat, "meet", 1, 2, -4, True)


def test_the_trusted_builders_meet_the_constructor_scan():
    # from_upper_sets and from_elements skip the scan through _int_tables,
    # so every table they build must pass it.  from_elements reads the same
    # upper sets, shuffled, with intersection and union as callables
    rng = rng_for("trusted-tables")
    for k in range(11):
        poset = random_poset(rng, k)
        family = upper_sets(poset)
        rng.shuffle(family)
        built = (
            FiniteDistributiveLattice.from_upper_sets(poset),
            FiniteDistributiveLattice.from_elements(family, frozenset.__and__, frozenset.__or__),
        )
        for lat in built:
            FiniteDistributiveLattice(lat.elements, lat.join_table, lat.meet_table)


def test_entries_that_are_no_int_are_refused_by_the_constructor():
    # 1.0 or True in a cell that holds 1, and 0.0 or False in one that holds
    # 0, would read as that index; 0.5 and "x" are no index at all.  The
    # constructor refuses each, in any cell of either table, by its cell
    lat = FiniteDistributiveLattice.from_upper_sets(Poset.chain(2))
    seen = set()
    for name, table in (("join", lat.join_table), ("meet", lat.meet_table)):
        for a in range(3):
            for b in range(3):
                v = table[a][b]
                bools = (bool(v),) if v in (0, 1) else ()
                for bad_v in (float(v), v + 0.5, "x") + bools:
                    message = r"^%s table entry %s at \(%d, %d\) is not an int$" % (
                        name,
                        re.escape(repr(bad_v)),
                        a,
                        b,
                    )
                    with pytest.raises(LatticeError, match=message):
                        _with_cell(lat, name, a, b, bad_v, False)
                    seen.add((name, repr(bad_v)))
    for name in ("join", "meet"):
        assert {(name, "1.0"), (name, "True")} <= seen


def _set_tables(elements):
    pos = {e: i for i, e in enumerate(elements)}
    join = tuple(tuple(pos[a & b] for b in elements) for a in elements)
    meet = tuple(tuple(pos[a | b] for b in elements) for a in elements)
    return join, meet


def test_upper_set_tables_and_transform_match_the_references():
    rng = rng_for("upper-set-tables")
    cases = [(p, brute_upper_sets(p)) for p in [random_poset(rng, k) for k in range(13)]]
    cases.append((Poset.antichain(8), brute_upper_sets(Poset.antichain(8))))
    # a chain's upper sets are its tails, far past what a subset filter reaches
    cases.append((Poset.chain(40), [frozenset(range(k, 40)) for k in range(41)]))
    for poset, family in cases:
        lat = FiniteDistributiveLattice.from_upper_sets(poset)
        assert len(lat.elements) == len(family) and set(lat.elements) == set(family)
        sizes = [len(e) for e in lat.elements]
        assert sizes == sorted(sizes)
        assert (lat.join_table, lat.meet_table) == _set_tables(lat.elements)
        result = birkhoff_transform(lat)
        poset_ref, mirr, mapping = full_pair_birkhoff(lat)
        assert result.mapping == mapping
        assert result.irreducibles == mirr
        assert result.poset.up == poset_ref.up
        assert result.poset.isomorphic(poset)


def test_tables_are_refused_up_front():
    too_many = range(MAX_TABLE_ELEMENTS + 1)
    with pytest.raises(ValueError, match="too many elements"):
        FiniteDistributiveLattice.from_elements(too_many, max, min)
    with pytest.raises(ValueError, match="duplicate element 1"):
        FiniteDistributiveLattice.from_elements([0, 1, 1], max, min)
    with pytest.raises(ValueError, match="escapes the element list"):
        FiniteDistributiveLattice.from_elements([0, 1], lambda a, b: a + b, min)
    # 2^13 upper sets: the search stops at the table cap of 4096
    with pytest.raises(ValueError, match="more than 4096 upper sets"):
        FiniteDistributiveLattice.from_upper_sets(Poset.antichain(13))


# Each call hands a count, a limit or an index that is not an int in range
# to an order-lattice or covering constructor, with the words that refuse it.
_NOT_AN_INT = r"must be (an integer|at least 0), got"
COUNTS_OUT_OF_RANGE = [
    pytest.param(lambda: Poset.chain(True), _NOT_AN_INT, id="chain(True)"),
    pytest.param(lambda: Poset.chain(-2), _NOT_AN_INT, id="chain(-2)"),
    pytest.param(lambda: Poset.chain(2.0), _NOT_AN_INT, id="chain(2.0)"),
    pytest.param(lambda: Poset.antichain(-1), _NOT_AN_INT, id="antichain(-1)"),
    pytest.param(lambda: Poset.antichain("3"), _NOT_AN_INT, id="antichain('3')"),
    pytest.param(lambda: Poset.subsets(-3), _NOT_AN_INT, id="subsets(-3)"),
    pytest.param(lambda: AntichainForm(True, [[0]]), _NOT_AN_INT, id="AntichainForm(True)"),
    pytest.param(lambda: AntichainForm(2.0, [[0]]), _NOT_AN_INT, id="AntichainForm(2.0)"),
    pytest.param(lambda: AntichainForm(2, [[0.0]]), "bad index set", id="AntichainForm([[0.0]])"),
    pytest.param(lambda: CoveringSet.basic(1.0, 0), _NOT_AN_INT, id="basic(1.0)"),
    pytest.param(lambda: covering_generators(1.5), _NOT_AN_INT, id="covering_generators(1.5)"),
    pytest.param(lambda: UpSet(-1, []), _NOT_AN_INT, id="UpSet(-1)"),
    pytest.param(lambda: UpSet(2, [True]), _NOT_AN_INT, id="UpSet mask True"),
    pytest.param(lambda: UpSet(2, [7]), "must be between 0 and 3, got 7", id="UpSet mask 7"),
    pytest.param(lambda: UpSet(2, [-1]), "must be between 0 and 3, got -1", id="UpSet mask -1"),
    pytest.param(
        lambda: upper_set_masks(Poset.chain(3), limit=-1), _NOT_AN_INT, id="limit=-1"
    ),
    pytest.param(
        lambda: upper_set_masks(Poset.chain(3), limit=2.5), _NOT_AN_INT, id="limit=2.5"
    ),
]


@pytest.mark.parametrize("call, words", COUNTS_OUT_OF_RANGE)
def test_counts_and_indices_are_read_as_ints(call, words):
    # refused up front with ValueError, not built, truncated, or failed on
    # with a TypeError deep inside
    with pytest.raises(ValueError, match=words):
        call()


def test_an_integral_that_is_no_int_reads_as_its_int():
    class Count(int):
        pass

    value = _index(Count(3), "count", 0)
    assert value == 3 and type(value) is int
    assert Poset.chain(Count(3)).labels == [0, 1, 2]


# Each call hands a poset or an index-set family an argument that is no
# sequence of the right values, with the words that refuse it.
_LABELS = "labels are not a sequence of hashable values"
_PAIRS = "pairs are not a sequence of label pairs"
_FAMILY = "family is not a sequence of index sets"
SHAPES_REFUSED = [
    pytest.param(lambda: Poset(5), _LABELS, id="Poset(5)"),
    pytest.param(lambda: Poset([[0]]), _LABELS, id="Poset([[0]])"),
    pytest.param(lambda: Poset(["a"], 5), _PAIRS, id="pairs 5"),
    pytest.param(lambda: Poset(["a"], [("a",)]), _PAIRS, id="pair ('a',)"),
    pytest.param(lambda: Poset(["a"], [("a", ["b"])]), _PAIRS, id="pair ('a', ['b'])"),
    pytest.param(lambda: AntichainForm(2, 5), _FAMILY, id="AntichainForm(2, 5)"),
    pytest.param(lambda: AntichainForm(2, [5]), _FAMILY, id="AntichainForm(2, [5])"),
    pytest.param(lambda: CoveringSet(1, 5), _FAMILY, id="CoveringSet(1, 5)"),
]


@pytest.mark.parametrize("call, words", SHAPES_REFUSED)
def test_arguments_of_the_wrong_shape_are_refused_by_name(call, words):
    # a LatticeError in the constructor's words, not a TypeError from its loop
    with pytest.raises(LatticeError, match="^%s$" % re.escape(words)):
        call()


def test_a_repeated_mask_counts_once():
    assert UpSet(2, [1, 1]) == UpSet(2, [1])


def test_antichain_form_validation():
    with pytest.raises(LatticeError):
        AntichainForm(2, [])  # empty family
    with pytest.raises(LatticeError):
        AntichainForm(2, [frozenset({0}), frozenset({0, 1})])  # comparable
    with pytest.raises(LatticeError):
        AntichainForm(2, [frozenset()])  # empty join
    with pytest.raises(LatticeError):
        AntichainForm(2, [frozenset({5})])  # index out of range
    form = AntichainForm(3, [[0], [2]])
    assert form.render() == "g0 v g2"
    meet = fdl_meet(AntichainForm(3, [[0]]), AntichainForm(3, [[1]]))
    assert meet.render() == "g0^g1"


@st.composite
def antichain_forms(draw, n_generators=3):
    # a family of incomparable index sets, built by discarding comparables
    count = draw(st.integers(1, 3))
    family = []
    for _ in range(count):
        size = draw(st.integers(1, n_generators))
        s = frozenset(draw(st.permutations(range(n_generators)))[:size])
        if all(not (s <= t or t <= s) for t in family):
            family.append(s)
    return AntichainForm(n_generators, family)


@given(antichain_forms(), antichain_forms(), antichain_forms())
def test_fdl_lattice_axioms(x, y, z):
    assert fdl_join(x, y) == fdl_join(y, x)
    assert fdl_meet(x, y) == fdl_meet(y, x)
    assert fdl_join(x, fdl_join(y, z)) == fdl_join(fdl_join(x, y), z)
    assert fdl_meet(x, fdl_meet(y, z)) == fdl_meet(fdl_meet(x, y), z)
    assert fdl_join(x, fdl_meet(x, y)) == x
    assert fdl_meet(x, fdl_join(x, y)) == x
    assert fdl_meet(x, fdl_join(y, z)) == fdl_join(fdl_meet(x, y), fdl_meet(x, z))
    assert fdl_join(x, fdl_meet(y, z)) == fdl_meet(fdl_join(x, y), fdl_join(x, z))


@given(antichain_forms(), antichain_forms())
def test_fdl_order_is_a_partial_order(x, y):
    assert x <= x
    if x <= y and y <= x:
        assert x == y
    assert x <= fdl_join(x, y)
    assert fdl_meet(x, y) <= x


def _assert_operations_match_oracle(x, y):
    a, b = x.antichain, y.antichain
    assert fdl_join(x, y).antichain == antichain_join(a, b)
    assert fdl_meet(x, y).antichain == antichain_meet(a, b)
    assert (x <= y) == antichain_leq(a, b)


def test_fdl_operations_match_the_antichain_oracle_exhaustively():
    forms = fdl_enumerate(3)
    for x in forms:
        for y in forms:
            _assert_operations_match_oracle(x, y)


def test_fdl_operations_match_the_antichain_oracle_on_samples():
    rng = rng_for("antichain-oracle")
    n = 4
    subsets = [frozenset(i for i in range(n) if t >> i & 1) for t in range(1, 1 << n)]

    def draw():
        return AntichainForm(n, minimal_sets(rng.sample(subsets, rng.randint(1, 6))))

    for _ in range(500):
        _assert_operations_match_oracle(draw(), draw())


def test_free_lattice_sizes():
    assert [len(fdl_enumerate(n)) for n in (1, 2, 3, 4)] == [1, 4, 18, 166]
    assert [antichain_count(n) for n in range(6)] == [2, 3, 6, 20, 168, 7581]
    for n in (-1, 6):
        with pytest.raises(ValueError, match="tabulated"):
            antichain_count(n)


def test_antichain_counts_match_exhaustive_filter():
    for n in range(5):
        assert antichain_count(n) == naive_antichain_count(n)


def test_free_lattice_is_the_antichain_count_without_bounds():
    # the two bounds of the subset lattice are not generated by joins and
    # meets of the generators, hence the difference of two; the count is
    # the Dedekind table, independent of the listing
    for n in (0, 1, 2, 3, 4):
        assert len(fdl_enumerate(n)) == antichain_count(n) - 2


def test_the_listing_is_ordered_by_minimal_sets():
    # the walk emits rank lists in preorder and sorts nothing, so this
    # checks that preorder is the minimal_sets() order; no golden pins n = 5
    for n in range(6):
        keys = [form.minimal_sets() for form in fdl_enumerate(n)]
        assert all(a < b for a, b in zip(keys, keys[1:])), n


def test_the_listing_is_the_searched_up_sets_in_order():
    # the goldens pin only the text at n = 4
    for n in range(6):
        listed = [(type(f), f.k, f.up) for f in fdl_enumerate(n)]
        assert listed == [(type(f), f.k, f.up) for f in searched_free_lattice(n)], n


def test_a_dropped_listing_leaves_no_cyclic_garbage():
    gc.collect()
    forms = fdl_enumerate(5)
    del forms
    assert gc.collect() == 0


def test_equal_joins_and_meets_hash_equal():
    forms = fdl_enumerate(3)
    listed = {form.up: form for form in forms}
    for x in forms:
        for y in forms:
            for result in (x | y, x & y):
                form = listed[result.up]
                assert result == form and hash(result) == hash(form)


@pytest.mark.parametrize("op", [operator.or_, operator.and_, operator.le])
def test_up_sets_of_another_kind_or_size_do_not_combine(op):
    form = AntichainForm(3, [[0]])
    for other in (AntichainForm(2, [[0]]), CoveringSet.basic(2, 0)):
        for a, b in ((form, other), (other, form)):
            with pytest.raises(ValueError, match=re.escape("cannot combine %r with %r" % (a, b))):
                op(a, b)


def test_a_free_lattice_element_is_no_covering_set():
    # the same up-set on three points, read as g0 and as V0
    form, cover = AntichainForm(3, [[0]]), CoveringSet.basic(2, 0)
    assert form.up == cover.up and form.k == cover.k
    assert form != cover and cover != form
    assert len({form, cover}) == 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_free_lattice_irreducibles_are_pure_joins(n):
    forms = fdl_enumerate(n)
    lat = FiniteDistributiveLattice.from_elements(forms, fdl_join, fdl_meet)
    lat.validate()
    mirr = meet_irreducibles(lat)
    assert len(mirr) == 2 ** n - 2
    found = {}
    for c in mirr:
        form = forms[c]
        assert all(len(s) == 1 for s in form.antichain)
        found[frozenset(i for s in form.antichain for i in s)] = c
    # and inclusion of index sets is exactly the lattice order
    for I, ci in found.items():
        for J, cj in found.items():
            assert lat.leq(ci, cj) == (I <= J)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_free_lattice_order_poset_matches_subsets(n):
    forms = fdl_enumerate(n)
    lat = FiniteDistributiveLattice.from_elements(forms, fdl_join, fdl_meet)
    result = birkhoff_transform(lat)
    assert result.poset.isomorphic(Poset.subsets(n, nonempty=True, proper=True))


def test_criterion_accepts_free_generators():
    # g_i = {T : i in T} over the index sets T: the point T has type T
    for n in (2, 3):
        gens = [AntichainForm(n, [[i]]) for i in range(n)]
        types = [sum(1 << i for i, g in enumerate(gens) if g.up >> t & 1) for t in range(1 << n)]
        report = freeness_by_types(n, types)
        assert report.free
        assert report.verdict == "FREE"


@pytest.mark.parametrize(
    "types, message",
    [
        pytest.param([True, 2], "^type must be an integer, got True$", id="bool"),
        pytest.param([1, 2, 99, -4], "^type must be between 0 and 3, got 99$", id="range"),
        pytest.param([1.5, 2], "^type must be an integer, got 1.5$", id="float"),
        pytest.param(5, "^types are not a sequence of masks$", id="no-sequence"),
    ],
)
def test_a_type_that_is_no_mask_is_refused_before_a_verdict(types, message):
    # each list holds 1 and 2, the two nonempty proper masks on two points,
    # or a value that reads as one; read as it stands each gave a verdict.
    # types that are no sequence are a ValueError naming them, no TypeError
    with pytest.raises(ValueError, match=message):
        freeness_by_types(2, types)


def test_type_criterion_matches_the_closure_oracle():
    rng = rng_for("type-criterion")
    verdicts = {}
    for _ in range(400):
        k = rng.randint(2, 4)
        points = range(rng.randint(4, 4 << k))
        family = [frozenset(x for x in points if rng.random() < 0.5) for _ in range(k)]
        types = [sum(1 << i for i, g in enumerate(family) if x in g) for x in points]
        report = freeness_by_types(k, types)
        free = closure_size(family) == antichain_count(k) - 2
        assert report.free == free
        if not free:
            assert report.witness["clause"] == "type"
            I = report.witness["I"]
            assert 0 < len(I) < k and sum(1 << i for i in I) not in types
        verdicts[k, free] = verdicts.get((k, free), 0) + 1
    assert len(verdicts) == 6 and min(verdicts.values()) > 20


def test_criterion_rejects_a_chain():
    # two comparable generators: the order stage must object
    gens = [frozenset({0}), frozenset({0, 1})]

    def leq(I, J):
        return frozenset().union(*(gens[i] for i in I)) <= frozenset().union(
            *(gens[j] for j in J)
        )

    report = check_freeness_criterion(2, leq, _no_evidence)
    assert report.verdict == "NOT_FREE"
    assert report.witness["clause"] == "order"
    assert report.witness["I"] == [0]
    assert report.witness["J"] == [1]


def test_criterion_on_index_sets():
    # the free lattice's own pure joins pass, asking for irreducibility once
    # per nonempty proper index set
    for k in (2, 3, 4):
        asked = []

        def irreducibility(I):
            asked.append(I)
            return True, None

        report = check_freeness_criterion(
            k,
            lambda I, J: AntichainForm(k, [[i] for i in I]) <= AntichainForm(k, [[j] for j in J]),
            irreducibility,
        )
        assert report.verdict == "FREE"
        assert len(asked) == len(set(asked)) == 2**k - 2
        assert all(0 < len(I) < k for I in asked)
    # a chain g_0 <= g_1 <= g_2: the join over I is g_max(I)
    report = check_freeness_criterion(3, lambda I, J: max(I) <= max(J), _no_evidence)
    assert report.verdict == "NOT_FREE"
    assert report.witness["clause"] == "order"
    # a failed irreducibility answer is the witness, info included
    report = check_freeness_criterion(2, lambda I, J: I <= J, lambda I: (I != {1}, {"rows": 3}))
    assert report.to_json() == {
        "verdict": "NOT_FREE",
        "witness": {"clause": "irreducibility", "I": [1], "info": {"rows": 3}},
    }
    for k in (0, 1):
        with pytest.raises(ValueError):
            check_freeness_criterion(k, lambda I, J: I <= J, _no_evidence)


def _no_evidence(index_set):
    # the chains above fail before irreducibility is asked for
    return True, None


def test_random_poset_sampler_is_valid():
    rng = rng_for("sampler")
    for _ in range(20):
        p = random_poset(rng, 6)
        for a, b in p.strict_pairs():
            assert p.leq(a, b) and not p.leq(b, a)


def test_poset_serialization():
    p = Poset.chain(3)
    dot = p.to_dot()
    assert "digraph" in dot and "->" in dot
    data = p.to_json()
    assert data["labels"] == [0, 1, 2]
    # set labels are written as sorted lists
    assert canonical_json(Poset.subsets(2).to_json()) == (
        '{"labels":[[0],[1],[0,1]],"strict_pairs":[[0,2],[1,2]]}'
    )
    chain = Poset(["c", "a", "b"], [("a", "b"), ("b", "c")])
    assert chain.to_json()["strict_pairs"] == [[1, 0], [1, 2], [2, 0]]
