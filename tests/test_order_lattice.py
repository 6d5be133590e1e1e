"""Checks for posets, distributive lattices, and the freeness criterion."""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    antichain_join,
    antichain_leq,
    antichain_meet,
    brute_upper_sets,
    minimal_sets,
    naive_antichain_count,
)
from tqps.order_lattice import (
    AntichainForm,
    FiniteDistributiveLattice,
    LatticeError,
    Poset,
    antichain_count,
    birkhoff_transform,
    check_freeness_criterion,
    fdl_enumerate,
    fdl_join,
    fdl_leq,
    fdl_meet,
    join_irreducibles,
    meet_irreducibles,
    upper_sets,
)
from tqps.sampling import DEFAULT_SEED, random_antichain_form, random_poset
from tqps.util import derived_rng


def rng_for(name):
    return derived_rng(DEFAULT_SEED, "test-lattice", name)


# hypothesis strategy: a random poset as the transitive closure of a DAG on
# 1..6 points, orienting random pairs by position
@st.composite
def posets(draw):
    n = draw(st.integers(1, 6))
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((i, j))
    return Poset(list(range(n)), pairs, close=True)


def test_poset_validation():
    with pytest.raises(LatticeError):
        Poset([0, 1], [(0, 1), (1, 0)])  # antisymmetry
    with pytest.raises(LatticeError):
        Poset([0, 1, 2], [(0, 1), (1, 2)])  # not transitively closed
    Poset([0, 1, 2], [(0, 1), (1, 2)], close=True)
    with pytest.raises(LatticeError):
        Poset([0, 0], [])  # duplicate labels


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
    assert len(join_irreducibles(lat)) == 2


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


def test_non_distributive_lattice_is_rejected():
    lat = _m3()
    with pytest.raises(LatticeError):
        lat.validate()
    with pytest.raises(LatticeError):
        birkhoff_transform(lat)


def test_antichain_form_validation():
    with pytest.raises(LatticeError):
        AntichainForm(2, [])  # empty family
    with pytest.raises(LatticeError):
        AntichainForm(2, [frozenset({0}), frozenset({0, 1})])  # comparable
    with pytest.raises(LatticeError):
        AntichainForm(2, [frozenset()])  # empty join
    with pytest.raises(LatticeError):
        AntichainForm(2, [frozenset({5})])  # index out of range
    form = AntichainForm.pure_join({0, 2}, 3)
    assert form.render() == "g0 v g2"
    meet = fdl_meet(AntichainForm.generator(0, 3), AntichainForm.generator(1, 3))
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
def test_fdl_leq_is_an_order(x, y):
    assert fdl_leq(x, x)
    if fdl_leq(x, y) and fdl_leq(y, x):
        assert x == y
    assert fdl_leq(x, fdl_join(x, y))
    assert fdl_leq(fdl_meet(x, y), x)


def _assert_operations_match_oracle(x, y):
    a, b = x.antichain, y.antichain
    assert fdl_join(x, y).antichain == antichain_join(a, b)
    assert fdl_meet(x, y).antichain == antichain_meet(a, b)
    assert fdl_leq(x, y) == antichain_leq(a, b)


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


def test_antichain_counts_match_exhaustive_filter():
    for n in range(5):
        assert antichain_count(n) == naive_antichain_count(n)


def test_free_lattice_is_the_antichain_count_without_bounds():
    # the two bounds of the subset lattice are not generated by joins and
    # meets of the generators, hence the difference of two
    for n in (1, 2, 3, 4):
        assert len(fdl_enumerate(n)) == antichain_count(n) - 2


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
    for n in (2, 3):
        gens = [AntichainForm.generator(i, n) for i in range(n)]
        report = check_freeness_criterion(gens, fdl_join, fdl_meet, lambda a, b: a == b)
        assert report.free
        assert report.verdict == "FREE"


def test_criterion_rejects_a_chain():
    # two comparable generators: the order stage must object
    gens = [frozenset({0}), frozenset({0, 1})]
    report = check_freeness_criterion(
        gens, lambda a, b: a | b, lambda a, b: a & b, lambda a, b: a == b
    )
    assert report.verdict == "NOT_FREE"
    assert report.witness["clause"] == "order"
    assert report.witness["I"] == [0]
    assert report.witness["J"] == [1]


def test_criterion_flags_non_distributive_operations():
    join_fn, meet_fn = _m3_tables()
    report = check_freeness_criterion(
        ["a", "b", "c"], join_fn, meet_fn, lambda x, y: x == y
    )
    assert report.verdict == "INCONSISTENT"
    assert report.witness["law"] == "distributivity"
    assert not report.free


def test_criterion_size_cap():
    gens = [AntichainForm.generator(i, 3) for i in range(3)]
    report = check_freeness_criterion(
        gens, fdl_join, fdl_meet, lambda a, b: a == b, max_size=5
    )
    assert report.verdict == "INCONSISTENT"
    assert report.witness["law"] == "closure"


def test_random_poset_sampler_is_valid():
    rng = rng_for("sampler")
    for _ in range(20):
        p = random_poset(rng, 6)
        for a, b in p.strict_pairs():
            assert p.leq(a, b) and not p.leq(b, a)


def test_random_antichain_form_keeps_the_minimal_sets_of_its_draw():
    # a replayed stream redraws the family; no draw may raise
    rng, replay = rng_for("antichain-sampler"), rng_for("antichain-sampler")
    for _ in range(1000):
        form = random_antichain_form(rng, 4)
        family = [
            frozenset(replay.sample(range(4), replay.randint(1, 4)))
            for _ in range(replay.randint(1, 3))
        ]
        assert form.antichain == minimal_sets(family)


def test_poset_serialization():
    p = Poset.chain(3)
    dot = p.to_dot()
    assert "digraph" in dot and "->" in dot
    data = p.to_json()
    assert data["labels"] == [0, 1, 2]
    lat = FiniteDistributiveLattice.from_upper_sets(Poset.antichain(2))
    assert "digraph" in lat.to_dot()
    assert len(lat.to_json()["elements"]) == 4
