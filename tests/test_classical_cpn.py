"""Checks for the commutative model: charts, transitions, covering sets."""

import cmath

import pytest

from oracles import closure_size
from tqps.classical_cpn import (
    DEFAULT_SEED,
    TRANSITION_TOL,
    ChartPoint,
    CoveringSet,
    _generated_size,
    chart,
    chart_inv,
    classical_freeness,
    covering_generators,
    covering_lattice,
    lattice_L,
    lattice_R,
    max_index_set,
    random_overlap_point,
    probe_point,
    transition,
    transition_agreement,
)
from tqps.order_lattice import AntichainForm, fdl_enumerate, fdl_join, fdl_meet
from tqps.tensor_gluing import slot_for
from tqps.util import derived_rng


def rng_for(name):
    return derived_rng(DEFAULT_SEED, "test-classical", name)


def test_probe_points_discriminate():
    x = probe_point({0, 2}, 2)
    assert x == (1.0, 0.5, 1.0)
    assert max_index_set(x) == frozenset({0, 2})
    assert max_index_set((0.5, 0.5, 0.5)) == frozenset({0, 1, 2})


def test_covering_set_canonicalization():
    # a single-index family closes up to everything containing the index
    v0 = CoveringSet.basic(2, 0)
    assert v0.to_json() == [[0], [0, 1], [0, 1, 2], [0, 2]]
    # redundant members do not change the canonical form
    again = CoveringSet.from_family(2, [{0}, {0, 1}])
    assert again == v0
    assert v0.render() == "{V0, V01, V02, V012}"


def test_covering_set_validation():
    with pytest.raises(ValueError):
        CoveringSet(2, [frozenset()])
    with pytest.raises(ValueError):
        CoveringSet.from_family(2, [{5}])
    with pytest.raises(ValueError):
        CoveringSet.basic(2, 0) | CoveringSet.basic(3, 0)
    with pytest.raises(ValueError, match="^point has wrong length$"):
        CoveringSet.basic(2, 0).contains_point((1.0, 0.5))


def test_covering_set_rejects_members_not_closed_upward():
    with pytest.raises(ValueError, match="closed upward"):
        CoveringSet(2, [{0}])
    members = [{0}, {0, 1}, {0, 2}, {0, 1, 2}]
    assert CoveringSet(2, members) == CoveringSet.basic(2, 0)


def test_covering_set_operations_match_point_membership():
    rng = rng_for("points")
    n = 2
    sets = [CoveringSet.basic(n, i) for i in range(n + 1)]
    a = sets[0] | sets[1]
    b = sets[1] & sets[2]
    for _ in range(200):
        x = tuple(
            rng.uniform(0.1, 1.0) * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
            for _ in range(n + 1)
        )
        ina = a.contains_point(x)
        inb = b.contains_point(x)
        assert ina == (sets[0].contains_point(x) or sets[1].contains_point(x))
        assert inb == (sets[1].contains_point(x) and sets[2].contains_point(x))


def test_lattice_maps_are_mutually_inverse_exhaustively():
    for n in (1, 2, 3):
        for form in fdl_enumerate(n + 1):
            cov = lattice_R(form)
            assert lattice_L(cov) == form
            assert lattice_R(lattice_L(cov)) == cov


def test_lattice_maps_intertwine_the_operations():
    rng = rng_for("homomorphism")
    n = 2
    forms = fdl_enumerate(n + 1)
    for _ in range(100):
        f = forms[rng.randrange(len(forms))]
        g = forms[rng.randrange(len(forms))]
        assert lattice_R(fdl_join(f, g)) == lattice_R(f) | lattice_R(g)
        assert lattice_R(fdl_meet(f, g)) == lattice_R(f) & lattice_R(g)


def test_covering_lattice_sizes():
    assert len(covering_lattice(1)) == 4
    assert len(covering_lattice(2)) == 18
    assert len(set(covering_lattice(2))) == 18


def test_classical_freeness_verdicts():
    # any n: the lattice size is measured up to n = 4, where it has 7579
    # elements; at n = 5 it would have 7828352
    for n in range(1, 9):
        report = classical_freeness(n)
        assert report.free, report.witness
        sizes = {"sublattice_size": [4, 18, 166, 7579][n - 1]} if n <= 4 else {}
        assert report.bundle["details"] == {"probes": 2 ** (n + 1) - 2, **sizes}
    with pytest.raises(ValueError):
        classical_freeness(0)


def _member_sets(family):
    return [[t for t in range(1 << g.k) if g.up >> t & 1] for g in family]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_generated_size_is_measured(n):
    gens = covering_generators(n)
    assert _generated_size(gens) == [4, 18, 166][n - 1]
    # two equal generators, or one the meet of two others, generate less
    for family in (gens[:-1] + gens[:1], gens[:-1] + [gens[0] & gens[1]]):
        size = _generated_size(family)
        assert size == closure_size(_member_sets(family))
        assert size < _generated_size(gens)
    assert _generated_size(gens[:-1] + gens[:1]) == _generated_size(gens[:-1])


def test_chart_point_validation():
    ChartPoint([0.5, 1.0], 2)
    with pytest.raises(ValueError):
        ChartPoint([0.5, 1.0], 1)  # slot 1 is not on the circle
    with pytest.raises(ValueError):
        ChartPoint([0.5, 2.0], 2)  # modulus beyond the disc
    # the error names the first failing slot, whichever test it fails
    with pytest.raises(ValueError, match="^disc coordinate has modulus 2.0$"):
        ChartPoint([2.0, 0.5], 2)  # slot 1 comes before the failing circle
    with pytest.raises(ValueError, match="^circle coordinate has modulus 0.5$"):
        ChartPoint([0.5, 2.0], 1)
    nan = float("nan")
    for coords, slot in (([nan], 1), ([nan, 1.0], 2), ([0.5, complex(nan, 0)], 2)):
        with pytest.raises(ValueError, match="modulus nan"):
            ChartPoint(coords, slot)  # a NaN modulus compares false both ways
    for slot in (3, 1.5, 2.0, True, "2"):
        with pytest.raises(ValueError):
            ChartPoint([0.5, 1.0], slot)  # slot out of range or not an int


@pytest.mark.parametrize(
    "coords, slot, kind",
    [
        ([complex(1.7e308, 1.7e308), 1], 2, "disc"),  # the modulus overflows
        ([10**400, 1], 2, "disc"),  # the coordinate does not convert
        ([0.5, 10**400], 2, "circle"),
        ([complex(1.7e308, 1.7e308), 0.5], 1, "circle"),
    ],
    ids=["disc-modulus", "disc-int", "circle-int", "circle-modulus"],
)
def test_a_coordinate_past_float_range_is_refused_by_slot_kind(coords, slot, kind):
    message = "^%s coordinate has a modulus past float range$" % kind
    with pytest.raises(ValueError, match=message):
        ChartPoint(coords, slot)


def test_a_string_coordinate_is_refused_by_slot():
    # complex() would read it as a number
    with pytest.raises(ValueError, match=r"^disc coordinate '0.5' in slot 1 is not a number$"):
        ChartPoint(["0.5", "1"], 2)


def test_a_coordinate_that_is_no_number_is_refused_by_slot():
    with pytest.raises(ValueError, match="^disc coordinate None in slot 1 is not a number$"):
        ChartPoint([None, 1], 2)
    with pytest.raises(ValueError, match="^circle coordinate None in slot 2 is not a number$"):
        ChartPoint([0.5, None], 2)


def test_a_point_with_a_coordinate_that_is_no_number_has_no_peak_set():
    message = "^coordinate 0, 'a', is not a number$"
    with pytest.raises(ValueError, match=message):
        max_index_set(["a", 1])
    with pytest.raises(ValueError, match=message):
        CoveringSet.basic(1, 0).contains_point(["a", 1])


def test_chart_points_compare_by_slot_and_coordinates():
    p = ChartPoint([0.5, 1.0], 2)
    assert p == ChartPoint((0.5 + 0j, 1), 2)
    assert p != ChartPoint([1.0, 0.5], 1)
    assert p != ChartPoint([0.25, 1.0], 2)
    assert p.__eq__(p.coords) is NotImplemented and p != p.coords


def test_chart_maps_invert():
    x = (1.0, 0.5 + 0.25j, -0.5j)
    coords = chart(0, x)
    assert coords == (0.5 + 0.25j, -0.5j)
    assert chart_inv(0, coords) == (1.0 + 0.0j, 0.5 + 0.25j, -0.5j)
    with pytest.raises(ValueError):
        chart(1, (1.0, 0.0, 0.5))


@pytest.mark.parametrize(
    "call",
    [
        lambda: chart(-1, (1, 0.5, 0.25)),  # would divide by the last coordinate
        lambda: chart(True, (1, 0.5, 0.25)),  # would read as chart 1
        lambda: chart(3, (1, 0.5, 0.25)),
        lambda: chart_inv(-1, (0.5, 0.25)),  # would put the 1 in the middle
        lambda: chart_inv(3, (0.5, 0.25)),
        lambda: chart_inv(1.0, (0.5, 0.25)),
    ],
)
def test_chart_maps_refuse_an_index_off_the_charts(call):
    with pytest.raises(ValueError, match="chart index must be an integer"):
        call()


@pytest.mark.parametrize(
    "x", [(float("nan"), 1.0, 0.5), (1.0, float("nan"), 0.5), (1.0, float("inf"), 0.5)]
)
def test_a_modulus_that_is_not_finite_has_no_peak_set(x):
    # max reads a NaN by its position: first it wins, later it loses
    with pytest.raises(ValueError, match="must be finite"):
        max_index_set(x)
    with pytest.raises(ValueError, match="must be finite"):
        CoveringSet.basic(2, 0).contains_point(x)


@pytest.mark.parametrize("x", [(2**2000, 1), (1, 0.5, -(2**1024)), (2**2000, 2**2000)])
def test_a_modulus_past_float_range_has_no_peak_set(x):
    # the tolerance is a float, so such a modulus cannot be compared with it
    with pytest.raises(ValueError, match="past float range"):
        max_index_set(x)
    with pytest.raises(ValueError, match="past float range"):
        CoveringSet.basic(len(x) - 1, 0).contains_point(x)
    assert max_index_set((2**1000, 1)) == frozenset({0})


def test_transition_on_the_circle():
    # one dimension: the transition inverts the circle coordinate
    s = cmath.exp(0.7j)
    p = ChartPoint([s], 1)
    q = transition(p, 0, 1)
    assert abs(q.coords[0] - 1.0 / s) < TRANSITION_TOL
    assert q.circle_slot == slot_for(1, 0)
    back = transition(q, 1, 0)
    assert back.distance(p) < TRANSITION_TOL


def test_transition_validates_slots():
    p = ChartPoint([0.5, 1.0], 2)
    with pytest.raises(ValueError):
        transition(p, 0, 1)  # that transition needs the circle at slot 1
    with pytest.raises(ValueError):
        transition(p, 1, 1)
    with pytest.raises(ValueError):
        transition(p, 2, 0)  # that transition needs the circle at slot 1
    for src, dst in [("0", 1), (0, "1"), (True, 2), (1.0, 2), (1, 2.0)]:
        with pytest.raises(ValueError):
            transition(p, src, dst)


def test_transition_matches_chart_composite():
    rng = rng_for("composite")
    for n in (1, 2, 3):
        for src in range(n + 1):
            for dst in range(n + 1):
                if src == dst:
                    continue
                for _ in range(25):
                    x = random_overlap_point(rng, n, src, dst)
                    p = ChartPoint(chart(src, x), slot_for(src, dst))
                    via_formula = transition(p, src, dst)
                    q = chart_inv(src, p.coords)
                    via_charts = ChartPoint(chart(dst, q), slot_for(dst, src))
                    assert via_formula.distance(via_charts) < TRANSITION_TOL
                    back = transition(via_formula, dst, src)
                    assert back.distance(p) < TRANSITION_TOL


@pytest.mark.parametrize(
    "n, i, j",
    [
        (3, 1, 1),  # would give one unit coordinate
        (3, 7, 9),  # would give none
        (-1, 0, 1),  # would give the empty point
        (True, 0, 1),  # would read as n = 1
        (2.0, 0, 1),
        (3, 0, 1.0),
        (3, "0", 1),
        (3, -1, 1),
    ],
)
def test_random_overlap_point_refuses_bad_input_before_drawing(n, i, j):
    rng = rng_for("overlap-input")
    state = rng.getstate()
    with pytest.raises(ValueError):
        random_overlap_point(rng, n, i, j)
    assert rng.getstate() == state


def test_transition_agreement_report():
    report = transition_agreement(2, trials=50)
    assert report["passed"] is True
    assert report["max_error"] < report["tolerance"]
    assert report["check"] == "chart-transition-agreement"


def test_covering_generators_are_distinct():
    gens = covering_generators(2)
    assert len(set(gens)) == 3
    for i, g in enumerate(gens):
        assert g.contains_point(probe_point({i}, 2))
        assert not g.contains_point(probe_point({(i + 1) % 3}, 2))


def test_covering_set_json():
    v0 = CoveringSet.basic(1, 0)
    assert v0.to_json() == [[0], [0, 1]]
    form = AntichainForm(2, [[0]])
    assert lattice_R(form).to_json() == [[0], [0, 1]]
