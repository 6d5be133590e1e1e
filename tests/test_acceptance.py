"""Acceptance gate: the ten headline guarantees, one test per line.

Each test states one independently checkable claim about the package and
fails loudly if the claim breaks.  Run with -v to get the pass/fail line
per criterion.
"""

import time

from oracles import naive_antichain_count, product_matches_truncation
from tqps.classical_cpn import lattice_L, lattice_R, transition_agreement
from tqps.multipullback import (
    PullbackElement,
    extend,
    is_member,
    verify_freeness,
)
from tqps.order_lattice import (
    FiniteDistributiveLattice,
    Poset,
    antichain_count,
    birkhoff_transform,
    fdl_enumerate,
    fdl_join,
    fdl_meet,
    meet_irreducibles,
)
from tqps.sampling import DEFAULT_SEED, random_poset
from tqps.tensor_gluing import (
    TensorElement,
    cocycle_check,
    kernel_image_check,
    psi_involution_check,
    random_tensor_element,
    slot_for,
    slot_symbol,
)
from tqps.util import derived_rng


def _rng(*path):
    return derived_rng(DEFAULT_SEED, "acceptance", *path)


def test_01_upper_set_transform_recovers_every_small_poset():
    """500 seeded posets of up to 7 points roundtrip through the transform."""
    for t in range(500):
        size = 2 + t % 6
        p = random_poset(_rng("roundtrip", size, t), size)
        lat = FiniteDistributiveLattice.from_upper_sets(p)
        result = birkhoff_transform(lat)
        assert result.poset.isomorphic(p), (t, size)


def test_02_free_lattice_sizes_match_the_exhaustive_count():
    """Free distributive lattice sizes 1, 4, 18, 166 and 7579, checked
    against the brute-force antichain filter where feasible."""
    assert [len(fdl_enumerate(n)) for n in (1, 2, 3, 4)] == [1, 4, 18, 166]
    for n in range(5):
        assert antichain_count(n) == naive_antichain_count(n)
    start = time.monotonic()
    assert len(fdl_enumerate(5)) == 7579
    assert time.monotonic() - start < 60.0


def test_03_free_lattice_irreducibles_are_the_proper_pure_joins():
    """Meet irreducibles of the free lattice on n generators are the
    2^n - 2 pure joins, ordered by inclusion of index sets."""
    for n in (2, 3, 4):
        forms = fdl_enumerate(n)
        lat = FiniteDistributiveLattice.from_elements(forms, fdl_join, fdl_meet)
        mirr = meet_irreducibles(lat)
        assert len(mirr) == 2 ** n - 2
        by_indices = {}
        for c in mirr:
            form = forms[c]
            assert all(len(s) == 1 for s in form.antichain), form.render()
            by_indices[frozenset(i for s in form.antichain for i in s)] = c
        assert len(by_indices) == 2 ** n - 2
        for I, ci in by_indices.items():
            for J, cj in by_indices.items():
                assert lat.leq(ci, cj) == (I <= J), (sorted(I), sorted(J))


def test_04_gluing_map_is_an_involution():
    """The gluing map squares to the identity on every atom tensor of
    degree up to 3 and on 1000 seeded random tensors, for 1 to 3 slots."""
    for n in (1, 2, 3):
        report = psi_involution_check(n, samples=1000)
        assert report["passed"] is True, report["failures"][:3]
        assert report["failures"] == []
        # the sweep covers the exhaustive atom grid, 23 Toeplitz atoms per
        # slot and 7 circle atoms, plus the seeded samples
        assert report["atoms_and_samples"] == 23 ** (n - 1) * 7 + 1000


def test_05_kernel_images_exchange_under_every_transition():
    """Transitions carry chart kernels onto the predicted slot kernels for
    every ordered chart triple in 2 and 3 dimensions, 50 samples each."""
    for n in (2, 3):
        for i in range(n + 1):
            for j in range(n + 1):
                for k in range(n + 1):
                    if len({i, j, k}) != 3:
                        continue
                    report = kernel_image_check(n, i, j, k, samples=50)
                    assert report["passed"] is True, report
                    assert report["predicted_slot"] == slot_for(min(i, j), k)


def test_06_transitions_satisfy_the_cocycle_identity():
    """Composite chart changes agree exactly on 100 quotient classes per
    chart triple in 2 and 3 dimensions."""
    for n in (2, 3):
        report = cocycle_check(n, samples=100)
        assert report["passed"] is True, report["failures"][:3]
        assert report["failures"] == []


def test_07_chart_kernels_generate_a_free_lattice():
    """The kernel lattice evidence comes back FREE in 1 and 2 dimensions
    and the duplicated-generator control comes back NOT_FREE."""
    # every proper index set is separated from each strictly larger one,
    # and every pure join has one irreducibility row per chart outside it
    one = verify_freeness(1)
    assert one.free, one.bundle["witness"]
    assert len(one.bundle["separations"]) == 2
    assert len(one.bundle["irreducibility"]) == 2
    assert all(row["separated"] for row in one.bundle["separations"])
    assert all(row["ok"] for row in one.bundle["irreducibility"])
    two = verify_freeness(2)
    assert two.free, two.bundle["witness"]
    assert len(two.bundle["separations"]) == 12
    assert len(two.bundle["irreducibility"]) == 9
    assert all(row["separated"] for row in two.bundle["separations"])
    assert all(row["ok"] for row in two.bundle["irreducibility"])
    control = verify_freeness(2, samples=50, generator_map={1: 0})
    assert control.verdict == "NOT_FREE"
    assert control.bundle["witness"]["clause"] == "order"


def _antipode(f):
    # the circle antipode u^m -> u^-m on a one-slot circle tensor
    return TensorElement(1, 1, {(("u", -m),): c for ((_, m),), c in f.terms.items()})


def test_08_mirror_membership_is_the_antipode_relation():
    """Over two charts, membership holds exactly when the second symbol is
    the antipode of the first: 500 seeded members satisfy it, and
    independent random pairs agree with it both ways."""
    rng = _rng("mirror")
    for t in range(500):
        p = extend({0: random_tensor_element(rng, 1)}, 1)
        sym0 = slot_symbol(p.components[0], 1)
        sym1 = slot_symbol(p.components[1], 1)
        assert sym0 == _antipode(sym1), t
    for t in range(500):
        x0 = random_tensor_element(rng, 1)
        x1 = random_tensor_element(rng, 1)
        member = is_member(PullbackElement([x0, x1]))
        relation = slot_symbol(x0, 1) == _antipode(slot_symbol(x1, 1))
        assert member == relation, t
    z = TensorElement.pure([("T", 1)])
    z_star = z.adjoint()
    assert not is_member(PullbackElement([z, z]))
    assert is_member(PullbackElement([z, z_star]))


def test_09_classical_lattice_maps_invert_and_transitions_roundtrip():
    """The covering-set maps are mutually inverse (exhaustively for 1, 2
    and 3 dimensions) and chart transitions agree with the chart-map
    composites to 1e-10 over 1000 trials per pair."""
    for n in (1, 2, 3):
        for form in fdl_enumerate(n + 1):
            cov = lattice_R(form)
            assert lattice_L(cov) == form
            assert lattice_R(lattice_L(cov)) == cov
    for n in (1, 2, 3):
        report = transition_agreement(n, trials=1000)
        assert report["passed"] is True, report["failures"][:3]
        assert report["max_error"] <= report["tolerance"]


def test_10_operator_products_match_truncated_matrices():
    """1000 seeded pairs of single-slot operators, one-slot tensors,
    multiply identically to the truncated matrix computation on the exact
    window."""
    rng = _rng("toeplitz-oracle")
    for t in range(1000):
        x = random_tensor_element(rng, 1)
        y = random_tensor_element(rng, 1)
        assert product_matches_truncation(x, y, x * y), t
