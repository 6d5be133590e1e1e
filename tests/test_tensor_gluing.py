"""Checks for tensor slots and the gluing maps."""

from fractions import Fraction

import pytest

from oracles import slotwise_product, stepwise_glue, stepwise_psi, stepwise_psi_ij
from tqps import classical_cpn, multipullback, order_lattice, tensor_gluing
from tqps.circle_hopf import Scalar
from tqps.classical_cpn import classical_freeness, transition_agreement
from tqps.multipullback import PullbackElement, extend, verify_freeness, witness_TmI, witness_xI
from tqps.order_lattice import (
    antichain_count,
    check_freeness_criterion,
    fdl_enumerate,
    freeness_by_types,
)
from tqps.sampling import DEFAULT_SEED, random_toeplitz_element
from tqps.tensor_gluing import (
    QuotientClass,
    TensorElement,
    atom_degree,
    chi,
    chi_inv,
    cocycle_check,
    embed_toeplitz,
    glue,
    kernel_image_check,
    lift_circle,
    phi,
    project_slots,
    psi,
    psi_ij,
    psi_ij_inv,
    psi_involution_check,
    random_tensor_element,
    slot_for,
    slot_symbol,
    transition_representative,
)
from tqps.toeplitz_core import ToeplitzElement
from tqps.util import derived_rng


def rng_for(name):
    return derived_rng(DEFAULT_SEED, "test-gluing", name)


def canonical(y):
    """y, after checking that rebuilding it through the validating
    constructor changes nothing."""
    assert y == TensorElement(y.n_slots, y.circle_slot, y.terms)
    return y


def test_atom_degree():
    assert atom_degree(("T", 3)) == 3
    assert atom_degree(("E", 4, 1)) == 3
    assert atom_degree(("u", -2)) == -2


def test_embed_matches_slotwise_products():
    rng = rng_for("embed")
    for _ in range(40):
        xs = [random_toeplitz_element(rng, max_degree=2, max_index=2, max_terms=2) for _ in range(2)]
        ys = [random_toeplitz_element(rng, max_degree=2, max_index=2, max_terms=2) for _ in range(2)]
        left = embed_toeplitz(xs) * embed_toeplitz(ys)
        right = embed_toeplitz([x * y for x, y in zip(xs, ys)])
        assert left == right


def test_tensor_ring_axioms():
    rng = rng_for("ring")
    for _ in range(30):
        x = random_tensor_element(rng, 2, circle_slot=2, max_terms=2)
        y = random_tensor_element(rng, 2, circle_slot=2, max_terms=2)
        z = random_tensor_element(rng, 2, circle_slot=2, max_terms=2)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        one = TensorElement.one(2, circle_slot=2)
        assert x * one == x and one * x == x
        assert (x - x).is_zero()


# Every shape of three slots: no circle slot, and the circle slot first,
# in the middle and last.
CIRCLE_SLOTS = (None, 1, 2, 3)


def product_pairs(name):
    """Seeded pairs of three-slot tensors of every shape, with Gaussian
    integer and Gaussian rational coefficients."""
    rng = rng_for(name)
    fraction = Scalar(Fraction(1, 3), Fraction(-2, 5))
    pairs = []
    for circle_slot in CIRCLE_SLOTS:
        for _ in range(15):
            x = random_tensor_element(rng, 3, circle_slot=circle_slot, max_terms=4)
            y = random_tensor_element(rng, 3, circle_slot=circle_slot, max_terms=4)
            pairs += [(x, y), (x.scale(fraction), y)]
    return pairs


def test_product_matches_slotwise_oracle():
    for x, y in product_pairs("slotwise"):
        assert x * y == slotwise_product(x, y)
    # a pair whose product vanishes in one slot contributes nothing, with
    # the vanishing slot first, in the middle and last
    for circle_slot in CIRCLE_SLOTS:
        for zero_at in {1, 2, 3} - {circle_slot}:
            a = [("u", 1) if pos == circle_slot else ("T", 1) for pos in (1, 2, 3)]
            b = [("u", 2) if pos == circle_slot else ("T", -1) for pos in (1, 2, 3)]
            a[zero_at - 1], b[zero_at - 1] = ("E", 0, 1), ("E", 2, 3)
            x = TensorElement.pure(a, circle_slot, Scalar(2, -1))
            y = TensorElement.pure(b, circle_slot, Fraction(1, 2))
            assert (x * y).is_zero()
            assert slotwise_product(x, y).is_zero()
            w = x + TensorElement.one(3, circle_slot)
            assert w * y == slotwise_product(w, y) == y


def test_product_makes_one_scalar_product_per_term_pair(monkeypatch):
    # a count of calls, not a timing, taken once the atom product cache is
    # warm: the coefficients of a term pair are multiplied once, and each
    # slot's atom product only decides a sign
    pairs = product_pairs("scalar-count")
    for x, y in pairs:
        x * y
    calls = []
    mul = Scalar.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counting_mul)
    for x, y in pairs:
        before = len(calls)
        x * y
        assert len(calls) - before <= len(x.terms) * len(y.terms)
    # the counter does count the products
    assert calls


def test_shape_mismatch_rejected():
    x = TensorElement.one(2)
    y = TensorElement.one(2, circle_slot=1)
    with pytest.raises(ValueError):
        x * y
    with pytest.raises(ValueError):
        x + TensorElement.one(3)
    with pytest.raises(ValueError):
        TensorElement.pure((("u", 1), ("T", 0)))  # circle atom outside circle slot


def test_chi_roundtrips():
    rng = rng_for("chi")
    for _ in range(30):
        n = int(rng.randint(2, 4))
        x = random_tensor_element(rng, n, circle_slot=n)
        assert chi(x, n) == x
        for j in range(1, n + 1):
            assert chi_inv(chi(x, j), j) == x
        # at slot 1, chi moves the circle from the back to the front
        front = chi(x, 1)
        assert front == TensorElement(n, 1, {a[-1:] + a[:-1]: c for a, c in x.terms.items()})
        assert chi_inv(front, 1) == x


def test_relocation_maps_build_canonical_tensors():
    # every relocation map builds its result without __init__; rebuilding it
    # through the validating constructor must change nothing
    rng = rng_for("relocation")
    for _ in range(40):
        n = int(rng.randint(1, 4))
        x = random_tensor_element(rng, n, max_terms=4)
        canonical(project_slots(x, {int(rng.randint(1, n))}))
        k = int(rng.randint(1, n))
        w = canonical(slot_symbol(x, k))
        canonical(lift_circle(w))
        t = random_tensor_element(rng, n, circle_slot=n, max_terms=4)
        canonical(psi(t))
        j = int(rng.randint(1, n))
        canonical(chi_inv(canonical(chi(t, j)), j))
        i = int(rng.randint(0, n - 1))
        c = random_tensor_element(rng, n, circle_slot=i + 1, max_terms=4)
        canonical(psi_ij_inv(canonical(psi_ij(c, i, n)), i, n))


def test_psi_matches_stepwise_oracle():
    rng = rng_for("psi-oracle")
    for _ in range(60):
        n = int(rng.randint(1, 4))
        x = random_tensor_element(rng, n, circle_slot=n)
        assert psi(x) == stepwise_psi(x)


def test_psi_is_an_involutive_algebra_map():
    rng = rng_for("psi-mult")
    for _ in range(30):
        x = random_tensor_element(rng, 3, circle_slot=3, max_terms=2)
        y = random_tensor_element(rng, 3, circle_slot=3, max_terms=2)
        assert psi(psi(x)) == x
        assert psi(x * y) == psi(x) * psi(y)


def test_psi_worked_example():
    # z (x) u  |->  z (x) u^-2: degree 1 from the shift plus 1 from the
    # circle, reflected through the antipode
    x = TensorElement.pure((("T", 1), ("u", 1)), circle_slot=2)
    assert psi(x) == TensorElement.pure((("T", 1), ("u", -2)), circle_slot=2)


def test_psi_ij_worked_example():
    # the single-overlap gluing with the circle in front: u (x) z maps to
    # u^-2 (x) z, the circle staying at slot 1
    x = TensorElement.pure((("u", 1), ("T", 1)), circle_slot=1)
    out = psi_ij(x, 0, 1)
    assert out == TensorElement.pure((("u", -2), ("T", 1)), circle_slot=1)


def test_psi_ij_inverts():
    rng = rng_for("psi-ij")
    for n in (1, 2, 3):
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                for _ in range(10):
                    x = random_tensor_element(rng, n, circle_slot=i + 1)
                    y = psi_ij(x, i, j)
                    assert y.circle_slot == j
                    assert psi_ij_inv(y, i, j) == x
                    w = random_tensor_element(rng, n, circle_slot=j)
                    assert psi_ij(psi_ij_inv(w, i, j), i, j) == w


def test_psi_ij_matches_the_three_rewrite_composite():
    rng = rng_for("psi-ij-oracle")
    for n in (1, 2, 3, 4):
        for i in range(n):
            for j in range(i + 1, n + 1):
                for _ in range(5):
                    x = random_tensor_element(rng, n, circle_slot=i + 1, max_terms=4)
                    assert psi_ij(x, i, j) == stepwise_psi_ij(x, i + 1, j)
                    w = random_tensor_element(rng, n, circle_slot=j, max_terms=4)
                    assert psi_ij_inv(w, i, j) == stepwise_psi_ij(w, j, i + 1)


def test_glue_matches_the_stepwise_composite():
    rng = rng_for("glue-oracle")
    for n in (1, 2, 3, 4):
        for src in range(n + 1):
            for dst in range(n + 1):
                if src == dst:
                    continue
                for _ in range(5):
                    x = random_tensor_element(rng, n, max_terms=4)
                    y = glue(x, src, dst)
                    assert y == stepwise_glue(x, src, dst)
                    assert y.circle_slot == slot_for(dst, src)
    with pytest.raises(ValueError):
        glue(TensorElement.one(2), 1, 1)


def test_psi_ij_rejects_a_misplaced_circle_slot():
    x = TensorElement.pure((("T", 1), ("u", 1), ("T", 0)), circle_slot=2)
    with pytest.raises(ValueError, match="psi_ij expects the circle slot at position 1"):
        psi_ij(x, 0, 3)
    with pytest.raises(ValueError, match="psi_ij_inv expects the circle slot at position 3"):
        psi_ij_inv(x, 0, 3)
    # every relocation map rejects a misplaced or absent circle slot and an
    # out-of-range target, naming itself
    back = TensorElement.pure((("T", 1), ("T", 0), ("u", 1)), circle_slot=3)
    bare = TensorElement.pure((("T", 1), ("T", 0), ("T", 2)))
    for name, call in [
        ("chi", lambda: chi(x, 1)),
        ("chi", lambda: chi(bare, 1)),
        ("chi", lambda: chi(back, 4)),
        ("chi", lambda: chi(back, 0)),
        ("chi_inv", lambda: chi_inv(x, 3)),
        ("chi_inv", lambda: chi_inv(bare, 3)),
        ("chi_inv", lambda: chi_inv(back, 4)),
        ("psi", lambda: psi(x)),
        ("psi", lambda: psi(bare)),
        ("psi_ij", lambda: psi_ij(bare, 0, 3)),
        ("psi_ij", lambda: psi_ij(x, 1, 4)),
        ("psi_ij_inv", lambda: psi_ij_inv(bare, 0, 3)),
        ("psi_ij_inv", lambda: psi_ij_inv(back, 2, 4)),
        # a slot or chart that is not an int is refused by name, too
        ("chi", lambda: chi(back, True)),
        ("chi_inv", lambda: chi_inv(back, 3.0)),
        ("psi_ij", lambda: psi_ij(x, 1.0, 3)),
        ("psi_ij", lambda: psi_ij(x, 1, "3")),
        ("psi_ij_inv", lambda: psi_ij_inv(back, True, 3)),
        ("psi_ij_inv", lambda: psi_ij_inv(back, 0, 3.0)),
    ]:
        with pytest.raises(ValueError, match="^%s[ :]" % name):
            call()
    # glue rejects a chart outside 0..n as source and as target
    for src, dst in [(-1, 0), (-1, 2), (4, 0), (4, 3), (0, -1), (2, -1), (0, 4), (3, 4)]:
        with pytest.raises(ValueError):
            glue(bare, src, dst)


def test_slot_symbol_is_an_algebra_map():
    rng = rng_for("slot-symbol")
    for _ in range(30):
        x = random_tensor_element(rng, 2, max_terms=2)
        y = random_tensor_element(rng, 2, max_terms=2)
        for k in (1, 2):
            assert slot_symbol(x * y, k) == slot_symbol(x, k) * slot_symbol(y, k)


def test_slot_symbol_section_and_projection():
    rng = rng_for("lift")
    for _ in range(30):
        n = int(rng.randint(2, 3))
        k = int(rng.randint(1, n))
        x = random_tensor_element(rng, n, circle_slot=k)
        # the circle lift sections the slot symbol
        assert slot_symbol(lift_circle(x), k) == x
        y = random_tensor_element(rng, n)
        # lifting back projects away exactly the matrix-unit terms at k
        assert lift_circle(slot_symbol(y, k)) == project_slots(y, (k,))


def test_slot_symbol_kills_matrix_units():
    x = TensorElement.pure((("E", 0, 0), ("T", 1)))
    assert slot_symbol(x, 1).is_zero()
    assert slot_symbol(x, 2) == TensorElement.pure((("E", 0, 0), ("u", 1)), circle_slot=2)


def test_project_slots_idempotent_and_commuting():
    rng = rng_for("project")
    for _ in range(20):
        x = random_tensor_element(rng, 3, compact_slots=(1, 2))
        p12 = project_slots(x, (1, 2))
        assert project_slots(p12, (1, 2)) == p12
        assert project_slots(project_slots(x, (1,)), (2,)) == p12
        assert project_slots(project_slots(x, (2,)), (1,)) == p12


def test_slot_for_table():
    assert slot_for(0, 1) == 1
    assert slot_for(0, 2) == 2
    assert slot_for(1, 0) == 1
    assert slot_for(1, 2) == 2
    assert slot_for(2, 0) == 1
    assert slot_for(2, 1) == 2
    with pytest.raises(ValueError):
        slot_for(1, 1)


def test_quotient_class_canonicalization():
    x = TensorElement.pure((("T", 1), ("T", 2)))
    noise = TensorElement.pure((("E", 0, 0), ("T", 2)), coeff=3) + TensorElement.pure(
        (("T", 1), ("E", 1, 1)), coeff=-2
    )
    assert QuotientClass(x + noise, (1, 2)) == QuotientClass(x, (1, 2))
    assert QuotientClass(x, (1, 2)) != QuotientClass(x + x, (1, 2))
    with pytest.raises(ValueError):
        QuotientClass(x, (1, 1))


def test_transition_representative_worked_example():
    # the component z (x) E00 over the last chart of the 2-dimensional
    # space maps to E00 (x) u^-1 over chart 0
    x = embed_toeplitz([ToeplitzElement.z(), ToeplitzElement.matrix_unit(0, 0)])
    w = slot_symbol(x, 1)
    out = psi_ij(w, 0, 2)
    assert out == TensorElement.pure((("E", 0, 0), ("u", -1)), circle_slot=2)
    # and the full representative pipeline lifts the circle back
    rep = transition_representative(x, 0, 2)
    assert rep == TensorElement.pure((("E", 0, 0), ("T", -1)))


def test_phi_validates_killed_slots():
    x = TensorElement.pure((("T", 1), ("T", 0)))
    cls = QuotientClass(x, (1, 2))  # over chart 1, killing charts 0 and 2
    out = phi(cls, 0, 1, 2)
    assert out.killed == frozenset((slot_for(0, 1), slot_for(0, 2)))
    with pytest.raises(ValueError):
        phi(cls, 2, 1, 2)  # repeated chart index
    # with three slots the killed pair pins down which transition applies
    y = TensorElement.pure((("T", 1), ("T", 0), ("T", 2)))
    bad = QuotientClass(y, (1, 2))  # over chart 1, killing charts 0 and 2
    with pytest.raises(ValueError):
        phi(bad, 0, 1, 3)  # needs the kernel of chart 3, which was kept


def test_phi_respects_representatives():
    rng = rng_for("phi-reps")
    for _ in range(20):
        x = random_tensor_element(rng, 2)
        noise = random_tensor_element(rng, 2, compact_slots=(1, 2))
        a = QuotientClass(x, (1, 2))
        b = QuotientClass(x + noise, (1, 2))
        assert phi(a, 0, 1, 2) == phi(b, 0, 1, 2)


def test_involution_check_report():
    report = psi_involution_check(2, samples=50)
    assert report["passed"] is True
    assert report["failures"] == []
    assert report["check"] == "gluing-involution"
    assert report["n"] == 2


def test_kernel_image_check_all_triples():
    for n in (2,):
        for i in range(n + 1):
            for j in range(n + 1):
                for k in range(n + 1):
                    if len({i, j, k}) != 3:
                        continue
                    report = kernel_image_check(n, i, j, k, samples=10)
                    assert report["passed"] is True, report
                    assert report["predicted_slot"] == slot_for(min(i, j), k)


def test_cocycle_check_report():
    report = cocycle_check(2, samples=20)
    assert report["passed"] is True
    assert report["failures"] == []
    assert [0, 2, 1] in [list(t) for t in report["triples"]]


@pytest.mark.parametrize("n, failing", [(2, [(0, 1, 2)]), (3, [(0, 1, 2), (0, 1, 3)])])
def test_only_spot_triples_glue_upward(monkeypatch, n, failing):
    # phi reads the module's glue through transition_representative; an
    # ordered triple i < k < j never glues upward, so a mutant that doubles
    # every upward move breaks the cocycle on spot triples only
    real = tensor_gluing.glue

    def doubled_upward(x, src, dst):
        y = real(x, src, dst)
        return y + y if src < dst else y

    monkeypatch.setattr(tensor_gluing, "glue", doubled_upward)
    report = cocycle_check(n, samples=5)
    spot = {tuple(t) for t in report["triples"][-tensor_gluing.COCYCLE_SPOT_TRIPLES :]}
    assert sorted({tuple(f["triple"]) for f in report["failures"]}) == failing
    assert set(failing) <= spot
    assert {f["reason"] for f in report["failures"]} == {"cocycle violated"}


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: cocycle_check(2, samples=0), id="cocycle samples=0"),
        pytest.param(lambda: cocycle_check(2, samples=-3), id="cocycle samples=-3"),
        pytest.param(
            lambda: kernel_image_check(2, 0, 1, 2, samples=0), id="kernel-image samples=0"
        ),
        pytest.param(lambda: transition_agreement(2, trials=0), id="transitions trials=0"),
        pytest.param(lambda: transition_agreement(2, trials=-3), id="transitions trials=-3"),
        pytest.param(lambda: psi_involution_check(2, samples=-1), id="psi samples=-1"),
        pytest.param(lambda: psi_involution_check(0), id="psi n=0"),
        pytest.param(lambda: cocycle_check(0), id="cocycle n=0"),
        pytest.param(lambda: cocycle_check(1), id="cocycle n=1"),
        pytest.param(lambda: transition_agreement(0), id="transitions n=0"),
        pytest.param(lambda: freeness_by_types(1, []), id="types k=1"),
        pytest.param(lambda: verify_freeness(2, samples=-3), id="freeness samples=-3"),
        pytest.param(lambda: verify_freeness(0), id="freeness n=0"),
        pytest.param(lambda: kernel_image_check(1, 0, 1, 2), id="kernel-image n=1"),
        pytest.param(lambda: classical_freeness(0), id="classical freeness n=0"),
        pytest.param(lambda: PullbackElement([TensorElement.zero(1)]), id="one chart"),
        pytest.param(lambda: TensorElement(0), id="no slot"),
        pytest.param(lambda: extend({}, 0), id="extend n=0"),
        pytest.param(lambda: witness_xI((), 0), id="witness_xI n=0"),
        pytest.param(lambda: witness_TmI(0, (), 0), id="witness_TmI n=0"),
    ],
)
def test_counts_that_check_nothing_are_refused(call):
    with pytest.raises(ValueError, match="must be at least"):
        call()


def _work(*args, **kwargs):
    raise AssertionError("work began before the arguments were read")


_FRONT = TensorElement.pure((("u", 0), ("T", 1)), circle_slot=1)
_BACK = TensorElement.pure((("T", 1), ("u", 0)), circle_slot=2)

# Each entry point with one integer argument replaced by v.
_ENTRY_POINTS = {
    "psi_involution_check n": lambda v: psi_involution_check(v),
    "psi_involution_check samples": lambda v: psi_involution_check(2, samples=v),
    "cocycle_check n": lambda v: cocycle_check(v),
    "cocycle_check samples": lambda v: cocycle_check(2, samples=v),
    "kernel_image_check n": lambda v: kernel_image_check(v, 0, 1, 2),
    "kernel_image_check i": lambda v: kernel_image_check(2, v, 0, 2),
    "kernel_image_check j": lambda v: kernel_image_check(2, 0, v, 1),
    "kernel_image_check k": lambda v: kernel_image_check(2, 0, 1, v),
    "kernel_image_check samples": lambda v: kernel_image_check(2, 0, 1, 2, samples=v),
    "chi": lambda v: chi(_BACK, v),
    "chi_inv": lambda v: chi_inv(_BACK, v),
    "psi_ij i": lambda v: psi_ij(_FRONT, v, 2),
    "psi_ij j": lambda v: psi_ij(_FRONT, 0, v),
    "psi_ij_inv i": lambda v: psi_ij_inv(_BACK, v, 2),
    "psi_ij_inv j": lambda v: psi_ij_inv(_BACK, 0, v),
    "extend chart": lambda v: extend({v: TensorElement.one(2)}, 2),
    "extend n": lambda v: extend({}, v),
    "witness_xI chart": lambda v: witness_xI({v}, 2),
    "witness_xI n": lambda v: witness_xI((), v),
    "witness_TmI m": lambda v: witness_TmI(v, (), 2),
    "witness_TmI chart": lambda v: witness_TmI(0, {v}, 2),
    "witness_TmI n": lambda v: witness_TmI(0, (), v),
    "verify_freeness n": lambda v: verify_freeness(v),
    "verify_freeness samples": lambda v: verify_freeness(1, samples=v),
    "verify_freeness generator": lambda v: verify_freeness(1, generator_map={v: 0}),
    "verify_freeness chart": lambda v: verify_freeness(1, generator_map={0: v}),
    "transition_agreement n": lambda v: transition_agreement(v),
    "transition_agreement trials": lambda v: transition_agreement(1, trials=v),
    "classical_freeness": lambda v: classical_freeness(v),
    "antichain_count": lambda v: antichain_count(v),
    "fdl_enumerate": lambda v: fdl_enumerate(v),
    "freeness_by_types": lambda v: freeness_by_types(v, None),
    "check_freeness_criterion": lambda v: check_freeness_criterion(v, _work, _work),
}
# an n of True already failed in the tensor shape before the one reader
_SHAPE_CHECKED = {"psi_involution_check n", "extend n", "witness_xI n", "verify_freeness n"}


@pytest.mark.parametrize(
    "entry, value",
    [
        (entry, value)
        for entry in _ENTRY_POINTS
        for value in (True, 1.5, 2.0, "2")
        if not (value is True and entry in _SHAPE_CHECKED)
    ],
    ids=repr,
)
def test_integer_arguments_are_read_before_any_work(monkeypatch, entry, value):
    for module, name in [
        (tensor_gluing, "derived_rng"),
        (tensor_gluing, "psi"),
        (tensor_gluing, "_move_circle"),
        (multipullback, "derived_rng"),
        (multipullback, "compatibility_failures"),
        (multipullback, "check_freeness_criterion"),
        (multipullback, "slot_for"),
        (classical_cpn, "derived_rng"),
        (classical_cpn, "covering_generators"),
        (order_lattice, "_boolean_poset"),
    ]:
        monkeypatch.setattr(module, name, _work)
    with pytest.raises(ValueError, match="must be an integer"):
        _ENTRY_POINTS[entry](value)


def test_random_tensor_element_shapes():
    rng = rng_for("shapes")
    x = random_tensor_element(rng, 3, circle_slot=2, compact_slots=(1, 3))
    assert x.n_slots == 3 and x.circle_slot == 2
    for atoms in x.terms:
        assert atoms[0][0] == "E"
        assert atoms[1][0] == "u"
    # a compact slot that is no Toeplitz slot is refused before any draw
    state = rng.getstate()
    for slots in ({99}, {2}, {0}):
        with pytest.raises(ValueError):
            random_tensor_element(rng, 3, circle_slot=2, compact_slots=slots)
    assert rng.getstate() == state


def test_trusted_constructions_are_canonical():
    # random_tensor_element and zero build without __init__
    rng = rng_for("trusted")
    for _ in range(40):
        n = int(rng.randint(1, 4))
        c = int(rng.randint(1, n))
        s = int(rng.randint(1, n))
        canonical(random_tensor_element(rng, n, max_terms=4))
        canonical(random_tensor_element(rng, n, circle_slot=c, max_terms=4))
        canonical(random_tensor_element(rng, n, compact_slots={s}, max_terms=4))
        every_toeplitz_slot = set(range(1, n + 1)) - {c}
        canonical(random_tensor_element(rng, n, circle_slot=c, compact_slots=every_toeplitz_slot))
        assert canonical(TensorElement.zero(n, c)).is_zero()
        assert canonical(TensorElement.zero(n)).shape == (n, None)


def test_psi_sweep_atoms_are_canonical(monkeypatch):
    # the sweep builds its atom tensors trusted; psi sees each of them
    seen = []

    def checked_psi(x):
        seen.append(canonical(x))
        return psi(x)

    monkeypatch.setattr(tensor_gluing, "psi", checked_psi)
    assert psi_involution_check(2, samples=5)["passed"]
    assert len(seen) == 2 * (23 * 7 + 5)
    assert all(x.shape == (2, 2) for x in seen)


@pytest.mark.parametrize(
    "call",
    [
        lambda: random_tensor_element(rng_for("bad-shape"), 0),
        lambda: random_tensor_element(rng_for("bad-shape"), 3, circle_slot=4),
        lambda: random_tensor_element(rng_for("bad-shape"), 3, circle_slot=0),
        lambda: TensorElement.zero(2, 3),
        lambda: TensorElement.zero(0),
        lambda: random_tensor_element(rng_for("bad-shape"), 2, compact_slots={99}),
        lambda: random_tensor_element(rng_for("bad-shape"), 2, circle_slot=1, compact_slots={1}),
        lambda: TensorElement.zero(2, True),
        lambda: TensorElement(2, True),
        lambda: project_slots(TensorElement.one(2), {3}),
        lambda: project_slots(TensorElement.one(2, 1), {1}),
    ],
)
def test_trusted_constructions_check_the_shape(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "atoms, circle_slot",
    [
        ((("T", 1.5),), None),
        ((("E", 0.5, 0),), None),
        ((("E", 0, -1),), None),
        ((("T", True),), None),
        ((("T", "1"),), None),
        ((("u", 0.5),), 1),
        ((("T", 0), ("u", False)), 2),
        ([3], None),
        ([()], None),
        ([["T", 1]], None),
        ((("T", 0), ("u", 0)), True),
    ],
)
def test_atoms_must_carry_integers(atoms, circle_slot):
    with pytest.raises(ValueError):
        TensorElement.pure(atoms, circle_slot=circle_slot)
    if any(isinstance(a, list) for a in atoms):
        return  # a list is how JSON writes an atom, so the reader takes it
    # the JSON reader takes each atom as a list, or as whatever the row holds
    rows = [list(a) if isinstance(a, tuple) else a for a in atoms]
    terms = [{"atoms": rows, "coeff": [1, 1, 0, 1]}]
    with pytest.raises(ValueError):
        TensorElement.from_json({"n_slots": len(rows), "circle_slot": circle_slot, "terms": terms})


@pytest.mark.parametrize("key", [3, None])
def test_keys_must_be_atom_tuples(key):
    with pytest.raises(ValueError):
        TensorElement(2, None, {key: 1})


@pytest.mark.parametrize(
    "data",
    [
        {"n_slots": 1, "circle_slot": None},
        {"n_slots": "1", "circle_slot": None, "terms": []},
        {"n_slots": 1, "circle_slot": None, "terms": [[["T", 1]]]},
        {"n_slots": 1, "circle_slot": None, "terms": {}},
        [],
    ],
)
def test_tensor_documents_must_be_well_formed(data):
    with pytest.raises(ValueError):
        TensorElement.from_json(data)


def test_gluing_suites_build_no_tensor_through_the_validating_constructor(monkeypatch):
    # a count of calls, not a timing: every tensor these suites build comes
    # from a trusted path, so none passes through __init__ or _key
    calls = []
    init, key = TensorElement.__init__, TensorElement._key

    def counting_init(self, *args, **kwargs):
        calls.append("init")
        init(self, *args, **kwargs)

    def counting_key(self, atoms):
        calls.append("key")
        return key(self, atoms)

    monkeypatch.setattr(TensorElement, "__init__", counting_init)
    monkeypatch.setattr(TensorElement, "_key", counting_key)
    assert psi_involution_check(3, samples=5)["passed"]
    assert kernel_image_check(3, 0, 1, 2, samples=3)["passed"]
    assert cocycle_check(3, samples=2)["passed"]
    assert calls == []
    # the counters do count the validating constructor
    TensorElement.pure((("T", 0),))
    assert calls == ["init", "key"]


def test_json_roundtrip_and_render():
    rng = rng_for("json")
    for _ in range(20):
        x = random_tensor_element(rng, 2, circle_slot=1)
        assert TensorElement.from_json(x.to_json()) == x
    x = TensorElement.pure((("T", 1), ("u", -2)), circle_slot=2)
    assert x.render() == "T(u) & u^-2"
    y = TensorElement.pure((("T", -1), ("E", 0, 2)), coeff=Scalar(1, 2))
    assert (x.scale(-1) + TensorElement.pure((("T", 0), ("u", 0)), 2, 3)).render() == (
        "3*T(1) & 1 + -T(u) & u^-2"
    )
    # the same atom reads the same in a tensor and in a single slot
    assert y.render() == "(1+2i)*T(u^-1) & E[0,2]"
    assert ToeplitzElement.shift(-1).render() == "T(u^-1)"
    assert TensorElement.zero(2).render() == "0"
