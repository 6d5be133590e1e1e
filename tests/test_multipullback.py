"""Checks for pullback membership, extension, and the freeness evidence."""

import pytest

from tqps import multipullback, order_lattice, tensor_gluing
from tqps.classical_cpn import classical_freeness
from tqps.multipullback import (
    ExtensionError,
    IncompatiblePartialFamily,
    PullbackElement,
    compatibility_failures,
    extend,
    is_member,
    sample_kernel_intersection,
    verify_freeness,
    witness_TmI,
    witness_xI,
)
from tqps.sampling import DEFAULT_SEED
from tqps.tensor_gluing import (
    TensorElement,
    glue,
    project_slots,
    random_tensor_element,
    slot_for,
    slot_symbol,
)
from tqps.util import derived_rng


def rng_for(name):
    return derived_rng(DEFAULT_SEED, "test-pullback", name)


def tensor_z(n):
    return TensorElement.pure([("T", 1)] * n)


def test_element_validation():
    with pytest.raises(ValueError):
        PullbackElement([TensorElement.one(1)])  # a single chart is not enough
    with pytest.raises(ValueError):
        PullbackElement([TensorElement.one(1), TensorElement.one(2)])
    with pytest.raises(ValueError):
        PullbackElement([TensorElement.one(1), TensorElement.one(1, circle_slot=1)])
    for call in (lambda: PullbackElement.zero("2"), lambda: PullbackElement.unit(2.5)):
        with pytest.raises(ValueError, match="^n must be an integer"):
            call()  # read before range(n + 1) is built


def test_unit_and_zero_are_members():
    for n in (1, 2, 3):
        assert is_member(PullbackElement.unit(n))
        assert is_member(PullbackElement.zero(n))


def test_extension_of_the_shift_on_the_circle():
    # over two charts the shift glues to its adjoint on the other side
    p = extend({0: tensor_z(1)}, 1)
    assert p.components[0] == TensorElement.pure((("T", 1),))
    assert p.components[1] == TensorElement.pure((("T", -1),))
    assert is_member(p)


def test_extension_of_the_double_shift():
    # z (x) z over chart 0 forces T(u^-2) (x) z over both other charts
    p = extend({0: tensor_z(2)}, 2)
    expected = TensorElement.pure((("T", -2), ("T", 1)))
    assert p.components[1] == expected
    assert p.components[2] == expected
    assert is_member(p)


def test_extension_preserves_full_members():
    rng = rng_for("full")
    for n in (1, 2):
        for _ in range(10):
            p = extend({0: random_tensor_element(rng, n, max_terms=2)}, n)
            again = extend(dict(enumerate(p.components)), n)
            assert again == p


def test_single_component_extensions_are_members():
    rng = rng_for("members")
    for n in (1, 2, 3):
        for _ in range(10):
            m = rng.randrange(n + 1)
            p = extend({m: random_tensor_element(rng, n, max_terms=2)}, n)
            assert is_member(p)


def test_extended_components_are_canonical():
    # extend builds each missing component trusted; rebuilding it through
    # the validating constructor must change nothing
    rng = rng_for("canonical")
    for n in (1, 2, 3):
        for _ in range(10):
            m = rng.randrange(n + 1)
            members = [
                extend({m: random_tensor_element(rng, n, max_terms=3)}, n),
                sample_kernel_intersection(rng, n, {(m + 1) % (n + 1)}),
            ]
            for p in members:
                for c in p.components:
                    assert c == TensorElement(n, None, c.terms)


def test_extended_members_glue_in_both_frames():
    # the gluing law read from either chart of each pair: component j seen
    # from chart i is the symbol of component i at the slot tracking j
    rng = rng_for("both-frames")
    for n in (1, 2, 3):
        for _ in range(5):
            m = rng.randrange(n + 1)
            p = extend({m: random_tensor_element(rng, n, max_terms=3)}, n).components
            for i in range(n + 1):
                for j in range(n + 1):
                    if i != j:
                        assert glue(p[j], j, i) == slot_symbol(p[i], slot_for(i, j))


def test_members_form_an_algebra():
    rng = rng_for("algebra")
    for _ in range(10):
        p = extend({0: random_tensor_element(rng, 2, max_terms=2)}, 2)
        q = extend({1: random_tensor_element(rng, 2, max_terms=2)}, 2)
        assert is_member(p + q)
        assert is_member(p * q)
        assert is_member(p.scale(3) - q)


def test_arithmetic_with_a_non_element_is_a_type_error():
    p = PullbackElement.zero(2)
    for op in (lambda: p + 3, lambda: p - 3, lambda: p * 3, lambda: 3 * p):
        with pytest.raises(TypeError):
            op()


def test_incompatible_family_is_rejected():
    z = tensor_z(1)
    with pytest.raises(IncompatiblePartialFamily) as exc:
        extend({0: z, 1: z}, 1)
    assert exc.value.failures[0]["pair"] == [0, 1]
    assert not is_member(PullbackElement([z, z]))
    # a complete family builds no component: the up-front check is the only one
    zz = tensor_z(2)
    with pytest.raises(IncompatiblePartialFamily) as exc:
        extend({0: zz, 1: zz, 2: zz}, 2)
    assert [f["pair"] for f in exc.value.failures] == [[0, 1], [0, 2], [1, 2]]


def test_final_check_runs_on_built_components(monkeypatch):
    # glue from a lower chart i to a higher chart j moves the circle from
    # slot j down to slot i + 1; doubling every move that does not go up is
    # still linear, so the built component meets its own constraint, and
    # only the final check against chart 0 can see it
    move = tensor_gluing._move_circle

    def doubled_unless_upwards(x, src, dst, *args, **kwargs):
        y = move(x, src, dst, *args, **kwargs)
        return y.scale(2) if dst <= src else y

    monkeypatch.setattr(tensor_gluing, "_move_circle", doubled_unless_upwards)
    with pytest.raises(ExtensionError, match="final membership check"):
        extend({0: tensor_z(1)}, 1)
    monkeypatch.undo()
    # a doubled constraint from chart 0 on chart 1, the case a re-check of
    # each constraint's symbol would see: the pair check names that pair
    raw = multipullback.transition_representative

    def doubled_from_0_on_1(x, i, j):
        y = raw(x, i, j)
        return y.scale(2) if (i, j) == (1, 0) else y

    monkeypatch.setattr(multipullback, "transition_representative", doubled_from_0_on_1)
    with pytest.raises(ExtensionError, match=r"final membership check on pairs \[\[0, 1\]"):
        extend({0: tensor_z(2)}, 2)


def test_compatibility_failures_are_symmetric_in_presence():
    # only pairs with both charts present are checked
    z = tensor_z(2)
    assert compatibility_failures({0: z}) == []
    assert compatibility_failures({1: z}) == []


def test_empty_extension():
    assert extend({}, 2) == PullbackElement.zero(2)


def test_extension_validates_components():
    with pytest.raises(ValueError):
        extend({5: tensor_z(2)}, 2)
    with pytest.raises(ValueError):
        extend({0: TensorElement.one(2, circle_slot=1)}, 2)


def test_compact_witness_vanishes_exactly_where_asked():
    for n in (1, 2, 3):
        for charts in ({0}, {n}, set(range(1, n + 1))):
            p = witness_xI(charts, n)
            assert is_member(p)
            for c in range(n + 1):
                assert p.components[c].is_zero() == (c in charts)


def test_compact_witness_redraws_a_cancelling_draw():
    # the first all-matrix-unit draw for this seed cancels to zero
    evidence = verify_freeness(2, seed=250339240, samples=1)
    assert evidence.verdict == "FREE"


def test_compact_witness_fails_loudly_off_the_pullback(monkeypatch):
    monkeypatch.setattr(multipullback, "is_member", lambda p: False)
    with pytest.raises(ValueError, match="fails a gluing constraint"):
        witness_xI({0}, 2)


def test_compact_witness_validates_input():
    with pytest.raises(ValueError):
        witness_xI({5}, 2)


def test_irreducibility_witness_shape():
    T, sigma = witness_TmI(0, {1}, 2)
    assert T == TensorElement.pure((("E", 0, 0), ("T", 1)))
    assert sigma == frozenset({2})
    assert not project_slots(T, sigma).is_zero()
    with pytest.raises(ValueError):
        witness_TmI(1, {1}, 2)  # m inside the chart set


def test_irreducibility_functional_kills_other_kernels():
    # the functional attached to chart 0 against {1} annihilates every
    # member of the kernel of chart 2
    T, sigma = witness_TmI(0, {1}, 2)
    rng = rng_for("functional")
    for _ in range(20):
        p = sample_kernel_intersection(rng, 2, {2})
        assert project_slots(p.components[0], sigma).is_zero()
    # while a member built from T itself survives
    p = extend({1: TensorElement.zero(2), 0: T}, 2)
    assert not project_slots(p.components[0], sigma).is_zero()


def test_kernel_ideal_sampling():
    rng = rng_for("ideal")
    for charts in ({0}, {0, 2}, {1, 2}):
        for _ in range(5):
            p = sample_kernel_intersection(rng, 2, charts)
            assert all(p.components[c].is_zero() for c in charts)
            assert is_member(p)
    assert sample_kernel_intersection(rng, 2, {0, 1, 2}).is_zero()


def test_kernel_sample_fails_loudly_when_it_does_not_vanish(monkeypatch):
    def completion_without_zeros(partial, n):
        return PullbackElement.unit(n)

    monkeypatch.setattr(multipullback, "extend", completion_without_zeros)
    with pytest.raises(ExtensionError, match="does not vanish on charts"):
        sample_kernel_intersection(rng_for("loud"), 2, {0})


def _annihilation_samples(evidence):
    rows = evidence.bundle["irreducibility"]
    return sum(a["samples"] for row in rows for a in row["annihilation"])


def test_freeness_verdicts():
    # separations: every proper index set against each strictly larger one;
    # rows: one per proper index set and chart outside it
    for n, separations, rows in ((1, 2, 2), (2, 12, 9)):
        evidence = verify_freeness(n, samples=25)
        assert evidence.free, evidence.bundle["witness"]
        assert evidence.bundle["check"] == "kernel-lattice-freeness"
        assert evidence.bundle["schema"] == 2
        assert len(evidence.bundle["separations"]) == separations
        assert len(evidence.bundle["irreducibility"]) == rows
        assert all(row["ok"] for row in evidence.bundle["irreducibility"])


def test_freeness_at_four_charts_past_the_tables(monkeypatch):
    def no_listing(*args, **kwargs):
        raise AssertionError("the free lattice was listed")

    monkeypatch.setattr(order_lattice, "fdl_enumerate", no_listing)
    evidence = verify_freeness(4, samples=1)
    assert evidence.verdict == "FREE", evidence.bundle["witness"]
    assert evidence.bundle["schema"] == 2
    assert "lattice" not in evidence.bundle and "criterion" not in evidence.bundle
    assert len(evidence.bundle["separations"]) == 180
    assert len(evidence.bundle["irreducibility"]) == 75
    assert _annihilation_samples(evidence) == 575
    control = verify_freeness(4, samples=1, generator_map={1: 0})
    assert control.verdict == "NOT_FREE"
    assert control.bundle["witness"]["clause"] == "order"
    assert "lattice" not in control.bundle and "criterion" not in control.bundle


def test_freeness_past_the_old_cap_of_four():
    evidence = verify_freeness(5, samples=1)
    assert evidence.verdict == "FREE", evidence.bundle["witness"]
    assert len(evidence.bundle["separations"]) == 602
    assert _annihilation_samples(evidence) == 2346


def test_freeness_draws_each_intersection_once(monkeypatch):
    drawn = []
    calls = {"witness_TmI": 0, "witness_xI": 0}
    sample = multipullback.sample_kernel_intersection

    def counted(rng, n, charts):
        drawn.append(frozenset(charts))
        return sample(rng, n, charts)

    def counting(name):
        real = getattr(multipullback, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(multipullback, name, call)

    monkeypatch.setattr(multipullback, "sample_kernel_intersection", counted)
    counting("witness_TmI")
    counting("witness_xI")
    evidence = verify_freeness(2, samples=5)
    assert evidence.free, evidence.bundle["witness"]
    # 21 entries each still read 5 members, drawn 5 at a time for each of the
    # 2^(n+1) - n - 2 = 4 chart sets of two or more charts
    assert _annihilation_samples(evidence) == 105
    assert len(drawn) == 20
    assert len(set(drawn)) == 4
    # one irreducibility witness per row, one member witness per chart set
    # the order clause reads
    assert calls["witness_TmI"] == len(evidence.bundle["irreducibility"]) == 9
    assert calls["witness_xI"] == 6
    drawn.clear()
    calls.update(witness_TmI=0, witness_xI=0)
    control = verify_freeness(2, samples=5, generator_map={1: 0})
    assert control.bundle["witness"]["clause"] == "order"
    assert drawn == []
    assert calls == {"witness_TmI": 0, "witness_xI": 1}


def test_a_sample_the_projection_keeps_refutes_irreducibility(monkeypatch):
    def unit_sample(rng, n, charts):
        return PullbackElement.unit(n)

    monkeypatch.setattr(multipullback, "sample_kernel_intersection", unit_sample)
    evidence = verify_freeness(2, samples=5)
    assert evidence.verdict == "NOT_FREE"
    witness = evidence.bundle["witness"]
    assert witness["clause"] == "irreducibility"
    assert witness["I"] == [0]
    # the walk stops at the first index set, whose rows fail on samples alone
    rows = evidence.bundle["irreducibility"]
    assert [row["I"] for row in rows] == [[0], [0]]
    for row in rows:
        assert row["witness_nonzero"] and row["exact_generator_kills"]
        assert not row["ok"]
        assert row["annihilation"]
        assert all(a["failures"] == a["samples"] == 5 for a in row["annihilation"])


def test_duplicated_generator_is_caught():
    evidence = verify_freeness(2, samples=25, generator_map={1: 0})
    assert not evidence.free
    assert evidence.verdict == "NOT_FREE"
    witness = evidence.bundle["witness"]
    assert witness["clause"] == "order"
    # generator 1 now names the same kernel as generator 0, so the two
    # pure intersections collapse into a spurious comparability
    assert evidence.bundle["generator_map"] == [0, 0, 2]


def test_freeness_bundle_records_separations():
    evidence = verify_freeness(1, samples=10)
    assert all(row["separated"] for row in evidence.bundle["separations"])
    assert all(row["ok"] for row in evidence.bundle["irreducibility"])


_KERNEL_EVIDENCE = (
    "schema",
    "check",
    "n",
    "seed",
    "samples",
    "generator_map",
    "separations",
    "irreducibility",
)


@pytest.mark.parametrize(
    "run, verdict, evidence",
    [
        pytest.param(lambda: order_lattice.freeness_by_types(2, [1, 2]), "FREE", (), id="types"),
        pytest.param(
            lambda: order_lattice.freeness_by_types(2, [1]), "NOT_FREE", (), id="types-missing"
        ),
        pytest.param(
            lambda: order_lattice.check_freeness_criterion(
                2, lambda I, J: I <= J, lambda I: (True, None)
            ),
            "FREE",
            (),
            id="criterion",
        ),
        pytest.param(lambda: classical_freeness(3), "FREE", ("details",), id="classical"),
        pytest.param(lambda: verify_freeness(2), "FREE", _KERNEL_EVIDENCE, id="kernels"),
        pytest.param(
            lambda: verify_freeness(2, generator_map={1: 0}),
            "NOT_FREE",
            _KERNEL_EVIDENCE,
            id="kernels-control",
        ),
    ],
)
def test_every_freeness_test_returns_one_report(run, verdict, evidence):
    # one report type: its bundle holds verdict, witness and the test's
    # evidence, and every accessor reads that dict
    report = run()
    assert type(report) is order_lattice.FreenessReport
    assert report.to_json() is report.bundle
    assert set(report.bundle) == {"verdict", "witness", *evidence}
    assert report.verdict == report.bundle["verdict"] == verdict
    assert report.witness is report.bundle["witness"]
    assert report.free == (verdict == "FREE") == (report.witness is None)
