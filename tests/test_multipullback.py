"""Checks for pullback membership, extension, and the freeness evidence."""

import itertools
import operator

import pytest

from mutants import MUTANTS
from oracles import randint_tensor_element

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
    transition_representative,
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
    with pytest.raises(ValueError):
        PullbackElement(5)
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


def test_member_arithmetic_reads_no_result_again(monkeypatch):
    # a count, not a timing: each result is n + 1 components of n slots by
    # construction, so none goes back through the family reader
    rng = rng_for("no-reread")
    a = extend({0: random_tensor_element(rng, 2, max_terms=2)}, 2)
    b = extend({1: random_tensor_element(rng, 2, max_terms=2)}, 2)
    reads = []
    read = multipullback._components

    def counted_read(family, *args):
        reads.append(family)
        return read(family, *args)

    monkeypatch.setattr(multipullback, "_components", counted_read)
    results = [a + b, a - b, a * b, -a, a.scale(2)]
    assert reads == []
    assert all(is_member(r) for r in results)


def test_negation_and_scaling_act_componentwise():
    rng = rng_for("componentwise")
    for n in (1, 2, 3):
        p = extend({0: random_tensor_element(rng, n, max_terms=3)}, n)
        assert not p.is_zero()
        assert -p == PullbackElement([-c for c in p.components])
        assert p.scale(2) == PullbackElement([c.scale(2) for c in p.components])
        assert (-p + p).is_zero() and -p == p.scale(-1)


def test_members_of_different_n_do_not_combine():
    # the first component pair has different slot counts, so nothing is
    # returned whichever side has more charts
    for a, b in itertools.permutations((PullbackElement.unit(1), PullbackElement.unit(2))):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError, match="^cannot combine"):
                op(a, b)


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


def test_a_malformed_family_is_refused_before_any_pair():
    # one reader for compatibility_failures and extend: a mapping, chart
    # keys in 0..n, one slot count n, pure Toeplitz components
    z = TensorElement.zero(2)
    for family in (
        5,
        None,
        {"a": z, 1: z},
        {0: z, 1: TensorElement.zero(3)},
        {0: "junk"},
        {0: TensorElement.zero(2, circle_slot=1), 1: z},
        {0: z, 3: z},
        {0: z, -1: z},
        {True: z},
    ):
        with pytest.raises(ValueError):
            compatibility_failures(family)
        with pytest.raises(ValueError):
            is_member(family)
        with pytest.raises(ValueError):
            extend(family, 2)
    assert compatibility_failures({}) == []
    assert compatibility_failures({0: z, 2: z}) == []


def _two_sided_failures(comps):
    """The pair check building both sides of every pair, zero or not."""
    out = []
    for i, j in itertools.combinations(sorted(comps), 2):
        lhs = slot_symbol(comps[i], slot_for(i, j))
        rhs = glue(comps[j], j, i)
        if lhs != rhs:
            out.append({"pair": [i, j], "from_low": lhs.to_json(), "from_high": rhs.to_json()})
    return out


def _extend_every_constraint(partial, n):
    """extend's completion lifting the constraint of every known component,
    zero ones included, with both sides of every pair checked."""
    comps = dict(partial)
    failures = _two_sided_failures(comps)
    if failures:
        raise IncompatiblePartialFamily(failures)
    for m in range(n + 1):
        if m not in partial:
            terms = {}
            for t in sorted(comps):
                terms.update(transition_representative(comps[t], m, t).terms)
            comps[m] = TensorElement(n, None, terms)
    if _two_sided_failures(comps):
        raise ExtensionError("final membership check")
    return PullbackElement([comps[i] for i in range(n + 1)])


def _outcome(call, *args):
    try:
        return call(*args)
    except IncompatiblePartialFamily as exc:
        return IncompatiblePartialFamily, exc.failures
    except ExtensionError:
        return ExtensionError


def _mixed_families(n, rng):
    """Seeded families over charts 0..n whose components are zero, have a
    matrix unit in every slot, or are drawn at random: members of kernel
    intersections, members with a zero or random component swapped in, and
    free mixes."""
    every_slot = range(1, n + 1)
    zero = TensorElement.zero(n)

    def draw():
        kind = rng.randrange(3)
        if kind == 0:
            return zero
        if kind == 1:
            return random_tensor_element(rng, n, compact_slots=every_slot)
        return random_tensor_element(rng, n)

    families = []
    for _ in range(12):
        charts = set(rng.sample(range(n + 1), rng.randrange(n + 1)))
        member = list(sample_kernel_intersection(rng, n, charts).components)
        families.append(member)
        broken = list(member)
        broken[rng.randrange(n + 1)] = draw()
        families.append(broken)
        families.append([draw() for _ in range(n + 1)])
    return families


def test_compatibility_failures_match_the_two_sided_check():
    for n in (1, 2, 3):
        rng = rng_for("two-sided-%d" % n)
        families = _mixed_families(n, rng)
        seen = {"pass": 0, "fail": 0}
        for family in families:
            comps = dict(enumerate(family))
            expected = _two_sided_failures(comps)
            seen["fail" if expected else "pass"] += 1
            assert compatibility_failures(PullbackElement(family)) == expected
            assert compatibility_failures(comps) == expected
            # and on partial families, every pair with both charts present
            keep = rng.sample(range(n + 1), rng.randrange(n + 2))
            partial = {k: comps[k] for k in keep}
            assert compatibility_failures(partial) == _two_sided_failures(partial)
        assert seen["pass"] and seen["fail"]


def _pair_failures_by_zero_pattern(comps, pairs):
    """The pair check with a branch per zero pattern of a pair: both zero,
    a zero low side, a zero high side, neither."""
    out = []
    for i, j in pairs:
        low, high = comps[i], comps[j]
        if not low.terms and not high.terms:
            continue
        lhs = multipullback.slot_symbol(low, slot_for(i, j)) if low.terms else None
        rhs = multipullback.glue(high, j, i) if high.terms else None
        if lhs is None:
            if not rhs.terms:
                continue
            lhs = multipullback.slot_symbol(low, slot_for(i, j))
        elif rhs is None:
            if not lhs.terms:
                continue
            rhs = multipullback.glue(high, j, i)
        elif lhs == rhs:
            continue
        out.append({"pair": [i, j], "from_low": lhs.to_json(), "from_high": rhs.to_json()})
    return out


@pytest.mark.parametrize("mutant", [None, "s"])
def test_one_comparison_per_pair_matches_a_branch_per_zero_pattern(monkeypatch, mutant):
    # the families are drawn first: under the sign mutant (s), which
    # negates glue down the charts, extend fails and most members fail
    cases = []
    for n in (1, 2, 3, 4):
        pairs = list(itertools.combinations(range(n + 1), 2))
        families = _mixed_families(n, rng_for("zero-pattern-%d" % n))
        cases += [(dict(enumerate(f)), pairs) for f in families]
    if mutant:
        MUTANTS[mutant](monkeypatch)
    patterns = set()
    for comps, pairs in cases:
        expected = _pair_failures_by_zero_pattern(comps, pairs)
        assert multipullback._pair_failures(comps, pairs) == expected
        failing = [f["pair"] for f in expected]
        for i, j in pairs:
            patterns.add((comps[i].is_zero(), comps[j].is_zero(), [i, j] in failing))
    # every zero pattern of a pair, holding and failing, except two zeros failing
    assert len(patterns) == 7


def test_extension_from_zero_components_matches_every_constraint_lifted():
    for n in (1, 2, 3):
        rng = rng_for("extend-zeros-%d" % n)
        zero = TensorElement.zero(n)
        kinds = set()
        for _ in range(20):
            charts = set(rng.sample(range(n + 1), rng.randrange(1, n + 1)))
            free = sorted(set(range(n + 1)) - charts)
            m0 = free[rng.randrange(len(free))]
            # forced matrix units on the slots tracking the zero charts keep
            # the family compatible; without them it usually is not
            forced = {slot_for(m0, c) for c in charts} if rng.randrange(2) else set()
            partial = dict.fromkeys(charts, zero)
            partial[m0] = random_tensor_element(rng, n, compact_slots=forced)
            if rng.randrange(2) and len(free) > 1:
                # a second known component from a member of the intersection
                m1 = next(m for m in free if m != m0)
                partial[m1] = sample_kernel_intersection(rng, n, charts).components[m1]
            got = _outcome(extend, partial, n)
            assert got == _outcome(_extend_every_constraint, partial, n)
            kinds.add(type(got))
        assert PullbackElement in kinds and tuple in kinds


def test_a_zero_component_builds_no_side_of_its_pairs(monkeypatch):
    # a count of calls, not a timing: a pair of zero components builds no
    # side, a pair with one zero component builds only the other side, and
    # it builds the zero side too only when the pair fails
    built = []
    for name in ("slot_symbol", "glue"):
        real = getattr(multipullback, name)

        def counted(*args, real=real):
            built.append(args[0])
            return real(*args)

        monkeypatch.setattr(multipullback, name, counted)
    members = []
    for n in (1, 2, 3):
        rng = rng_for("zero-count-%d" % n)
        members.append(PullbackElement.zero(n))
        for charts in ({0}, set(range(1, n + 1)), set(range(n))):
            members.append(sample_kernel_intersection(rng, n, charts))
            members.append(witness_xI(charts, n))
    for p in members:
        assert is_member(p)
        n = p.n
        expected = 0
        for i, j in itertools.combinations(range(n + 1), 2):
            a, b = p.components[i], p.components[j]
            pair_sides = (not a.is_zero()) + (not b.is_zero())
            del built[:]
            assert compatibility_failures({i: a, j: b}) == []
            assert len(built) == pair_sides
            assert not any(c.is_zero() for c in built)
            expected += pair_sides
        del built[:]
        assert compatibility_failures(p) == []
        assert len(built) == expected
    zero_pairs = sum(
        p.components[i].is_zero() or p.components[j].is_zero()
        for p in members
        for i, j in itertools.combinations(range(p.n + 1), 2)
    )
    assert zero_pairs > 10
    # a failing pair with a zero component builds both sides, once each
    z = tensor_z(2)
    family = {0: z, 1: TensorElement.zero(2)}
    del built[:]
    failures = compatibility_failures(family)
    assert len(built) == 2
    assert failures == _two_sided_failures(family)


def test_extend_reads_its_family_once_and_lifts_only_given_components(monkeypatch):
    # a count, not a timing: one read of the family, and each built chart
    # lifts the one given component, never a chart built before it
    reads, lifts = [], []
    read, lift = multipullback._components, multipullback.transition_representative

    def counted_read(family, *args):
        reads.append(family)
        return read(family, *args)

    def counted_lift(x, i, j):
        lifts.append((i, j))
        return lift(x, i, j)

    monkeypatch.setattr(multipullback, "_components", counted_read)
    monkeypatch.setattr(multipullback, "transition_representative", counted_lift)
    p = extend({0: tensor_z(3)}, 3)
    assert len(reads) == 1
    assert lifts == [(1, 0), (2, 0), (3, 0)]
    # every built component is nonzero, so lifting them too would run more
    assert not any(c.is_zero() for c in p.components)
    assert is_member(p)


def _extend_lifting_built_components(partial, n):
    """extend's completion lifting each built component, too, on to every
    chart built after it."""
    comps = dict(partial)
    failures = compatibility_failures(comps)
    if failures:
        raise IncompatiblePartialFamily(failures)
    for m in range(n + 1):
        if m not in partial:
            terms = {}
            for t in sorted(comps):
                if comps[t].terms:
                    terms.update(transition_representative(comps[t], m, t).terms)
            comps[m] = TensorElement(n, None, terms)
    if compatibility_failures(comps):
        raise ExtensionError("final membership check")
    return PullbackElement([comps[i] for i in range(n + 1)])


def test_lifting_built_components_too_changes_no_extension():
    # a built component's terms are lifts of given ones, so gluing them on
    # to a later chart adds nothing while the law holds
    shapes = {}
    for n in (1, 2, 3, 4):
        rng = rng_for("lift-built-%d" % n)
        for _ in range(25):
            charts = set(rng.sample(range(n + 1), rng.randrange(n + 1)))
            member = sample_kernel_intersection(rng, n, charts).components
            keep = rng.sample(range(n + 1), rng.randrange(1, n + 1))
            partial = {k: member[k] for k in keep}
            if rng.randrange(4) == 0:
                # a random component in place of one kept: often refused
                partial[keep[0]] = random_tensor_element(rng, n)
            got = _outcome(extend, partial, n)
            assert got == _outcome(_extend_lifting_built_components, partial, n)
            given = sum(not partial[k].is_zero() for k in partial)
            shape = (type(got), len(partial) > 1, given < len(partial))
            shapes[shape] = shapes.get(shape, 0) + 1
    assert shapes.get((PullbackElement, True, True), 0) > 5  # several charts, a zero among them
    assert shapes.get((PullbackElement, False, False), 0) > 5  # one nonzero chart
    assert shapes.get((tuple, True, False), 0) > 0  # refused up front


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
    with pytest.raises(ValueError, match="^zero_charts must be a collection of chart indices"):
        witness_xI(5, 2)


def test_irreducibility_witness_shape():
    T, sigma = witness_TmI(0, {1}, 2)
    assert T == TensorElement.pure((("E", 0, 0), ("T", 1)))
    assert sigma == frozenset({2})
    assert not project_slots(T, sigma).is_zero()
    with pytest.raises(ValueError, match=r"^chart 1 must lie outside charts \[1\]$"):
        witness_TmI(1, {1}, 2)
    with pytest.raises(ValueError, match="^charts must be a collection of chart indices, got 5$"):
        witness_TmI(0, 5, 2)


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


def _randrange_member(rng, n, charts):
    """sample_kernel_intersection drawn through randrange and randint: a
    free chart, its tensor with the slots tracking `charts` forced to
    matrix units, and the extension."""
    free = sorted(set(range(n + 1)) - charts)
    if not free:
        return PullbackElement.zero(n)
    m0 = free[rng.randrange(len(free))]
    partial = dict.fromkeys(charts, TensorElement.zero(n))
    partial[m0] = randint_tensor_element(rng, n, compact_slots={slot_for(m0, c) for c in charts})
    return extend(partial, n)


def test_one_member_stream_draws_what_one_call_per_member_draws():
    # every chart set up to four charts, the empty and the full one too
    for n in (1, 2, 3):
        for r in range(n + 2):
            for charts in map(frozenset, itertools.combinations(range(n + 1), r)):
                name = "member-stream-%d-%s" % (n, sorted(charts))
                rng, calls, ref = rng_for(name), rng_for(name), rng_for(name)
                members = multipullback._kernel_members(rng, n, charts)
                for _ in range(4):
                    p = next(members)
                    assert p == sample_kernel_intersection(calls, n, charts)
                    assert p == _randrange_member(ref, n, charts)
                    assert rng.getstate() == calls.getstate() == ref.getstate()


@pytest.mark.parametrize(
    "n, charts, message",
    [
        (2.0, {0}, "^n must be an integer, got 2.0$"),
        (2, {-1}, "^chart index must be between 0 and 2, got -1$"),
        (2, {3}, "^chart index must be between 0 and 2, got 3$"),
        (2, {True}, "^chart index must be an integer, got True$"),
        (2, {1.0}, "^chart index must be an integer, got 1.0$"),
        (2, {"0"}, "^chart index must be an integer, got '0'$"),
        (2, 5, "^charts must be a collection of chart indices, got 5$"),
        (2, [[0]], r"^chart index must be an integer, got \[0\]$"),
        (2, [0, 0], r"^chart indices must be distinct, got \(0, 0\)$"),
    ],
)
def test_kernel_sample_reads_its_input_before_drawing(n, charts, message):
    rng = rng_for("sample-input")
    state = rng.getstate()
    with pytest.raises(ValueError, match=message):
        sample_kernel_intersection(rng, n, charts)
    assert rng.getstate() == state


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
    members = multipullback._kernel_members

    def counted(rng, n, charts):
        for p in members(rng, n, charts):
            drawn.append(frozenset(charts))
            yield p

    def counting(name):
        real = getattr(multipullback, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(multipullback, name, call)

    monkeypatch.setattr(multipullback, "_kernel_members", counted)
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
    def unit_members(rng, n, charts):
        while True:
            yield PullbackElement.unit(n)

    monkeypatch.setattr(multipullback, "_kernel_members", unit_members)
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
