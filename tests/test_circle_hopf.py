"""Exact-arithmetic checks for the scalar and term-map layer, and for the
circle algebra as one-slot tensors whose slot is the circle slot."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tqps.circle_hopf import (
    I,
    ONE,
    ZERO,
    Scalar,
    collect,
)
from tqps.multipullback import PullbackElement
from tqps.tensor_gluing import TensorElement, lift_circle, psi, slot_symbol

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=8)
scalars = st.builds(Scalar, fracs, fracs)
nonzero_scalars = scalars.filter(bool)
# circle functions: sums of monomials ("u", m) in a one-slot circle tensor
polys = st.dictionaries(st.integers(-5, 5), scalars, max_size=4).map(
    lambda coeffs: TensorElement(1, 1, {(("u", d),): c for d, c in coeffs.items()})
)


def _coeff(f, degree):
    return f.terms.get((("u", degree),), ZERO)


def _monomial(degree, coeff=1):
    return TensorElement.pure([("u", degree)], 1, coeff)


def _counit(f):
    # evaluation at u = 1: the sum of the coefficients
    return sum(f.terms.values(), ZERO)


def _star(f):
    # f* read through the Toeplitz adjoint: f lifts to shifts only, so the
    # symbol of the adjoint of its lift is f*
    return slot_symbol(lift_circle(f).adjoint(), 1)


@given(scalars, scalars, scalars)
def test_scalar_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(scalars, nonzero_scalars)
def test_scalar_division_inverts_multiplication(a, b):
    assert (a / b) * b == a


@given(scalars, scalars)
def test_scalar_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


def test_scalar_basics():
    assert I * I == Scalar(-1)
    assert ONE + ZERO == ONE
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    assert Scalar(Fraction(1, 3)) + Scalar(Fraction(1, 6)) == Scalar(Fraction(1, 2))


def test_scalar_arithmetic_on_gaussian_integers_stays_int():
    a, b = Scalar(3, -2), Scalar(-1, 4)
    for s in (a + b, a - b, a * b, -a, a.conjugate()):
        assert type(s.re) is int and type(s.im) is int
    assert Scalar(1) / Scalar(2) == Scalar(Fraction(1, 2))
    q = Scalar(1, 1) / Scalar(0, 2)
    assert isinstance(q.re, Fraction) and isinstance(q.im, Fraction)
    assert q == Scalar(Fraction(1, 2), Fraction(-1, 2))
    assert Scalar(0.5).re == Fraction(1, 2)
    assert type(Scalar(True).re) is Fraction


@given(scalars, scalars)
def test_scalar_results_keep_exact_components(a, b):
    for s in (a + b, a - b, a * b, -a, a.conjugate(), 2 + a, a * 3, 1 - a):
        assert type(s.re) in (int, Fraction) and type(s.im) in (int, Fraction)
    if b:
        q = a / b
        assert type(q.re) is Fraction and type(q.im) is Fraction


def test_reflected_subtraction_and_division():
    assert 1 - Scalar(2) == Scalar(-1)
    assert Fraction(1, 2) - Scalar(0, 1) == Scalar(Fraction(1, 2), -1)
    assert 1 / Scalar(2) == Scalar(Fraction(1, 2))
    assert 1 / Scalar(0, 1) == Scalar(0, -1)
    assert 1 + Scalar(2) == Scalar(3) and 2 * Scalar(1) == Scalar(2)
    with pytest.raises(ZeroDivisionError):
        1 / ZERO
    # and with the plain number on the right
    assert Scalar(3) - 1 == Scalar(2)
    assert Scalar(3) / 2 == Scalar(Fraction(3, 2))


def test_scalar_hash_agrees_with_eq():
    assert len({Scalar(1), 1, Fraction(1)}) == 1
    assert len({Scalar(Fraction(1, 2)), Fraction(1, 2)}) == 1
    # a value off the real line hashes by both parts
    assert hash(Scalar(Fraction(2, 2), 3)) == hash(Scalar(1, 3))
    assert len({Scalar(1, 3), Scalar(Fraction(2, 2), Fraction(6, 2)), Scalar(3, 1)}) == 2


def test_a_scalar_equals_no_value_that_is_not_a_number():
    # __eq__ gives the other side its turn, which finds no match either
    assert Scalar(1).__eq__("1") is NotImplemented
    assert Scalar(1) != "1" and "1" != Scalar(1)


def test_a_tensor_or_member_equals_no_value_of_another_type():
    x, p = TensorElement.one(1), PullbackElement.unit(1)
    assert x.__eq__(1) is NotImplemented and x != 1
    assert p.__eq__(x) is NotImplemented and p != x and x != p


def test_scalar_render():
    assert Scalar(1).render() == "1"
    assert Scalar(0, 1).render() == "i"
    assert Scalar(0, -1).render() == "-i"
    assert Scalar(Fraction(3, 2), -1).render() == "3/2-i"
    assert Scalar(1, 2).render() == "1+2i"
    assert Scalar(0, -2).render() == "-2i"
    assert Scalar(0, Fraction(4, 2)).render() == "2i"
    # a fractional imaginary part reads as a coefficient of i, never as 1/(2i)
    assert Scalar(0, Fraction(1, 2)).render() == "(1/2)i"
    assert Scalar(0, Fraction(-1, 2)).render() == "-(1/2)i"
    assert Scalar(1, Fraction(-1, 2)).render() == "1-(1/2)i"
    assert Scalar(Fraction(1, 3), Fraction(3, 2)).render() == "1/3+(3/2)i"


@pytest.mark.parametrize("value", [None, 1j, [1], float("inf"), float("-inf"), float("nan")])
def test_a_coefficient_that_is_not_a_number_is_refused_by_name(value):
    entries = [
        lambda: Scalar(value),
        lambda: Scalar(1, value),
        lambda: Scalar.coerce(value),
        lambda: TensorElement.pure([("T", 1)], coeff=value),
        lambda: TensorElement.one(2, 1).scale(value),
        lambda: PullbackElement.unit(2).scale(value),
    ]
    for entry in entries:
        with pytest.raises(ValueError, match="^not an exact scalar component: "):
            entry()


def test_floats_bools_and_numeric_strings_keep_their_reading():
    assert Scalar(0.5, -0.25) == Scalar(Fraction(1, 2), Fraction(-1, 4))
    assert Scalar(True, False) == Scalar(1, 0)
    assert Scalar("1/3", "-2") == Scalar(Fraction(1, 3), -2)


@given(polys, polys, polys)
def test_poly_ring_axioms(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f * TensorElement.one(1, 1) == f


@given(polys, polys)
def test_poly_product_degreewise(f, g):
    prod = f * g
    for ((_, d),) in prod.terms:
        total = ZERO
        for ((_, d1),) in f.terms:
            total = total + _coeff(f, d1) * _coeff(g, d - d1)
        assert _coeff(prod, d) == total


# On a one-slot circle tensor psi reflects each exponent, u^m -> u^-m: the
# circle antipode.


@given(polys)
def test_antipode_involution(f):
    assert psi(psi(f)) == f


@given(polys, polys)
def test_antipode_and_star_are_multiplicative(f, g):
    assert psi(f * g) == psi(f) * psi(g)
    assert _star(f * g) == _star(g) * _star(f)
    assert _star(_star(f)) == f
    # the adjoint of the circle slot itself is the same star
    assert f.adjoint() == _star(f)


@given(polys, polys)
def test_counit_is_an_algebra_map(f, g):
    assert _counit(f * g) == _counit(f) * _counit(g)
    assert _counit(TensorElement.one(1, 1)) == ONE


def _monomials(f):
    # the coproduct sends c u^n to c u^n (x) u^n, so each Hopf axiom can be
    # read off monomial by monomial
    return [(_monomial(d, c), _monomial(d)) for ((_, d),), c in f.terms.items()]


@given(polys)
def test_counit_axiom(f):
    # applying the counit to either leg of the coproduct returns the input
    legs = _monomials(f)
    zero = TensorElement.zero(1, 1)
    assert sum((right.scale(_counit(left)) for left, right in legs), zero) == f
    assert sum((left.scale(_counit(right)) for left, right in legs), zero) == f


@given(polys)
def test_antipode_axiom(f):
    # m(S (x) id)Delta = counit * unit, and the same with the other leg
    expected = TensorElement.one(1, 1).scale(_counit(f))
    legs = _monomials(f)
    zero = TensorElement.zero(1, 1)
    assert sum((psi(left) * right for left, right in legs), zero) == expected
    assert sum((left * psi(right) for left, right in legs), zero) == expected


def test_monomials_are_grouplike():
    u5 = _monomial(5)
    assert psi(u5) == _monomial(-5)
    assert _counit(u5) == ONE
    assert u5 * psi(u5) == TensorElement.one(1, 1)


def test_star_conjugates_coefficients():
    assert _star(_monomial(2, Scalar(1, 3))) == _monomial(-2, Scalar(1, -3))


def test_poly_render():
    f = TensorElement(1, 1, {(("u", -2),): 3, (("u", 5),): Scalar(1, 2), (("u", 0),): -1})
    assert f.render() == "3*u^-2 + -1 + (1+2i)*u^5"
    assert TensorElement.zero(1, 1).render() == "0"
    assert TensorElement.pure([("u", 1)], 1).render() == "u"
    assert TensorElement.pure([("u", 3)], 1, -1).render() == "-u^3"


def test_collect_sums_repeated_keys_and_drops_zeros():
    assert collect([("a", ONE), ("b", I), ("a", ONE), ("c", ZERO)]) == {"a": Scalar(2), "b": I}
    assert collect([("a", I), ("a", -I)]) == {}


# (constructor from a term map, two distinct keys, an element of another
# shape)
TERM_MAPS = [
    pytest.param(
        lambda terms: TensorElement(1, 1, terms),
        (("u", 2),),
        (("u", -1),),
        TensorElement(1),
        id="circle",
    ),
    pytest.param(
        lambda terms: TensorElement(1, None, terms),
        (("E", 0, 1),),
        (("T", -2),),
        TensorElement(1, 1),
        id="operator",
    ),
    pytest.param(
        lambda terms: TensorElement(2, 2, terms),
        (("T", 1), ("u", 0)),
        (("E", 0, 1), ("u", 3)),
        TensorElement(2, 1),
        id="TensorElement",
    ),
]


@pytest.mark.parametrize("key", [1.5, 0.5, True, "1"])
def test_circle_poly_rejects_non_integral_degrees(key):
    with pytest.raises(ValueError):
        TensorElement(1, 1, {(("u", key),): 1})


@pytest.mark.parametrize(
    "scalar, row",
    [
        (Scalar(0), [0, 1, 0, 1]),
        (Scalar(Fraction(2, 4), -3), [1, 2, -3, 1]),
        (Scalar(Fraction(-6, 4), Fraction(5, 10)), [-3, 2, 1, 2]),
        (Scalar(1.5, -0.25), [3, 2, -1, 4]),
        (Scalar("1/3", "-2"), [1, 3, -2, 1]),
        (Scalar(True, False), [1, 1, 0, 1]),
        (Scalar(2, 1) * Scalar(2, -1), [5, 1, 0, 1]),
    ],
)
def test_scalar_json_rows_are_four_integers_in_lowest_terms(scalar, row):
    # the row every JSON report writes for a coefficient: numerator and
    # positive denominator of the real part, then of the imaginary part
    assert scalar.to_json() == row
    assert all(type(v) is int for v in scalar.to_json())
    assert json.loads(json.dumps(scalar.to_json())) == row


def test_circle_tensor_json_writes_int_degrees_in_order():
    f = TensorElement(1, 1, {(("u", 10),): Scalar(1, 2), (("u", -3),): 2, (("u", 0),): 1})
    assert f.to_json() == {
        "n_slots": 1,
        "circle_slot": 1,
        "terms": [
            {"atoms": [["u", -3]], "coeff": [2, 1, 0, 1]},
            {"atoms": [["u", 0]], "coeff": [1, 1, 0, 1]},
            {"atoms": [["u", 10]], "coeff": [1, 1, 2, 1]},
        ],
    }


@pytest.mark.parametrize("key", [(0.5, 1), (1, 2.5), (True, 0), (-1, 0)])
def test_compact_part_rejects_bad_indices(key):
    # the finite-rank part of a single-slot operator: its matrix-unit atoms
    with pytest.raises(ValueError):
        TensorElement(1, None, {(("E",) + key,): 1})


@pytest.mark.parametrize("make, a, b, other", TERM_MAPS)
def test_term_maps_are_canonical(make, a, b, other):
    x = make({a: Scalar(1, 2), b: 3})
    assert x + x == make({a: Scalar(2, 4), b: 6}) == x.scale(2)
    assert (x + make({b: -3})).terms == {a: Scalar(1, 2)}
    assert (x - x).is_zero() and x.scale(0).is_zero() and make({a: 0}).is_zero()
    assert -(-x) == x
    y = make({b: Scalar(3), a: Scalar(1, 2)})
    assert x == y and x != x + x
    with pytest.raises(TypeError):
        hash(x)
    with pytest.raises(ValueError):
        x + other
    for foreign in (other, 3):
        with pytest.raises(ValueError):
            x * foreign
