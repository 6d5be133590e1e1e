"""Exact-arithmetic checks for the circle Hopf algebra layer."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tqps.circle_hopf import (
    I,
    ONE,
    ZERO,
    CirclePoly,
    CircleTensor,
    Scalar,
)

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=8)
scalars = st.builds(Scalar, fracs, fracs)
nonzero_scalars = scalars.filter(bool)
polys = st.dictionaries(st.integers(-5, 5), scalars, max_size=4).map(CirclePoly)


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


def test_scalar_hash_agrees_with_eq():
    assert len({Scalar(1), 1, Fraction(1)}) == 1
    assert len({Scalar(Fraction(1, 2)), Fraction(1, 2)}) == 1


def test_scalar_render():
    assert Scalar(1).render() == "1"
    assert Scalar(0, 1).render() == "i"
    assert Scalar(0, -1).render() == "-i"
    assert Scalar(Fraction(3, 2), -1).render() == "3/2-i"
    assert Scalar(1, 2).render() == "1+2i"


@given(scalars)
def test_scalar_json_roundtrip(a):
    assert Scalar.from_json(a.to_json()) == a


@given(polys, polys, polys)
def test_poly_ring_axioms(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f * CirclePoly.one() == f


@given(polys, polys)
def test_poly_product_degreewise(f, g):
    prod = f * g
    for d in prod.degrees():
        total = ZERO
        for d1 in f.degrees():
            total = total + f.coeff(d1) * g.coeff(d - d1)
        assert prod.coeff(d) == total


@given(polys)
def test_antipode_involution(f):
    assert f.antipode().antipode() == f


@given(polys, polys)
def test_antipode_and_star_are_multiplicative(f, g):
    assert (f * g).antipode() == f.antipode() * g.antipode()
    assert (f * g).star() == g.star() * f.star()
    assert f.star().star() == f


@given(polys, polys)
def test_counit_is_an_algebra_map(f, g):
    assert (f * g).counit() == f.counit() * g.counit()
    assert CirclePoly.one().counit() == ONE


@given(polys)
def test_counit_axiom(f):
    # applying the counit to either leg of the coproduct returns the input
    assert f.comul().counit_leg(0) == f
    assert f.comul().counit_leg(1) == f


@given(polys)
def test_antipode_axiom(f):
    # m(S (x) id)Delta = counit * unit, and the same with the other leg
    expected = CirclePoly.one().scale(f.counit())
    assert f.comul().apply_antipode(0).multiply_legs() == expected
    assert f.comul().apply_antipode(1).multiply_legs() == expected


@given(polys, polys)
def test_comul_is_an_algebra_map(f, g):
    assert (f * g).comul() == f.comul() * g.comul()


def test_monomials_are_grouplike():
    u5 = CirclePoly.monomial(5)
    assert u5.comul() == CircleTensor({(5, 5): ONE})
    assert u5.antipode() == CirclePoly.monomial(-5)
    assert u5.counit() == ONE


def test_star_conjugates_coefficients():
    f = CirclePoly({2: Scalar(1, 3)})
    assert f.star() == CirclePoly({-2: Scalar(1, -3)})


@given(polys)
def test_poly_json_roundtrip(f):
    assert CirclePoly.from_json(f.to_json()) == f


def test_poly_render():
    f = CirclePoly({-2: Scalar(3), 5: Scalar(1, 2), 0: Scalar(-1)})
    assert f.render() == "3*u^-2 + -1 + (1+2i)*u^5"
    assert CirclePoly.zero().render() == "0"
    assert CirclePoly.monomial(1).render() == "u"
    assert CirclePoly.monomial(3, -1).render() == "-u^3"


def test_tensor_leg_operations():
    t = CircleTensor({(2, 3): ONE, (-1, 0): I})
    assert t.multiply_legs() == CirclePoly({5: ONE, -1: I})
    assert t.apply_antipode(0) == CircleTensor({(-2, 3): ONE, (1, 0): I})
    with pytest.raises(ValueError):
        t.apply_antipode(2)
    with pytest.raises(ValueError):
        t.counit_leg(-1)
