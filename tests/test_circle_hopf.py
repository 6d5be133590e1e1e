"""Exact-arithmetic checks for the circle Hopf algebra layer."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tqps.circle_hopf import (
    I,
    ONE,
    ZERO,
    CirclePoly,
    Scalar,
    collect,
)
from tqps.tensor_gluing import TensorElement
from tqps.toeplitz_core import ToeplitzElement

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


def _monomials(f):
    # the coproduct sends c u^n to c u^n (x) u^n, so each Hopf axiom can be
    # read off monomial by monomial
    return [(CirclePoly.monomial(d, c), CirclePoly.monomial(d)) for d, c in f.terms.items()]


@given(polys)
def test_counit_axiom(f):
    # applying the counit to either leg of the coproduct returns the input
    legs = _monomials(f)
    assert sum((right.scale(left.counit()) for left, right in legs), CirclePoly()) == f
    assert sum((left.scale(right.counit()) for left, right in legs), CirclePoly()) == f


@given(polys)
def test_antipode_axiom(f):
    # m(S (x) id)Delta = counit * unit, and the same with the other leg
    expected = CirclePoly.one().scale(f.counit())
    legs = _monomials(f)
    assert sum((left.antipode() * right for left, right in legs), CirclePoly()) == expected
    assert sum((left * right.antipode() for left, right in legs), CirclePoly()) == expected


def test_monomials_are_grouplike():
    u5 = CirclePoly.monomial(5)
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


def test_collect_sums_repeated_keys_and_drops_zeros():
    assert collect([("a", ONE), ("b", I), ("a", ONE), ("c", ZERO)]) == {"a": Scalar(2), "b": I}
    assert collect([("a", I), ("a", -I)]) == {}


# (constructor from a term map, two distinct keys, an element of another type
# or shape, whether the class is hashable)
TERM_MAPS = [
    pytest.param(CirclePoly, 2, -1, ToeplitzElement(), True, id="CirclePoly"),
    pytest.param(
        ToeplitzElement, ("E", 0, 1), ("T", -2), CirclePoly(), True, id="ToeplitzElement"
    ),
    pytest.param(
        lambda terms: TensorElement(2, 2, terms),
        (("T", 1), ("u", 0)),
        (("E", 0, 1), ("u", 3)),
        TensorElement(2, 1),
        False,
        id="TensorElement",
    ),
]


@pytest.mark.parametrize("key", [1.5, 0.5, True, "1"])
def test_circle_poly_rejects_non_integral_degrees(key):
    with pytest.raises(ValueError):
        CirclePoly({key: 1})


@pytest.mark.parametrize(
    "row", [[1, 0, 0, 1], [1, 1, 0, 0], [1, 1, 0], [1.5, 1, 0, 1], [1, True, 0, 1], 3]
)
def test_scalar_json_rows_must_be_four_integers(row):
    with pytest.raises(ValueError):
        Scalar.from_json(row)
    with pytest.raises(ValueError):
        CirclePoly.from_json({"0": row})


@pytest.mark.parametrize("data", [[1], [], "u", None])
def test_circle_poly_json_must_be_an_object(data):
    with pytest.raises(ValueError):
        CirclePoly.from_json(data)


@pytest.mark.parametrize(
    "keys",
    [
        ["1", "01"],  # int() reads both as degree 1, so one term was dropped
        ["1_0"],  # int() reads degree 10
        [" 2 "],
        ["+1"],
        ["-0"],
        [""],
        ["2.0"],
        ["\u0663"],  # an Arabic-Indic 3
    ],
)
def test_circle_poly_json_keys_are_the_degrees_to_json_writes(keys):
    with pytest.raises(ValueError, match="degree key"):
        CirclePoly.from_json({key: [1, 1, 0, 1] for key in keys})
    poly = CirclePoly({-3: 2, 0: 1, 10: Scalar(1, 2)})
    assert CirclePoly.from_json(poly.to_json()) == poly


@pytest.mark.parametrize("key", [(0.5, 1), (1, 2.5), (True, 0), (-1, 0)])
def test_compact_part_rejects_bad_indices(key):
    # the finite-rank part of a ToeplitzElement: its matrix-unit atoms
    with pytest.raises(ValueError):
        ToeplitzElement({("E",) + key: 1})


@pytest.mark.parametrize("make, a, b, other, hashable", TERM_MAPS)
def test_term_maps_are_canonical(make, a, b, other, hashable):
    x = make({a: Scalar(1, 2), b: 3})
    assert x + x == make({a: Scalar(2, 4), b: 6}) == x.scale(2)
    assert (x + make({b: -3})).terms == {a: Scalar(1, 2)}
    assert (x - x).is_zero() and x.scale(0).is_zero() and make({a: 0}).is_zero()
    assert -(-x) == x
    y = make({b: Scalar(3), a: Scalar(1, 2)})
    assert x == y and x != x + x
    if hashable:
        assert hash(x) == hash(y)
    else:
        with pytest.raises(TypeError):
            hash(x)
    with pytest.raises(ValueError):
        x + other
    for foreign in (other, 3):
        with pytest.raises(ValueError):
            x * foreign
