"""Checks for the shift-plus-finite-rank operator algebra: single-slot
operators, the one-slot tensors TensorElement(1).

The product is computed in src through the correction identity; the tests
compare it against literal truncated-matrix arithmetic from oracles.py.
"""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    adjoint_matches_truncation,
    matrix_degree,
    product_matches_truncation,
)
from tqps.circle_hopf import I, Scalar
from tqps.tensor_gluing import (
    TensorElement,
    _mul_toeplitz_atoms,
    lift_circle,
    slot_symbol,
)
from tqps.toeplitz_core import atom_degree, atom_product

fracs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
scalars = st.builds(Scalar, fracs, fracs)
# circle functions: one-slot tensors whose slot is the circle slot
symbols = st.dictionaries(st.integers(-4, 4), scalars, max_size=3).map(
    lambda coeffs: TensorElement(1, 1, {(("u", d),): c for d, c in coeffs.items()})
)


def shift_atoms(bound):
    return st.tuples(st.just("T"), st.integers(-bound, bound))


def unit_atoms(bound):
    return st.tuples(st.just("E"), st.integers(0, bound), st.integers(0, bound))


def operator(terms):
    """The single-slot operator with the given atom -> coefficient terms."""
    return TensorElement(1, None, {(atom,): c for atom, c in terms.items()})


def terms(atoms, size):
    return st.dictionaries(atoms, scalars, max_size=size).map(operator)


compacts = terms(unit_atoms(3), 3)
elements = st.builds(TensorElement.__add__, terms(shift_atoms(4), 3), compacts)
small_elements = st.builds(
    TensorElement.__add__, terms(shift_atoms(2), 2), terms(unit_atoms(2), 2)
)

# Every atom with shift degree in [-4, 4] and matrix-unit indices in [0, 3].
ATOMS = [("T", a) for a in range(-4, 5)] + [("E", j, k) for j in range(4) for k in range(4)]


def shift(degree, coeff=1):
    return TensorElement.pure([("T", degree)], coeff=coeff)


def unit(j, k, coeff=1):
    return TensorElement.pure([("E", j, k)], coeff=coeff)


def symbol(x):
    return slot_symbol(x, 1)


def homogeneous_parts(x):
    """x split by the gauge degree of its atoms, read through atom_degree."""
    parts = {}
    for key, c in x.terms.items():
        parts.setdefault(atom_degree(key[0]), {})[key] = c
    return {d: TensorElement(1, None, piece) for d, piece in parts.items()}


def test_shift_relations():
    z = shift(1)
    one = TensorElement.one(1)
    assert z.adjoint() == shift(-1)
    assert z.adjoint() * z == one
    assert z * z.adjoint() == one - unit(0, 0)
    assert shift(2) * shift(3) == shift(5)


def test_matrix_unit_products():
    e = unit
    zero = TensorElement.zero(1)
    assert e(0, 1) * e(1, 2) == e(0, 2)
    assert e(0, 1) * e(0, 1) == zero
    z = shift(1)
    assert z * e(0, 0) == e(1, 0)
    assert e(0, 0) * z.adjoint() == e(0, 1)
    # entries pushed past the corner vanish
    assert z.adjoint() * e(0, 0) == zero
    assert e(0, 0) * z == zero


def test_every_atom_product_and_adjoint_matches_matrix_oracle():
    for a in ATOMS:
        x = TensorElement.pure([a])
        assert adjoint_matches_truncation(x, x.adjoint()), a
        for b in ATOMS:
            y = TensorElement.pure([b])
            assert product_matches_truncation(x, y, x * y), (a, b)


def test_every_atom_product_is_graded():
    # each term of a product of two atoms has the sum of their degrees:
    # the grading is multiplicative on the basis, and atom_degree agrees
    # with the diagonal each atom's truncated matrix sits on
    for a in ATOMS:
        assert atom_degree(a) == matrix_degree(a), a
        for b in ATOMS:
            for atom, _ in atom_product(a, b):
                assert atom_degree(atom) == atom_degree(a) + atom_degree(b), (a, b)


def test_cached_atom_products_are_the_signed_atom_products():
    # the tensor product reads its slots' products from the cache, as
    # int signs it never multiplies into a Scalar
    for a in ATOMS:
        for b in ATOMS:
            cached = _mul_toeplitz_atoms(a, b)
            assert set(cached) == set(atom_product(a, b)), (a, b)
            assert all(type(sign) is int and sign in (1, -1) for _, sign in cached), (a, b)
    # the circle slot reads the same cache: two circle monomials add exponents
    for m in range(-3, 4):
        for k in range(-3, 4):
            assert _mul_toeplitz_atoms(("u", m), ("u", k)) == ((("u", m + k), 1),)


def test_product_with_a_non_element_raises():
    with pytest.raises(ValueError):
        shift(1) * 3


@pytest.mark.parametrize(
    "atom", [("u", 1), ("T", 1.5), ("T", 1, 2), ("E", 0), ("X", 0), 3, (), None]
)
def test_keys_must_be_toeplitz_atoms(atom):
    with pytest.raises(ValueError):
        TensorElement(1, None, {(atom,): 1})


@settings(deadline=None)
@given(elements, elements)
def test_product_matches_matrix_oracle(x, y):
    assert product_matches_truncation(x, y, x * y)


@given(elements)
def test_adjoint_matches_matrix_oracle(x):
    assert adjoint_matches_truncation(x, x.adjoint())


@given(elements, elements, scalars)
def test_adjoint_is_an_involutive_conjugate_linear_antihomomorphism(x, y, c):
    assert (x * y).adjoint() == y.adjoint() * x.adjoint()
    assert x.adjoint().adjoint() == x
    assert (x + y.scale(c)).adjoint() == x.adjoint() + y.adjoint().scale(c.conjugate())
    assert x.scale(I).adjoint() == x.adjoint().scale(-I)


@settings(deadline=None)
@given(small_elements, small_elements, small_elements)
def test_product_is_associative_and_bilinear(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


@given(elements, elements)
def test_symbol_map_is_multiplicative(x, y):
    assert symbol(x * y) == symbol(x) * symbol(y)


@given(elements)
def test_symbol_map_intertwines_the_adjoint(x):
    # the symbol of x* is the symbol of x with each u^m sent to u^-m and its
    # coefficient conjugated: the symbol map is a *-homomorphism
    star = {(("u", -m),): c.conjugate() for ((_, m),), c in symbol(x).terms.items()}
    assert symbol(x.adjoint()) == TensorElement(1, 1, star)


@given(symbols)
def test_lift_sections_the_symbol_map(f):
    x = lift_circle(f)
    assert slot_symbol(x, 1) == f
    assert all(atom[0] == "T" for (atom,) in x.terms)


def test_lift_is_not_multiplicative():
    u = TensorElement.pure([("u", 1)], 1)
    u_inv = TensorElement.pure([("u", -1)], 1)
    lifted = lift_circle(u) * lift_circle(u_inv)
    assert lifted != lift_circle(u * u_inv)
    # T(u) T(u^-1) = 1 - E_00
    assert lifted == TensorElement.one(1) - unit(0, 0)
    assert slot_symbol(lifted, 1) == u * u_inv


@given(elements, compacts)
def test_compacts_form_an_ideal(x, k):
    assert symbol(x * k).is_zero()
    assert symbol(k * x).is_zero()


@given(elements)
def test_homogeneous_parts_partition_by_degree(x):
    # each piece holds the atoms whose truncated matrices sit on its
    # diagonal, and the pieces sum to x
    total = TensorElement.zero(1)
    for d, piece in homogeneous_parts(x).items():
        assert all(matrix_degree(atom) == d for (atom,) in piece.terms)
        total = total + piece
    assert total == x


@given(small_elements, small_elements)
def test_grading_is_multiplicative(x, y):
    expected = {}
    for a, px in homogeneous_parts(x).items():
        for b, py in homogeneous_parts(y).items():
            d = a + b
            expected[d] = expected.get(d, TensorElement.zero(1)) + px * py
    expected = {d: p for d, p in expected.items() if not p.is_zero()}
    assert homogeneous_parts(x * y) == expected


@given(compacts)
def test_coaction_restricts_to_compacts(k):
    for piece in homogeneous_parts(k).values():
        assert symbol(piece).is_zero()


def test_render():
    # terms read in key order: matrix units before shifts
    x = shift(-1) + unit(0, 2, Scalar(0, 1))
    assert x.render() == "i*E[0,2] + T(u^-1)"
    assert TensorElement.zero(1).render() == "0"
    assert TensorElement.one(1).render() == "T(1)"
    y = shift(1) - unit(1, 0, Scalar(2, 1))
    assert y.render() == "(-2-i)*E[1,0] + T(u)"
    assert (-shift(1)).render() == "-T(u)"

