"""Checks for the shift-plus-finite-rank operator algebra.

The product is computed in src through the correction identity; the tests
compare it against literal truncated-matrix arithmetic from oracles.py.
"""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    adjoint_matches_truncation,
    product_matches_truncation,
)
from tqps.circle_hopf import Scalar
from tqps.tensor_gluing import (
    TensorElement,
    _mul_toeplitz_atoms,
    embed_toeplitz,
    lift_circle,
    slot_symbol,
)
from tqps.toeplitz_core import ToeplitzElement, atom_product

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


def terms(atoms, size):
    return st.dictionaries(atoms, scalars, max_size=size).map(ToeplitzElement)


compacts = terms(unit_atoms(3), 3)
elements = st.builds(ToeplitzElement.__add__, terms(shift_atoms(4), 3), compacts)
small_elements = st.builds(
    ToeplitzElement.__add__, terms(shift_atoms(2), 2), terms(unit_atoms(2), 2)
)

# Every atom with shift degree in [-4, 4] and matrix-unit indices in [0, 3].
ATOMS = [("T", a) for a in range(-4, 5)] + [("E", j, k) for j in range(4) for k in range(4)]


def symbol(x):
    """The symbol of a ToeplitzElement: slot_symbol of it as a one-slot tensor."""
    return slot_symbol(embed_toeplitz([x]), 1)


def test_shift_relations():
    z = ToeplitzElement.z()
    z_star = ToeplitzElement.z_star()
    assert z_star * z == ToeplitzElement.one()
    assert z * z_star == ToeplitzElement.one() - ToeplitzElement.matrix_unit(0, 0)
    assert ToeplitzElement.shift(2) * ToeplitzElement.shift(3) == ToeplitzElement.shift(5)


def test_matrix_unit_products():
    e = ToeplitzElement.matrix_unit
    assert e(0, 1) * e(1, 2) == e(0, 2)
    assert e(0, 1) * e(0, 1) == ToeplitzElement.zero()
    z = ToeplitzElement.z()
    assert z * e(0, 0) == e(1, 0)
    assert e(0, 0) * z.adjoint() == e(0, 1)
    # entries pushed past the corner vanish
    assert z.adjoint() * e(0, 0) == ToeplitzElement.zero()
    assert e(0, 0) * z == ToeplitzElement.zero()


def test_every_atom_product_and_adjoint_matches_matrix_oracle():
    for a in ATOMS:
        x = ToeplitzElement({a: 1})
        assert adjoint_matches_truncation(x, x.adjoint()), a
        for b in ATOMS:
            y = ToeplitzElement({b: 1})
            assert product_matches_truncation(x, y, x * y), (a, b)


def test_cached_atom_products_are_the_signed_atom_products():
    # the tensor product reads its slots' products from the cache, as
    # int signs it never multiplies into a Scalar
    for a in ATOMS:
        for b in ATOMS:
            cached = _mul_toeplitz_atoms(a, b)
            assert set(cached) == set(atom_product(a, b)), (a, b)
            assert all(type(sign) is int and sign in (1, -1) for _, sign in cached), (a, b)


def test_product_with_a_non_element_raises():
    with pytest.raises(ValueError):
        ToeplitzElement.z() * 3


@pytest.mark.parametrize(
    "atom", [("u", 1), ("T", 1.5), ("T", 1, 2), ("E", 0), ("X", 0), 3, (), None]
)
def test_keys_must_be_toeplitz_atoms(atom):
    with pytest.raises(ValueError):
        ToeplitzElement({atom: 1})


@settings(deadline=None)
@given(elements, elements)
def test_product_matches_matrix_oracle(x, y):
    assert product_matches_truncation(x, y, x * y)


@given(elements)
def test_adjoint_matches_matrix_oracle(x):
    assert adjoint_matches_truncation(x, x.adjoint())


@given(elements, elements)
def test_adjoint_is_an_antihomomorphism(x, y):
    assert (x * y).adjoint() == y.adjoint() * x.adjoint()
    assert x.adjoint().adjoint() == x


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
    assert lifted == embed_toeplitz([ToeplitzElement.one() - ToeplitzElement.matrix_unit(0, 0)])
    assert slot_symbol(lifted, 1) == u * u_inv


@given(elements, compacts)
def test_compacts_form_an_ideal(x, k):
    assert symbol(x * k).is_zero()
    assert symbol(k * x).is_zero()


@given(elements)
def test_atoms_reconstruct_the_element(x):
    total = ToeplitzElement.zero()
    for atom, c in x.atoms():
        if atom[0] == "T":
            total = total + ToeplitzElement.shift(atom[1], c)
        else:
            total = total + ToeplitzElement.matrix_unit(atom[1], atom[2], c)
    assert total == x


@given(elements)
def test_homogeneous_parts_partition_by_degree(x):
    parts = x.homogeneous_parts()
    total = ToeplitzElement.zero()
    for d, piece in parts.items():
        for atom, _ in piece.atoms():
            deg = atom[1] if atom[0] == "T" else atom[1] - atom[2]
            assert deg == d
        total = total + piece
    assert total == x


@given(small_elements, small_elements)
def test_grading_is_multiplicative(x, y):
    parts_x = x.homogeneous_parts()
    parts_y = y.homogeneous_parts()
    expected = {}
    for a, px in parts_x.items():
        for b, py in parts_y.items():
            d = a + b
            expected[d] = expected.get(d, ToeplitzElement.zero()) + px * py
    expected = {d: p for d, p in expected.items() if not p.is_zero()}
    assert (x * y).homogeneous_parts() == expected


@given(compacts)
def test_coaction_restricts_to_compacts(k):
    for piece in k.homogeneous_parts().values():
        assert symbol(piece).is_zero()


def test_render():
    x = ToeplitzElement.shift(-1) + ToeplitzElement.matrix_unit(0, 2, Scalar(0, 1))
    assert x.render() == "T(u^-1) + i*E[0,2]"
    assert ToeplitzElement.zero().render() == "0"
    assert ToeplitzElement.one().render() == "T(1)"
    y = ToeplitzElement.z() - ToeplitzElement.matrix_unit(1, 0, Scalar(2, 1))
    assert y.render() == "T(u) + (-2-i)*E[1,0]"
    assert (-ToeplitzElement.z()).render() == "-T(u)"

