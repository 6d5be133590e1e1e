"""Checks for tensor slots and the gluing maps."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod

import pytest

import mutants
from oracles import matrix_degree, slotwise_product, stepwise_glue, stepwise_psi, stepwise_psi_ij
from tqps import classical_cpn, multipullback, order_lattice, tensor_gluing
from tqps.circle_hopf import I, Scalar, collect
from tqps.classical_cpn import classical_freeness, transition_agreement
from tqps.multipullback import PullbackElement, extend, verify_freeness, witness_TmI, witness_xI
from tqps.order_lattice import (
    antichain_count,
    check_freeness_criterion,
    fdl_enumerate,
    freeness_by_types,
)
from tqps.sampling import DEFAULT_SEED
from tqps.tensor_gluing import (
    TensorElement,
    atom_degree,
    chi,
    chi_inv,
    cocycle_check,
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
from tqps.util import derived_rng


def rng_for(name):
    return derived_rng(DEFAULT_SEED, "test-gluing", name)


def canonical(y):
    """y, after checking that rebuilding it through the validating
    constructor changes nothing."""
    assert y == TensorElement(y.n_slots, y.circle_slot, y.terms)
    return y


def pure_tensor(factors, circle_slot=None):
    """The tensor product of one-slot tensors, one per slot, its terms
    distributed: the factor at circle_slot is a circle function."""
    combos = [((), Scalar(1))]
    for f in factors:
        combos = [(row + key, c * fc) for row, c in combos for key, fc in f.terms.items()]
    return TensorElement(len(factors), circle_slot, collect(combos))


def test_atom_degree():
    assert atom_degree(("T", 3)) == 3
    assert atom_degree(("E", 4, 1)) == 3
    assert atom_degree(("u", -2)) == -2
    # the degree is the diagonal each atom's truncated matrix sits on
    for a in range(-3, 4):
        assert atom_degree(("T", a)) == matrix_degree(("T", a))
    for j, k in product(range(4), repeat=2):
        assert atom_degree(("E", j, k)) == matrix_degree(("E", j, k))


def test_pure_tensors_multiply_slotwise():
    rng = rng_for("pure-tensor")
    for _ in range(40):
        xs = [random_tensor_element(rng, 1, max_terms=2) for _ in range(2)]
        ys = [random_tensor_element(rng, 1, max_terms=2) for _ in range(2)]
        left = pure_tensor(xs) * pure_tensor(ys)
        right = pure_tensor([x * y for x, y in zip(xs, ys)])
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


def position_tested_product(x, y):
    """Term map of x * y through a slot loop that tests each slot's position
    and adds the circle slot's exponents in line, reading only the Toeplitz
    slots from the atom product cache."""
    circle_index = None if x.circle_slot is None else x.circle_slot - 1
    pairs = []
    for t1, c1 in x.terms.items():
        for t2, c2 in y.terms.items():
            slots = []
            for s, (a, b) in enumerate(zip(t1, t2)):
                if s == circle_index:
                    slots.append(((("u", a[1] + b[1]), 1),))
                else:
                    slot_terms = tensor_gluing._mul_toeplitz_atoms(a, b)
                    if not slot_terms:
                        break
                    slots.append(slot_terms)
            else:
                c = c1 * c2
                for combo in product(*slots):
                    atoms, signs = zip(*combo)
                    pairs.append((atoms, c if prod(signs) > 0 else -c))
    return collect(pairs)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_reads_the_circle_slot_through_the_atom_cache(n):
    # one rule for every slot gives the terms of the position-tested loop,
    # in the same order, with no circle slot and with it at each position
    rng = rng_for("one-rule-%d" % n)
    for circle_slot in (None, *range(1, n + 1)):
        for _ in range(10):
            x = random_tensor_element(rng, n, circle_slot=circle_slot, max_terms=6)
            y = random_tensor_element(rng, n, circle_slot=circle_slot, max_terms=6)
            terms, expected = (x * y).terms, position_tested_product(x, y)
            assert terms == expected
            assert list(terms) == list(expected)


@pytest.mark.parametrize("circle_slot", CIRCLE_SLOTS)
def test_adjoint_is_an_involutive_conjugate_linear_antihomomorphism(circle_slot):
    # three slots, with and without a circle slot; the coefficients have
    # imaginary parts, so a dropped conjugation shows
    rng = rng_for("adjoint-%s" % circle_slot)
    for _ in range(15):
        x = random_tensor_element(rng, 3, circle_slot=circle_slot, max_terms=4)
        y = random_tensor_element(rng, 3, circle_slot=circle_slot, max_terms=4)
        assert (x * y).adjoint() == y.adjoint() * x.adjoint()
        assert (x + y).adjoint() == x.adjoint() + y.adjoint()
        assert x.scale(I).adjoint() == x.adjoint().scale(-I)
        assert x.adjoint().adjoint() == x


@pytest.mark.parametrize("circle_slot", CIRCLE_SLOTS)
def test_adjoint_acts_slot_by_slot(circle_slot):
    # the adjoint of a pure tensor is the tensor of its factors' adjoints,
    # each of which the truncated-matrix oracle checks on one slot
    rng = rng_for("adjoint-slotwise-%s" % circle_slot)
    for _ in range(10):
        factors = [
            random_tensor_element(rng, 1, 1 if pos == circle_slot else None) for pos in (1, 2, 3)
        ]
        x = pure_tensor(factors, circle_slot)
        assert x.adjoint() == pure_tensor([f.adjoint() for f in factors], circle_slot)


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
        canonical(x.adjoint())
        k = int(rng.randint(1, n))
        w = canonical(slot_symbol(x, k))
        canonical(lift_circle(w))
        t = random_tensor_element(rng, n, circle_slot=n, max_terms=4)
        canonical(psi(t))
        canonical(t.adjoint())
        j = int(rng.randint(1, n))
        canonical(chi_inv(canonical(chi(t, j)), j))
        i = int(rng.randint(0, n - 1))
        c = random_tensor_element(rng, n, circle_slot=i + 1, max_terms=4)
        canonical(psi_ij_inv(canonical(psi_ij(c, i, n)), i, n))
        canonical(c.adjoint())
        for src, dst in permutations(range(n + 1), 2):
            canonical(glue(x, src, dst))


class Aff:
    """Integer affine form const + sum(coef * var): a degree carried
    symbolically.  It adds, subtracts, negates and hashes, equals only
    another form, and has no order and no truth value, so a map that
    branched on a degree value would raise TypeError on it."""

    __slots__ = ("const", "coefs")

    def __init__(self, const=0, coefs=()):
        self.const = const
        self.coefs = tuple(sorted((v, c) for v, c in dict(coefs).items() if c))

    def _plus(self, other, sign):
        if type(other) is not Aff:
            return NotImplemented
        coefs = dict(self.coefs)
        for v, c in other.coefs:
            coefs[v] = coefs.get(v, 0) + sign * c
        return Aff(self.const + sign * other.const, coefs)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return Aff(-self.const, {v: -c for v, c in self.coefs})

    def __eq__(self, other):
        if type(other) is not Aff:
            raise TypeError("an affine form compares only with another")
        return self.const == other.const and self.coefs == other.coefs

    def __hash__(self):
        return hash((self.const, self.coefs))

    def _unordered(self, other):
        raise TypeError("affine forms have no order")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __bool__(self):
        raise TypeError("an affine form has no truth value")


def test_circle_monomials_multiply_on_kind_only():
    # symbolic exponents add: the circle rule never reads an exponent's value
    a, b = Aff(1, {"a": 1}), Aff(-2, {"b": 3})
    x = TensorElement._trusted({(("u", a),): Scalar(2)}, (1, 1))
    y = TensorElement._trusted({(("u", b),): I}, (1, 1))
    assert (x * y).terms == {(("u", a + b),): Scalar(0, 2)}


def symbolic_tensor(n, circle_slot=None):
    """Tensor of shape (n, circle_slot) with one term per kind pattern of its
    Toeplitz slots, each degree and index a variable of its own."""
    toeplitz = [s for s in range(1, n + 1) if s != circle_slot]
    terms = {}
    for t, kinds in enumerate(product("TE", repeat=len(toeplitz))):
        kind_at = dict(zip(toeplitz, kinds))
        atoms = []
        for s in range(1, n + 1):
            name = "%d.%d" % (t, s)
            if s == circle_slot:
                atoms.append(("u", Aff(0, {"h" + name: 1})))
            elif kind_at[s] == "T":
                atoms.append(("T", Aff(0, {"a" + name: 1})))
            else:
                atoms.append(("E", Aff(0, {"j" + name: 1}), Aff(0, {"k" + name: 1})))
        terms[tuple(atoms)] = Scalar(t + 1)
    # every key fits the shape, and no two share a kind pattern
    return TensorElement._trusted(terms, (n, circle_slot))


def total_degree(atoms):
    out = Aff()
    for atom in atoms:
        out = out + (atom[1] - atom[2] if atom[0] == "E" else atom[1])
    return out


def moved(atoms, src, dst, exponent):
    """atoms with slot src taken out and ("u", exponent) put in at slot dst."""
    rest = list(atoms)
    del rest[src - 1]
    rest.insert(dst - 1, ("u", exponent))
    return tuple(rest)


def test_maps_branch_on_atom_kind_only():
    a, b = Aff(0, {"a": 1}), Aff(2, {"b": 1})
    for refused in (lambda: a < b, lambda: a >= b, lambda: bool(a), lambda: a == 0):
        with pytest.raises(TypeError):
            refused()
    assert (a + b) - b == a and -(-a) == a and a - a == Aff()
    for n in (1, 2, 3):
        x = symbolic_tensor(n)
        for k in range(1, n + 1):
            kept = {atoms: c for atoms, c in x.terms.items() if atoms[k - 1][0] == "T"}
            symbol = {
                atoms[: k - 1] + (("u", atoms[k - 1][1]),) + atoms[k:]: c
                for atoms, c in kept.items()
            }
            y = slot_symbol(x, k)
            assert y == TensorElement._trusted(symbol, (n, k))
            assert lift_circle(y) == project_slots(x, {k}) == TensorElement._trusted(kept, (n, None))
        every_shift = {a: c for a, c in x.terms.items() if all(t[0] == "T" for t in a)}
        assert project_slots(x, range(1, n + 1)) == TensorElement._trusted(every_shift, (n, None))
        # adjoint: T(a) -> T(-a), E(j, k) -> E(k, j), u^h -> u^-h, on every
        # shape, each coefficient conjugated
        for circle_slot in (None, *range(1, n + 1)):
            v = symbolic_tensor(n, circle_slot).scale(Scalar(1, 2))
            starred = {}
            for atoms, c in v.terms.items():
                key = tuple(("E", t[2], t[1]) if t[0] == "E" else (t[0], -t[1]) for t in atoms)
                starred[key] = c.conjugate()
            assert v.adjoint() == TensorElement._trusted(starred, (n, circle_slot))
            assert v.adjoint().adjoint() == v
        # glue: the symbol exponent a at slot s becomes -(a + the degree of
        # the other slots) at slot t
        for src, dst in permutations(range(n + 1), 2):
            s, t = slot_for(src, dst), slot_for(dst, src)
            glued = {}
            for atoms, c in x.terms.items():
                if atoms[s - 1][0] == "T":
                    rest = atoms[: s - 1] + atoms[s:]
                    glued[moved(atoms, s, t, -(atoms[s - 1][1] + total_degree(rest)))] = c
            assert glue(x, src, dst) == TensorElement._trusted(glued, (n, t))
        # psi: the circle exponent h becomes -(h + the Toeplitz degree)
        w = symbolic_tensor(n, n)
        reflected = {
            moved(atoms, n, n, -(atoms[-1][1] + total_degree(atoms[:-1]))): c
            for atoms, c in w.terms.items()
        }
        assert psi(w) == TensorElement._trusted(reflected, (n, n))
        assert psi(psi(w)) == w
        for j in range(1, n + 1):
            front = {moved(atoms, n, j, atoms[-1][1]): c for atoms, c in w.terms.items()}
            assert chi(w, j) == TensorElement._trusted(front, (n, j))
            assert chi_inv(chi(w, j), j) == w
        for i in range(n):
            v = symbolic_tensor(n, i + 1)
            for j in range(i + 1, n + 1):
                out = {}
                for atoms, c in v.terms.items():
                    rest = atoms[:i] + atoms[i + 1 :]
                    out[moved(atoms, i + 1, j, -(atoms[i][1] + total_degree(rest)))] = c
                assert psi_ij(v, i, j) == TensorElement._trusted(out, (n, j))
                assert psi_ij_inv(psi_ij(v, i, j), i, j) == v
    # phi: the cocycle holds on one term per kind pattern, each degree and
    # index a variable, so it holds on every tensor of that many slots
    for n in (2, 3, 4, 5):
        x = symbolic_tensor(n)
        for i, j, k in permutations(range(n + 1), 3):
            assert phi(x, i, j, k) == phi(phi(x, k, j, i), i, k, j)


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
    for n in (1, 2, 3, 4, 5):
        for src in range(n + 1):
            for dst in range(n + 1):
                if src == dst:
                    continue
                for _ in range(5):
                    x = random_tensor_element(rng, n, max_terms=4)
                    y = canonical(glue(x, src, dst))
                    assert y == stepwise_glue(x, src, dst)
                    assert y.circle_slot == slot_for(dst, src)
                # a matrix unit in every term of the symbol slot: the symbol
                # drops every term
                killed = random_tensor_element(
                    rng, n, max_terms=4, compact_slots={slot_for(src, dst)}
                )
                zero = TensorElement.zero(n, slot_for(dst, src))
                assert glue(killed, src, dst) == zero == stepwise_glue(killed, src, dst)
    with pytest.raises(ValueError):
        glue(TensorElement.one(2), 1, 1)


def test_glue_refuses_in_its_own_words():
    bare = TensorElement.pure((("T", 1), ("T", 0), ("T", 2)))
    # a component with a circle slot, at the symbol slot or elsewhere
    for circle_slot in (1, 3):
        with pytest.raises(ValueError, match="^glue expects pure Toeplitz slots"):
            glue(TensorElement.one(3, circle_slot), 0, 1)
    # chart 4 is tracked at slot 4 of a component with three slots, as the
    # symbol slot and as the target slot
    with pytest.raises(ValueError, match="^glue: symbol slot 4 out of range"):
        glue(bare, 0, 4)
    with pytest.raises(ValueError, match="^glue: target slot 4 out of range"):
        glue(bare, 4, 0)
    # equal charts keep slot_for's refusal
    with pytest.raises(ValueError, match="a chart does not track its own index"):
        glue(bare, 2, 2)


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
    # glue rejects a chart outside 0..n, or not an int, as source and as target
    out_of_range = [(-1, 0), (-1, 2), (4, 0), (4, 3), (0, -1), (2, -1), (0, 4), (3, 4)]
    for src, dst in out_of_range + [(0, True), (True, 2), (0, "1"), (1.0, 2)]:
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
    for k in (0, 3, "1", True, 1.0):
        with pytest.raises(ValueError, match="slot must be an integer from 1 to 2"):
            slot_symbol(x, k)


def test_symbol_and_lift_refuse_the_other_shape():
    # the symbol reads a pure Toeplitz tensor, its section a circle tensor
    circle = TensorElement.pure((("T", 1), ("u", 2)), circle_slot=2)
    with pytest.raises(ValueError, match="^slot_symbol expects pure Toeplitz slots$"):
        slot_symbol(circle, 1)
    with pytest.raises(ValueError, match="^lift_circle expects a circle slot$"):
        lift_circle(TensorElement.pure((("T", 1), ("T", 2))))


def test_project_slots_idempotent_and_commuting():
    rng = rng_for("project")
    for _ in range(20):
        x = random_tensor_element(rng, 3, compact_slots=(1, 2))
        p12 = project_slots(x, (1, 2))
        assert project_slots(p12, (1, 2)) == p12
        assert project_slots(project_slots(x, (1,)), (2,)) == p12
        assert project_slots(project_slots(x, (2,)), (1,)) == p12


def test_project_slots_reads_the_slots_of_a_zero_tensor():
    # a tensor with no terms is its own projection, but only once its slots
    # have been read: a slot off the shape or the circle slot still raises.
    # verify_freeness counts a zero component as no failure without
    # projecting it, which this makes sound on every slot set
    for n in (1, 2, 3):
        for circle_slot in (None, *range(1, n + 1)):
            zero = TensorElement.zero(n, circle_slot)
            toeplitz = [s for s in range(1, n + 1) if s != circle_slot]
            for r in range(len(toeplitz) + 1):
                for slots in combinations(toeplitz, r):
                    out = project_slots(zero, slots)
                    assert out.shape == zero.shape and out.terms == {}
            for bad in (0, n + 1, "1", True, 1.0, circle_slot):
                if bad is None:
                    continue
                with pytest.raises(ValueError, match="cannot project slot %r$" % (bad,)):
                    project_slots(zero, (bad,))


def test_the_maps_read_no_shape_property(monkeypatch):
    # every map reads x.shape itself: with the n_slots and circle_slot
    # properties refusing, each returns what it returns with them
    n = 3
    keys = [(("T", 1), ("E", 0, 1), ("T", -2)), (("E", 1, 0), ("T", 3), ("T", 0))]
    flat = [TensorElement.pure(key, coeff=Scalar(2, -1)) for key in keys]
    circle = {
        c: [TensorElement.pure(key[: c - 1] + (("u", 2),) + key[c:], c) for key in keys]
        for c in range(1, n + 1)
    }
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    charts = range(n + 1)
    calls = [lambda: psi(w) for w in circle[n]]
    calls += [lambda w=w, j=j: chi(w, j) for w in circle[n] for j in range(1, n + 1)]
    calls += [lambda w=w, j=j: chi_inv(w, j) for j in range(1, n + 1) for w in circle[j]]
    calls += [lambda w=w, i=i, j=j: psi_ij(w, i, j) for i, j in pairs for w in circle[i + 1]]
    calls += [lambda w=w, i=i, j=j: psi_ij_inv(w, i, j) for i, j in pairs for w in circle[j]]
    calls += [lambda w=w: lift_circle(w) for c in circle for w in circle[c]]
    for x in flat:
        calls += [lambda x=x, k=k: slot_symbol(x, k) for k in range(1, n + 1)]
        calls += [lambda x=x, s=s: project_slots(x, s) for s in ((), (1,), (2, 3), (1, 2, 3))]
        calls += [lambda x=x, a=a: glue(x, *a) for a in permutations(charts, 2)]
        calls += [lambda x=x, a=a: transition_representative(x, *a) for a in permutations(charts, 2)]
        calls += [lambda x=x, a=a: phi(x, *a) for a in permutations(charts, 3)]
    calls += [lambda w=w: project_slots(w, (1,)) for w in circle[n]]
    expected = [(y.shape, y.terms) for y in (call() for call in calls)]
    assert any(terms for _, terms in expected)

    def refuse(self):
        raise AssertionError("a map read a shape property")

    monkeypatch.setattr(TensorElement, "n_slots", property(refuse))
    monkeypatch.setattr(TensorElement, "circle_slot", property(refuse))
    assert [(y.shape, y.terms) for y in (call() for call in calls)] == expected


def test_slot_for_table():
    assert slot_for(0, 1) == 1
    assert slot_for(0, 2) == 2
    assert slot_for(1, 0) == 1
    assert slot_for(1, 2) == 2
    assert slot_for(2, 0) == 1
    assert slot_for(2, 1) == 2
    for side, idx in [(1, 1), (0, "1"), ("0", 1), (0, True), (0, 1.0)]:
        with pytest.raises(ValueError):
            slot_for(side, idx)


def test_a_class_is_its_canonical_tensor():
    # two tensors lie in one class modulo the kernels of slots 1 and 2
    # exactly when their projections there are equal
    x = TensorElement.pure((("T", 1), ("T", 2)))
    noise = TensorElement.pure((("E", 0, 0), ("T", 2)), coeff=3) + TensorElement.pure(
        (("T", 1), ("E", 1, 1)), coeff=-2
    )
    assert project_slots(x + noise, (1, 2)) == project_slots(x, (1, 2)) == x
    assert project_slots(x, (1, 2)) != project_slots(x + x, (1, 2))
    assert project_slots(noise, (1, 2)).is_zero()


def test_transition_representative_worked_example():
    # the component z (x) E00 over the last chart of the 2-dimensional
    # space maps to E00 (x) u^-1 over chart 0
    x = TensorElement.pure((("T", 1), ("E", 0, 0)))
    w = slot_symbol(x, 1)
    out = psi_ij(w, 0, 2)
    assert out == TensorElement.pure((("E", 0, 0), ("u", -1)), circle_slot=2)
    # and the full representative pipeline lifts the circle back
    rep = transition_representative(x, 0, 2)
    assert rep == TensorElement.pure((("E", 0, 0), ("T", -1)))


def test_phi_maps_canonical_tensors_and_validates_its_charts():
    x = TensorElement.pure((("T", 1), ("T", 0)))  # over chart 1
    out = phi(x, 0, 1, 2)
    assert type(out) is TensorElement and out.shape == (2, None)
    assert out == project_slots(out, (slot_for(0, 1), slot_for(0, 2)))
    for i, j, k in [(2, 1, 2), (0, 1, 2.0), (True, 1, 2), (0, "1", 2), (0, 1, 3)]:
        with pytest.raises(ValueError):
            phi(x, i, j, k)  # a repeated chart, a chart that is no int or out of range
    # with three slots the charts say which kernels x is read modulo: the
    # matrix unit at slot 3 tracks chart 3, so only phi(., 0, 1, 3) kills it
    y = TensorElement.pure((("T", 1), ("T", 0), ("E", 0, 0)))  # over chart 1
    assert phi(y, 0, 1, 3).is_zero()
    assert phi(y, 0, 1, 2) == TensorElement.pure((("T", -1), ("T", 0), ("E", 0, 0)))


def test_phi_respects_representatives():
    # on every triple at n = 3, a kernel term in either killed slot of the
    # source chart leaves the class phi returns as it was
    rng = rng_for("phi-reps")
    for i, j, k in permutations(range(4), 3):
        for _ in range(3):
            x = random_tensor_element(rng, 3)
            noise = random_tensor_element(rng, 3, compact_slots={slot_for(j, i)})
            noise += random_tensor_element(rng, 3, compact_slots={slot_for(j, k)})
            assert phi(x + noise, i, j, k) == phi(x, i, j, k)


def test_involution_check_report():
    report = psi_involution_check(2, samples=50)
    assert report["passed"] is True
    assert report["failures"] == []
    assert report["check"] == "gluing-involution"
    assert report["n"] == 2


def test_involution_sweep_at_four_charts():
    # 23^3 Toeplitz prefixes times 7 circle atoms
    report = psi_involution_check(4, samples=0)
    assert report["passed"] is True
    assert report["atoms_and_samples"] == 23**3 * 7 == 85169


def test_kernel_image_check_checks_one_stream_per_source(monkeypatch):
    # a count, not a timing: each source's stream checks its shape once,
    # before its first draw, not once per draw
    opened, shapes = [], []
    draws, shape = tensor_gluing._draws, tensor_gluing._shape

    def counted_draws(rng, *args, **kwargs):
        opened.append(kwargs["compact_slots"])
        return draws(rng, *args, **kwargs)

    def counted_shape(*args):
        shapes.append(args)
        return shape(*args)

    monkeypatch.setattr(tensor_gluing, "_draws", counted_draws)
    monkeypatch.setattr(tensor_gluing, "_shape", counted_shape)
    report = kernel_image_check(3, 0, 1, 2, samples=5)
    assert report["passed"] is True
    # the kernel slot of chart 2 seen from source 0, then from source 1
    assert opened == [{2}, {2}]
    assert shapes == [(3, None)] * 2


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


# Mutants of the maps each sampled check reads: every check must report
# the broken map, so none of them passes without doing work.


def _units_to_shifts(real):
    """glue, with every matrix unit of its output replaced by ("T", 0)."""

    def mutant(x, src, dst):
        y = real(x, src, dst)
        pairs = [
            (tuple(("T", 0) if a[0] == "E" else a for a in atoms), c)
            for atoms, c in y.terms.items()
        ]
        return TensorElement(y.n_slots, y.circle_slot, pairs)

    return mutant


def test_psi_check_reports_a_shifted_circle(monkeypatch):
    # any reflection h -> c - h is an involution, so the mutant shifts
    # instead: it adds 1 to the circle exponent of every term
    def shifted(x):
        k = x.circle_slot
        return TensorElement(
            x.n_slots,
            k,
            [
                (atoms[: k - 1] + (("u", atoms[k - 1][1] + 1),) + atoms[k:], c)
                for atoms, c in x.terms.items()
            ],
        )

    monkeypatch.setattr(tensor_gluing, "psi", shifted)
    report = psi_involution_check(1, samples=0)
    # the seven circle atoms u^-3..u^3, each moved by two
    assert report["atoms_and_samples"] == 7
    assert len(report["failures"]) == 7
    assert report["passed"] is False


def test_kernel_image_check_reports_a_term_off_the_ideal(monkeypatch):
    monkeypatch.setattr(tensor_gluing, "glue", _units_to_shifts(tensor_gluing.glue))
    report = kernel_image_check(2, 0, 1, 2, samples=2)
    assert report["passed"] is False
    assert report["failures"]
    # only the upper chart's side glues; the lower side is the bare symbol
    assert {f["source"] for f in report["failures"]} == {1}
    for f in report["failures"]:
        assert f["term"][report["predicted_slot"] - 1][0] == "T"


def test_kernel_image_check_reports_a_misplaced_circle(monkeypatch):
    monkeypatch.setattr(
        tensor_gluing, "glue", lambda x, src, dst: slot_symbol(x, slot_for(src, dst))
    )
    report = kernel_image_check(2, 0, 2, 1, samples=2)
    assert report["passed"] is False
    assert report["failures"] == [
        {"sample": s, "source": 2, "reason": "circle slot misplaced"} for s in range(2)
    ]


def test_cocycle_check_reports_representative_dependence(monkeypatch):
    monkeypatch.setattr(tensor_gluing, "glue", _units_to_shifts(tensor_gluing.glue))
    report = cocycle_check(2, samples=3)
    assert report["passed"] is False
    assert report["failures"]
    assert {f["reason"] for f in report["failures"]} == {"representative dependence"}


def test_transition_agreement_reports_a_skewed_transition(monkeypatch):
    mutants.MUTANTS["t"](monkeypatch)
    report = transition_agreement(2, trials=2)
    # three chart pairs, two trials each
    assert len(report["failures"]) == 6
    assert report["passed"] is False
    # at n = 1 the circle is the only coordinate, so the mutant changes nothing
    assert transition_agreement(1, trials=2)["passed"] is True


def test_transition_agreement_cannot_pass_a_nan_transition(monkeypatch):
    # NaN compares false with every tolerance, so a disc slot of NaN must be
    # refused where the point is built, or no distance would exceed the tolerance
    real = classical_cpn.transition

    def nan_discs(p, src, dst):
        q = real(p, src, dst)
        coords = [c if s == q.circle_slot else float("nan") for s, c in enumerate(q.coords, 1)]
        return classical_cpn.ChartPoint(coords, q.circle_slot)

    monkeypatch.setattr(classical_cpn, "transition", nan_discs)
    with pytest.raises(ValueError, match="^disc coordinate has modulus nan$"):
        transition_agreement(2, trials=3)


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
        (order_lattice, "_bits"),
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
        lambda: project_slots(TensorElement.one(2), {"1"}),
        lambda: project_slots(TensorElement.one(2), {True}),
        lambda: project_slots(TensorElement.one(2), {1.0}),
        lambda: random_tensor_element(rng_for("bad-shape"), 2, compact_slots={"1"}),
        lambda: random_tensor_element(rng_for("bad-shape"), 2, compact_slots={True}),
        lambda: project_slots(TensorElement.one(2), ("1", 2)),
        lambda: project_slots(TensorElement.one(2), (True, 2)),
        lambda: TensorElement.one("3"),
        lambda: TensorElement.one(2.5),
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


@pytest.mark.parametrize(
    "n_slots, circle_slot, atoms",
    [
        ("1", None, (("T", 1),)),
        (1.0, None, (("T", 1),)),
        (1, "1", (("u", 1),)),
        (1, 2, (("u", 1),)),
        (1, None, (("T", 1), ("T", 2))),
        (1, None, (("u", 1),)),
        (1, 1, (("T", 1),)),
    ],
)
def test_tensors_must_fit_their_shape(n_slots, circle_slot, atoms):
    # the slot count and circle slot are ints in range, and each key has one
    # atom per slot, the circle atom exactly in the circle slot
    with pytest.raises(ValueError):
        TensorElement(n_slots, circle_slot, {atoms: 1})


@pytest.mark.parametrize("key", [3, None])
def test_keys_must_be_atom_tuples(key):
    with pytest.raises(ValueError):
        TensorElement(2, None, {key: 1})


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


def test_gluing_suites_draw_nothing_through_randint(monkeypatch):
    # a count of calls, not a timing: the samplers draw every bounded int
    # from getrandbits in line, so no draw pays randint's frames
    calls = []

    def counting(name):
        method = getattr(random.Random, name)

        def wrapper(self, *args):
            calls.append(name)
            return method(self, *args)

        monkeypatch.setattr(random.Random, name, wrapper)

    counting("randint")
    counting("randrange")
    assert kernel_image_check(3, 0, 1, 2, samples=3)["passed"]
    assert cocycle_check(3, samples=2)["passed"]
    assert psi_involution_check(3, samples=5)["passed"]
    assert calls == []
    # the counters do count randint and the randrange it calls
    random.Random(0).randint(0, 1)
    assert calls == ["randint", "randrange"]


def test_render():
    x = TensorElement.pure((("T", 1), ("u", -2)), circle_slot=2)
    assert x.render() == "T(u) & u^-2"
    y = TensorElement.pure((("T", -1), ("E", 0, 2)), coeff=Scalar(1, 2))
    assert (x.scale(-1) + TensorElement.pure((("T", 0), ("u", 0)), 2, 3)).render() == (
        "3*T(1) & 1 + -T(u) & u^-2"
    )
    # the same atom reads the same in a tensor and in a single slot
    assert y.render() == "(1+2i)*T(u^-1) & E[0,2]"
    assert TensorElement.pure([("T", -1)]).render() == "T(u^-1)"
    assert TensorElement.zero(2).render() == "0"
