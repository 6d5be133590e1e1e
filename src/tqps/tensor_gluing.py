"""Tensor powers of the Toeplitz model and the gluing machinery.

Elements of a tensor power are exact linear combinations of pure atom
tensors, held by TensorElement, the library's one term map.  Each slot of
a pure tensor holds one Toeplitz atom, a shift ("T", a) or a matrix unit
("E", j, k); at most one distinguished slot holds a circle monomial
("u", m) instead.  A single-slot operator is a one-slot tensor,
TensorElement(1).  toeplitz_core validates atoms and multiplies them.  The
tensor product multiplies the coefficients of each term pair once and
reads every slot's atom product, the circle slot's included, from
_mul_toeplitz_atoms, one cached rule.  The adjoint acts slotwise,
T(u^a)* = T(u^-a), E_{jk}* = E_{kj} and (u^m)* = u^-m, with conjugated
coefficients.  Slot positions are 1-based throughout the public surface.

The gauge grading, toeplitz_core's atom_degree, gives every atom an integer
degree (a for a shift, j - k for a matrix unit, m for a circle monomial).
The gluing map psi acts on a tensor with a trailing circle slot by
replacing the circle exponent h with -(d + h) where d is the total degree
of the other slots.  That closed form makes psi an exact involution, which
is the unipotence property the verification suites exercise.

chi relocates the circle slot.  psi_ij, the slot-accurate gluing between
two chart indices, is psi conjugated by relocations, chi(psi(chi_inv(x))),
done as one move that relocates the circle slot and reflects its exponent.
The slotwise symbol map, slot_symbol, turns a Toeplitz slot into a circle
slot by killing matrix units, and lift_circle is its linear section.  They
are the package's one symbol map and section: on one slot they go between
single-slot operators, TensorElement(1), and circle functions, which are
TensorElement(1, circle_slot=1).  A class modulo slot kernels is the tensor
project_slots keeps, every term with a matrix unit in a killed slot dropped.

glue is the one chart change on components: glue(x, src, dst) takes the
symbol of x at the slot tracking dst, moves the circle to the slot tracking
src and reflects it, in one move that takes the symbol itself, so it reads
each term of x once whatever the index order.  Only slot_for says which
slot tracks which chart.  The multipullback's gluing law, the transition
on representatives and the kernel-image check all read glue; phi composes
it with the section and the projections into the transition between two
quotient charts, a map of canonical tensors, which the cocycle check samples.

On pure atom tensors each of these maps (chi, psi, psi_ij, glue, the symbol,
its section, the projection and the adjoint) only rewrites term keys,
injectively, so none validates its result again; TensorElement._trusted
states when that is sound.  Every circle move, glue's included, is one call
of _move_circle, which holds the relocation checks; the symbol, its
section, the projection and the adjoint are each one loop of their own.
Per call, each map reads x.shape, never the n_slots or circle_slot
property, builds its result through _trusted, TensorElement._trusted bound
once at module level, and passes _move_circle its flags by position.

random_tensor_element draws seeded random elements.  It is one next() of
_draws, a stream that checks each argument and builds its plan once, before
its first draw, then draws one element per next().  Every check that draws
many elements from one rng holds one stream, which draws the same values
from the same random stream as one random_tensor_element call per element.
"""

from functools import lru_cache
from itertools import chain, combinations, islice, permutations, product
from math import prod

from .circle_hopf import ONE, Scalar, _render_terms, collect
from .toeplitz_core import (  # noqa: F401  (atom_degree re-exported)
    _render_atom,
    _validate_atom,
    atom_degree,
    atom_product,
)
from .util import DEFAULT_SEED, _charts, _index, derived_rng
from . import sampling


def _shape(n_slots, circle_slot):
    """The tensor shape (n_slots, circle_slot) with int entries; raises
    ValueError unless there is a slot and the circle slot, if any, is one
    of them."""
    n_slots = _index(n_slots, "slot count", 1)
    if circle_slot is not None:
        circle_slot = _index(circle_slot, "circle slot", 1, n_slots)
    return (n_slots, circle_slot)


def _toeplitz_slots(slots, shape, what):
    """slots as a set; raises ValueError, saying what it cannot do to the
    slot, unless each is a Toeplitz slot of the shape.  Each slot is checked
    before it joins the set, so a bool or float equal to a valid slot is
    refused, not merged into it."""
    n_slots, circle_slot = shape
    out = set()
    for s in slots:
        if type(s) is not int or not 1 <= s <= n_slots or s == circle_slot:
            raise ValueError("cannot %s slot %r" % (what, s))
        out.add(s)
    return out


@lru_cache(maxsize=None)
def _mul_toeplitz_atoms(a, b):
    """Product of two atoms of one slot as a tuple of (atom, sign) terms,
    each sign the int 1 or -1: circle monomials add exponents, and any other
    pair gives atom_product(a, b), the shift first, then matrix units by
    rising index.  Matched shapes meet a circle atom only with another."""
    if a[0] == "u":
        return ((("u", a[1] + b[1]), 1),)
    return tuple(atom_product(a, b))


class TensorElement:
    """Exact linear combination of pure atom tensors of a fixed shape: the
    one term map of tqps.  `terms` maps each key to its nonzero Scalar
    coefficient, so equal term maps are equal elements.

    The shape is (n_slots, circle_slot): n_slots counts all slots,
    circle_slot is the 1-based position of the distinguished circle slot or
    None.  Every key is an atom tuple that fits the shape, and only
    elements of the same shape combine.  Equality reads (type, shape,
    terms).  The constructor takes a mapping of key to coefficient or an
    iterable of (key, coefficient) pairs; _key validates each key before it
    is hashed, so a malformed key raises ValueError, not TypeError.
    """

    __slots__ = ("shape", "terms")

    def __init__(self, n_slots, circle_slot=None, terms=None):
        self.shape = _shape(n_slots, circle_slot)
        pairs = terms.items() if hasattr(terms, "items") else terms or ()
        self.terms = collect((self._key(key), Scalar.coerce(c)) for key, c in pairs)

    def _key(self, atoms):
        n_slots, circle_slot = self.shape
        if not isinstance(atoms, tuple) or len(atoms) != n_slots:
            raise ValueError("term %r does not match %d slots" % (atoms, n_slots))
        return tuple(
            _validate_atom(atom, pos == circle_slot) for pos, atom in enumerate(atoms, start=1)
        )

    @classmethod
    def _trusted(cls, terms, shape):
        """Element holding `terms` as given, built without __init__.

        Every caller meets this condition, which is what makes skipping
        validation sound:
        - every key is valid for the shape;
        - every coefficient is nonzero (collect drops the zero sums);
        - a map that rewrites the keys of another element is injective on
          the terms it keeps, so no two coefficients merge;
        - it branches on atom kind, never on a degree value, so it acts
          alike on every degree, symbolic ones included.
        The constructor, and pure and one, validate every key through _key
        instead.
        """
        out = object.__new__(cls)
        out.shape = shape
        out.terms = terms
        return out

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if type(other) is not type(self) or other.shape != self.shape:
            raise ValueError("cannot combine %r with %r" % (self, other))

    def __add__(self, other):
        self._check(other)
        return self._trusted(collect(chain(self.terms.items(), other.terms.items())), self.shape)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._trusted({key: -c for key, c in self.terms.items()}, self.shape)

    def scale(self, scalar):
        scalar = Scalar.coerce(scalar)
        return self._trusted(collect((key, c * scalar) for key, c in self.terms.items()), self.shape)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.shape == other.shape and self.terms == other.terms

    @property
    def n_slots(self):
        return self.shape[0]

    @property
    def circle_slot(self):
        return self.shape[1]

    @classmethod
    def zero(cls, n_slots, circle_slot=None):
        # no terms, and _shape checks the shape
        return cls._trusted({}, _shape(n_slots, circle_slot))

    @classmethod
    def one(cls, n_slots, circle_slot=None):
        n_slots, circle_slot = _shape(n_slots, circle_slot)
        atoms = tuple(
            ("u", 0) if (pos == circle_slot) else ("T", 0) for pos in range(1, n_slots + 1)
        )
        return cls(n_slots, circle_slot, {atoms: ONE})

    @classmethod
    def pure(cls, atoms, circle_slot=None, coeff=1):
        atoms = tuple(atoms)
        return cls(len(atoms), circle_slot, [(atoms, coeff)])

    def __mul__(self, other):
        """Slotwise product: each term pair multiplies its coefficients once,
        and every combination of its slots' atom products (each slot's, the
        circle slot's too, from _mul_toeplitz_atoms) gets that coefficient
        times the product of the slots' signs.  A pair with a slot product
        of zero adds nothing."""
        self._check(other)
        pairs = []
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                slots = []
                for slot_terms in map(_mul_toeplitz_atoms, t1, t2):
                    if not slot_terms:
                        break
                    slots.append(slot_terms)
                else:
                    c = c1 * c2
                    for combo in product(*slots):
                        atoms, signs = zip(*combo)
                        pairs.append((atoms, c if prod(signs) > 0 else -c))
        # products of valid atoms, summed through collect
        return TensorElement._trusted(collect(pairs), self.shape)

    def adjoint(self):
        """Slotwise adjoint: T(u^a)* = T(u^-a), E_{jk}* = E_{kj} and, in a
        circle slot, (u^m)* = u^-m, every coefficient conjugated."""
        terms = {
            tuple(("E", a[2], a[1]) if a[0] == "E" else (a[0], -a[1]) for a in atoms): c.conjugate()
            for atoms, c in self.terms.items()
        }
        # the slotwise rewrite is injective and keeps each atom's kind and slot
        return TensorElement._trusted(terms, self.shape)

    def __repr__(self):
        return "TensorElement(%d, circle=%r, %d terms)" % (*self.shape, len(self.terms))

    def render(self):
        return _render_terms(
            (" & ".join(_render_atom(a) for a in atoms), self.terms[atoms])
            for atoms in sorted(self.terms)
        )

    def to_json(self):
        return {
            "n_slots": self.n_slots,
            "circle_slot": self.circle_slot,
            "terms": [
                {"atoms": [list(a) for a in atoms], "coeff": c.to_json()}
                for atoms, c in sorted(self.terms.items())
            ],
        }


_trusted = TensorElement._trusted


def _move_circle(x, src, dst, name, reflect=False, symbol=False):
    """Move the circle atom from slot src to slot dst, keeping Toeplitz order.

    The one relocation behind chi, chi_inv, psi, psi_ij, psi_ij_inv and
    glue, and their one check: unless the circle of x sits at src and dst
    is a slot, it raises ValueError naming the public map `name`.  With
    reflect, the circle exponent h becomes -(d + h), d the total degree of
    the other slots.  With symbol, glue's move, x must have no circle slot
    and src must be a slot: its atom becomes its symbol first, a matrix
    unit dropping the term and ("T", a) becoming the exponent a, and is
    then moved and reflected, so glue is one pass.  symbol implies reflect,
    which builds the new circle atom.
    """
    n_slots, circle_slot = x.shape
    if symbol:
        if circle_slot is not None:
            raise ValueError("%s expects pure Toeplitz slots" % name)
        if not 1 <= src <= n_slots:
            raise ValueError("%s: symbol slot %r out of range" % (name, src))
    elif circle_slot != src:
        raise ValueError("%s expects the circle slot at position %r" % (name, src))
    if not 1 <= dst <= n_slots:
        raise ValueError("%s: target slot %r out of range" % (name, dst))
    cut, at = src - 1, dst - 1
    terms = {}
    for atoms, c in x.terms.items():
        circle = atoms[cut]
        if symbol and circle[0] == "E":
            continue
        rest = atoms[:cut] + atoms[src:]
        if reflect or symbol:
            # atom_degree summed in line: every slot of rest is Toeplitz,
            # and a circle atom, or the shift that symbol reads as one,
            # holds its exponent at index 1
            h = circle[1]
            for a in rest:
                h += a[1] - a[2] if a[0] == "E" else a[1]
            circle = ("u", -h)
        terms[rest[:at] + (circle,) + rest[at:]] = c
    # the symbol, the slot permutation and the reflection are injective
    return _trusted(terms, (n_slots, dst))


def chi(x, j):
    """Relocate the trailing circle slot to position j, keeping Toeplitz order."""
    return _move_circle(x, x.shape[0], _index(j, "chi: target slot"), "chi")


def chi_inv(x, j):
    """Relocate the circle slot from position j back to the end."""
    return _move_circle(x, _index(j, "chi_inv: circle slot"), x.shape[0], "chi_inv")


def psi(x):
    """The gluing involution on tensors with a trailing circle slot.

    Replaces the circle exponent h of each term by -(d + h), d the total
    degree of the Toeplitz slots.  Applying it twice is the identity.
    """
    n = x.shape[0]
    return _move_circle(x, n, n, "psi", True)


def psi_ij(x, i, j):
    """Gluing between chart indices i < j: the circle slot moves from i+1 to
    j and its exponent is reflected, in one move.

    This equals chi(psi(chi_inv(x, i + 1)), j): the reflection reads only the
    total degree of the Toeplitz slots, which no relocation changes.
    """
    i, j = _index(i, "psi_ij: i"), _index(j, "psi_ij: j")
    if not 0 <= i < j <= x.shape[0]:
        raise ValueError("psi_ij: need 0 <= i < j <= slot count")
    return _move_circle(x, i + 1, j, "psi_ij", True)


def psi_ij_inv(x, i, j):
    """Inverse of psi_ij: the circle slot moves from j back to i+1 and its
    exponent is reflected again, in one move."""
    i, j = _index(i, "psi_ij_inv: i"), _index(j, "psi_ij_inv: j")
    if not 0 <= i < j <= x.shape[0]:
        raise ValueError("psi_ij_inv: need 0 <= i < j <= slot count")
    return _move_circle(x, j, i + 1, "psi_ij_inv", True)


def slot_symbol(x, k):
    """Slotwise symbol map: kill matrix units in slot k, shifts become circle monomials."""
    n_slots, circle_slot = x.shape
    if circle_slot is not None:
        raise ValueError("slot_symbol expects pure Toeplitz slots")
    if type(k) is not int or not 1 <= k <= n_slots:
        raise ValueError("slot must be an integer from 1 to %d, got %r" % (n_slots, k))
    cut = k - 1
    terms = {}
    for atoms, c in x.terms.items():
        if atoms[cut][0] != "E":
            terms[atoms[:cut] + (("u", atoms[cut][1]),) + atoms[k:]] = c
    # ("T", a) -> ("u", a) is injective; a matrix unit at k drops the term
    return _trusted(terms, (n_slots, k))


def lift_circle(x):
    """Linear section of the slotwise symbol: the circle slot becomes a shift slot."""
    n_slots, k = x.shape
    if k is None:
        raise ValueError("lift_circle expects a circle slot")
    cut = k - 1
    terms = {}
    for atoms, c in x.terms.items():
        terms[atoms[:cut] + (("T", atoms[cut][1]),) + atoms[k:]] = c
    # ("u", m) -> ("T", m) is injective
    return _trusted(terms, (n_slots, None))


def project_slots(x, slots):
    """Drop every term carrying a matrix unit in one of the given slots.

    This is the canonical representative of the class of x modulo the sum
    of the slot kernels: the kernel of the symbol at slot s is spanned by
    the terms with a matrix unit in slot s.
    """
    slots = _toeplitz_slots(slots, x.shape, "project")
    if not x.terms:
        return x  # no term to drop
    terms = x.terms
    for s in slots:
        terms = {atoms: c for atoms, c in terms.items() if atoms[s - 1][0] != "E"}
    # the kept keys stay as they are; no element edits its term map
    return _trusted(terms, x.shape)


def slot_for(side, idx):
    """Slot in a tensor component at chart `side` that tracks chart index `idx`."""
    if type(side) is not int or type(idx) is not int:
        raise ValueError("chart indices must be integers, got %r and %r" % (side, idx))
    if side == idx:
        raise ValueError("a chart does not track its own index")
    return idx if idx > side else idx + 1


def glue(x, src, dst):
    """Component x at chart src, seen from chart dst.

    The symbol of x at the slot tracking dst, with the circle moved to the
    slot tracking src and reflected, in one move over the terms of x; both
    slots come from slot_for.  Two components at charts i and j agree when
    glue(comps[j], j, i) equals the symbol of comps[i] at slot_for(i, j).
    """
    return _move_circle(x, slot_for(src, dst), slot_for(dst, src), "glue", True, True)


def transition_representative(x, i, j):
    """Raw chart transition on representatives, without canonicalization.

    Reads x as a component at chart j, glues it to chart i and lifts the
    circle slot back to a shift slot: the candidate component at chart i.
    """
    return lift_circle(glue(x, j, i))


def phi(x, i, j, k):
    """Transition between quotient charts: x, a tensor over chart j modulo
    the kernels of charts i and k, maps to its class over chart i.  Each
    class is its canonical tensor, x and the result projected at the two
    killed slots."""
    i, j, k = _charts(x.shape[0], (i, j, k))
    y = transition_representative(project_slots(x, (slot_for(j, i), slot_for(j, k))), i, j)
    return project_slots(y, (slot_for(i, j), slot_for(i, k)))


# Largest |degree| and matrix unit index that random_tensor_element draws
# and the psi sweep runs through.
RANDOM_BOUND = 3


def _draws(rng, n_slots, circle_slot=None, min_terms=1, max_terms=3, compact_slots=()):
    """Stream of seeded random elements, one per next(), each drawn as
    random_tensor_element draws it from rng.  The shape, the slots and the
    term counts are checked, and the plan built, once, on the first next()
    and before its first draw, so a refused argument leaves rng untouched.
    A stream draws from rng only inside next(), so streams opened on one rng
    interleave: each next() consumes exactly what one random_tensor_element
    call would at that point.
    """
    shape = _shape(n_slots, circle_slot)
    n_slots, circle_slot = shape
    compact_slots = _toeplitz_slots(compact_slots, shape, "force a matrix unit in")
    min_terms = _index(min_terms, "min_terms", 0)
    max_terms = _index(max_terms, "max_terms", min_terms)
    # per slot: a circle degree, a forced matrix unit, or a coin between a
    # matrix unit and a shift ("T")
    plan = [
        "u" if pos == circle_slot else "E" if pos in compact_slots else "T"
        for pos in range(1, n_slots + 1)
    ]
    # the widths of the degree, index and term count ranges, and their bits
    b = RANDOM_BOUND
    degrees, indices, count = 2 * b + 1, b + 1, max_terms - min_terms + 1
    degree_bits, index_bits, count_bits = degrees.bit_length(), indices.bit_length(), count.bit_length()
    getrandbits, coin, scalar = rng.getrandbits, rng.random, sampling.random_nonzero_scalar
    while True:
        terms = getrandbits(count_bits)
        while terms >= count:
            terms = getrandbits(count_bits)
        pairs = []
        for _ in range(min_terms + terms):
            atoms = []
            for kind in plan:
                if kind == "E" or kind == "T" and coin() >= 0.5:
                    j = getrandbits(index_bits)
                    while j >= indices:
                        j = getrandbits(index_bits)
                    k = getrandbits(index_bits)
                    while k >= indices:
                        k = getrandbits(index_bits)
                    atoms.append(("E", j, k))
                else:
                    d = getrandbits(degree_bits)
                    while d >= degrees:
                        d = getrandbits(degree_bits)
                    atoms.append((kind, d - b))
            pairs.append((tuple(atoms), scalar(rng)))
        # keys of valid atoms for the checked shape, summed through collect
        yield _trusted(collect(pairs), shape)


def random_tensor_element(
    rng,
    n_slots,
    circle_slot=None,
    min_terms=1,
    max_terms=3,
    compact_slots=(),
):
    """Seeded random element: uniform degrees in [-RANDOM_BOUND, RANDOM_BOUND],
    matrix unit indices in [0, RANDOM_BOUND]^2, min_terms..max_terms terms
    drawn (1..3 by default) before like terms are collected.
    compact_slots forces a matrix unit in those slots of every term; each
    must be a Toeplitz slot.  It is one next() of a fresh _draws stream, so
    the shape, the slots and the term counts are checked before the first
    draw; a caller that draws many elements from one rng holds one stream
    and has them checked once.

    Each bounded int is drawn as rng.randint draws it: getrandbits of the
    width's bit length, redrawn while at least the width.  So the values
    and the stream consumed are those of randint, and seeded reports and
    their golden hashes stay byte-identical, without randint's three frames
    per draw.
    """
    return next(_draws(rng, n_slots, circle_slot, min_terms, max_terms, compact_slots))


# Non-ordered triples the cocycle check also runs: an ordered triple i < k < j
# glues only from a higher chart to a lower one, so these are the only
# triples that glue upward (src < dst).
COCYCLE_SPOT_TRIPLES = 2


def psi_involution_check(n, samples=1000, seed=DEFAULT_SEED):
    """Exhaustive atom sweep plus seeded random sweep of psi o psi = id.

    Works on tensors with n - 1 Toeplitz slots and a trailing circle slot,
    matching the gluing domain for the n-chart construction.

    The sweep checks the atom tensors in batches: one tensor per choice of
    the first n - 2 Toeplitz slots, whose terms are the 23 * 7 = 161 atom
    keys with that prefix (the 7 circle atoms when n = 1), the r-th key
    carrying the coefficient r.  psi is one _move_circle, which rewrites
    each key on its own and keeps its coefficient, so a batch with
    psi(psi(batch)) == batch passes every atom in it: a key that psi o psi
    moved would carry its rank with it, and two keys it merged would lose
    a term.  A batch that fails reruns its atoms one tensor each, so the
    failures are those of the atom-by-atom sweep, in its order, whatever
    psi does.
    """
    n, samples = _index(n, "n", 1), _index(samples, "samples", 0)
    failures = []
    # shift and circle degrees in [-3, 3], matrix unit indices in [0, 3]:
    # 23^(n-1) * 7 atoms
    b = RANDOM_BOUND
    degrees = range(-b, b + 1)
    atoms = [("T", a) for a in degrees] + [("E", j, k) for j in range(b + 1) for k in range(b + 1)]
    circles = [("u", h) for h in degrees]
    # a batch's keys are its prefix and each tail (the last Toeplitz atom,
    # if any, and the circle), the r-th key ranked r
    tails = list(product(atoms, circles)) if n > 1 else [(c,) for c in circles]
    ranks = [Scalar(r) for r in range(1, len(tails) + 1)]
    # keys valid for the shape (n slots, circle at n), nonzero ranks
    shape = (n, n)
    for prefix in product(atoms, repeat=max(n - 2, 0)):
        keys = [prefix + tail for tail in tails]
        batch = _trusted(dict(zip(keys, ranks)), shape)
        if psi(psi(batch)) == batch:
            continue
        for key in keys:
            x = _trusted({key: ONE}, shape)
            if psi(psi(x)) != x:
                failures.append(x.to_json())
    draws = _draws(derived_rng(seed, "psi", n), n, n)
    for _ in range(samples):
        x = next(draws)
        if psi(psi(x)) != x:
            failures.append(x.to_json())
    checked = len(atoms) ** (n - 1) * len(circles) + samples
    return {
        "schema": 1,
        "check": "gluing-involution",
        "n": n,
        "atoms_and_samples": checked,
        "seed": seed,
        "failures": failures,
        "passed": not failures,
    }


def _case_label(i, j, k):
    a, b = min(i, j), max(i, j)
    if a < k < b:
        return "i<k<j"
    if k > b:
        return "i<j<k"
    return "k<i<j"


def kernel_image_check(n, i, j, k, samples=50, seed=DEFAULT_SEED):
    """Sampled check that both chart projections push the k-kernel of their
    source onto the same target ideal.

    For each sampled kernel generator the image must keep its matrix unit in
    the slot the exchange identity predicts; the report lists any term that
    lands elsewhere.
    """
    n = _index(n, "n", 2)
    i, j, k = _charts(n, (i, j, k))
    samples = _index(samples, "samples", 1)
    a, b = min(i, j), max(i, j)
    predicted_slot = slot_for(a, k)
    failures = []
    for source, target in ((i, j), (j, i)):
        kernel_slot = slot_for(source, k)
        rng = derived_rng(seed, "kernel-image", n, i, j, k, source)
        draws = _draws(rng, n, compact_slots={kernel_slot})
        for idx in range(samples):
            x = next(draws)
            # the lower chart's side of the gluing is the bare symbol
            if source < target:
                image = slot_symbol(x, slot_for(source, target))
            else:
                image = glue(x, source, target)
            if image.circle_slot != b:
                failures.append(
                    {"sample": idx, "source": source, "reason": "circle slot misplaced"}
                )
                continue
            for atoms in image.terms:
                if atoms[predicted_slot - 1][0] != "E":
                    failures.append(
                        {
                            "sample": idx,
                            "source": source,
                            "term": [list(atom) for atom in atoms],
                        }
                    )
    return {
        "schema": 1,
        "case": _case_label(i, j, k),
        "triple": [i, j, k],
        "n": n,
        "predicted_slot": predicted_slot,
        "samples": samples,
        "seed": seed,
        "failures": failures,
        "passed": not failures,
    }


def cocycle_check(n, samples=100, seed=DEFAULT_SEED):
    """Sampled check of the transition cocycle on quotient classes.

    Each class is its canonical tensor.  For each ordered triple i < k < j,
    phi(x, i, j, k) == phi(phi(x, k, j, i), i, k, j) must hold exactly on
    sampled tensors x over chart j.  Those triples glue only from a higher
    chart to a lower one, so a couple of non-ordered triples are
    spot-checked as well: they are the only ones that glue upward.  Every
    sample also projects the raw pipeline on x perturbed by a kernel term,
    which certifies that phi does not depend on the choice of representative.
    With fewer than three charts there is no triple, so n must be at least 2.
    """
    n, samples = _index(n, "n", 2), _index(samples, "samples", 1)
    triples = [(i, j, k) for i, k, j in combinations(range(n + 1), 3)]
    triples += islice(
        ((i, j, k) for i, j, k in permutations(range(n + 1), 3) if not i < k < j),
        COCYCLE_SPOT_TRIPLES,
    )
    failures = []
    for i, j, k in triples:
        # two streams on the triple's one rng, each drawing where it is read
        rng = derived_rng(seed, "cocycle", n, i, j, k)
        kernel_slot = min(slot_for(j, i), slot_for(j, k))
        xs, noises = _draws(rng, n), _draws(rng, n, compact_slots={kernel_slot})
        for s in range(samples):
            x = next(xs)
            lhs = phi(x, i, j, k)
            rhs = phi(phi(x, k, j, i), i, k, j)
            if lhs != rhs:
                failures.append(
                    {"triple": [i, j, k], "sample": s, "reason": "cocycle violated"}
                )
                continue
            raw = transition_representative(x + next(noises), i, j)
            perturbed = project_slots(raw, (slot_for(i, j), slot_for(i, k)))
            if perturbed != lhs:
                failures.append(
                    {
                        "triple": [i, j, k],
                        "sample": s,
                        "reason": "representative dependence",
                    }
                )
    return {
        "schema": 1,
        "check": "transition-cocycle",
        "n": n,
        "triples": [list(t) for t in triples],
        "samples": samples,
        "seed": seed,
        "failures": failures,
        "passed": not failures,
    }
