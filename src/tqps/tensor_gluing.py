"""Tensor powers of the Toeplitz model and the gluing machinery.

Elements of a tensor power are exact linear combinations of pure atom
tensors.  Each slot of a pure tensor holds one Toeplitz atom, a shift
("T", a) or a matrix unit ("E", j, k), the keys of a ToeplitzElement; at
most one distinguished slot holds a circle monomial ("u", m) instead.
toeplitz_core validates atoms and multiplies them.  The tensor product
multiplies the coefficients of each term pair once and reads each slot's
atom product, as atoms with an int sign, from _mul_toeplitz_atoms, a cache
of atom_product, which the single-slot product calls too.  Slot positions
are 1-based throughout the public surface.

The gauge grading, toeplitz_core's atom_degree, gives every atom an integer
degree (a for a shift, j - k for a matrix unit, m for a circle monomial).
The gluing map psi acts on a tensor with a trailing circle slot by
replacing the circle exponent h with -(d + h) where d is the total degree
of the other slots.  That closed form makes psi an exact involution, which
is the unipotence property the verification suites exercise.

chi relocates the circle slot.  psi_ij, the slot-accurate gluing between
two chart indices, is psi conjugated by relocations, chi(psi(chi_inv(x))),
done as one move that relocates the circle slot and reflects its exponent.
The slotwise symbol map turns a Toeplitz slot into a circle slot by killing
matrix units, and quotient classes modulo two slot kernels are
canonicalized by dropping every term with a matrix unit in a killed slot.

glue is the one chart change on components: glue(x, src, dst) takes the
symbol of x at the slot tracking dst, then moves the circle to the slot
tracking src and reflects it, in one move whatever the index order.  Only
slot_for says which slot tracks which chart.  The multipullback's
gluing law, the transition on representatives and the kernel-image check
all read glue; phi composes it with the section into the transition
between two quotient charts, which the cocycle check samples.

On pure atom tensors each of these maps (chi, psi, psi_ij, the symbol, its
section and the projection) only rewrites term keys, and injectively, so
all of them go through one primitive, _rewrite, which builds the result
without validating it again.  Every circle move, glue's included, is one
call of _move_circle, which holds the relocation checks.  The other
internal builders skip validation too, each on keys valid by construction:
random_tensor_element and TensorElement.zero check the shape up front and
build keys from valid atoms, the psi sweep builds each atom tensor from one
key valid for its shape, and extend's candidate holds the keys of lifted
constraints.  Only the public constructor, pure, one and from_json validate
every key.
"""

from functools import lru_cache
from itertools import combinations, islice, permutations, product
from math import prod

from .circle_hopf import ONE, Scalar, Terms, _render_terms, collect
from .toeplitz_core import (  # noqa: F401  (atom_degree re-exported)
    _json_fields,
    _json_key,
    _json_rows,
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
    slot, unless each is a Toeplitz slot of the shape."""
    slots = set(slots)
    n_slots, circle_slot = shape
    for s in slots:
        if not 1 <= s <= n_slots or s == circle_slot:
            raise ValueError("cannot %s slot %r" % (what, s))
    return slots


@lru_cache(maxsize=None)
def _mul_toeplitz_atoms(a, b):
    """atom_product(a, b) as a tuple of (atom, sign) terms, each sign the
    int 1 or -1: the shift first, then matrix units by rising index."""
    return tuple(atom_product(a, b))


class TensorElement(Terms):
    """Exact linear combination of pure atom tensors of a fixed shape.

    The shape is (n_slots, circle_slot): n_slots counts all slots,
    circle_slot is the 1-based position of the distinguished circle slot or
    None.  Every key is an atom tuple that fits the shape.
    """

    __slots__ = ()

    def __init__(self, n_slots, circle_slot=None, terms=None):
        super().__init__(terms, _shape(n_slots, circle_slot))

    def _key(self, atoms):
        n_slots, circle_slot = self.shape
        if not isinstance(atoms, tuple) or len(atoms) != n_slots:
            raise ValueError("term %r does not match %d slots" % (atoms, n_slots))
        return tuple(
            _validate_atom(atom, pos == circle_slot) for pos, atom in enumerate(atoms, start=1)
        )

    @property
    def n_slots(self):
        return self.shape[0]

    @property
    def circle_slot(self):
        return self.shape[1]

    @classmethod
    def zero(cls, n_slots, circle_slot=None):
        return cls._trusted({}, _shape(n_slots, circle_slot))

    @classmethod
    def one(cls, n_slots, circle_slot=None):
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
        and every combination of its slots' atom products (the circle slot
        adds exponents) gets that coefficient times the product of the
        slots' signs.  A pair with a slot product of zero adds nothing."""
        self._check(other)
        circle_index = None if self.circle_slot is None else self.circle_slot - 1
        pairs = []
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                slots = []
                for s, (a, b) in enumerate(zip(t1, t2)):
                    if s == circle_index:
                        slots.append(((("u", a[1] + b[1]), 1),))
                    else:
                        slot_terms = _mul_toeplitz_atoms(a, b)
                        if not slot_terms:
                            break
                        slots.append(slot_terms)
                else:
                    c = c1 * c2
                    for combo in product(*slots):
                        atoms, signs = zip(*combo)
                        pairs.append((atoms, c if prod(signs) > 0 else -c))
        return TensorElement._trusted(collect(pairs), self.shape)

    __hash__ = None

    def __repr__(self):
        return "TensorElement(%d, circle=%r, %d terms)" % (
            self.n_slots,
            self.circle_slot,
            len(self.terms),
        )

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

    @classmethod
    def from_json(cls, data):
        n_slots, circle_slot, rows = _json_fields(data, "n_slots", "circle_slot", "terms")
        rows = _json_rows(rows, "atoms", "coeff")
        terms = [(_json_key(atoms), Scalar.from_json(c)) for atoms, c in rows]
        return cls(n_slots, circle_slot, terms)


def embed_toeplitz(elements):
    """Pure tensor of ToeplitzElements as a TensorElement (distributing atoms)."""
    combos = [((), ONE)]
    for x in elements:
        expansion = list(x.atoms())
        combos = [
            (prefix + (atom,), c * ac) for prefix, c in combos for atom, ac in expansion
        ]
    return TensorElement(len(elements), None, collect(combos))


def _rewrite(x, n_slots, circle_slot, row):
    """Tensor of the given shape whose terms are those of x with each key
    replaced by row(key); a row of None drops the term.

    The result is built through TensorElement._trusted, so the caller owns
    the condition that makes that sound: row is injective on the keys it
    keeps and sends every valid key of x to a valid key of the new shape.
    Then no two coefficients merge, each stays nonzero, and nothing needs to
    be validated again.  Every caller meets it:
    - _move_circle (chi, chi_inv, psi, psi_ij, psi_ij_inv, glue): moving the
      circle atom permutes slots, and for a fixed Toeplitz part the
      reflection h -> -(d + h) is a bijection of h;
    - slot_symbol: ("T", a) -> ("u", a) is injective, and keys with a
      matrix unit in the slot are dropped;
    - lift_circle: ("u", m) -> ("T", m) is injective;
    - project_slots: the identity on the keys it keeps.
    """
    terms = {}
    for atoms, c in x.terms.items():
        key = row(atoms)
        if key is not None:
            terms[key] = c
    return TensorElement._trusted(terms, (n_slots, circle_slot))


def _move_circle(x, src, dst, name, reflect=False):
    """Move the circle atom from slot src to slot dst, keeping Toeplitz order.

    The one relocation behind chi, chi_inv, psi, psi_ij, psi_ij_inv and
    glue, and their one check: unless the circle of x sits at src and dst
    is a slot, it raises ValueError naming the public map `name`.  With
    reflect, the circle exponent h becomes -(d + h), d the total degree of
    the other slots; for a fixed Toeplitz part that is a bijection of h.
    """
    n_slots, circle_slot = x.shape
    if circle_slot != src:
        raise ValueError("%s expects the circle slot at position %r" % (name, src))
    if not 1 <= dst <= n_slots:
        raise ValueError("%s: target slot %r out of range" % (name, dst))

    def row(atoms):
        rest = atoms[: src - 1] + atoms[src:]
        circle = atoms[src - 1]
        if reflect:
            # atom_degree summed in line: every slot of rest is Toeplitz
            h = circle[1]
            for a in rest:
                h += a[1] - a[2] if a[0] == "E" else a[1]
            circle = ("u", -h)
        return rest[: dst - 1] + (circle,) + rest[dst - 1 :]

    return _rewrite(x, n_slots, dst, row)


def chi(x, j):
    """Relocate the trailing circle slot to position j, keeping Toeplitz order."""
    return _move_circle(x, x.n_slots, _index(j, "chi: target slot"), "chi")


def chi_inv(x, j):
    """Relocate the circle slot from position j back to the end."""
    return _move_circle(x, _index(j, "chi_inv: circle slot"), x.n_slots, "chi_inv")


def psi(x):
    """The gluing involution on tensors with a trailing circle slot.

    Replaces the circle exponent h of each term by -(d + h), d the total
    degree of the Toeplitz slots.  Applying it twice is the identity.
    """
    n = x.n_slots
    return _move_circle(x, n, n, "psi", reflect=True)


def psi_ij(x, i, j):
    """Gluing between chart indices i < j: the circle slot moves from i+1 to
    j and its exponent is reflected, in one move.

    This equals chi(psi(chi_inv(x, i + 1)), j): the reflection reads only the
    total degree of the Toeplitz slots, which no relocation changes.
    """
    i, j = _index(i, "psi_ij: i"), _index(j, "psi_ij: j")
    if not 0 <= i < j <= x.n_slots:
        raise ValueError("psi_ij: need 0 <= i < j <= slot count")
    return _move_circle(x, i + 1, j, "psi_ij", reflect=True)


def psi_ij_inv(x, i, j):
    """Inverse of psi_ij: the circle slot moves from j back to i+1 and its
    exponent is reflected again, in one move."""
    i, j = _index(i, "psi_ij_inv: i"), _index(j, "psi_ij_inv: j")
    if not 0 <= i < j <= x.n_slots:
        raise ValueError("psi_ij_inv: need 0 <= i < j <= slot count")
    return _move_circle(x, j, i + 1, "psi_ij_inv", reflect=True)


def slot_symbol(x, k):
    """Slotwise symbol map: kill matrix units in slot k, shifts become circle monomials."""
    if x.circle_slot is not None:
        raise ValueError("slot_symbol expects pure Toeplitz slots")
    if not 1 <= k <= x.n_slots:
        raise ValueError("slot %r out of range" % k)

    def row(atoms):
        atom = atoms[k - 1]
        if atom[0] == "E":
            return None
        return atoms[: k - 1] + (("u", atom[1]),) + atoms[k:]

    return _rewrite(x, x.n_slots, k, row)


def lift_circle(x):
    """Linear section of the slotwise symbol: the circle slot becomes a shift slot."""
    k = x.circle_slot
    if k is None:
        raise ValueError("lift_circle expects a circle slot")
    return _rewrite(
        x, x.n_slots, None, lambda atoms: atoms[: k - 1] + (("T", atoms[k - 1][1]),) + atoms[k:]
    )


def project_slots(x, slots):
    """Drop every term carrying a matrix unit in one of the given slots.

    This is the canonical representative of the class of x modulo the sum
    of the slot kernels: the kernel of the symbol at slot s is spanned by
    the terms with a matrix unit in slot s.
    """
    slots = _toeplitz_slots(slots, x.shape, "project")
    return _rewrite(
        x,
        x.n_slots,
        x.circle_slot,
        lambda atoms: None if any(atoms[s - 1][0] == "E" for s in slots) else atoms,
    )


def slot_for(side, idx):
    """Slot in a tensor component at chart `side` that tracks chart index `idx`."""
    if side == idx:
        raise ValueError("a chart does not track its own index")
    return idx if idx > side else idx + 1


def glue(x, src, dst):
    """Component x at chart src, seen from chart dst.

    The symbol of x at the slot tracking dst, with the circle moved to the
    slot tracking src and reflected, in one move; both slots come from
    slot_for.  Two components at charts i and j agree when glue(comps[j],
    j, i) equals the symbol of comps[i] at slot_for(i, j).
    """
    s = slot_for(src, dst)
    return _move_circle(slot_symbol(x, s), s, slot_for(dst, src), "glue", reflect=True)


class QuotientClass:
    """Class of a pure Toeplitz tensor modulo two slot kernels.

    The representative is canonical: every term with a matrix unit in a
    killed slot is dropped, so class equality is representative equality.
    """

    __slots__ = ("rep", "killed")

    def __init__(self, rep, killed):
        a, b = killed
        if a == b:
            raise ValueError("killed slots must differ")
        self.rep = project_slots(rep, (a, b))
        self.killed = frozenset((a, b))

    def __eq__(self, other):
        if not isinstance(other, QuotientClass):
            return NotImplemented
        return self.killed == other.killed and self.rep == other.rep

    __hash__ = None

    def __repr__(self):
        return "QuotientClass(killed=%s, %r)" % (sorted(self.killed), self.rep)

    def to_json(self):
        return {"killed_slots": sorted(self.killed), "representative": self.rep.to_json()}


def transition_representative(x, i, j):
    """Raw chart transition on representatives, without canonicalization.

    Reads x as a component at chart j, glues it to chart i and lifts the
    circle slot back to a shift slot: the candidate component at chart i.
    """
    return lift_circle(glue(x, j, i))


def phi(cls, i, j, k):
    """Transition between quotient charts: the class over chart j, with the
    kernels of i and k removed, maps to the matching class over chart i.
    """
    n = cls.rep.n_slots
    indices = {i, j, k}
    if len(indices) != 3 or any(not 0 <= t <= n for t in indices):
        raise ValueError("need three distinct chart indices within range")
    expected = frozenset((slot_for(j, i), slot_for(j, k)))
    if cls.killed != expected:
        raise ValueError(
            "class kills slots %s, transition %d<-%d needs %s"
            % (sorted(cls.killed), i, j, sorted(expected))
        )
    y = transition_representative(cls.rep, i, j)
    return QuotientClass(y, (slot_for(i, j), slot_for(i, k)))


# Largest |degree| and matrix unit index that random_tensor_element draws.
RANDOM_BOUND = 3


def random_tensor_element(
    rng,
    n_slots,
    circle_slot=None,
    min_terms=1,
    max_terms=3,
    compact_slots=(),
):
    """Seeded random element: uniform degrees in [-RANDOM_BOUND, RANDOM_BOUND],
    matrix unit indices in [0, RANDOM_BOUND]^2, 1..3 terms by default.
    compact_slots forces a matrix unit in those slots of every term; each
    must be a Toeplitz slot, which is checked before the first draw.
    """
    shape = _shape(n_slots, circle_slot)
    n_slots, circle_slot = shape
    compact_slots = _toeplitz_slots(compact_slots, shape, "force a matrix unit in")
    b = RANDOM_BOUND
    pairs = []
    for _ in range(rng.randint(min_terms, max_terms)):
        atoms = []
        for pos in range(1, n_slots + 1):
            if pos == circle_slot:
                atoms.append(("u", rng.randint(-b, b)))
            elif pos in compact_slots or rng.random() >= 0.5:
                atoms.append(("E", rng.randint(0, b), rng.randint(0, b)))
            else:
                atoms.append(("T", rng.randint(-b, b)))
        pairs.append((tuple(atoms), sampling.random_nonzero_scalar(rng)))
    return TensorElement._trusted(collect(pairs), shape)


# The psi sweep's range: shift and circle degrees in [-3, 3] and matrix unit
# indices in [0, 3], so it covers 23^(n-1) * 7 atoms.
PSI_MAX_DEGREE = 3
PSI_MAX_INDEX = 3

# Non-ordered triples the cocycle check also runs: an ordered triple i < k < j
# glues only from a higher chart to a lower one, so these are the only
# triples that glue upward (src < dst).
COCYCLE_SPOT_TRIPLES = 2


def psi_involution_check(n, samples=1000, seed=DEFAULT_SEED):
    """Exhaustive atom sweep plus seeded random sweep of psi o psi = id.

    Works on tensors with n - 1 Toeplitz slots and a trailing circle slot,
    matching the gluing domain for the n-chart construction.
    """
    n, samples = _index(n, "n", 1), _index(samples, "samples", 0)
    failures = []
    checked = 0

    def check(x):
        nonlocal checked
        checked += 1
        if psi(psi(x)) != x:
            failures.append(x.to_json())

    degrees = range(-PSI_MAX_DEGREE, PSI_MAX_DEGREE + 1)
    atoms = [("T", a) for a in degrees] + [
        ("E", j, k) for j in range(PSI_MAX_INDEX + 1) for k in range(PSI_MAX_INDEX + 1)
    ]
    # every swept key is valid for the shape (n slots, circle at n), so
    # each atom tensor is built trusted
    shape = (n, n)
    for prefix in product(atoms, repeat=n - 1):
        for h in degrees:
            check(TensorElement._trusted({prefix + (("u", h),): ONE}, shape))
    rng = derived_rng(seed, "psi", n)
    for _ in range(samples):
        check(random_tensor_element(rng, n, circle_slot=n))
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
    i, j, k = _charts(n, i, j, k)
    samples = _index(samples, "samples", 1)
    a, b = min(i, j), max(i, j)
    predicted_slot = slot_for(a, k)
    failures = []
    for source, target in ((i, j), (j, i)):
        kernel_slot = slot_for(source, k)
        rng = derived_rng(seed, "kernel-image", n, i, j, k, source)
        for idx in range(samples):
            x = random_tensor_element(rng, n, compact_slots={kernel_slot})
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

    For each ordered triple i < k < j the identity phi_ij = phi_ik o phi_kj
    (with matching killed kernels) must hold exactly.  Those triples glue
    only from a higher chart to a lower one, so a couple of non-ordered
    triples are spot-checked as well: they are the only ones that glue
    upward.  Every sample also re-runs the raw pipeline on a representative
    perturbed by a kernel term, which certifies that class output does not
    depend on the choice of representative.  With fewer than three charts
    there is no triple, so n must be at least 2.
    """
    n, samples = _index(n, "n", 2), _index(samples, "samples", 1)
    triples = [(i, j, k) for i, k, j in combinations(range(n + 1), 3)]
    triples += islice(
        ((i, j, k) for i, j, k in permutations(range(n + 1), 3) if not i < k < j),
        COCYCLE_SPOT_TRIPLES,
    )
    failures = []
    for i, j, k in triples:
        rng = derived_rng(seed, "cocycle", n, i, j, k)
        for s in range(samples):
            x = random_tensor_element(rng, n)
            cls = QuotientClass(x, (slot_for(j, i), slot_for(j, k)))
            lhs = phi(cls, i, j, k)
            rhs = phi(phi(cls, k, j, i), i, k, j)
            if lhs != rhs:
                failures.append(
                    {"triple": [i, j, k], "sample": s, "reason": "cocycle violated"}
                )
                continue
            kernel_slot = min(cls.killed)
            noise = random_tensor_element(rng, n, compact_slots={kernel_slot})
            raw = transition_representative(x + noise, i, j)
            perturbed = QuotientClass(raw, (slot_for(i, j), slot_for(i, k)))
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
