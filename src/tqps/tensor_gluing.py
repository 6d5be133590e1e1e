"""Tensor powers of the Toeplitz model and the gluing machinery.

Elements of a tensor power are exact linear combinations of pure atom
tensors.  Each slot of a pure tensor holds one Toeplitz atom, a shift
("T", a) or a matrix unit ("E", j, k); at most one distinguished slot holds
a circle monomial ("u", m) instead.  Slot positions are 1-based throughout
the public surface.

The gauge grading gives every atom an integer degree (a for a shift,
j - k for a matrix unit, m for a circle monomial).  The diagonal circle
coaction appends a circle slot carrying the total degree, and the gluing
map psi acts on a tensor with a trailing circle slot by replacing the
circle exponent h with -(d + h) where d is the total degree of the other
slots.  That closed form makes psi an exact involution, which is the
unipotence property the verification suites exercise.

chi relocates the circle slot; psi_ij conjugates psi by relocations and is
the slot-accurate gluing between two chart indices.  The slotwise symbol
map turns a Toeplitz slot into a circle slot by killing matrix units, and
quotient classes modulo two slot kernels are canonicalized by dropping
every term with a matrix unit in a killed slot.  phi composes symbol,
gluing and section into the transition between two quotient charts; the
cocycle and kernel-image checks sample it.

On pure atom tensors each of these maps (chi, psi, the symbol, its
section, the projection and the coaction) only rewrites term keys, and
injectively, so all of them go through one relocation primitive,
_rewrite, which builds the result without validating it again.
"""

from functools import lru_cache

from .circle_hopf import ONE, Scalar, Terms, collect
from .toeplitz_core import ToeplitzElement
from .util import DEFAULT_SEED, derived_rng
from . import sampling


def atom_degree(atom):
    """Gauge degree of one atom."""
    kind = atom[0]
    if kind == "T":
        return atom[1]
    if kind == "E":
        return atom[1] - atom[2]
    if kind == "u":
        return atom[1]
    raise ValueError("unknown atom kind %r" % (atom,))


def _validate_atom(atom, is_circle):
    kind = atom[0]
    if is_circle:
        if kind != "u" or len(atom) != 2:
            raise ValueError("circle slot must hold a ('u', m) atom, got %r" % (atom,))
        return
    if kind == "T":
        if len(atom) != 2:
            raise ValueError("bad shift atom %r" % (atom,))
    elif kind == "E":
        if len(atom) != 3 or atom[1] < 0 or atom[2] < 0:
            raise ValueError("bad matrix unit atom %r" % (atom,))
    else:
        raise ValueError("Toeplitz slot must hold ('T', a) or ('E', j, k), got %r" % (atom,))


def _atom_to_toeplitz(atom):
    if atom[0] == "T":
        return ToeplitzElement.shift(atom[1])
    return ToeplitzElement.matrix_unit(atom[1], atom[2])


@lru_cache(maxsize=None)
def _mul_toeplitz_atoms(a, b):
    """Product of two Toeplitz atoms as a tuple of (atom, Scalar) terms.

    Delegates to the correction-formula product so the tensor algebra and
    the single-slot algebra can never drift apart.
    """
    prod = _atom_to_toeplitz(a) * _atom_to_toeplitz(b)
    return tuple(prod.atoms())


class TensorElement(Terms):
    """Exact linear combination of pure atom tensors of a fixed shape.

    The shape is (n_slots, circle_slot): n_slots counts all slots,
    circle_slot is the 1-based position of the distinguished circle slot or
    None.  Every key is an atom tuple that fits the shape.
    """

    __slots__ = ()

    def __init__(self, n_slots, circle_slot=None, terms=None):
        if n_slots < 1:
            raise ValueError("need at least one slot")
        if circle_slot is not None and not 1 <= circle_slot <= n_slots:
            raise ValueError("circle slot %r out of range" % circle_slot)
        super().__init__(terms, (n_slots, circle_slot))

    def _key(self, atoms):
        n_slots, circle_slot = self.shape
        atoms = tuple(atoms)
        if len(atoms) != n_slots:
            raise ValueError("term %r does not match %d slots" % (atoms, n_slots))
        for pos, atom in enumerate(atoms, start=1):
            _validate_atom(atom, pos == circle_slot)
        return atoms

    @property
    def n_slots(self):
        return self.shape[0]

    @property
    def circle_slot(self):
        return self.shape[1]

    @classmethod
    def zero(cls, n_slots, circle_slot=None):
        return cls(n_slots, circle_slot)

    @classmethod
    def one(cls, n_slots, circle_slot=None):
        atoms = tuple(
            ("u", 0) if (pos == circle_slot) else ("T", 0) for pos in range(1, n_slots + 1)
        )
        return cls(n_slots, circle_slot, {atoms: ONE})

    @classmethod
    def pure(cls, atoms, circle_slot=None, coeff=1):
        atoms = tuple(atoms)
        return cls(len(atoms), circle_slot, {atoms: coeff})

    def __mul__(self, other):
        """Slotwise product; Toeplitz slots expand through atom corrections."""
        self._check(other)
        n_slots, circle_slot = self.shape
        circle_index = None if circle_slot is None else circle_slot - 1
        pairs = []
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                alternatives = [((), c1 * c2)]
                for s in range(n_slots):
                    a, b = t1[s], t2[s]
                    if s == circle_index:
                        slot_terms = ((("u", a[1] + b[1]), ONE),)
                    else:
                        slot_terms = _mul_toeplitz_atoms(a, b)
                    alternatives = [
                        (prefix + (atom,), c * ac)
                        for prefix, c in alternatives
                        for atom, ac in slot_terms
                    ]
                pairs.extend(alternatives)
        return TensorElement._trusted(collect(pairs), self.shape)

    def term_degree(self, atoms):
        return sum(atom_degree(a) for a in atoms)

    __hash__ = None

    def __repr__(self):
        return "TensorElement(%d, circle=%r, %d terms)" % (
            self.n_slots,
            self.circle_slot,
            len(self.terms),
        )

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for atoms in sorted(self.terms):
            c = self.terms[atoms]
            cs = c.render()
            if c.re != 0 and c.im != 0:
                cs = "(%s)" % cs
            body = " & ".join(_render_atom(a) for a in atoms)
            parts.append(body if cs == "1" else "%s*(%s)" % (cs, body))
        return " + ".join(parts)

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
        terms = {}
        for row in data["terms"]:
            atoms = tuple(tuple(a) for a in row["atoms"])
            terms[atoms] = Scalar.from_json(row["coeff"])
        return cls(data["n_slots"], data["circle_slot"], terms)


def _render_atom(atom):
    if atom[0] == "T":
        if atom[1] == 0:
            return "1"
        return "z" if atom[1] == 1 else ("z*" if atom[1] == -1 else "T(u^%d)" % atom[1])
    if atom[0] == "E":
        return "E[%d,%d]" % (atom[1], atom[2])
    return "u^%d" % atom[1] if atom[1] != 1 else "u"


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
    be validated again.
    """
    terms = {}
    for atoms, c in x.terms.items():
        key = row(atoms)
        if key is not None:
            terms[key] = c
    return TensorElement._trusted(terms, (n_slots, circle_slot))


def diagonal_coaction(x):
    """Append a circle slot carrying the total gauge degree of each term."""
    if x.circle_slot is not None:
        raise ValueError("diagonal coaction expects pure Toeplitz slots")
    n = x.n_slots + 1
    return _rewrite(x, n, n, lambda atoms: atoms + (("u", x.term_degree(atoms)),))


def _move_circle(x, src, dst, reflect):
    """Move the circle atom from slot src to slot dst, keeping Toeplitz order.

    With reflect, the circle exponent h becomes -(d + h), d the total degree
    of the other slots; for a fixed Toeplitz part that is a bijection of h.
    """

    def row(atoms):
        rest = atoms[: src - 1] + atoms[src:]
        circle = atoms[src - 1]
        if reflect:
            circle = ("u", -(sum(atom_degree(a) for a in rest) + circle[1]))
        return rest[: dst - 1] + (circle,) + rest[dst - 1 :]

    return _rewrite(x, x.n_slots, dst, row)


def chi(x, j):
    """Relocate the trailing circle slot to position j, keeping Toeplitz order."""
    n = x.n_slots
    if x.circle_slot != n:
        raise ValueError("chi expects the circle slot at the back")
    if not 1 <= j <= n:
        raise ValueError("target slot %r out of range" % j)
    return _move_circle(x, n, j, reflect=False)


def chi_inv(x, j):
    """Relocate the circle slot from position j back to the end."""
    if x.circle_slot != j:
        raise ValueError("chi_inv expects the circle slot at position %r" % j)
    return _move_circle(x, j, x.n_slots, reflect=False)


def psi(x):
    """The gluing involution on tensors with a trailing circle slot.

    Replaces the circle exponent h of each term by -(d + h), d the total
    degree of the Toeplitz slots.  Applying it twice is the identity.
    """
    n = x.n_slots
    if x.circle_slot != n:
        raise ValueError("psi expects the circle slot at the back")
    return _move_circle(x, n, n, reflect=True)


def psi_ij(x, i, j):
    """Gluing between chart indices i < j: circle slot moves from i+1 to j."""
    if not 0 <= i < j <= x.n_slots:
        raise ValueError("need 0 <= i < j <= slot count")
    return chi(psi(chi_inv(x, i + 1)), j)


def psi_ij_inv(x, i, j):
    """Inverse of psi_ij: circle slot moves from j back to i+1."""
    if not 0 <= i < j <= x.n_slots:
        raise ValueError("need 0 <= i < j <= slot count")
    return chi(psi(chi_inv(x, j)), i + 1)


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
    slots = set(slots)
    for s in slots:
        if not 1 <= s <= x.n_slots or s == x.circle_slot:
            raise ValueError("cannot project slot %r" % s)
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


def quotient_class(x, kill_a, kill_b):
    return QuotientClass(x, (kill_a, kill_b))


def transition_representative(x, i, j):
    """Raw chart transition on representatives, without canonicalization.

    Reads x as a component at chart j, pushes it through symbol, gluing and
    section, and returns the candidate component at chart i.  Index order
    decides which direction of the gluing applies.
    """
    if i == j:
        raise ValueError("transition needs two distinct charts")
    if i < j:
        w = slot_symbol(x, i + 1)
        w = psi_ij(w, i, j)
    else:
        w = slot_symbol(x, i)
        w = psi_ij_inv(w, j, i)
    return lift_circle(w)


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


def random_tensor_element(
    rng,
    n_slots,
    circle_slot=None,
    min_terms=1,
    max_terms=3,
    max_degree=3,
    max_index=3,
    compact_slots=(),
    compact_only=False,
):
    """Seeded random element: uniform degrees in [-max_degree, max_degree],
    matrix unit indices in [0, max_index]^2, 1..3 terms by default.
    compact_slots forces a matrix unit in those slots of every term.
    """
    compact_slots = set(compact_slots)
    pairs = []
    for _ in range(rng.randint(min_terms, max_terms)):
        atoms = []
        for pos in range(1, n_slots + 1):
            if pos == circle_slot:
                atoms.append(("u", rng.randint(-max_degree, max_degree)))
            elif compact_only or pos in compact_slots:
                atoms.append(("E", rng.randint(0, max_index), rng.randint(0, max_index)))
            else:
                if rng.random() < 0.5:
                    atoms.append(("T", rng.randint(-max_degree, max_degree)))
                else:
                    atoms.append(("E", rng.randint(0, max_index), rng.randint(0, max_index)))
        pairs.append((tuple(atoms), sampling.random_nonzero_scalar(rng)))
    return TensorElement(n_slots, circle_slot, collect(pairs))


def _enumerate_atoms(max_degree, max_index, circle):
    if circle:
        return [("u", h) for h in range(-max_degree, max_degree + 1)]
    atoms = [("T", a) for a in range(-max_degree, max_degree + 1)]
    atoms += [
        ("E", j, k) for j in range(max_index + 1) for k in range(max_index + 1)
    ]
    return atoms


def psi_involution_check(n, samples=1000, seed=DEFAULT_SEED, max_degree=3, max_index=3):
    """Exhaustive atom sweep plus seeded random sweep of psi o psi = id.

    Works on tensors with n - 1 Toeplitz slots and a trailing circle slot,
    matching the gluing domain for the n-chart construction.
    """
    if samples < 0:
        raise ValueError("samples must be at least 0")
    failures = []
    checked = 0

    def check(x):
        nonlocal checked
        checked += 1
        if psi(psi(x)) != x:
            failures.append(x.to_json())

    slots = n - 1

    def sweep(prefix):
        if len(prefix) == slots:
            for h in range(-max_degree, max_degree + 1):
                check(TensorElement.pure(tuple(prefix) + (("u", h),), circle_slot=n))
            return
        for atom in _enumerate_atoms(max_degree, max_index, circle=False):
            sweep(prefix + [atom])

    sweep([])
    rng = derived_rng(seed, "psi", n)
    for _ in range(samples):
        check(random_tensor_element(rng, n, circle_slot=n, max_degree=max_degree))
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


def _apply_chart_projection(x, source, target):
    """pi from the component at chart `source` toward chart `target`."""
    if source < target:
        return slot_symbol(x, target)
    return psi_ij(slot_symbol(x, target + 1), target, source)


def kernel_image_check(n, i, j, k, samples=50, seed=DEFAULT_SEED):
    """Sampled check that both chart projections push the k-kernel of their
    source onto the same target ideal.

    For each sampled kernel generator the image must keep its matrix unit in
    the slot the exchange identity predicts; the report lists any term that
    lands elsewhere.
    """
    if len({i, j, k}) != 3 or any(not 0 <= t <= n for t in (i, j, k)):
        raise ValueError("need three distinct chart indices within range")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    a, b = min(i, j), max(i, j)
    predicted_slot = slot_for(a, k)
    failures = []
    for source, target in ((i, j), (j, i)):
        kernel_slot = slot_for(source, k)
        rng = derived_rng(seed, "kernel-image", n, i, j, k, source)
        for idx in range(samples):
            x = random_tensor_element(rng, n, compact_slots={kernel_slot})
            image = _apply_chart_projection(x, source, target)
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


def cocycle_check(n, samples=100, seed=DEFAULT_SEED, extra_triples=2):
    """Sampled check of the transition cocycle on quotient classes.

    For each ordered triple i < k < j the identity phi_ij = phi_ik o phi_kj
    (with matching killed kernels) must hold exactly; a couple of non-ordered
    triples are spot-checked through the inverse branch as well.  Every
    sample also re-runs the raw pipeline on a representative perturbed by a
    kernel term, which certifies that class output does not depend on the
    choice of representative.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    triples = []
    idx = list(range(n + 1))
    for i in idx:
        for k in idx:
            for j in idx:
                if i < k < j:
                    triples.append((i, j, k))
    spot = []
    for i in idx:
        for j in idx:
            for k in idx:
                if len({i, j, k}) == 3 and not (i < k < j) and len(spot) < extra_triples:
                    spot.append((i, j, k))
    failures = []
    for i, j, k in triples + spot:
        rng = derived_rng(seed, "cocycle", n, i, j, k)
        for s in range(samples):
            x = random_tensor_element(rng, n)
            cls = quotient_class(x, slot_for(j, i), slot_for(j, k))
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
        "triples": [list(t) for t in triples + spot],
        "samples": samples,
        "seed": seed,
        "failures": failures,
        "passed": not failures,
    }
