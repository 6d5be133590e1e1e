"""Exact dense model of the Toeplitz algebra.

An element is a finite sum of atoms, the same atoms the slots of a tensor
power hold (tensor_gluing): a shift ("T", a) stands for T(u^a), with
matrix T(u^a)[j, k] = 1 when j - k = a, on the Hilbert space with basis
e_0, e_1, ..., and a matrix unit ("E", j, k) for E_{jk}, with j, k >= 0.
atom_product multiplies two atoms.  The product of two shifts picks up a
finite lower-left correction,

    T(u^a) T(u^b) = T(u^(a+b)) - sum over max(-a, b) <= l <= -1 of E_{a+l, l-b},

which is what keeps the model closed under multiplication.  The symbol
map, read off as `.symbol`, kills the matrix units and is the quotient onto
the circle algebra; ToeplitzElement.from_symbol(f) is its linear section
f -> T(f), deliberately not multiplicative: T(u) T(u^-1) = 1 - E_00.

The gauge circle action rotates the shift: atom_degree gives T(u^a)
degree a and E_{jk} degree j - k, and homogeneous_parts splits an element
by that degree, the pieces the coaction tags with the matching circle
monomial.  A tensor's circle slot holds a circle monomial ("u", m) of
degree m; _validate_atom is the one check of all three atom kinds.
"""

from .circle_hopf import CirclePoly, Scalar, Terms, _render_power, _render_terms, collect
from .util import _index


def atom_degree(atom):
    """Gauge degree of one atom."""
    kind = atom[0]
    if kind == "E":
        return atom[1] - atom[2]
    if kind in ("T", "u"):
        return atom[1]
    raise ValueError("unknown atom kind %r" % (atom,))


# Length of each atom kind's tuple: its tag and its int entries.
_ATOM_LENGTHS = {"T": 2, "E": 3, "u": 2}


def _validate_atom(atom, is_circle=False):
    """The atom as a tuple of its kind and int entries; raises ValueError
    unless it fits a circle slot (is_circle) as ("u", m), or a Toeplitz
    slot as ("T", a) or ("E", j, k) with j, k >= 0."""
    kind = atom[0] if isinstance(atom, tuple) and atom and isinstance(atom[0], str) else None
    if kind not in _ATOM_LENGTHS or (kind == "u") != is_circle or len(atom) != _ATOM_LENGTHS[kind]:
        raise ValueError("not a %s atom: %r" % ("circle" if is_circle else "Toeplitz", atom))
    atom = (kind,) + tuple(_index(v, "atom entry") for v in atom[1:])
    if kind == "E" and (atom[1] < 0 or atom[2] < 0):
        raise ValueError("matrix unit indices must be non-negative, got %r" % (atom,))
    return atom


def _render_atom(atom):
    """One atom as text: T(1), T(u), T(u^-1), E[j,k], or u^m in a circle slot."""
    if atom[0] == "T":
        return "T(%s)" % _render_power(atom[1])
    if atom[0] == "E":
        return "E[%d,%d]" % (atom[1], atom[2])
    return _render_power(atom[1])


def _json_key(row):
    """A key read from JSON: its lists as tuples at every depth.  Anything
    else is left as it is, for the element's _key to reject."""
    return tuple(_json_key(v) for v in row) if isinstance(row, list) else row


def _json_fields(doc, *keys):
    """The values of the given keys of a JSON object, in order; anything
    else, or an object missing one of them, raises ValueError."""
    if not isinstance(doc, dict) or not all(k in doc for k in keys):
        raise ValueError("expected an object with %s, got %r" % (", ".join(keys), doc))
    return tuple(doc[k] for k in keys)


def _json_rows(rows, *keys):
    """_json_fields of each object in the JSON list rows; anything else
    raises ValueError."""
    if not isinstance(rows, list):
        raise ValueError("expected a list of rows, got %r" % (rows,))
    return [_json_fields(row, *keys) for row in rows]


def atom_product(a, b):
    """Product of two Toeplitz atoms as a list of (atom, sign) terms, each
    sign 1 or -1.

    Two shifts multiply with the lower-left correction of the module
    docstring.  A shift on the left moves the rows of a matrix unit, one on
    the right moves its columns, and an entry pushed past the corner
    vanishes; two matrix units multiply as matrices.
    """
    if a[0] == "T":
        if b[0] == "T":
            x, y = a[1], b[1]
            return [(("T", x + y), 1)] + [(("E", x + l, l - y), -1) for l in range(max(-x, y), 0)]
        j = a[1] + b[1]
        return [(("E", j, b[2]), 1)] if j >= 0 else []
    if b[0] == "T":
        k = a[2] - b[1]
        return [(("E", a[1], k), 1)] if k >= 0 else []
    return [(("E", a[1], b[2]), 1)] if a[2] == b[1] else []


class ToeplitzElement(Terms):
    """T(f) + K as a term map over atoms: shift ("T", a) -> the coefficient
    of u^a in f, matrix unit ("E", j, k) -> the entry K[j, k]."""

    __slots__ = ()

    def _key(self, atom):
        return _validate_atom(atom)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.shift(0)

    @classmethod
    def shift(cls, degree, coeff=1):
        """The pure shift atom T(u^degree)."""
        return cls({("T", degree): coeff})

    @classmethod
    def z(cls):
        return cls.shift(1)

    @classmethod
    def z_star(cls):
        return cls.shift(-1)

    @classmethod
    def matrix_unit(cls, j, k, coeff=1):
        return cls({("E", j, k): coeff})

    @classmethod
    def from_symbol(cls, f):
        """T(f): the linear section of the symbol map."""
        return cls._trusted({("T", d): c for d, c in f.terms.items()})

    @property
    def symbol(self):
        """The image in the circle algebra: the shifts' coefficients by degree."""
        return CirclePoly._trusted(
            {atom[1]: c for atom, c in self.terms.items() if atom[0] == "T"}
        )

    def __mul__(self, other):
        """Product atom by atom through atom_product, never via matrix truncation."""
        self._check(other)
        terms = []
        for a, c1 in self.terms.items():
            for b, c2 in other.terms.items():
                product = atom_product(a, b)
                if product:
                    c = c1 * c2
                    terms.extend((atom, c if sign > 0 else -c) for atom, sign in product)
        return ToeplitzElement._trusted(collect(terms))

    def adjoint(self):
        """T(u^a)* = T(u^-a) and E_{jk}* = E_{kj}, coefficients conjugated."""
        return ToeplitzElement._trusted(
            {
                (("T", -atom[1]) if atom[0] == "T" else ("E", atom[2], atom[1])): c.conjugate()
                for atom, c in self.terms.items()
            }
        )

    def atoms(self):
        """The (atom, Scalar) terms, shifts by degree and then matrix units
        by index: the unique expansion into shift and matrix-unit atoms."""
        return sorted(self.terms.items(), key=lambda term: (term[0][0] != "T", term[0]))

    def homogeneous_parts(self):
        """Split by gauge degree: T(u^a) has degree a, E_{jk} degree j - k."""
        parts = {}
        for atom, c in self.terms.items():
            parts.setdefault(atom_degree(atom), {})[atom] = c
        return {d: ToeplitzElement._trusted(terms) for d, terms in parts.items()}

    def render(self):
        return _render_terms((_render_atom(atom), c) for atom, c in self.atoms())

    def to_json(self):
        return [{"atom": list(atom), "coeff": c.to_json()} for atom, c in self.atoms()]

    @classmethod
    def from_json(cls, data):
        rows = _json_rows(data, "atom", "coeff")
        return cls([(_json_key(atom), Scalar.from_json(c)) for atom, c in rows])
