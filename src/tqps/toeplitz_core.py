"""Exact dense model of the Toeplitz algebra.

An element is a banded shift polynomial plus a finite-rank matrix: the pair
(f, K) stands for the operator T(f) + K on the Hilbert space with basis
e_0, e_1, ..., where T(f) has matrix T(f)[j, k] = f_{j-k} and K is supported
on finitely many entries E_{jk}.  The product of two shift polynomials picks
up a finite lower-left correction,

    (T(f) T(g))[j, k] - T(fg)[j, k] = - sum_{l <= -1} f_{j-l} g_{l-k},

which is what keeps the model closed under multiplication.  The symbol map
(f, K) -> f, read off as `.symbol`, kills the finite-rank part and is the
quotient onto the circle algebra; ToeplitzElement(f) is its linear section
f -> (f, 0), deliberately not multiplicative: T(u) T(u^-1) = 1 - E_00.

The gauge circle action rotates the shift: T(u^a) has degree a and E_{jk}
has degree j - k, and homogeneous_parts splits an element by that degree,
the pieces the coaction tags with the matching circle monomial.
"""

from .circle_hopf import CirclePoly, Scalar, Terms, _index, collect


class CompactPart(Terms):
    """Finite-rank matrix, a (row, col) -> Scalar term map over non-negative indices."""

    __slots__ = ()

    def _key(self, key):
        j, k = key
        j, k = _index(j, "matrix unit index"), _index(k, "matrix unit index")
        if j < 0 or k < 0:
            raise ValueError("matrix unit indices must be non-negative")
        return (j, k)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def unit(cls, j, k, coeff=1):
        return cls({(j, k): coeff})

    def matmul(self, other):
        return CompactPart._trusted(
            collect(
                ((j, k), c1 * c2)
                for (j, l), c1 in self.terms.items()
                for (l2, k), c2 in other.terms.items()
                if l == l2
            )
        )

    def adjoint(self):
        return CompactPart._trusted({(k, j): c.conjugate() for (j, k), c in self.terms.items()})

    def support_bound(self):
        """Smallest d with all entries inside the top-left d x d block."""
        if not self.terms:
            return 0
        return 1 + max(max(j, k) for j, k in self.terms)


class ToeplitzElement:
    """Pair (symbol, compact) representing T(symbol) + compact."""

    __slots__ = ("symbol", "compact")

    def __init__(self, symbol=None, compact=None):
        self.symbol = symbol if symbol is not None else CirclePoly.zero()
        self.compact = compact if compact is not None else CompactPart.zero()

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls(CirclePoly.one())

    @classmethod
    def shift(cls, degree, coeff=1):
        """The pure shift atom T(u^degree)."""
        return cls(CirclePoly.monomial(degree, coeff))

    @classmethod
    def z(cls):
        return cls.shift(1)

    @classmethod
    def z_star(cls):
        return cls.shift(-1)

    @classmethod
    def matrix_unit(cls, j, k, coeff=1):
        return cls(compact=CompactPart.unit(j, k, coeff))

    def is_zero(self):
        return self.symbol.is_zero() and self.compact.is_zero()

    def __add__(self, other):
        return ToeplitzElement(self.symbol + other.symbol, self.compact + other.compact)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ToeplitzElement(-self.symbol, -self.compact)

    def scale(self, scalar):
        return ToeplitzElement(self.symbol.scale(scalar), self.compact.scale(scalar))

    def __mul__(self, other):
        """Product via the correction identity, never via matrix truncation."""
        f, kx = self.symbol, self.compact
        g, ky = other.symbol, other.compact
        compact = _hankel_correction(f, g)
        compact = compact + _shift_times_compact(f, ky)
        compact = compact + _compact_times_shift(kx, g)
        compact = compact + kx.matmul(ky)
        return ToeplitzElement(f * g, compact)

    def adjoint(self):
        return ToeplitzElement(self.symbol.star(), self.compact.adjoint())

    def atoms(self):
        """Basis view: the unique expansion into shift and matrix-unit atoms.

        Yields (atom, Scalar) pairs with atoms encoded ("T", a) or ("E", j, k).
        """
        for deg, c in sorted(self.symbol.terms.items()):
            yield ("T", deg), c
        for (j, k), c in sorted(self.compact.terms.items()):
            yield ("E", j, k), c

    def homogeneous_parts(self):
        """Split by gauge degree: T(u^a) has degree a, E_{jk} degree j - k."""
        parts = {}
        for atom, c in self.atoms():
            if atom[0] == "T":
                deg = atom[1]
                piece = ToeplitzElement.shift(atom[1], c)
            else:
                deg = atom[1] - atom[2]
                piece = ToeplitzElement.matrix_unit(atom[1], atom[2], c)
            parts[deg] = parts.get(deg, ToeplitzElement.zero()) + piece
        return {d: p for d, p in parts.items() if not p.is_zero()}

    def __eq__(self, other):
        if not isinstance(other, ToeplitzElement):
            return NotImplemented
        return self.symbol == other.symbol and self.compact == other.compact

    def __hash__(self):
        return hash((self.symbol, self.compact))

    def __repr__(self):
        return "ToeplitzElement(symbol=%r, compact=%r)" % (self.symbol, self.compact)

    def render(self):
        parts = []
        for atom, c in self.atoms():
            cs = c.render()
            if c.re != 0 and c.im != 0:
                cs = "(%s)" % cs
            if atom[0] == "T":
                name = "1" if atom[1] == 0 else ("u" if atom[1] == 1 else "u^%d" % atom[1])
                name = "T(%s)" % name
            else:
                name = "E[%d,%d]" % (atom[1], atom[2])
            parts.append(name if cs == "1" else "%s*%s" % (cs, name))
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return {
            "symbol": self.symbol.to_json(),
            "compact": [[j, k, c.to_json()] for (j, k), c in sorted(self.compact.terms.items())],
        }

    @classmethod
    def from_json(cls, data):
        symbol = CirclePoly.from_json(data["symbol"])
        compact = CompactPart({(j, k): Scalar.from_json(c) for j, k, c in data["compact"]})
        return cls(symbol, compact)


def _hankel_correction(f, g):
    """The finite matrix H with (T(f) T(g))  =  T(fg) + H.

    H[j, k] = - sum over l <= -1 of f_{j-l} g_{l-k}; for monomial degrees
    a, b the index l runs over max(-a, b) <= l <= -1.
    """
    return CompactPart._trusted(
        collect(
            ((a + l, l - b), -(ca * cb))
            for a, ca in f.terms.items()
            for b, cb in g.terms.items()
            for l in range(max(-a, b), 0)
        )
    )


def _shift_times_compact(f, k_part):
    """T(f) K: the shift moves rows, entries falling off the top vanish."""
    return CompactPart._trusted(
        collect(
            ((j + a, k), ca * c)
            for a, ca in f.terms.items()
            for (j, k), c in k_part.terms.items()
            if j + a >= 0
        )
    )


def _compact_times_shift(k_part, g):
    """K T(g): the shift moves columns, entries falling off the left vanish."""
    return CompactPart._trusted(
        collect(
            ((j, k - b), c * cb)
            for (j, k), c in k_part.terms.items()
            for b, cb in g.terms.items()
            if k - b >= 0
        )
    )
