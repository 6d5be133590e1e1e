"""Exact model of the circle Hopf algebra, and the term map every exact
linear combination in tqps is built on.

Laurent polynomials over Gaussian rationals stand in for the dense subalgebra
of functions on the unit circle generated by the unitary u and its inverse.
The Hopf structure is fixed on the generator: the coproduct sends u to
u (x) u, the antipode sends u to u^-1 and the counit sends u to 1.  Each
Scalar component is an exact int or Fraction; no floating point enters
this module.

Terms is the one representation of a finite sum of basis keys with
nonzero Scalar coefficients: circle polynomials and tensors here, the
finite-rank parts of the Toeplitz model and the tensor powers built on
them.  collect is its one way to sum coefficients of repeated keys.
"""

from fractions import Fraction
from itertools import chain


def _frac(v):
    if type(v) is int or isinstance(v, Fraction):
        return v
    return Fraction(v)


class Scalar:
    """Gaussian rational re + im*i; each component an exact int or Fraction."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    @classmethod
    def coerce(cls, v):
        if isinstance(v, Scalar):
            return v
        return cls(v)

    def __add__(self, other):
        other = Scalar.coerce(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = Scalar.coerce(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        other = Scalar.coerce(other)
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.coerce(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar(
            Fraction(self.re * other.re + self.im * other.im, norm),
            Fraction(self.im * other.re - self.re * other.im, norm),
        )

    def conjugate(self):
        return Scalar(self.re, -self.im)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # A real Scalar equals its int or Fraction, so it must hash like one.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return "Scalar(%s, %s)" % (self.re, self.im)

    def render(self):
        """Compact human form: 1, -2, i, 2i, 1/2, 1+2i, 3/2-i."""
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return "%si" % self.im
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else "%si" % mag
        return "%s%s%s" % (self.re, sign, istr)

    def to_json(self):
        return [
            self.re.numerator,
            self.re.denominator,
            self.im.numerator,
            self.im.denominator,
        ]

    @classmethod
    def from_json(cls, data):
        rn, rd, in_, id_ = data
        return cls(Fraction(rn, rd), Fraction(in_, id_))


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def collect(pairs):
    """Term map of (key, Scalar) pairs: the coefficients of a repeated key
    summed, zero coefficients dropped.  Adds only when a key repeats."""
    out = {}
    for key, c in pairs:
        if key in out:
            out[key] = out[key] + c
        else:
            out[key] = c
    return {key: c for key, c in out.items() if c}


class Terms:
    """Exact linear combination of basis keys: `terms` maps each key to its
    nonzero Scalar coefficient, so equal term maps are equal elements.

    A subclass fixes its keys through _key, which validates one key and
    returns it normalized, and may carry a `shape` that only elements of
    the same shape combine with.  Equality reads (type, shape, terms).
    """

    __slots__ = ("shape", "terms")

    def __init__(self, terms=None, shape=()):
        self.shape = shape
        self.terms = collect(
            (self._key(key), Scalar.coerce(c)) for key, c in (terms or {}).items()
        )

    def _key(self, key):
        raise NotImplementedError

    @classmethod
    def _trusted(cls, terms, shape=()):
        """Element holding `terms` as given, built without __init__.

        Sound only when every key is already valid for the shape and every
        coefficient nonzero: keys from validated operands, either merged
        through collect or sent through a map that is injective on them.
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

    def __hash__(self):
        # The type is left out: hashing a class reads its address, which
        # would make the hash differ from run to run.
        return hash((self.shape, frozenset(self.terms.items())))

    def __repr__(self):
        return "%s(%r)" % (
            type(self).__name__,
            {key: (c.re, c.im) for key, c in sorted(self.terms.items())},
        )


class CirclePoly(Terms):
    """Laurent polynomial sum_n c_n u^n with Gaussian rational coefficients,
    stored as a degree -> Scalar term map."""

    __slots__ = ()

    def _key(self, degree):
        return int(degree)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: ONE})

    @classmethod
    def monomial(cls, degree, coeff=1):
        return cls({degree: coeff})

    def degrees(self):
        return sorted(self.terms)

    def coeff(self, degree):
        return self.terms.get(degree, ZERO)

    def __mul__(self, other):
        return CirclePoly._trusted(
            collect(
                (d1 + d2, c1 * c2)
                for d1, c1 in self.terms.items()
                for d2, c2 in other.terms.items()
            )
        )

    def antipode(self):
        """Degree reflection, u^n -> u^-n."""
        return CirclePoly._trusted({-d: c for d, c in self.terms.items()})

    def star(self):
        """Adjoint of a circle function: conjugate coefficients, reflect degree."""
        return CirclePoly._trusted({-d: c.conjugate() for d, c in self.terms.items()})

    def counit(self):
        """Evaluation at the identity of the circle: sum of coefficients."""
        return sum(self.terms.values(), ZERO)

    def comul(self):
        """Coproduct; u^n is grouplike, so each monomial doubles its degree slot."""
        return CircleTensor._trusted({(d, d): c for d, c in self.terms.items()})

    def render(self):
        """Human form like "3*u^-2 + (1+2i)*u^5"."""
        if not self.terms:
            return "0"
        parts = []
        for deg in sorted(self.terms):
            c = self.terms[deg]
            cs = c.render()
            if c.re != 0 and c.im != 0:
                cs = "(%s)" % cs
            if deg == 0:
                parts.append(cs)
                continue
            power = "u" if deg == 1 else "u^%d" % deg
            if cs == "1":
                parts.append(power)
            elif cs == "-1":
                parts.append("-%s" % power)
            else:
                parts.append("%s*%s" % (cs, power))
        return " + ".join(parts)

    def to_json(self):
        return {str(d): c.to_json() for d, c in sorted(self.terms.items())}

    @classmethod
    def from_json(cls, data):
        return cls({int(d): Scalar.from_json(v) for d, v in data.items()})


class CircleTensor(Terms):
    """Formal sum of pure tensors u^m (x) u^n, keyed by degree pair.

    Just enough structure to state the Hopf axioms: componentwise product,
    legwise antipode and counit, and multiplication of the two legs.
    """

    __slots__ = ()
    __hash__ = None

    def _key(self, key):
        return (int(key[0]), int(key[1]))

    def __mul__(self, other):
        return CircleTensor._trusted(
            collect(
                ((m1 + m2, n1 + n2), c1 * c2)
                for (m1, n1), c1 in self.terms.items()
                for (m2, n2), c2 in other.terms.items()
            )
        )

    def apply_antipode(self, leg):
        if leg not in (0, 1):
            raise ValueError("leg must be 0 or 1")
        return CircleTensor._trusted(
            {((-m, n) if leg == 0 else (m, -n)): c for (m, n), c in self.terms.items()}
        )

    def multiply_legs(self):
        """Collapse u^m (x) u^n to u^(m+n)."""
        return CirclePoly._trusted(collect((m + n, c) for (m, n), c in self.terms.items()))

    def counit_leg(self, leg):
        """Apply the counit on one leg, leaving a CirclePoly in the other."""
        if leg not in (0, 1):
            raise ValueError("leg must be 0 or 1")
        return CirclePoly._trusted(collect((key[1 - leg], c) for key, c in self.terms.items()))
