"""Exact model of the circle Hopf algebra, and the term map every exact
linear combination in tqps is built on.

Laurent polynomials over Gaussian rationals stand in for the dense subalgebra
of functions on the unit circle generated by the unitary u and its inverse.
The antipode sends u to u^-1 and the counit sends u to 1; the coproduct
u -> u (x) u is not modelled, since no check reads it.  Each Scalar
component is an exact int or Fraction; no floating point enters this
module.

Terms is the one representation of a finite sum of basis keys with
nonzero Scalar coefficients: circle polynomials here, Toeplitz elements
over their shift and matrix-unit atoms, and the tensor powers built on
those atoms.  collect is its one way to sum coefficients of repeated keys.
"""

from fractions import Fraction
from itertools import chain

from .util import _index


def _frac(v):
    if type(v) is int or isinstance(v, Fraction):
        return v
    return Fraction(v)


def _scalar(re, im):
    """Scalar from components that are already exact ints or Fractions."""
    out = object.__new__(Scalar)
    out.re = re
    out.im = im
    return out


class Scalar:
    """Gaussian rational re + im*i; each component an exact int or Fraction.

    Arithmetic between two Scalars builds its result through _scalar,
    since the components of a sum, difference or product of exact ints
    and Fractions are exact already; only a non-Scalar operand goes
    through coerce.
    """

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
        if not isinstance(other, Scalar):
            other = Scalar.coerce(other)
        return _scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            other = Scalar.coerce(other)
        return _scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return Scalar.coerce(other) - self

    def __neg__(self):
        return _scalar(-self.re, -self.im)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            other = Scalar.coerce(other)
        return _scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            other = Scalar.coerce(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return _scalar(
            Fraction(self.re * other.re + self.im * other.im, norm),
            Fraction(self.im * other.re - self.re * other.im, norm),
        )

    def __rtruediv__(self, other):
        return Scalar.coerce(other) / self

    def conjugate(self):
        return _scalar(self.re, -self.im)

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
        """Scalar of a [re num, re den, im num, im den] row; a row of
        other than four integers, or with a zero denominator, raises
        ValueError."""
        if not isinstance(data, (list, tuple)) or len(data) != 4:
            raise ValueError("a Scalar row holds four integers, got %r" % (data,))
        rn, rd, in_, id_ = (_index(v, "Scalar entry") for v in data)
        if rd == 0 or id_ == 0:
            raise ValueError("zero denominator in Scalar row %r" % (data,))
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


def _render_power(m):
    """u^m as text: 1, u or u^m."""
    return "1" if m == 0 else "u" if m == 1 else "u^%d" % m


def _render_terms(pairs):
    """Sum of (name, Scalar) terms as text, "0" when empty.

    A term reads name, -name or c*name, with c in parentheses when it has
    both a real and an imaginary part; the name "1" reads as c alone.
    """
    parts = []
    for name, c in pairs:
        cs = c.render()
        if c.re and c.im:
            cs = "(%s)" % cs
        if name == "1":
            parts.append(cs)
        elif cs in ("1", "-1"):
            parts.append(cs[:-1] + name)
        else:
            parts.append("%s*%s" % (cs, name))
    return " + ".join(parts) or "0"


class Terms:
    """Exact linear combination of basis keys: `terms` maps each key to its
    nonzero Scalar coefficient, so equal term maps are equal elements.

    A subclass fixes its keys through _key, which validates one key and
    returns it normalized, and may carry a `shape` that only elements of
    the same shape combine with.  Equality reads (type, shape, terms).
    The constructor takes a mapping of key to coefficient or an iterable
    of (key, coefficient) pairs; each key is validated before it is
    hashed, so a malformed key raises ValueError, not TypeError.
    """

    __slots__ = ("shape", "terms")

    def __init__(self, terms=None, shape=()):
        self.shape = shape
        pairs = terms.items() if hasattr(terms, "items") else terms or ()
        self.terms = collect((self._key(key), Scalar.coerce(c)) for key, c in pairs)

    def _key(self, key):
        raise NotImplementedError

    @classmethod
    def _trusted(cls, terms, shape=()):
        """Element holding `terms` as given, built without __init__.

        Sound only when every key is already valid for the shape and every
        coefficient nonzero.  The paths that build this way, and what makes
        each sound:
        - arithmetic (+, -, scale and the products): keys of validated
          operands, merged through collect;
        - the single-slot maps of toeplitz_core (from_symbol, symbol,
          adjoint, homogeneous_parts): keys of a validated element, mapped
          injectively onto valid keys or split by degree;
        - the relocation maps of tensor_gluing, through _rewrite: a map
          injective on the keys of a validated tensor, onto valid keys;
        - TensorElement.zero and random_tensor_element: a shape checked up
          front, keys built from valid atoms and merged through collect;
        - the atom tensors of psi_involution_check: keys valid for the
          swept shape, one per tensor;
        - the candidate component of multipullback.extend: keys lifted
          from relocated constraints, none merged by addition.
        Everything else (the constructor, and TensorElement.pure, one and
        from_json) validates every key through _key.
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
        return _index(degree, "degree")

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
        self._check(other)
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

    def render(self):
        """Human form like "3*u^-2 + (1+2i)*u^5"."""
        return _render_terms((_render_power(d), c) for d, c in sorted(self.terms.items()))

    def to_json(self):
        return {str(d): c.to_json() for d, c in sorted(self.terms.items())}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict):
            raise ValueError("a CirclePoly is an object of degree to Scalar row, got %r" % (data,))
        return cls({int(d): Scalar.from_json(v) for d, v in data.items()})
