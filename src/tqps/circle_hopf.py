"""Exact Gaussian rational scalars, and the sums of their terms.

Each Scalar component is an exact int or Fraction; no floating point
enters this module.  collect sums coefficients of repeated keys for
tensor_gluing.TensorElement, the one term map of tqps, and _render_terms
writes a sum of terms as text.

The circle algebra, Laurent polynomials in the unitary u, has no class of
its own: a circle function is a one-slot tensor whose slot is the circle
slot, TensorElement(1, circle_slot=1), a term map over the monomials
("u", m).  tensor_gluing.slot_symbol is the symbol map onto it and
lift_circle its linear section.
"""

from fractions import Fraction


def _frac(v):
    """v as an exact int or Fraction; raises ValueError, naming v, unless
    Fraction reads it (ints and Fractions return as they are)."""
    if type(v) is int or isinstance(v, Fraction):
        return v
    try:
        return Fraction(v)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("not an exact scalar component: %r" % (v,)) from None


def _scalar(re, im):
    """Scalar from components that are already exact ints or Fractions."""
    out = object.__new__(Scalar)
    out.re = re
    out.im = im
    return out


class Scalar:
    """Gaussian rational re + im*i; each component an exact int or Fraction.

    Only arithmetic between two Scalars and sampling.random_nonzero_scalar
    build through _scalar: the components of a sum, difference or product
    of exact ints and Fractions are exact already, and the sampler's are
    ints it drew.  A non-Scalar operand goes through coerce.
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
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # A real Scalar equals its int or Fraction, so it must hash like one.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return "Scalar(%s, %s)" % (self.re, self.im)

    def render(self):
        """Compact human form: 1, -2, i, 2i, 1/2, 1+2i, 3/2-i, and a
        fractional imaginary part in parentheses, (1/2)i or 1-(1/2)i."""
        if self.im == 0:
            return str(self.re)
        mag = abs(self.im)
        istr = "i" if mag == 1 else ("%si" if mag.denominator == 1 else "(%s)i") % mag
        sign = "+" if self.im > 0 else "-"
        if self.re == 0:
            return istr if sign == "+" else sign + istr
        return "%s%s%s" % (self.re, sign, istr)

    def to_json(self):
        return [
            self.re.numerator,
            self.re.denominator,
            self.im.numerator,
            self.im.denominator,
        ]


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

