"""Exact model of the circle Hopf algebra.

Laurent polynomials over Gaussian rationals stand in for the dense subalgebra
of functions on the unit circle generated by the unitary u and its inverse.
The Hopf structure is fixed on the generator: the coproduct sends u to
u (x) u, the antipode sends u to u^-1 and the counit sends u to 1.  Every
coefficient is an exact Fraction pair; no floating point enters this module.
"""

from fractions import Fraction


def _frac(v):
    return v if isinstance(v, Fraction) else Fraction(v)


class Scalar:
    """Gaussian rational re + im*i with exact components."""

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
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
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


class CirclePoly:
    """Laurent polynomial sum_n c_n u^n with Gaussian rational coefficients.

    Stored as a degree -> Scalar map with zero coefficients dropped, which
    makes equality and hashing canonical.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for deg, c in coeffs.items():
                c = Scalar.coerce(c)
                if c:
                    clean[int(deg)] = c
        self.coeffs = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: ONE})

    @classmethod
    def monomial(cls, degree, coeff=1):
        return cls({degree: Scalar.coerce(coeff)})

    def is_zero(self):
        return not self.coeffs

    def degrees(self):
        return sorted(self.coeffs)

    def coeff(self, degree):
        return self.coeffs.get(degree, ZERO)

    def __add__(self, other):
        out = dict(self.coeffs)
        for deg, c in other.coeffs.items():
            out[deg] = out.get(deg, ZERO) + c
        return CirclePoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CirclePoly({d: -c for d, c in self.coeffs.items()})

    def scale(self, scalar):
        scalar = Scalar.coerce(scalar)
        return CirclePoly({d: c * scalar for d, c in self.coeffs.items()})

    def __mul__(self, other):
        out = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                out[d] = out.get(d, ZERO) + c1 * c2
        return CirclePoly(out)

    def antipode(self):
        """Degree reflection, u^n -> u^-n."""
        return CirclePoly({-d: c for d, c in self.coeffs.items()})

    def star(self):
        """Adjoint of a circle function: conjugate coefficients, reflect degree."""
        return CirclePoly({-d: c.conjugate() for d, c in self.coeffs.items()})

    def counit(self):
        """Evaluation at the identity of the circle: sum of coefficients."""
        total = ZERO
        for c in self.coeffs.values():
            total = total + c
        return total

    def comul(self):
        """Coproduct; u^n is grouplike, so each monomial doubles its degree slot."""
        return CircleTensor({(d, d): c for d, c in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, CirclePoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        return "CirclePoly(%r)" % {d: (c.re, c.im) for d, c in sorted(self.coeffs.items())}

    def render(self):
        """Human form like "3*u^-2 + (1+2i)*u^5"."""
        if not self.coeffs:
            return "0"
        parts = []
        for deg in sorted(self.coeffs):
            c = self.coeffs[deg]
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
        return {str(d): c.to_json() for d, c in sorted(self.coeffs.items())}

    @classmethod
    def from_json(cls, data):
        return cls({int(d): Scalar.from_json(v) for d, v in data.items()})


class CircleTensor:
    """Formal sum of pure tensors u^m (x) u^n, canonicalized by degree pair.

    Just enough structure to state the Hopf axioms: componentwise product,
    legwise antipode and counit, and multiplication of the two legs.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, c in terms.items():
                c = Scalar.coerce(c)
                if c:
                    clean[(int(key[0]), int(key[1]))] = c
        self.terms = clean

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, ZERO) + c
        return CircleTensor(out)

    def __mul__(self, other):
        out = {}
        for (m1, n1), c1 in self.terms.items():
            for (m2, n2), c2 in other.terms.items():
                key = (m1 + m2, n1 + n2)
                out[key] = out.get(key, ZERO) + c1 * c2
        return CircleTensor(out)

    def apply_antipode(self, leg):
        if leg not in (0, 1):
            raise ValueError("leg must be 0 or 1")
        out = {}
        for (m, n), c in self.terms.items():
            key = (-m, n) if leg == 0 else (m, -n)
            out[key] = out.get(key, ZERO) + c
        return CircleTensor(out)

    def multiply_legs(self):
        """Collapse u^m (x) u^n to u^(m+n)."""
        out = {}
        for (m, n), c in self.terms.items():
            out[m + n] = out.get(m + n, ZERO) + c
        return CirclePoly(out)

    def counit_leg(self, leg):
        """Apply the counit on one leg, leaving a CirclePoly in the other."""
        if leg not in (0, 1):
            raise ValueError("leg must be 0 or 1")
        out = {}
        for (m, n), c in self.terms.items():
            d = n if leg == 0 else m
            out[d] = out.get(d, ZERO) + c
        return CirclePoly(out)

    def __eq__(self, other):
        if not isinstance(other, CircleTensor):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return "CircleTensor(%r)" % {k: (c.re, c.im) for k, c in sorted(self.terms.items())}

