"""The polynomial ring F[z] over F = Q(X,Y) in commuting indeterminates z,
named by strings such as z<i>_<j>_<l>: the entries of generic matrices
and of the symbolic elements of an algebra.

A monomial is a tuple of (name, exponent) pairs sorted by name, and a
`ZPolynomial` is a dict {monomial: coefficient} without zero
coefficients; a coefficient is an int, a Fraction or a RationalFunction.
The sum, difference and equality come from `scalars.TermMap`; only the
product is defined here.  A scalar of F on the left of + - * works
through the reflected operators, since the scalar classes return
NotImplemented for operands they do not know.  Equal values compare
equal; the class is unhashable.
"""

from fractions import Fraction

from .scalars import RationalFunction, TermMap

_SCALARS = (int, Fraction, RationalFunction)


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _as_zpoly(x):
    """x as a ZPolynomial; a scalar of F becomes a constant with the
    simplest equal coefficient (an int, a Fraction, a RationalFunction), so
    integral coefficients stay ints."""
    if isinstance(x, ZPolynomial):
        return x
    if not isinstance(x, _SCALARS):
        return NotImplemented
    if x.__class__ is RationalFunction and x.is_constant():
        x = x.as_fraction()
    if x.__class__ is Fraction and x.denominator == 1:
        x = x.numerator
    return ZPolynomial({(): x} if x else {})


class ZPolynomial(TermMap):
    """Sparse polynomial over Q(X,Y) in named commuting indeterminates."""

    __slots__ = ()
    __hash__ = None
    _coerce = staticmethod(_as_zpoly)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    @classmethod
    def variable(cls, name):
        return cls({((name, 1),): 1})

    def __mul__(self, other):
        other = _as_zpoly(other)
        if other is NotImplemented:
            return NotImplemented
        if len(other.terms) == 1 and () in other.terms:
            c = other.terms[()]
            if c.__class__ is int and c == 1:
                return self
            return ZPolynomial({m: v * c for m, v in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m)
                out[m] = c1 * c2 if s is None else s + c1 * c2
        return ZPolynomial({m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)
            c = self.terms[m]
            parts.append(f"({c})*{mono}" if mono else f"({c})")
        return " + ".join(parts)
