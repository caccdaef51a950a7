"""The polynomial ring F[z] over F = Q(X,Y) in commuting indeterminates z,
named by strings such as z<i>_<j>_<l>: the entries of generic matrices
and of the symbolic elements of an algebra.

A monomial is a tuple of (name, exponent) pairs sorted by name, and a
`ZPolynomial` is a dict {monomial: coefficient} without zero
coefficients; a coefficient is an int, a Fraction or a RationalFunction.
Only the ring operations are defined.  A scalar of F on the left of + - *
works through the reflected operators, since the scalar classes return
NotImplemented for operands they do not know.  Equal values compare
equal; the class is unhashable, because a coefficient of F can be an int
or an equal RationalFunction.
"""

from fractions import Fraction

from .scalars import RationalFunction

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


class ZPolynomial:
    """Sparse polynomial over Q(X,Y) in named commuting indeterminates."""

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    @classmethod
    def variable(cls, name):
        return cls({((name, 1),): 1})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = _as_zpoly(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return ZPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return ZPolynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _as_zpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_zpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

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

    def __eq__(self, other):
        other = _as_zpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms):
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)
            c = self.terms[m]
            parts.append(f"({c})*{mono}" if mono else f"({c})")
        return " + ".join(parts)
