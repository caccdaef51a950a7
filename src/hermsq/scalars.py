"""Exact scalars: sparse multivariate polynomials over Q and normalized
rational functions in the commuting variables X, Y and the generic-matrix
indeterminates z<i>_<j>_<l>.

A monomial is stored as a tuple of (variable, exponent) pairs sorted by the
fixed variable order X < Y < z-variables; the zero polynomial is the empty
term map.  Rational functions keep gcd-reduced num/den with a primitive
integer denominator whose leading coefficient (graded-lex) is positive, so
equal fractions have identical representations.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd

from .errors import DivisionByZeroError, HermsqError, NotMonomialError, ParseError

_ZVAR_RE = re.compile(r"z(\d+)_(\d+)_(\d+)$")


# every monomial product sorts by this key; one entry per variable name seen
@lru_cache(maxsize=None)
def _var_key(name):
    if name == "X":
        return (0, 0, 0, 0)
    if name == "Y":
        return (1, 0, 0, 0)
    m = _ZVAR_RE.match(name)
    if m is None:
        raise HermsqError(f"unknown variable {name!r}")
    i, j, l = (int(g) for g in m.groups())
    return (2, l, i, j)


def _mono_key(mono):
    # graded lex with X < Y < z-vars: total degree first, then exponents
    # compared from the largest variable downward
    return (sum(e for _, e in mono),
            tuple(sorted(((_var_key(v), e) for v, e in mono), reverse=True)))


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items(), key=lambda p: _var_key(p[0])))


def _mono_div(m1, m2):
    """m1 / m2, or None if m2 does not divide m1."""
    d = dict(m1)
    for v, e in m2:
        r = d.get(v, 0) - e
        if r < 0:
            return None
        if r == 0:
            d.pop(v, None)
        else:
            d[v] = r
    return tuple(sorted(d.items(), key=lambda p: _var_key(p[0])))


def _mono_common(m1, m2):
    d2 = dict(m2)
    out = []
    for v, e in m1:
        e2 = d2.get(v, 0)
        if e2:
            out.append((v, min(e, e2)))
    return tuple(sorted(out, key=lambda p: _var_key(p[0])))


class Polynomial:
    """Sparse multivariate polynomial with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        c = Fraction(c)
        return cls({(): c} if c else None)

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def variable(cls, name, exp=1):
        _var_key(name)  # validate
        if exp == 0:
            return cls.one()
        return cls({((name, exp),): Fraction(1)})

    @classmethod
    def monomial(cls, mono, coeff):
        coeff = Fraction(coeff)
        if not coeff:
            return cls()
        return cls({tuple(mono): coeff})

    # -- structure ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant(self):
        if not self.is_constant():
            raise HermsqError("polynomial is not constant")
        return self.terms.get((), Fraction(0))

    def is_monomial(self):
        return len(self.terms) == 1

    def variables(self):
        out = set()
        for mono in self.terms:
            for v, _ in mono:
                out.add(v)
        return out

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(e for _, e in m) for m in self.terms)

    def degree_in(self, var):
        if not self.terms:
            return -1
        return max((dict(m).get(var, 0) for m in self.terms), default=0)

    def leading(self):
        """(monomial, coeff) maximal in the graded-lex order."""
        if not self.terms:
            raise HermsqError("zero polynomial has no leading term")
        mono = max(self.terms, key=_mono_key)
        return mono, self.terms[mono]

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
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
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return Polynomial()
        if len(self.terms) == 1 and len(other.terms) > 1:
            self, other = other, self
        if len(other.terms) == 1:
            (m2, c2), = other.terms.items()
            return Polynomial({_mono_mul(m, m2): c * c2 for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                s = out.get(m)
                if s is None:
                    out[m] = c
                else:
                    s = s + c
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise HermsqError("polynomial powers must be nonnegative integers")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"

    # -- helpers ------------------------------------------------------

    def evaluate(self, values):
        """Evaluate at a dict variable -> Fraction."""
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            val = coeff
            for v, e in mono:
                if v not in values:
                    raise HermsqError(f"no value supplied for variable {v}")
                val *= Fraction(values[v]) ** e
            total += val
        return total

    def content_and_primitive(self):
        """Return (c, p) with self = c*p, p primitive over Z with positive
        graded-lex leading coefficient.  Zero returns (0, 0)."""
        if not self.terms:
            return Fraction(0), Polynomial()
        num = 0
        den = 1
        for c in self.terms.values():
            num = _int_gcd(num, c.numerator)
            den = den * c.denominator // _int_gcd(den, c.denominator)
        cont = Fraction(num, den)
        _, lead = self.leading()
        if lead < 0:
            cont = -cont
        if cont == 1:
            return cont, self
        prim = Polynomial({m: c / cont for m, c in self.terms.items()})
        return cont, prim


def _as_poly(x):
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial.const(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# gcd machinery: content extraction + primitive PRS in the top variable
# ---------------------------------------------------------------------------

def _as_univar(f, var):
    out = {}
    for mono, coeff in f.terms.items():
        d = dict(mono)
        e = d.pop(var, 0)
        rest = tuple(sorted(d.items(), key=lambda p: _var_key(p[0])))
        out.setdefault(e, {})[rest] = coeff
    return {e: Polynomial(t) for e, t in out.items()}


def _from_univar(coeffs, var):
    total = Polynomial()
    for e, p in coeffs.items():
        total = total + p * Polynomial.variable(var, e) if e else total + p
    return total


def poly_divexact(f, g):
    """Exact division f/g; raises if g does not divide f."""
    if g.is_zero():
        raise DivisionByZeroError("polynomial division by zero")
    if g.is_constant():
        c = g.constant()
        return Polynomial({m: co / c for m, co in f.terms.items()})
    q = {}
    rem = f
    gm, gc = g.leading()
    while rem.terms:
        rm, rc = rem.leading()
        m = _mono_div(rm, gm)
        if m is None:
            raise HermsqError("inexact polynomial division")
        c = rc / gc
        q[m] = c
        rem = rem - Polynomial({m: c}) * g
    return Polynomial(q)


def _pseudo_rem(f, g, var):
    """Pseudo-remainder of f by g viewed as univariate in var, normalized so
    that lc(g)^(deg f - deg g + 1) * f = q*g + rem exactly."""
    fu = _as_univar(f, var)
    gu = _as_univar(g, var)
    dg = max(gu)
    lg = gu[dg]
    rem = dict(fu)
    scale = max(rem) - dg + 1 if rem else 0
    while rem and max(rem) >= dg:
        df = max(rem)
        lf = rem[df]
        scale -= 1
        # rem <- lg*rem - lf * x^(df-dg) * g
        new = {}
        for e, p in rem.items():
            new[e] = p * lg
        for e, p in gu.items():
            t = new.get(e + df - dg, Polynomial())
            t = t - lf * p
            new[e + df - dg] = t
        rem = {e: p for e, p in new.items() if p.terms}
    if rem and scale > 0:
        factor = lg ** scale
        rem = {e: p * factor for e, p in rem.items()}
    return _from_univar(rem, var)


def _monomial_gcd_fast(mono_poly, other):
    common = None
    mono = next(iter(mono_poly.terms))
    for m in other.terms:
        common = _mono_common(mono, m) if common is None else _mono_common(common, m)
        if not common:
            break
    return Polynomial({tuple(common or ()): Fraction(1)})


_COPRIME_PRIME = (1 << 61) - 1


def _spec_to_univariate(poly, main, subs, p):
    """Coefficient list (little-endian) of poly with every variable except
    main specialized mod p, or None if a denominator hits p or the leading
    coefficient in main vanishes, so that the degree in main drops."""
    out = {}
    for mono, coeff in poly.terms.items():
        if coeff.denominator % p == 0:
            return None
        c = coeff.numerator % p * pow(coeff.denominator, -1, p) % p
        e = 0
        for v, k in mono:
            if v == main:
                e = k
            else:
                c = c * pow(subs[v], k, p) % p
        out[e] = (out.get(e, 0) + c) % p
    degree = max(out)
    if not out[degree]:
        return None
    return [out.get(i, 0) for i in range(degree + 1)]


def _univ_gcd_degree(a, b, p):
    a, b = a[:], b[:]
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            if c:
                off = len(a) - len(b)
                for i in range(len(b)):
                    a[off + i] = (a[off + i] - c * b[i]) % p
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _coprime_by_specialization(f, g, common):
    """True only when f, g are certifiably coprime: for every shared variable
    the specialized univariate gcd over GF(p) has degree 0 at two random
    points where f and g keep their degree in that variable.  A common
    factor of positive degree keeps its degree at such a point, since its
    leading coefficient divides theirs; so degree 0 proves coprimality in
    that variable."""
    import random as _random

    p = _COPRIME_PRIME
    rng = _random.Random(0xC0FFEE)
    allvars = f.variables() | g.variables()
    for main in sorted(common, key=_var_key):
        certified = 0
        for _ in range(2):
            subs = {v: rng.randrange(1, p) for v in allvars if v != main}
            a = _spec_to_univariate(f, main, subs, p)
            b = _spec_to_univariate(g, main, subs, p)
            if not a or not b:
                return False
            if _univ_gcd_degree(a, b, p) == 0:
                certified += 1
        if certified < 2:
            return False
    return True


def poly_gcd(f, g):
    """Primitive gcd over Z with positive leading coefficient (1 for coprime
    inputs and for nonzero constants)."""
    if f.is_zero():
        return g.content_and_primitive()[1] if g.terms else Polynomial()
    if g.is_zero():
        return f.content_and_primitive()[1]
    if f.is_constant() or g.is_constant():
        return Polynomial.one()
    if f.is_monomial():
        return _monomial_gcd_fast(f, g)
    if g.is_monomial():
        return _monomial_gcd_fast(g, f)
    common = f.variables() & g.variables()
    if not common:
        return Polynomial.one()
    if _coprime_by_specialization(f, g, common):
        return Polynomial.one()
    var = max(f.variables() | g.variables(), key=_var_key)
    fu = _as_univar(f, var)
    gu = _as_univar(g, var)
    if len(fu) == 1 and 0 in fu:
        # f does not involve the top variable, so gcd(f, g) = gcd(f, cont(g))
        return _poly_gcd_content(f, list(gu.values()))
    if len(gu) == 1 and 0 in gu:
        return _poly_gcd_content(g, list(fu.values()))

    def cont_pp(u):
        c = Polynomial()
        for p in u.values():
            c = poly_gcd(c, p)
        pp = {e: poly_divexact(p, c) for e, p in u.items()}
        return c, pp

    def primitive_in(p):
        u = _as_univar(p, var)
        cu = Polynomial()
        for q in u.values():
            cu = poly_gcd(cu, q)
        return _from_univar({e: poly_divexact(q, cu) for e, q in u.items()}, var)

    def lead_in(p):
        u = _as_univar(p, var)
        return u[max(u)]

    cf, pf = cont_pp(fu)
    cg, pg = cont_pp(gu)
    c = poly_gcd(cf, cg)
    a = _from_univar(pf, var)
    b = _from_univar(pg, var)
    if max(pf) < max(pg):
        a, b = b, a
    # subresultant PRS: divide each pseudo-remainder by the predicted factor
    # g*h^d instead of computing contents at every step
    g = Polynomial.one()
    h = Polynomial.one()
    while True:
        d = a.degree_in(var) - b.degree_in(var)
        r = _pseudo_rem(a, b, var)
        if r.is_zero():
            return (c * primitive_in(b)).content_and_primitive()[1]
        if r.degree_in(var) == 0:
            # remainder free of var: the primitive parts are coprime
            return c
        a, b = b, poly_divexact(r, g * h ** d)
        g = lead_in(a)
        if d > 0:
            h = poly_divexact(g ** d, h ** (d - 1))


def _poly_gcd_content(const_part, coeffs):
    h = const_part
    for p in coeffs:
        h = poly_gcd(h, p)
        if h.is_constant():
            return Polynomial.one()
    return h


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

# the denominator 1: sums and products of two such fractions need no gcd
_ONE_TERMS = {(): Fraction(1)}
_POLY_ONE = Polynomial(_ONE_TERMS)


class RationalFunction:
    """Element of Q(X, Y, z...) as a canonical num/den pair."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = Polynomial.one() if den is None else _as_poly(den)
        if num is NotImplemented or den is NotImplemented:
            raise HermsqError("cannot build rational function from given operands")
        if den.is_zero():
            raise DivisionByZeroError("zero denominator")
        if num.is_zero():
            self.num = Polynomial()
            self.den = Polynomial.one()
            return
        if not den.is_constant():
            g = poly_gcd(num, den)
            if not g.is_constant():
                num = poly_divexact(num, g)
                den = poly_divexact(den, g)
        c, prim = den.content_and_primitive()
        self.num = num if c == 1 else Polynomial({m: co / c for m, co in num.terms.items()})
        self.den = prim

    # -- constructors -------------------------------------------------

    @classmethod
    def from_const(cls, c):
        return cls(Polynomial.const(c))

    @classmethod
    def variable(cls, name, exp=1):
        if exp >= 0:
            return cls(Polynomial.variable(name, exp))
        return cls(Polynomial.one(), Polynomial.variable(name, -exp))

    @classmethod
    def zero(cls):
        return cls(Polynomial())

    @classmethod
    def one(cls):
        return cls(Polynomial.one())

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def as_fraction(self):
        return self.num.constant() / self.den.constant()

    def is_monomial(self):
        return self.num.is_monomial() and self.den.is_monomial()

    def variables(self):
        return self.num.variables() | self.den.variables()

    # -- arithmetic ---------------------------------------------------

    @classmethod
    def _reduced(cls, num, den):
        """Build from an already gcd-reduced num/den pair, normalizing only
        the denominator content."""
        out = object.__new__(cls)
        if num.is_zero():
            out.num = Polynomial()
            out.den = Polynomial.one()
            return out
        c, prim = den.content_and_primitive()
        out.num = num if c == 1 else Polynomial({m: co / c for m, co in num.terms.items()})
        out.den = prim
        return out

    @classmethod
    def _polynomial(cls, num):
        """Build num/1 directly; what RationalFunction(num) builds."""
        out = object.__new__(cls)
        out.num = num
        out.den = _POLY_ONE
        return out

    def __add__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.terms == _ONE_TERMS and other.den.terms == _ONE_TERMS:
            return RationalFunction._polynomial(self.num + other.num)
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        if self.den.is_constant() or other.den.is_constant():
            return RationalFunction(
                self.num * other.den + other.num * self.den,
                self.den * other.den)
        # Henrici addition: cancel through g = gcd of the denominators, so
        # the remaining gcd runs against g instead of the full product
        g = poly_gcd(self.den, other.den)
        if g.is_constant():
            num = self.num * other.den + other.num * self.den
            return RationalFunction._reduced(num, self.den * other.den)
        d1 = poly_divexact(self.den, g)
        d2 = poly_divexact(other.den, g)
        num = self.num * d2 + other.num * d1
        lcm = d1 * other.den
        h = poly_gcd(num, g)
        if h.is_constant():
            return RationalFunction._reduced(num, lcm)
        return RationalFunction._reduced(poly_divexact(num, h),
                                         poly_divexact(lcm, h))

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(RationalFunction)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_rf(other) + (-self)

    def __mul__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.terms == _ONE_TERMS and other.den.terms == _ONE_TERMS:
            return RationalFunction._polynomial(self.num * other.num)
        if self.den.is_constant() and other.den.is_constant():
            return RationalFunction(self.num * other.num,
                                    self.den * other.den)
        # cross-cancel so the product of two reduced fractions stays reduced
        n1, d2 = _cross_cancel(self.num, other.den)
        n2, d1 = _cross_cancel(other.num, self.den)
        return RationalFunction._reduced(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise DivisionByZeroError("inverse of zero")
        return RationalFunction(self.den, self.num)

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _as_rf(other) * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            raise HermsqError("powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        return RationalFunction(self.num ** n, self.den ** n)

    def __eq__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num.terms)

    def __repr__(self):
        return f"RF({format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)

    def evaluate(self, values):
        d = self.den.evaluate(values)
        if d == 0:
            raise DivisionByZeroError("denominator vanishes at evaluation point")
        return self.num.evaluate(values) / d


def _cross_cancel(num, den):
    if num.is_zero() or num.is_constant() or den.is_constant():
        return num, den
    g = poly_gcd(num, den)
    if g.is_constant():
        return num, den
    return poly_divexact(num, g), poly_divexact(den, g)


def _as_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalFunction.from_const(x)
    if isinstance(x, Polynomial):
        return RationalFunction(x)
    return NotImplemented


def as_scalar(x):
    """Coerce int/Fraction/Polynomial/RationalFunction to RationalFunction."""
    r = _as_rf(x)
    if r is NotImplemented:
        raise HermsqError(f"cannot interpret {x!r} as a scalar")
    return r


# ---------------------------------------------------------------------------
# monomial orderings of Q(X, Y) inside Q((X))((Y)), |Y| << |X| << 1
# ---------------------------------------------------------------------------

class MonomialOrdering:
    """One of the four orderings fixed by the signs of the infinitesimals
    X and Y."""

    __slots__ = ("sign_x", "sign_y")
    _registry = {}

    def __new__(cls, sign_x, sign_y):
        if sign_x not in (1, -1) or sign_y not in (1, -1):
            raise HermsqError("ordering signs must be +1 or -1")
        key = (sign_x, sign_y)
        inst = cls._registry.get(key)
        if inst is None:
            inst = object.__new__(cls)
            inst.sign_x = sign_x
            inst.sign_y = sign_y
            cls._registry[key] = inst
        return inst

    @classmethod
    def parse(cls, text):
        if len(text) != 2 or any(c not in "+-" for c in text):
            raise HermsqError(f"bad ordering spec {text!r}; want e.g. '+-'")
        return cls(1 if text[0] == "+" else -1, 1 if text[1] == "+" else -1)

    def __str__(self):
        return ("+" if self.sign_x > 0 else "-") + ("+" if self.sign_y > 0 else "-")

    def __repr__(self):
        return f"MonomialOrdering({self})"


ORDERINGS = (
    MonomialOrdering(1, 1),
    MonomialOrdering(1, -1),
    MonomialOrdering(-1, 1),
    MonomialOrdering(-1, -1),
)


def _poly_sign_at(p, ordering):
    if p.is_zero():
        return 0
    bad = p.variables() - {"X", "Y"}
    if bad:
        raise HermsqError(f"sign is only defined over Q(X,Y); saw {sorted(bad)}")
    # dominant term: minimal Y-degree, then minimal X-degree
    best = None
    for mono, coeff in p.terms.items():
        d = dict(mono)
        key = (d.get("Y", 0), d.get("X", 0))
        if best is None or key < best[0]:
            best = (key, coeff)
    (y_deg, x_deg), coeff = best
    s = 1 if coeff > 0 else -1
    if x_deg % 2:
        s *= ordering.sign_x
    if y_deg % 2:
        s *= ordering.sign_y
    return s


def sign_at(f, ordering):
    """Sign of f in the ordered field Q((X))((Y)) with the given infinitesimal
    signs; 0 exactly for f = 0."""
    f = as_scalar(f)
    sn = _poly_sign_at(f.num, ordering)
    if sn == 0:
        return 0
    return sn * _poly_sign_at(f.den, ordering)


def squarefree_part(n):
    """Signed squarefree part of a nonzero integer."""
    if n == 0:
        raise HermsqError("squarefree part of zero")
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                out *= d
        d += 1 if d == 2 else 2
    return sign * out * n


def monomial_square_class(f):
    """Square class (d, a, b) of a monomial scalar c*X^i*Y^j: signed
    squarefree d of c and the parities of i and j."""
    f = as_scalar(f)
    if f.is_zero() or not f.is_monomial():
        raise NotMonomialError("not a monomial scalar")
    (mn, cn), = f.num.terms.items()
    (md, cd), = f.den.terms.items()
    c = cn / cd
    exps = dict(mn)
    for v, e in md:
        exps[v] = exps.get(v, 0) - e
    bad = set(exps) - {"X", "Y"}
    if bad:
        raise NotMonomialError(f"monomial involves non-(X,Y) variables {sorted(bad)}")
    d = squarefree_part(c.numerator * c.denominator)
    return d, exps.get("X", 0) % 2, exps.get("Y", 0) % 2


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(\d+|z\d+_\d+_\d+|X|Y|\*\*|[-+*/^()])")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r}",
                             len(text) - len(text[pos:].lstrip()))
        tok = m.group(1)
        out.append((tok, m.start(1)))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def next(self):
        if self.i >= len(self.toks):
            raise ParseError("unexpected end of input", len(self.text))
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, want):
        tok, pos = self.next()
        if tok != want:
            raise ParseError(f"expected {want!r}, got {tok!r}", pos)

    def parse(self):
        val = self.expr()
        if self.i < len(self.toks):
            tok, pos = self.toks[self.i]
            raise ParseError(f"trailing input {tok!r}", pos)
        return val

    def expr(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next()[0] == "-":
                sign = -sign
        val = self.term() * sign
        while self.peek() in ("+", "-"):
            op = self.next()[0]
            sign = 1 if op == "+" else -1
            while self.peek() in ("+", "-"):
                if self.next()[0] == "-":
                    sign = -sign
            val = val + self.term() * sign
        return val

    def term(self):
        val = self.factor()
        while self.peek() in ("*", "/"):
            op = self.next()[0]
            rhs = self.factor()
            if op == "*":
                val = val * rhs
            else:
                if rhs.is_zero():
                    raise ParseError("division by zero", self.toks[self.i - 1][1])
                val = val / rhs
        return val

    def factor(self):
        base = self.primary()
        if self.peek() in ("^", "**"):
            self.next()
            neg = False
            while self.peek() == "-":
                self.next()
                neg = not neg
            tok, pos = self.next()
            if not tok.isdigit():
                raise ParseError(f"expected integer exponent, got {tok!r}", pos)
            e = int(tok)
            base = base ** (-e if neg else e)
        return base

    def primary(self):
        tok, pos = self.next()
        if tok == "(":
            val = self.expr()
            self.expect(")")
            return val
        if tok == "-":
            return -self.primary()
        if tok.isdigit():
            return RationalFunction.from_const(int(tok))
        if tok in ("X", "Y") or tok.startswith("z"):
            return RationalFunction.variable(tok)
        raise ParseError(f"unexpected token {tok!r}", pos)


def parse_scalar(text):
    """Parse the scalar grammar into a RationalFunction."""
    return _Parser(text).parse()


def _format_mono(mono, coeff):
    parts = []
    for v, e in mono:
        parts.append(v if e == 1 else f"{v}^{e}")
    body = "*".join(parts)
    if not body:
        return str(coeff)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{coeff}*{body}"


def format_polynomial(p):
    if not p.terms:
        return "0"
    monos = sorted(p.terms, key=_mono_key, reverse=True)
    out = _format_mono(monos[0], p.terms[monos[0]])
    for m in monos[1:]:
        c = p.terms[m]
        piece = _format_mono(m, abs(c))
        out += f" - {piece}" if c < 0 else f" + {piece}"
    return out


def format_scalar(f):
    """Canonical text form; parse(format(f)) == f."""
    f = as_scalar(f)
    if f.den == Polynomial.one():
        return format_polynomial(f.num)
    return f"({format_polynomial(f.num)})/({format_polynomial(f.den)})"


X = RationalFunction.variable("X")
Y = RationalFunction.variable("Y")
ONE = RationalFunction.one()
ZERO = RationalFunction.zero()
