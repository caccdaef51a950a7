"""Exact scalars: sparse polynomials over Z and normalized rational
functions in the commuting variables X and Y, the elements of F = Q(X,Y).

A monomial X^a Y^b is stored as the int (a + b) << 2W | b << W | a, with
W = `_W` bits per exponent field.  Degrees stay below 2^W (a constructor,
product or power that would reach it raises `ResourceLimitError`), so no field
carries into the next: a product of monomials is the sum of their ints,
and int comparison is the graded-lex order with X < Y (total degree
first, then the exponent of Y).  Only this module knows the format:
variable names appear at the boundary alone (`Polynomial.variable`,
`Polynomial.monomial`, `variables`, `degree_in`, `evaluate`, `leading`,
`monomial_parts`, `sign_at`, parsing and formatting).  The zero polynomial
is the empty term map.  Every coefficient of a `Polynomial` is an int: it
is the ring Z[X, Y].  Rationals enter only through `as_scalar`,
`RationalFunction.from_const` and division, and leave only as the values
of `evaluate`, `as_fraction` and `monomial_parts`.  A
rational function is a coprime pair of int polynomials num/den, den with a
positive graded-lex leading coefficient and integer content 1 over num and
den together, so equal fractions have identical representations (p/q is p
over q, zero is 0 over 1).  When both operands of `+` or `*` are
constants p/q, the operation runs on the int pairs and builds the
canonical pair with one gcd.  `TermMap` is the sparse term map that
`Polynomial`, `zpoly.ZPolynomial` and `ncpoly.NCPolynomial` share: their
sum, difference and equality are written there once.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import reduce
from heapq import heapify, heappop, heappush
from math import gcd as _int_gcd, isqrt, prod
from operator import or_

from .errors import (DivisionByZeroError, HermsqError, NotMonomialError, ParseError,
                     ResourceLimitError)

# the packed monomial: bits [0, W) hold the exponent of X, [W, 2W) that of
# Y, and the bits from 2W up the total degree
_W = 32
_MASK = (1 << _W) - 1
_DEG = 2 * _W
_LOW = (1 << _DEG) - 1
# each variable as (its monomial, the shift of its exponent field)
_VARS = {"X": (1 | 1 << _DEG, 0), "Y": (1 << _W | 1 << _DEG, _W)}
_X_UNIT, _Y_UNIT = _VARS["X"][0], _VARS["Y"][0]


def _check_degree(degree):
    if degree >> _W:
        raise ResourceLimitError(
            f"degree {degree} reaches the limit 2^{_W} of a monomial's exponent field")


def _pack(pairs):
    """The monomial of (variable name, exponent) pairs."""
    mono = 0
    for name, e in pairs:
        var = _VARS.get(name)
        if var is None:
            raise HermsqError(f"unknown variable {name!r}")
        if e < 0:
            raise HermsqError(f"negative exponent {e} of {name}")
        mono += e * var[0]
    _check_degree(mono >> _DEG)
    return mono


def _unpack(mono):
    """The (variable name, exponent) pairs of a monomial, X first."""
    return tuple((name, e) for name, (_, shift) in _VARS.items() if (e := mono >> shift & _MASK))


def _shifts(p):
    """The set of field shifts of the variables p involves."""
    used = reduce(or_, p.terms, 0)
    return {shift for _, shift in _VARS.values() if used >> shift & _MASK}


def _scaled(p, k):
    """p times k, for p = 0 or k != 0."""
    return p if k == 1 else Polynomial({m: c * k for m, c in p.terms.items()})


class TermMap:
    """A sparse map {monomial: coefficient} without zero coefficients: the
    additive group and equality shared by `Polynomial`, `zpoly.ZPolynomial`
    and `ncpoly.NCPolynomial`.  A subclass gives `_coerce`, which returns an
    operand as an instance of the subclass or NotImplemented, and a
    constructor that takes a term dict; each result here is built as
    type(self)(terms).  A constant's monomial is falsy in every subclass (0
    or the empty tuple), and a constant hashes as its coefficient, so it
    hashes as the equal int or Fraction."""

    __slots__ = ("terms",)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = self._coerce(other)
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
        return type(self)(out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __eq__(self, other):
        # the common case, two of one class, skips the coercion call
        if other.__class__ is not self.__class__:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        terms = self.terms
        if len(terms) == 1:
            (m, c), = terms.items()
            if not m:
                return hash(c)
        return hash(frozenset(terms.items())) if terms else hash(0)


def _as_poly(x):
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, int):
        return Polynomial.const(x)
    return NotImplemented


class Polynomial(TermMap):
    """Sparse polynomial over Z in X and Y."""

    __slots__ = ()
    _coerce = staticmethod(_as_poly)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls.monomial((), c)

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def variable(cls, name, exp=1):
        mono = _pack(((name, exp),))
        return cls({mono: 1})

    @classmethod
    def monomial(cls, mono, coeff):
        """coeff, an int, times the monomial given as (variable name,
        exponent) pairs."""
        mono = _pack(mono)
        if not isinstance(coeff, int):
            raise HermsqError(f"polynomial coefficient {coeff!r} is not an int")
        return cls({mono: int(coeff)} if coeff else None)

    # -- structure ----------------------------------------------------

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def constant(self):
        if not self.is_constant():
            raise HermsqError("polynomial is not constant")
        return self.terms.get(0, 0)

    def is_monomial(self):
        return len(self.terms) == 1

    def variables(self):
        shifts = _shifts(self)
        return {name for name, (_, shift) in _VARS.items() if shift in shifts}

    def degree(self):
        # the largest monomial has the largest degree
        return max(self.terms) >> _DEG if self.terms else -1

    def degree_in(self, var):
        if var not in _VARS:
            raise HermsqError(f"unknown variable {var!r}")
        shift = _VARS[var][1]
        return max((m >> shift & _MASK for m in self.terms), default=-1)

    def leading(self):
        """(monomial, coeff) maximal in the graded-lex order; the monomial
        as (variable name, exponent) pairs."""
        mono, coeff = _leading(self)
        return _unpack(mono), coeff

    # -- arithmetic ---------------------------------------------------

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
            if not m2:
                return _scaled(self, c2)
            _check_degree((max(self.terms) >> _DEG) + (m2 >> _DEG))
            return Polynomial({m + m2: c * c2 for m, c in self.terms.items()})
        _check_degree((max(self.terms) >> _DEG) + (max(other.terms) >> _DEG))
        out = {}
        get = out.get
        terms = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in terms:
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        return Polynomial({m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise HermsqError("polynomial powers must be nonnegative integers")
        if n and self.terms:
            _check_degree((max(self.terms) >> _DEG) * n)
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"

    # -- helpers ------------------------------------------------------

    def evaluate(self, values):
        """Evaluate at a dict variable -> Fraction."""
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            val = coeff
            for name, e in _unpack(mono):
                if name not in values:
                    raise HermsqError(f"no value supplied for variable {name}")
                val *= Fraction(values[name]) ** e
            total += val
        return total

    def content_and_primitive(self):
        """Return (c, p) with self = c*p, c the int content signed like the
        leading coefficient and p primitive with positive graded-lex leading
        coefficient.  Zero returns (0, 0)."""
        if not self.terms:
            return 0, self
        c = _int_gcd(*self.terms.values())
        if _leading(self)[1] < 0:
            c = -c
        return c, self if c == 1 else Polynomial({m: v // c for m, v in self.terms.items()})


def _leading(p):
    """(monomial, coeff) of p maximal in the graded-lex order."""
    if not p.terms:
        raise HermsqError("zero polynomial has no leading term")
    mono = max(p.terms)
    return mono, p.terms[mono]


# ---------------------------------------------------------------------------
# gcd machinery, on int polynomials: `_gcd_cofactors` returns the gcd h with
# f/h and g/h.  The heuristic gcd (GCDHEU, Char, Geddes & Gonnet 1989) runs
# on the packed monomials: it sets one variable at a time to an integer xi,
# takes the integer gcd of the values and rebuilds a candidate from its
# base-xi digits.  With xi >= 2*min(|f|, |g|) + 2 (max norms) a candidate
# that divides both inputs exactly is their gcd, and that division gives
# the cofactors; when the heuristic gives up, the subresultant PRS answers.
# ---------------------------------------------------------------------------

_INT_ONE = Polynomial({0: 1})


def _as_univar(f, var):
    """f as {exponent of var: coefficient free of var}, var given as its
    entry of _VARS."""
    unit, shift = var
    out = {}
    for mono, coeff in f.terms.items():
        e = mono >> shift & _MASK
        out.setdefault(e, {})[mono - e * unit] = coeff
    return {e: Polynomial(t) for e, t in out.items()}


def _from_univar(coeffs, var):
    unit = var[0]
    out = {}
    for e, p in coeffs.items():
        top = e * unit
        for m, c in p.terms.items():
            out[m + top] = c
    return Polynomial(out)


def _divide(f, h):
    """The quotient f/h of int term maps, h nonzero, by division in the
    graded-lex order of the packed monomials; None when h does not divide f
    in Z[X, Y].  A quotient monomial beyond f's degree minus h's in either
    variable ends it early.  A one-term h divides f term by term."""
    lm = max(h)
    lx, ly = lm & _MASK, lm >> _W & _MASK
    lc = h[lm]
    if len(h) == 1:
        q = {}
        for m, c in f.items():
            k, r = divmod(c, lc)
            if r or (m & _MASK) < lx or (m >> _W & _MASK) < ly:
                return None
            q[m - lm] = k
        return q
    room_x = max([m & _MASK for m in f], default=0) - lx
    room_y = max([m >> _W & _MASK for m in f], default=0) - ly
    tail = [(m, c) for m, c in h.items() if m != lm]
    rem = dict(f)
    # a max-heap of rem's monomials (negated), with lazy deletion: a
    # monomial that cancels stays in the heap and is skipped when it comes
    # up, and one that enters rem again is pushed again
    heap = [-m for m in rem]
    heapify(heap)
    q = {}
    while heap:
        m = -heappop(heap)
        c = rem.pop(m, 0)
        if not c:
            continue
        if not (0 <= (m & _MASK) - lx <= room_x and 0 <= (m >> _W & _MASK) - ly <= room_y):
            return None
        k, r = divmod(c, lc)
        if r:
            return None
        d = m - lm
        q[d] = k
        for hm, hv in tail:
            t = hm + d
            v = rem.get(t)
            if v is None:
                rem[t] = -k * hv
                heappush(heap, -t)
            elif v == k * hv:
                del rem[t]
            else:
                rem[t] = v - k * hv
    return q


def poly_divexact(f, g):
    """Exact division f/g in Z[X, Y]; raises if g does not divide f."""
    if g.is_zero():
        raise DivisionByZeroError("polynomial division by zero")
    q = _divide(f.terms, g.terms)
    if q is None:
        raise HermsqError("inexact polynomial division")
    return Polynomial(q)


def _pseudo_rem(fu, gu):
    """Pseudo-remainder of f by g, both as {exponent of var: coefficient},
    normalized so that lc(g)^(deg f - deg g + 1) * f = q*g + rem exactly."""
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
    return rem


def poly_gcd(f, g):
    """Primitive gcd over Z with positive leading coefficient (1 for coprime
    inputs and for nonzero constants), with int coefficients."""
    return _gcd_cofactors(f.content_and_primitive()[1], g.content_and_primitive()[1])[0]


def poly_lcm(f, g):
    """Least common multiple of nonzero int polynomials f and g with
    positive leading coefficients (denominators); its leading coefficient
    is positive too."""
    if g == f or g.terms == {0: 1}:
        return f
    cf, pf = f.content_and_primitive()
    cg, pg = g.content_and_primitive()
    return _scaled(f * _gcd_cofactors(pf, pg)[2], cg // _int_gcd(cf, cg))


def _gcd_cofactors(f, g):
    """(h, f/h, g/h) for polynomials f, g with int coefficients, h =
    poly_gcd(f, g); all three are zero for f = g = 0."""
    if not f.terms or not g.terms:
        # gcd(p, 0) is p's primitive part, whose cofactor is p's content
        c, h = (f if f.terms else g).content_and_primitive()
        c = Polynomial.const(c)
        return (h, c, g) if f.terms else (h, f, c)
    if f.is_constant() or g.is_constant():
        return _INT_ONE, f, g
    if len(f.terms) == 1 or len(g.terms) == 1:
        # the least exponents of X and of Y (the top field of the least b << W | a)
        both = (*f.terms, *g.terms)
        mono = (min(map(_MASK.__and__, both)) * _X_UNIT
                + (min(map(_LOW.__and__, both)) >> _W) * _Y_UNIT)
        if not mono:
            return _INT_ONE, f, g
        return (Polynomial({mono: 1}), Polynomial({m - mono: c for m, c in f.terms.items()}),
                Polynomial({m - mono: c for m, c in g.terms.items()}))
    fs, gs = _shifts(f), _shifts(g)
    if not fs & gs:
        return _INT_ONE, f, g
    found = _gcdheu(f.terms, g.terms, [v for v in (_VARS["Y"], _VARS["X"]) if v[1] in fs | gs])
    if found is None:
        h = _prs_gcd(f, g)
        return (h, Polynomial(_divide(f.terms, h.terms)),
                Polynomial(_divide(g.terms, h.terms)))
    c, h, qf, qg = found
    if 0 in h and len(h) == 1:
        return _INT_ONE, f, g
    if c != 1:
        qf = {m: v * c for m, v in qf.items()}
        qg = {m: v * c for m, v in qg.items()}
    return Polynomial(h), Polynomial(qf), Polynomial(qg)


_HEU_POINTS = 6
# the heuristic gives up before it evaluates at a power of xi of more than
# this many bits, where the PRS is faster: of the bounds 16600, 50000, 10^5
# and 2*10^5, 50000 was fastest on seeded gcds with large coefficients
_HEU_MAX_BITS = 50000


def _gcdheu(f, g, levels):
    """(c, h, f/(c*h), g/(c*h)) for the nonzero int term maps f, g, where c
    is their common integer content and h their primitive gcd with a
    positive leading coefficient, as term maps; None if the heuristic
    gives up.  levels are the _VARS entries of the variables f and g
    involve, Y before X: the first is set to xi here.

    The images' gcd is found one level down (at the last level, the
    integer gcd of the values); its symmetric xi-adic digits give a
    candidate h.  With the common integer content c removed and xi >=
    2*min(|f|, |g|) + 2 (max norms), a primitive h that divides f and g
    exactly is their gcd (Char, Geddes & Gonnet 1989), and a constant h
    proves the gcd is c.  No answer is returned without that check, whose
    quotients are the cofactors.  It gives up after _HEU_POINTS points, or
    before values of more than _HEU_MAX_BITS bits."""
    c = _int_gcd(*f.values(), *g.values())
    if c != 1:
        f = {m: v // c for m, v in f.items()}
        g = {m: v // c for m, v in g.items()}
    fn = max(map(abs, f.values()))
    gn = max(map(abs, g.values()))
    unit, shift = levels[0]
    if len(levels) > 1:
        # xi's bound reads the leading coefficients in the lex order with
        # X's exponent first; Y, set here, has the top of the fields b << W | a
        lf = f[max(zip(map(_MASK.__and__, f), f))[1]]
        lg = g[max(zip(map(_MASK.__and__, g), g))[1]]
        top = max(max(map(_LOW.__and__, f)), max(map(_LOW.__and__, g))) >> _W
    else:
        lf, lg = f[max(f)], g[max(g)]
        top = max(max(f), max(g)) >> shift & _MASK
    xi = max(2 * min(fn, gn) + 2, 2 * min(fn // abs(lf), gn // abs(lg)) + 4)
    for _ in range(_HEU_POINTS):
        if top > _HEU_MAX_BITS // xi.bit_length():
            return None
        powers = [1]
        for _ in range(top):
            powers.append(powers[-1] * xi)
        if len(levels) == 1:
            a = sum([v * powers[m >> shift & _MASK] for m, v in f.items()])
            b = sum([v * powers[m >> shift & _MASK] for m, v in g.items()])
            image = {0: _int_gcd(a, b)} if a and b else None
        else:
            image = None
            ff, gg = _evaluate(f, unit, shift, powers), _evaluate(g, unit, shift, powers)
            if ff and gg:
                found = _gcdheu(ff, gg, levels[1:])
                if found is None:
                    return None
                ci, image = found[:2]
                if ci != 1:
                    image = {m: v * ci for m, v in image.items()}
        if image:
            half = xi // 2
            h = {}
            for m, v in image.items():
                while v:
                    v, d = divmod(v, xi)
                    if d > half:
                        d -= xi
                        v += 1
                    if d:
                        h[m] = d
                    m += unit
            if 0 in h and len(h) == 1:
                return c, {0: 1}, f, g
            hc = _int_gcd(*h.values())
            if h[max(h)] < 0:
                hc = -hc
            if hc != 1:
                h = {m: v // hc for m, v in h.items()}
            qf = _divide(f, h)
            if qf is not None:
                qg = _divide(g, h)
                if qg is not None:
                    return c, h, qf, qg
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _evaluate(f, unit, shift, powers):
    """f with the variable of (unit, shift) set to the value whose powers
    are given, without its zero terms."""
    out = {}
    get = out.get
    for m, v in f.items():
        e = m >> shift & _MASK
        rest = m - e * unit
        out[rest] = get(rest, 0) + v * powers[e]
    return {m: v for m, v in out.items() if v}


def _prs_gcd(f, g):
    """poly_gcd of two int polynomials of positive degree by the primitive
    subresultant PRS in their top variable."""
    var = _VARS["Y" if _W in _shifts(f) | _shifts(g) else "X"]
    fu = _as_univar(f, var)
    gu = _as_univar(g, var)
    if len(fu) == 1 and 0 in fu:
        # f does not involve the top variable, so gcd(f, g) = gcd(f, cont(g))
        return _gcd_content(f, gu.values())
    if len(gu) == 1 and 0 in gu:
        return _gcd_content(g, fu.values())
    cf, a = _content_parts(fu)
    cg, b = _content_parts(gu)
    c = _gcd_cofactors(cf, cg)[0]
    if max(a) < max(b):
        a, b = b, a
    # subresultant PRS on the univariate forms: divide each pseudo-remainder
    # by the predicted factor g*h^d instead of computing contents at every step
    g = h = _INT_ONE
    while True:
        d = max(a) - max(b)
        r = _pseudo_rem(a, b)
        if not r:
            return (c * _from_univar(_content_parts(b)[1], var)).content_and_primitive()[1]
        if max(r) == 0:
            # remainder free of var: the primitive parts are coprime
            return c
        q = g * h ** d if d else g
        a, b = b, {e: poly_divexact(p, q) for e, p in r.items()}
        g = a[max(a)]
        if d == 1:
            h = g
        elif d > 1:
            h = poly_divexact(g ** d, h ** (d - 1))


def _content_parts(u):
    """(content, primitive part) of {exponent: coefficient}, the part in the
    same form."""
    c = Polynomial()
    for p in u.values():
        c = _gcd_cofactors(c, p)[0]
    return c, {e: poly_divexact(p, c) for e, p in u.items()}


def _gcd_content(h, coeffs):
    for p in coeffs:
        h = _gcd_cofactors(h, p)[0]
        if h.is_constant():
            return _INT_ONE
    return h


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RationalFunction:
    """Element of Q(X, Y) as a canonical num/den pair."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        """num/den for ints or int polynomials num and den."""
        num = _as_poly(num)
        den = _INT_ONE if den is None else _as_poly(den)
        if num is NotImplemented or den is NotImplemented:
            raise HermsqError("cannot build rational function from given operands")
        if den.is_zero():
            raise DivisionByZeroError("zero denominator")
        if den.terms == {0: 1}:
            # num/1 is canonical as it stands
            self.num, self.den = num, _INT_ONE
            return
        _, num, den = _gcd_cofactors(num, den)
        if _leading(den)[1] < 0:
            num, den = -num, -den
        reduced = RationalFunction._reduced(num, den)
        self.num, self.den = reduced.num, reduced.den

    # -- constructors -------------------------------------------------

    @classmethod
    def from_const(cls, c):
        if type(c) is int:
            return _pair(c, 1)
        if type(c) is not Fraction:
            c = Fraction(c)
        return _pair(c.numerator, c.denominator)

    @classmethod
    def from_ints(cls, n, d):
        """n/d for ints n and d, d nonzero: one gcd, and the sign of d moves
        to n."""
        if not d:
            raise DivisionByZeroError("zero denominator")
        g = _int_gcd(n, d)
        return _pair(n // g, d // g) if d > 0 else _pair(-n // g, -d // g)

    @classmethod
    def variable(cls, name, exp=1):
        v = Polynomial.variable(name, abs(exp))
        return cls._reduced(v, _INT_ONE) if exp >= 0 else cls._reduced(_INT_ONE, v)

    @classmethod
    def zero(cls):
        return cls.from_const(0)

    @classmethod
    def one(cls):
        return cls.from_const(1)

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        n, d = self.num.terms, self.den.terms
        return len(d) == 1 and 0 in d and (not n or len(n) == 1 and 0 in n)

    def as_fraction(self):
        return Fraction(self.num.constant(), self.den.constant())

    def is_monomial(self):
        return self.num.is_monomial() and self.den.is_monomial()

    def variables(self):
        return self.num.variables() | self.den.variables()

    # -- arithmetic ---------------------------------------------------

    @classmethod
    def _reduced(cls, num, den):
        """Build from coprime int polynomials num/den, den with a positive
        leading coefficient, removing only the integer content they share."""
        if not num.terms:
            return _canonical(num, _INT_ONE)
        c = _int_gcd(*den.terms.values(), *num.terms.values())
        if c != 1:
            num = Polynomial({m: v // c for m, v in num.terms.items()})
            den = Polynomial({m: v // c for m, v in den.terms.items()})
        return _canonical(num, den)

    def __add__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        n1, d1, n2, d2 = self.num.terms, self.den.terms, other.num.terms, other.den.terms
        if not n1:
            return other
        if not n2:
            return self
        if len(n1) == len(n2) == len(d1) == len(d2) == 1 and 0 in n1 and 0 in n2 \
                and 0 in d1 and 0 in d2:
            # two constants p1/q1 + p2/q2, on their ints
            q1, q2 = d1[0], d2[0]
            n, d = n1[0] * q2 + n2[0] * q1, q1 * q2
            g = _int_gcd(n, d)
            return _pair(n // g, d // g)
        a, b = (self, other) if self.den.is_constant() else (other, self)
        if a.den.is_constant():
            # a's den is a unit and b's den is coprime to b's num, so only
            # integer content can cancel
            q = a.den.terms[0]
            return RationalFunction._reduced(a.num * b.den + _scaled(b.num, q),
                                             _scaled(b.den, q))
        if self.den == other.den:
            return RationalFunction._reduced(*_gcd_cofactors(self.num + other.num, self.den)[1:])
        # Henrici addition: cancel through g = gcd of the denominators, so
        # the remaining gcd runs against g instead of the full product
        g, d1, d2 = _gcd_cofactors(self.den, other.den)
        _, num, g = _gcd_cofactors(self.num * d2 + other.num * d1, g)
        return RationalFunction._reduced(num, d1 * d2 * g)

    __radd__ = __add__

    def __neg__(self):
        # a canonical pair with its num negated is canonical
        return _canonical(-self.num, self.den)

    def __sub__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        n1, d1, n2, d2 = self.num.terms, self.den.terms, other.num.terms, other.den.terms
        # a zero factor is the canonical zero 0/1 already
        if not n1:
            return self
        if not n2:
            return other
        if len(n1) == len(n2) == len(d1) == len(d2) == 1 and 0 in n1 and 0 in n2 \
                and 0 in d1 and 0 in d2:
            # two constants, on their ints
            n, d = n1[0] * n2[0], d1[0] * d2[0]
            g = _int_gcd(n, d)
            return _pair(n // g, d // g)
        if self.den.is_constant() and other.den.is_constant():
            return RationalFunction._reduced(self.num * other.num, self.den * other.den)
        # cross-cancel so the product of two reduced fractions stays reduced
        _, n1, d2 = _gcd_cofactors(self.num, other.den)
        _, n2, d1 = _gcd_cofactors(other.num, self.den)
        return RationalFunction._reduced(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise DivisionByZeroError("inverse of zero")
        # the swapped pair is canonical up to the sign of its den
        if _leading(self.num)[1] < 0:
            return _canonical(-self.den, -self.num)
        return _canonical(self.den, self.num)

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            raise HermsqError("powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        # powers of a coprime pair are coprime, and their contents too
        return RationalFunction._reduced(self.num ** n, self.den ** n)

    def __eq__(self, other):
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # num/1 hashes as num, and a constant as its Fraction, like the
        # values it equals
        if self.den.terms == {0: 1}:
            return hash(self.num)
        if self.is_constant():
            return hash(self.as_fraction())
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


def _canonical(num, den):
    """The RationalFunction of a canonical pair num/den, as it stands."""
    out = object.__new__(RationalFunction)
    out.num, out.den = num, den
    return out


def _pair(n, d):
    """The RationalFunction n/d for coprime ints n and d > 0."""
    num = object.__new__(Polynomial)
    num.terms = {0: n} if n else {}
    if d == 1:
        return _canonical(num, _INT_ONE)
    den = object.__new__(Polynomial)
    den.terms = {0: d}
    return _canonical(num, den)


def _as_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if type(x) is int:
        return _pair(x, 1)
    if isinstance(x, (int, Fraction)):
        return RationalFunction.from_const(x)
    if isinstance(x, Polynomial):
        return RationalFunction(x)
    return NotImplemented


def _join(run, d):
    """(L, L/run, L/d) for L a common multiple of a running denominator run
    and a denominator d, None standing for a cofactor 1.  A d equal to run
    or to 1 costs no gcd, and two constants join through their int lcm."""
    if d.terms == run.terms:
        return run, None, None
    if d.terms == {0: 1}:
        return run, None, run
    if run.terms == {0: 1}:
        return d, d, None
    if run.is_constant() and d.is_constant():
        r, c = run.terms[0], d.terms[0]
        g = _int_gcd(r, c)
        return Polynomial({0: r // g * c}), Polynomial({0: c // g}), Polynomial({0: r // g})
    # run = h * cr and d = h * cd
    _, cr, cd = _gcd_cofactors(run, d)
    return run * cd, cd, cr


def _times(f, g):
    """f * g, None standing for 1."""
    return f * g if f and g else f or g


def rf_dot(pairs):
    """The sum of a * b over pairs of nonzero RationalFunctions a, b, reduced
    once: the numerators are summed over Dx * Dy, where Dx joins the
    denominators of the a's and Dy those of the b's as they come (`_join`),
    and the sum is reduced at the end."""
    dx = dy = _INT_ONE
    num = Polynomial()
    for a, b in pairs:
        dx, sx, fa = _join(dx, a.den)
        dy, sy, fb = _join(dy, b.den)
        # the sum so far and a.num * b.num, each over the new Dx * Dy
        s, f = _times(sx, sy), _times(fa, fb)
        if s and num.terms:
            num = num * s
        num = num + (a.num * b.num * f if f else a.num * b.num)
    if not num.terms:
        return RationalFunction(num)
    return RationalFunction(num, dx * dy)


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
    # dominant term: minimal Y-degree, then minimal X-degree, which is the
    # order of the low fields b << W | a of the monomials
    mono = min(p.terms, key=_LOW.__and__)
    s = 1 if p.terms[mono] > 0 else -1
    if mono & 1:
        s *= ordering.sign_x
    if mono >> _W & 1:
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


# the last trial divisor of factor_integer, so factoring takes at most about
# 0.9 s on a 2-vCPU VM; every integer below MAX_TRIAL_DIVISOR^2 = 10^14
# still factors completely
MAX_TRIAL_DIVISOR = 10 ** 7


def factor_integer(n):
    """{prime: exponent} of |n| for a nonzero int n, by trial division up to
    MAX_TRIAL_DIVISOR.  A cofactor with no divisor up to that bound is prime
    when it is below (MAX_TRIAL_DIVISOR + 1)^2; a larger one raises
    ResourceLimitError."""
    if n == 0:
        raise HermsqError("factorization of zero")
    n = abs(n)
    out = {}
    d = 2
    limit = min(isqrt(n), MAX_TRIAL_DIVISOR)
    while d <= limit:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out[d] = e
            limit = min(isqrt(n), MAX_TRIAL_DIVISOR)
        d += 1 if d == 2 else 2
    if d * d <= n:
        raise ResourceLimitError(
            f"factoring {n}: no divisor up to the trial-division bound "
            f"{MAX_TRIAL_DIVISOR}, and the cofactor is too large to be certified prime")
    if n > 1:
        out[n] = 1
    return out


def squarefree_part(n):
    """Signed squarefree part of a nonzero integer."""
    return (-1 if n < 0 else 1) * prod(p for p, e in factor_integer(n).items() if e % 2)


def monomial_parts(f):
    """(c, exponents) with f = c * prod of v^e over the map exponents
    {variable name: e}, exponents of the denominator negative, for a
    nonzero monomial scalar f; NotMonomialError for any other f."""
    f = as_scalar(f)
    if f.is_zero() or not f.is_monomial():
        raise NotMonomialError("not a monomial scalar")
    (mn, cn), = f.num.terms.items()
    (md, cd), = f.den.terms.items()
    # num and den are coprime, so no variable is in both
    exps = dict(_unpack(mn))
    exps.update((v, -e) for v, e in _unpack(md))
    return Fraction(cn, cd), exps


def monomial_square_class(f):
    """Square class (d, a, b) of a monomial scalar c*X^i*Y^j: signed
    squarefree d of c and the parities of i and j."""
    c, exps = monomial_parts(f)
    d = squarefree_part(c.numerator * c.denominator)
    return d, exps.get("X", 0) % 2, exps.get("Y", 0) % 2


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

# caps on a power in the grammar, checked before it is computed: the
# exponent and the degree of the result (exponent times the base's degree).
# In two variables a result of degree <= 64 has at most C(66, 2) = 2145
# terms.  (X + Y + 1)^64 takes about 0.16 s (2-vCPU VM).
MAX_EXPONENT = 1000
MAX_POWER_DEGREE = 64
# parentheses nested deeper than this are refused as they are read: the
# parser recurses once per level, and Python's stack holds about 250
MAX_NESTING = 100

_TOKEN_RE = re.compile(r"\s*(\d+|X|Y|\*\*|[-+*/^()])")


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


def _int_literal(tok, pos):
    """The int of a digit token; a literal over Python's int/str conversion
    limit (sys.get_int_max_str_digits()) is refused, not a ValueError."""
    try:
        return int(tok)
    except ValueError:
        raise ResourceLimitError(
            f"integer literal of {len(tok)} digits is too long to read "
            f"(at position {pos})") from None


def _check_size(what, degree, pos):
    if degree > MAX_POWER_DEGREE:
        raise ResourceLimitError(
            f"{what} of degree {degree} exceeds the cap {MAX_POWER_DEGREE} "
            f"(at position {pos})")


def _degrees(r):
    """(degree of the numerator, degree of the denominator) of r."""
    return r.num.degree(), r.den.degree()


# The parser finds each operand's degrees once, without walking its
# monomials except for a parenthesized sum or a product, and passes them in.

def _check_power(degrees, e, pos):
    if e > MAX_EXPONENT:
        raise ResourceLimitError(
            f"exponent {e} exceeds the cap {MAX_EXPONENT} (at position {pos})")
    _check_size("power", e * max(degrees), pos)


def _check_product(a_degrees, b_degrees, op, pos):
    """The degree cap, on the numerator and denominator products of a op b."""
    (an, ad), (bn, bd) = a_degrees, b_degrees if op == "*" else b_degrees[::-1]
    _check_size("product", max(an + bn, ad + bd), pos)


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

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
        base, e, degrees = self.factor()
        val = base if e == 1 else base ** e
        while self.peek() in ("*", "/"):
            op, pos = self.next()
            base, e, rhs_degrees = self.factor()
            # before the power is computed; a product's degrees are walked
            # only if another factor follows
            _check_product(degrees or _degrees(val), rhs_degrees, op, pos)
            rhs = base if e == 1 else base ** e
            if op == "/" and rhs.is_zero():
                raise ParseError("division by zero", self.toks[self.i - 1][1])
            val = val * rhs if op == "*" else val / rhs
            degrees = None
        return val

    def factor(self):
        """(base, exponent, degrees of base^exponent), the power not yet
        computed."""
        base, degrees = self.primary()
        if self.peek() not in ("^", "**"):
            return base, 1, degrees
        self.next()
        neg = False
        while self.peek() == "-":
            self.next()
            neg = not neg
        tok, pos = self.next()
        if not tok.isdigit():
            raise ParseError(f"expected integer exponent, got {tok!r}", pos)
        e = _int_literal(tok, pos)
        _check_power(degrees, e, pos)
        dn, dd = degrees[::-1] if neg else degrees
        # deg p^e = e deg p for p != 0, Z[X, Y] being a domain, and nothing
        # cancels in the power of a coprime pair; 0^e is 0 for e > 0
        return base, -e if neg else e, (e * dn, e * dd) if base or not e else (-1, 0)

    def primary(self):
        tok, pos = self.next()
        neg = False
        while tok == "-":
            neg = not neg
            tok, pos = self.next()
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise ResourceLimitError(
                    f"parentheses nested deeper than {MAX_NESTING} (at position {pos})")
            self.depth += 1
            val = self.expr()
            self.depth -= 1
            self.expect(")")
            degrees = _degrees(val)
        elif tok.isdigit():
            c = _int_literal(tok, pos)
            # the zero polynomial has degree -1
            val, degrees = RationalFunction.from_const(c), (0 if c else -1, 0)
        elif tok in ("X", "Y"):
            val, degrees = RationalFunction.variable(tok), (1, 0)
        else:
            raise ParseError(f"unexpected token {tok!r}", pos)
        return (-val if neg else val), degrees


def parse_scalar(text):
    """Parse the scalar grammar into a RationalFunction."""
    return _Parser(text).parse()


def _format_mono(mono, coeff):
    body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in _unpack(mono))
    if not body:
        return str(coeff)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{coeff}*{body}"


def format_polynomial(p, den=1):
    """The text of p/den for a positive int den, term by term."""
    if not p.terms:
        return "0"
    monos = sorted(p.terms, reverse=True)
    coeffs = [p.terms[m] if den == 1 else Fraction(p.terms[m], den) for m in monos]
    out = _format_mono(monos[0], coeffs[0])
    for m, c in zip(monos[1:], coeffs[1:]):
        piece = _format_mono(m, abs(c))
        out += f" - {piece}" if c < 0 else f" + {piece}"
    return out


def format_scalar(f):
    """Canonical text form; parse(format(f)) == f."""
    f = as_scalar(f)
    # the text keeps the den primitive, its integer content c dividing the num
    c, den = f.den.content_and_primitive()
    try:
        if den.is_constant():
            return format_polynomial(f.num, c)
        return f"({format_polynomial(f.num, c)})/({format_polynomial(den)})"
    except ValueError:   # an int over sys.get_int_max_str_digits()
        raise ResourceLimitError("the value has a coefficient too long to print (over "
                                 f"{sys.get_int_max_str_digits()} digits)") from None


X = RationalFunction.variable("X")
Y = RationalFunction.variable("Y")
ONE = RationalFunction.one()
ZERO = RationalFunction.zero()
