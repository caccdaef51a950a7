"""Tests for exact scalar arithmetic, orderings and the text grammar."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from hermsq.errors import (DivisionByZeroError, HermsqError, NotMonomialError,
                           ParseError, ResourceLimitError)
from hermsq.scalars import (MonomialOrdering, ORDERINGS, Polynomial,
                            RationalFunction, X, Y, as_scalar, format_scalar,
                            factor_integer, monomial_square_class, parse_scalar,
                            poly_divexact, poly_gcd, sign_at, squarefree_part)
from hermsq import scalars
from hermsq.involutions import QuaternionAlgebra
from hermsq.ncpoly import NCPolynomial
from hermsq.zpoly import ZPolynomial


def random_poly(rng, nterms=3, maxdeg=3, maxc=6, names=("X", "Y")):
    p = Polynomial()
    for _ in range(rng.randint(0, nterms)):
        mono = []
        for v in names:
            e = rng.randint(0, maxdeg)
            if e:
                mono.append((v, e))
        c = rng.randint(-maxc, maxc)
        p = p + Polynomial.monomial(tuple(mono), c)
    return p


class TestPolynomial:
    def test_zero_and_constants(self):
        assert Polynomial.zero().is_zero()
        assert Polynomial.const(0).is_zero()
        assert Polynomial.const(-3).constant() == -3
        assert Polynomial.one().degree() == 0
        assert Polynomial.zero().degree() == -1

    def test_coefficients_are_ints(self):
        # Polynomial is Z[X, Y]: a rational enters through RationalFunction
        x = Polynomial.variable("X")
        for c in (Fraction(1, 2), Fraction(2), 0.5):
            with pytest.raises(HermsqError):
                Polynomial.const(c)
            with pytest.raises(HermsqError):
                Polynomial.monomial((("X", 1),), c)
        for op in (lambda: x * Fraction(1, 2), lambda: Fraction(1, 2) * x,
                   lambda: x + Fraction(1, 2), lambda: Fraction(1, 2) - x):
            with pytest.raises(TypeError):
                op()
        assert RationalFunction(x) * Fraction(1, 2) == RationalFunction(x, 2)

    def test_variable_arithmetic(self):
        x = Polynomial.variable("X")
        y = Polynomial.variable("Y")
        assert (x + y) * (x - y) == x * x - y * y
        assert (x + 1) ** 2 == x * x + 2 * x + 1
        assert x.degree_in("X") == 1
        assert x.degree_in("Y") == 0

    def test_unknown_variable_rejected(self):
        with pytest.raises(HermsqError):
            Polynomial.variable("w")

    def test_leading_term_graded_lex(self):
        x = Polynomial.variable("X")
        y = Polynomial.variable("Y")
        p = x * x + y  # degree 2 beats degree 1
        mono, coeff = p.leading()
        assert dict(mono) == {"X": 2}
        assert coeff == 1
        # same degree: the larger variable Y wins
        mono, _ = (x + y).leading()
        assert dict(mono) == {"Y": 1}

    def test_ring_axioms_random(self):
        rng = random.Random(11)
        for _ in range(200):
            a = random_poly(rng)
            b = random_poly(rng)
            c = random_poly(rng)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a - a).is_zero()

    def test_evaluate(self):
        x, y = Polynomial.variable("X"), Polynomial.variable("Y")
        p = 2 * x ** 2 * y - 6 * x + 1
        val = p.evaluate({"X": 2, "Y": Fraction(1, 4)})
        assert val == Fraction(8, 4) - 12 + 1
        # x^2*y - 3*x + 1/2 as a rational function
        val = RationalFunction(p, 2).evaluate({"X": 2, "Y": Fraction(1, 4)})
        assert val == Fraction(4, 4) - 6 + Fraction(1, 2)

    def test_evaluate_missing_variable(self):
        p = Polynomial.variable("X")
        with pytest.raises(HermsqError):
            p.evaluate({"Y": 1})


def reference_key(a, b):
    """The graded-lex key of X^a Y^b in its earlier form: the monomial as
    (variable key, exponent) pairs sorted by key, X's key (0, 0, 0, 0)
    below Y's (1, 0, 0, 0), ordered by (total degree, pairs reversed)."""
    pairs = tuple(p for p in (((0, 0, 0, 0), a), ((1, 0, 0, 0), b)) if p[1])
    return (a + b, pairs[::-1])


def packed(a, b):
    return scalars._pack((("X", a), ("Y", b)))


class TestPackedMonomials:
    """A monomial X^a Y^b is one int; its order is the graded-lex order, its
    sum is the product, and a degree that reaches 2^W is refused."""

    def test_order_is_graded_lex(self):
        monos = [(a, b) for a in range(16) for b in range(16)]
        by_reference = sorted(monos, key=lambda m: reference_key(*m))
        assert sorted(monos, key=lambda m: packed(*m)) == by_reference
        # and it is the order the text lists terms in, largest first
        p = sum((Polynomial.monomial((("X", a), ("Y", b)), 1) for a, b in monos), Polynomial())

        def text(a, b):
            parts = [v if e == 1 else f"{v}^{e}" for v, e in (("X", a), ("Y", b)) if e]
            return "*".join(parts) or "1"

        assert format_scalar(p) == " + ".join(text(a, b) for a, b in by_reference[::-1])

    def test_sum_is_product(self):
        for a, b, c, d in itertools.product(range(16), repeat=4):
            assert packed(a, b) + packed(c, d) == packed(a + c, b + d)
        for a, b, c, d in itertools.product(range(0, 16, 3), repeat=4):
            prod_ = (Polynomial.monomial((("X", a), ("Y", b)), 2)
                     * Polynomial.monomial((("X", c), ("Y", d)), -3))
            assert prod_ == Polynomial.monomial((("X", a + c), ("Y", b + d)), -6)
            assert dict(prod_.leading()[0]) == {v: e for v, e in (("X", a + c), ("Y", b + d)) if e}

    def test_degree_limit(self):
        top = 2 ** scalars._W - 1
        x, y = Polynomial.variable("X"), Polynomial.variable("Y")
        # at the limit every field holds its value without a carry
        big = Polynomial.variable("X", top)
        assert big.leading() == ((("X", top),), 1) and big.degree() == top
        half = Polynomial.variable("Y", top - 5) * Polynomial.variable("X", 5)
        assert half.leading() == ((("X", 5), ("Y", top - 5)), 1)
        assert half.degree_in("Y") == top - 5
        for over in (lambda: big * x,
                     lambda: x * big,
                     lambda: Polynomial.variable("Y", top) * y,
                     lambda: Polynomial.variable("X", 2 ** 31) * Polynomial.variable("Y", 2 ** 31),
                     lambda: (big + 1) * (x + y),
                     lambda: Polynomial.variable("X", 2 ** 31) ** 2,
                     lambda: (x + 1) ** (2 ** scalars._W),
                     lambda: Polynomial.variable("X", top + 1),
                     lambda: Polynomial.monomial((("X", 2 ** 31), ("Y", 2 ** 31)), 1),
                     lambda: RationalFunction.variable("Y", top) * RationalFunction.variable("Y")):
            with pytest.raises(ResourceLimitError, match="reaches the limit"):
                over()
        with pytest.raises(HermsqError):
            Polynomial.variable("X", -1)


def reference_product(p, q):
    """The term map of p * q by the plain dict loop, cancelled terms
    removed."""
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def reference_mono_text(mono, coeff):
    """The text of coeff times a monomial in its earlier form: the joined
    (variable, exponent) pairs of `_unpack`."""
    body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in scalars._unpack(mono))
    if not body:
        return str(coeff)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{coeff}*{body}"


def snapshot(*values):
    """The term maps of polynomials and rational functions, copied in order."""
    polys = []
    for v in values:
        polys.extend((v.num, v.den) if isinstance(v, RationalFunction) else (v,))
    return [(p.terms, list(p.terms.items())) for p in polys]


def assert_unchanged(before):
    for terms, items in before:
        assert list(terms.items()) == items


class TestSmallOperations:
    """The fixed work of small Z[X, Y] operations: a polynomial keeps the dict
    it is built from, a product filters only cancelled terms, a one-term
    power is one term, and monomial text comes from the packed fields."""

    def test_products_with_cancellation(self):
        x, y, one = Polynomial.variable("X"), Polynomial.variable("Y"), Polynomial.one()
        for p, q, want in (((x + 1), (x - 1), x * x - 1),
                           ((x + y), (x - y), x * x - y * y),
                           ((x * x + x * y + y * y), (x - y), x ** 3 - y ** 3),
                           ((x + 1), (1 - x) * (x * x + 1), one - x ** 4)):
            assert p * q == want and q * p == want
        # one to four terms +-X^a Y^b, a, b <= 2, so that terms often cancel
        monos = [(("X", a), ("Y", b)) for a in range(3) for b in range(3)]

        def small(rng):
            return sum((Polynomial.monomial(m, rng.choice((-1, 1)))
                        for m in rng.sample(monos, rng.randint(1, 4))), Polynomial())

        rng = random.Random(41)
        cancelled = 0
        for _ in range(400):
            p, q = small(rng), small(rng)
            want = reference_product(p, q)
            got = p * q
            assert 0 not in got.terms.values()
            assert list(got.terms.items()) == list(want.items())
            cancelled += len(want) < len({m1 + m2 for m1 in p.terms for m2 in q.terms})
        assert cancelled > 50

    def test_one_term_powers(self):
        rng = random.Random(43)
        for _ in range(200):
            p = Polynomial.monomial((("X", rng.randint(0, 4)), ("Y", rng.randint(0, 4))),
                                    rng.choice((-1, 1)) * rng.randint(1, 7))
            n = rng.randint(0, 9)
            want = Polynomial.one()
            for _ in range(n):
                want = want * p
            assert list((p ** n).terms.items()) == list(want.terms.items())
        assert (Polynomial.const(-3) ** 3).terms == {0: -27}
        assert (Polynomial.zero() ** 0).terms == {0: 1} and not Polynomial.zero() ** 2
        # at the degree limit every field holds its value without a carry
        top = 2 ** scalars._W - 1
        assert (-Polynomial.variable("X")) ** top == -Polynomial.variable("X", top)
        xy = Polynomial.variable("X") * Polynomial.variable("Y")
        half = 2 ** (scalars._W - 1) - 1
        assert (xy ** half).leading() == ((("X", half), ("Y", half)), 1)
        for over in (lambda: xy ** (half + 1),
                     lambda: Polynomial.monomial((("X", 3),), -2) ** 2 ** 31,
                     lambda: RationalFunction.variable("Y", -5) ** 2 ** 30):
            with pytest.raises(ResourceLimitError, match="reaches the limit"):
                over()

    def test_monomial_text(self):
        top = 2 ** (scalars._W - 1) - 1
        exps = [*range(13), top]
        for a, b in itertools.product(exps, repeat=2):
            mono = packed(a, b)
            for coeff in (1, -1, 2, -5, Fraction(3, 4), Fraction(-1, 2)):
                assert scalars._format_mono(mono, coeff) == reference_mono_text(mono, coeff)
        p = (Polynomial.monomial((("X", top), ("Y", 1)), -6)
             + Polynomial.variable("Y", top) - Polynomial.variable("X", 2))
        assert format_scalar(RationalFunction(p, 2)) == f"-3*X^{top}*Y + 1/2*Y^{top} - 1/2*X^2"

    def test_operands_unchanged(self):
        rng = random.Random(47)
        x = Polynomial.variable("X")
        for _ in range(150):
            p = random_poly(rng, nterms=4, maxdeg=3)
            q = random_poly(rng, nterms=4, maxdeg=3)
            one_term = Polynomial.monomial((("Y", rng.randint(0, 3)),), rng.randint(1, 4))
            before = snapshot(p, q, one_term, x)
            for f in (p, one_term):
                f + q, f - q, -f, f * q, q * f, f * 3, f ** 3, f ** 0
                poly_gcd(f, q)
                if f:
                    poly_divexact(f * q, f)
                    poly_divexact(f * x, x)
            if q:
                a, b = RationalFunction(p, q), RationalFunction(one_term + x, q)
                rf_before = snapshot(a, b)
                a + b, a - b, a * b, -a, a ** 2, a ** -1 if a else a, b / (b + 1)
                a + 2, 3 * a, a * Fraction(1, 2), RationalFunction(q, one_term)
                assert_unchanged(rf_before)
            assert_unchanged(before)


class TestGcd:
    def test_divexact(self):
        x = Polynomial.variable("X")
        y = Polynomial.variable("Y")
        f = (x + y) * (x - y)
        assert poly_divexact(f, x + y) == x - y
        with pytest.raises(HermsqError):
            poly_divexact(x * x + 1, x + y)
        with pytest.raises(DivisionByZeroError):
            poly_divexact(x, Polynomial.zero())

    def test_divexact_over_z(self):
        # exact in Z[X, Y]: a quotient that needs a rational coefficient is
        # inexact, by a constant divisor too
        x = Polynomial.variable("X")
        y = Polynomial.variable("Y")
        assert exact_terms(poly_divexact(2 * x + 2, Polynomial.const(2))) == exact_terms(x + 1)
        assert exact_terms(poly_divexact(6 * x * y + 4 * y, 3 * x + 2)) == exact_terms(2 * y)
        q = 2 * x - 3 * y + 5
        for d in (x + y, 3 * x * y - 2, Polynomial.const(-7)):
            assert poly_divexact(q * d, d) == q
            assert poly_divexact(q * d, q) == d
        for f, g in ((x, Polynomial.const(2)), (x * x + x, 2 * x + 2), (q * (x + y) + 1, x + y)):
            with pytest.raises(HermsqError):
                poly_divexact(f, g)

    def test_divexact_by_one_term(self):
        # a one-term divisor divides term by term, in time linear in f
        x = Polynomial.variable("X")
        y = Polynomial.variable("Y")
        p = (x + y + 1) ** 40
        assert len(p.terms) == 861
        assert poly_divexact(6 * p, Polynomial.const(3)) == 2 * p
        assert poly_divexact(-4 * x * y * p, -2 * x * y) == 2 * p
        assert exact_terms(poly_divexact(x * y + y, y)) == exact_terms(x + 1)
        for f, g in ((2 * x + 3, Polynomial.const(2)), (x, y), (x * y + 1, x),
                     (x * y * y, x * x * y)):
            with pytest.raises(HermsqError):
                poly_divexact(f, g)

    def test_divexact_by_several_terms(self):
        # a divisor of two or more terms divides through a heap of the
        # remainder's monomials
        x = Polynomial.variable("X")
        y = Polynomial.variable("Y")
        q = (x + y + 1) ** 40
        assert poly_divexact(q * (x + 1), x + 1) == q
        assert poly_divexact(q * (x * y - 2 * y + 3), x * y - 2 * y + 3) == q
        for f, g in ((q * (x + 1) + y, x + 1), (q * (x + 1) + 1, x + 1),
                     (x ** 3 + y ** 3, x + 2 * y), (3 * x + 3, 2 * x + 2),
                     (x * y + 1, x * x + y)):
            with pytest.raises(HermsqError):
                poly_divexact(f, g)

    def test_divexact_term_that_cancels_and_reappears(self):
        # dividing f by h, the remainder's X*Y term cancels and then comes
        # back from a later quotient term, so it must enter the heap again
        x = Polynomial.variable("X")
        y = Polynomial.variable("Y")
        h = 2 * x * y + 2 * x + 1
        q = x * y - 2 * y + 2
        f = h * q
        assert f == (2 * x ** 2 * y ** 2 - 4 * x * y ** 2 + 2 * x ** 2 * y + x * y
                     - 2 * y + 4 * x + 2)
        assert poly_divexact(f, h) == q
        assert poly_divexact(f, q) == h

    def test_gcd_basic(self):
        x = Polynomial.variable("X")
        y = Polynomial.variable("Y")
        assert poly_gcd(Polynomial.zero(), x) == x
        assert poly_gcd(x, Polynomial.zero()) == x
        assert poly_gcd(Polynomial.const(4), x) == Polynomial.one()
        g = poly_gcd((x + y) * x, (x + y) * y)
        assert g == x + y

    def test_gcd_normalized_positive_leading(self):
        x = Polynomial.variable("X")
        g = poly_gcd(-2 * x * x, -4 * x)
        assert g == x

    def test_coprime_shortcut_not_fooled_by_its_own_points(self):
        # h's leading coefficients in X and in Y vanish at exactly the
        # points the shortcut draws, so the specialized gcd there is 1
        p = (1 << 61) - 1
        rng = random.Random(0xC0FFEE)
        r = [rng.randrange(1, p) for _ in range(4)]
        x, y = Polynomial.variable("X"), Polynomial.variable("Y")
        h = (y - r[0]) * (y - r[1]) * (x - r[2]) * (x - r[3]) * x * y + 1
        assert RationalFunction(h * (x + 2), h * (y + 3)) == RationalFunction(x + 2, y + 3)

    def test_gcd_divides_both_random(self):
        rng = random.Random(5)
        for _ in range(60):
            a = random_poly(rng, nterms=2, maxdeg=2)
            b = random_poly(rng, nterms=2, maxdeg=2)
            h = random_poly(rng, nterms=2, maxdeg=2)
            f = a * h
            g = b * h
            d = poly_gcd(f, g)
            if f.is_zero() and g.is_zero():
                assert d.is_zero()
                continue
            # d divides both inputs and is divisible by the common factor h
            if not f.is_zero():
                poly_divexact(f, d)
            if not g.is_zero():
                poly_divexact(g, d)
            if not h.is_zero():
                poly_divexact(d, h.content_and_primitive()[1])


# each case draws the variables in a random order
KEY_ORDER_NAMES = ["X", "Y"]


def primitive(p):
    return p.content_and_primitive()[1]


class TestIntegerGcdKernel:
    """Seeded properties of the integer gcd over X and Y."""

    def triples(self, seed, count=40):
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            f, g, h = (random_poly(rng, nterms=3, maxdeg=2, names=rng.sample(KEY_ORDER_NAMES, 2))
                       for _ in range(3))
            if f.is_zero() or g.is_zero() or h.is_zero():
                continue
            # the rational factor a/b of f/g reaches RationalFunction as
            # integer contents of f and g
            a, b = rng.randint(1, 9), rng.randint(1, 9)
            out.append((f * a, g * b, h))
        return out

    def test_common_factor_comes_out(self):
        for f, g, h in self.triples(101):
            assert poly_gcd(f * h, g * h) == primitive(h * poly_gcd(f, g))

    def test_gcd_integer_primitive_positive(self):
        for f, g, h in self.triples(102):
            for d in (poly_gcd(f * h, g * h), poly_gcd(f, g), poly_gcd(f * h, h)):
                assert all(type(c) is int for c in d.terms.values())
                num = 0
                for c in d.terms.values():
                    num = gcd(num, c.numerator)
                assert num == 1
                assert d.leading()[1] > 0

    def test_rational_function_cancels_common_factor(self):
        for f, g, h in self.triples(103):
            assert RationalFunction(f * h, g * h) == RationalFunction(f, g)

    def test_parse_format_roundtrip_key_order(self):
        rng = random.Random(104)
        done = 0
        while done < 60:
            n, d = (random_poly(rng, nterms=3, maxdeg=2, names=rng.sample(KEY_ORDER_NAMES, 2))
                    for _ in range(2))
            if d.is_zero():
                continue
            done += 1
            r = RationalFunction(n, d)
            assert parse_scalar(format_scalar(r)) == r

    def test_variables_sort_by_order_key(self):
        # X before Y in a monomial's text, whatever order it was given in;
        # the generic variables z are not scalars (see test_zpoly)
        r = parse_scalar("Y*X^2 + Y^3*X")
        assert format_scalar(r) == "X*Y^3 + X^2*Y"
        mono, _ = (parse_scalar("X^2 + Y*X + Y^2").num).leading()
        assert mono == (("Y", 2),)
        p = Polynomial.monomial((("Y", 1), ("X", 2)), 3)
        assert p == parse_scalar("3*X^2*Y").num
        assert p.leading() == ((("X", 2), ("Y", 1)), 3)
        assert p.variables() == {"X", "Y"}
        assert p.degree_in("X") == 2 and p.degree_in("Y") == 1
        assert Polynomial.variable("Y", 4).variables() == {"Y"}
        with pytest.raises(HermsqError):
            Polynomial.monomial((("z2_1_1", 1),), 3)
        with pytest.raises(ParseError):
            parse_scalar("3*z2_1_1^2*z10_1_1")


def determinant(rows):
    """Fraction-free Bareiss elimination; rows is a square list of int lists."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def convolve(p, q):
    """Product of coefficient lists."""
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] += c * d
    return out


def univariate(coeffs):
    """The polynomial in X with coefficients coeffs, highest degree first."""
    top = len(coeffs) - 1
    return sum((Polynomial.variable("X", top - i) * c for i, c in enumerate(coeffs)),
               Polynomial())


def subresultant(a, b, j):
    """S_j(a, b) as {exponent: int}, for coefficient lists a, b (highest
    degree first) with deg a >= deg b > j: the coefficient of x^i is the
    determinant of the Sylvester rows x^k a (k < deg b - j) and x^k b
    (k < deg a - j), cut to their first deg a + deg b - 2j - 1 columns and
    the column of x^i."""
    m, n = len(a) - 1, len(b) - 1
    width = m + n - j
    rows = ([[0] * k + a + [0] * (width - m - 1 - k) for k in range(n - j)]
            + [[0] * k + b + [0] * (width - n - 1 - k) for k in range(m - j)])
    out = {}
    for i in range(j + 1):
        c = determinant([r[:m + n - 2 * j - 1] + [r[width - 1 - i]] for r in rows])
        if c:
            out[i] = c
    return out


class TestSubresultantPRS:
    """The remainders of the subresultant PRS (_prs_gcd, the fallback of the
    heuristic gcd) are the subresultants of its inputs, up to sign: S_(d - 1)
    follows a remainder of degree d.
    This pins the update of h, which a too small value would only show as
    coefficient growth that the final primitive part removes."""

    def test_remainders_are_subresultants(self, monkeypatch):
        divisors = []
        pseudo_rem = scalars._pseudo_rem

        def recorded(fu, gu):
            divisors.append({e: p.constant() for e, p in gu.items()})
            return pseudo_rem(fu, gu)

        monkeypatch.setattr(scalars, "_pseudo_rem", recorded)
        rng = random.Random(131)
        late = 0
        for _ in range(60):
            # a common factor keeps the PRS running to the end, and the
            # degree gap of 2 or 3 sets h to lc(b)^gap for the second step
            common = [rng.choice((1, 2, 3)), rng.randint(-3, 3)]
            q = [rng.choice((2, 3))] + [rng.randint(-1, 1) for _ in range(rng.randint(4, 5))]
            p = [rng.choice((2, 3, 5))] + [rng.randint(-1, 1) for _ in range(len(q) + rng.randint(1, 2))]
            ac, bc = convolve(p, common), convolve(q, common)
            if gcd(*ac) != 1 or gcd(*bc) != 1:
                continue
            divisors.clear()
            scalars._prs_gcd(univariate(ac), univariate(bc))
            assert divisors[0] == {len(bc) - 1 - i: c for i, c in enumerate(bc) if c}
            for prev, rem in zip(divisors, divisors[1:]):
                s = subresultant(ac, bc, max(prev) - 1)
                assert rem in (s, {e: -c for e, c in s.items()})
            # a later step with a degree gap of 2 or more updates h from a
            # value other than 1, and a step after it divides by the result
            late += any(max(divisors[k - 1]) - max(divisors[k]) > 1
                        for k in range(1, len(divisors) - 2))
        assert late >= 2


HEU_NAMES = ["X", "Y"]


def heuristic_cases(seed, count):
    """Seeded (f, g, h) in one or two variables with coefficients up to 1,
    9, 10^3 or 10^6: h is squared in about a third of them, and in about
    half of those in two variables g is free of one of them."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        names = rng.sample(HEU_NAMES, rng.randint(1, 2))
        maxc = rng.choice((1, 9, 10 ** 3, 10 ** 6))
        f, g, h = (random_poly(rng, nterms=4, maxdeg=3, maxc=maxc, names=names)
                   for _ in range(3))
        if rng.random() < 0.35:
            h = h * h
        if len(names) > 1 and rng.random() < 0.5:
            g = random_poly(rng, nterms=4, maxdeg=3, maxc=maxc, names=names[1:])
        if f.is_zero() or g.is_zero() or h.is_zero():
            continue
        out.append((f, g, h))
    return out


def count_calls(monkeypatch, name):
    """Count the calls of the scalars function `name` from now on."""
    calls = []
    original = getattr(scalars, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(scalars, name, counted)
    return calls


def prs_only(monkeypatch):
    """Make the heuristic gcd give up at once, so every gcd runs the PRS."""
    monkeypatch.setattr(scalars, "_gcdheu", lambda f, g, levels: None)


class TestHeuristicGcd:
    """The heuristic gcd agrees with the PRS, and gives up only on large
    values."""

    def test_equals_prs(self, monkeypatch):
        cases = [(f * h, g * h) for f, g, h in heuristic_cases(141, 60)]
        fallbacks = count_calls(monkeypatch, "_prs_gcd")
        got, answered = [], 0
        for a, b in cases:
            before = len(fallbacks)
            got.append(poly_gcd(a, b))
            answered += len(fallbacks) == before
        assert answered == len(cases)
        prs_only(monkeypatch)
        want = [poly_gcd(a, b) for a, b in cases]
        assert len(fallbacks) >= 50
        for d, e in zip(got, want):
            assert d.terms == e.terms
            assert all(type(c) is int for c in d.terms.values())

    def test_rational_function_cancels_common_factor(self):
        for f, g, h in heuristic_cases(142, 200):
            r = RationalFunction(f * h, g * h)
            assert r == RationalFunction(f, g)
            assert_canonical(r)
            assert poly_gcd(f * h, g * h) == primitive(h * poly_gcd(f, g))

    def test_content_extracted_at_every_level(self):
        # f and g are primitive, but their images at Y = xi (a constant and
        # a polynomial in X) share an integer factor: without the content
        # removed at every level, the step in X answers 1 for them and the
        # gcd comes out as 1
        f = parse_scalar("Y^2 - 3*Y").num
        g = parse_scalar("3*Y^6 - 18*Y^5 + 3*X^2*Y^3 + 27*Y^4 + 4*X*Y^3 - 9*X^2*Y^2"
                         " - 12*X*Y^2 + 4*Y^2 - 12*Y").num
        assert poly_gcd(f, g) == f
        assert poly_gcd(g, f) == f

    def test_xi_bound(self, monkeypatch):
        # xi = max(2*min(|f|, |g|) + 2, 2*min(|f| // |lc f|, |g| // |lc g|) + 4)
        # with the leading coefficients in the lex order, X's exponent
        # first: 1 and 1 here, not the 100 of the graded-lex leaders Y^3, Y^4
        f = parse_scalar("X^2 + 100*Y^3 + 1").num
        g = parse_scalar("X^2*Y + 100*Y^4 + 3").num
        evaluate = scalars._evaluate
        points = []
        monkeypatch.setattr(scalars, "_evaluate", lambda p, unit, shift, powers:
                            points.append(powers[1]) or evaluate(p, unit, shift, powers))
        assert poly_gcd(f, g) == Polynomial.one()
        assert points[0] == 2 * 100 // 1 + 4

    def test_rejected_candidate_retries(self, monkeypatch):
        # the integer gcd of the values has a spurious factor at the first
        # two points, and the candidates rebuilt there fail the division
        f = parse_scalar("Y^4 + Y^3 + Y^2 + 3*Y - 6").num
        g = parse_scalar("3*Y^3 - 2*Y^2 + 9*Y - 6").num
        divide = scalars._divide
        rejected = []

        def checked(p, h):
            q = divide(p, h)
            if q is None:
                rejected.append(h)
            return q

        monkeypatch.setattr(scalars, "_divide", checked)
        fallbacks = count_calls(monkeypatch, "_prs_gcd")
        assert poly_gcd(f, g) == parse_scalar("Y^2 + 3").num
        assert len(rejected) == 2 and not fallbacks

    def test_gives_up_after_six_points(self, monkeypatch):
        # every candidate of the heuristic is rejected: each point rebuilds
        # one, which fails on f, and after six points the PRS answers
        f = parse_scalar("(X + 1) * (X - 2)").num
        g = parse_scalar("(X + 1) * (3*X + 5)").num
        divide = scalars._divide
        fallbacks = count_calls(monkeypatch, "_prs_gcd")
        points = []
        monkeypatch.setattr(scalars, "_divide",
                            lambda p, h: divide(p, h) if fallbacks else points.append(h))
        assert poly_gcd(f, g) == parse_scalar("X + 1").num
        assert len(points) == 6 and len(fallbacks) == 1

    def test_gives_up_before_large_values(self, monkeypatch):
        # xi grows with the coefficients: at about 2^24000, the third power
        # of xi passes the bound on the values' bits, which f*h and g*h of
        # degree up to 6 in Y need
        rng = random.Random(3)
        f, g, h = (random_poly(rng, nterms=4, maxdeg=3, maxc=2 ** 12000) for _ in range(3))
        fallbacks = count_calls(monkeypatch, "_prs_gcd")
        assert poly_gcd(f * h, g * h) == primitive(h * poly_gcd(f, g))
        assert fallbacks


def cofactor_pairs(seed, count):
    """Seeded f*h*c, g*h*c from heuristic_cases: X-only, Y-only and
    bivariate, a joint integer content c (1 in about a quarter of them) and
    random signs, so leading coefficients are negative in about half."""
    rng = random.Random(seed)
    out = []
    for f, g, h in heuristic_cases(seed, count):
        c = rng.choice((1, 2, 6, 35))
        out.append((f * h * (c * rng.choice((1, -1))), g * h * (c * rng.choice((1, -1)))))
    return out


def assert_cofactors(f, g):
    h, qf, qg = scalars._gcd_cofactors(f, g)
    assert h == poly_gcd(f, g)
    for p, q in ((f, qf), (g, qg)):
        assert all(type(c) is int for c in q.terms.values())
        if h.is_zero():
            assert q.is_zero()
        else:
            assert q == poly_divexact(p, h)
            assert h * q == p


class TestGcdCofactors:
    """_gcd_cofactors(f, g) returns poly_gcd(f, g) with the two exact
    quotients, at every exit."""

    def test_cheap_exits(self):
        x, y = Polynomial.variable("X"), Polynomial.variable("Y")
        zero, p = Polynomial(), 6 * x * x - 4 * x * y + 2
        for f, g in ((zero, zero), (zero, p), (-p, zero), (zero, Polynomial.const(-3)),
                     (Polynomial.const(-4), p), (p, Polynomial.const(6)),
                     # monomial gcds X*Y, 1 and X^2
                     (-6 * x * x * y, 4 * x * y ** 3 + 2 * x ** 3 * y),
                     (x * x + x * y, -3 * y), (9 * x ** 3 - x * x, 6 * x ** 2 * y),
                     # no shared variable, and joint content 2
                     (2 * x * x + 4, -6 * y + 2)):
            assert_cofactors(f, g)
            assert_cofactors(g, f)

    def test_heuristic_exit(self, monkeypatch):
        pairs = cofactor_pairs(151, 60)
        fallbacks = count_calls(monkeypatch, "_prs_gcd")
        for f, g in pairs:
            assert_cofactors(f, g)
        assert not fallbacks

    def test_prs_exit(self, monkeypatch):
        prs_only(monkeypatch)
        fallbacks = count_calls(monkeypatch, "_prs_gcd")
        for f, g in cofactor_pairs(152, 30):
            assert_cofactors(f, g)
        assert len(fallbacks) >= 25


class TestRationalFunction:
    def test_canonical_reduction(self):
        f = RationalFunction(parse_scalar("X^2 - Y^2").num,
                             parse_scalar("X + Y").num)
        assert f == X - Y
        assert f.den == Polynomial.one()

    def test_denominator_normalization(self):
        # equal values get identical representations
        a = parse_scalar("(2*X)/(4*Y)")
        b = parse_scalar("X/(2*Y)")
        assert a == b
        assert a.num == parse_scalar("X").num
        assert a.den == parse_scalar("2*Y").num
        assert hash(a) == hash(b)

    def test_zero_denominator(self):
        with pytest.raises(DivisionByZeroError):
            RationalFunction(Polynomial.one(), Polynomial.zero())
        with pytest.raises(DivisionByZeroError):
            X / RationalFunction.zero()

    def test_field_axioms_random(self):
        rng = random.Random(23)
        count = 0
        while count < 60:
            n1 = random_poly(rng, nterms=2, maxdeg=2)
            d1 = random_poly(rng, nterms=2, maxdeg=2)
            n2 = random_poly(rng, nterms=2, maxdeg=2)
            d2 = random_poly(rng, nterms=2, maxdeg=2)
            if d1.is_zero() or d2.is_zero():
                continue
            count += 1
            a = RationalFunction(n1, d1)
            b = RationalFunction(n2, d2)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) - b == a
            if not b.is_zero():
                assert (a / b) * b == a
                assert b * b.inverse() == RationalFunction.one()

    def test_powers(self):
        f = X / Y
        assert f ** 0 == RationalFunction.one()
        assert f ** -2 == (Y * Y) / (X * X)

    def test_as_scalar(self):
        assert as_scalar(3) == RationalFunction.from_const(3)
        assert as_scalar(Fraction(1, 2)) * 2 == RationalFunction.one()
        with pytest.raises(HermsqError):
            as_scalar("X")


def exact_terms(p):
    """The term map of p, in order, with the coefficients' types."""
    return [(m, type(c), c) for m, c in p.terms.items()]


class TestDenominatorOneFastPaths:
    """Sums and products of two num/1 fractions skip the gcd work; the
    result must be exactly what the general constructor builds."""

    def fractions(self, seed, rational):
        """(p, d): an int polynomial p over an int d, 1 unless rational,
        that RationalFunction(p, d) reduces."""
        rng = random.Random(seed)
        out = []
        for _ in range(40):
            p, d = random_poly(rng, nterms=4, maxdeg=2), 1
            if rational:
                c = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 7))
                p, d = p * c.numerator, c.denominator
            out.append((p, d))
        return out + [(Polynomial.const(3), 4), (Polynomial(), 1)]

    @pytest.mark.parametrize("rational", [False, True])
    def test_same_terms_as_constructor(self, rational):
        pairs = self.fractions(31 + rational, rational)
        for (p, d), (q, e) in zip(pairs, pairs[1:] + pairs[:1]):
            a, b = RationalFunction(p, d), RationalFunction(q, e)
            for got, want in ((a + b, RationalFunction(p * e + q * d, d * e)),
                              (a * b, RationalFunction(p * q, d * e)),
                              (a - b, RationalFunction(p * e - q * d, d * e))):
                assert exact_terms(got.num) == exact_terms(want.num)
                assert exact_terms(got.den) == exact_terms(want.den)

    def test_constructor_content_one(self):
        # content 1 skips the division; the result is unchanged
        p = parse_scalar("3*X^2 - 2*X*Y + 5").num
        d = parse_scalar("X + 2*Y").num
        f = RationalFunction(p, d)
        assert f.den.terms == d.terms and f.num.terms == p.terms
        c, prim = d.content_and_primitive()
        assert c == 1 and type(c) is int and exact_terms(prim) == exact_terms(d)
        c, prim = (-d).content_and_primitive()
        assert c == -1 and type(c) is int and exact_terms(prim) == exact_terms(d)
        c, prim = (d * -6).content_and_primitive()
        assert c == -6 and type(c) is int and exact_terms(prim) == exact_terms(d)
        assert Polynomial().content_and_primitive() == (0, Polynomial())
        # p over -2/3, by the constructor and by a rational scalar
        for g in (RationalFunction(p * 3, -2), RationalFunction(p) / as_scalar(Fraction(-2, 3))):
            assert g.den == Polynomial.const(2) and type(g.den.constant()) is int
            assert g.num.terms == {m: c * -3 for m, c in p.terms.items()}

    def test_zero_factor_runs_no_gcd(self, monkeypatch):
        # (X/Y)*0 ran two gcds; a zero factor now returns 0/1 at once
        def no_gcd(f, g):
            raise AssertionError("gcd run for a zero factor")

        f = parse_scalar("(X + 2)/(3*Y - X)")
        zeros = (RationalFunction.zero(), f - f)
        monkeypatch.setattr(scalars, "_gcd_cofactors", no_gcd)
        for zero in zeros:
            for got in (f * zero, zero * f, f * 0, 0 * f, zero * zero):
                assert got.is_zero() and got.den == Polynomial.one()
                assert got == RationalFunction.zero()

    def test_mixed_denominators(self):
        rng = random.Random(37)
        for _ in range(30):
            p, q, d = (random_poly(rng, nterms=3, maxdeg=2) for _ in range(3))
            if d.is_zero() or d.is_constant():
                continue
            a, b = RationalFunction(p), RationalFunction(q, d)
            assert a + b == RationalFunction(p * d + q, d)
            assert a * b == RationalFunction(p * q, d)


def constant_values(seed, count=60):
    """Fractions for the constant lane: zero, small and large ints of both
    signs, and ratios of small and of large ints."""
    rng = random.Random(seed)
    big = 10 ** 30
    out = [Fraction(0), Fraction(1), Fraction(-1), Fraction(big + 7), Fraction(-3, 4)]
    while len(out) < count:
        span = rng.choice((9, 1000, big))
        out.append(Fraction(rng.randint(-span, span), rng.choice((1, 1, rng.randint(1, span)))))
    return out


def assert_is_fraction(r, f):
    """r has exactly the canonical terms of the Fraction f, and hashes as it."""
    assert r.num.terms == ({0: f.numerator} if f else {})
    assert r.den.terms == {0: f.denominator}
    assert all(type(c) is int for c in (*r.num.terms.values(), *r.den.terms.values()))
    assert hash(r) == hash(f)
    assert r.as_fraction() == f


class TestConstantLane:
    """Two constant operands run on their int pairs; each result must be the
    canonical pair of the Fraction, and mixed operands keep the general
    path."""

    def test_against_fraction(self):
        values = constant_values(41)
        for a, b in itertools.product(values[:12], values):
            ra, rb = as_scalar(a), as_scalar(b)
            assert_is_fraction(ra + rb, a + b)
            assert_is_fraction(ra - rb, a - b)
            assert_is_fraction(ra * rb, a * b)
            assert_is_fraction(-rb, -b)
            if b:
                assert_is_fraction(ra / rb, a / b)
                assert_is_fraction(rb.inverse(), 1 / b)

    def test_int_operands_and_integers(self):
        for a, b in itertools.product((0, 1, -1, 6, -10 ** 25), repeat=2):
            for got, want in ((as_scalar(a) + b, a + b), (a + as_scalar(b), a + b),
                              (a - as_scalar(b), a - b), (as_scalar(a) * b, a * b)):
                assert_is_fraction(got, Fraction(want))
                assert got.den.terms == {0: 1}
        assert_is_fraction(RationalFunction.from_const(-7), Fraction(-7))
        assert_is_fraction(RationalFunction.from_const(Fraction(6, -4)), Fraction(-3, 2))

    def test_from_ints(self):
        for n, d in ((6, -4), (-6, 4), (0, -5), (10 ** 30, 10 ** 29), (-3, -9)):
            assert_is_fraction(RationalFunction.from_ints(n, d), Fraction(n, d))
        with pytest.raises(DivisionByZeroError):
            RationalFunction.from_ints(1, 0)

    def test_zero_operand_returns_the_other(self):
        f = parse_scalar("(X + 2)/(3*Y)")
        zero = RationalFunction.zero()
        assert f + zero is f and zero + f is f
        assert f - zero == f

    def test_no_polynomial_product_on_constants(self, monkeypatch):
        a, b = as_scalar(Fraction(-6, 35)), as_scalar(Fraction(14, 9))

        def no_product(self, other):
            raise AssertionError("Polynomial product on two constants")
        monkeypatch.setattr(Polynomial, "__mul__", no_product)
        monkeypatch.setattr(Polynomial, "__rmul__", no_product)
        assert_is_fraction(a + b, Fraction(-6, 35) + Fraction(14, 9))
        assert_is_fraction(a * b, Fraction(-6, 35) * Fraction(14, 9))
        assert_is_fraction(a / b, Fraction(-6, 35) / Fraction(14, 9))

    def test_mixed_operands_take_the_general_path(self, monkeypatch):
        symbolic = [parse_scalar(t) for t in ("X", "(X + 2)/(3*Y - X)", "X^2/6", "7/(2*Y)")]
        cases = [(as_scalar(c), f) for c in constant_values(44, 12)[1:] for f in symbolic]
        # what the general constructor builds from the same num/den pairs
        want = [(RationalFunction(c.num * f.den + f.num * c.den, c.den * f.den),
                 RationalFunction(c.num * f.num, c.den * f.den)) for c, f in cases]
        calls = []
        original = scalars._pair
        monkeypatch.setattr(scalars, "_pair", lambda n, d: calls.append(1) or original(n, d))
        for (c, f), (total, product) in zip(cases, want):
            for got, w in ((c + f, total), (f + c, total), (c * f, product), (f * c, product)):
                assert sorted(exact_terms(got.num)) == sorted(exact_terms(w.num))
                assert sorted(exact_terms(got.den)) == sorted(exact_terms(w.den))
        assert not calls

    def test_foreign_operands(self):
        three = as_scalar(3)
        for foreign in (None, 1.5, "3"):
            for op in (lambda: foreign - three, lambda: foreign / three,
                       lambda: three - foreign, lambda: three / foreign,
                       lambda: foreign + three, lambda: foreign * three):
                with pytest.raises(TypeError) as err:
                    op()
                assert "NotImplementedType" not in str(err.value)
            assert three.__rsub__(foreign) is NotImplemented
            assert three.__rtruediv__(foreign) is NotImplemented
        # a foreign operand over zero is a type error, not a division by zero
        with pytest.raises(TypeError):
            None / RationalFunction.zero()
        assert RationalFunction.zero().__rtruediv__(None) is NotImplemented


def rational_poly(rng, names=("X", "Y")):
    """A random polynomial with Fraction coefficients, as a RationalFunction
    with a constant den, and its text."""
    p, parts = RationalFunction.zero(), []
    for _ in range(rng.randint(1, 3)):
        c = Fraction(rng.randint(-6, 6) or 1, rng.choice((1, 2, 3, 4, 6, 9)))
        mono = tuple((v, rng.randint(1, 2)) for v in names if rng.random() < 0.5)
        p = p + RationalFunction(Polynomial.monomial(mono, c.numerator), c.denominator)
        parts.append("*".join([f"({c})"] + [f"{v}^{e}" for v, e in mono]))
    return p, " + ".join(parts)


def assert_canonical(r):
    """Int coefficients, a den with positive leading coefficient, joint
    integer content 1, num and den coprime, zero as 0/1."""
    coeffs = [*r.num.terms.values(), *r.den.terms.values()]
    assert all(type(c) is int for c in coeffs)
    assert r.den.leading()[1] > 0
    assert gcd(*coeffs) == 1
    if r.is_zero():
        assert r.den == Polynomial.one()
    else:
        assert poly_gcd(r.num, r.den).is_constant()


class TestCanonicalForm:
    """Every way of building a value gives the same num and den terms."""

    def test_paths_agree_random(self):
        rng = random.Random(71)
        for _ in range(120):
            (n, n_text), (d, d_text), (e, _) = (rational_poly(rng) for _ in range(3))
            if n.is_zero() or d.is_zero() or e.is_zero() or (d + 1).is_zero():
                continue
            c = e / (d + 1)
            # n/d by the constructor, the constant dens crossed over
            want = RationalFunction(n.num * d.den, n.den * d.num)
            got = [parse_scalar(f"({n_text})/({d_text})"),
                   n / d,
                   n * d.inverse(),
                   (want + c) - c,
                   (want * c) / c,
                   (want ** 3) * want ** -2,
                   (want.inverse() ** 2).inverse() / want]
            for r in [want, *got]:
                assert_canonical(r)
                assert r.num.terms == want.num.terms
                assert r.den.terms == want.den.terms

    def test_constants_agree(self):
        rng = random.Random(72)
        for _ in range(60):
            p, q = rng.randint(-50, 50), rng.randint(1, 40)
            want = RationalFunction.from_const(Fraction(p, q))
            got = [parse_scalar(f"{p}/{q}"),
                   RationalFunction(Polynomial.const(p), Polynomial.const(q)),
                   RationalFunction(p, q),
                   RationalFunction(-p, -q),
                   as_scalar(p) / as_scalar(q),
                   as_scalar(Fraction(p, 2 * q)) + as_scalar(Fraction(p, 2 * q)),
                   as_scalar(Fraction(p, q)) * as_scalar(Fraction(7, 3)) / 7 * 3]
            for r in [want, *got]:
                assert_canonical(r)
                assert r.num.terms == want.num.terms
                assert r.den.terms == want.den.terms
            assert want.num == Polynomial.const(p // gcd(p, q))
            assert want.den == Polynomial.const(q // gcd(p, q))
            assert want.as_fraction() == Fraction(p, q)
            assert type(want.as_fraction()) is Fraction


class TestPrsFallback(TestIntegerGcdKernel, TestCanonicalForm):
    """The gcd and canonical-form properties above, with the heuristic gcd
    giving up at once so that the PRS it falls back to answers every gcd."""

    @pytest.fixture(autouse=True)
    def heuristic_gives_up(self, monkeypatch):
        prs_only(monkeypatch)

    def test_fallback_answers(self, monkeypatch):
        fallbacks = count_calls(monkeypatch, "_prs_gcd")
        for f, g, h in self.triples(105, count=20):
            assert poly_gcd(f * h, g * h) == primitive(h * poly_gcd(f, g))
        assert len(fallbacks) >= 20


class TestOrderingsAndSign:
    def test_parse_and_registry(self):
        assert MonomialOrdering.parse("+-") is MonomialOrdering(1, -1)
        assert str(MonomialOrdering(-1, 1)) == "-+"
        assert len(ORDERINGS) == 4
        with pytest.raises(HermsqError):
            MonomialOrdering.parse("++-")

    def test_constants(self):
        for p in ORDERINGS:
            assert sign_at(as_scalar(5), p) == 1
            assert sign_at(as_scalar(-5), p) == -1
            assert sign_at(as_scalar(0), p) == 0

    def test_infinitesimal_signs(self):
        pp = MonomialOrdering.parse("++")
        mm = MonomialOrdering.parse("--")
        assert sign_at(X, pp) == 1
        assert sign_at(Y, pp) == 1
        assert sign_at(X, mm) == -1
        assert sign_at(X * Y, mm) == 1

    def test_y_much_smaller_than_x(self):
        # the dominant term has minimal Y-degree, then minimal X-degree
        pp = MonomialOrdering.parse("++")
        assert sign_at(X - Y, pp) == 1          # X dominates Y
        assert sign_at(parse_scalar("X^5 - Y"), pp) == 1
        assert sign_at(parse_scalar("1 - X"), pp) == 1
        assert sign_at(parse_scalar("X^2 - X"), pp) == -1

    def test_sign_multiplicative_random(self):
        rng = random.Random(7)
        done = 0
        while done < 150:
            a = random_poly(rng)
            b = random_poly(rng)
            if a.is_zero() or b.is_zero():
                continue
            done += 1
            f = RationalFunction(a)
            g = RationalFunction(b)
            for p in ORDERINGS:
                assert sign_at(f * g, p) == sign_at(f, p) * sign_at(g, p)
                assert sign_at(f * f, p) == 1

    def test_sign_rejects_generic_variables(self):
        # a generic variable is no scalar: the grammar refuses it
        with pytest.raises(ParseError):
            sign_at(parse_scalar("z1_1_1"), ORDERINGS[0])


class TestSquareClasses:
    def test_squarefree_part(self):
        assert squarefree_part(1) == 1
        assert squarefree_part(4) == 1
        assert squarefree_part(12) == 3
        assert squarefree_part(-18) == -2
        with pytest.raises(HermsqError):
            squarefree_part(0)

    def test_factor_integer(self):
        assert factor_integer(1) == {}
        assert factor_integer(-360) == {2: 3, 3: 2, 5: 1}
        assert factor_integer(3 * 999999999989) == {3: 1, 999999999989: 1}
        with pytest.raises(HermsqError):
            factor_integer(0)

    def test_factoring_bound(self, monkeypatch):
        # with trial divisors up to B, every integer below B^2 factors
        # completely, and so does a prime cofactor below (B + 1)^2
        monkeypatch.setattr(scalars, "MAX_TRIAL_DIVISOR", 100)
        assert factor_integer(89 * 97) == {89: 1, 97: 1}
        assert factor_integer(4 * 10007) == {2: 2, 10007: 1}
        # 101 * 103 has no divisor up to 100 and is not below 101^2
        with pytest.raises(ResourceLimitError, match="bound 100"):
            factor_integer(101 * 103)
        with pytest.raises(ResourceLimitError):
            squarefree_part(-9 * 101 * 103)
        assert squarefree_part(-9 * 97) == -97

    def test_monomial_square_class(self):
        assert monomial_square_class(parse_scalar("X")) == (1, 1, 0)
        assert monomial_square_class(parse_scalar("-8*X^2*Y^3")) == (-2, 0, 1)
        assert monomial_square_class(parse_scalar("X/Y")) == (1, 1, 1)
        assert monomial_square_class(parse_scalar("9/4")) == (1, 0, 0)

    def test_monomial_square_class_rejects(self):
        with pytest.raises(NotMonomialError):
            monomial_square_class(X + Y)
        with pytest.raises(NotMonomialError):
            monomial_square_class(RationalFunction.zero())
        with pytest.raises(ParseError):
            monomial_square_class(parse_scalar("z1_1_1"))


class TestGrammar:
    def test_roundtrip_examples(self):
        for text in ("0", "1", "-1", "X", "X*Y", "X^2 - Y", "1/2",
                     "(X + Y)/(X - Y)", "3*X^2*Y - 1/3"):
            f = parse_scalar(text)
            assert parse_scalar(format_scalar(f)) == f
        with pytest.raises(ParseError):
            parse_scalar("z1_2_3")

    def test_den_content_moves_into_the_num(self):
        # the den's integer content c > 1 divides the num's coefficients in
        # the text, which keeps the den primitive
        for text, want in (("(3*X - 1)/(6*Y + 4)", "(3/2*X - 1/2)/(3*Y + 2)"),
                           ("(X + 1)/(2*Y + 2)", "(1/2*X + 1/2)/(Y + 1)"),
                           ("(X + 3)/2", "1/2*X + 3/2"),
                           ("-(4*X^2*Y - 3)/(6*X*Y - 9*Y^2 + 12)",
                            "(4/3*X^2*Y - 1)/(3*Y^2 - 2*X*Y - 4)"),
                           ("5/(10*X)", "(1/2)/(X)"),
                           ("(6*X)/(4*Y)", "(3/2*X)/(Y)"),
                           ("7/3", "7/3")):
            assert format_scalar(parse_scalar(text)) == want

    def test_roundtrip_random(self):
        rng = random.Random(41)
        done = 0
        while done < 100:
            n = random_poly(rng)
            d = random_poly(rng)
            if d.is_zero():
                continue
            done += 1
            f = RationalFunction(n, d)
            assert parse_scalar(format_scalar(f)) == f

    def test_precedence(self):
        assert parse_scalar("1 + 2*X^2") == 1 + 2 * X * X
        assert parse_scalar("-X^2") == -(X * X)
        assert parse_scalar("(1+X)^2") == (1 + X) * (1 + X)
        assert parse_scalar("1/2/2") == as_scalar(Fraction(1, 4))
        assert parse_scalar("X^-1") == X.inverse()

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError) as exc:
            parse_scalar("X + $")
        assert exc.value.position == 4
        with pytest.raises(ParseError):
            parse_scalar("X +")
        with pytest.raises(ParseError):
            parse_scalar("(X")
        with pytest.raises(ParseError):
            parse_scalar("1/0")
        with pytest.raises(ParseError):
            parse_scalar("X Y")

    def test_caps_find_each_degree_once(self, monkeypatch):
        # the caps walked every operand for its degree at each * / and ^, ten
        # walks here; now only the product 3*X^2, which another factor
        # follows, is walked, once for its numerator and once for its
        # denominator
        walks = []
        degree = Polynomial.degree
        monkeypatch.setattr(Polynomial, "degree", lambda p: walks.append(p) or degree(p))
        assert parse_scalar("3*X^2*Y") == 3 * X ** 2 * Y
        assert len(walks) == 2

    def test_product_cap_before_powers(self, monkeypatch):
        # only the first operand's power is built (its numerator and its
        # denominator 1): the product's cap is checked before the second
        calls = []
        power = Polynomial.__pow__
        monkeypatch.setattr(Polynomial, "__pow__", lambda p, n: calls.append(n) or power(p, n))
        with pytest.raises(ResourceLimitError, match="product of degree 128 exceeds"):
            parse_scalar("(X+Y+1)^64*(X+Y+1)^64")
        assert calls == [64, 64]
        calls.clear()
        with pytest.raises(ResourceLimitError, match="product of degree 80 exceeds"):
            parse_scalar("X^40/(X+1)^-40")
        assert calls == [40, 40]

    def test_nesting(self):
        depth = scalars.MAX_NESTING
        assert parse_scalar("(" * depth + "X" + ")" * depth) == X
        assert parse_scalar("-(" * depth + "X" + ")" * depth) == (-1) ** depth * X
        with pytest.raises(ResourceLimitError, match=f"nested deeper than {depth}"):
            parse_scalar("(" * (depth + 1) + "X" + ")" * (depth + 1))
        # unary minus is read in a loop, and binds tighter than a power
        assert parse_scalar("X*" + "-" * 3001 + "X") == -X * X
        assert parse_scalar("X*" + "-" * 3001 + "X^2") == X ** 3

    def test_power_caps(self):
        # over a cap: inputs the grammar would have computed at once, so
        # that only the check tells them apart
        with pytest.raises(ResourceLimitError) as exc:
            parse_scalar("X^100000")
        assert f"exponent 100000 exceeds the cap {scalars.MAX_EXPONENT}" in str(exc.value)
        with pytest.raises(ResourceLimitError) as exc:
            parse_scalar(f"(X+1)^{scalars.MAX_POWER_DEGREE + 1}")
        assert f"degree {scalars.MAX_POWER_DEGREE + 1} exceeds" in str(exc.value)
        with pytest.raises(ResourceLimitError) as exc:
            parse_scalar("(1/X^2)^-33")
        assert f"degree 66 exceeds the cap {scalars.MAX_POWER_DEGREE}" in str(exc.value)
        # at the caps
        assert parse_scalar(f"X^{scalars.MAX_POWER_DEGREE}") == X ** scalars.MAX_POWER_DEGREE
        assert parse_scalar(f"2^{scalars.MAX_EXPONENT}") == as_scalar(2 ** scalars.MAX_EXPONENT)
        assert parse_scalar("(X+Y+1)^0") == RationalFunction.one()
        assert parse_scalar("(X+1)^-3") == ((X + 1) ** 3).inverse()
        # products and quotients share the caps, checked before each is formed
        with pytest.raises(ResourceLimitError) as exc:
            parse_scalar("(X+Y+1)^40*(X+Y+1)^40")
        assert f"product of degree 80 exceeds the cap {scalars.MAX_POWER_DEGREE}" in str(exc.value)
        with pytest.raises(ResourceLimitError) as exc:
            parse_scalar("1/(X+1)^40/(X+1)^40")
        assert "product of degree 80 exceeds" in str(exc.value)
        # under the caps
        assert parse_scalar("(X+Y+1)^20*(X+Y+1)^20") == (X + Y + 1) ** 40
        assert parse_scalar("X^32*X^32/X^64") == RationalFunction.one()


class TestTermMaps:
    """The three sparse term maps share one additive group and equality."""

    def test_shared_methods_written_once(self):
        shared = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__eq__",
                  "__bool__", "is_zero")
        for cls in (Polynomial, ZPolynomial, NCPolynomial):
            assert issubclass(cls, scalars.TermMap)
            assert [name for name in shared if name in vars(cls)] == []

    def test_unknown_operands(self):
        for zero in (Polynomial(), ZPolynomial(), NCPolynomial.zero()):
            assert not zero and zero.is_zero() and zero == 0
            assert zero != "x" and zero != None  # noqa: E711
            with pytest.raises(TypeError):
                zero + None
            with pytest.raises(TypeError):
                None - zero


def equal_value_family(rng):
    """Values of different types that are all equal to one random scalar:
    an int, a Fraction, a Polynomial, RationalFunctions built two ways, a
    scalar QuatElem and an NCPolynomial, as far as the scalar allows."""
    quat = QuaternionAlgebra(-1, -1)
    kind = rng.randrange(3)
    if kind == 0:
        value = rng.randint(-3, 3)
    elif kind == 1:
        value = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    else:
        value = random_poly(rng, nterms=2, maxdeg=2, maxc=3)
    family = [value]
    if kind < 2:
        family += [Fraction(value), NCPolynomial.const(value)]
        if Fraction(value).denominator == 1:
            family += [int(value), Polynomial.const(int(value))]
    else:
        family.append(RationalFunction(value))
    k = rng.choice([1, -2, 3])
    r = as_scalar(value)
    family += [r, RationalFunction(r.num * k, r.den * k), quat.elem(r)]
    return family


class TestEqualValuesHashEqual:
    def test_equal_implies_equal_hash(self):
        rng = random.Random(211)
        quat = QuaternionAlgebra(-1, -1)
        values = []
        for _ in range(40):
            values += equal_value_family(rng)
        # values equal to no scalar
        values += [quat.elem(1, 1), quat.elem(X, 0, Y), X / (X + 1),
                   NCPolynomial.variable(1) + 2, Polynomial.variable("X") + 1]
        pairs = 0
        for a, b in itertools.product(values, repeat=2):
            if a == b:
                pairs += type(a) is not type(b)
                assert hash(a) == hash(b), (a, b)
        assert pairs > 200

    def test_set_membership(self):
        assert 2 in {as_scalar(2)} and as_scalar(2) in {2}
        assert Fraction(1, 2) in {as_scalar(Fraction(1, 2))}
        assert 3 in {Polynomial.const(3)} and 2 in {NCPolynomial.const(2)}
        assert X in {RationalFunction(X.num)} and X.num in {X}
        assert 2 in {QuaternionAlgebra(-1, -1).elem(2)}
