"""Tests for exact scalar arithmetic, orderings and the text grammar."""

import random
from fractions import Fraction

import pytest

from hermsq.errors import (DivisionByZeroError, HermsqError, NotMonomialError,
                           ParseError)
from hermsq.scalars import (MonomialOrdering, ORDERINGS, Polynomial,
                            RationalFunction, X, Y, as_scalar, format_scalar,
                            monomial_square_class, parse_scalar, poly_divexact,
                            poly_gcd, sign_at, squarefree_part)


def random_poly(rng, nvars=2, nterms=3, maxdeg=3, maxc=6):
    names = ["X", "Y", "z1_1_1", "z1_2_1"][:nvars]
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
        assert Polynomial.const(Fraction(3, 2)).constant() == Fraction(3, 2)
        assert Polynomial.one().degree() == 0
        assert Polynomial.zero().degree() == -1

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
        p = parse_scalar("X^2*Y - 3*X + 1/2").num
        val = p.evaluate({"X": 2, "Y": Fraction(1, 4)})
        assert val == Fraction(4, 4) - 6 + Fraction(1, 2)

    def test_evaluate_missing_variable(self):
        p = Polynomial.variable("X")
        with pytest.raises(HermsqError):
            p.evaluate({"Y": 1})


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
        assert a.den == parse_scalar("Y").num
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
        rng = random.Random(seed)
        out = []
        for _ in range(40):
            p = random_poly(rng, nvars=4, nterms=4, maxdeg=2)
            if rational:
                p = p * Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 7))
            out.append(p)
        return out + [Polynomial.const(Fraction(3, 4)), Polynomial()]

    @pytest.mark.parametrize("rational", [False, True])
    def test_same_terms_as_constructor(self, rational):
        polys = self.fractions(31 + rational, rational)
        one = Polynomial.one()
        for p, q in zip(polys, polys[1:] + polys[:1]):
            a, b = RationalFunction(p), RationalFunction(q)
            for got, want in ((a + b, RationalFunction(p + q, one)),
                              (a * b, RationalFunction(p * q, one * one)),
                              (a - b, RationalFunction(p - q, one))):
                assert exact_terms(got.num) == exact_terms(want.num)
                assert exact_terms(got.den) == exact_terms(want.den)

    def test_constructor_content_one(self):
        # content 1 skips the division; the result is unchanged
        p = parse_scalar("3*X^2 - 2*X*Y + 5").num
        d = parse_scalar("X + 2*Y").num
        f = RationalFunction(p, d)
        assert f.den.terms == d.terms and f.num.terms == p.terms
        c, prim = d.content_and_primitive()
        assert c == 1 and exact_terms(prim) == exact_terms(d)
        c, prim = (-d).content_and_primitive()
        assert c == -1 and exact_terms(prim) == exact_terms(d)
        g = RationalFunction(p, Polynomial.const(Fraction(-2, 3)))
        assert g.den.terms == {(): Fraction(1)}
        assert g.num.terms == {m: c * Fraction(-3, 2) for m, c in p.terms.items()}

    def test_mixed_denominators(self):
        rng = random.Random(37)
        for _ in range(30):
            p, q, d = (random_poly(rng, nterms=3, maxdeg=2) for _ in range(3))
            if d.is_zero() or d.is_constant():
                continue
            a, b = RationalFunction(p), RationalFunction(q, d)
            assert a + b == RationalFunction(p * d + q, d)
            assert a * b == RationalFunction(p * q, d)


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
            a = random_poly(rng, nvars=2)
            b = random_poly(rng, nvars=2)
            if a.is_zero() or b.is_zero():
                continue
            done += 1
            f = RationalFunction(a)
            g = RationalFunction(b)
            for p in ORDERINGS:
                assert sign_at(f * g, p) == sign_at(f, p) * sign_at(g, p)
                assert sign_at(f * f, p) == 1

    def test_sign_rejects_generic_variables(self):
        with pytest.raises(HermsqError):
            sign_at(parse_scalar("z1_1_1"), ORDERINGS[0])


class TestSquareClasses:
    def test_squarefree_part(self):
        assert squarefree_part(1) == 1
        assert squarefree_part(4) == 1
        assert squarefree_part(12) == 3
        assert squarefree_part(-18) == -2
        with pytest.raises(HermsqError):
            squarefree_part(0)

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
        with pytest.raises(NotMonomialError):
            monomial_square_class(parse_scalar("z1_1_1"))


class TestGrammar:
    def test_roundtrip_examples(self):
        for text in ("0", "1", "-1", "X", "X*Y", "X^2 - Y", "1/2",
                     "(X + Y)/(X - Y)", "z1_2_3", "3*X^2*Y - 1/3"):
            f = parse_scalar(text)
            assert parse_scalar(format_scalar(f)) == f

    def test_roundtrip_random(self):
        rng = random.Random(41)
        done = 0
        while done < 100:
            n = random_poly(rng, nvars=3)
            d = random_poly(rng, nvars=3)
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
