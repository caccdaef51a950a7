"""Tests for the dense matrix kernel: the product over Q(X, Y), which sums
each entry over a common denominator and reduces it once, against a
product that reduces after every + and *."""

import random
from fractions import Fraction

import pytest

from hermsq import linalg, scalars
from hermsq.certificates import symplectic_minus_one
from hermsq.involutions import (AlgebraWithInvolution, InvolutionSpec, entry_33_constraint,
                                symbolic_elements)
from hermsq.qforms import DiagonalForm
from hermsq.scalars import Polynomial, RationalFunction, X, Y, as_scalar
from hermsq.zpoly import ZPolynomial

ZERO = as_scalar(0)


def reference_mul(x, y, zero):
    """x * y with RationalFunction + and *, each reducing its result."""
    return [[sum((x[i][t] * y[t][j] for t in range(len(y))), zero)
             for j in range(len(y[0]))] for i in range(len(x))]


def exact(m):
    """Each entry's num and den term maps, with the coefficients' types:
    equal scalars must have identical representations."""
    return [[[sorted((k, type(c), c) for k, c in p.terms.items()) for p in (v.num, v.den)]
             for v in row] for row in m]


def assert_same_product(x, y):
    got = linalg.mat_mul(x, y, ZERO)
    want = reference_mul(x, y, ZERO)
    assert exact(got) == exact(want)
    for row in got:
        for v in row:
            if not v:
                assert v.num.terms == {} and v.den.terms == {0: 1}
    return got


def poly(rng, nterms=3, deg=2, span=5):
    p = Polynomial()
    for _ in range(nterms):
        mono = (("X", rng.randint(0, deg)), ("Y", rng.randint(0, deg)))
        p = p + Polynomial.monomial(mono, rng.randint(-span, span))
    return p


def nonzero_poly(rng, **kw):
    while True:
        p = poly(rng, **kw)
        if p:
            return p


def nonzero(rng):
    return RationalFunction(nonzero_poly(rng))


def random_rf(rng, zero_share=0.0):
    if rng.random() < zero_share:
        return ZERO
    return RationalFunction(nonzero_poly(rng), nonzero_poly(rng, nterms=2))


def random_matrix(rng, rows, cols, zero_share=0.0):
    return [[random_rf(rng, zero_share) for _ in range(cols)] for _ in range(rows)]


class TestRationalProduct:
    def test_dense_random(self):
        rng = random.Random(101)
        for n, inner, m in ((2, 2, 2), (3, 4, 2), (4, 4, 4), (1, 5, 3)):
            assert_same_product(random_matrix(rng, n, inner), random_matrix(rng, inner, m))

    def test_sparse_random(self):
        rng = random.Random(102)
        for _ in range(6):
            assert_same_product(random_matrix(rng, 4, 4, 0.6), random_matrix(rng, 4, 4, 0.6))

    def test_one_product_entries(self):
        # a permutation pattern: every entry has at most one product, which
        # is the cross-cancelling a * b
        rng = random.Random(103)
        n = 4
        perm = [2, 0, 3, 1]
        x = [[random_rf(rng) if j == perm[i] else ZERO for j in range(n)] for i in range(n)]
        y = random_matrix(rng, n, n)
        got = assert_same_product(x, y)
        assert all(got[i][j] == x[i][perm[i]] * y[perm[i]][j]
                   for i in range(n) for j in range(n))

    def test_products_that_cancel_to_zero(self):
        # row (a, b) against columns (c, -a c / b): every entry is 0/1
        rng = random.Random(104)
        for _ in range(5):
            a, b = random_rf(rng), random_rf(rng)
            cs = [random_rf(rng) for _ in range(3)]
            x = [[a, b], [b, a]]
            y = [cs, [-(a * c) / b for c in cs]]
            got = assert_same_product(x, y)
            assert all(not v for v in got[0])

    def test_constant_entries(self):
        # an integer skew S as in thm4.7, and a matrix of Fractions
        rng = random.Random(105)
        n = 8
        s = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = as_scalar(rng.randint(-9, 9))
                s[i][j], s[j][i] = v, -v
        f = [[as_scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 12))) for _ in range(n)]
             for _ in range(n)]
        assert_same_product(s, f)
        assert_same_product(f, s)
        assert_same_product(f, f)

    def test_rows_with_distinct_denominators(self):
        # each row's entries have their own polynomial denominators
        rng = random.Random(106)
        dens = [X + 1, Y - 2, X * Y + 3, X ** 2 + Y]
        x = [[nonzero(rng) / d for d in dens] for _ in range(3)]
        y = random_matrix(rng, 4, 3)
        assert_same_product(x, y)
        assert_same_product(linalg.transpose(y), linalg.transpose(x))

    def test_columns_sharing_a_denominator(self):
        # S^-1 from the skew congruence: each column lies over one
        # denominator; (S W^t) S^-1 and S S^-1 = I
        s = [[ZERO, X, ZERO, as_scalar(1)], [-X, ZERO, Y + 1, ZERO],
             [ZERO, -Y - 1, ZERO, X * Y], [as_scalar(-1), ZERO, -X * Y, ZERO]]
        alg = AlgebraWithInvolution("F", 4, InvolutionSpec.int_skew(s))
        inverse = alg._skew_inv
        got = assert_same_product(s, inverse)
        assert got == linalg.identity(4, ZERO, as_scalar(1))
        w = symplectic_minus_one(s).witnesses[0]
        swt = assert_same_product(s, linalg.transpose(w))
        assert_same_product(swt, inverse)

    def test_one_reduction_per_entry(self, monkeypatch):
        # with one denominator per factor, only the sum's reduction runs a gcd
        rng = random.Random(107)
        dx, dy = X ** 2 + Y + 1, X * Y - 2
        x = [[nonzero(rng) / dx for _ in range(3)] for _ in range(2)]
        y = [[nonzero(rng) / dy for _ in range(2)] for _ in range(3)]
        want = reference_mul(x, y, ZERO)
        calls = []

        def counted(f, g, gcd=scalars._gcd_cofactors):
            calls.append(1)
            return gcd(f, g)
        monkeypatch.setattr(scalars, "_gcd_cofactors", counted)
        assert exact(linalg.mat_mul(x, y, ZERO)) == exact(want)
        assert len(calls) == 4


class TestOtherEntryTypes:
    def test_zpolynomial_entries_under_a_rational_zero(self):
        # sigma(a) a for a symbolic a: ZPolynomial entries, a RationalFunction
        # zero, and the plain loop
        q = DiagonalForm([X, Y, X * Y])
        alg = AlgebraWithInvolution("F", 3, InvolutionSpec.adjoint_diag(q))
        a = symbolic_elements(alg, 1)[0]
        got = linalg.mat_mul(alg.involution(a), a, ZERO)
        assert got == reference_mul(alg.involution(a), a, ZERO)
        assert all(isinstance(v, ZPolynomial) for row in got for v in row)
        assert got[2][2] == entry_33_constraint(alg, [a])

    @pytest.mark.parametrize("zero", [Fraction(0), Polynomial()])
    def test_fraction_and_polynomial_entries(self, zero):
        rng = random.Random(108)
        if isinstance(zero, Fraction):
            x = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
                 for _ in range(3)]
        else:
            x = [[poly(rng) for _ in range(3)] for _ in range(3)]
        assert linalg.mat_mul(x, x, zero) == reference_mul(x, x, zero)
