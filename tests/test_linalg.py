"""Tests for the dense matrix kernel: the product over Q(X, Y), which sums
each entry over a common denominator and reduces it once, against a
product that reduces after every + and *."""

import random
from fractions import Fraction

import pytest

from hermsq import certificates, linalg, qforms, scalars
from hermsq.certificates import symplectic_minus_one
from hermsq.errors import SingularMatrixError
from hermsq.involutions import (AlgebraWithInvolution, InvolutionSpec, entry_33_constraint,
                                skew_congruence, symbolic_elements)
from hermsq.qforms import DiagonalForm, GramForm, diagonalize
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


def skew(rng, n, symbolic=False):
    """An integer skew matrix over Q(X, Y), with X at (0, 1) if symbolic."""
    s = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = as_scalar(rng.randint(-9, 9))
            s[i][j], s[j][i] = v, -v
    if symbolic:
        s[0][1], s[1][0] = X, -X
    return s


def as_polys(m):
    return [[Polynomial.const(v) for v in row] for row in m]


def force_polynomial_lane(monkeypatch):
    """Make clear_denominators hand constant matrices to the kernels as
    constant Polynomials, the lane every matrix took before ints."""
    original = linalg.clear_denominators

    def as_polynomials(matrix):
        lcm, num = original(matrix)
        if type(lcm) is int:
            return Polynomial.const(lcm), as_polys(num)
        return lcm, num
    for module in (linalg, qforms, certificates):
        monkeypatch.setattr(module, "clear_denominators", as_polynomials)


def eliminate(red, n):
    """Run red to the end, 1 x 1 pivots for sign 1 and 2 x 2 for sign -1."""
    m, scales = red.m, []
    if red.sign > 0:
        for p in range(n):
            scales.append(red.eliminate((p,), ((1,),), m[p][p]))
    else:
        for t in range(0, n, 2):
            scales.append(red.eliminate((t, t + 1), ((0, -1), (1, 0)), m[t][t + 1]))
    return scales


def all_ints(*matrices):
    return all(type(v) is int for m in matrices for row in m for v in row)


# (name, matrix): the first pivot of "negative-pivot" is -2, and of
# "negative-skew" -3, so their scales are negative and `divide` takes the sign
# from the den
INT_SYMMETRIC = {
    "positive": [[2, 1, 0], [1, 3, -1], [0, -1, 5]],
    "negative-pivot": [[-2, 4, 1], [4, 1, 3], [1, 3, -7]],
    "zero-pivot": [[0, 2, 1], [2, 0, 3], [1, 3, 0]],
}
INT_SKEW = {
    "negative-skew": [[0, -3, 1, 2], [3, 0, -4, 5], [-1, 4, 0, 6], [-2, -5, -6, 0]],
    "positive-skew": [[0, 1, 2, 1], [-1, 0, 1, -3], [-2, -1, 0, 4], [-1, 3, -4, 0]],
    "swap": [[0, 0, 2, 1], [0, 0, 1, -3], [-2, -1, 0, 4], [-1, 3, -4, 0]],
}


class TestIntLane:
    """Constant matrices run the kernels on ints; the same matrix as constant
    Polynomials must give equal outputs."""

    @pytest.mark.parametrize("sign, rows", [(1, INT_SYMMETRIC["positive"]),
                                            (1, INT_SYMMETRIC["negative-pivot"]),
                                            (-1, INT_SKEW["negative-skew"]),
                                            (-1, INT_SKEW["positive-skew"])])
    def test_congruence_both_lanes(self, sign, rows):
        n = len(rows)
        ints, polys = linalg.Congruence(rows, sign), linalg.Congruence(as_polys(rows), sign)
        int_scales, poly_scales = eliminate(ints, n), eliminate(polys, n)
        assert all_ints(ints.m, ints.t, [int_scales]) and type(ints.scale) is int
        assert ints.m == polys.m and ints.t == polys.t
        assert int_scales == poly_scales and ints.scale == polys.scale

    def test_block_congruence_both_lanes(self):
        rng = random.Random(111)
        for n in (2, 4, 6):
            s = skew(rng, n)
            try:
                p, dens = skew_congruence(s)
            except SingularMatrixError:
                continue
            assert all_ints(p, [dens])
            q = linalg.divide(p, dens)
            for upper, lower in ((1, 1), (-1, 1), (1, -1)):
                num, lcm = linalg.block_congruence(p, dens, upper, lower)
                want_num, want_lcm = linalg.block_congruence(
                    as_polys(p), [Polynomial.const(d) for d in dens], upper, lower)
                assert type(lcm) is int and all_ints(num)
                assert num == want_num and lcm == want_lcm
                # N / L = P K P^t, K with the blocks [[0, upper], [lower, 0]]
                k = [[ZERO] * n for _ in range(n)]
                for t in range(0, n, 2):
                    k[t][t + 1], k[t + 1][t] = as_scalar(upper), as_scalar(lower)
                pkpt = linalg.mat_mul(linalg.mat_mul(q, k, ZERO), linalg.transpose(q), ZERO)
                assert exact(linalg.divide(num, [lcm] * n)) == exact(pkpt)

    @pytest.mark.parametrize("name", sorted(INT_SYMMETRIC))
    def test_diagonalize_both_lanes(self, name, monkeypatch):
        g = GramForm([[as_scalar(v) for v in row] for row in INT_SYMMETRIC[name]])
        assert type(linalg.clear_denominators(g.matrix)[0]) is int
        got = diagonalize(g)
        with monkeypatch.context() as m:
            force_polynomial_lane(m)
            want = diagonalize(g)
        assert exact([got.form.entries]) == exact([want.form.entries])
        assert exact(got.transform) == exact(want.transform)
        assert got.verify(g)

    @pytest.mark.parametrize("name", sorted(INT_SKEW))
    def test_skew_congruence_both_lanes(self, name, monkeypatch):
        s = [[as_scalar(Fraction(v, 2)) for v in row] for row in INT_SKEW[name]]
        p, dens = skew_congruence(s)
        with monkeypatch.context() as m:
            force_polynomial_lane(m)
            want_p, want_dens = skew_congruence(s)
            want_w = symplectic_minus_one(s).witnesses[0]
        assert all_ints(p, [dens])
        assert p == want_p and dens == want_dens
        if name == "negative-skew":
            assert dens[1] < 0
        assert exact(linalg.divide(p, dens)) == exact(linalg.divide(want_p, want_dens))
        assert exact(symplectic_minus_one(s).witnesses[0]) == exact(want_w)

    def test_divide_takes_the_sign_from_the_den(self):
        got = linalg.divide([[6, -4, 0], [0, 9, -10 ** 20]], [-4, -6, 3])
        want = [[Fraction(6, -4), Fraction(-4, -6), 0],
                [0, Fraction(9, -6), Fraction(-10 ** 20, 3)]]
        for row, want_row in zip(got, want):
            for v, w in zip(row, want_row):
                assert v.num.terms == ({0: w.numerator} if w else {})
                assert v.den.terms == {0: w.denominator}

    def test_constant_product_runs_on_ints(self, monkeypatch):
        rng = random.Random(112)
        s = skew(rng, 6)
        f = [[as_scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 12))) for _ in range(6)]
             for _ in range(6)]

        def no_dot(pairs):
            raise AssertionError("rf_dot on constant matrices")
        monkeypatch.setattr(linalg, "rf_dot", no_dot)
        for x, y in ((s, f), (f, s), (f, f)):
            assert exact(linalg.mat_mul(x, y, ZERO)) == exact(reference_mul(x, y, ZERO))

    def test_empty_constant_products(self):
        # an empty matrix is vacuously constant; the int lane must not
        # hand it back to the Q(X, Y) product
        assert linalg.mat_mul([], [], ZERO) == []
        assert linalg.mat_mul([[]], [], ZERO) == [[]]
        assert linalg.mat_mul([], [[as_scalar(1)]], ZERO) == []

    def test_one_symbolic_entry_keeps_polynomials(self):
        rng = random.Random(113)
        s = skew(rng, 4, symbolic=True)
        lcm, num = linalg.clear_denominators(s)
        assert type(lcm) is Polynomial
        assert all(type(v) is Polynomial for row in num for v in row)
        p, dens = skew_congruence(s)
        assert all(type(v) is Polynomial for row in p for v in row + dens)
        constant = skew(rng, 4)
        assert_same_product(s, constant)
        assert_same_product(constant, s)


def lane_entry(rng, lane):
    """A nonzero entry of the lane: a non-constant or a constant Q(X, Y)
    scalar, a Polynomial or an int."""
    if lane == "rational":
        return random_rf(rng)
    if lane == "constant":
        return as_scalar(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12)))
    if lane == "polynomial":
        return nonzero_poly(rng)
    return rng.choice((-1, 1)) * rng.randint(1, 9)


LANE_ZERO = {"rational": ZERO, "constant": ZERO, "polynomial": Polynomial(), "int": 0}


def half_product_cases(lane, sign):
    """(x, y) with x y = x M x^t symmetric for sign 1 (M symmetric) and skew
    for sign -1 (M skew): 1 x 1, 3 x 3, and 4 x 4 with a zero row."""
    rng = random.Random(f"{lane}/{sign}")
    zero = LANE_ZERO[lane]
    cases = []
    for n, inner, zero_row in ((1, 2, None), (3, 3, None), (4, 3, 2)):
        x = [[zero if i == zero_row else lane_entry(rng, lane) for _ in range(inner)]
             for i in range(n)]
        m = [[zero] * inner for _ in range(inner)]
        for i in range(inner):
            for j in range(i if sign > 0 else i + 1, inner):
                m[i][j] = lane_entry(rng, lane)
                m[j][i] = m[i][j] if sign > 0 else -m[i][j]
        cases.append((x, linalg.mat_mul(m, linalg.transpose(x), zero)))
    return cases


def formed(x, y, sign):
    """The number of factor products in the entries of x y on and above the
    diagonal (strictly above for sign -1), zero factors skipped."""
    n = len(x)
    return sum(1 for i in range(n) for j in range(i + (sign < 0), n)
               for t in range(len(y)) if x[i][t] and y[t][j])


class TestHalfProducts:
    """mat_mul and divide under a sign form only the upper triangle (on and
    above the diagonal for 1, above it for -1) and mirror the rest."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("lane", sorted(LANE_ZERO))
    def test_half_equals_full(self, lane, sign):
        zero = LANE_ZERO[lane]
        for x, y in half_product_cases(lane, sign):
            full = linalg.mat_mul(x, y, zero)
            half = linalg.mat_mul(x, y, zero, sign)
            if lane in ("rational", "constant"):
                assert exact(half) == exact(full)
            else:
                assert half == full
            n = len(x)
            assert all(full[i][j] == sign * full[j][i] for i in range(n) for j in range(n))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rational_lane_forms_the_triangle(self, sign, monkeypatch):
        calls = []

        def counted(row, col, zero, entry=linalg._rf_entry):
            calls.append(1)
            return entry(row, col, zero)
        monkeypatch.setattr(linalg, "_rf_entry", counted)
        for x, y in half_product_cases("rational", sign):
            n = len(x)
            del calls[:]
            linalg.mat_mul(x, y, ZERO, sign)
            assert len(calls) == (n * (n + 1) // 2 if sign > 0 else n * (n - 1) // 2)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("lane", ["constant", "polynomial", "int"])
    def test_loop_lanes_form_the_triangle(self, lane, sign, monkeypatch):
        # every factor product counted is one of the triangle's entries
        products = []

        class Counted(int):
            def __mul__(self, other):
                products.append(1)
                return int(self) * other
        if lane == "constant":
            clear = linalg._clear_ints

            def counted_ints(matrix):
                lcm, num = clear(matrix)
                return lcm, [[Counted(v) for v in row] for row in num]
            monkeypatch.setattr(linalg, "_clear_ints", counted_ints)
        elif lane == "polynomial":
            mul = Polynomial.__mul__

            def counted_mul(f, g):
                products.append(1)
                return mul(f, g)
            monkeypatch.setattr(Polynomial, "__mul__", counted_mul)
        for x, y in half_product_cases(lane, sign):
            if lane == "int":
                x = [[Counted(v) for v in row] for row in x]
            del products[:]
            linalg.mat_mul(x, y, LANE_ZERO[lane], sign)
            assert len(products) == formed(x, y, sign)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_divide_reduces_the_triangle(self, sign, monkeypatch):
        rng = random.Random(114 + sign)
        n = 4
        num = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i if sign > 0 else i + 1, n):
                num[i][j] = rng.randint(1, 30)
                num[j][i] = sign * num[i][j]
        dens = [-6] * n
        full = linalg.divide(num, dens)
        calls = []

        def counted(v, d, quotient=linalg._quotient):
            calls.append(1)
            return quotient(v, d)
        monkeypatch.setattr(linalg, "_quotient", counted)
        half = linalg.divide(num, dens, sign)
        assert len(calls) == (n * (n + 1) // 2 if sign > 0 else n * (n - 1) // 2)
        assert exact(half) == exact(full)
