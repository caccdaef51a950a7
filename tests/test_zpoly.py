"""Tests for ZPolynomial, the ring F[z] over F = Q(X,Y) that holds generic
matrix entries and symbolic elements."""

import random
from fractions import Fraction

import pytest

from hermsq.involutions import QuatElem, QuaternionAlgebra
from hermsq.linalg import mat_mul
from hermsq.scalars import RationalFunction, X, Y, as_scalar, parse_scalar
from hermsq.zpoly import ZPolynomial

NAMES = ["z2_1_1", "z10_1_1", "z9_9_1", "z1_1_2"]
SCALARS = ["1", "-3/2", "X", "Y - 1", "X*Y/(1 + X)", "1/Y"]


def z(name):
    return ZPolynomial.variable(name)


def random_zpoly(rng, nterms=3):
    p = ZPolynomial()
    for _ in range(rng.randint(0, nterms)):
        term = parse_scalar(rng.choice(SCALARS))
        for name in rng.sample(NAMES, rng.randint(0, 2)):
            term = z(name) * term
        p = p + term
    return p


class TestRing:
    def test_ring_axioms_random(self):
        rng = random.Random(17)
        for _ in range(60):
            a, b, c = (random_zpoly(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b * c) == (a * b) * c
            assert a * (b + c) == a * b + a * c
            assert (a - b) + b == a
            assert not (a - a) and (a - a).is_zero()

    def test_monomials_sort_by_name(self):
        # z10_1_1 sorts before z2_1_1 as a name; the product is the same
        # monomial whichever factor comes first
        p = z("z2_1_1") * z("z10_1_1")
        assert p == z("z10_1_1") * z("z2_1_1")
        assert p.terms == {(("z10_1_1", 1), ("z2_1_1", 1)): 1}
        assert (p * z("z2_1_1")).terms == {(("z10_1_1", 1), ("z2_1_1", 2)): 1}

    def test_text_does_not_depend_on_build_order(self):
        parts = [3 * z("z9_9_1"), Y * z("z2_1_1") * z("z10_1_1"), as_scalar(-1),
                 z("z1_1_2") * z("z1_1_2")]
        want = "(-1) + (Y)*z10_1_1*z2_1_1 + (1)*z1_1_2^2 + (3)*z9_9_1"
        for order in (parts, parts[::-1], parts[1:] + parts[:1]):
            assert repr(sum(order, ZPolynomial())) == want
        assert repr(ZPolynomial()) == "0"


class TestScalarsOfF:
    def test_mixed_operations(self):
        a = z("z1_3_1")
        # RationalFunction gives NotImplemented, so the reflected ops answer
        assert (Y * a).terms == {(("z1_3_1", 1),): Y}
        assert Y * a == a * Y
        assert (1 + a) - a == 1
        assert Fraction(1, 2) - a == -(a - Fraction(1, 2))
        assert X - a == -(a - X)
        assert (X * a) * X.inverse() == a
        with pytest.raises(TypeError):
            a + "X"

    def test_equal_values_compare_equal(self):
        a = z("z1_1_1")
        assert ZPolynomial() == 0 == as_scalar(0)
        three = ZPolynomial() + 3
        assert three == 3 and three == as_scalar(3) and three == Fraction(6, 2)
        assert as_scalar(3) == three
        # a RationalFunction coefficient equal to an int one
        assert (a * 2) * as_scalar(Fraction(1, 2)) == a
        assert (a * X) * X.inverse() == a
        assert a != z("z1_1_2") and a != 1

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(z("z1_1_1"))

    def test_kernels_run_unchanged(self):
        # the matrix product with a RationalFunction zero, and quaternion
        # arithmetic with ZPolynomial coordinates
        m = [[z("z1_1_1"), X], [as_scalar(0), z("z2_2_1")]]
        sq = mat_mul(m, m, as_scalar(0))
        assert sq[0][0] == z("z1_1_1") * z("z1_1_1")
        assert sq[0][1] == X * z("z1_1_1") + X * z("z2_2_1")
        assert sq[1][0] == 0
        q = QuatElem(QuaternionAlgebra(X, -1), [z(f"z1_1_{c}") for c in range(4)])
        want = (z("z1_1_0") * z("z1_1_0") - X * z("z1_1_1") * z("z1_1_1")
                + z("z1_1_2") * z("z1_1_2") - X * z("z1_1_3") * z("z1_1_3"))
        assert q.nrd() == want
        assert (q * q.conj()).coords[0] == want and (q * q.conj()).is_scalar()
        assert isinstance(RationalFunction.one() * q.coords[1], ZPolynomial)
