"""Tests for noncommutative *-polynomials, generic matrices and matrix
positivity."""

import os
import random
from fractions import Fraction

import pytest

from hermsq.errors import (CertificateError, ParseError, ResourceLimitError,
                           ShapeError)
from hermsq.scalars import RationalFunction, as_scalar
from hermsq.ncpoly import (GenericMatrixContext, NCPolynomial,
                           PositivstellensatzCertificate, commutator,
                           format_nc, generic_eval, is_central_nonvanishing,
                           is_identity_mod_a, nc_eval, nc_star, parse_nc,
                           positivstellensatz_conditions, psd_falsify,
                           verify_positivstellensatz)


def x(i):
    return NCPolynomial.variable(i)


def xs(i):
    return NCPolynomial.variable(i, star=True)


def random_nc(rng, nvars=2, nterms=3, maxlen=3):
    f = NCPolynomial.zero()
    for _ in range(rng.randint(0, nterms)):
        word = tuple(rng.choice((1, -1)) * rng.randint(1, nvars)
                     for _ in range(rng.randint(0, maxlen)))
        f = f + NCPolynomial({word: Fraction(rng.randint(-4, 4))})
    return f


class TestNCPolynomial:
    def test_noncommutative_product(self):
        assert x(1) * x(2) != x(2) * x(1)
        assert commutator(x(1), x(2)) == x(1) * x(2) - x(2) * x(1)
        assert commutator(x(1), x(1)).is_zero()

    def test_star_is_an_involution(self):
        rng = random.Random(97)
        for _ in range(100):
            f = random_nc(rng)
            g = random_nc(rng)
            assert nc_star(nc_star(f)) == f
            assert nc_star(f * g) == nc_star(g) * nc_star(f)
            assert nc_star(f + g) == nc_star(f) + nc_star(g)

    def test_symmetry(self):
        assert (x(1) + xs(1)).is_symmetric()
        assert (xs(1) * x(1)).is_symmetric()
        assert not x(1).is_symmetric()

    def test_degree_and_variables(self):
        f = 2 * x(1) * xs(3) * x(1) - 1
        assert f.degree() == 3
        assert f.variables() == [1, 3]
        assert NCPolynomial.zero().degree() == 0

    def test_ring_axioms_random(self):
        rng = random.Random(101)
        for _ in range(100):
            a = random_nc(rng)
            b = random_nc(rng)
            c = random_nc(rng)
            assert a * (b * c) == (a * b) * c
            assert a * (b + c) == a * b + a * c
            assert (a - a).is_zero()


class TestGrammar:
    def test_parse_examples(self):
        assert parse_nc("x1") == x(1)
        assert parse_nc("x1*") == xs(1)
        assert parse_nc("x1 x2* x1") == x(1) * xs(2) * x(1)
        assert parse_nc("2 x1 - 3/2 x2") == 2 * x(1) - Fraction(3, 2) * x(2)
        assert parse_nc("1") == NCPolynomial.one()
        assert parse_nc("- x1 + x1") == NCPolynomial.zero()
        assert parse_nc("") == NCPolynomial.zero()

    def test_roundtrip_random(self):
        rng = random.Random(103)
        for _ in range(150):
            f = random_nc(rng, nvars=3)
            assert parse_nc(format_nc(f)) == f

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_nc("x1 $ x2")
        with pytest.raises(ParseError):
            parse_nc("x1 2")
        with pytest.raises(ParseError):
            parse_nc("x0")


class TestEval:
    def test_matrix_evaluation(self):
        f = x(1) * x(1) - 1
        m = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        value = nc_eval(f, [m])
        assert value == [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]

    def test_star_is_transpose(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
        assert nc_eval(xs(1), [m]) == [[Fraction(1), Fraction(3)],
                                       [Fraction(2), Fraction(4)]]

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            nc_eval(x(1), [])
        with pytest.raises(ShapeError):
            nc_eval(x(2), [[[1]]])
        with pytest.raises(ShapeError):
            nc_eval(x(1), [[[1, 2], [3, 4]], [[1]]])

    def test_generic_eval_star_homomorphism(self):
        rng = random.Random(107)
        for J, n in (("orthogonal", 2), ("symplectic", 2)):
            ctx = GenericMatrixContext(n, 2, J)
            for _ in range(10):
                f = random_nc(rng, maxlen=2)
                left = generic_eval(f.star(), ctx)
                right = ctx.star(generic_eval(f, ctx))
                assert all(a == b for ra, rb in zip(left, right)
                           for a, b in zip(ra, rb))

    def test_identity_implies_zero_on_rationals(self):
        rng = random.Random(109)
        hall = commutator(commutator(x(1), x(2)) ** 2, x(3))
        for _ in range(100):
            mats = [[[Fraction(rng.randint(-5, 5)) for _ in range(2)]
                     for _ in range(2)] for _ in range(3)]
            value = nc_eval(hall, mats)
            assert all(v == 0 for row in value for v in row)


def naive_eval(f, images, n, zero, one):
    """Reference evaluator: each word multiplied out on its own, with
    schoolbook products, then scaled and summed."""
    out = [[zero] * n for _ in range(n)]
    for w, c in f.terms.items():
        value = [[one if i == j else zero for j in range(n)] for i in range(n)]
        for l in w:
            m = images[l]
            value = [[sum((value[i][t] * m[t][j] for t in range(n)), zero)
                      for j in range(n)] for i in range(n)]
        out = [[out[i][j] + value[i][j] * c for j in range(n)] for i in range(n)]
    return out


def trie_nc(rng, nvars, nwords, maxlen):
    """Words that share prefixes: each one extends a prefix of an earlier
    word (possibly the empty word) by letters that may repeat."""
    words = [()]
    terms = {(): Fraction(rng.randint(-3, 3), rng.randint(1, 3))}
    while len(terms) < nwords:
        base = rng.choice(words)
        word = base[:rng.randint(0, len(base))] + tuple(
            rng.choice((1, -1)) * rng.randint(1, nvars)
            for _ in range(rng.randint(0, maxlen)))
        word = word[:maxlen]
        words.append(word)
        terms[word] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                               rng.choice((1, 1, 2, 5)))
    return NCPolynomial(terms)


class TestHornerEvaluation:
    """The trie (Horner) evaluator against the word-by-word reference."""

    SPECIAL = [
        NCPolynomial.zero(),
        NCPolynomial.const(Fraction(-7, 3)),
        x(1) * x(1) * x(1),
        x(1) + 2 * x(1) * x(2) - x(1) * x(2) * xs(1) + Fraction(1, 2),
        x(1) * xs(1) * x(1) * xs(1) + x(1) * xs(1) + x(1),
        commutator(commutator(x(1), x(2)) ** 2, x(3)),
    ]

    def cases(self, seed, count, nvars):
        rng = random.Random(seed)
        return self.SPECIAL + [trie_nc(rng, nvars, rng.randint(1, 8), 4)
                               for _ in range(count)]

    @pytest.mark.parametrize("J, n", [("orthogonal", 2), ("orthogonal", 3),
                                      ("symplectic", 2)])
    def test_generic_matches_naive(self, J, n):
        ctx = GenericMatrixContext(n, 3, J)
        images = {}
        for i, m in ctx.matrices.items():
            images[i] = m
            images[-i] = ctx.star(m)
        zero, one = as_scalar(0), as_scalar(1)
        for f in self.cases(211 + n, 6 if n == 3 else 15, 3):
            assert generic_eval(f, ctx) == naive_eval(f, images, n, zero, one)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rational_matches_naive(self, n):
        rng = random.Random(223 + n)
        for f in self.cases(227 + n, 40, 3):
            mats = [[[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(n)] for _ in range(n)] for _ in range(3)]
            images = {}
            for i, m in enumerate(mats, 1):
                images[i] = m
                images[-i] = [list(r) for r in zip(*m)]
            want = naive_eval(f, images, n, Fraction(0), Fraction(1))
            assert nc_eval(f, mats) == want

    def test_context_by_indices(self):
        ctx = GenericMatrixContext(2, [2, 5])
        assert sorted(ctx.matrices) == [2, 5]
        assert ctx.matrices[5][0][1] == RationalFunction.variable("z1_2_5")
        assert generic_eval(x(2) * x(5), ctx) == generic_eval(
            x(2) * x(5), GenericMatrixContext(2, 5))
        with pytest.raises(ShapeError):
            generic_eval(x(1), ctx)

    def test_only_used_letters_get_generic_matrices(self, monkeypatch):
        # a high variable index used to build one generic matrix for every
        # index below it (10^8 here) before any check
        made = []
        variable = RationalFunction.variable

        def counted(name, exp=1):
            made.append(name)
            if len(made) > 100:
                raise AssertionError("generic matrices built for unused letters")
            return variable(name, exp)

        monkeypatch.setattr(RationalFunction, "variable", staticmethod(counted))
        big = x(10 ** 8)
        assert not is_identity_mod_a(big, 2)
        assert not is_central_nonvanishing(big, 2)
        assert is_identity_mod_a(commutator(big, big * big), 2)
        assert all(name.endswith("_100000000") for name in made)


class TestIdentities:
    def test_hall_identity(self):
        hall = commutator(commutator(x(1), x(2)) ** 2, x(3))
        assert is_identity_mod_a(hall, 2)
        assert not is_identity_mod_a(hall, 3)

    def test_basic_identities(self):
        assert is_identity_mod_a(NCPolynomial.zero(), 2)
        assert not is_identity_mod_a(x(1) - xs(1), 2)
        # commutativity is an identity only for 1x1 matrices
        assert is_identity_mod_a(commutator(x(1), x(2)), 1)
        assert not is_identity_mod_a(commutator(x(1), x(2)), 2)

    def test_symplectic_type_differs(self):
        # for the symplectic involution on 2x2 matrices every element has
        # x + x* central (equal to trace times identity)
        f = commutator(x(1) + xs(1), x(2))
        assert is_identity_mod_a(f, 2, "symplectic")
        assert not is_identity_mod_a(f, 2, "orthogonal")

    def test_central_nonvanishing(self):
        assert is_central_nonvanishing(commutator(x(1), x(2)) ** 2, 2)
        assert is_central_nonvanishing(NCPolynomial.one(), 2)
        assert not is_central_nonvanishing(x(1), 2)
        assert not is_central_nonvanishing(NCPolynomial.zero(), 2)
        assert not is_central_nonvanishing(commutator(x(1), x(2)) ** 2, 3)

    def test_resource_limits(self):
        deep = x(1) ** 7
        with pytest.raises(ResourceLimitError):
            is_identity_mod_a(deep, 2)
        assert not is_identity_mod_a(deep, 2, max_degree=8)
        with pytest.raises(ResourceLimitError):
            is_identity_mod_a(x(1), 4)
        assert not is_identity_mod_a(x(1), 4, max_degree=6)

    def test_env_override(self):
        old = os.environ.get("HERMSQ_MAX_DEGREE")
        os.environ["HERMSQ_MAX_DEGREE"] = "8"
        try:
            assert not is_identity_mod_a(x(1) ** 7, 2)
            assert not is_identity_mod_a(x(1), 4)
        finally:
            if old is None:
                del os.environ["HERMSQ_MAX_DEGREE"]
            else:
                os.environ["HERMSQ_MAX_DEGREE"] = old


class TestFalsify:
    def test_hermitian_square_never_falsified(self):
        assert psd_falsify(xs(1) * x(1), 2, 25, 0) is None
        assert psd_falsify(xs(1) * x(1), 3, 10, 1) is None

    def test_symmetric_part_falsified(self):
        found = psd_falsify(x(1) + xs(1), 2, 10, 0)
        assert found is not None
        value = nc_eval(x(1) + xs(1), found)
        from hermsq.certificates import psd_symmetric_rational
        assert not psd_symmetric_rational(value)

    def test_shifted_square_falsified(self):
        found = psd_falsify(xs(1) * x(1) - 1, 2, 10, 0)
        assert found is not None

    def test_requires_symmetric(self):
        with pytest.raises(ShapeError):
            psd_falsify(x(1), 2, 5, 0)

    def test_deterministic(self):
        a = psd_falsify(x(1) + xs(1), 2, 10, 3)
        b = psd_falsify(x(1) + xs(1), 2, 10, 3)
        assert a == b


class TestPositivstellensatz:
    def trivial_cert(self):
        return PositivstellensatzCertificate(
            g=xs(1) * x(1), h=NCPolynomial.one(), n=2, J="orthogonal",
            weights=[], terms={"": [x(1)]})

    def two_square_cert(self):
        return PositivstellensatzCertificate(
            g=xs(1) * x(1) + xs(2) * x(2), h=NCPolynomial.one(), n=2,
            J="orthogonal", weights=[], terms={"": [x(1), x(2)]})

    def test_trivial_certs_pass(self):
        assert verify_positivstellensatz(self.trivial_cert())
        assert verify_positivstellensatz(self.two_square_cert())

    def test_condition_report(self):
        report = positivstellensatz_conditions(self.trivial_cert())
        assert report == {"h_central_nonvanishing": True,
                          "weights_symmetric": True,
                          "weights_central_nonvanishing": True,
                          "congruence": True}

    def test_weighted_cert(self):
        # a symmetric central polynomial: the commutator of symmetrized
        # variables, squared
        c2 = commutator(x(1) + xs(1), x(2) + xs(2)) ** 2
        cert = PositivstellensatzCertificate(
            g=c2 * (xs(3) * x(3)), h=NCPolynomial.one(), n=2, J="orthogonal",
            weights=[c2], terms={"1": [x(3)]})
        assert verify_positivstellensatz(cert)

    def test_central_denominator(self):
        c2 = commutator(x(1), x(2)) ** 2
        cert = PositivstellensatzCertificate(
            g=xs(3) * x(3), h=c2, n=2, J="orthogonal",
            weights=[], terms={"": [x(3) * c2]})
        assert verify_positivstellensatz(cert)

    def test_unprovable_target_fails(self):
        cert = PositivstellensatzCertificate(
            g=x(1) + xs(1), h=NCPolynomial.one(), n=2, J="orthogonal",
            weights=[], terms={"": [x(1)]})
        report = positivstellensatz_conditions(cert)
        assert not report["congruence"]
        # and the semantic reason: the target is simply not PSD
        assert psd_falsify(x(1) + xs(1), 2, 10, 0) is not None

    def test_single_field_corruptions_fail(self):
        base = self.trivial_cert()
        corrupted = [
            PositivstellensatzCertificate(base.g + 1, base.h, base.n, base.J,
                                          base.weights, base.terms),
            PositivstellensatzCertificate(base.g, x(1), base.n, base.J,
                                          base.weights, base.terms),
            PositivstellensatzCertificate(base.g, base.h, base.n, base.J,
                                          [x(1)], {"0": [x(1)]}),
            PositivstellensatzCertificate(base.g, base.h, base.n, base.J,
                                          base.weights, {"": [x(1) + 1]}),
        ]
        for cert in corrupted:
            assert not verify_positivstellensatz(cert)

    def test_bad_selector(self):
        cert = PositivstellensatzCertificate(
            g=xs(1) * x(1), h=NCPolynomial.one(), n=2, J="orthogonal",
            weights=[], terms={"1": [x(1)]})
        with pytest.raises(CertificateError):
            positivstellensatz_conditions(cert)

    def test_soundness_bridge(self):
        rng = random.Random(113)
        cert = self.two_square_cert()
        assert verify_positivstellensatz(cert)
        from hermsq.certificates import psd_symmetric_rational
        from hermsq.linalg import mat_mul, transpose
        zero = Fraction(0)
        for _ in range(100):
            mats = [[[Fraction(rng.randint(-5, 5)) for _ in range(2)]
                     for _ in range(2)] for _ in range(2)]
            h_val = nc_eval(cert.h, mats)
            if all(v == 0 for row in h_val for v in row):
                continue
            g_val = nc_eval(cert.g, mats)
            conj = mat_mul(mat_mul(transpose(h_val), g_val, zero), h_val, zero)
            assert psd_symmetric_rational(conj)
