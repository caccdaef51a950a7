"""Tests for noncommutative *-polynomials, generic matrices and matrix
positivity."""

import itertools
import os
import random
import sys
from fractions import Fraction
from math import lcm

import pytest

from hermsq.errors import (CertificateError, HermsqError, ParseError,
                           ResourceLimitError, ShapeError)
from hermsq.scalars import as_scalar
from hermsq.zpoly import ZPolynomial
from hermsq import jsonio, ncpoly
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


def seeded_symmetric(seed, den):
    """A symmetric polynomial in x1, x2 from `seed`, with h and k from
    random_nc: h* h / den + k* k, PSD on every tuple, for an even seed, and
    (h + h*) / den + k* k for an odd one."""
    rng = random.Random(seed)
    h, k = (random_nc(rng, nterms=4, maxlen=2) for _ in range(2))
    if seed % 2 == 0:
        return h.star() * h * Fraction(1, den) + k.star() * k
    return (h + h.star()) * Fraction(1, den) + k.star() * k


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

    def test_constant_operands(self):
        # anything Fraction reads is a constant; anything else is foreign
        zero = NCPolynomial.zero()
        assert (zero == "x") is False
        assert zero + "1/2" == NCPolynomial.const(Fraction(1, 2))
        assert zero + 1.5 == 1.5 + zero == NCPolynomial.const(Fraction(3, 2))
        assert "1/2" - x(1) == NCPolynomial.const(Fraction(1, 2)) - x(1)
        assert x(1) * "1/3" == Fraction(1, 3) * x(1)
        with pytest.raises(TypeError):
            zero + "x"
        with pytest.raises(TypeError):
            x(1) * as_scalar(2)

    def test_powers(self):
        assert x(1) ** 0 == NCPolynomial.one()
        assert x(1) ** 3 == x(1) * x(1) * x(1)
        # a negative exponent returned 1, and a non-int one raised a bare
        # TypeError from range
        for k in (-1, -3, Fraction(1, 2), 1.0, "2"):
            with pytest.raises(HermsqError):
                x(1) ** k

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
        # a sign with no term after it, and a zero denominator
        for text in ("x1 +", "x1 -", "x1 - -", "+", "--", "1/0 x1"):
            with pytest.raises(ParseError):
                parse_nc(text)
        # repeated signs before a term still parse
        assert parse_nc("x1 + + x2") == parse_nc("x1 + x2")
        assert parse_nc("- - x1") == parse_nc("x1")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on int to str conversion")
    @pytest.mark.parametrize("text", [
        "x" + "1" * 5000, "x1 x" + "1" * 5000 + "*", "1" * 5000 + " x1",
        "1" * 5000 + "/3 x1", "3/" + "1" * 5000 + " x1"])
    def test_literal_over_the_digit_limit(self, text):
        # a variable index or a coefficient over Python's int/str digit
        # limit raised a bare ValueError from int() or Fraction(); it is
        # refused as the scalar grammar refuses such a literal, also inside
        # a certificate document
        message = "integer literal of 5000 digits is too long to read"
        with pytest.raises(ResourceLimitError, match=message):
            parse_nc(text)
        doc = {"g": "1", "h": "1", "n": 2, "J": "orthogonal", "weights": [],
               "terms": {"": ["x1", text]}}
        with pytest.raises(ResourceLimitError, match=message):
            jsonio.psatz_cert_from_json(doc)

    def test_terms_summed_in_one_dict(self, monkeypatch):
        # adding each term through NCPolynomial.__add__ copies the whole
        # term dict, which is quadratic in the number of terms
        made = []
        init = NCPolynomial.__init__

        def counted(self, terms):
            made.append(len(terms))
            init(self, terms)

        monkeypatch.setattr(NCPolynomial, "__init__", counted)
        s5 = standard_polynomial(5)
        made.clear()
        assert parse_nc(format_nc(s5)) == s5
        # the parse builds one polynomial, from one dict of 120 terms
        assert made == [120]
        assert parse_nc("x1 x2 - x2 x1 + 2 x2 x1 + x1 x2") == 2 * x(1) * x(2) + x(2) * x(1)

    def test_degree_cap_as_words_are_read(self, monkeypatch):
        # s7 has 5040 words of degree 7: with the cap 6 the parse stops in
        # its first word, at the seventh letter, before any term is summed
        text = format_nc(standard_polynomial(7))
        sums = []
        monkeypatch.setattr(NCPolynomial, "__init__",
                            lambda self, terms: sums.append(terms))
        with pytest.raises(ResourceLimitError) as exc:
            parse_nc(text, max_degree=6)
        seventh = [m.start(1) for m in ncpoly._NC_TOKEN.finditer(text)][6]
        assert f"word of degree 7 at position {seventh} exceeds the cap 6" in str(exc.value)
        assert not sums
        monkeypatch.undo()
        assert parse_nc("x1 x1* x1", max_degree=3) == x(1) * xs(1) * x(1)
        # the cap is on words as read, even if a later term cancels one
        with pytest.raises(ResourceLimitError):
            parse_nc("x1 x1 x1 - x1 x1 x1", max_degree=2)
        assert parse_nc("x1 x1 x1 - x1 x1 x1").is_zero()


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

    @pytest.mark.parametrize("J", ["orthogonal", "symplectic"])
    def test_generic_entries_are_integer_polynomials(self, J):
        # generic matrices live in M_n(Z[z]): no entry is a RationalFunction
        ctx = GenericMatrixContext(2, 2, J)
        assert ctx.matrices[2][1][0] == ZPolynomial.variable("z2_1_2")
        assert all(type(v) is ZPolynomial for m in ctx.matrices.values()
                   for row in m for v in row)
        f = 3 * x(1) * xs(2) - x(2) * x(1) + 5
        value = generic_eval(f, ctx)
        assert all(type(v) is ZPolynomial for row in value for v in row)
        assert all(type(c) is int for row in value for v in row for c in v.terms.values())

    def test_context_by_indices(self):
        ctx = GenericMatrixContext(2, [2, 5])
        assert sorted(ctx.matrices) == [2, 5]
        assert ctx.matrices[5][0][1] == ZPolynomial.variable("z1_2_5")
        assert generic_eval(x(2) * x(5), ctx) == generic_eval(
            x(2) * x(5), GenericMatrixContext(2, 5))
        with pytest.raises(ShapeError):
            generic_eval(x(1), ctx)

    def test_only_used_letters_get_generic_matrices(self, monkeypatch):
        # a high variable index used to build one generic matrix for every
        # index below it (10^8 here) before any check; the decisions now
        # read the generic matrices off int matrices of slot numbers and
        # build no ZPolynomial at all
        def refused(self, terms=None):
            raise AssertionError("a decision built a ZPolynomial")

        monkeypatch.setattr(ZPolynomial, "__init__", refused)
        big = x(10 ** 8)
        assert not is_identity_mod_a(big, 2)
        assert not is_central_nonvanishing(big, 2)
        assert is_identity_mod_a(commutator(big, big * big), 2)
        assert is_identity_mod_a(standard_polynomial(4), 2, "symplectic")
        assert not is_identity_mod_a(commutator(x(1) + xs(1), x(2)), 2)


def standard_polynomial(k):
    """s_k = sum over permutations p of sign(p) x_p(1) ... x_p(k)."""
    terms = {}
    for p in itertools.permutations(range(1, k + 1)):
        inversions = sum(a > b for a, b in itertools.combinations(p, 2))
        terms[p] = Fraction((-1) ** inversions)
    return NCPolynomial(terms)


def standard_of(letters):
    """s_k at the given k polynomials, expanded into words."""
    out = NCPolynomial.zero()
    for p in itertools.permutations(range(len(letters))):
        term = NCPolynomial.const((-1) ** sum(a > b for a, b in itertools.combinations(p, 2)))
        for i in p:
            term = term * letters[i]
        out = out + term
    return out


def packed_plan(f, n, J="orthogonal"):
    """The packed kernel's (coeffs, plan) for f on n x n matrices of type
    J, whatever the screen finds."""
    _, point, v = ncpoly._generic_letters(f, n, J)
    return ncpoly._packed_plan(f, point, v, lambda u, v: False)


def packed_image(f, n, J="orthogonal"):
    """f's image through the packed kernel, unscreened, and its field
    width."""
    slots, _, _ = ncpoly._generic_letters(f, n, J)
    w = max(f.degree().bit_length(), 1)
    return ncpoly._packed_eval(*packed_plan(f, n, J), slots, w, n), w


def unpack(value, w, f, n):
    """A packed image as `ZPolynomial` entries: slot k*n*n + i*n + j holds
    z<i+1>_<j+1>_<l> for the k-th letter l of f, in a field of w bits."""
    names = [f"z{i}_{j}_{l}" for l in f.variables()
             for i in range(1, n + 1) for j in range(1, n + 1)]
    mask = (1 << w) - 1

    def entry(d):
        out = {}
        for m, c in d.items():
            mono = tuple(sorted((name, m >> (w * s) & mask)
                                for s, name in enumerate(names) if m >> (w * s) & mask))
            out[mono] = c
        return ZPolynomial(out)

    return [[entry(d) for d in row] for row in value]


class TestPackedKernel:
    """The decisions on the packed generic-matrix image against
    `generic_eval` and the word-by-word reference."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_field_width_edges(self, n):
        # deg f from 1 to 10: fields of 1 to 4 bits, widths 1 to 3 also at
        # their top values 1, 3 and 7 (a 1x1 image is one variable to the
        # power deg f, which fills its field)
        ctx = GenericMatrixContext(n, 1)
        images = {1: ctx.matrices[1], -1: ctx.star(ctx.matrices[1])}
        for k in (1, 3, 4, 7, 8, 9):
            for f in (x(1) ** k, (x(1) * xs(1)) ** ((k + 1) // 2)):
                want = naive_eval(f, images, n, as_scalar(0), as_scalar(1))
                assert unpack(*packed_image(f, n), f, n) == want
                d = f.degree()
                assert not is_identity_mod_a(f, n, max_degree=d)
                assert is_central_nonvanishing(f, n, max_degree=d) is (n == 1)

    def test_decisions_match_unpacked_image(self):
        rng = random.Random(229)
        known = [NCPolynomial.zero(), NCPolynomial.const(Fraction(-7, 3)),
                 commutator(commutator(x(1), x(2)) ** 2, x(3)),
                 Fraction(3, 2) * commutator(x(1), x(2)) ** 2,
                 x(1) + xs(1), commutator(x(1) + xs(1), x(2))]
        seen = set()
        for J, n in (("orthogonal", 1), ("orthogonal", 2), ("orthogonal", 3),
                     ("symplectic", 2)):
            ctx = GenericMatrixContext(n, 3, J)
            count = 4 if n == 3 else 10
            for f in known + [trie_nc(rng, 3, rng.randint(1, 8), 4) for _ in range(count)]:
                value = generic_eval(f, ctx)
                zero = all(v.is_zero() for row in value for v in row)
                scalar = (not value[0][0].is_zero() and all(
                    value[i][j] == (value[0][0] if i == j else 0)
                    for i in range(n) for j in range(n)))
                assert is_identity_mod_a(f, n, J) is zero
                assert is_central_nonvanishing(f, n, J) is scalar
                seen.add((J, n, zero, scalar))
        # identities, central polynomials and neither, for each type at n > 1
        for J, n in (("orthogonal", 2), ("orthogonal", 3), ("symplectic", 2)):
            assert {(J, n, True, False), (J, n, False, True), (J, n, False, False)} <= seen

    def test_fractional_coefficients_give_rational_entries(self):
        f = Fraction(1, 2) * x(1) * xs(2) - Fraction(3, 5) * x(2) * x(1) + Fraction(7, 3)
        for J in ("orthogonal", "symplectic"):
            ctx = GenericMatrixContext(2, 2, J)
            images = {}
            for i, m in ctx.matrices.items():
                images[i] = m
                images[-i] = ctx.star(m)
            value = generic_eval(f, ctx)
            assert value == naive_eval(f, images, 2, as_scalar(0), as_scalar(1))
            assert all(type(v) is ZPolynomial for row in value for v in row)
            assert any(type(c) is Fraction and c.denominator > 1
                       for row in value for v in row for c in v.terms.values())

    def test_changed_context_matrix_is_evaluated_as_given(self):
        ctx = GenericMatrixContext(2, 1)
        m = ctx.matrices[1]
        m[0][1] = 2 * m[0][1] + ZPolynomial.variable("u")
        assert generic_eval(x(1), ctx) == m
        assert generic_eval(xs(1), ctx) == ctx.star(m)
        images = {1: m, -1: ctx.star(m)}
        f = x(1) * xs(1) * x(1) - 3 * xs(1) + 1
        assert generic_eval(f, ctx) == naive_eval(f, images, 2, as_scalar(0), as_scalar(1))

    def test_amitsur_levitzki_on_3x3(self):
        # s6 vanishes on M_3 (Amitsur-Levitzki), s5 does not
        assert is_identity_mod_a(standard_polynomial(6), 3)
        assert not is_identity_mod_a(standard_polynomial(5), 3)

    @staticmethod
    def packed_and_naive(f, n, J):
        """f's packed image, through `unpack`, and the word-by-word image."""
        ctx = GenericMatrixContext(n, f.variables(), J)
        images = {}
        for i, m in ctx.matrices.items():
            images[i] = m
            images[-i] = ctx.star(m)
        got = unpack(*packed_image(f, n, J), f, n)
        return got, naive_eval(f, images, n, as_scalar(0), as_scalar(1))

    @staticmethod
    def evaluated(f):
        """How many trie nodes the packed kernel evaluates, and how many
        the trie has."""
        _, plan = packed_plan(f, 1)
        return sum(steps is not None for steps in plan), len(plan)

    @pytest.mark.parametrize("J, n", [("orthogonal", 2), ("orthogonal", 3),
                                      ("symplectic", 2)])
    def test_symmetric_and_skew_letters(self, J, n):
        # s3 and s4 of x_i + x_i* and of x_i - x_i*: every node's children
        # x_i and x_i* have proportional suffix polynomials, with ratio -1
        # or 1, so each pair is one product of Y_i -+ Y_i*
        for sign in (1, -1):
            letters = [x(i) + sign * xs(i) for i in range(1, 5)]
            for k in (3, 4):
                f = standard_of(letters[:k])
                got, want = self.packed_and_naive(f, n, J)
                assert got == want
                done, nodes = self.evaluated(f)
                assert done < nodes

    def test_s4_of_skew_letters_evaluates_65_of_633_nodes(self):
        # one representative per sibling pair: 1 + 4 + 4*3 + 4*3*2 + 4*3*2
        f = standard_of([x(i) - xs(i) for i in range(1, 5)])
        assert len(f.terms) == 384
        assert self.evaluated(f) == (65, 633)
        assert is_identity_mod_a(f, 3)
        assert not is_identity_mod_a(standard_of([x(i) + xs(i) for i in range(1, 5)]), 3)

    def test_any_integer_ratios_group_siblings(self):
        # a x_i + b x_i*: the children x_i and x_i* have suffix polynomials
        # in the ratio a : b, one product for both at any ratio, 2 : 3 too,
        # so s3 evaluates 1 + 3 + 3*2 + 3*2 of its 79 trie nodes
        rng = random.Random(311)
        for a, b in ((2, 3), (3, -2), (1, 2), (-3, 1), (2, -2)):
            letters = [a * x(i) + b * xs(i) for i in range(1, 4)]
            f = standard_of(letters)
            assert self.evaluated(f) == (16, 79)
            for J, n in (("orthogonal", 2), ("orthogonal", 3), ("symplectic", 2)):
                got, want = self.packed_and_naive(f, n, J)
                assert got == want
        # random coefficients on random letters, groups or not
        for _ in range(6):
            letters = [rng.choice((-3, -2, -1, 1, 2, 3)) * x(i)
                       + rng.choice((-3, -2, -1, 1, 2, 3)) * xs(i) for i in range(1, 4)]
            f = standard_of(letters) + rng.randint(-3, 3) * x(1) * letters[1]
            for J, n in (("orthogonal", 2), ("symplectic", 2)):
                got, want = self.packed_and_naive(f, n, J)
                assert got == want

    def test_non_multiple_weights_take_one_step_per_pair(self):
        # s4 of 2 x_i + 3 x_i*: the children x_i and x_i* of each node have
        # suffix polynomials in the ratio 2 : 3, neither a multiple of the
        # other, and each pair is one step of the two letters
        f = standard_of([2 * x(i) + 3 * xs(i) for i in range(1, 5)])
        _, plan = packed_plan(f, 1)
        steps = [letters for node in plan if node for letters, _ in node]
        assert steps and all(len(letters) == 2 and letters[0][0] == -letters[1][0]
                             for letters in steps)
        assert self.evaluated(f) == (65, 633)
        for J, n in (("orthogonal", 3), ("symplectic", 2)):
            got, want = self.packed_and_naive(f, n, J)
            assert got == want
        assert not is_identity_mod_a(f, 3)

    def test_negative_leaves_zero_constant_and_negation(self):
        f = -3 * x(1) * x(2) + 3 * x(1) * xs(2) - 5 * xs(1) * x(2) + 5 * xs(1) * xs(2)
        # x2 and x2* under x1 (leaves -3 and 3) and under x1* (-5 and 5):
        # the two subtrees, in the ratio 3 : 5, are one step of the root,
        # and each pair of leaves one step of its parent
        assert self.evaluated(f) == (3, 7)
        # x1 and x2 below the root lead to one letter x3 each, and differ
        # only further down, or only in being terms themselves
        chains = [x(1) * x(3) * x(4) + 2 * x(2) * x(3) * x(5)
                  + x(1) * x(3) * (x(2) + x(1)) + x(2) * x(3) * (x(2) + x(4)),
                  x(1) + x(1) * x(3) + 2 * x(2) * x(3)]
        cases = [NCPolynomial.zero(), NCPolynomial.const(-4), NCPolynomial.const(6),
                 f, *chains, standard_of([x(1) - xs(1), x(2) + xs(2), x(3)])]
        for g in cases:
            for h in (g, -g, 3 * g):
                for J, n in (("orthogonal", 1), ("orthogonal", 2), ("symplectic", 2)):
                    got, want = self.packed_and_naive(h, n, J)
                    assert got == want
        assert is_identity_mod_a(NCPolynomial.zero(), 3)
        assert is_central_nonvanishing(NCPolynomial.const(-4), 3)


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

    def test_rational_coefficients_match_integer_multiples(self):
        # the checks expand f times the lcm of its coefficient denominators;
        # f and any nonzero integer multiple of f must get the same answers
        rng = random.Random(61)
        known = [commutator(commutator(x(1), x(2)) ** 2, x(3)),  # identity at n = 2
                 commutator(x(1), x(2)) ** 2,                     # central at n = 2
                 commutator(x(1) + xs(1), x(2))]                  # symplectic identity
        seen = set()
        for k in range(18):
            f = NCPolynomial({w: Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                              for w in random_nc(rng, nterms=3).terms})
            if k % 2:
                f = known[k % 3] * Fraction(rng.randint(1, 9), rng.randint(2, 9))
            m = rng.randint(2, 30)
            for J in ("orthogonal", "symplectic"):
                for check in (is_identity_mod_a, is_central_nonvanishing):
                    answer = check(f, 2, J)
                    assert check(f * m, 2, J) is answer
                    seen.add((check.__name__, answer))
        assert len(seen) == 4

    def test_resource_limits(self):
        deep = x(1) ** 7
        with pytest.raises(ResourceLimitError):
            is_identity_mod_a(deep, 2)
        assert not is_identity_mod_a(deep, 2, max_degree=8)
        with pytest.raises(ResourceLimitError):
            is_identity_mod_a(x(1), 4)
        with pytest.raises(ResourceLimitError):
            is_identity_mod_a(x(1), 4, max_degree=6)

    def test_env_override(self):
        old = os.environ.get("HERMSQ_MAX_DEGREE")
        os.environ["HERMSQ_MAX_DEGREE"] = "8"
        try:
            assert not is_identity_mod_a(x(1) ** 7, 2)
            with pytest.raises(ResourceLimitError):
                is_identity_mod_a(x(1), 4)
        finally:
            if old is None:
                del os.environ["HERMSQ_MAX_DEGREE"]
            else:
                os.environ["HERMSQ_MAX_DEGREE"] = old


class TestScreen:
    """The one-point screen: d*f(M) v at the fixed integer point, from the
    class pass, refutes before the packed expansion."""

    @staticmethod
    def count_expansions(monkeypatch):
        calls = []
        kernel = ncpoly._packed_eval

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(ncpoly, "_packed_eval", counted)
        return calls

    @staticmethod
    def screen_vector(f, n, J):
        """The vector the class pass computes for f, whose coefficients are
        integers, on n x n matrices of type J."""
        _, point, v = ncpoly._generic_letters(f, n, J)
        seen = []
        ncpoly._packed_plan(f, point, v, lambda u, v: seen.append(u) or True)
        return seen[0]

    @pytest.mark.parametrize("J, n", [("orthogonal", 1), ("orthogonal", 2),
                                      ("orthogonal", 3), ("symplectic", 2)])
    def test_vector_matches_fraction_evaluation(self, J, n):
        # the point by the documented layout: letter k of f has the slot
        # numbers k*n*n + i*n + j + 1, v_i the number -i; its star through
        # the involution on Fraction matrices
        value = ncpoly._screen_value
        ctx = GenericMatrixContext(n, (), J)
        rng = random.Random(409 + n)
        letters = [rng.choice((-3, -1, 1, 2)) * x(i) + rng.choice((-2, -1, 1, 3)) * xs(i)
                   for i in range(1, 5)]
        corpus = [NCPolynomial.zero(), NCPolynomial.const(-4),
                  standard_of([x(i) + xs(i) for i in range(1, 4)]),
                  standard_of([x(i) - xs(i) for i in range(1, 4)]),
                  standard_of(letters[:3]), commutator(letters[0], letters[3]) ** 2]
        for _ in range(12):
            f = trie_nc(rng, 4, rng.randint(1, 10), 5)
            d = lcm(*(c.denominator for c in f.terms.values()))
            corpus.append(f * d)
        for f in corpus:
            letters_of_f = f.variables()
            mats = [[[Fraction(value(k * n * n + i * n + j + 1)) for j in range(n)]
                     for i in range(n)] for k in range(len(letters_of_f))]
            if J == "orthogonal":
                image = ncpoly._eval_at(f, letters_of_f, mats, n)
            else:
                images = {}
                for l, m in zip(letters_of_f, mats):
                    images[l] = m
                    images[-l] = ctx.star(m)
                image = naive_eval(f, images, n, Fraction(0), Fraction(1))
            v = [value(-i) for i in range(n)]
            want = [sum(image[i][j] * v[j] for j in range(n)) for i in range(n)]
            assert self.screen_vector(f, n, J) == want

    def test_refutations_skip_the_expansion(self, monkeypatch):
        calls = self.count_expansions(monkeypatch)
        hall = commutator(commutator(x(1), x(2)) ** 2, x(3))
        assert not is_identity_mod_a(hall, 3)
        assert not is_identity_mod_a(standard_polynomial(5), 3)
        assert not is_identity_mod_a(standard_of([x(i) + xs(i) for i in range(1, 5)]), 3)
        assert not is_identity_mod_a(commutator(x(1) + xs(1), x(2)), 2)
        assert calls == []
        assert is_identity_mod_a(hall, 2)
        assert len(calls) == 1

    def test_non_central_refuted_by_the_parallel_test(self, monkeypatch):
        # x1 and [x1, x2] are nonzero at the point, and h(M) v is not a
        # multiple of v; the central [x1, x2]^2 and 3 still expand
        calls = self.count_expansions(monkeypatch)
        for h in (x(1), commutator(x(1), x(2)), x(1) * xs(1) + 2):
            u = self.screen_vector(h, 2, "orthogonal")
            assert any(u) and ncpoly._not_parallel(u, [ncpoly._screen_value(-i) for i in range(2)])
            assert not is_central_nonvanishing(h, 2)
        assert calls == []
        assert is_central_nonvanishing(commutator(x(1), x(2)) ** 2, 2)
        assert is_central_nonvanishing(NCPolynomial.const(3), 2)
        assert len(calls) == 2

    def test_miss_is_decided_by_the_expansion(self, monkeypatch):
        # x1 - a, a the value of x1 at the point on M_1, vanishes there, so
        # the screen cannot refute it; the expansion does
        calls = self.count_expansions(monkeypatch)
        a = ncpoly._screen_value(1)
        f = x(1) - a
        assert self.screen_vector(f, 1, "orthogonal") == [0]
        assert not is_identity_mod_a(f, 1)
        assert not is_central_nonvanishing(NCPolynomial.zero(), 2)
        assert len(calls) == 2

    def test_kernel_cap_after_the_screen(self, monkeypatch):
        # three copies of s6 over different 6-subsets of x1..x7, an
        # identity on M_3 that took about 1 s to expand, is refused before
        # the first product; one copy (2371680 units) passes; the same sum
        # plus s5 is not an identity, and the screen refutes it first
        def expand(*args):
            raise AssertionError("expanded over the cap")

        subsets = list(itertools.combinations(range(1, 8), 6))[:3]
        f = NCPolynomial.zero()
        for sub in subsets:
            f = f + standard_of([x(i) for i in sub])
        monkeypatch.setattr(ncpoly, "_packed_eval", expand)
        with pytest.raises(ResourceLimitError, match="kernel work 7048944 .* exceeds the cap"):
            is_identity_mod_a(f, 3)
        with pytest.raises(ResourceLimitError, match="kernel work 7048944"):
            is_central_nonvanishing(f, 3)
        assert not is_identity_mod_a(f + standard_polynomial(5), 3)
        monkeypatch.setattr(ncpoly, "MAX_KERNEL_WORK", 2371679)
        with pytest.raises(ResourceLimitError, match="kernel work 2371680"):
            is_identity_mod_a(standard_polynomial(6), 3)


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

    def test_draws_only_the_letters_used(self):
        # one matrix for the one letter, whatever its index: x2000 gets
        # what x1 gets, not 2000 matrices
        near = psd_falsify(x(1) + xs(1), 2, 10, 0)
        assert near is not None and len(near) == 1
        assert psd_falsify(x(2000) + xs(2000), 2, 10, 0) == near

    # psd_falsify(seeded_symmetric(seed, den), n, 6, seed, 3) as the trials
    # over Fractions found it, before they ran on ints; den = 3 gives
    # coefficients in thirds, and seed 6 is a sum of hermitian squares
    @pytest.mark.parametrize("seed, den, n, want", [
        (1, 1, 2, None),
        (1, 1, 3, [[[1, 2, -1], [1, -2, 1], [3, 3, -2]], [[0, 1, -2], [0, -2, -3], [2, 3, 3]]]),
        (1, 3, 2, None),
        (1, 3, 3, [[[1, 2, -1], [1, -2, 1], [3, 3, -2]], [[0, 1, -2], [0, -2, -3], [2, 3, 3]]]),
        (3, 1, 2, [[[-3, -3], [1, 0]], [[-2, 3], [1, 0]]]),
        (3, 1, 3, [[[1, 0, 2], [1, -3, 3], [2, 3, 1]], [[-2, 0, 1], [3, 1, -2], [3, 3, 0]]]),
        (3, 3, 2, [[[1, 0], [2, 1]], [[-3, 3], [2, 3]]]),
        (3, 3, 3, [[[1, 2, 2], [-2, -2, -2], [-1, -1, 0]],
                   [[3, -2, 2], [0, -1, -3], [-2, 2, -3]]]),
        (6, 1, 2, None),
        (6, 1, 3, None),
        (6, 3, 2, None),
        (6, 3, 3, None),
        (7, 1, 2, None),
        (7, 1, 3, [[[-2, 2, 3], [-2, -1, 0], [0, 2, 2]], [[1, 2, -2], [-2, -2, 3], [1, -1, 0]]]),
        (7, 3, 2, None),
        (7, 3, 3, [[[-2, 2, 3], [-2, -1, 0], [0, 2, 2]], [[1, 2, -2], [-2, -2, 3], [1, -1, 0]]]),
    ])
    def test_seeded_results(self, seed, den, n, want):
        from hermsq.certificates import psd_symmetric_rational
        g = seeded_symmetric(seed, den)
        found = psd_falsify(g, n, 6, seed, 3)
        assert found == want
        if found is not None:
            letters = g.variables()
            assert len(found) == len(letters)
            value = nc_eval(g, [found[letters.index(i)] if i in letters else found[0]
                                for i in range(1, letters[-1] + 1)])
            assert not psd_symmetric_rational(value)

    def test_work_cap_boundary(self, monkeypatch):
        # work = trials x (sum of word lengths) x n^3: (x1* x1)^3 at n = 8
        # is 3072 a trial, so 113 trials fit the cap of 350000 and 114 do not
        calls = []

        def evaluate(f, letters, mats, n):
            calls.append(n)
            return [[int(i == j) for j in range(n)] for i in range(n)]

        monkeypatch.setattr(ncpoly, "_eval_at", evaluate)
        g = (xs(1) * x(1)) ** 3
        assert ncpoly.MAX_EVAL_WORK == 350_000
        assert psd_falsify(g, 8, 113, 0) is None and len(calls) == 113
        with pytest.raises(ResourceLimitError, match="evaluation work 350208"):
            psd_falsify(g, 8, 114, 0)
        assert len(calls) == 113

    def test_eval_work_counts_entry_bits(self, monkeypatch):
        # nc_eval scales the work by 1 + (b/8)^2 for the largest bit length
        # b of a numerator or denominator of the matrices it uses: six
        # letters at n = 8 are 3072 units, so b = 85 fits the cap and 86
        # does not
        calls = []
        monkeypatch.setattr(ncpoly, "_eval_at", lambda *args: calls.append(args))
        f = (x(1) * xs(1)) ** 3

        def matrix(entry):
            return [[entry if (i, j) == (0, 1) else Fraction(1) for j in range(8)]
                    for i in range(8)]

        nc_eval(f, [matrix(Fraction(2 ** 84))])
        nc_eval(f, [matrix(Fraction(1, 2 ** 84))])
        nc_eval(f, [matrix(Fraction(1)), matrix(Fraction(2 ** 1000))])  # x2 unused
        assert len(calls) == 3
        with pytest.raises(ResourceLimitError, match="evaluation work 358080"):
            nc_eval(f, [matrix(Fraction(2 ** 85))])
        with pytest.raises(ResourceLimitError, match="evaluation work 358080"):
            nc_eval(f, [matrix(Fraction(-3, 2 ** 85))])
        assert len(calls) == 3

    def test_entry_bound_cap(self, monkeypatch):
        # 10 trials at n = 8 with entries up to 10^1000 took 84 s
        monkeypatch.setattr(ncpoly, "_eval_at", None)
        g = (xs(1) * x(1)) ** 3
        with pytest.raises(ResourceLimitError, match="entry bound 1000001 exceeds the cap 1000000"):
            psd_falsify(g, 8, 10, 0, 10 ** 6 + 1)

    def test_sparse_letters(self):
        from hermsq.certificates import psd_symmetric_rational
        g = x(1) + xs(1) + xs(3) * x(3)
        found = psd_falsify(g, 2, 10, 0)
        assert found is not None and len(found) == 2
        # x2 does not occur in g, so any matrix can stand in for it
        assert not psd_symmetric_rational(nc_eval(g, [found[0], found[0], found[1]]))


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


@pytest.fixture
def expansion_only(monkeypatch):
    """The screen's point and vector at zero: f(M) v = 0 refutes nothing,
    so every decision comes from the expansion, which must run."""
    plan = ncpoly._packed_plan

    def unscreened(*args):
        planned = plan(*args)
        assert planned is not None, "the screen refuted at the zero point"
        return planned

    monkeypatch.setattr(ncpoly, "_screen_value", lambda number: 0)
    monkeypatch.setattr(ncpoly, "_packed_plan", unscreened)
    ncpoly._letter_matrices.cache_clear()
    yield
    ncpoly._letter_matrices.cache_clear()


@pytest.mark.usefixtures("expansion_only")
class TestPackedKernelExpansionOnly(TestPackedKernel):
    """TestPackedKernel's decisions with the screen's point at zero."""


@pytest.mark.usefixtures("expansion_only")
class TestIdentitiesExpansionOnly(TestIdentities):
    """TestIdentities' decisions with the screen's point at zero."""


@pytest.mark.usefixtures("expansion_only")
class TestPositivstellensatzExpansionOnly(TestPositivstellensatz):
    """TestPositivstellensatz's decisions with the screen's point at zero."""
