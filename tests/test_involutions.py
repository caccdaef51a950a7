"""Tests for quaternion algebras, matrix algebras with involution, trace
forms and the (3,3)-entry identity."""

import random
from fractions import Fraction

import pytest

from hermsq import linalg
from hermsq.errors import HermsqError, ShapeError, SingularMatrixError
from hermsq.fdalgebra import structure_algebra
from hermsq.involutions import (AlgebraWithInvolution, InvolutionSpec,
                                QuatElem, QuaternionAlgebra, apply_involution,
                                entry_33_constraint, hermitian_square,
                                is_symmetric, reduced_norm_quat, reduced_trace,
                                sigma_orderings, skew_congruence,
                                symbolic_elements, trace_form)
from hermsq.qforms import DiagonalForm, diagonalize
from hermsq.scalars import (ORDERINGS, MonomialOrdering, Polynomial, X, Y,
                            as_scalar, parse_scalar, sign_at)
from hermsq.zpoly import ZPolynomial


def random_quat(rng, algebra, span=5):
    return algebra.elem(*(Fraction(rng.randint(-span, span),
                                   rng.randint(1, 3)) for _ in range(4)))


def thm32_algebra():
    q = DiagonalForm([X, Y, X * Y])
    return AlgebraWithInvolution("F", 3, InvolutionSpec.adjoint_diag(q))


def thm33_algebra():
    h = QuaternionAlgebra(-1, -1)
    q = DiagonalForm([X, Y, X * Y])
    return AlgebraWithInvolution(h, 3, InvolutionSpec.adjoint_hermitian(q))


class TestQuaternionAlgebra:
    def test_structure_constants(self):
        h = QuaternionAlgebra(-1, -1)
        i, j, k = h.i(), h.j(), h.k()
        assert i * i == h.elem(-1)
        assert j * j == h.elem(-1)
        assert i * j == k
        assert j * i == -k
        assert k * k == h.elem(-1)

    def test_general_constants(self):
        h = QuaternionAlgebra(as_scalar(2), X)
        assert h.i() * h.i() == h.elem(2)
        assert h.j() * h.j() == h.elem(X)
        assert h.i() * h.j() + h.j() * h.i() == h.zero()

    def test_zero_constant_rejected(self):
        with pytest.raises(HermsqError):
            QuaternionAlgebra(0, -1)

    def test_conjugation_example(self):
        h = QuaternionAlgebra(-1, -1)
        x = h.elem(1, 2, 3, 4)
        assert x.conj() == h.elem(1, -2, -3, -4)
        assert x.trd() == as_scalar(2)

    def test_norm_examples(self):
        h = QuaternionAlgebra(-1, -1)
        assert reduced_norm_quat(h.elem(1, 1, 1, 1)) == as_scalar(4)
        g = QuaternionAlgebra(as_scalar(3), Y)
        assert reduced_norm_quat(g.i()) == as_scalar(-3)
        assert reduced_norm_quat(g.j()) == -Y

    def test_norm_is_conj_product(self):
        rng = random.Random(53)
        h = QuaternionAlgebra(-1, -3)
        for _ in range(50):
            x = random_quat(rng, h)
            n = reduced_norm_quat(x)
            assert x.conj() * x == h.elem(n)
            assert x * x.conj() == h.elem(n)

    def test_norm_multiplicative(self):
        rng = random.Random(59)
        for a, b in ((-1, -1), (-1, -3), (2, 3)):
            h = QuaternionAlgebra(a, b)
            for _ in range(35):
                x = random_quat(rng, h)
                y = random_quat(rng, h)
                assert (reduced_norm_quat(x * y)
                        == reduced_norm_quat(x) * reduced_norm_quat(y))

    def test_associativity_random(self):
        rng = random.Random(61)
        h = QuaternionAlgebra(as_scalar(2), X)
        for _ in range(40):
            x = random_quat(rng, h, 3)
            y = random_quat(rng, h, 3)
            z = random_quat(rng, h, 3)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_inverse(self):
        h = QuaternionAlgebra(-1, -1)
        x = h.elem(1, 2, 0, -1)
        assert x * x.inverse() == h.one()
        with pytest.raises(HermsqError):
            h.zero().inverse()

    def test_scalar_product_scales_coordinates(self):
        # a scalar is central: q c and c q scale the coordinates, and equal
        # the product with the scalar as a quaternion
        rng = random.Random(89)
        h = QuaternionAlgebra(-1, X)
        scalars = [3, 0, Fraction(-5, 7), parse_scalar("(X - 2*Y)/(X*Y + 1)"), as_scalar(0)]
        for _ in range(5):
            q = random_quat(rng, h)
            for c in scalars:
                want = q * h.elem(c)
                for got in (q * c, c * q):
                    assert isinstance(got, QuatElem) and got.algebra == h
                    assert got == want
                    assert all(a.num.terms == b.num.terms and a.den.terms == b.den.terms
                               for a, b in zip(got.coords, want.coords))
        assert (h.zero() * Fraction(1, 2)).is_zero()
        with pytest.raises(HermsqError):
            h.i() * "X"

    def test_equality_with_non_scalars(self):
        # a non-scalar operand is unequal, as for RationalFunction, not an error
        h = QuaternionAlgebra(-1, -1)
        q = h.i()
        assert not q == None  # noqa: E711
        assert q != None  # noqa: E711
        assert q not in [None, 1]
        assert h.one() in [None, 1]
        assert q != ZPolynomial.variable("z")
        assert q != "i"
        assert h.elem(3) == 3

    def test_predicates(self):
        h = QuaternionAlgebra(-1, -1)
        assert h.elem(3).is_scalar()
        assert h.i().is_pure()
        assert not h.elem(1, 1).is_pure()
        assert h.zero().is_zero()


class TestInvolutions:
    def test_transpose(self):
        alg = AlgebraWithInvolution("F", 2, InvolutionSpec.transpose())
        x = alg.elem([[1, 2], [3, 4]])
        assert alg.equal(alg.involution(x), alg.elem([[1, 3], [2, 4]]))

    def test_adjoint_diag_example(self):
        alg = thm32_algebra()
        b = alg.unit(0, 1, X)  # X * E_12
        sb = apply_involution(alg, b)
        assert alg.equal(sb, alg.unit(1, 0, Y))  # Y * E_21

    def test_adjoint_visits_nonzero_entries(self, monkeypatch):
        # the image of a basis element conjugates and scales its one entry;
        # every zero entry is its own image
        alg = thm33_algebra()
        calls = []
        conj = QuatElem.conj

        def counted(q):
            calls.append(q)
            return conj(q)
        monkeypatch.setattr(QuatElem, "conj", counted)
        b = alg.unit(0, 1, alg.base.i())
        image = alg.involution(b)
        assert len(calls) == 1
        assert alg.equal(image, alg.unit(1, 0, alg.base.i() * (Y / X) * -1))
        assert all(image[i][j] is b[j][i] for i in range(3) for j in range(3)
                   if (i, j) != (1, 0))

    def test_quat_conjugation_matrix(self):
        h = QuaternionAlgebra(-1, -1)
        alg = AlgebraWithInvolution(h, 1, InvolutionSpec.quat_conjugation())
        x = alg.elem([[h.elem(1, 2, 3, 4)]])
        assert alg.equal(alg.involution(x), alg.elem([[h.elem(1, -2, -3, -4)]]))

    def test_int_u_conj_requires_pure(self):
        h = QuaternionAlgebra(-1, -1)
        with pytest.raises(HermsqError):
            AlgebraWithInvolution(h, 1,
                                  InvolutionSpec.int_u_conj(h.elem(1, 1)))

    def test_symplectic_standard(self):
        alg = AlgebraWithInvolution("F", 2,
                                    InvolutionSpec.symplectic_standard())
        x = alg.elem([[1, 2], [3, 4]])
        assert alg.equal(alg.involution(x), alg.elem([[4, -2], [-3, 1]]))

    def test_symplectic_standard_blocks(self):
        # sigma([[A, B], [C, D]]) = [[D^t, -B^t], [-C^t, A^t]], block by block
        rng = random.Random(29)
        for n in (2, 4, 6):
            alg = AlgebraWithInvolution("F", n, InvolutionSpec.symplectic_standard())
            x = random_element(rng, alg)
            m = n // 2
            tl = [[x[m + j][m + i] for j in range(m)] for i in range(m)]
            tr = [[-x[j][m + i] for j in range(m)] for i in range(m)]
            bl = [[-x[m + j][i] for j in range(m)] for i in range(m)]
            br = [[x[j][i] for j in range(m)] for i in range(m)]
            want = [tl[i] + tr[i] for i in range(m)] + [bl[i] + br[i] for i in range(m)]
            assert alg.involution(x) == want

    def test_symplectic_needs_even_n(self):
        with pytest.raises(HermsqError):
            AlgebraWithInvolution("F", 3, InvolutionSpec.symplectic_standard())

    def test_involution_laws_random(self):
        rng = random.Random(67)
        h = QuaternionAlgebra(-1, -1)
        algebras = [
            AlgebraWithInvolution("F", 3, InvolutionSpec.transpose()),
            thm32_algebra(),
            AlgebraWithInvolution("F", 4, InvolutionSpec.symplectic_standard()),
            AlgebraWithInvolution(h, 1, InvolutionSpec.quat_conjugation()),
            AlgebraWithInvolution(h, 1, InvolutionSpec.int_u_conj(h.i())),
            thm33_algebra(),
        ] + [AlgebraWithInvolution("F", len(s), InvolutionSpec.int_skew(s))
             for s in skew_cases()]
        for alg in algebras:
            for _ in range(12):
                x = random_element(rng, alg)
                y = random_element(rng, alg)
                sx = alg.involution(x)
                assert alg.equal(alg.involution(sx), x)
                assert alg.trd(sx) == alg.trd(x)
                assert alg.equal(alg.involution(alg.mul(x, y)),
                                 alg.mul(alg.involution(y), sx))
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                assert alg.equal(alg.involution(alg.scalar(c)), alg.scalar(c))

    def test_trace_commutes(self):
        rng = random.Random(71)
        alg = thm33_algebra()
        for _ in range(15):
            x = random_element(rng, alg)
            y = random_element(rng, alg)
            assert (reduced_trace(alg, alg.mul(x, y))
                    == reduced_trace(alg, alg.mul(y, x)))


def random_skew(rng, n):
    """A seeded nonsingular skew-symmetric n x n matrix over F (n even)."""
    while True:
        s = [[as_scalar(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = as_scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                if rng.random() < 0.5:
                    v = v + X
                s[i][j], s[j][i] = v, -v
        try:
            skew_congruence(s)
        except SingularMatrixError:
            continue
        return s


def skew_cases():
    """Seeded nonsingular skew S at n = 2, 4 and 6, and one at n = 4 with
    S[0][1] = 0, so the first pivot of its congruence needs a swap."""
    rng = random.Random(89)
    zero, one = as_scalar(0), as_scalar(1)
    swap = [[zero, zero, one, X],
            [zero, zero, Y, one],
            [-one, -Y, zero, zero],
            [-X, -one, zero, zero]]
    return [random_skew(rng, n) for n in (2, 4, 6)] + [swap]


class TestIntSkew:
    """Int(S) composed with transpose, whose S^-1 is P B^-1 P^t."""

    @pytest.mark.parametrize("s", skew_cases(), ids=["n2", "n4", "n6", "n4-swap"])
    def test_inverse_of_s(self, s):
        n = len(s)
        alg = AlgebraWithInvolution("F", n, InvolutionSpec.int_skew(s))
        one = alg.identity()
        assert alg.equal(alg.mul(s, alg._skew_inv), one)
        assert alg.equal(alg.mul(alg._skew_inv, s), one)
        p = linalg.divide(*alg.skew_pd)
        b = alg.mul(alg.mul(linalg.transpose(p), s), p)
        assert all(b[i][j] == (1 if j == i + 1 and i % 2 == 0 else
                               -1 if i == j + 1 and j % 2 == 0 else 0)
                   for i in range(n) for j in range(n))

    def test_column_denominators_are_leading_pfaffians(self):
        # P = P' diag(1/d): P' over Z[X, Y], and for a dense S that needs no
        # swap, d = 1, Pf_1, Pf_1, Pf_2, Pf_2, Pf_3 for the Pfaffians Pf_k of
        # the leading 2k x 2k blocks of L * S (L = 2 here, so column t + 1
        # of P' carries the factor 2)
        n = 6
        s = [[as_scalar(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = (i + 1) * X + (j + 1) * Y + (i * j) % 3 + as_scalar(Fraction(1, 2))
                s[i][j], s[j][i] = v, -v

        def pfaffian(a):
            if not a:
                return as_scalar(1)
            total = as_scalar(0)
            for j in range(1, len(a)):
                keep = [k for k in range(1, len(a)) if k != j]
                minor = [[a[r][c] for c in keep] for r in keep]
                total = total + (-1) ** (j + 1) * a[0][j] * pfaffian(minor)
            return total

        p, dens = skew_congruence(s)
        assert all(isinstance(v, Polynomial) for row in p for v in row)
        scaled = [[2 * v for v in row] for row in s]
        pf = [pfaffian([row[:2 * k] for row in scaled[:2 * k]]) for k in range(4)]
        assert [as_scalar(d) for d in dens] == [pf[0], pf[1], pf[1], pf[2], pf[2], pf[3]]
        b = linalg.mat_mul(linalg.mat_mul(linalg.transpose(linalg.divide(p, dens)), s,
                                          as_scalar(0)), linalg.divide(p, dens), as_scalar(0))
        assert all(b[i][j] == (1 if j == i + 1 and i % 2 == 0 else
                               -1 if i == j + 1 and j % 2 == 0 else 0)
                   for i in range(n) for j in range(n))

    def test_inverse_reduces_only_the_upper_triangle(self, monkeypatch):
        # S^-1 is built on first use, not by __init__; it is skew: its 15
        # entries above the diagonal are reduced, one gcd each, and the rest
        # mirrored, with the canonical zero on the diagonal; a second use
        # reduces nothing; the full quotient N / L agrees entry by entry
        n = 6
        s = [[as_scalar(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = (i + 1) * X - (j + 2) * Y * Y + (i * j) % 5 - 2
                s[i][j], s[j][i] = v, -v
        quotients = []

        def counted(v, d, quotient=linalg._quotient):
            quotients.append((v, d))
            return quotient(v, d)
        monkeypatch.setattr(linalg, "_quotient", counted)
        alg = AlgebraWithInvolution("F", n, InvolutionSpec.int_skew(s))
        assert quotients == []
        inv = alg._skew_inv
        assert len(quotients) == n * (n - 1) // 2
        one = alg.identity()
        assert alg.equal(alg.involution(one), one) and alg._skew_inv is inv
        assert len(quotients) == n * (n - 1) // 2
        assert all(inv[i][j] for i in range(n) for j in range(i + 1, n))
        assert alg.equal(alg.mul(s, inv), one) and alg.equal(alg.mul(inv, s), one)
        for i in range(n):
            assert inv[i][i].num.terms == {} and inv[i][i].den.terms == {0: 1}
        num, lcm = linalg.block_congruence(*alg.skew_pd, -1, 1)
        full = linalg.divide(num, [lcm] * n)
        assert [[(v.num, v.den) for v in row] for row in inv] == \
            [[(v.num, v.den) for v in row] for row in full]

    def test_swap_case_takes_the_swap_branch(self, monkeypatch):
        swaps = []
        swap = linalg.Congruence.swap

        def recorded(self, a, b):
            swaps.append((a, b))
            swap(self, a, b)

        monkeypatch.setattr(linalg.Congruence, "swap", recorded)
        AlgebraWithInvolution("F", 4, InvolutionSpec.int_skew(skew_cases()[-1]))
        assert swaps[:1] == [(2, 1)]

    def test_rejects_singular_odd_and_non_skew(self):
        zero, one = as_scalar(0), as_scalar(1)
        singular = [[zero, X, zero, zero], [-X, zero, zero, zero],
                    [zero, zero, zero, zero], [zero, zero, zero, zero]]
        odd = [[zero, one, X], [-one, zero, Y], [-X, -Y, zero]]
        with pytest.raises(SingularMatrixError):
            AlgebraWithInvolution("F", 4, InvolutionSpec.int_skew(singular))
        with pytest.raises(SingularMatrixError):
            AlgebraWithInvolution("F", 3, InvolutionSpec.int_skew(odd))
        with pytest.raises(ShapeError):
            AlgebraWithInvolution("F", 2, InvolutionSpec.int_skew(
                [[zero, one], [one, zero]]))


def random_element(rng, alg):
    if isinstance(alg.base, QuaternionAlgebra):
        rows = [[random_quat(rng, alg.base, 3) for _ in range(alg.n)]
                for _ in range(alg.n)]
    else:
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(alg.n)]
                for _ in range(alg.n)]
    return alg.elem(rows)


class TestReducedTrace:
    def test_matrix_trace(self):
        alg = AlgebraWithInvolution("F", 3, InvolutionSpec.transpose())
        x = alg.add(alg.unit(0, 0, 1), alg.unit(1, 1, 5))
        assert reduced_trace(alg, x) == as_scalar(6)

    def test_quaternion_doubles_scalar_part(self):
        h = QuaternionAlgebra(-1, -1)
        alg = AlgebraWithInvolution(h, 1, InvolutionSpec.quat_conjugation())
        x = alg.elem([[h.elem(Fraction(3, 2), 1, 1, 1)]])
        assert reduced_trace(alg, x) == as_scalar(3)

    def test_witness_trace(self):
        alg = thm32_algebra()
        b = alg.unit(0, 1, X)
        assert reduced_trace(alg, alg.hermitian_square(b)) == X * Y


class TestHermitianSquares:
    def test_witness_square(self):
        alg = thm32_algebra()
        b = alg.unit(0, 1, X)
        hs = hermitian_square(alg, b)
        assert alg.equal(hs, alg.unit(1, 1, X * Y))

    def test_is_symmetric(self):
        alg = thm32_algebra()
        assert is_symmetric(alg, alg.scalar(X * Y))
        assert not is_symmetric(alg, alg.unit(0, 1, 1))

    def test_hermitian_squares_symmetric_random(self):
        rng = random.Random(73)
        for alg in (thm32_algebra(), thm33_algebra()):
            for _ in range(10):
                x = random_element(rng, alg)
                assert is_symmetric(alg, hermitian_square(alg, x))


class TestTraceForm:
    def test_transpose_identity_gram(self):
        for n in (2, 3):
            alg = AlgebraWithInvolution("F", n, InvolutionSpec.transpose())
            g = trace_form(alg).matrix
            assert all(g[i][j] == as_scalar(1 if i == j else 0)
                       for i in range(n * n) for j in range(n * n))

    def test_thm32_square_classes(self):
        alg = thm32_algebra()
        d = diagonalize(trace_form(alg))
        classes = d.form.square_class_multiset()
        assert classes == sorted([(1, 0, 0)] * 3 + [(1, 1, 0)] * 2
                                 + [(1, 0, 1)] * 2 + [(1, 1, 1)] * 2)

    def test_quat_conjugation_form(self):
        h = QuaternionAlgebra(-1, -1)
        alg = AlgebraWithInvolution(h, 1, InvolutionSpec.quat_conjugation())
        d = diagonalize(trace_form(alg))
        assert d.form == DiagonalForm([as_scalar(2)] * 4)

    def test_thm33_signatures(self):
        alg = thm33_algebra()
        d = diagonalize(trace_form(alg))
        sigs = d.form.signatures()
        assert sigs == {"++": 36, "+-": 4, "-+": 4, "--": 4}

    def test_positive_on_squares_at_sigma_orderings(self):
        rng = random.Random(79)
        alg = thm32_algebra()
        orderings = sigma_orderings(alg)
        for _ in range(25):
            x = random_element(rng, alg)
            t = reduced_trace(alg, hermitian_square(alg, x))
            for p in orderings:
                assert sign_at(t, p) >= 0


def all_kind_algebras():
    rng = random.Random(83)
    h = QuaternionAlgebra(-1, X)
    out = [AlgebraWithInvolution("F", 3, InvolutionSpec.transpose()),
           AlgebraWithInvolution("F", 4, InvolutionSpec.adjoint_diag(
               DiagonalForm([X, Y, X * Y, 1 + X]))),
           AlgebraWithInvolution(h, 1, InvolutionSpec.quat_conjugation()),
           AlgebraWithInvolution(h, 1, InvolutionSpec.int_u_conj(h.elem(0, 1, 2, Y))),
           AlgebraWithInvolution(h, 2, InvolutionSpec.adjoint_hermitian(
               DiagonalForm([X, 1 - Y])))]
    for n in (2, 4):
        out.append(AlgebraWithInvolution("F", n, InvolutionSpec.symplectic_standard()))
        out.append(AlgebraWithInvolution("F", n, InvolutionSpec.int_skew(random_skew(rng, n))))
    return out


class TestTraceFormAllKinds:
    @pytest.mark.parametrize("alg", all_kind_algebras(),
                             ids=lambda a: f"{a.sigma.kind}-n{a.n}")
    def test_matches_symmetrised_definition(self, alg):
        # the Gram is Trd(sigma(x)y) from one product; it must equal the
        # symmetrised form (Trd(sigma(x)y) + Trd(sigma(y)x)) / 2 exactly
        basis = alg.basis()
        sigmas = [alg.involution(e) for e in basis]
        half = as_scalar(Fraction(1, 2))
        gram = trace_form(alg).matrix
        assert len(gram) == len(basis)
        for r, er in enumerate(basis):
            for s, es in enumerate(basis):
                want = half * (alg.trd(alg.mul(sigmas[r], es))
                               + alg.trd(alg.mul(sigmas[s], er)))
                got = gram[r][s]
                assert got == want
                assert got.num.terms == want.num.terms
                assert got.den.terms == want.den.terms


class TestStructureConstants:
    @pytest.mark.parametrize("alg", all_kind_algebras(),
                             ids=lambda a: f"{a.sigma.kind}-n{a.n}")
    def test_match_full_matrices(self, alg):
        # the sparse constants, read through StructureAlgebra, against the
        # coordinates of full matrix products and involutions
        sa, convert = structure_algebra(alg)
        basis = alg.basis()
        coords = [convert(e) for e in basis]
        assert sa.dim == len(basis)
        assert sa.equal(sa.scalar(1), convert(alg.identity()))
        for e, c in zip(basis, coords):
            assert sa.equal(sa.involution(c), convert(alg.involution(e)))
        pairs = [(r, s) for r in range(sa.dim) for s in range(sa.dim)]
        if sa.dim > 16:
            pairs = random.Random(101).sample(pairs, 256)
        for r, s in pairs:
            assert sa.equal(sa.mul(coords[r], coords[s]),
                            convert(alg.mul(basis[r], basis[s])))


class TestTraceFormThm33:
    def test_matches_full_products(self):
        # M_3((-1,-1)) with the adjoint of <X, Y, XY>: a seeded sample of
        # Gram entries, and every pair of basis elements in one matrix cell,
        # against Trd(sigma(b_r) b_s) by full matrix products
        alg = thm33_algebra()
        basis = alg.basis()
        sigmas = [alg.involution(e) for e in basis]
        gram = trace_form(alg).matrix
        rng = random.Random(97)
        pairs = {(rng.randrange(36), rng.randrange(36)) for _ in range(80)}
        pairs |= {(4 * cell + a, 4 * cell + b)
                  for cell in range(9) for a in range(4) for b in range(4)}
        for r, s in sorted(pairs):
            want = alg.trd(alg.mul(sigmas[r], basis[s]))
            assert gram[r][s] == want
            assert gram[r][s].num.terms == want.num.terms
            assert gram[r][s].den.terms == want.den.terms

    def test_no_matrix_product(self, monkeypatch):
        # each entry is one quaternion product, not a 3x3 matrix product
        alg = thm33_algebra()

        def multiply(*args):
            raise AssertionError("matrix product in the trace form")

        monkeypatch.setattr("hermsq.involutions._mat_mul", multiply)
        monkeypatch.setattr(AlgebraWithInvolution, "trd", multiply)
        gram = trace_form(alg).matrix
        assert len(gram) == 36


class TestEntry33:
    def test_symbolic_matrix_case(self):
        alg = thm32_algebra()
        a = symbolic_elements(alg, 1)[0]
        entry = entry_33_constraint(alg, [a])
        a13 = a[0][2]
        a23 = a[1][2]
        a33 = a[2][2]
        assert entry == Y * a13 * a13 + X * a23 * a23 + a33 * a33

    def test_symbolic_quaternion_case(self):
        alg = thm33_algebra()
        a = symbolic_elements(alg, 1)[0]
        entry = entry_33_constraint(alg, [a])
        want = (Y * reduced_norm_quat(a[0][2]) + X * reduced_norm_quat(a[1][2])
                + reduced_norm_quat(a[2][2]))
        assert entry == want

    def test_witness_entry(self):
        alg = thm32_algebra()
        b = alg.unit(0, 1, X)
        # b has zero third column, so its hermitian square has zero
        # (3,3)-entry; the XY appears at (2,2) instead
        assert entry_33_constraint(alg, [b]) == as_scalar(0)
        hs = alg.hermitian_square(b)
        assert hs[1][1] == X * Y

    def test_wrong_shape_rejected(self):
        alg = AlgebraWithInvolution("F", 2, InvolutionSpec.transpose())
        with pytest.raises(HermsqError):
            entry_33_constraint(alg, [alg.identity()])


class TestSigmaOrderings:
    def test_thm32_and_thm33(self):
        assert sigma_orderings(thm32_algebra()) == [MonomialOrdering.parse("++")]
        assert sigma_orderings(thm33_algebra()) == [MonomialOrdering.parse("++")]

    def test_transpose_all_four(self):
        alg = AlgebraWithInvolution("F", 2, InvolutionSpec.transpose())
        assert sigma_orderings(alg) == list(ORDERINGS)
