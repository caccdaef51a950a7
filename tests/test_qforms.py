"""Tests for diagonal quadratic forms, isotropy oracles and weak
representation of 1."""

import random
import time
from fractions import Fraction
from math import isqrt

import pytest

from hermsq import linalg, qforms, scalars
from hermsq.errors import (HermsqError, NotMonomialError, ResourceLimitError,
                           ShapeError, SingularMatrixError)
from hermsq.qforms import (DiagonalForm, Diagonalization, GramForm, WeakRepresentation,
                           diagonalize, four_squares, hilbert_symbol,
                           is_isotropic_Q, is_weakly_isotropic_Q,
                           springer_residues, weak_isotropy_witness,
                           weakly_represents_one)
from hermsq.scalars import (ORDERINGS, MonomialOrdering, Polynomial, X, Y,
                            as_scalar, parse_scalar)


def form(*texts):
    return DiagonalForm([parse_scalar(t) for t in texts])


class TestDiagonalForm:
    def test_constructors_and_ops(self):
        q = form("X", "Y", "X*Y")
        assert len(q) == 3
        assert q.is_monomial()
        assert not q.is_rational()
        assert q.scale(X) == form("X^2", "X*Y", "X^2*Y")
        assert q.perp(form("1")) == form("X", "Y", "X*Y", "1")
        assert q.neg() == form("-X", "-Y", "-X*Y")
        assert form("2").tensor(form("1", "1", "1", "1")) == form("2", "2", "2", "2")
        assert q.times(2) == q.perp(q)

    def test_zero_entry_rejected(self):
        with pytest.raises(HermsqError):
            form("0", "1")
        with pytest.raises(HermsqError):
            form("X").scale(as_scalar(0))

    def test_signatures(self):
        q = form("X", "Y", "X*Y")
        pp = MonomialOrdering.parse("++")
        pm = MonomialOrdering.parse("+-")
        assert q.signature(pp) == 3
        assert q.signature(pm) == -1
        sigs = q.signatures()
        assert sigs == {"++": 3, "+-": -1, "-+": -1, "--": -1}

    def test_signature_additive_multiplicative(self):
        rng = random.Random(3)
        entries = ["1", "-1", "X", "-X", "Y", "-Y", "X*Y", "-X*Y", "2", "-3"]
        for _ in range(100):
            q1 = form(*(rng.choice(entries) for _ in range(rng.randint(1, 3))))
            q2 = form(*(rng.choice(entries) for _ in range(rng.randint(1, 3))))
            for p in ORDERINGS:
                assert (q1.perp(q2).signature(p)
                        == q1.signature(p) + q2.signature(p))
                assert (q1.tensor(q2).signature(p)
                        == q1.signature(p) * q2.signature(p))

    def test_square_class_multiset(self):
        q = form("X", "Y", "X*Y")
        t = q.tensor(q)
        classes = t.square_class_multiset()
        assert classes == sorted([(1, 0, 0)] * 3 + [(1, 1, 0)] * 2
                                 + [(1, 0, 1)] * 2 + [(1, 1, 1)] * 2)

    def test_discriminant(self):
        assert form("2", "3").discriminant_square_class() == form("6").discriminant_square_class()


class TestDiagonalize:
    def test_diagonal_input_identity_transform(self):
        g = GramForm([[X, as_scalar(0), as_scalar(0)],
                      [as_scalar(0), Y, as_scalar(0)],
                      [as_scalar(0), as_scalar(0), X * Y]])
        result = diagonalize(g)
        assert result.form == form("X", "Y", "X*Y")
        n = 3
        assert all(result.transform[i][j] == as_scalar(1 if i == j else 0)
                   for i in range(n) for j in range(n))
        assert result.verify(g)

    def test_hyperbolic_plane(self):
        g = GramForm([[as_scalar(0), as_scalar(1)],
                      [as_scalar(1), as_scalar(0)]])
        result = diagonalize(g)
        assert result.verify(g)
        classes = sorted(f.as_fraction() * f.as_fraction().denominator ** 2
                         for f in result.form.entries)
        # entries represent the square classes of 1 and -1
        from hermsq.scalars import squarefree_part
        assert sorted(squarefree_part(int(c)) for c in classes) == [-2, 2] or \
            sorted(squarefree_part(int(c)) for c in classes) == [-1, 1]

    def test_pivot_step(self):
        g = GramForm([[as_scalar(2), as_scalar(1)],
                      [as_scalar(1), as_scalar(2)]])
        result = diagonalize(g)
        assert result.form == form("2", "3/2")
        assert result.verify(g)

    def test_singular_rejected(self):
        g = GramForm([[as_scalar(1), as_scalar(1)],
                      [as_scalar(1), as_scalar(1)]])
        with pytest.raises(SingularMatrixError):
            diagonalize(g)

    def test_asymmetric_rejected(self):
        with pytest.raises(HermsqError):
            GramForm([[as_scalar(1), as_scalar(2)],
                      [as_scalar(3), as_scalar(1)]])

    def test_shape_errors(self):
        one, two = as_scalar(1), as_scalar(2)
        with pytest.raises(ShapeError, match="square"):
            GramForm([[one, two]])
        with pytest.raises(ShapeError, match="symmetric"):
            GramForm([[one, two], [one, one]])

    def test_random_rational_congruence(self):
        rng = random.Random(17)
        done = 0
        while done < 40:
            n = rng.randint(1, 8)
            m = [[as_scalar(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    v = as_scalar(Fraction(rng.randint(-5, 5),
                                           rng.randint(1, 3)))
                    m[i][j] = m[j][i] = v
            try:
                g = GramForm(m)
                result = diagonalize(g)
            except SingularMatrixError:
                continue
            done += 1
            assert result.verify(g)

    def test_random_function_field_congruence(self):
        rng = random.Random(29)
        pool = [as_scalar(0), as_scalar(1), as_scalar(-1), X, Y, X + 1,
                X * Y, Y - 2]
        done = 0
        while done < 15:
            n = rng.randint(1, 5)
            m = [[as_scalar(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = rng.choice(pool)
            try:
                g = GramForm(m)
                result = diagonalize(g)
            except SingularMatrixError:
                continue
            done += 1
            assert result.verify(g)

    def test_verify_refuses_wrong_data(self):
        # T^t G T = D is checked on and above the diagonal of the symmetric
        # T^t G T: a T perturbed on, above or below its diagonal, a changed
        # D and a T^t G T with a nonzero entry off the diagonal all fail,
        # over Q(X, Y) and, for a constant G and perturbation, on ints
        for g, delta in ((gram([["X", "1", "Y"], ["1", "X*Y + 1", "1/X"],
                                ["Y", "1/X", "Y^2 - 1"]]), 1 / X),
                         (gram([["2", "1", "3"], ["1", "5", "1/2"], ["3", "1/2", "-1"]]),
                          as_scalar(Fraction(1, 3)))):
            result = diagonalize(g)
            assert result.verify(g)
            n = len(g)
            for i, j in ((0, 0), (1, 2), (2, 1), (2, 0)):
                t = [list(row) for row in result.transform]
                t[i][j] = t[i][j] + delta
                assert not Diagonalization(result.form, t).verify(g)
            for k in range(n):
                d = list(result.form.entries)
                d[k] = d[k] + 1
                assert not Diagonalization(DiagonalForm(d), result.transform).verify(g)
        # T^t diag(X, Y) T = [[X, X], [X, X + Y]]: the diagonal matches D
        one, zero = as_scalar(1), as_scalar(0)
        g = GramForm([[X, zero], [zero, Y]])
        shear = Diagonalization(DiagonalForm([X, X + Y]), [[one, one], [zero, one]])
        assert not shear.verify(g)

    def test_verify_forms_the_upper_triangle(self, monkeypatch):
        # G T is formed in full, T^t (G T) on and above its diagonal only
        g = gram([["X", "1", "Y"], ["1", "X*Y + 1", "1/X"], ["Y", "1/X", "Y^2 - 1"]])
        result = diagonalize(g)
        calls = []

        def counted(row, col, zero, entry=linalg._rf_entry):
            calls.append(1)
            return entry(row, col, zero)
        monkeypatch.setattr(linalg, "_rf_entry", counted)
        assert result.verify(g)
        n = len(g)
        assert len(calls) == n * n + n * (n + 1) // 2


def gram(rows):
    return GramForm([[parse_scalar(v) for v in row] for row in rows])


def fraction_det(m):
    """Determinant of a Fraction matrix by Gaussian elimination."""
    m = [list(row) for row in m]
    det = Fraction(1)
    for p in range(len(m)):
        pivot = next((i for i in range(p, len(m)) if m[i][p]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != p:
            m[p], m[pivot] = m[pivot], m[p]
            det = -det
        det *= m[p][p]
        for i in range(p + 1, len(m)):
            c = m[i][p] / m[p][p]
            m[i] = [a - c * b for a, b in zip(m[i], m[p])]
    return det


def seeded_points(rng, count=4):
    return [{"X": Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
             "Y": Fraction(rng.randint(-9, 9), rng.randint(1, 4))} for _ in range(count)]


def congruence_holds_at(g, result, pt):
    """T^t G T = D at a rational point, in Fraction arithmetic; None when
    the point is a pole of some entry."""
    try:
        gv = [[v.evaluate(pt) for v in row] for row in g.matrix]
        tv = [[v.evaluate(pt) for v in row] for row in result.transform]
        dv = [e.evaluate(pt) for e in result.form.entries]
    except HermsqError:
        return None
    n = len(gv)
    return all(sum(tv[a][i] * gv[a][b] * tv[b][j] for a in range(n) for b in range(n))
               == (dv[i] if i == j else 0) for i in range(n) for j in range(n))


# Grams for the branches of the fraction-free kernel: the zero-pivot
# addmul, the swap, decoupled pivots mixed with dense blocks, and
# denominators in G (L != 1)
KERNEL_GRAMS = {
    "zero-pivot": [["0", "X"], ["X", "0"]],
    "swap": [["0", "1/X", "Y"], ["1/X", "0", "1"], ["Y", "1", "X + Y"]],
    "decoupled-mixed": [["X", "0", "0", "0", "0"],
                        ["0", "1", "Y", "0", "0"],
                        ["0", "Y", "X + 1", "0", "1"],
                        ["0", "0", "0", "Y", "0"],
                        ["0", "0", "1", "0", "X*Y"]],
    "denominators": [["1/X", "1/(X + 1)", "1/2"],
                     ["1/(X + 1)", "Y/X", "0"],
                     ["1/2", "0", "1/(X*Y + 1)"]],
}


class TestFractionFreeKernel:
    """diagonalize eliminates fraction-free over Z[X, Y] through
    linalg.Congruence."""

    @pytest.mark.parametrize("name", sorted(KERNEL_GRAMS))
    def test_congruence_at_rational_points(self, name):
        g = gram(KERNEL_GRAMS[name])
        result = diagonalize(g)
        assert result.verify(g)
        checked = [congruence_holds_at(g, result, pt)
                   for pt in seeded_points(random.Random(name))]
        assert all(ok is not False for ok in checked)
        assert checked.count(True) >= 2

    def test_branches_taken(self, monkeypatch):
        calls = []
        for method in ("swap", "addmul"):
            original = getattr(linalg.Congruence, method)

            def recorded(self, *args, name=method, original=original):
                calls.append((name, args))
                return original(self, *args)
            monkeypatch.setattr(linalg.Congruence, method, recorded)
        diagonalize(gram(KERNEL_GRAMS["zero-pivot"]))
        assert calls == [("addmul", (0, 1, 1))]
        calls.clear()
        diagonalize(gram(KERNEL_GRAMS["swap"]))
        assert calls[:1] == [("swap", (0, 2))]

    def test_zero_pivot_entries(self):
        result = diagonalize(gram(KERNEL_GRAMS["zero-pivot"]))
        assert [str(e) for e in result.form.entries] == ["2*X", "-1/2*X"]

    def test_decoupled_pivot_keeps_the_scale(self):
        lcm, num = linalg.clear_denominators(gram(KERNEL_GRAMS["decoupled-mixed"]).matrix)
        red = linalg.Congruence(num, 1)
        scales = [red.eliminate((p,), ((1,),), red.m[p][p]) for p in range(5)]
        # index 0 is decoupled, 1 and 2 eliminate (the pivot at 1 is 1, so
        # the scale becomes the pivot at 2), 3 is decoupled and keeps that
        # scale, where eliminating it would have made it Y times as large
        one = Polynomial.one()
        pivot2 = Polynomial.variable("X") + 1 - Polynomial.variable("Y") ** 2
        assert scales == [one, one, one, pivot2, pivot2]
        assert red.scale == pivot2

    @pytest.mark.parametrize("rows", [[["2", "1", "X"], ["1", "Y", "1/X"], ["X", "1/X", "1"]],
                                      KERNEL_GRAMS["denominators"]])
    def test_pivots_are_ratios_of_leading_minors(self, rows):
        g = gram(rows)
        result = diagonalize(g)
        for pt in seeded_points(random.Random(5)):
            try:
                gv = [[v.evaluate(pt) for v in row] for row in g.matrix]
                dv = [e.evaluate(pt) for e in result.form.entries]
            except HermsqError:
                continue
            minors = [fraction_det([row[:k] for row in gv[:k]]) for k in range(len(gv) + 1)]
            if 0 in minors:
                continue
            assert dv == [minors[k + 1] / minors[k] for k in range(len(gv))]

    def test_inexact_pivot_division_raises(self):
        x, y = Polynomial.variable("X"), Polynomial.variable("Y")
        red = linalg.Congruence([[x, Polynomial.one()], [Polynomial.one(), y]], 1)
        red.scale = x + 1  # not the scale the entries carry
        with pytest.raises(HermsqError, match="inexact"):
            red.eliminate((0,), ((1,),), red.m[0][0])


class TestHilbertSymbol:
    def test_known_values(self):
        assert hilbert_symbol(1, 1, 2) == 1
        assert hilbert_symbol(-1, -1, "inf") == -1
        assert hilbert_symbol(-1, -1, 2) == -1
        assert hilbert_symbol(2, 3, 3) == -1
        assert hilbert_symbol(3, 3, 3) == -1
        assert hilbert_symbol(5, 3, 3) == -1
        assert hilbert_symbol(7, 3, 3) == 1

    def test_symmetry_and_bimultiplicativity(self):
        rng = random.Random(13)
        values = [v for v in range(-12, 13) if v != 0]
        places = [2, 3, 5, 7, "inf"]
        for _ in range(200):
            a = rng.choice(values)
            b = rng.choice(values)
            c = rng.choice(values)
            p = rng.choice(places)
            assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
            assert (hilbert_symbol(a * c, b, p)
                    == hilbert_symbol(a, b, p) * hilbert_symbol(c, b, p))
            assert hilbert_symbol(a, -a, p) == 1
            assert hilbert_symbol(a, a * a, p) == 1

    def test_product_formula(self):
        # product over all places is 1; ramification is confined to
        # 2, inf and primes dividing a, b
        rng = random.Random(19)
        for _ in range(60):
            a = rng.randint(1, 30) * rng.choice((1, -1))
            b = rng.randint(1, 30) * rng.choice((1, -1))
            places = {2, "inf"}
            for v in (abs(a), abs(b)):
                d = 2
                while d * d <= v:
                    if v % d == 0:
                        places.add(d)
                        while v % d == 0:
                            v //= d
                    d += 1
                if v > 1:
                    places.add(v)
            prod = 1
            for p in places:
                prod *= hilbert_symbol(a, b, p)
            assert prod == 1


class TestFourSquares:
    def test_examples(self):
        for n in (0, 1, 2, 7, 30, 1000, 9999):
            sq = four_squares(n)
            assert len(sq) == 4
            assert sum(s * s for s in sq) == n

    def test_witnesses_unchanged(self):
        # the greedy witnesses the search gave before it skipped what
        # cannot succeed
        for n, sq in ((0, (0, 0, 0, 0)), (1, (1, 0, 0, 0)), (2, (1, 1, 0, 0)),
                      (7, (2, 1, 1, 1)), (30, (5, 2, 1, 0)), (1000, (30, 10, 0, 0)),
                      (9999, (99, 14, 1, 1)),
                      (7 * 4 ** 20, (2097152, 1048576, 1048576, 1048576))):
            assert four_squares(n) == sq

    def test_skips_what_cannot_succeed(self):
        # the inner loops ran to the end for each a with n - a^2 of the
        # form 4^k (8m + 7) (over 60 s here), and for n - a^2 = 3 * 4^19
        # tried every b although only multiples of 2^19 can do
        a = 2 ** 40 + 1
        for n, first in ((47124799620434412028532003, 6864750514069),
                         (a * a + 3 * 4 ** 19, a)):
            start = time.perf_counter()
            sq = four_squares(n)
            assert time.perf_counter() - start < 1
            assert sum(s * s for s in sq) == n and sq[0] == first

    def test_three_squares_against_the_unskipped_search(self):
        # skipping each b whose m - b^2 has an odd part 3 mod 4 leaves the
        # first triple of the search over every b unchanged
        def unskipped(m):
            scale = 1
            while m and m % 4 == 0:
                m //= 4
                scale *= 2
            if m % 8 == 7:
                return None
            for b in range(isqrt(m), -1, -1):
                m1 = m - b * b
                for c in range(isqrt(m1), -1, -1):
                    d = isqrt(m1 - c * c)
                    if d * d == m1 - c * c:
                        return (scale * b, scale * c, scale * d)

        rng = random.Random(29)
        for m in list(range(600)) + [rng.randrange(1 << 40) for _ in range(400)]:
            assert qforms._three_squares(m) == unskipped(m), m

    def test_bit_cap(self):
        # checked on n with its factors of 4 taken out, before the search:
        # k^2 + 1 has exactly the cap's bits, and 2^cap + 1 one more
        bits = qforms.MAX_FOUR_SQUARES_BITS
        k = isqrt(1 << bits) - 1
        assert four_squares(k * k + 1) == (k, 1, 0, 0)
        assert four_squares((k * k + 1) * 4 ** 10) == (k << 10, 1 << 10, 0, 0)
        with pytest.raises(ResourceLimitError, match=f"of {bits + 1} bits .* cap of {bits} bits"):
            four_squares((1 << bits) + 1)

    def test_negative_rejected(self):
        with pytest.raises(HermsqError):
            four_squares(-1)

    def test_large_powers_of_four(self):
        # the search is slow on 4^k(8m + 7) unless the factors of 4 go first
        n = 7 * 4 ** 20
        start = time.perf_counter()
        sq = four_squares(n)
        assert time.perf_counter() - start < 0.1
        assert sum(s * s for s in sq) == n


class TestIsotropy:
    def test_examples(self):
        assert is_isotropic_Q([1, -1])
        assert not is_isotropic_Q([1, 1, 1])
        assert not is_isotropic_Q([1, 1, -3])
        assert is_isotropic_Q([1, 1, -2])
        assert is_isotropic_Q([1, 1, 1, 1, -7])
        assert not is_isotropic_Q([1])
        assert not is_isotropic_Q([2, 3])
        assert is_isotropic_Q(form("1", "-4"))

    def test_quaternary_discriminant(self):
        # <1, 1, 1, -7> is anisotropic over Q_2, and so is every nonzero
        # multiple of it; the discriminant's primes cancel in pairs
        assert not is_isotropic_Q([1, 1, 1, -7])
        assert not is_isotropic_Q([3, 3, 3, -21])
        assert not is_isotropic_Q([5, 20, Fraction(5, 9), -35])
        assert is_isotropic_Q([1, 1, 1, -1])
        assert is_isotropic_Q([3, 3, 3, -3])
        assert is_isotropic_Q([2, 3, 5, -30])

    def test_large_prime_coefficient_is_resource_limit(self, monkeypatch):
        monkeypatch.setattr(scalars, "MAX_TRIAL_DIVISOR", 1000)
        assert not is_isotropic_Q([1, 1, -999983])
        with pytest.raises(ResourceLimitError, match="trial-division bound 1000"):
            is_isotropic_Q([1, 1, -1002017])

    def test_definite_never_isotropic(self):
        rng = random.Random(31)
        for _ in range(100):
            dim = rng.randint(1, 6)
            entries = [rng.randint(1, 10) for _ in range(dim)]
            assert not is_isotropic_Q(entries)
            assert not is_isotropic_Q([-e for e in entries])

    def test_dim5_indefinite_isotropic(self):
        rng = random.Random(37)
        for _ in range(50):
            entries = [rng.randint(1, 10) for _ in range(4)] + [-rng.randint(1, 10)]
            rng.shuffle(entries)
            assert is_isotropic_Q(entries)


class TestWeakIsotropy:
    def test_examples(self):
        assert is_weakly_isotropic_Q([1, -7])
        assert not is_weakly_isotropic_Q([-1, -3])
        assert not is_weakly_isotropic_Q([2, 3])

    def test_sign_criterion_and_witness(self):
        rng = random.Random(43)
        for _ in range(100):
            dim = rng.randint(1, 5)
            entries = [rng.choice([v for v in range(-9, 10) if v != 0])
                       for _ in range(dim)]
            mixed = any(e > 0 for e in entries) and any(e < 0 for e in entries)
            assert is_weakly_isotropic_Q(entries) == mixed
            if mixed:
                a = next(e for e in entries if e > 0)
                b = next(e for e in entries if e < 0)
                vec = weak_isotropy_witness(a, b)
                # 4 x <a> perp <b> vanishes at the witness
                total = sum(a * v * v for v in vec[:4]) + b * vec[4] * vec[4]
                assert total == 0
                assert any(v != 0 for v in vec)


class TestSpringer:
    def test_examples(self):
        q_even, q_odd = springer_residues(form("1", "-X", "-Y", "-X*Y"), "Y")
        assert q_even == form("1", "-X")
        assert q_odd == form("-1", "-X")
        q_even, q_odd = springer_residues(form("1", "-X"), "X")
        assert q_even == form("1")
        assert q_odd == form("-1")
        q_even, q_odd = springer_residues(form("X^2*Y"), "Y")
        assert len(q_even) == 0
        assert q_odd == form("1")

    def test_higher_powers_divided_out(self):
        # residues are reduced modulo squares of the surviving variable
        q_even, q_odd = springer_residues(form("4*X^3*Y^2", "-Y^5"), "X")
        assert q_odd == form("4")
        assert q_even == form("-Y")

    def test_non_monomial_rejected(self):
        with pytest.raises(NotMonomialError):
            springer_residues(DiagonalForm([X + Y]), "X")


class TestWeakRepresentation:
    def test_lemma_form_fails(self):
        rep = weakly_represents_one(form("X", "Y", "X*Y"))
        assert not rep.represents
        assert not rep

    def test_trivial_success(self):
        rep = weakly_represents_one(form("1", "X"))
        assert rep.represents
        assert rep.verify()

    def test_even_even_positive_entry(self):
        rep = weakly_represents_one(form("2*X^2", "-Y"))
        assert rep.represents
        assert rep.copies <= 4
        assert rep.verify()

    def test_mixed_parity_class(self):
        # X and -X^3 share the square class of X with opposite signs
        rep = weakly_represents_one(form("X", "-X^3"))
        assert rep.represents
        assert rep.verify()

    def test_singleton_classes_fail(self):
        # one entry per square class, none congruent to a positive rational:
        # each residue form stays definite, so no multiple represents 1
        assert not weakly_represents_one(form("X", "Y", "-X*Y"))
        assert not weakly_represents_one(form("-1", "X"))
        assert not weakly_represents_one(form("X", "-Y"))

    def test_witness_expansion_random(self):
        rng = random.Random(47)
        monos = ["1", "2", "-3", "X", "-X", "Y", "X*Y", "-X*Y",
                 "X^2", "-Y^3", "5*X*Y^2"]
        found = 0
        for _ in range(120):
            dim = rng.randint(1, 4)
            q = form(*(rng.choice(monos) for _ in range(dim)))
            rep = weakly_represents_one(q)
            if rep.represents:
                found += 1
                assert rep.verify()
                assert len(rep.vectors) == rep.copies
                assert all(len(vec) == dim for vec in rep.vectors)
        assert found > 20

    def test_non_monomial_rejected(self):
        with pytest.raises(NotMonomialError):
            weakly_represents_one(DiagonalForm([X + 1]))
