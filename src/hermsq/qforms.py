"""Diagonal quadratic forms over Q and Q(X,Y).

Covers symmetric Gram-matrix diagonalization by congruence, tensor and
orthogonal sums, signatures at the four monomial orderings, a
Hasse-Minkowski isotropy oracle over Q, the two-variable Springer residue
decomposition for monomial forms, and the weak-representation-of-1 test
with explicit verified witnesses on the positive side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod

from .errors import (HermsqError, NotMonomialError, ResourceLimitError, ShapeError,
                     SingularMatrixError)
from .linalg import (Congruence, clear_denominators, divide, equal, identity, mat_mul,
                     transpose)
from .scalars import (
    ONE,
    ORDERINGS,
    RationalFunction,
    ZERO,
    as_scalar,
    factor_integer,
    format_scalar,
    monomial_parts,
    monomial_square_class,
    sign_at,
)


class DiagonalForm:
    """Nonsingular diagonal form <c1, ..., ck>; entries are nonzero
    rational functions (constants for forms over Q)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = [as_scalar(e) for e in entries]
        for e in self.entries:
            if e.is_zero():
                raise HermsqError("diagonal forms must have nonzero entries")

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        return isinstance(other, DiagonalForm) and self.entries == other.entries

    def __repr__(self):
        return f"<{', '.join(format_scalar(e) for e in self.entries)}>"

    def is_rational(self):
        return all(e.is_constant() for e in self.entries)

    def fractions(self):
        if not self.is_rational():
            raise HermsqError("form has non-constant entries")
        return [e.as_fraction() for e in self.entries]

    def is_monomial(self):
        return all(e.is_monomial() for e in self.entries)

    def scale(self, c):
        c = as_scalar(c)
        if c.is_zero():
            raise HermsqError("cannot scale a form by zero")
        return DiagonalForm([c * e for e in self.entries])

    def perp(self, other):
        return DiagonalForm(self.entries + list(other.entries))

    def tensor(self, other):
        return DiagonalForm([a * b for a in self.entries for b in other.entries])

    def times(self, m):
        """m x q = q perp ... perp q (m copies)."""
        if m < 1:
            raise HermsqError("multiplier must be >= 1")
        return DiagonalForm(self.entries * m)

    def neg(self):
        return DiagonalForm([-e for e in self.entries])

    def signature(self, ordering):
        total = 0
        for e in self.entries:
            s = sign_at(e, ordering)
            if s == 0:
                raise HermsqError("entry with zero sign in signature")
            total += s
        return total

    def signatures(self):
        return {str(P): self.signature(P) for P in ORDERINGS}

    def square_class_multiset(self):
        """Sorted square classes (d, a, b) of the (monomial) entries."""
        return sorted(monomial_square_class(e) for e in self.entries)

    def discriminant_square_class(self):
        prod = as_scalar(1)
        for e in self.entries:
            prod = prod * e
        return monomial_square_class(prod)


class GramForm:
    """Symmetric Gram matrix of a quadratic/bilinear form over Q(X,Y)."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = [[as_scalar(v) for v in row] for row in matrix]
        n = len(m)
        for row in m:
            if len(row) != n:
                raise ShapeError("Gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if m[i][j] != m[j][i]:
                    raise ShapeError("Gram matrix must be symmetric")
        self.matrix = m

    def __len__(self):
        return len(self.matrix)


@dataclass
class Diagonalization:
    form: DiagonalForm
    transform: list  # T with T^t * G * T = diag(form)

    def verify(self, gram):
        """Whether T^t G T = D in Q(X, Y) arithmetic.  A GramForm is
        symmetric, so T^t G T is too, and comparing its entries on and above
        the diagonal, the only ones the second product forms, is a complete
        check."""
        zero = as_scalar(0)
        T = self.transform
        d = self.form.entries
        want = [[d[i] if i == j else zero for j in range(len(d))] for i in range(len(d))]
        return equal(mat_mul(transpose(T), mat_mul(gram.matrix, T, zero), zero, 1), want)


def diagonalize(gram):
    """Congruence-diagonalize a symmetric nonsingular Gram matrix; returns
    the diagonal entries together with the transformation.

    The elimination runs fraction-free on L * G over Z[X, Y], L the lcm of
    G's denominators: D_k is the k-th stored pivot over its scale times L,
    and column j of T is column j of the stored transform over its scale.
    A diagonal G, whose pivots are all decoupled, is its own answer.
    """
    n = len(gram)
    g = gram.matrix
    if all(g[k][k] for k in range(n)) and not any(
            v.num.terms for i, row in enumerate(g) for v in row[i + 1:]):
        return Diagonalization(DiagonalForm([g[k][k] for k in range(n)]),
                               identity(n, ZERO, ONE))
    lcm, num = clear_denominators(g)
    red = Congruence(num, 1)
    M = red.m
    scales = []
    for p in range(n):
        if not M[p][p]:
            pivot = next((j for j in range(p + 1, n) if M[j][j]), None)
            if pivot is not None:
                red.swap(p, pivot)
            else:
                found = next(((i, j) for i in range(p, n) for j in range(i + 1, n)
                              if M[i][j]), None)
                if found is None:
                    raise SingularMatrixError("Gram matrix is singular")
                i, j = found
                red.addmul(i, j, 1)  # makes M[i][i] = 2*M[i][j] != 0
                if i != p:
                    red.swap(p, i)
        scales.append(red.eliminate((p,), ((1,),), M[p][p]))
    entries = divide([[M[k][k] for k in range(n)]], [s * lcm for s in scales])[0]
    return Diagonalization(DiagonalForm(entries), divide(red.t, scales))


# ---------------------------------------------------------------------------
# number theory over Q
# ---------------------------------------------------------------------------

def _legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def hilbert_symbol(a, b, p):
    """Hilbert symbol (a, b)_p for nonzero integers; p a prime or 'inf'."""
    if a == 0 or b == 0:
        raise HermsqError("Hilbert symbol needs nonzero arguments")
    if p == "inf":
        return -1 if (a < 0 and b < 0) else 1

    def split(x):
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v, x

    alpha, u = split(a)
    beta, v = split(b)
    if p == 2:
        def eps(x):
            return ((x - 1) // 2) % 2

        def omega(x):
            return ((x * x - 1) // 8) % 2

        e = eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)
        return -1 if e % 2 else 1
    e = alpha * beta * ((p - 1) // 2)
    s = -1 if e % 2 else 1
    if beta % 2:
        s *= _legendre(u, p)
    if alpha % 2:
        s *= _legendre(v, p)
    return s


def _is_square_rational(c):
    c = Fraction(c)
    if c <= 0:
        return False
    rn = isqrt(c.numerator)
    rd = isqrt(c.denominator)
    return rn * rn == c.numerator and rd * rd == c.denominator


def _is_square_in_Qp(d, p):
    # d squarefree nonzero
    if p == "inf":
        return d > 0
    if p == 2:
        return d % 8 == 1
    if d % p == 0:
        return False
    return _legendre(d, p) == 1


# the cap of four_squares on the bits of n with its factors of 4 taken out,
# checked before the search, whose time grows with n and varies widely from
# one n to the next.  Timed on a 2-vCPU VM (Python 3.11), over 60 seeded n
# of each size, not divisible by 4: the slowest took 0.40 s at 116 bits,
# 0.51 s at 118 and 0.23 s at 120, but 2.1 s at 122 and over 5 s at 140.
MAX_FOUR_SQUARES_BITS = 120


def four_squares(n):
    """Lagrange decomposition of a nonnegative integer: the first
    (a, b, c, d) with a, then b, then c as large as possible, found for n
    with its factors of 4 taken out (four_squares(4m) is twice
    four_squares(m)).  That n is refused before the search when it has more
    than MAX_FOUR_SQUARES_BITS bits."""
    if n < 0:
        raise HermsqError("four squares needs a nonnegative integer")
    if n == 0:
        return (0, 0, 0, 0)
    scale = 1
    while n % 4 == 0:
        n //= 4
        scale *= 2
    if n.bit_length() > MAX_FOUR_SQUARES_BITS:
        raise ResourceLimitError(
            f"four squares of an integer of {n.bit_length()} bits (its factors of 4 "
            f"taken out) exceeds the cap of {MAX_FOUR_SQUARES_BITS} bits")
    for a in range(isqrt(n), -1, -1):
        rest = _three_squares(n - a * a)
        if rest is not None:
            return tuple(scale * s for s in (a, *rest))
    raise HermsqError("unreachable: Lagrange four-square theorem")


def _three_squares(m):
    """The first (b, c, d) with m = b^2 + c^2 + d^2 and b, then c, as large
    as possible, or None.  By Legendre's three-square theorem there is none
    exactly when m = 4^k (8j + 7).  Three squares whose sum is a multiple of
    4 are all even, so the triples of 4m are twice those of m, in the same
    order, and the search runs on m with its factors of 4 taken out: on
    4^k m every b but the multiples of 2^k would fail, each after a whole
    loop over c.  A b is skipped, too, when the odd part of m - b^2 is 3
    mod 4: a prime 3 mod 4 then divides m - b^2 to an odd power, so no two
    squares sum to it, and the loop over c would fail."""
    scale = 1
    while m and m % 4 == 0:
        m //= 4
        scale *= 2
    if m % 8 == 7:
        return None
    for b in range(isqrt(m), -1, -1):
        m1 = m - b * b
        if m1 and (m1 >> (m1 & -m1).bit_length() - 1) % 4 == 3:
            continue
        for c in range(isqrt(m1), -1, -1):
            m2 = m1 - c * c
            d = isqrt(m2)
            if d * d == m2:
                return (scale * b, scale * c, scale * d)
    return None


def four_squares_fraction(c):
    """Write a positive rational as a sum of four rational squares."""
    c = Fraction(c)
    if c <= 0:
        raise HermsqError("need a positive rational")
    n = c.numerator * c.denominator
    return tuple(Fraction(a, c.denominator) for a in four_squares(n))


def is_isotropic_Q(form):
    """Hasse-Minkowski isotropy test for a diagonal form over Q."""
    coeffs = [Fraction(c) for c in (form.fractions() if isinstance(form, DiagonalForm) else form)]
    if any(c == 0 for c in coeffs):
        raise HermsqError("form entries must be nonzero")
    # the signed squarefree part of each coefficient and its primes
    cs, primes = [], set()
    for c in coeffs:
        odd = [p for p, e in factor_integer(c.numerator * c.denominator).items() if e % 2]
        primes.update(odd)
        cs.append(prod(odd) if c > 0 else -prod(odd))
    k = len(cs)
    if k <= 1:
        return False
    indefinite = any(c > 0 for c in cs) and any(c < 0 for c in cs)
    if k == 2:
        return _is_square_rational(Fraction(-cs[0] * cs[1]))
    if k >= 5:
        return indefinite
    if not indefinite:
        return False
    places = {2} | primes
    if k == 3:
        a, b, c = cs
        for p in places:
            if hilbert_symbol(-a * c, -b * c, p) != 1:
                return False
        return True
    # k == 4: anisotropic over Q_p iff the discriminant d is a p-adic square
    # and the Hasse invariant equals -(-1,-1)_p; d is the squarefree part of
    # the product of the cs, and that of squarefree a, b is ab / gcd(a, b)^2
    d = 1
    for c in cs:
        g = gcd(d, c)
        d = d // g * (c // g)
    for p in places:
        hasse = 1
        for i in range(4):
            for j in range(i + 1, 4):
                hasse *= hilbert_symbol(cs[i], cs[j], p)
        if _is_square_in_Qp(d, p) and hasse == -hilbert_symbol(-1, -1, p):
            return False
    return True


def is_weakly_isotropic_Q(form):
    """Over Q, some multiple m x q is isotropic iff q is indefinite."""
    cs = form.fractions() if isinstance(form, DiagonalForm) else [Fraction(c) for c in form]
    if any(c == 0 for c in cs):
        raise HermsqError("form entries must be nonzero")
    return any(c > 0 for c in cs) and any(c < 0 for c in cs)


def weak_isotropy_witness(a, b):
    """For a > 0 > b, an isotropic vector of 4x<a> perp <b> via four
    squares of -b/a."""
    a, b = Fraction(a), Fraction(b)
    if not (a > 0 > b):
        raise HermsqError("need a > 0 > b")
    sq = four_squares_fraction(-b / a)
    vec = list(sq) + [Fraction(1)]
    total = sum(a * s * s for s in sq) + b
    if total != 0:
        raise HermsqError("four-square witness failed to verify")
    return vec


# ---------------------------------------------------------------------------
# Springer reduction over Q((X))((Y)) for monomial forms
# ---------------------------------------------------------------------------

def _monomial_data(entry):
    """(c, i, j) with entry = c * X^i * Y^j; NotMonomialError otherwise."""
    e = as_scalar(entry)
    if e.is_zero() or not e.is_monomial():
        raise NotMonomialError("form entry is not a monomial scalar")
    c, exps = monomial_parts(e)
    return c, exps.get("X", 0), exps.get("Y", 0)


def springer_residues(form, var):
    """Split a monomial form by the parity of the exponent of var, dividing
    out even powers: q ~ q_even perp var * q_odd over the Laurent field."""
    if var not in ("X", "Y"):
        raise HermsqError("Springer variable must be X or Y")
    even, odd = [], []
    for entry in form.entries:
        c, i, j = _monomial_data(entry)
        e = i if var == "X" else j
        other_var, other_exp = ("Y", j) if var == "X" else ("X", i)
        # even powers of the surviving variable are squares of the residue
        # field, so the residue is reduced to exponent 0 or 1
        residue = as_scalar(c) * RationalFunction.variable(other_var, other_exp % 2)
        (even if e % 2 == 0 else odd).append(residue)
    return DiagonalForm(even), DiagonalForm(odd)


@dataclass
class WeakRepresentation:
    """Outcome of the weak-representation-of-1 test.  When represents is
    true, vectors holds coordinate rows v_t (one per copy of the form) with
    sum_t sum_e q_e * v_t[e]^2 = 1 exactly."""

    represents: bool
    form: DiagonalForm
    copies: int = 0
    vectors: tuple = ()

    def __bool__(self):
        return self.represents

    def verify(self):
        if not self.represents:
            return True
        total = as_scalar(0)
        for row in self.vectors:
            for e, v in zip(self.form.entries, row):
                total = total + e * v * v
        return total == as_scalar(1)


def _case_even_even(form, idx):
    """Witness when entry idx is c * (even monomial) with c > 0."""
    c, i, j = _monomial_data(form.entries[idx])
    shift = (RationalFunction.variable("X", -i // 2)
             * RationalFunction.variable("Y", -j // 2))
    squares = [s for s in four_squares_fraction(1 / c) if s != 0]
    vectors = []
    for s in squares:
        row = [as_scalar(0)] * len(form)
        row[idx] = shift * as_scalar(s)
        vectors.append(tuple(row))
    return WeakRepresentation(True, form, len(vectors), tuple(vectors))


def _case_mixed_class(form, ie, io):
    """Witness from entries ie (positive coeff) and io (negative coeff) in
    the same parity class: build an isotropic vector for 8 x q, then shift
    along a hyperbolic direction to hit the value 1."""
    k = len(form)
    ce, ae, be = _monomial_data(form.entries[ie])
    co, ao, bo = _monomial_data(form.entries[io])
    lam = [Fraction(s) for s in four_squares_fraction(1 / ce)]
    mu_scalar = four_squares_fraction(-1 / co)
    shift = (RationalFunction.variable("X", (ae - ao) // 2)
             * RationalFunction.variable("Y", (be - bo) // 2))
    if lam[0] == 0:
        lam.sort(reverse=True)  # ensure a nonzero first coordinate
    # v: copies 1-4 put lam on entry ie, copies 5-8 put mu*shift on entry io
    v_rows = []
    for s in lam:
        row = [as_scalar(0)] * k
        row[ie] = as_scalar(s)
        v_rows.append(row)
    for s in mu_scalar:
        row = [as_scalar(0)] * k
        row[io] = shift * as_scalar(s)
        v_rows.append(row)
    kappa = form.entries[ie]  # value of the unit vector w on entry ie, copy 1
    blin = kappa * as_scalar(lam[0])  # b(v, w)
    t = (as_scalar(1) - kappa) / (blin * 2)
    z_rows = []
    for r, row in enumerate(v_rows):
        new = [x * t for x in row]
        if r == 0:
            new[ie] = new[ie] + as_scalar(1)
        z_rows.append(tuple(new))
    return WeakRepresentation(True, form, len(z_rows), tuple(z_rows))


def weakly_represents_one(form):
    """Decide whether some m x q represents 1 over Q((X))((Y)) for a
    monomial form q; complete in this regime by a double Springer
    reduction.  Positive answers carry an exact witness."""
    data = [_monomial_data(e) for e in form.entries]
    # entry idx with even/even parities and positive coefficient
    for idx, (c, i, j) in enumerate(data):
        if i % 2 == 0 and j % 2 == 0 and c > 0:
            rep = _case_even_even(form, idx)
            if not rep.verify():
                raise HermsqError("internal: even-class witness failed")
            return rep
    classes = {}
    for idx, (c, i, j) in enumerate(data):
        classes.setdefault((i % 2, j % 2), []).append((idx, c))
    for members in classes.values():
        pos = next((idx for idx, c in members if c > 0), None)
        neg = next((idx for idx, c in members if c < 0), None)
        if pos is not None and neg is not None:
            rep = _case_mixed_class(form, pos, neg)
            if not rep.verify():
                raise HermsqError("internal: mixed-class witness failed")
            return rep
    return WeakRepresentation(False, form)
