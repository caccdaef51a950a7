"""Exact dense matrix kernel shared by every module that does matrix work.

Matrices are lists of row lists.  The product, transpose, sum, negation,
equality and identity take entries that are Fraction, RationalFunction,
ZPolynomial (generic and symbolic entries) or QuatElem; they need only
+ - * and test zero by truth value, which all four support, and the ones
that create entries take the ring's zero (and one) from the caller.  A
product over Q(X, Y), every entry a RationalFunction, reduces each output
entry once: its products are summed over a common denominator
(`scalars.rf_dot`) instead of reducing after every + and *.  A square
product that its caller knows to be symmetric or skew-symmetric forms
only its upper triangle and mirrors the rest (`mat_mul`'s sign), in every
lane, and `divide` reduces such a quotient the same way.

The eliminations are over Z[X, Y]: `Congruence` is a fraction-free
(Bareiss) congruence reducer, and `block_congruence` forms P K P^t from
its output as one `mat_mul`, returning the fraction-free pair (N, L) for
its callers to reduce or not.  `Congruence` has three users:
`qforms.diagonalize` and `involutions.skew_congruence` read its pivots
and transform, and `certificates.psd_symmetric_rational` reads only the
signs of its 1 x 1 pivots, so it builds no transform.  A matrix over
Q(X, Y) enters through `clear_denominators` and leaves through `divide`,
which reduces each entry once.

Between those two edges the entries are `Polynomial`s, or Python ints
when every entry of the matrix is a constant: Z is a subring of
Z[X, Y], and the kernels need only +, *, a truth value, exact division
(`_divexact`) and the lcm of denominators (`_lcm`), with a zero taken
from the entry type.  `clear_denominators` chooses the int lane and
returns an int lcm; `divide` builds each entry from its int num and den
with one gcd, the sign taken from a negative den (a pivot).  A product
over Q(X, Y) of two constant matrices runs on ints between the same
edges.
"""

from functools import reduce
from math import gcd, lcm as math_lcm

from .errors import HermsqError
from .scalars import ZERO, Polynomial, RationalFunction, poly_divexact, poly_lcm, rf_dot

_ONE_POLY = Polynomial.one()


def _divexact(f, g):
    """f / g for f and nonzero g both int or both Polynomial, g dividing f."""
    if type(g) is int:
        q, r = divmod(f, g)
        if r:
            raise HermsqError("inexact integer division")
        return q
    return poly_divexact(f, g)


def _lcm(f, g):
    """The lcm of two nonzero denominators, both int or both Polynomial,
    signed as `poly_lcm` signs constants."""
    if type(f) is int:
        return f if g == f or g == 1 else f * (g // gcd(f, g))
    return poly_lcm(f, g)


def _quotient(v, d):
    """v / d as a RationalFunction, for nonzero d and v both int or both
    Polynomial."""
    return RationalFunction.from_ints(v, d) if type(d) is int else RationalFunction(v, d)


def _constant(matrix):
    return all(v.is_constant() for row in matrix for v in row)


def mat_mul(x, y, zero, sign=0):
    """x * y, skipping zero factors.  When every entry is a RationalFunction
    and a constant, the product runs on ints between `clear_denominators`
    and `divide`.  When every entry is a RationalFunction and one is not a
    constant, an entry of two or more products is one `rf_dot`, reduced
    once, and an entry of one product is that product.

    A caller that knows the square product is symmetric (sign 1) or
    skew-symmetric (sign -1) passes that sign: then only the entries on
    and above the diagonal (strictly above for -1) are formed, in every
    lane, and the rest are mirrored, negated for -1."""
    if all(type(v) is RationalFunction for m in (x, y) for row in m for v in row):
        if y and _constant(x) and _constant(y):
            (lx, nx), (ly, ny) = _clear_ints(x), _clear_ints(y)
            return divide(_loop_mul(nx, ny, 0, sign), [lx * ly] * len(y[0]), sign)
        cols = list(zip(*y))
        return _mirror([[zero] * f + [_rf_entry(row, col, zero) for col in cols[f:]]
                        for f, row in zip(_firsts(len(x), sign), x)], sign)
    return _loop_mul(x, y, zero, sign)


def _firsts(n, sign):
    """The first column formed in each of n rows: 0 when sign is 0, else
    the diagonal, or the column after it for sign -1."""
    return [i + (sign < 0) if sign else 0 for i in range(n)]


def _mirror(m, sign):
    """m with each entry below the diagonal set from its mirror above it,
    negated for sign -1; m itself for sign 0."""
    if sign:
        for i, row in enumerate(m):
            for j in range(i):
                row[j] = m[j][i] if sign > 0 else -m[j][i]
    return m


def _loop_mul(x, y, zero, sign=0):
    """x * y by the zero-skipping loop, for entries of any one ring; under
    `sign` as in `mat_mul`."""
    rows, inner, cols = len(x), len(y), len(y[0])
    out = [[zero for _ in range(cols)] for _ in range(rows)]
    for i, first in enumerate(_firsts(rows, sign)):
        for t in range(inner):
            a = x[i][t]
            if not a:
                continue
            for j in range(first, cols):
                b = y[t][j]
                if b:
                    out[i][j] = out[i][j] + a * b
    return _mirror(out, sign)


def _rf_entry(row, col, zero):
    """The entry row * col of a product over Q(X, Y)."""
    pairs = [(a, b) for a, b in zip(row, col) if a.num.terms and b.num.terms]
    if not pairs:
        return zero
    if len(pairs) == 1:
        a, b = pairs[0]
        return a * b
    return rf_dot(pairs)


def transpose(x):
    return [list(row) for row in zip(*x)]


def add(x, y):
    return [[p + q for p, q in zip(rx, ry)] for rx, ry in zip(x, y)]


def neg(x):
    return [[-p for p in row] for row in x]


def equal(x, y):
    return all(p == q for rx, ry in zip(x, y) for p, q in zip(rx, ry))


def identity(n, zero, one):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def clear_denominators(matrix):
    """(L, N) for a matrix over Q(X, Y): L is the lcm of its entries'
    denominators and N = L * matrix, over Z[X, Y].  When every entry is a
    constant, L and the entries of N are ints."""
    if _constant(matrix):
        return _clear_ints(matrix)
    cofactors = dict.fromkeys({v.den for row in matrix for v in row if v.num.terms})
    lcm = reduce(poly_lcm, cofactors, _ONE_POLY)
    for den in cofactors:
        cofactors[den] = poly_divexact(lcm, den)
    zero = Polynomial()
    return lcm, [[v.num * cofactors[v.den] if v.num.terms else zero for v in row]
                 for row in matrix]


def _clear_ints(matrix):
    """clear_denominators of a matrix of constants, on ints (the dens of
    canonical constants are positive)."""
    lcm = math_lcm(*{v.den.terms[0] for row in matrix for v in row})
    return lcm, [[v.num.terms[0] * (lcm // v.den.terms[0]) if v.num.terms else 0
                  for v in row] for row in matrix]


def divide(num, dens, sign=0):
    """The matrix over Q(X, Y) whose entry (i, j) is num[i][j] / dens[j],
    for num over Z[X, Y] and nonzero dens, all ints or all Polynomials;
    each entry is reduced once.  For a quotient known to be symmetric
    (sign 1) or skew-symmetric (sign -1) only the entries on and above the
    diagonal (strictly above for -1) are reduced, and the rest mirrored."""
    return _mirror([[ZERO] * f + [_quotient(v, d) if v else ZERO
                                  for v, d in zip(row[f:], dens[f:])]
                    for f, row in zip(_firsts(len(num), sign), num)], sign)


class Congruence:
    """Fraction-free congruence elimination of a symmetric (sign 1) or
    skew-symmetric (sign -1) matrix M0 over Z[X, Y] (Bareiss, Math. Comp.
    22, 1968; Zhou and Jeffrey, Front. Comput. Sci. China 2, 2008).

    `m` holds the finished pivot blocks, then the trailing block times the
    scale s (`scale`, 1 at the start).  `t` starts as the identity; its
    trailing columns are s times those of the transform T, and a finished
    column of T is its column of `t` over the scale `eliminate` returned
    for it, so that T^t M0 T is the partly reduced matrix.  A caller that
    reads only the pivots passes transform=False: `t` is then empty, and
    no step updates it.  An entry is its value in elimination over
    Q(X, Y) times a nonzero scale, so the zero tests of the two agree.
    """

    def __init__(self, matrix, sign, transform=True):
        self.m = [list(row) for row in matrix]
        # ints or Polynomials, as the entries are
        self.zero = type(matrix[0][0])() if matrix else 0
        self.t = identity(len(matrix), self.zero, self.zero + 1) if transform else []
        self.sign = sign
        self.scale = self.zero + 1

    def swap(self, a, b):
        m = self.m
        for row in m:
            row[a], row[b] = row[b], row[a]
        m[a], m[b] = m[b], m[a]
        for row in self.t:
            row[a], row[b] = row[b], row[a]

    def addmul(self, dst, src, c):
        """Column dst += c * column src, then the same for rows; c an int."""
        m = self.m
        for row in m:
            row[dst] = row[dst] + c * row[src]
        m[dst] = [v + c * w for v, w in zip(m[dst], m[src])]
        for row in self.t:
            row[dst] = row[dst] + c * row[src]

    def eliminate(self, block, adj, pivot):
        """Clear the rows and columns of `block` (consecutive indices) from
        the trailing block; returns the scale s of the block's columns of T.

        `pivot` becomes the next scale and `adj` is pivot * B^-1 for the
        stored pivot block B: [[1]] for a 1 x 1 pivot (pivot = B), and
        [[0, -1], [1, 0]] for a skew block [[0, a], [-a, 0]] (pivot = a, its
        Pfaffian).  Each trailing entry of `m`, and of `t`, becomes
        (pivot * m_kl - m_kB adj m_Bl) / s, an exact division; one that is
        not exact raises.  A block whose rows are already clear is decoupled:
        nothing changes, and s stays.
        """
        m, s, sign, zero = self.m, self.scale, self.sign, self.zero
        n = len(m)
        rest = range(block[-1] + 1, n)
        if not any(m[u][k] for u in block for k in rest):
            return s
        terms = [(u, v, c) for u, row in zip(block, adj) for v, c in zip(block, row) if c]
        unit = s == 1

        def weights(row):
            """-(row_B adj) as (index in m, entry) pairs, zeros left out."""
            w = {}
            for u, v, c in terms:
                if row[u]:
                    w[v] = w.get(v, zero) - c * row[u]
            return [(v, x) for v, x in w.items() if x]

        def update(row, cols, first):
            """row[l] = (pivot * row[l] - row_B adj m_Bl) / s for l in cols."""
            w = weights(row)
            for l in cols:
                v = row[l]
                if v:
                    v = pivot * v
                for b, x in w:
                    y = m[b][l]
                    if y:
                        v = v + x * y
                if v and not unit:
                    v = _divexact(v, s)
                row[l] = v
                if first is not None:
                    # the entry below the diagonal, by symmetry or skew symmetry
                    m[l][first] = v if sign > 0 else -v

        for k in rest:
            update(m[k], range(k if sign > 0 else k + 1, n), k)
        for row in self.t:
            update(row, rest, None)
        for u in block:
            for k in rest:
                m[u][k] = m[k][u] = zero
        self.scale = pivot
        return s


def block_congruence(num, dens, upper, lower):
    """P K P^t for P whose column j is column j of num over dens[j], and K
    block diagonal with the 2 x 2 blocks [[0, upper], [lower, 0]], upper
    and lower each 1 or -1.  Returns (N, L) with P K P^t = N / L: L is the
    lcm of the column pairs' denominators dens[t] * dens[t + 1], and N is
    over Z[X, Y] (ints when num and dens are).  K, and so N, is symmetric
    when upper == lower and skew-symmetric otherwise, so the product forms
    only N's upper triangle (`mat_mul` with that sign); a caller reducing
    N / L can pass the same sign to `divide`."""
    n = len(num)
    pairs = [dens[t] * dens[t + 1] for t in range(0, n, 2)]
    lcm = reduce(_lcm, pairs)
    # num K with column pair t times L / (dens[t] dens[t + 1]), so that
    # N = scaled num^t
    weights = [(lower * f, upper * f) for f in (_divexact(lcm, d) for d in pairs)]
    scaled = [[v for t, (a, b) in zip(range(0, n, 2), weights)
               for v in (a * row[t + 1], b * row[t])] for row in num]
    sign = 1 if upper == lower else -1
    return mat_mul(scaled, transpose(num), type(lcm)(), sign), lcm
