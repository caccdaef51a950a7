"""Exact dense matrix kernel shared by every module that does matrix work.

Matrices are lists of row lists.  Entries are Fraction, RationalFunction,
ZPolynomial (generic and symbolic entries) or QuatElem; the functions need
only + - * and test zero by truth value, which all four support.
Functions that create entries take the ring's zero (and one) from the
caller.
"""


def mat_mul(x, y, zero):
    """x * y, skipping zero factors."""
    rows, inner, cols = len(x), len(y), len(y[0])
    out = [[zero for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for t in range(inner):
            a = x[i][t]
            if not a:
                continue
            for j in range(cols):
                b = y[t][j]
                if b:
                    out[i][j] = out[i][j] + a * b
    return out


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


class Congruence:
    """A square matrix M carried through congruences M -> E^t M E.

    Each operation acts on a column of M, then on the matching row, then on
    the same column of the transform T, so T^t M0 T = M holds throughout,
    with M0 the starting matrix and T starting at the identity.
    """

    def __init__(self, matrix, zero, one):
        self.m = [list(row) for row in matrix]
        self.t = identity(len(matrix), zero, one)

    def swap(self, a, b):
        m = self.m
        for row in m:
            row[a], row[b] = row[b], row[a]
        m[a], m[b] = m[b], m[a]
        for row in self.t:
            row[a], row[b] = row[b], row[a]

    def scale(self, i, c):
        m = self.m
        for row in m:
            row[i] = row[i] * c
        m[i] = [v * c for v in m[i]]
        for row in self.t:
            row[i] = row[i] * c

    def addmul(self, dst, src, c):
        """Column dst += c * column src, then the same for rows."""
        m = self.m
        for row in m:
            row[dst] = row[dst] + c * row[src]
        m[dst] = [v + c * w for v, w in zip(m[dst], m[src])]
        for row in self.t:
            row[dst] = row[dst] + c * row[src]
