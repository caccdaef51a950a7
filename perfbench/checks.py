"""Correctness checkers built on the standard library alone.

Nothing here imports hermsq.  Each check re-derives what a correct answer
must satisfy with Fraction arithmetic (evaluation at rational points,
Legendre's criterion, Springer's theorem, integer matrix witnesses) or takes
it from a theorem, so a fault in the program cannot also corrupt its check.
"""

import re
from fractions import Fraction
from itertools import permutations


# -- the scalar grammar, evaluated at a rational point ----------------------

_TOKEN = re.compile(r"\s*(\d+|z\d+_\d+_\d+|X|Y|\*\*|[-+*/^()])")


def _tokens(text):
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"cannot read {text!r} at {pos}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Evaluator:
    """Recursive descent over the scalar grammar; values are Fractions."""

    def __init__(self, text, point):
        self.toks = _tokens(text)
        self.pos = 0
        self.point = point

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            value = value + self.term() if self.take() == "+" else value - self.term()
        return value

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                value = value * self.unary()
            else:
                value = value / self.unary()  # ZeroDivisionError at a pole
        return value

    def unary(self):
        if self.peek() == "-":
            self.take()
            return -self.unary()
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.primary()
        if self.peek() in ("^", "**"):
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            return base ** (sign * int(self.take()))
        return base

    def primary(self):
        tok = self.take()
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parentheses")
            return value
        if tok is None:
            raise ValueError("unexpected end of scalar text")
        if tok[0].isdigit():
            return Fraction(int(tok))
        return self.point[tok]


def evaluate(text, point):
    """Value of a scalar-grammar string at point, a dict such as {"X": x, "Y": y}."""
    ev = _Evaluator(text, point)
    value = ev.expr()
    if ev.pos != len(ev.toks):
        raise ValueError(f"trailing input in {text!r}")
    return value


def rational_points(rng, count):
    """count points (X, Y) with small nonzero rational coordinates."""
    def coord():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 13))
    return [{"X": coord(), "Y": coord()} for _ in range(count)]


def holds_at_points(predicate, rng, wanted=3, tries=24):
    """predicate(point) must hold at `wanted` points where it is defined;
    points that hit a pole (ZeroDivisionError) are skipped."""
    good = 0
    for point in rational_points(rng, tries):
        try:
            if not predicate(point):
                return False
        except ZeroDivisionError:
            continue
        good += 1
        if good == wanted:
            return True
    return False


# -- dense matrices over Q ---------------------------------------------------

def eval_matrix(rows, point):
    return [[evaluate(v, point) for v in row] for row in rows]


def mat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def transpose(a):
    return [list(r) for r in zip(*a)]


def identity(n, scale=1):
    return [[Fraction(scale if i == j else 0) for j in range(n)] for i in range(n)]


def inverse(m):
    """Gauss-Jordan inverse; ZeroDivisionError when m is singular."""
    n = len(m)
    a = [[Fraction(v) for v in row] + identity(n)[i] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def is_singular(m):
    try:
        inverse(m)
    except ZeroDivisionError:
        return True
    return False


def congruence_holds(gram, transform, diagonal, point):
    """T^t G T = diag(D) at one rational point."""
    g = eval_matrix(gram, point)
    t = eval_matrix(transform, point)
    d = [evaluate(e, point) for e in diagonal]
    n = len(d)
    return mat_mul(transpose(t), mat_mul(g, t)) == [
        [d[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def minus_one_witness_holds(skew, witness, point=None):
    """sigma(W) W = -I for sigma = Int(S) o transpose, i.e. S W^t S^-1 W = -I."""
    s = eval_matrix(skew, point) if point is not None else skew
    w = eval_matrix(witness, point) if point is not None else witness
    sigma_w = mat_mul(mat_mul(s, transpose(w)), inverse(s))
    return mat_mul(sigma_w, w) == identity(len(s), -1)


# -- quadratic forms over Q and over Q((X))((Y)) -----------------------------

def prime_factors(n):
    n, out, d = abs(n), set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def squarefree(n):
    sign, n, out, d = (-1 if n < 0 else 1), abs(n), 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        if n % d == 0:
            out *= d
            n //= d
        d += 1
    return sign * out * n


def legendre_isotropic(coeffs):
    """Legendre's criterion for a x^2 + b y^2 + c z^2 over Q.

    The form is first brought to squarefree, pairwise coprime integer
    coefficients; it is isotropic iff they are not all of one sign and
    -bc, -ca, -ab are squares modulo |a|, |b|, |c|.
    """
    a, b, c = (squarefree(Fraction(x).numerator * Fraction(x).denominator)
               for x in coeffs)
    while True:
        shared = next(((p, i, j) for i, j in ((0, 1), (1, 2), (0, 2))
                       for p in prime_factors((a, b, c)[i])
                       if (a, b, c)[j] % p == 0), None)
        if shared is None:
            break
        p, i, j = shared
        v = [a, b, c]
        k = 3 - i - j
        if v[k] % p == 0:
            v = [x // p for x in v]
        else:
            v[i] //= p
            v[j] //= p
            v[k] = squarefree(v[k] * p)
        a, b, c = v
    if (a > 0) == (b > 0) == (c > 0):
        return False

    def square_mod(x, m):
        return all(p == 2 or pow(x % p, (p - 1) // 2, p) == 1
                   for p in prime_factors(m))

    return square_mod(-b * c, a) and square_mod(-c * a, b) and square_mod(-a * b, c)


def ordering_sign(coeff, i, j, sx, sy):
    s = 1 if coeff > 0 else -1
    return s * (sx if i % 2 else 1) * (sy if j % 2 else 1)


def monomial_signature(entries, sx, sy):
    """Signature of <c X^i Y^j, ...> at the ordering with sign(X)=sx, sign(Y)=sy."""
    return sum(ordering_sign(c, i, j, sx, sy) for c, i, j in entries)


def weakly_represents_one(entries):
    """Whether some m x q represents 1 over Q((X))((Y)), for monomial q.

    That holds iff q perp <-1> is weakly isotropic.  By Springer's theorem,
    applied for Y and then for X, a monomial form is weakly isotropic iff
    one of its four residue forms (entries grouped by the parities of the
    exponents) is weakly isotropic over Q, i.e. indefinite.
    """
    classes = {}
    for c, i, j in list(entries) + [(Fraction(-1), 0, 0)]:
        classes.setdefault((i % 2, j % 2), set()).add(c > 0)
    return any(len(signs) == 2 for signs in classes.values())


def negative_definite_somewhere(entries):
    """Some ordering makes every entry negative; then no m x q represents 1."""
    return any(all(ordering_sign(c, i, j, sx, sy) < 0 for c, i, j in entries)
               for sx in (1, -1) for sy in (1, -1))


# -- the free *-algebra and integer matrix witnesses -------------------------
#
# A polynomial is a dict word -> Fraction; letter i > 0 is x_i, -i is x_i*.

def nc_var(i, star=False):
    return {(-i if star else i,): Fraction(1)}


def nc_add(*polys):
    out = {}
    for p in polys:
        for w, c in p.items():
            out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def nc_scale(p, c):
    return {w: v * c for w, v in p.items()} if c else {}


def nc_mul(p, q):
    out = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


def nc_star(p):
    return {tuple(-l for l in reversed(w)): c for w, c in p.items()}


def commutator(p, q):
    return nc_add(nc_mul(p, q), nc_scale(nc_mul(q, p), -1))


def _perm_sign(perm):
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def standard_poly(args):
    """s_k(a_1, ..., a_k) = sum over permutations of sign * a_p1 ... a_pk."""
    total = {}
    for perm in permutations(range(len(args))):
        prod = {(): Fraction(1)}
        for i in perm:
            prod = nc_mul(prod, args[i])
        total = nc_add(total, nc_scale(prod, _perm_sign(perm)))
    return total


def format_nc(p):
    """Text in the NC grammar: terms 'c x1 x2*' joined by + and -."""
    if not p:
        return "0"
    out = []
    for w in sorted(p, key=lambda w: (len(w), [abs(l) * 2 + (l < 0) for l in w])):
        c = p[w]
        letters = " ".join(f"x{l}" if l > 0 else f"x{-l}*" for l in w)
        mag = abs(c)
        body = letters if (mag == 1 and letters) else f"{mag} {letters}".strip()
        if not out:
            out.append(f"- {body}" if c < 0 else body)
        else:
            out.append(f"{'-' if c < 0 else '+'} {body}")
    return " ".join(out)


def star_matrix(m, kind):
    """Transpose (orthogonal type) or J m^t J^-1 (standard symplectic type)."""
    t = transpose(m)
    if kind == "orthogonal":
        return t
    h = len(m) // 2
    j = [[Fraction((1 if c == r + h else 0) - (1 if r == c + h else 0))
          for c in range(len(m))] for r in range(len(m))]
    return mat_mul(mat_mul(j, t), inverse(j))


def nc_value(p, mats, kind):
    """p evaluated on the matrix tuple mats (x_i -> mats[i-1])."""
    n = len(mats[0])
    images = {}
    for i, m in enumerate(mats, 1):
        images[i] = m
        images[-i] = star_matrix(m, kind)
    out = [[Fraction(0)] * n for _ in range(n)]
    for w, c in p.items():
        value = identity(n)
        for l in w:
            value = mat_mul(value, images[l])
        out = [[o + c * v for o, v in zip(ro, rv)] for ro, rv in zip(out, value)]
    return out


def _integer_tuple(rng, count, n):
    return [[[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            for _ in range(count)]


def _variable_count(p):
    return max((abs(l) for w in p for l in w), default=1)


def find_nonzero_value(p, n, kind, rng, tries=40):
    """A small-integer tuple on which p is nonzero, or None."""
    for _ in range(tries):
        mats = _integer_tuple(rng, _variable_count(p), n)
        if any(v != 0 for row in nc_value(p, mats, kind) for v in row):
            return mats
    return None


def vanishes_on_samples(p, n, kind, rng, tries=3):
    """p is zero on a few random small-integer tuples (a necessary condition
    for a *-identity, used to confirm the theorem each identity rests on)."""
    return all(all(v == 0 for row in nc_value(p, _integer_tuple(rng, _variable_count(p), n), kind)
                   for v in row)
               for _ in range(tries))


def is_nonzero_scalar(m):
    c = m[0][0]
    return c != 0 and m == identity(len(m), c)
