"""Free *-algebra over Q and positivity of NC polynomials on matrices.

Words are tuples of nonzero integers: letter i > 0 is x<i>, letter -i is
x<i>*.  Evaluation sends x<i> to the i-th matrix of a tuple and x<i>* to
its transpose; on generic matrices the star is the transpose (orthogonal
type) or the standard symplectic involution (symplectic type).
"""

import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from .certificates import parse_selector, psd_symmetric_rational
from .errors import ParseError, ResourceLimitError, ShapeError
from .linalg import add, equal, identity, mat_mul, transpose
from .scalars import RationalFunction, as_scalar
from .involutions import AlgebraWithInvolution, InvolutionSpec

DEFAULT_MAX_DEGREE = 6
DEFAULT_MAX_N = 3


def _max_degree():
    value = os.environ.get("HERMSQ_MAX_DEGREE")
    return int(value) if value else DEFAULT_MAX_DEGREE


def _check_limits(degree, n, max_degree=None):
    overridden = max_degree is not None or bool(os.environ.get("HERMSQ_MAX_DEGREE"))
    cap = max_degree if max_degree is not None else _max_degree()
    if degree > cap:
        raise ResourceLimitError(
            f"degree {degree} exceeds the cap {cap} (set HERMSQ_MAX_DEGREE to raise it)")
    if n > DEFAULT_MAX_N and not overridden:
        raise ResourceLimitError(f"matrix size {n} exceeds the cap {DEFAULT_MAX_N}")


class NCPolynomial:
    """Element of the free *-algebra Q<x1, x1*, x2, x2*, ...>."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {w: c for w, c in terms.items() if c != 0}

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def const(cls, c):
        return cls({(): Fraction(c)})

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def variable(cls, i, star=False):
        if i < 1:
            raise ShapeError("variable index must be positive")
        return cls({(-i if star else i,): Fraction(1)})

    def _coerce(self, other):
        if isinstance(other, NCPolynomial):
            return other
        return NCPolynomial.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + c
        return NCPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return NCPolynomial({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, Fraction(0)) + c1 * c2
        return NCPolynomial(out)

    def __rmul__(self, other):
        return self._coerce(other) * self

    def __pow__(self, k):
        out = NCPolynomial.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, NCPolynomial):
            other = self._coerce(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def star(self):
        return NCPolynomial({tuple(-l for l in reversed(w)): c
                             for w, c in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def is_symmetric(self):
        return self == self.star()

    def degree(self):
        return max((len(w) for w in self.terms), default=0)

    def variables(self):
        return sorted({abs(l) for w in self.terms for l in w})

    def __repr__(self):
        if not self.terms:
            return "0"
        def letter(l):
            return f"x{l}" if l > 0 else f"x{-l}*"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[w]
            word = " ".join(letter(l) for l in w)
            if not word:
                parts.append(str(c))
            elif c == 1:
                parts.append(word)
            elif c == -1:
                parts.append(f"-{word}")
            else:
                parts.append(f"{c} {word}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


def commutator(f, g):
    return f * g - g * f


_NC_TOKEN = re.compile(r"\s*(x\d+\*?|\d+/\d+|\d+|[-+])")


def parse_nc(text):
    """Sums of terms; a term is an optional rational followed by letters."""
    pos = 0
    tokens = []
    while pos < len(text):
        m = _NC_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError("unexpected character", pos)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    result = NCPolynomial.zero()
    sign = 1
    coeff = None
    word = []
    pending = False

    def flush():
        nonlocal result, sign, coeff, word, pending
        if pending:
            c = Fraction(sign) * (coeff if coeff is not None else 1)
            result = result + NCPolynomial({tuple(word): c})
        sign, coeff, word, pending = 1, None, [], False

    for tok, at in tokens:
        if tok in "+-":
            if pending:
                flush()
            elif coeff is not None or word:
                raise ParseError("misplaced sign", at)
            if tok == "-":
                sign = -sign
        elif tok[0] == "x":
            star = tok.endswith("*")
            idx = int(tok[1:-1] if star else tok[1:])
            if idx < 1:
                raise ParseError("variable index must be positive", at)
            word.append(-idx if star else idx)
            pending = True
        else:
            if coeff is not None or word:
                raise ParseError("coefficient must lead its term", at)
            coeff = Fraction(tok)
            pending = True
    if coeff is None and not pending and (sign != 1 or word):
        raise ParseError("dangling sign", len(text))
    flush()
    return result


def format_nc(f):
    return repr(f)


def nc_star(f):
    return f.star()


# -- evaluation -------------------------------------------------------------

def nc_eval(f, mats):
    """Evaluate on a tuple of rational matrices, star acting as transpose."""
    if not mats or not mats[0]:
        raise ShapeError("empty matrix tuple or empty matrix")
    n = len(mats[0])
    mats = [[[Fraction(v) for v in row] for row in m] for m in mats]
    for m in mats:
        if len(m) != n or any(len(row) != n for row in m):
            raise ShapeError("matrices must be square and of uniform size")
    needed = f.variables()
    if needed and needed[-1] > len(mats):
        raise ShapeError(f"variable x{needed[-1]} has no matrix in the tuple")
    images = {}
    for i in needed:
        images[i] = mats[i - 1]
        images[-i] = transpose(mats[i - 1])
    return _eval_words(f, images, n, Fraction(0), Fraction)


def _eval_words(f, images, n, zero, coerce):
    """Image of f with each letter l sent to images[l], in Horner form over
    the trie of f's words.  The node of a word u has the value
    V(u) = c_u*I + sum over letters l of images[l] * V(u l), with c_u the
    coefficient of u in f (0 if u is not a term), so V(empty word) is the
    image of f, and every prefix shared by several words costs one product."""
    coeffs = [None]
    children = [{}]
    for w, c in f.terms.items():
        node = 0
        for l in w:
            child = children[node].get(l)
            if child is None:
                child = len(coeffs)
                children[node][l] = child
                coeffs.append(None)
                children.append({})
            node = child
        coeffs[node] = c
    # a child is created after its parent, so the reverse creation order
    # finishes every child before its parent needs it
    values = [None] * len(coeffs)
    for node in reversed(range(len(coeffs))):
        c = coeffs[node]
        value = None if c is None else identity(n, zero, coerce(c))
        for l, child in children[node].items():
            term = mat_mul(images[l], values[child], zero)
            values[child] = None
            value = term if value is None else add(value, term)
        values[node] = value
    return values[0] if values[0] is not None else identity(n, zero, zero)


class GenericMatrixContext:
    """Generic matrices Y_l = [z<i>_<j>_<l>] with the type-J involution.

    `variables` is a count c, for Y_1 .. Y_c, or the indices l to build Y_l
    for; the matrices are keyed by index."""

    def __init__(self, n, variables, J="orthogonal"):
        if J not in ("orthogonal", "symplectic"):
            raise ShapeError("involution type must be orthogonal or symplectic")
        if J == "symplectic" and n % 2 != 0:
            raise ShapeError("symplectic type needs even matrix size")
        if isinstance(variables, int):
            variables = range(1, variables + 1)
        self.n = n
        self.J = J
        spec = (InvolutionSpec.transpose() if J == "orthogonal"
                else InvolutionSpec.symplectic_standard())
        self._alg = AlgebraWithInvolution("F", n, spec)
        self.matrices = {
            l: [[RationalFunction.variable(f"z{i}_{j}_{l}") for j in range(1, n + 1)]
                for i in range(1, n + 1)]
            for l in variables}

    def star(self, m):
        return self._alg.involution(m)


def generic_eval(f, ctx):
    """Image of f in the generic matrix algebra of ctx."""
    images = {}
    for i in f.variables():
        if i not in ctx.matrices:
            raise ShapeError(f"context has no generic matrix for x{i}")
        images[i] = ctx.matrices[i]
        images[-i] = ctx.star(ctx.matrices[i])
    return _eval_words(f, images, ctx.n, as_scalar(0), as_scalar)


def is_identity_mod_a(f, n, J="orthogonal", max_degree=None):
    """Exact membership of f in the *-identity ideal for degree-n algebras."""
    _check_limits(f.degree(), n, max_degree)
    value = generic_eval(f, GenericMatrixContext(n, f.variables(), J))
    return all(v.is_zero() for row in value for v in row)


def is_central_nonvanishing(h, n, J="orthogonal", max_degree=None):
    """True iff the generic-matrix image of h is a nonzero scalar matrix."""
    _check_limits(h.degree(), n, max_degree)
    value = generic_eval(h, GenericMatrixContext(n, h.variables(), J))
    c = value[0][0]
    return bool(c) and equal(value, identity(n, as_scalar(0), c))


def psd_falsify(g, n, trials, seed, bound=5):
    """Search random rational tuples for a non-PSD value of g.

    Entries are integers uniform in [-bound, bound]; trial t uses its own
    generator random.Random(seed * 1_000_003 + t), so results do not depend
    on evaluation order.  Returns the first counterexample tuple or None.
    """
    if not g.is_symmetric():
        raise ShapeError("falsification target must be symmetric (g = g*)")
    count = max(g.variables(), default=1)
    for t in range(trials):
        rng = random.Random(seed * 1_000_003 + t)
        mats = [[[Fraction(rng.randint(-bound, bound)) for _ in range(n)]
                 for _ in range(n)] for _ in range(count)]
        value = nc_eval(g, mats)
        sym = [[(value[i][j] + value[j][i]) / 2 for j in range(n)] for i in range(n)]
        if not psd_symmetric_rational(sym):
            return mats
    return None


@dataclass
class PositivstellensatzCertificate:
    """Congruence data for h* g h = weighted sums of p*p modulo identities."""
    g: NCPolynomial
    h: NCPolynomial
    n: int
    J: str
    weights: list
    terms: dict


def positivstellensatz_conditions(cert, max_degree=None):
    """Per-condition report; keys are condition names, values booleans."""
    report = {}
    report["h_central_nonvanishing"] = is_central_nonvanishing(
        cert.h, cert.n, cert.J, max_degree)
    report["weights_symmetric"] = all(a.is_symmetric() for a in cert.weights)
    report["weights_central_nonvanishing"] = all(
        is_central_nonvanishing(a, cert.n, cert.J, max_degree)
        for a in cert.weights)
    m = len(cert.weights)
    rhs = NCPolynomial.zero()
    for eps, ps in cert.terms.items():
        eps = parse_selector(eps, m)
        coeff = NCPolynomial.one()
        for bit, a in zip(eps, cert.weights):
            if bit:
                coeff = coeff * a
        part = NCPolynomial.zero()
        for p in ps:
            part = part + p.star() * p
        rhs = rhs + coeff * part
    delta = cert.h.star() * cert.g * cert.h - rhs
    report["congruence"] = is_identity_mod_a(delta, cert.n, cert.J, max_degree)
    return report


def verify_positivstellensatz(cert, max_degree=None):
    return all(positivstellensatz_conditions(cert, max_degree).values())
