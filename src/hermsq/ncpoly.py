"""Free *-algebra over Q and positivity of NC polynomials on matrices.

Words are tuples of nonzero integers: letter i > 0 is x<i>, letter -i is
x<i>*.  Evaluation sends x<i> to the i-th matrix of a tuple and x<i>* to
its transpose; on generic matrices the star is the transpose (orthogonal
type) or the standard symplectic involution (symplectic type).

Every evaluator runs Horner's rule over the trie of f's words.
`nc_eval`, `psd_falsify` and `generic_eval` share one walk, `_eval_words`,
over any ring of entries whose zero the caller passes: Fractions for
rational matrices, ints for the integer trials of `psd_falsify` (which
scales f to int coefficients first), `ZPolynomial`s for the matrices of a
`GenericMatrixContext` and their stars.  The decisions run their own walk
on packed entries.  On generic matrices every entry of Y_l and of its
star is plus or minus one variable z<i>_<j>_<l>, so the image lies in
M_n(Z[z]) once f is scaled by the lcm of its coefficient denominators,
and nothing is ever divided.  There the entries are dicts
{packed monomial: coefficient}, a packed monomial being
one int with a bit field per generic variable, so a monomial product is
one int addition.  Y_l and its star come from the involution applied to
the int matrix of the variables' slot numbers s + 1, which it only moves
and negates.  `is_identity_mod_a` and `is_central_nonvanishing` decide on
that packed form directly and build no `ZPolynomial`.  The packed walk
evaluates primitive suffix classes.  The suffix polynomial of a trie node u
(the sum of c_(u w) w over the words w) is scale[u] times a primitive C_u,
scale[u] the gcd of u's coefficient and its children's scales, so a child
u l enters C_u with the integer weight k_l = scale[u l] / scale[u], and the
value of u is C_u at the generic matrices.  Children with one C (x_i and
x_i* in a polynomial of x_i - x_i*, or of 2 x_i + 3 x_i*) form a class,
and each class is one step, (sum of k_l Y_l) times the value of one
member; the other members' subtries are never evaluated.  The root keeps
its scale, so its value is the image of f.  The classes come from one
bottom-up pass over the trie with int arithmetic only.  So s4 of x_i - x_i*
on M_3 evaluates 65 of its 633 trie nodes, in 4.1 ms, and s4 of
2 x_i + 3 x_i* as many, in 9.2 ms where evaluating the pair members one by
one took 21 ms; s6 of plain letters has no such siblings and takes about
0.19 s on M_3 (minima with the screen off, on a 2-vCPU VM, Python 3.11).

Before the expansion, the decisions try one integer point.  The same
bottom-up pass computes, for each new class C, the int vector C(M) v at
fixed int matrices M_l and a fixed int vector v, and so d*f(M) v.  The
point comes from the slot numbers: the variable of slot number s takes
2^s mod 101, less 50, so the entries of the star of M_l are the same
values moved and negated, and v_i takes the number -i.  A nonzero d*f(M) v
proves that f is not a *-identity, and one that is not a multiple of v
that f is not central: f(M) v is the value at an integer point of the
generic image applied to v, and a polynomial with a nonzero value is not
zero (the easy half of the Schwartz-Zippel lemma).  Then the decision
returns False, and the plan's top-down loop and the expansion are
skipped.  There is one point and one try, the same on every run.  A
miss, a vector of 0 or a multiple of v, proves nothing either way: the
expansion decides, as it would without the screen, so every True, and
every False the point misses, still comes from the expansion, and every
answer stays exact.  On the refutations of the benchmark the screen
answers alone, s4 on M_3 in 0.23 ms instead of 3.3 ms and s4 of
x_i + x_i* in 1.5 ms instead of 8.4 ms; an identity pays for one
matrix-vector product per child of each new class, which the cached int
matrices of the letters (`_letter_matrices`) and the kernel's cheaper
removal of cancelled monomials pay back (minima, one process, the two
versions alternating).  The expansion itself is capped, from the finished
plan, at MAX_KERNEL_WORK.
"""

import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import mul

from .certificates import _psd_integral, parse_selector
from .errors import HermsqError, ParseError, ResourceLimitError, ShapeError
from .linalg import add, identity, mat_mul, transpose
from .scalars import TermMap, _int_literal
from .involutions import AlgebraWithInvolution, InvolutionSpec
from .zpoly import ZPolynomial

DEFAULT_MAX_DEGREE = 6
DEFAULT_MAX_N = 3
# caps of psd_falsify, and MAX_FALSIFY_N and MAX_EVAL_WORK also of nc_eval,
# checked before the first product.  The work of an evaluation is trials x
# (sum of f's word lengths) x n^3, with trials = 1 for nc_eval, whose work
# is also scaled by 1 + (b/8)^2 for the largest bit length b of an entry's
# numerator or denominator: the user's entries are fractions whose
# denominators multiply along a word, so an 8 x 8 product on a word of six
# letters takes 2.2 ms at b = 2, 15 ms at b = 20 and 0.27 s at b = 100.
# psd_falsify draws ints up to MAX_FALSIFY_BOUND instead, which grow far
# more slowly.  Timed on a 2-vCPU VM (Python 3.11): before these caps,
# `nc falsify` on (x1* x1)^3 at n = 8 with 1000 trials (3.07M units) took
# 16 s, and 10 trials with entry bound 10^1000 took 84 s; `nc eval` of s6
# (720 words) on an 8 x 8 tuple (2.2M units) took 4.2 s, and of the 126
# words of degree 1 to 6 in x1, x1* on one 8 x 8 matrix of 100-bit
# fractions (328704 units unscaled) 8.3 s.  A unit of falsification cost
# 3.4 to 6 us over Fractions; the trials run on ints, so the largest
# accepted falsification, 113 trials of (x1* x1)^3 at n = 8 (347136
# units), takes 0.06 s at bound 5 and 0.09 s at bound 10^6 (0.82 and
# 0.87 s over Fractions, minima of 3 on one VM); a scaled unit of
# nc_eval costs 2.9 to 4.4 us at b = 2 to 400, so six letters on 8 x 8
# matrices of 85-bit fractions, the largest accepted, take 1.3 s, and the
# 126 words above at b = 2 take 0.25 s.  Matrices stay at most
# 8 x 8 in nc_eval too: the denominators of a product grow with n^2, so
# six letters on 16 x 16 fractions up to 10^6 (24576 units) take 1.7 s.
# The model holds for words within the degree cap, which is checked first:
# with it raised, one word of 1600 or 3200 letters x1 on a 2 x 2 matrix of
# 4-bit fractions (4.6% and 9.1% of the cap) took 0.62 s and 3.4 s.
MAX_FALSIFY_N = 8
MAX_FALSIFY_TRIALS = 1000
MAX_FALSIFY_BOUND = 10 ** 6
MAX_EVAL_WORK = 350_000
# the cap of positivstellensatz_conditions on the word products of its
# expansion of h* g h minus the weighted squares, checked before the first
# product.  Timed on a 2-vCPU VM (Python 3.11): with p the sum of the first
# k words of lengths 1 to 4 over x1, x1*, x2, x2*, x3, x3*, the certificate
# g = h = 1 with the one square p* p took 8.5 s and 255 MB at k = 800
# (640000 word products), all before the degree cap refused the result.  The
# largest accepted one, k = 387 (149771 word products), takes 0.82 s with
# unit coefficients, 0.92 s with 6-digit and 1.2 s with 30-digit fractions.
MAX_EXPANSION_WORK = 150_000
# the cap of is_identity_mod_a and is_central_nonvanishing on the work of
# the packed kernel, checked on the finished plan, after the screen and
# before the first product: the sum over the plan's steps of n^3 times the
# step's letters times a bound on the monomials in an entry of the value
# below it.  Timed on a 2-vCPU VM (Python 3.11) with the screen off, whose
# speed states differ by up to 1.6x: s6 on M_3 (2371680 units) takes 0.21
# to 0.36 s, and sums of k copies of s6 over different 6-subsets of
# x1..x7 take 0.43 to 0.69 s at k = 2 (4539240 units) and 0.94 to 1.08 s
# at k = 3 (7048944 units, refused); a unit costs 90 to 180 ns on inputs
# this large, the width of the packed ints (from 6 to 18 letters) included,
# so the largest accepted input takes about 1 s.  The bound counts a
# product's monomials as distinct, so it overcounts repeated letters: the
# 256 words of length 8 over x1, x1* on M_3 (6046650 units, under a raised
# degree cap) take 38 ms.
MAX_KERNEL_WORK = 6_000_000


def _check_degree(f):
    """f's degree, refused over the cap HERMSQ_MAX_DEGREE (if set) or
    DEFAULT_MAX_DEGREE, before any other cap and any product."""
    value = os.environ.get("HERMSQ_MAX_DEGREE")
    try:
        cap = int(value) if value else DEFAULT_MAX_DEGREE
    except ValueError:
        cap = -1   # refused below, with the negative values
    if cap < 0:
        # a long value is shown by its start and its length
        shown = repr(value) if len(value) <= 20 else f"{value[:20]!r}... ({len(value)} characters)"
        raise HermsqError(f"HERMSQ_MAX_DEGREE must be a nonnegative integer, got {shown}")
    degree = f.degree()
    if degree > cap:
        raise ResourceLimitError(
            f"degree {degree} exceeds the cap {cap} (set HERMSQ_MAX_DEGREE to raise it)")
    return degree


def _as_nc(x):
    """x as an NCPolynomial: a constant from anything Fraction accepts, and
    NotImplemented for anything else."""
    if isinstance(x, NCPolynomial):
        return x
    try:
        return NCPolynomial.const(x)
    except (TypeError, ValueError, ArithmeticError):
        return NotImplemented


class NCPolynomial(TermMap):
    """Element of the free *-algebra Q<x1, x1*, x2, x2*, ...>."""

    __slots__ = ()
    _coerce = staticmethod(_as_nc)

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

    def __mul__(self, other):
        other = _as_nc(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                prev = out.get(w)
                out[w] = c if prev is None else prev + c
        return NCPolynomial(out)

    def __rmul__(self, other):
        other = _as_nc(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise HermsqError("powers of a *-polynomial must be nonnegative integers")
        out = NCPolynomial.one()
        for _ in range(k):
            out = out * self
        return out

    def star(self):
        return NCPolynomial({tuple(-l for l in reversed(w)): c
                             for w, c in self.terms.items()})

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
    """Sums of terms; a term is an optional rational followed by letters.
    The terms are summed into one dict.  An integer literal over Python's
    int/str conversion limit is refused as in the scalar grammar."""
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
    terms = {}
    sign = 1
    coeff = None
    word = []
    pending = False

    def flush():
        nonlocal sign, coeff, word, pending
        if pending:
            c = Fraction(sign) * (coeff if coeff is not None else 1)
            w = tuple(word)
            terms[w] = terms.get(w, 0) + c
        sign, coeff, word, pending = 1, None, [], False

    for tok, at in tokens:
        if tok in "+-":
            if pending:
                flush()
            if tok == "-":
                sign = -sign
        elif tok[0] == "x":
            star = tok.endswith("*")
            idx = _int_literal(tok[1:-1] if star else tok[1:], at)
            if idx < 1:
                raise ParseError("variable index must be positive", at)
            word.append(-idx if star else idx)
            pending = True
        else:
            if coeff is not None or word:
                raise ParseError("coefficient must lead its term", at)
            num, _, den = tok.partition("/")
            den = _int_literal(den, at) if den else 1
            if not den:
                raise ParseError("zero denominator", at)
            coeff = Fraction(_int_literal(num, at), den)
            pending = True
    # every other token sets pending, so only a sign can end without a term
    if tokens and tokens[-1][0] in "+-":
        raise ParseError("dangling sign", len(text))
    flush()
    return NCPolynomial(terms)


def format_nc(f):
    return repr(f)


def nc_star(f):
    return f.star()


# -- evaluation -------------------------------------------------------------

def nc_eval(f, mats):
    """Evaluate on a tuple of rational matrices of size at most
    MAX_FALSIFY_N, star acting as transpose; f over the degree cap, or an
    evaluation over MAX_EVAL_WORK, its entries' size included, is refused
    before any product."""
    _check_degree(f)
    if not mats or not mats[0]:
        raise ShapeError("empty matrix tuple or empty matrix")
    n = len(mats[0])
    if n > MAX_FALSIFY_N:
        raise ResourceLimitError(f"matrix size {n} exceeds the cap {MAX_FALSIFY_N}")
    mats = [[[Fraction(v) for v in row] for row in m] for m in mats]
    for m in mats:
        if len(m) != n or any(len(row) != n for row in m):
            raise ShapeError("matrices must be square and of uniform size")
    needed = f.variables()
    if needed and needed[-1] > len(mats):
        raise ShapeError(f"variable x{needed[-1]} has no matrix in the tuple")
    used = [mats[i - 1] for i in needed]
    bits = max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for m in used for row in m for v in row), default=0)
    _check_work(f, n, 1, bits)
    return _eval_at(f, needed, used, n)


def _check_work(f, n, trials, bits=0):
    """Refuse an evaluation of f on n x n matrices, trials times, with
    entries of at most bits bits, whose work exceeds MAX_EVAL_WORK."""
    work = trials * sum(len(w) for w in f.terms) * n ** 3 * (64 + bits * bits) // 64
    if work > MAX_EVAL_WORK:
        raise ResourceLimitError(
            f"evaluation work {work} (trials x word letters x n^3 x "
            f"(1 + (entry bits/8)^2)) exceeds the cap {MAX_EVAL_WORK}")


def _eval_at(f, letters, mats, n):
    """f at the matrices mats of its letters, star as transpose, over the
    ring of their entries: Fractions, or ints for f with int coefficients
    (a Fraction matrix when there are no letters)."""
    images = {}
    for i, m in zip(letters, mats):
        images[i] = m
        images[-i] = transpose(m)
    zero = type(mats[0][0][0])() if mats else Fraction(0)
    return _eval_words(f, images, n, zero)


def _word_trie(f):
    """The trie of f's words as (coeffs, children): node 0 is the empty
    word, children[u][l] is the node of the word u l, and coeffs[u] is the
    coefficient of u in f, or None if u is not a term.  A child is created
    after its parent, so walking the nodes in reverse creation order
    finishes every child before its parent needs it."""
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
    return coeffs, children


def _eval_words(f, images, n, zero):
    """Image of f with each letter l sent to the matrix images[l] over the
    ring whose zero is `zero`, in Horner form over the trie of f's words.
    The node of a word u has the value V(u) = c_u*I + sum over letters l of
    images[l] * V(u l), with c_u the coefficient of u in f (0 if u is not a
    term), so V(empty word) is the image of f, and every prefix shared by
    several words costs one product."""
    coeffs, children = _word_trie(f)
    values = [None] * len(coeffs)
    for node in reversed(range(len(coeffs))):
        c = coeffs[node]
        # zero + c brings the coefficient c into the ring
        value = None if c is None else identity(n, zero, zero + c)
        for l, child in children[node].items():
            term = mat_mul(images[l], values[child], zero)
            values[child] = None
            value = term if value is None else add(value, term)
        values[node] = value
    return values[0] if values[0] is not None else identity(n, zero, zero)


class GenericMatrixContext:
    """Generic matrices Y_l = [z<i>_<j>_<l>] with the type-J involution.

    `variables` is a count c, for Y_1 .. Y_c, or the indices l to build Y_l
    for; the matrices are keyed by index.  Entries are `ZPolynomial`
    variables: the ring of generic matrices lies in M_n(Z[z])."""

    def __init__(self, n, variables, J="orthogonal"):
        if n < 1:
            raise ShapeError(f"matrix size must be positive, got {n}")
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
            l: [[ZPolynomial.variable(f"z{i}_{j}_{l}") for j in range(1, n + 1)]
                for i in range(1, n + 1)]
            for l in variables}

    def star(self, m):
        return self._alg.involution(m)


# -- generic matrices in packed form ------------------------------------------
#
# An entry of a generic-matrix image is a dict {packed monomial: coefficient}.
# The generic variables of f's letters take slots 0, 1, ... in the order
# (letter, row, column), and a packed monomial is the int whose
# bits [w*s, w*s + w) hold the exponent of slot s.  An image monomial has
# total degree at most deg f < 2^w, so no field carries into the next one
# and the product of monomials is the sum of their ints.

@lru_cache(maxsize=256)
def _letter_matrices(n, J, count):
    """The int matrices of the first `count` letters of a polynomial on
    n x n matrices of type J, and the screen's vector, as
    ([(Y, Y*, M, M*) for each letter], v).  Y is the matrix of the slot
    numbers s + 1 of the letter's variables and Y* the involution applied
    to it: an involution of either type only moves and negates entries, so
    the sign and the slot of each entry of the star come straight out of its
    int.  M and M* are Y and Y* with each slot number s replaced by
    _screen_value(s), its sign kept, so M* is the star of the screen's M;
    v_i is _screen_value(-i), numbers that no slot has.  Cached, as
    tuples."""
    star = GenericMatrixContext(n, (), J).star
    value = _screen_value
    span = range(n)

    def at_point(m):
        return tuple(tuple(value(s) if s > 0 else -value(-s) for s in row) for row in m)

    out = []
    for k in range(count):
        first = k * n * n + 1
        y = [[first + i * n + j for j in span] for i in span]
        y_star = star(y)
        out.append((tuple(map(tuple, y)), tuple(map(tuple, y_star)), at_point(y), at_point(y_star)))
    return tuple(out), tuple(value(-i) for i in span)


def _generic_letters(f, n, J):
    """(slots, point, v) for the letters l of f on n x n matrices of type J:
    slots[l] and slots[-l] are Y and Y* of `_letter_matrices`, point[l] and
    point[-l] the screen's M and M*, and v the screen's vector."""
    letters = f.variables()
    matrices, v = _letter_matrices(n, J, len(letters))
    slots, point = {}, {}
    for l, (y, y_star, m, m_star) in zip(letters, matrices):
        slots[l], slots[-l], point[l], point[-l] = y, y_star, m, m_star
    return slots, point, v


def _screen_value(number):
    """The screen's integer for a slot number: 2^number mod 101, less 50."""
    return pow(2, number, 101) - 50


def _not_parallel(u, v):
    """Whether the int vector u is not a multiple of v: some 2 x 2 minor of
    the columns u, v is nonzero."""
    return any(a * d != b * c for (a, c), (b, d) in combinations(zip(u, v), 2))


def _packed_plan(f, mats, v, refutes):
    """(coeffs, plan) for the trie of f, whose coefficients are integers,
    or None when refutes(u, v) for u = f(M) v, M_l = mats[l]: plan[u]
    lists the steps that give the value of the node u, or is None when no
    step needs it, and coeffs[u] is the int coefficient of that value.

    The suffix polynomial P_u (the sum of c_(u w) w over the words w) is
    scale[u] * C_u, with C_u primitive and positive at its first word: the
    empty word if u is a term, else the first word of C_(u l) after the
    least letter l of u's children.  So scale[u] is the gcd of u's
    coefficient c_u and its children's scales, and
    C_u = c_u / scale[u] + sum over u's children u l of k_l x_l C_(u l),
    with the integer weights k_l = scale[u l] / scale[u].  The class of u is
    its key (c_u / scale[u], ((l, k_l, class of u l) ...)), so proportional
    nodes, and only they, share a class, found bottom-up with ints alone.
    The same pass gives each new class C of a node u its vector
    C(M) v = (c_u / scale[u]) v + sum over u's children u l of k_l M_l C_(u l)(M) v,
    so f(M) v = scale[root] C_root(M) v costs one matrix-vector product per
    child of a class, and a bound on the monomials of an entry of C's
    image.  When refutes(u, v), nothing more is done.

    Otherwise the value of a planned node u is C_u(Y), and coeffs[u] is
    c_u / scale[u]; the root keeps its scale (it divides by 1), so its
    value is f's image.  Each class of u's children is one step
    (letters, child), letters the (l, k_l) pairs of its members and child
    any one of them: the step adds (sum of k_l Y_l) * C_child(Y), and the
    other members are never evaluated.  A plan whose work, n^3 times the
    letters of each step times the bound below it, exceeds MAX_KERNEL_WORK
    raises ResourceLimitError."""
    coeffs, children = _word_trie(f)
    coeffs = [0 if c is None else int(c) for c in coeffs]
    count = len(coeffs)
    n = len(v)
    scale = [0] * count
    # class 0 is that of the leaves, C = 1; a node with one child has a
    # flat key of its own shape, since it can be proportional only to
    # another node with one child
    cls = [0] * count
    classes = {}
    # vecs[k] is C(M) v and sizes[k] bounds the monomials in an entry of
    # the image of C, for the class k; a leaf child's C is 1, whose image
    # is the identity, so Y_l times it has one monomial per entry
    vecs = [v]
    sizes = [1]
    for node in reversed(range(count)):
        kids = children[node]
        c = coeffs[node]
        if not kids:
            scale[node] = c
            continue
        if len(kids) == 1:
            (l, child), = kids.items()
            s = scale[child]
            g = gcd(c, s)
            if (c or s) < 0:
                g = -g
            key = (c // g, l, s // g, cls[child])
        else:
            kids = sorted(kids.items())
            g = gcd(c, *[scale[child] for _, child in kids])
            if (c or scale[kids[0][1]]) < 0:
                g = -g
            key = (c // g, tuple([(l, scale[child] // g, cls[child]) for l, child in kids]))
        scale[node] = g
        k = classes.get(key)
        if k is None:
            k = classes[key] = len(vecs)
            a = key[0]
            vec = [a * x for x in v] if a else None
            size = 1 if a else 0
            for l, t, below in ((key[1:],) if len(key) == 4 else key[1]):
                w = vecs[below]
                term = [t * sum(map(mul, row, w)) for row in mats[l]]
                vec = term if vec is None else [x + y for x, y in zip(vec, term)]
                size += n * sizes[below] if below else 1
            vecs.append(vec)
            sizes.append(size)
        cls[node] = k
    if refutes([scale[0] * x for x in vecs[cls[0]]], v):
        return None
    plan = [None] * count
    plan[0] = []
    # the work of the kernel, in units of an entry's monomials moved by one
    # entry of an image
    work = 0
    # a child is created after its parent, so its plan is started first
    for node, steps in enumerate(plan):
        if steps is None:
            continue
        g = scale[node] if node else 1
        coeffs[node] //= g
        kids = children[node]
        if len(kids) == 1:
            (l, child), = kids.items()
            steps.append((((l, scale[child] // g),), child))
            plan[child] = []
            work += sizes[cls[child]]
            continue
        groups = {}
        for l, child in kids.items():
            groups.setdefault(cls[child], []).append((l, child))
        for k, members in groups.items():
            child = members[0][1]
            steps.append((tuple([(l, scale[u] // g) for l, u in members]), child))
            plan[child] = []
            work += len(members) * sizes[k]
    work *= n ** 3
    if work > MAX_KERNEL_WORK:
        raise ResourceLimitError(
            f"kernel work {work} (n^3 x the letters of each step of the plan x the "
            f"monomials of an entry below it) exceeds the cap {MAX_KERNEL_WORK}")
    return coeffs, plan


def _step_image(letters, slots, w):
    """The sum of k * Y_l over the (l, k) pairs of letters, Y_l the generic
    matrix of the slot numbers slots[l] packed in fields of w bits, as n
    rows, row i the list of its terms (coefficient, packed variable,
    column), without the variables whose coefficients cancel (the diagonal
    of Y - Y^t)."""
    if len(letters) == 1:
        # a lone letter's entries are one variable each, with nothing to sum
        (l, k), = letters
        return [[(k if s > 0 else -k, 1 << w * (abs(s) - 1), t)
                 for t, s in enumerate(row)] for row in slots[l]]
    out = []
    for row in zip(*[slots[l] for l, _ in letters]):
        terms = []
        for t, entry_slots in enumerate(zip(*row)):
            entry = {}
            for (_, k), s in zip(letters, entry_slots):
                var = 1 << w * (abs(s) - 1)
                entry[var] = entry.get(var, 0) + (k if s > 0 else -k)
            terms += [(k, var, t) for var, k in entry.items() if k]
        out.append(terms)
    return out


def _packed_eval(coeffs, plan, slots, w, n):
    """Value of the root of `_packed_plan`'s (coeffs, plan), the image of
    f, as an n x n array of {packed monomial: coefficient} dicts without
    zero coefficients, by the Horner recursion of `_eval_words` over the
    same trie, following the plan: a node's value is coeffs[u] * I plus,
    for each step (letters, child), the step's image (`_step_image`, over
    the slots and field width w) times the child's value.  Each term
    k * var of row i and column t of the image shifts each monomial of row
    t of the child's value into place by one int addition, multiplies it
    by k and accumulates it into row i in place.  Each value is freed when
    its parent has used it; the monomials that cancel are deleted from the
    entries where some did."""
    span = range(n)
    images = {}
    values = [None] * len(plan)
    for node in reversed(range(len(plan))):
        steps = plan[node]
        if steps is None:
            continue
        value = [[{} for _ in span] for _ in span]
        coeff = coeffs[node]
        if coeff:
            for i in span:
                value[i][i][0] = coeff
        for letters, child in steps:
            below = values[child]
            values[child] = None
            image = images.get(letters)
            if image is None:
                image = images[letters] = _step_image(letters, slots, w)
            for terms, out_row in zip(image, value):
                for k, var, t in terms:
                    for out, src in zip(out_row, below[t]):
                        get = out.get
                        if k == 1:
                            for m, c in src.items():
                                m += var
                                out[m] = get(m, 0) + c
                        elif k == -1:
                            for m, c in src.items():
                                m += var
                                out[m] = get(m, 0) - c
                        else:
                            for m, c in src.items():
                                m += var
                                out[m] = get(m, 0) + k * c
        if steps:
            for row in value:
                for out in row:
                    if 0 in out.values():
                        for m in [m for m, c in out.items() if not c]:
                            del out[m]
        values[node] = value
    return values[0]


def generic_eval(f, ctx):
    """Image of f in the generic matrix algebra of ctx, with `ZPolynomial`
    entries: over Z[z] when f's coefficients are integers, over Q[z]
    otherwise.  The matrices of ctx and their stars are used as they are;
    f over the degree cap is refused before any product."""
    _check_degree(f)
    images = {}
    for l in f.variables():
        if l not in ctx.matrices:
            raise ShapeError(f"context has no generic matrix for x{l}")
        images[l] = ctx.matrices[l]
        images[-l] = ctx.star(ctx.matrices[l])
    return _eval_words(f, images, ctx.n, ZPolynomial())


def _integral(f):
    """d*f with int coefficients, d > 0 the lcm of f's coefficient
    denominators."""
    d = lcm(*(c.denominator for c in f.terms.values()))
    return NCPolynomial({w: c.numerator * (d // c.denominator) for w, c in f.terms.items()})


def _integral_image(f, n, J, refutes):
    """The packed generic-matrix image of d*f, d the lcm of f's coefficient
    denominators, or None when the screen refutes it: refutes(u, v) for
    u = d*f(M) v at the screen's point (`_letter_matrices`).  d*f vanishes (or
    is a nonzero scalar) exactly when f does, and its image has int
    coefficients.  The kernel's work is checked against its cap only when
    the screen does not refute."""
    degree = _check_degree(f)
    if n > DEFAULT_MAX_N:
        raise ResourceLimitError(f"matrix size {n} exceeds the cap {DEFAULT_MAX_N}")
    f = _integral(f)
    slots, point, v = _generic_letters(f, n, J)
    planned = _packed_plan(f, point, v, refutes)
    if planned is None:
        return None
    return _packed_eval(*planned, slots, max(degree.bit_length(), 1), n)


def is_identity_mod_a(f, n, J="orthogonal"):
    """Exact membership of f in the *-identity ideal for degree-n algebras:
    False as soon as f(M) v is nonzero at the screen's point."""
    value = _integral_image(f, n, J, lambda u, v: any(u))
    return value is not None and not any(entry for row in value for entry in row)


def is_central_nonvanishing(h, n, J="orthogonal"):
    """True iff the generic-matrix image of h is a nonzero scalar matrix:
    False as soon as h(M) v is not a multiple of v at the screen's point."""
    value = _integral_image(h, n, J, _not_parallel)
    if value is None:
        return False
    c = value[0][0]
    return bool(c) and all(entry == (c if i == j else {})
                           for i, row in enumerate(value) for j, entry in enumerate(row))


def psd_falsify(g, n, trials, seed, bound=5):
    """Search random integer tuples for a non-PSD value of g.

    Entries are integers uniform in [-bound, bound]; trial t uses its own
    generator random.Random(seed * 1_000_003 + t) and draws one matrix per
    letter of g, in increasing index order, so results depend neither on
    evaluation order nor on the indices of the letters.  Returns the first
    counterexample, the int matrices of g's letters in increasing index
    order, or None.

    Each trial runs on ints: the value V of d*g, d > 0 the lcm of g's
    coefficient denominators, is symmetric because g = g*, and PSD exactly
    when g's value is.
    """
    _check_degree(g)
    if not g.is_symmetric():
        raise ShapeError("falsification target must be symmetric (g = g*)")
    if n < 1 or trials < 0 or bound < 0:
        raise ShapeError("matrix size must be positive, trial count and entry "
                         f"bound nonnegative; got {n}, {trials}, {bound}")
    if n > MAX_FALSIFY_N or trials > MAX_FALSIFY_TRIALS:
        raise ResourceLimitError(
            f"falsification at matrix size {n} with {trials} trials exceeds the caps "
            f"{MAX_FALSIFY_N} and {MAX_FALSIFY_TRIALS}")
    if bound > MAX_FALSIFY_BOUND:
        raise ResourceLimitError(
            f"entry bound {bound} exceeds the cap {MAX_FALSIFY_BOUND}")
    _check_work(g, n, trials)
    # a constant g still gets one matrix, so the counterexample fixes n
    letters = g.variables() or [1]
    scaled = _integral(g)
    for t in range(trials):
        rng = random.Random(seed * 1_000_003 + t)
        mats = [[[rng.randint(-bound, bound) for _ in range(n)]
                 for _ in range(n)] for _ in letters]
        if not _psd_integral(_eval_at(scaled, letters, mats, n)):
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


def _check_expansion(cert, terms):
    """Refuse a certificate whose expansion of h* g h and of the weighted
    sums of squares, terms as (selector bits, squares) pairs, would take
    more than MAX_EXPANSION_WORK word products.  The bound counts
    |u| |v| for each product u v the expansion forms, each size bounded by
    the products of the sizes it comes from."""
    h, g = len(cert.h.terms), len(cert.g.terms)
    work = h * g * (1 + h)
    sizes = [len(a.terms) for a in cert.weights]
    for bits, ps in terms:
        # the bound on the size of the product of the chosen weights, 0
        # while none is chosen
        coeff = 0
        for bit, size in zip(bits, sizes):
            if bit:
                work += coeff * size
                coeff = coeff * size if coeff else size
        work += sum(len(p.terms) ** 2 for p in ps) * (1 + coeff)
    if work > MAX_EXPANSION_WORK:
        raise ResourceLimitError(
            f"expansion work {work} (word products) exceeds the cap {MAX_EXPANSION_WORK}")


def positivstellensatz_conditions(cert):
    """Per-condition report; keys are condition names, values booleans.
    The degrees of h and the weights, then the expansion's bound on word
    products (`_check_expansion`), are checked before any product."""
    for a in (cert.h, *cert.weights):
        _check_degree(a)
    m = len(cert.weights)
    terms = [(parse_selector(eps, m), ps) for eps, ps in cert.terms.items()]
    _check_expansion(cert, terms)
    report = {}
    report["h_central_nonvanishing"] = is_central_nonvanishing(cert.h, cert.n, cert.J)
    report["weights_symmetric"] = all(a.is_symmetric() for a in cert.weights)
    report["weights_central_nonvanishing"] = all(
        is_central_nonvanishing(a, cert.n, cert.J) for a in cert.weights)
    rhs = NCPolynomial.zero()
    for bits, ps in terms:
        coeff = None
        for bit, a in zip(bits, cert.weights):
            if bit:
                coeff = a if coeff is None else coeff * a
        part = NCPolynomial.zero()
        for p in ps:
            part = part + p.star() * p
        rhs = rhs + (part if coeff is None else coeff * part)
    delta = cert.h.star() * cert.g * cert.h - rhs
    report["congruence"] = is_identity_mod_a(delta, cert.n, cert.J)
    return report


def verify_positivstellensatz(cert):
    return all(positivstellensatz_conditions(cert).values())
