"""Matrix algebras over Q(X,Y) and over quaternion algebras, with involutions.

Supported involutions: transpose, adjoint of a diagonal quadratic form
(sigma(x) = D x^t D^-1), quaternion conjugation, Int(u) composed with
conjugation, adjoint of a diagonal hermitian form over a quaternion algebra,
the standard symplectic involution, and Int(S) composed with transpose for a
nonsingular skew-symmetric S.

This module alone knows the basis layout of an algebra with involution:
`coordinates` lists an element in the basis order, and the involution and
the products of basis elements are given on those coordinates, sparsely.
The involution trace form and `fdalgebra.structure_algebra` both read them.
"""

from functools import cached_property

from . import linalg
from .errors import DivisionByZeroError, HermsqError, ShapeError, SingularMatrixError
# perfbench/tracing.py wraps the product under this name
from .linalg import mat_mul as _mat_mul
from .scalars import ORDERINGS, as_scalar
from .qforms import GramForm, diagonalize
from .zpoly import ZPolynomial


class QuaternionAlgebra:
    """(a, b)_F with basis 1, i, j, k; i^2 = a, j^2 = b, ij = k = -ji."""

    def __init__(self, a, b):
        self.a = as_scalar(a)
        self.b = as_scalar(b)
        if self.a.is_zero() or self.b.is_zero():
            raise ShapeError("quaternion structure constants must be nonzero")

    def __eq__(self, other):
        return (isinstance(other, QuaternionAlgebra)
                and self.a == other.a and self.b == other.b)

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"QuaternionAlgebra({self.a}, {self.b})"

    def elem(self, x0, x1=0, x2=0, x3=0):
        return QuatElem(self, (as_scalar(x0), as_scalar(x1),
                               as_scalar(x2), as_scalar(x3)))

    def zero(self):
        return self.elem(0)

    def one(self):
        return self.elem(1)

    def i(self):
        return self.elem(0, 1)

    def j(self):
        return self.elem(0, 0, 1)

    def k(self):
        return self.elem(0, 0, 0, 1)

    def basis(self):
        return [self.one(), self.i(), self.j(), self.k()]


class QuatElem:
    """Element x0 + x1 i + x2 j + x3 k of a quaternion algebra."""

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = tuple(coords)

    def _coerce(self, other):
        if isinstance(other, QuatElem):
            if other.algebra != self.algebra:
                raise ShapeError("mixing elements of different quaternion algebras")
            return other
        return self.algebra.elem(as_scalar(other))

    def __add__(self, other):
        other = self._coerce(other)
        return QuatElem(self.algebra,
                        tuple(p + q for p, q in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return QuatElem(self.algebra, tuple(-p for p in self.coords))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, QuatElem):
            # scalars are central: c q = q c scales the four coordinates
            c = as_scalar(other)
            return QuatElem(self.algebra, tuple(x * c for x in self.coords))
        other = self._coerce(other)
        a, b = self.algebra.a, self.algebra.b
        x0, x1, x2, x3 = self.coords
        y0, y1, y2, y3 = other.coords
        return QuatElem(self.algebra, (
            x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        ))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, QuatElem):
            try:
                other = self._coerce(other)
            except HermsqError:
                return NotImplemented
        return self.algebra == other.algebra and self.coords == other.coords

    def __hash__(self):
        # a scalar equals its scalar part, so it hashes as that
        if self.is_scalar():
            return hash(self.coords[0])
        return hash((self.algebra, self.coords))

    def __repr__(self):
        names = ("", "i", "j", "k")
        parts = [f"({c}){n}" if n else f"({c})"
                 for c, n in zip(self.coords, names) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def __bool__(self):
        return not self.is_zero()

    def is_scalar(self):
        return all(c.is_zero() for c in self.coords[1:])

    def is_pure(self):
        return self.coords[0].is_zero()

    def conj(self):
        x0, x1, x2, x3 = self.coords
        return QuatElem(self.algebra, (x0, -x1, -x2, -x3))

    def trd(self):
        return as_scalar(2) * self.coords[0]

    def nrd(self):
        a, b = self.algebra.a, self.algebra.b
        x0, x1, x2, x3 = self.coords
        return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3

    def inverse(self):
        n = self.nrd()
        if n.is_zero():
            raise DivisionByZeroError("quaternion with zero reduced norm")
        ninv = n.inverse()
        return QuatElem(self.algebra, tuple(c * ninv for c in self.conj().coords))


def reduced_norm_quat(x, algebra=None):
    """Nrd(x) = x * conj(x) as a scalar."""
    if algebra is not None and x.algebra != algebra:
        raise ShapeError("element does not belong to the given algebra")
    return x.nrd()


def skew_congruence(s):
    """(P', d) with P^t S P equal to the standard skew block matrix B, for P
    whose column j is column j of P' over d[j]; P' and d are over Z[X, Y],
    ints when S is constant.

    Greedy pivoting: the first nonzero entry of the current row becomes the
    (t, t+1) pivot of the block.  The elimination runs fraction-free on
    L * S, L the lcm of S's denominators, with 2 x 2 Pfaffian pivots:
    column t of P' is over the scale before the step and column t+1 over
    the step's stored pivot, and carries the factor L.  Without swaps or
    decoupled steps, these are 1, Pf_1, Pf_1, Pf_2, Pf_2, ... for Pf_k the
    Pfaffian of the leading 2k x 2k block of L * S.
    """
    n = len(s)
    m = [[as_scalar(v) for v in row] for row in s]
    if not linalg.equal(linalg.transpose(m), linalg.neg(m)):
        raise ShapeError("matrix is not skew-symmetric")
    if n % 2 != 0:
        raise SingularMatrixError("odd-size skew-symmetric matrices are singular")
    lcm, num = linalg.clear_denominators(m)
    red = linalg.Congruence(num, -1)
    m = red.m
    dens = []
    for t in range(0, n, 2):
        j = next((k for k in range(t + 1, n) if m[t][k]), None)
        if j is None:
            raise SingularMatrixError("skew matrix is singular")
        if j != t + 1:
            red.swap(j, t + 1)
        dens += [red.eliminate((t, t + 1), ((0, -1), (1, 0)), m[t][t + 1]), m[t][t + 1]]
    if lcm != 1:
        for row in red.t:
            for t in range(1, n, 2):
                row[t] = row[t] * lcm
    return red.t, dens


# kind -> (the base it needs, the type of its parameter: None, a diagonal
# "form", a "quaternion" or a "skew" matrix); AlgebraWithInvolution checks
# against this table and jsonio reads and writes parameters by their type
_INVOLUTION_KINDS = {
    "transpose": ("F", None),
    "adjoint_diag": ("F", "form"),
    "symplectic_standard": ("F", None),
    "int_skew": ("F", "skew"),
    "quat_conjugation": ("quaternion", None),
    "int_u_conj": ("quaternion", "quaternion"),
    "adjoint_hermitian": ("quaternion", "form"),
}


class InvolutionSpec:
    """Description of an involution; build via the classmethod constructors."""

    def __init__(self, kind, param=None):
        self.kind = kind
        self.param = param

    @classmethod
    def transpose(cls):
        return cls("transpose")

    @classmethod
    def adjoint_diag(cls, q):
        if any(c.is_zero() for c in q.entries):
            raise ShapeError("adjoint form must be nonsingular")
        return cls("adjoint_diag", q)

    @classmethod
    def quat_conjugation(cls):
        return cls("quat_conjugation")

    @classmethod
    def int_u_conj(cls, u):
        if not u.is_pure() or u.is_zero():
            raise ShapeError("Int(u) twist requires a nonzero pure quaternion")
        return cls("int_u_conj", u)

    @classmethod
    def adjoint_hermitian(cls, h):
        if any(c.is_zero() for c in h.entries):
            raise ShapeError("hermitian form must be nonsingular")
        return cls("adjoint_hermitian", h)

    @classmethod
    def symplectic_standard(cls):
        return cls("symplectic_standard")

    @classmethod
    def int_skew(cls, s):
        return cls("int_skew", s)

    def __repr__(self):
        return f"InvolutionSpec({self.kind!r})"


class AlgebraWithInvolution:
    """(A, sigma): M_n over F = Q(X,Y) or over a quaternion algebra.

    Elements are plain n x n lists of lists with RationalFunction entries
    (base "F") or QuatElem entries (quaternion base).  For Int(S) composed
    with transpose, `skew_pd` is the pair (P', d) of `skew_congruence`, which
    stands for the P = P' diag(1/d) with P^t S P = B.
    """

    def __init__(self, base, n, sigma):
        if n < 1:
            raise ShapeError(f"matrix size must be positive, got {n}")
        self.base = base
        self.n = n
        self.sigma = sigma
        kind, param = sigma.kind, sigma.param
        if kind not in _INVOLUTION_KINDS:
            raise ShapeError(f"unknown involution kind {kind!r}")
        need, ptype = _INVOLUTION_KINDS[kind]
        if self._is_quat() != (need == "quaternion"):
            raise ShapeError(f"{kind} is only supported over base {need}")
        if kind in ("quat_conjugation", "int_u_conj") and n != 1:
            raise ShapeError(f"{kind} requires a 1x1 quaternion algebra")
        if kind == "symplectic_standard" and n % 2 != 0:
            raise ShapeError("symplectic involution needs even n")
        # what each parameter implies, derived once: the central factors
        # d_i d_j^-1 of an adjoint involution, u^-1, and the skew congruence
        # of S, from which S^-1 is built on its first use (`_skew_inv`)
        if ptype == "form":
            d = param.entries
            if len(d) != n:
                raise ShapeError(f"{kind} form dimension must match n")
            self._factors = [[d[i] * d[j].inverse() for j in range(n)]
                             for i in range(n)]
        elif ptype == "quaternion":
            if param.algebra != base:
                raise ShapeError("twisting element lies in a different algebra")
            self._u_inv = param.inverse()
        elif ptype == "skew":
            if len(param) != n or any(len(r) != n for r in param):
                raise ShapeError("skew matrix size must match n")
            # raises here for an S that is not skew, or is singular
            self.skew_pd = skew_congruence(param)

    @cached_property
    def _skew_inv(self):
        """S^-1 = P B^-1 P^t for Int(S) o transpose, B^-1 with the blocks
        [[0, -1], [1, 0]], built on first use; S^-1 is skew, so only its
        entries above the diagonal are reduced."""
        num, lcm = linalg.block_congruence(*self.skew_pd, -1, 1)
        return linalg.divide(num, [lcm] * self.n, -1)

    # -- element plumbing ------------------------------------------------

    def _is_quat(self):
        return isinstance(self.base, QuaternionAlgebra)

    def zero_entry(self):
        return self.base.zero() if self._is_quat() else as_scalar(0)

    def coerce_entry(self, v):
        if self._is_quat():
            return v if isinstance(v, QuatElem) else self.base.elem(as_scalar(v))
        return as_scalar(v)

    def elem(self, rows):
        if len(rows) != self.n or any(len(r) != self.n for r in rows):
            raise ShapeError(f"expected a {self.n}x{self.n} matrix")
        return [[self.coerce_entry(v) for v in row] for row in rows]

    def zero(self):
        # entries are immutable, so the rows share one zero
        z = self.zero_entry()
        return [[z] * self.n for _ in range(self.n)]

    def scalar(self, c):
        return linalg.identity(self.n, self.zero_entry(), self.coerce_entry(c))

    def identity(self):
        return self.scalar(1)

    def unit(self, i, j, value=1):
        out = self.zero()
        out[i][j] = self.coerce_entry(value)
        return out

    def mul(self, x, y):
        return _mat_mul(x, y, self.zero_entry())

    def add(self, x, y):
        return linalg.add(x, y)

    def equal(self, x, y):
        return linalg.equal(x, y)

    # -- the involution --------------------------------------------------

    def involution(self, x):
        if len(x) != self.n or any(len(r) != self.n for r in x):
            raise ShapeError("element size does not match the algebra")
        kind = self.sigma.kind
        if kind == "transpose":
            return linalg.transpose(x)
        if kind == "quat_conjugation":
            return [[x[0][0].conj()]]
        if kind == "int_u_conj":
            return [[self.sigma.param * x[0][0].conj() * self._u_inv]]
        if kind in ("adjoint_diag", "adjoint_hermitian"):
            # sigma(x)_ij = f_ij x_ji, conjugated over a quaternion base; a
            # zero entry is its own image
            f, conj = self._factors, kind == "adjoint_hermitian"
            return [[f[i][j] * (v.conj() if conj else v) if v else v
                     for j, v in enumerate(column)]
                    for i, column in enumerate(zip(*x))]
        if kind == "symplectic_standard":
            # sigma(x)_ij = x[pi(j)][pi(i)] for pi(k) = (k + n/2) mod n,
            # negated when i and j lie in different halves
            m = self.n // 2
            pi = [(k + m) % self.n for k in range(self.n)]
            return [[x[pj][pi[i]] if (i < m) == (j < m) else -x[pj][pi[i]]
                     for j, pj in enumerate(pi)] for i in range(self.n)]
        # int_skew: S x^t S^-1
        return self.mul(self.mul(self.sigma.param, linalg.transpose(x)),
                        self._skew_inv)

    def trd(self, x):
        total = as_scalar(0)
        for i in range(self.n):
            v = x[i][i]
            total = total + (v.trd() if self._is_quat() else v)
        return total

    def hermitian_square(self, x):
        return self.mul(self.involution(x), x)

    def is_symmetric(self, x):
        return self.equal(self.involution(x), x)

    # -- the basis and coordinates -----------------------------------------

    def _units(self):
        return self.base.basis() if self._is_quat() else [as_scalar(1)]

    def basis(self):
        """Standard F-basis E_ij w: the matrix units E_ij, in row-major order,
        times the base units w (1 over F; 1, i, j, k over a quaternion base),
        w running fastest."""
        return [self.unit(i, j, w) for i in range(self.n) for j in range(self.n)
                for w in self._units()]

    def coordinates(self, x):
        """Coordinates of x in the basis() order, as a tuple of scalars."""
        if self._is_quat():
            return tuple(c for row in x for v in row for c in v.coords)
        return tuple(v for row in x for v in row)

    def sparse_coordinates(self, x):
        """The nonzero coordinates of x, as {basis index: coefficient}."""
        return {t: c for t, c in enumerate(self.coordinates(x)) if c}

    def involution_images(self):
        """sigma(e_r) for each basis element e_r, in sparse coordinates."""
        return [self.sparse_coordinates(self.involution(e)) for e in self.basis()]

    def basis_product(self, r, s):
        """e_r e_s in sparse coordinates: (E_ij w)(E_kl w') = delta_jk E_il (w w')."""
        units = self._units()
        m = len(units)
        (i, j), (k, l) = divmod(r // m, self.n), divmod(s // m, self.n)
        if j != k:
            return {}
        return self.sparse_coordinates(self.unit(i, l, units[r % m] * units[s % m]))

    def trace_form(self):
        """Gram matrix of the involution trace form T(x, y) = Trd(sigma(x)y).

        For basis elements, Trd(e_t e_s) is nonzero only when e_s = E_ij w
        and e_t = E_ji w, where it is trd(w^2): 2 w^2 for a quaternion unit
        w, and 1 over F.  So T(e_r, e_s) is the coefficient of E_ji w in
        sigma(e_r) times trd(w^2), one scalar product, and only the nonzero
        coefficients of sigma(e_r) give nonzero entries.  Every supported
        involution is of the first kind, so Trd o sigma = Trd and T is
        symmetric; GramForm checks that it is."""
        n, units = self.n, self._units()
        m = len(units)
        weights = [(w * w).trd() for w in units] if self._is_quat() else units
        zero = as_scalar(0)
        gram = [[zero] * (n * n * m) for _ in range(n * n * m)]
        for r, image in enumerate(self.involution_images()):
            for t, v in image.items():
                (j, i), c = divmod(t // m, n), t % m
                gram[r][(i * n + j) * m + c] = v * weights[c]
        return GramForm(gram)


def apply_involution(algebra, x):
    return algebra.involution(x)


def reduced_trace(algebra, x):
    return algebra.trd(x)


def hermitian_square(algebra, x):
    return algebra.hermitian_square(x)


def is_symmetric(algebra, x):
    return algebra.is_symmetric(x)


def trace_form(algebra):
    return algebra.trace_form()


def symbolic_elements(algebra, count):
    """Matrices of fresh commuting indeterminates, one list per element,
    with `ZPolynomial` entries (coordinates, for a quaternion base).

    Scalar base: entry (i,j) of element t is z<i>_<j>_<t>.  Quaternion base:
    the four coordinates of entry (i,j) of element t are z<i>_<j>_<4t+c>.
    Indices i, j, t start at 1.
    """
    out = []
    for t in range(1, count + 1):
        rows = []
        for i in range(1, algebra.n + 1):
            row = []
            for j in range(1, algebra.n + 1):
                if isinstance(algebra.base, QuaternionAlgebra):
                    coords = [ZPolynomial.variable(f"z{i}_{j}_{4 * t + c}")
                              for c in range(4)]
                    row.append(QuatElem(algebra.base, coords))
                else:
                    row.append(ZPolynomial.variable(f"z{i}_{j}_{t}"))
            rows.append(row)
        out.append(rows)
    return out


def entry_33_constraint(algebra, elements):
    """The (3,3) entry of sum sigma(a_i) a_i, as a scalar in F.

    Only defined for 3x3 algebras with a diagonal adjoint involution, where
    that entry is automatically central.
    """
    if algebra.n != 3 or algebra.sigma.kind not in ("adjoint_diag",
                                                    "adjoint_hermitian"):
        raise ShapeError("expected a 3x3 algebra with a diagonal adjoint involution")
    total = algebra.zero()
    for a in elements:
        total = algebra.add(total, algebra.hermitian_square(a))
    v = total[2][2]
    if isinstance(v, QuatElem):
        if not v.is_scalar():
            raise ShapeError("(3,3) entry is not central")
        return v.coords[0]
    return v


def sigma_orderings(algebra):
    """Monomial orderings at which the involution trace form is definite."""
    diag = diagonalize(algebra.trace_form()).form
    dim = len(diag.entries)
    return [p for p in ORDERINGS if diag.signature(p) == dim]
