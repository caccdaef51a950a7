"""Hermitian-square certificates: construction, composition, verification.

A certificate is data whose correctness is re-checked by exact expansion;
construction and verification are deliberately independent code paths.
Every function here that returns a certificate verifies it once and raises
CertificateError if that fails, so callers do not check it again.  Most
are checked by `verify_hermsq`, which expands sum sigma(x_i) x_i in the
algebra.  The -1 certificate under Int(S) o transpose is checked as the
ring identity W S W^t = -S on the witness it returns, over Z[X, Y]: that
check needs no S^-1 and reads nothing of the congruence that built W.
"""

from dataclasses import dataclass

from .errors import CertificateError, ShapeError
from .linalg import (Congruence, block_congruence, clear_denominators, divide, mat_mul,
                     transpose)
from .scalars import ORDERINGS, as_scalar, monomial_square_class
from .qforms import DiagonalForm, GramForm, diagonalize, weakly_represents_one
# skew_congruence lives with the int_skew involution and is re-exported here
from .involutions import (AlgebraWithInvolution, InvolutionSpec, QuaternionAlgebra,
                          skew_congruence)
from .fdalgebra import structure_algebra


@dataclass
class HermSqCertificate:
    """Claim: target = sum of sigma(x_i) x_i over the witnesses."""
    algebra: object
    target: object
    witnesses: list


def verify_hermsq(cert):
    alg = cert.algebra
    total = alg.zero()
    for w in cert.witnesses:
        total = alg.add(total, alg.mul(alg.involution(w), w))
    return alg.equal(total, cert.target)


def _verified(cert):
    if not verify_hermsq(cert):
        raise CertificateError("constructed certificate failed verification")
    return cert


_BITS = {"0": 0, "1": 1, 0: 0, 1: 1}


def parse_selector(eps, m):
    """A weight selector ("0110" or (0, 1, 1, 0)) as a tuple of m bits."""
    bits = tuple(_BITS.get(c) for c in eps)
    if len(bits) != m or None in bits:
        raise CertificateError(f"bad weight selector {eps!r} for {m} weights")
    return bits


def format_selector(eps):
    """The bitstring form of a weight selector, as JSON keys hold it."""
    return eps if isinstance(eps, str) else "".join(str(b) for b in eps)


@dataclass
class WeightedCertificate:
    """Claim: target = sum over eps of alpha^eps * sum_i sigma(x)x.

    weights are central scalars in F; terms maps selectors eps (tuples of
    bits or bitstrings, one bit per weight) to witness lists.
    """
    algebra: object
    target: object
    weights: list
    terms: dict


def verify_weighted(cert):
    alg = cert.algebra
    weights = [as_scalar(w) for w in cert.weights]
    for w in weights:
        if w.is_zero():
            raise CertificateError("zero weight")
    m = len(weights)
    total = alg.zero()
    for eps, xs in cert.terms.items():
        eps = parse_selector(eps, m)
        coeff = as_scalar(1)
        for bit, w in zip(eps, weights):
            if bit:
                coeff = coeff * w
        part = alg.zero()
        for x in xs:
            part = alg.add(part, alg.mul(alg.involution(x), x))
        total = alg.add(total, alg.mul(alg.scalar(coeff), part))
    return alg.equal(total, cert.target)


def rewrite_weighted_to_pure(cert, weight_certs):
    """Fold hermitian-square certificates for the weights into the terms.

    weight_certs maps each weight alpha (used with a 1 bit) to a certificate
    for alpha * identity in the same algebra; alpha * sigma(x)x then equals
    sum_k sigma(y_k x)(y_k x).  Each weight certificate is checked once,
    however many terms use it, and so is the result.
    """
    alg = cert.algebra
    weights = [as_scalar(w) for w in cert.weights]
    m = len(weights)
    checked = {}
    witnesses = []
    for eps, xs in cert.terms.items():
        current = list(xs)
        for bit, w in zip(parse_selector(eps, m), weights):
            if not bit:
                continue
            if w not in checked:
                wc = weight_certs.get(w)
                if wc is None:
                    raise CertificateError(f"no hermitian-square certificate for weight {w}")
                if not verify_hermsq(wc) or not alg.equal(wc.target, alg.scalar(w)):
                    raise CertificateError(f"invalid certificate supplied for weight {w}")
                checked[w] = wc.witnesses
            current = [alg.mul(y, x) for x in current for y in checked[w]]
        witnesses.extend(current)
    return _verified(HermSqCertificate(alg, cert.target, witnesses))


def prop41_certificates(quat, sigma):
    """Certified diagonalisation entries of the trace form of ((a,b)_F, sigma).

    Symplectic case (conjugation): entries 2*<1,-a,-b,ab> with witnesses
    1, i, j, k.  Orthogonal case (Int(u) twist, u pure): entries
    2*<1, Nrd(u), -Nrd(s), -Nrd(su)> where s is a pure quaternion
    anticommuting with u, found by solving the linear anticommutation
    equation; witnesses 1, u, s, us.
    """
    alg = AlgebraWithInvolution(quat, 1, sigma)
    if sigma.kind == "quat_conjugation":
        pieces = [(as_scalar(1), quat.one()), (-quat.a, quat.i()),
                  (-quat.b, quat.j()), (quat.a * quat.b, quat.k())]
    elif sigma.kind == "int_u_conj":
        u = sigma.param
        s = _anticommuting_pure(quat, u)
        su = s * u
        pieces = [(as_scalar(1), quat.one()), (u.nrd(), u),
                  (-s.nrd(), s), (-su.nrd(), su)]
    else:
        raise ShapeError("expected conjugation or an Int(u) twist of it")
    entries = [(as_scalar(2) * c, w) for c, w in pieces]
    return [(e, _verified(HermSqCertificate(alg, alg.scalar(e), [[[w]], [[w]]])))
            for e, w in entries]


def _anticommuting_pure(quat, u):
    """First pure s (basis order i, j, k) with us + su = 0, content-cleared.

    For pure u, s the anticommutator is the scalar
    2(a u1 s1 + b u2 s2 - ab u3 s3).
    """
    a, b = quat.a, quat.b
    coeffs = [a * u.coords[1], b * u.coords[2], -a * b * u.coords[3]]
    pivot = next((t for t, c in enumerate(coeffs) if not c.is_zero()), None)
    if pivot is None:
        raise ShapeError("twisting element must be a nonzero pure quaternion")
    free = next(t for t in range(3) if t != pivot)
    sol = [as_scalar(0)] * 3
    sol[free] = coeffs[pivot]
    sol[pivot] = -coeffs[free]
    s = quat.elem(0, *sol)
    assert (u * s + s * u).is_zero()
    return s


def tensor_certificates(c1, c2):
    """Certificate for beta1*beta2 in the tensor product of the algebras,
    verified there: a false factor raises CertificateError."""
    sa1, conv1 = structure_algebra(c1.algebra)
    sa2, conv2 = structure_algebra(c2.algebra)
    b1 = sa1.scalar_part(conv1(c1.target))
    b2 = sa2.scalar_part(conv2(c2.target))
    if b1 is None or b2 is None:
        raise CertificateError("tensor composition needs central scalar targets")
    sa = sa1.tensor(sa2)
    witnesses = [tuple(p * q for p in conv1(x) for q in conv2(y))
                 for x in c1.witnesses for y in c2.witnesses]
    return _verified(HermSqCertificate(sa, sa.scalar(b1 * b2), witnesses))


# -- the -1 certificate under Int(S) o transpose ----------------------------

def symplectic_minus_one(s):
    """Single-witness certificate for -1 in (M_n(F), Int(S) o transpose).

    S skew-symmetric and nonsingular, n even.  With P^t S P = B (standard
    blocks; P comes from the algebra's skew congruence), X the blockwise
    antidiagonal satisfying X^t B X = B^{-1}, and Y = P X P^t, the witness
    W = S Y satisfies sigma(W) W = -I.  Y and W are formed over Z[X, Y] (on
    ints for a constant S) from P's fraction-free form (P', d), Y, which is
    symmetric, from its upper triangle only, and only W's entries are
    reduced, each once.  The certificate is checked by `_minus_one_holds`,
    which needs no S^-1, so the algebra never builds one here.
    """
    n = len(s)
    s = [[as_scalar(v) for v in row] for row in s]
    alg = AlgebraWithInvolution("F", n, InvolutionSpec.int_skew(s))
    y_num, y_den = block_congruence(*alg.skew_pd, 1, 1)
    s_den, s_num = clear_denominators(s)
    w = divide(mat_mul(s_num, y_num, type(s_den)()), [s_den * y_den] * n)
    if not _minus_one_holds(s_num, w):
        raise CertificateError("constructed certificate failed verification")
    return HermSqCertificate(alg, alg.scalar(-1), [w])


def _minus_one_holds(s_num, w):
    """sigma(W) W = -I under Int(S) o transpose, for S = S' / s with S' =
    s_num skew over Z[X, Y] and W over Q(X, Y).

    sigma(W) W = S W^t S^-1 W = -I holds if and only if W S W^t = -S: either
    makes W invertible (det(W)^2 = 1, n even), and each follows from the
    other.  With W = W' / w (`clear_denominators`) that is W' S' W'^t =
    -w^2 S' over Z[X, Y], two products and no division.  Both sides are
    skew, so the second product forms only the entries above the diagonal
    (`mat_mul` with sign -1), and comparing those is a complete check.
    """
    w_den, w_num = clear_denominators(w)
    zero = type(w_den)()
    lhs = mat_mul(mat_mul(w_num, s_num, zero), transpose(w_num), zero, -1)
    scale = -w_den * w_den
    return all(lhs[i][j] == scale * row[j]
               for i, row in enumerate(s_num) for j in range(i + 1, len(row)))


# -- counterexample pipelines ----------------------------------------------

@dataclass
class TotalPositivityWitness:
    """a = Trd(sigma(b)b) for the recorded b."""
    algebra: object
    target: object
    witness: object

    def verify(self):
        got = self.algebra.trd(self.algebra.hermitian_square(self.witness))
        return got == self.target


@dataclass
class CounterexampleReport:
    """counterexample_pipeline's findings; it has verified positivity_witness."""
    algebra: object
    element: object
    positivity_witness: TotalPositivityWitness
    signatures: dict
    sigma_orderings: list
    entry_form: DiagonalForm
    weak_rep: object
    verdict: bool


def counterexample_pipeline(alpha, beta, base="F"):
    """Check whether alpha*beta is totally positive yet not a hermitian-square sum.

    The algebra is M_3 over F or over the given quaternion algebra, with the
    adjoint involution of <alpha, beta, alpha*beta>.  The trace witness for
    alpha*beta is verified once, and CertificateError raised if it fails.
    The verdict is true when the trace form is definite at some monomial
    ordering and <alpha, beta, alpha*beta> does not weakly represent 1 (the
    (3,3)-entry obstruction).
    """
    alpha, beta = as_scalar(alpha), as_scalar(beta)
    monomial_square_class(alpha)
    monomial_square_class(beta)
    q = DiagonalForm([alpha, beta, alpha * beta])
    if isinstance(base, QuaternionAlgebra):
        alg = AlgebraWithInvolution(base, 3, InvolutionSpec.adjoint_hermitian(q))
        norm_form = DiagonalForm([as_scalar(1), -base.a, -base.b, base.a * base.b])
        entry_form = DiagonalForm([beta]).tensor(norm_form).perp(
            DiagonalForm([alpha]).tensor(norm_form)).perp(norm_form)
    else:
        alg = AlgebraWithInvolution("F", 3, InvolutionSpec.adjoint_diag(q))
        entry_form = DiagonalForm([beta, alpha, as_scalar(1)])
    target = alpha * beta
    if isinstance(base, QuaternionAlgebra):
        # the reduced trace of a quaternion scalar c is 2c, so the witness
        # carries a factor (1+i)/2 of reduced norm 1/2 (needs i^2 = -1)
        if not base.a == as_scalar(-1):
            raise ShapeError("quaternion base must have i^2 = -1")
        half_alpha = alpha / as_scalar(2)
        b = alg.unit(0, 1, base.elem(half_alpha, half_alpha))
    else:
        b = alg.unit(0, 1, alpha)
    positivity = TotalPositivityWitness(alg, target, witness=b)
    if not positivity.verify():
        raise CertificateError("trace witness for alpha*beta failed verification")
    diag = diagonalize(alg.trace_form()).form
    signatures = {p: diag.signature(p) for p in ORDERINGS}
    dim = len(diag.entries)
    orderings = [p for p in ORDERINGS if signatures[p] == dim]
    weak = weakly_represents_one(q)
    verdict = bool(orderings) and not weak.represents
    return CounterexampleReport(alg, target, positivity, signatures, orderings,
                                entry_form, weak, verdict)


# -- exact PSD test over Q --------------------------------------------------

def psd_symmetric_rational(m):
    """Exact positive semidefiniteness of a symmetric rational matrix.

    The fraction-free congruence on the matrix times the lcm of its
    denominators (positive, so signs are kept) takes 1 x 1 pivots in
    order.  Its scale is the last nonzero pivot, positive here, so each
    pivot has the sign of the Schur complement's corner (Sylvester's law
    of inertia): the matrix is PSD unless a pivot is negative, or zero
    with a row that is not clear.
    """
    g = GramForm(m).matrix
    if not all(v.is_constant() for row in g for v in row):
        raise ShapeError("expected a rational constant")
    return _psd_integral(clear_denominators(g)[1])


def _psd_integral(m):
    """`psd_symmetric_rational` of a symmetric int matrix, which it does not
    check: the pivot signs of its fraction-free congruence."""
    red = Congruence(m, 1, transform=False)
    for p, row in enumerate(red.m):
        pivot = row[p]
        if pivot < 0 or not pivot and any(row[p + 1:]):
            return False
        red.eliminate((p,), ((1,),), pivot)
    return True
