"""Acceptance gate: ten end-to-end criteria, each reported as a single
pass/fail line.

Each test computes a boolean verdict, prints "criterion N: PASS|FAIL", and
then asserts the verdict, so the printed summary always matches the pytest
outcome.

Criterion 1 checks two refusals of weak representation, each decided in
under 1 s: <X, Y, XY> (Lemma 3.1) and <X, Y, -XY>, which is negative
definite at the ordering X < 0, Y < 0.
"""

import random
import time
from fractions import Fraction

from hermsq.certificates import (HermSqCertificate, WeightedCertificate,
                                 counterexample_pipeline, prop41_certificates,
                                 psd_symmetric_rational,
                                 rewrite_weighted_to_pure, skew_congruence,
                                 symplectic_minus_one, tensor_certificates,
                                 verify_hermsq, verify_weighted)
from hermsq.errors import HermsqError
from hermsq.involutions import (AlgebraWithInvolution, InvolutionSpec,
                                QuaternionAlgebra, entry_33_constraint,
                                reduced_norm_quat, reduced_trace,
                                symbolic_elements, trace_form)
from hermsq.linalg import divide, mat_mul as _mat_mul, transpose as _mat_transpose
from hermsq.ncpoly import (NCPolynomial, PositivstellensatzCertificate,
                           commutator, is_central_nonvanishing,
                           is_identity_mod_a, psd_falsify,
                           verify_positivstellensatz)
from hermsq.qforms import (DiagonalForm, diagonalize, is_isotropic_Q,
                           weakly_represents_one)
from hermsq.scalars import (ORDERINGS, MonomialOrdering, X, Y, as_scalar,
                            parse_scalar, sign_at, squarefree_part)


def report(number, ok):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed"


def form(*texts):
    return DiagonalForm([parse_scalar(t) for t in texts])


def test_criterion_01_weak_representation():
    t0 = time.monotonic()
    rep1 = weakly_represents_one(form("X", "Y", "X*Y"))
    t1 = time.monotonic() - t0
    t0 = time.monotonic()
    neg = form("X", "Y", "-X*Y")
    rep2 = weakly_represents_one(neg)
    t2 = time.monotonic() - t0
    # At the ordering X < 0, Y < 0 all three entries X, Y and -XY are
    # negative, so <X, Y, -XY> is negative definite there (signature -3):
    # every value of every multiple m*<X, Y, -XY> is negative at that
    # ordering, and none of them represents 1.
    ok = (not rep1.represents and t1 < 1.0
          and neg.signature(MonomialOrdering.parse("--")) == -3
          and not rep2.represents and rep2.verify() and t2 < 1.0)
    report(1, ok)


def test_criterion_02_matrix_counterexample():
    t0 = time.monotonic()
    report32 = counterexample_pipeline(X, Y, "F")
    alg = report32.algebra
    diag = diagonalize(trace_form(alg)).form
    classes = diag.square_class_multiset()
    want = sorted([(1, 0, 0)] * 3 + [(1, 1, 0)] * 2 + [(1, 0, 1)] * 2
                  + [(1, 1, 1)] * 2)
    sigs = {str(p): diag.signature(p) for p in ORDERINGS}
    b = alg.unit(0, 1, X)
    trace = reduced_trace(alg, alg.hermitian_square(b))
    a = symbolic_elements(alg, 1)[0]
    entry = entry_33_constraint(alg, [a])
    expected = (Y * a[0][2] * a[0][2] + X * a[1][2] * a[1][2]
                + a[2][2] * a[2][2])
    elapsed = time.monotonic() - t0
    ok = (classes == want
          and sigs == {"++": 9, "+-": 1, "-+": 1, "--": 1}
          and trace == X * Y
          and entry == expected
          and report32.verdict
          and elapsed < 5.0)
    report(2, ok)


def test_criterion_03_quaternion_counterexample():
    t0 = time.monotonic()
    h = QuaternionAlgebra(-1, -1)
    report33 = counterexample_pipeline(X, Y, h)
    alg = report33.algebra
    diag = diagonalize(trace_form(alg)).form
    sigs = {str(p): diag.signature(p) for p in ORDERINGS}
    a = symbolic_elements(alg, 1)[0]
    entry = entry_33_constraint(alg, [a])
    expected = (Y * reduced_norm_quat(a[0][2]) + X * reduced_norm_quat(a[1][2])
                + reduced_norm_quat(a[2][2]))
    galg = AlgebraWithInvolution(h, 1, InvolutionSpec.quat_conjugation())
    norm_diag = diagonalize(trace_form(galg)).form
    elapsed = time.monotonic() - t0
    ok = (sigs == {"++": 36, "+-": 4, "-+": 4, "--": 4}
          and entry == expected
          and norm_diag == form("2", "2", "2", "2")
          and report33.verdict
          and elapsed < 10.0)
    report(3, ok)


def test_criterion_04_prop41_entries():
    def square_class(v):
        f = Fraction(str(v)) if not hasattr(v, "num") else (
            Fraction(v.num.constant()) / Fraction(v.den.constant()))
        return squarefree_part(f.numerator * f.denominator)

    ok = True
    for a, b in ((-1, -1), (-1, -3)):
        quat = QuaternionAlgebra(a, b)
        certs = prop41_certificates(quat, InvolutionSpec.quat_conjugation())
        ok = ok and all(verify_hermsq(c) for _, c in certs)
        got = sorted(square_class(e) for e, _ in certs)
        want = sorted(square_class(2 * v) for v in (1, -a, -b, a * b))
        ok = ok and got == want
    quat = QuaternionAlgebra(-1, -1)
    u = quat.i()
    sigma = InvolutionSpec.int_u_conj(u)
    certs = prop41_certificates(quat, sigma)
    ok = ok and all(verify_hermsq(c) for _, c in certs)
    s = certs[2][1].witnesses[0][0][0]
    su = certs[3][1].witnesses[0][0][0]
    want = sorted(square_class(as_scalar(2) * v)
                  for v in (as_scalar(1), u.nrd(), -s.nrd(), -su.nrd()))
    got = sorted(square_class(e) for e, _ in certs)
    ok = ok and got == want and (u * s + s * u).is_zero()
    report(4, ok)


def test_criterion_05_symplectic_minus_one():
    rng = random.Random(2024)
    zero = as_scalar(0)
    sizes = [2, 4, 6, 8] * 5
    ok = True
    for n in sizes:
        while True:
            s = [[zero] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = as_scalar(rng.randint(-9, 9))
                    s[i][j], s[j][i] = v, -v
            try:
                cert = symplectic_minus_one(s)
                break
            except HermsqError:
                continue
        ok = ok and verify_hermsq(cert)
        # P^t S P = B and Y = P X P^t, for B and X block diagonal with the
        # blocks [[0, 1], [-1, 0]] and [[0, 1], [1, 0]]
        p = divide(*skew_congruence(s))
        b, x = ([[zero] * n for _ in range(n)] for _ in range(2))
        for t in range(0, n, 2):
            b[t][t + 1] = x[t][t + 1] = x[t + 1][t] = as_scalar(1)
            b[t + 1][t] = as_scalar(-1)
        ptsp = _mat_mul(_mat_mul(_mat_transpose(p), s, zero), p, zero)
        ok = ok and ptsp == b
        y = _mat_mul(_mat_mul(p, x, zero), _mat_transpose(p), zero)
        ysy = _mat_mul(_mat_mul(_mat_transpose(y), s, zero), y, zero)
        prod = _mat_mul(s, ysy, zero)  # S * S^{-1}
        ok = ok and all(prod[i][j] == as_scalar(1 if i == j else 0)
                        for i in range(n) for j in range(n))
        ok = ok and cert.witnesses == [_mat_mul(s, y, zero)]
        if not ok:
            break
    report(5, ok)


def test_criterion_06_tensor_and_rewrite():
    quat = QuaternionAlgebra(-1, -1)
    base = prop41_certificates(quat, InvolutionSpec.quat_conjugation())[0][1]
    two_factor = tensor_certificates(base, base)
    three_factor = tensor_certificates(two_factor, base)
    ok = verify_hermsq(two_factor) and verify_hermsq(three_factor)

    alg = AlgebraWithInvolution(quat, 1, InvolutionSpec.quat_conjugation())
    two = as_scalar(2)
    two_cert = HermSqCertificate(alg, alg.scalar(two),
                                 [[[quat.one()]], [[quat.one()]]])
    wc = WeightedCertificate(alg, alg.scalar(4), [two, two],
                             {"11": [[[quat.one()]]]})
    ok = ok and verify_weighted(wc)
    pure = rewrite_weighted_to_pure(wc, {two: two_cert})
    ok = ok and verify_hermsq(pure)
    report(6, ok)


def brute_force_isotropic(entries, height):
    """Exhaustive integer zero search, |coordinates| <= height."""
    squares = [t * t for t in range(height + 1)]
    dim = len(entries)
    if dim == 1:
        return False
    if dim == 2:
        a, b = entries
        return any(a * squares[p] + b * squares[q] == 0
                   for p in range(height + 1) for q in range(height + 1)
                   if p or q)
    a, b = entries[0], entries[1]
    rest = entries[2:]
    half = {}
    for p in range(height + 1):
        for q in range(height + 1):
            half.setdefault(a * squares[p] + b * squares[q],
                            (p, q))
    if len(rest) == 1:
        c = rest[0]
        for r in range(height + 1):
            v = half.get(-c * squares[r])
            if v is not None and (r or v != (0, 0)):
                return True
        return False
    c, d = rest
    for r in range(height + 1):
        for s_ in range(height + 1):
            v = half.get(-(c * squares[r] + d * squares[s_]))
            if v is not None and (r or s_ or v != (0, 0)):
                return True
    return False


def test_criterion_07_hasse_minkowski_brute_force():
    classes = sorted({squarefree_part(v) for v in range(1, 11)})
    classes = classes + [-c for c in classes]
    ok = True
    checked = 0

    def multisets(pool, size):
        if size == 0:
            yield ()
            return
        for i, v in enumerate(pool):
            for tail in multisets(pool[i:], size - 1):
                yield (v,) + tail

    for dim in (1, 2, 3, 4):
        for entries in multisets(classes, dim):
            checked += 1
            brute = brute_force_isotropic(list(entries), 30)
            oracle = is_isotropic_Q(list(entries))
            # brute force is one-directional: a found zero must be certified
            if brute and not oracle:
                ok = False
    curated = [
        ([1, -1], True), ([1, 1], False), ([1], False), ([-2, -5], False),
        ([1, -2], False), ([1, -4], True), ([2, -2], True),
        ([1, 1, -3], False), ([1, 1, -2], True), ([1, 1, 1], False),
        ([1, 2, -3], True), ([1, 3, -4], True), ([2, 3, -5], True),
        ([1, 1, -7], False), ([-1, -1, 2], True), ([5, -2, -10], False),
        ([1, 1, 1, -6], True), ([1, 1, 1, 1], False),
        ([2, 3, 5, -30], True), ([1, 1, 1, 1, -7], True),
    ]
    for entries, want in curated:
        if is_isotropic_Q(entries) != want:
            ok = False
    ok = ok and checked > 3000 and len(curated) == 20
    report(7, ok)


def char_poly_psd(m):
    """PSD via the sign pattern of the characteristic polynomial: for a
    symmetric matrix all eigenvalues are real, and they are all >= 0 exactly
    when the elementary symmetric functions e_k of the spectrum are >= 0."""
    n = len(m)
    ident = [[Fraction(1 if i == j else 0) for j in range(n)]
             for i in range(n)]
    nmat = [row[:] for row in ident]
    coeffs = []
    for k in range(1, n + 1):
        mn = [[sum(m[i][t] * nmat[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        c = -sum(mn[i][i] for i in range(n)) / k
        coeffs.append(c)
        nmat = [[mn[i][j] + (c if i == j else 0) for j in range(n)]
                for i in range(n)]
    # char = t^n + c1 t^(n-1) + ... + cn, with e_k = (-1)^k c_k
    return all((-1) ** (k + 1) * c >= 0 for k, c in enumerate(coeffs))


def test_criterion_08_psd_oracle_agreement():
    rng = random.Random(512)
    ok = True
    for trial in range(500):
        n = rng.randint(1, 6)
        if trial % 2:
            k = rng.randint(1, n)
            a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                  for _ in range(n)] for _ in range(k)]
            m = [[sum(a[t][i] * a[t][j] for t in range(k)) for j in range(n)]
                 for i in range(n)]
        else:
            m = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    v = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                    m[i][j] = m[j][i] = v
        if psd_symmetric_rational(m) != char_poly_psd(m):
            ok = False
            break
    report(8, ok)


def test_criterion_09_nc_suite():
    t0 = time.monotonic()
    x1 = NCPolynomial.variable(1)
    x2 = NCPolynomial.variable(2)
    x3 = NCPolynomial.variable(3)
    hall = commutator(commutator(x1, x2) ** 2, x3)
    ok = is_identity_mod_a(hall, 2)
    ok = ok and not is_identity_mod_a(hall, 3)
    ok = ok and is_central_nonvanishing(commutator(x1, x2) ** 2, 2)
    ok = ok and psd_falsify(x1 + x1.star(), 2, 10, 0) is not None

    trivial = [
        PositivstellensatzCertificate(
            g=x1.star() * x1, h=NCPolynomial.one(), n=2, J="orthogonal",
            weights=[], terms={"": [x1]}),
        PositivstellensatzCertificate(
            g=x1.star() * x1 + x2.star() * x2, h=NCPolynomial.one(), n=2,
            J="orthogonal", weights=[], terms={"": [x1, x2]}),
    ]
    for cert in trivial:
        ok = ok and verify_positivstellensatz(cert)
        corruptions = [
            PositivstellensatzCertificate(cert.g + 1, cert.h, cert.n, cert.J,
                                          cert.weights, cert.terms),
            PositivstellensatzCertificate(cert.g, x1, cert.n, cert.J,
                                          cert.weights, cert.terms),
            PositivstellensatzCertificate(
                cert.g, cert.h, cert.n, cert.J, cert.weights,
                {eps: ps + [NCPolynomial.one()]
                 for eps, ps in cert.terms.items()}),
            PositivstellensatzCertificate(
                cert.g, cert.h, cert.n, cert.J, cert.weights,
                {eps: [p + 1 for p in ps] for eps, ps in cert.terms.items()}),
        ]
        for bad in corruptions:
            ok = ok and not verify_positivstellensatz(bad)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(9, ok)


def test_criterion_10_property_suites():
    cases = 0
    failures = 0

    # sign multiplicativity over Q(X, Y): 3000 pairs
    rng = random.Random(1001)
    pool = ["1", "-1", "2", "X", "-X", "Y", "X*Y", "X + 1", "X - Y",
            "X^2*Y", "1/2", "Y - 3"]
    for _ in range(3000):
        f = parse_scalar(rng.choice(pool)) * parse_scalar(rng.choice(pool))
        g = parse_scalar(rng.choice(pool))
        cases += 1
        for p in ORDERINGS:
            if sign_at(f * g, p) != sign_at(f, p) * sign_at(g, p):
                failures += 1

    # signature additivity and multiplicativity: 2500 form pairs
    rng = random.Random(1002)
    entries = ["1", "-1", "X", "-X", "Y", "-Y", "X*Y", "-X*Y", "3", "-5"]
    for _ in range(2500):
        q1 = form(*(rng.choice(entries) for _ in range(rng.randint(1, 3))))
        q2 = form(*(rng.choice(entries) for _ in range(rng.randint(1, 3))))
        cases += 1
        for p in ORDERINGS:
            if (q1.perp(q2).signature(p)
                    != q1.signature(p) + q2.signature(p)):
                failures += 1
            if (q1.tensor(q2).signature(p)
                    != q1.signature(p) * q2.signature(p)):
                failures += 1

    # involution laws: 1500 random elements across algebra kinds
    rng = random.Random(1003)
    h = QuaternionAlgebra(-1, -1)
    algebras = [
        AlgebraWithInvolution("F", 2, InvolutionSpec.transpose()),
        AlgebraWithInvolution("F", 2, InvolutionSpec.adjoint_diag(
            form("X", "Y"))),
        AlgebraWithInvolution("F", 2, InvolutionSpec.symplectic_standard()),
        AlgebraWithInvolution(h, 1, InvolutionSpec.quat_conjugation()),
        AlgebraWithInvolution(h, 1, InvolutionSpec.int_u_conj(h.i())),
    ]

    def rand_elem(alg):
        if isinstance(alg.base, QuaternionAlgebra):
            rows = [[alg.base.elem(*(rng.randint(-3, 3) for _ in range(4)))
                     for _ in range(alg.n)] for _ in range(alg.n)]
        else:
            rows = [[Fraction(rng.randint(-4, 4)) for _ in range(alg.n)]
                    for _ in range(alg.n)]
        return alg.elem(rows)

    for _ in range(300):
        for alg in algebras:
            cases += 1
            xv = rand_elem(alg)
            yv = rand_elem(alg)
            sx = alg.involution(xv)
            if not alg.equal(alg.involution(sx), xv):
                failures += 1
            if not alg.equal(alg.involution(alg.mul(xv, yv)),
                             alg.mul(alg.involution(yv), sx)):
                failures += 1

    # certificate perturbation falsification: 3200 certificates
    rng = random.Random(1004)
    alg = AlgebraWithInvolution("F", 2, InvolutionSpec.transpose())
    for _ in range(3200):
        cases += 1
        witnesses = [rand_elem(alg) for _ in range(rng.randint(1, 3))]
        target = alg.zero()
        for w in witnesses:
            target = alg.add(target, alg.mul(alg.involution(w), w))
        cert = HermSqCertificate(alg, target, witnesses)
        if not verify_hermsq(cert):
            failures += 1
        i, j = rng.randrange(2), rng.randrange(2)
        bad_target = alg.add(target, alg.unit(i, j, rng.choice((1, -1))))
        if verify_hermsq(HermSqCertificate(alg, bad_target, witnesses)):
            failures += 1

    ok = cases >= 10000 and failures == 0
    print(f"criterion 10: generated {cases} cases, {failures} failures")
    report(10, ok)
