"""Tests for hermitian-square certificates, compositions and the
counterexample pipelines."""

import itertools
import random
from fractions import Fraction

import pytest

from hermsq import certificates, involutions, linalg, scenarios
from hermsq.certificates import (CounterexampleReport, HermSqCertificate,
                                 TotalPositivityWitness, WeightedCertificate,
                                 counterexample_pipeline, prop41_certificates,
                                 psd_symmetric_rational,
                                 rewrite_weighted_to_pure, skew_congruence,
                                 symplectic_minus_one, tensor_certificates,
                                 verify_hermsq, verify_weighted)
from hermsq.errors import (CertificateError, HermsqError, ShapeError,
                           SingularMatrixError)
from hermsq.fdalgebra import structure_algebra
from hermsq.involutions import (AlgebraWithInvolution, InvolutionSpec,
                                QuaternionAlgebra)
from hermsq.linalg import divide, mat_mul as _mat_mul, transpose as _mat_transpose
from hermsq.qforms import DiagonalForm
from hermsq.scalars import (MonomialOrdering, X, Y, as_scalar,
                            monomial_square_class, parse_scalar)


def blocks(n, lower):
    """The block diagonal matrix of n/2 blocks [[0, 1], [lower, 0]]."""
    b = [[as_scalar(0) for _ in range(n)] for _ in range(n)]
    for t in range(0, n, 2):
        b[t][t + 1], b[t + 1][t] = as_scalar(1), as_scalar(lower)
    return b


def thm32_algebra():
    q = DiagonalForm([X, Y, X * Y])
    return AlgebraWithInvolution("F", 3, InvolutionSpec.adjoint_diag(q))


class TestVerifyHermsq:
    def test_quaternion_entry(self):
        h = QuaternionAlgebra(as_scalar(-3), as_scalar(5))
        alg = AlgebraWithInvolution(h, 1, InvolutionSpec.quat_conjugation())
        cert = HermSqCertificate(alg, alg.scalar(3), [[[h.i()]]])
        assert verify_hermsq(cert)

    def test_single_witness_not_scalar_target(self):
        alg = thm32_algebra()
        b = alg.unit(0, 1, X)
        cert = HermSqCertificate(alg, alg.scalar(X * Y), [b])
        assert not verify_hermsq(cert)
        cert = HermSqCertificate(alg, alg.unit(1, 1, X * Y), [b])
        assert verify_hermsq(cert)

    def test_empty_certificate(self):
        alg = thm32_algebra()
        assert verify_hermsq(HermSqCertificate(alg, alg.zero(), []))
        assert not verify_hermsq(HermSqCertificate(alg, alg.identity(), []))

    def test_sum_of_transpose_squares(self):
        alg = AlgebraWithInvolution("F", 2, InvolutionSpec.transpose())
        x = alg.elem([[1, 2], [0, 1]])
        target = alg.mul(alg.involution(x), x)
        assert verify_hermsq(HermSqCertificate(alg, target, [x]))
        doubled = alg.add(target, target)
        assert verify_hermsq(HermSqCertificate(alg, doubled, [x, x]))


class TestWeightedCertificates:
    def make_weighted(self):
        alg = thm32_algebra()
        target = alg.scalar(X * Y)
        return WeightedCertificate(alg, target, [X * Y],
                                   {"1": [alg.identity()]})

    def test_verifies(self):
        assert verify_weighted(self.make_weighted())

    def test_m0_matches_hermsq(self):
        alg = thm32_algebra()
        b = alg.unit(0, 1, X)
        target = alg.mul(alg.involution(b), b)
        wc = WeightedCertificate(alg, target, [], {"": [b]})
        assert verify_weighted(wc)
        assert verify_hermsq(HermSqCertificate(alg, target, [b]))

    def test_corrupted_fails(self):
        wc = self.make_weighted()
        alg = wc.algebra
        bad = alg.add(wc.terms["1"][0], alg.unit(0, 0, 1))
        wc = WeightedCertificate(alg, wc.target, wc.weights, {"1": [bad]})
        assert not verify_weighted(wc)

    def test_zero_weight_rejected(self):
        alg = thm32_algebra()
        wc = WeightedCertificate(alg, alg.zero(), [as_scalar(0)],
                                 {"1": [alg.identity()]})
        with pytest.raises(CertificateError):
            verify_weighted(wc)

    def test_bad_selector_rejected(self):
        alg = thm32_algebra()
        wc = WeightedCertificate(alg, alg.zero(), [X],
                                 {"12": [alg.identity()]})
        with pytest.raises(CertificateError):
            verify_weighted(wc)

    @pytest.mark.parametrize("eps", ["x", "0x", (0, 2)])
    def test_non_binary_selector_rejected(self, eps):
        alg = thm32_algebra()
        wc = WeightedCertificate(alg, alg.zero(), [X] * len(eps),
                                 {eps: [alg.identity()]})
        with pytest.raises(CertificateError):
            verify_weighted(wc)


class TestRewriteToPure:
    def test_quaternion_weights(self):
        h = QuaternionAlgebra(-1, -1)
        alg = AlgebraWithInvolution(h, 1, InvolutionSpec.quat_conjugation())
        two = as_scalar(2)
        two_cert = HermSqCertificate(alg, alg.scalar(two),
                                     [[[h.one()]], [[h.one()]]])
        target = alg.scalar(4)
        wc = WeightedCertificate(alg, target, [two, two],
                                 {"11": [[[h.one()]]]})
        assert verify_weighted(wc)
        pure = rewrite_weighted_to_pure(wc, {two: two_cert})
        assert verify_hermsq(pure)
        assert len(pure.witnesses) == 4

    def test_m0_passthrough(self):
        alg = thm32_algebra()
        b = alg.unit(0, 1, X)
        target = alg.mul(alg.involution(b), b)
        wc = WeightedCertificate(alg, target, [], {"": [b]})
        pure = rewrite_weighted_to_pure(wc, {})
        assert verify_hermsq(pure)
        assert len(pure.witnesses) == 1

    def test_missing_weight_cert_refused(self):
        wc = TestWeightedCertificates().make_weighted()
        with pytest.raises(CertificateError):
            rewrite_weighted_to_pure(wc, {})

    def test_weight_cert_checked_once(self, monkeypatch):
        # the weight 2 is used by four factors over three terms, and its
        # certificate is checked once; the result is checked once too
        h = QuaternionAlgebra(-1, -1)
        alg = AlgebraWithInvolution(h, 1, InvolutionSpec.quat_conjugation())
        one, two = [[h.one()]], as_scalar(2)
        two_cert = HermSqCertificate(alg, alg.scalar(two), [one, one])
        wc = WeightedCertificate(alg, alg.scalar(8), [two, two],
                                 {"11": [one], "10": [one], "01": [one]})
        calls = []

        def counted(cert, verify=certificates.verify_hermsq):
            calls.append(cert)
            return verify(cert)
        monkeypatch.setattr(certificates, "verify_hermsq", counted)
        pure = rewrite_weighted_to_pure(wc, {two: two_cert})
        assert len(pure.witnesses) == 8
        assert [c is two_cert for c in calls] == [True, False]
        assert calls[1] is pure

    def test_false_weighted_certificate_refused(self):
        # the weight certificate holds, but the weighted target is wrong
        h = QuaternionAlgebra(-1, -1)
        alg = AlgebraWithInvolution(h, 1, InvolutionSpec.quat_conjugation())
        one, two = [[h.one()]], as_scalar(2)
        two_cert = HermSqCertificate(alg, alg.scalar(two), [one, one])
        wc = WeightedCertificate(alg, alg.scalar(3), [two], {"1": [one]})
        with pytest.raises(CertificateError):
            rewrite_weighted_to_pure(wc, {two: two_cert})

    def test_int_weight_key(self):
        # the weight certificates are looked up by value: an int key finds
        # the weight 2 of Q(X, Y)
        h = QuaternionAlgebra(-1, -1)
        alg = AlgebraWithInvolution(h, 1, InvolutionSpec.quat_conjugation())
        one, two = [[h.one()]], as_scalar(2)
        two_cert = HermSqCertificate(alg, alg.scalar(two), [one, one])
        wc = WeightedCertificate(alg, alg.scalar(4), [two], {"1": [one], "0": [one, one]})
        pure = rewrite_weighted_to_pure(wc, {2: two_cert})
        assert verify_hermsq(pure) and len(pure.witnesses) == 4

    def test_invalid_weight_cert_refused(self):
        wc = TestWeightedCertificates().make_weighted()
        alg = wc.algebra
        bogus = HermSqCertificate(alg, alg.scalar(X * Y), [alg.identity()])
        with pytest.raises(CertificateError):
            rewrite_weighted_to_pure(wc, {wc.weights[0]: bogus})


class TestProp41:
    def test_conjugation_cases(self):
        for a, b in ((-1, -1), (-1, -3)):
            quat = QuaternionAlgebra(a, b)
            certs = prop41_certificates(quat,
                                        InvolutionSpec.quat_conjugation())
            entries = [e for e, _ in certs]
            assert entries == [as_scalar(2), as_scalar(-2 * a),
                               as_scalar(-2 * b), as_scalar(2 * a * b)]
            assert all(verify_hermsq(c) for _, c in certs)

    def test_int_u_twist(self):
        quat = QuaternionAlgebra(-1, -1)
        certs = prop41_certificates(quat,
                                    InvolutionSpec.int_u_conj(quat.i()))
        assert all(verify_hermsq(c) for _, c in certs)
        # entries come from <2> tensor <1, Nrd(u), -Nrd(s), -Nrd(su)>
        classes = sorted(monomial_square_class(e) for e, _ in certs)
        assert classes == sorted([(2, 0, 0), (2, 0, 0), (-2, 0, 0), (-2, 0, 0)])

    def test_rejects_other_involutions(self):
        quat = QuaternionAlgebra(-1, -1)
        with pytest.raises(ShapeError):
            prop41_certificates(quat, InvolutionSpec.transpose())


class TestTensorComposition:
    def base_cert(self):
        quat = QuaternionAlgebra(-1, -1)
        return prop41_certificates(quat,
                                   InvolutionSpec.quat_conjugation())[0][1]

    def test_two_factors(self):
        c = self.base_cert()
        t = tensor_certificates(c, c)
        assert verify_hermsq(t)
        assert t.algebra.scalar_part(t.target) == as_scalar(4)
        assert len(t.witnesses) == 4

    def test_three_factors(self):
        c = self.base_cert()
        t = tensor_certificates(tensor_certificates(c, c), c)
        assert verify_hermsq(t)
        assert t.algebra.scalar_part(t.target) == as_scalar(8)
        assert len(t.witnesses) == 8

    def test_matrix_and_twisted_quaternion_factors(self):
        # M_2(F) with the transpose, 2 = W^t W for W = [[1, 1], [1, -1]],
        # times the first entry 2 of the (-1,-1) Int(i) twist
        alg = AlgebraWithInvolution("F", 2, InvolutionSpec.transpose())
        w = alg.elem([[1, 1], [1, -1]])
        matrix = HermSqCertificate(alg, alg.scalar(2), [w])
        quat = QuaternionAlgebra(-1, -1)
        twist = prop41_certificates(quat, InvolutionSpec.int_u_conj(quat.i()))[0][1]
        for c1, c2 in ((matrix, twist), (twist, matrix)):
            t = tensor_certificates(c1, c2)
            assert t.algebra.dim == 16
            assert t.algebra.scalar_part(t.target) == as_scalar(4)
            assert len(t.witnesses) == 2

    def test_false_factor_refused(self):
        # sigma(1) 1 = 1, not 2: the composition with a false factor raises
        # instead of returning a false certificate
        quat = QuaternionAlgebra(-1, -1)
        alg = AlgebraWithInvolution(quat, 1, InvolutionSpec.quat_conjugation())
        bad = HermSqCertificate(alg, alg.scalar(2), [[[quat.one()]]])
        assert not verify_hermsq(bad)
        for c1, c2 in ((bad, bad), (bad, self.base_cert()), (self.base_cert(), bad)):
            with pytest.raises(CertificateError):
                tensor_certificates(c1, c2)

    def test_non_scalar_target_rejected(self):
        alg = thm32_algebra()
        b = alg.unit(0, 1, X)
        c = HermSqCertificate(alg, alg.mul(alg.involution(b), b), [b])
        with pytest.raises(CertificateError):
            tensor_certificates(c, c)


class TestSymplectic:
    def test_standard_2x2(self):
        s = [[as_scalar(0), as_scalar(1)], [as_scalar(-1), as_scalar(0)]]
        cert = symplectic_minus_one(s)
        assert verify_hermsq(cert)

    def test_congruence_intermediates_random(self):
        rng = random.Random(83)
        zero = as_scalar(0)
        for n in (2, 4, 6):
            b, x = blocks(n, -1), blocks(n, 1)
            produced = 0
            while produced < 4:
                s = [[zero] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        v = as_scalar(rng.randint(-9, 9))
                        s[i][j], s[j][i] = v, -v
                try:
                    p = divide(*skew_congruence(s))
                except SingularMatrixError:
                    continue
                produced += 1
                assert _mat_mul(_mat_mul(_mat_transpose(p), s, zero), p, zero) == b
                cert = symplectic_minus_one(s)
                assert verify_hermsq(cert)
                # Y = P X P^t, with Y^t S Y = S^{-1}, checked via S * (Y^t S Y) = I
                y = _mat_mul(_mat_mul(p, x, zero), _mat_transpose(p), zero)
                ysy = _mat_mul(_mat_mul(_mat_transpose(y), s, zero), y, zero)
                prod = _mat_mul(s, ysy, zero)
                assert all(prod[i][j] == as_scalar(1 if i == j else 0)
                           for i in range(n) for j in range(n))
                assert cert.witnesses == [_mat_mul(s, y, zero)]

    def test_one_congruence_per_certificate(self, monkeypatch):
        # the algebra runs the congruence P^t S P = B, and the certificate
        # reads that P back instead of reducing S a second time
        calls = []
        for module in (involutions, certificates):
            def counted(s, reduce=module.skew_congruence):
                calls.append(len(s))
                return reduce(s)
            monkeypatch.setattr(module, "skew_congruence", counted)
        zero, one = as_scalar(0), as_scalar(1)
        s = [[zero, zero, one, X], [zero, zero, Y, one],
             [-one, -Y, zero, zero], [-X, -one, zero, zero]]
        for _ in range(2):
            before = len(calls)
            cert = symplectic_minus_one(s)
            assert verify_hermsq(cert)
            assert calls[before:] == [4]

    # the 6 x 6 skew S of the benchmark's rational-forms workload at seeds
    # 1-3, by the entries above the diagonal, row by row
    RATIONAL_FORMS_S = {
        1: [["3*X - 3", "-Y - 3", "2 + 3*X", "3*X - 3", "-Y - 3"],
            ["-2 - 2*X", "2*X + 2*Y", "-2*Y + 2*X", "-2 + 3*X"],
            ["-2*Y + 3", "3 - 3*Y", "3*X - 3*Y"], ["X - 1", "Y - 2"], ["-2 + X"]],
        2: [["3*X + 2", "-3*Y + 2", "3 + X", "-X + 3", "-Y - 1"],
            ["1 + 3*X", "-2*X + 3*Y", "-Y + 2*X", "1 + 3*X"],
            ["3*Y - 2", "1 - 3*Y", "3*X + 2*Y"], ["-3*X + 3", "Y - 3"], ["3 + X"]],
        3: [["-3*X - 2", "2*Y - 1", "3 - 2*X", "-3*X + 2", "Y + 2"],
            ["-3 - X", "2*X - Y", "-2*Y - 2*X", "-1 + 3*X"],
            ["-Y - 1", "3 + Y", "X + 3*Y"], ["-X - 2", "-2*Y - 1"], ["2 - 2*X"]],
    }

    @staticmethod
    def skew_from_upper(upper):
        n = len(upper) + 1
        s = [[as_scalar(0)] * n for _ in range(n)]
        for i, row in enumerate(upper):
            for j, text in enumerate(row, start=i + 1):
                s[i][j] = parse_scalar(text)
                s[j][i] = -s[i][j]
        return s

    # a polynomial and an integer S (the int lane of linalg)
    PERTURBED_S = (
        [[as_scalar(v) for v in row] for row in
         ((0, 0, 1, X), (0, 0, Y, 1), (-1, -Y, 0, 0), (-X, -1, 0, 0))],
        [[as_scalar(v) for v in row] for row in
         ((0, 2, 1, -1), (-2, 0, 1, 2), (-1, -1, 0, 1), (1, -2, -1, 0))],
    )
    # an entry on, above and below the diagonal, moved by 1/X or by 1/3
    PERTURBATIONS = list(itertools.product(
        ((0, 0), (1, 3), (3, 2), (0, 2), (3, 1), (2, 2)), (1 / X, as_scalar(Fraction(1, 3)))))

    def test_perturbed_witness_refused(self):
        # sigma(W) W = -I fails once one entry of W moves
        for s in self.PERTURBED_S:
            cert = symplectic_minus_one(s)
            assert verify_hermsq(cert)
            for (i, j), delta in self.PERTURBATIONS:
                w = [list(row) for row in cert.witnesses[0]]
                w[i][j] = w[i][j] + delta
                assert not verify_hermsq(HermSqCertificate(cert.algebra, cert.target, [w]))

    @pytest.mark.parametrize("s", PERTURBED_S, ids=["polynomial", "integer"])
    def test_changed_witness_raises(self, monkeypatch, s):
        # the ring check W S W^t = -S reads the witness that is returned: a
        # W changed after its reduction raises CertificateError
        for (i, j), delta in self.PERTURBATIONS:
            def changed(num, dens, sign=0, reduce=linalg.divide):
                w = reduce(num, dens, sign)
                w[i][j] = w[i][j] + delta
                return w
            with monkeypatch.context() as m:
                m.setattr(certificates, "divide", changed)
                with pytest.raises(CertificateError):
                    symplectic_minus_one(s)

    def test_corrupted_inverse_changes_nothing(self, monkeypatch):
        # the check needs no S^-1, so a wrong one changes neither the
        # witness nor the verdict; the expansion sigma(W) W, which reads it,
        # would refuse the certificate
        s = self.skew_from_upper(self.RATIONAL_FORMS_S[1])
        want = symplectic_minus_one(s)
        wrong = [[as_scalar(1 if i == j else 0) for j in range(6)] for i in range(6)]
        monkeypatch.setattr(AlgebraWithInvolution, "_skew_inv", property(lambda alg: wrong))
        got = symplectic_minus_one(s)
        assert got.witnesses == want.witnesses and got.target == want.target
        assert not verify_hermsq(got)

    def test_builds_no_inverse(self, monkeypatch):
        # one reduction per nonzero entry of W and none for S^-1, which the
        # algebra has not built
        s = self.skew_from_upper(self.RATIONAL_FORMS_S[1])
        quotients = []

        def counted(v, d, quotient=linalg._quotient):
            quotients.append(v)
            return quotient(v, d)
        monkeypatch.setattr(linalg, "_quotient", counted)
        cert = symplectic_minus_one(s)
        assert "_skew_inv" not in cert.algebra.__dict__
        assert len(quotients) == sum(1 for row in cert.witnesses[0] for v in row if v)

    @pytest.mark.parametrize("seed", sorted(RATIONAL_FORMS_S))
    def test_expansion_agrees_at_the_benchmark_skew(self, seed):
        cert = symplectic_minus_one(self.skew_from_upper(self.RATIONAL_FORMS_S[seed]))
        assert verify_hermsq(cert)

    @pytest.mark.parametrize("n", [6, 8, 24])
    def test_expansion_agrees_at_the_scenario(self, monkeypatch, n):
        certs = []

        def recorded(s, build=symplectic_minus_one):
            certs.append(build(s))
            return certs[-1]
        monkeypatch.setattr(scenarios, "symplectic_minus_one", recorded)
        assert scenarios.run_scenario("thm4.7", n=n, seed=1)["confirmed"] is True
        assert len(certs) == 1 and verify_hermsq(certs[0])

    def test_singular_rejected(self):
        zero = as_scalar(0)
        s = [[zero, zero], [zero, zero]]
        with pytest.raises(SingularMatrixError):
            symplectic_minus_one(s)

    def test_not_skew_rejected(self):
        with pytest.raises(ShapeError):
            skew_congruence([[as_scalar(1), as_scalar(0)],
                             [as_scalar(0), as_scalar(1)]])


class TestPipelines:
    def test_main_matrix_case(self):
        report = counterexample_pipeline(X, Y, "F")
        assert report.verdict
        assert report.positivity_witness.verify()
        assert report.weak_rep.represents is False
        sigs = {str(p): s for p, s in report.signatures.items()}
        assert sigs == {"++": 9, "+-": 1, "-+": 1, "--": 1}
        assert [str(p) for p in report.sigma_orderings] == ["++"]
        assert [str(e) for e in report.entry_form.entries] == ["Y", "X", "1"]

    def test_main_quaternion_case(self):
        report = counterexample_pipeline(X, Y, QuaternionAlgebra(-1, -1))
        assert report.verdict
        sigs = {str(p): s for p, s in report.signatures.items()}
        assert sigs == {"++": 36, "+-": 4, "-+": 4, "--": 4}

    def test_degenerate_case_rejected_verdict(self):
        # alpha = 1 makes the form contain 1, so 1 is weakly represented
        # and no counterexample arises
        report = counterexample_pipeline(as_scalar(1), Y, "F")
        assert not report.verdict
        assert report.weak_rep.represents

    def test_sign_flip_transports(self):
        # replacing Y by -Y is a field automorphism, so the conclusion
        # carries over to <X, -Y, -XY>
        report = counterexample_pipeline(X, -Y, "F")
        assert report.verdict

    def test_non_monomial_rejected(self):
        with pytest.raises(HermsqError):
            counterexample_pipeline(X + 1, Y, "F")

    @pytest.mark.parametrize("base", ["F", QuaternionAlgebra(-1, -1)], ids=["F", "H"])
    def test_failed_positivity_witness_raises(self, monkeypatch, base):
        monkeypatch.setattr(TotalPositivityWitness, "verify", lambda self: False)
        with pytest.raises(CertificateError):
            counterexample_pipeline(X, Y, base)


class TestScenarioChecks:
    """Each certificate a scenario reports is verified once, inside the
    function that builds it; the scenario does not check it again."""

    # scenario: (options, verify_hermsq calls, ring checks of a -1
    # certificate, positivity witness checks)
    CHECKS = {
        # W S W^t = -S, and no expansion of sigma(W) W
        "thm4.7": ({"n": 8, "seed": 1}, 0, 1, 0),
        # three quaternion cases, four entry certificates each
        "prop4.1": ({}, 12, 0, 0),
        # the factor's four entry certificates, then one per composition
        "cor4.3": ({}, 6, 0, 0),
        "thm3.2": ({}, 0, 0, 1),
        "thm3.3": ({}, 0, 0, 1),
    }

    @pytest.mark.parametrize("name", CHECKS)
    def test_checks_per_run(self, monkeypatch, name):
        options, hermsq_checks, ring_checks, positivity_checks = self.CHECKS[name]
        calls = []

        def counted(cert, verify=certificates.verify_hermsq):
            calls.append("hermsq")
            return verify(cert)

        def counted_ring(s_num, w, check=certificates._minus_one_holds):
            calls.append("ring")
            return check(s_num, w)

        def counted_positivity(witness, verify=TotalPositivityWitness.verify):
            calls.append("positivity")
            return verify(witness)
        monkeypatch.setattr(certificates, "verify_hermsq", counted)
        monkeypatch.setattr(certificates, "_minus_one_holds", counted_ring)
        monkeypatch.setattr(TotalPositivityWitness, "verify", counted_positivity)
        result = scenarios.run_scenario(name, **options)
        assert result["confirmed"] is True
        assert calls.count("hermsq") == hermsq_checks
        assert calls.count("ring") == ring_checks
        assert calls.count("positivity") == positivity_checks
        assert not hasattr(scenarios, "verify_hermsq")


class TestPsdRational:
    def test_examples(self, monkeypatch):
        assert psd_symmetric_rational([[2, 1], [1, 2]])
        assert not psd_symmetric_rational([[1, 2], [2, 1]])
        assert psd_symmetric_rational([[0, 0], [0, 0]])
        assert not psd_symmetric_rational([[0, 1], [1, 0]])
        assert psd_symmetric_rational([[Fraction(1, 2)]])
        assert not psd_symmetric_rational([[-1]])
        assert psd_symmetric_rational([[0]])
        assert psd_symmetric_rational([])
        # a zero pivot that appears only after an elimination step: its row
        # is clear (PSD), or it is not (not PSD)
        assert psd_symmetric_rational([[1, 1], [1, 1]])
        assert psd_symmetric_rational([[4, 2, 2], [2, 1, 1], [2, 1, 3]])
        assert not psd_symmetric_rational([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
        # constant RationalFunctions over different denominators
        half, third, quarter, fifth = (as_scalar(Fraction(1, d)) for d in (2, 3, 4, 5))
        assert psd_symmetric_rational([[half, third], [third, quarter]])
        assert not psd_symmetric_rational([[half, third], [third, fifth]])
        # the pivots are the congruence kernel's, one elimination per row
        calls = []
        eliminate = linalg.Congruence.eliminate

        def counted(self, *args):
            calls.append(args)
            return eliminate(self, *args)

        monkeypatch.setattr(linalg.Congruence, "eliminate", counted)
        assert psd_symmetric_rational([[4, 2, 2], [2, 1, 1], [2, 1, 3]])
        assert len(calls) == 3

    def test_gram_matrices_psd(self):
        rng = random.Random(89)
        for _ in range(40):
            n = rng.randint(1, 5)
            k = rng.randint(1, 5)
            a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(n)] for _ in range(k)]
            g = [[sum(a[t][i] * a[t][j] for t in range(k)) for j in range(n)]
                 for i in range(n)]
            assert psd_symmetric_rational(g)
            # shifting the diagonal down past the smallest eigenvalue
            # eventually breaks positivity unless g is zero
            if any(g[i][i] != 0 for i in range(n)):
                bad = [[g[i][j] - (sum(g[t][t] for t in range(n)) + 1)
                        * (i == j) for j in range(n)] for i in range(n)]
                assert not psd_symmetric_rational(bad)

    def test_integral_builds_no_transform(self, monkeypatch):
        # the test reads only pivot signs, so its congruence keeps no
        # transform, and its answers are those of a congruence that keeps
        # one, on 400 seeded int matrices of sizes 1 to 5, half of them
        # Gram matrices (PSD, often singular)
        rng = random.Random(113)
        cases = []
        for k in range(400):
            n = rng.randint(1, 5)
            if k % 2:
                a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
                m = [[sum(r[i] * r[j] for r in a) for j in range(n)] for i in range(n)]
            else:
                m = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        m[i][j] = m[j][i] = rng.randint(-2, 6) if i == j else rng.randint(-3, 3)
            cases.append(m)
        built = []

        def recorded(matrix, sign, transform=True, build=linalg.Congruence):
            built.append(build(matrix, sign, transform))
            return built[-1]
        monkeypatch.setattr(certificates, "Congruence", recorded)
        got = [certificates._psd_integral(m) for m in cases]
        assert len(built) == 400 and all(red.t == [] for red in built)
        monkeypatch.setattr(certificates, "Congruence",
                            lambda matrix, sign, transform=True: linalg.Congruence(matrix, sign))
        assert got == [certificates._psd_integral(m) for m in cases]
        assert 100 < sum(got) < 300

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            psd_symmetric_rational([[1, 2]])
        with pytest.raises(ShapeError):
            psd_symmetric_rational([[1, 2], [3, 1]])
        with pytest.raises(ShapeError):
            psd_symmetric_rational([[X]])
        # entries are what as_scalar takes; a float is refused
        with pytest.raises(HermsqError):
            psd_symmetric_rational([[1.5]])
