"""Tests for the JSON serialization of forms, algebras and certificates."""

import pytest

from hermsq.certificates import (HermSqCertificate, WeightedCertificate,
                                 verify_hermsq, verify_weighted)
from hermsq.errors import ParseError, ShapeError
from hermsq.involutions import (AlgebraWithInvolution, InvolutionSpec,
                                QuaternionAlgebra)
from hermsq.jsonio import (algebra_from_json, algebra_to_json, dumps,
                           form_from_json, form_to_json, hermsq_cert_from_json,
                           hermsq_cert_to_json, loads, matrix_from_json,
                           matrix_to_json, psatz_cert_from_json,
                           psatz_cert_to_json, quat_from_json, quat_to_json,
                           weighted_cert_from_json, weighted_cert_to_json)
from hermsq.ncpoly import (NCPolynomial, PositivstellensatzCertificate,
                           verify_positivstellensatz)
from hermsq.qforms import DiagonalForm
from hermsq.scalars import X, Y, as_scalar


def thm32_algebra():
    q = DiagonalForm([X, Y, X * Y])
    return AlgebraWithInvolution("F", 3, InvolutionSpec.adjoint_diag(q))


class TestForms:
    def test_roundtrip(self):
        q = DiagonalForm([X, Y, X * Y])
        doc = form_to_json(q)
        assert doc == {"entries": ["X", "Y", "X*Y"]}
        assert form_from_json(doc) == q

    def test_dumps_loads(self):
        doc = {"entries": ["X", "1/2"]}
        assert loads(dumps(doc)) == doc
        with pytest.raises(ParseError):
            loads("{not json")


class TestQuaternions:
    def test_roundtrip(self):
        h = QuaternionAlgebra(-1, -3)
        v = h.elem(1, X, 0, Y)
        doc = quat_to_json(v)
        assert quat_from_json(h, doc) == v

    def test_wrong_length(self):
        h = QuaternionAlgebra(-1, -1)
        with pytest.raises(ParseError):
            quat_from_json(h, ["1", "2"])


class TestAlgebras:
    def algebras(self):
        h = QuaternionAlgebra(-1, -1)
        return [
            AlgebraWithInvolution("F", 2, InvolutionSpec.transpose()),
            thm32_algebra(),
            AlgebraWithInvolution("F", 4, InvolutionSpec.symplectic_standard()),
            AlgebraWithInvolution(h, 1, InvolutionSpec.quat_conjugation()),
            AlgebraWithInvolution(h, 1, InvolutionSpec.int_u_conj(h.i())),
            AlgebraWithInvolution(h, 3, InvolutionSpec.adjoint_hermitian(
                DiagonalForm([X, Y, X * Y]))),
            AlgebraWithInvolution("F", 2, InvolutionSpec.int_skew(
                [[as_scalar(0), X + 1], [-X - 1, as_scalar(0)]])),
        ]

    def test_roundtrips(self):
        for alg in self.algebras():
            doc = algebra_to_json(alg)
            back = algebra_from_json(doc)
            assert algebra_to_json(back) == doc
            assert back.n == alg.n
            assert back.sigma.kind == alg.sigma.kind
            # same involution action on the basis
            for e in alg.basis():
                assert alg.equal(alg.involution(e), back.involution(e))

    def test_unknown_kind(self):
        with pytest.raises(ShapeError):
            algebra_from_json({"base": "F", "n": 2,
                               "involution": {"kind": "mystery"}})

    def test_int_u_needs_quaternions(self):
        with pytest.raises(ShapeError):
            algebra_from_json({"base": "F", "n": 1,
                               "involution": {"kind": "int_u_conj",
                                              "u": ["0", "1", "0", "0"]}})

    @pytest.mark.parametrize("n", [0, -2])
    def test_nonpositive_size_rejected(self, n):
        # n < 1 used to give an algebra whose trace form is empty, so all
        # four orderings were sigma-orderings and an empty certificate verified
        doc = {"base": "F", "n": n, "involution": {"kind": "symplectic_standard"}}
        with pytest.raises(ShapeError, match=f"matrix size must be positive, got {n}"):
            algebra_from_json(doc)

    @pytest.mark.parametrize("doc", [
        {"base": "F"},
        {"base": 5, "n": 2, "involution": {"kind": "transpose"}},
        {"base": "F", "n": "x", "involution": {"kind": "transpose"}},
        {"base": "F", "n": 2, "involution": {"kind": "adjoint_diag"}},
        {"base": "F", "n": 2, "involution": {"kind": "adjoint_diag", "q": ["X", 1]}},
        {"base": {"quaternion": {"a": "-1"}}, "n": 1,
         "involution": {"kind": "quat_conjugation"}},
        {"base": "F", "n": 2, "involution": {"kind": "int_skew", "s": ["0", "1"]}},
        [1, 2],
    ])
    def test_malformed_documents(self, doc):
        with pytest.raises((ShapeError, ParseError)):
            algebra_from_json(doc)


class TestMatrices:
    def test_scalar_matrix_roundtrip(self):
        alg = thm32_algebra()
        m = alg.unit(0, 1, X)
        doc = matrix_to_json(alg, m)
        assert alg.equal(matrix_from_json(alg, doc), m)

    def test_quaternion_matrix_roundtrip(self):
        h = QuaternionAlgebra(-1, -1)
        alg = AlgebraWithInvolution(h, 2, InvolutionSpec.adjoint_hermitian(
            DiagonalForm([X, Y])))
        m = alg.unit(0, 1, h.elem(1, 2, 3, 4))
        doc = matrix_to_json(alg, m)
        assert alg.equal(matrix_from_json(alg, doc), m)


class TestCertificates:
    def test_hermsq_roundtrip(self):
        alg = thm32_algebra()
        b = alg.unit(0, 1, X)
        cert = HermSqCertificate(alg, alg.mul(alg.involution(b), b), [b])
        doc = hermsq_cert_to_json(cert)
        back = hermsq_cert_from_json(doc)
        assert verify_hermsq(back)
        assert hermsq_cert_to_json(back) == doc

    def test_weighted_roundtrip(self):
        alg = thm32_algebra()
        cert = WeightedCertificate(alg, alg.scalar(X * Y), [X * Y],
                                   {"1": [alg.identity()]})
        doc = weighted_cert_to_json(cert)
        back = weighted_cert_from_json(doc)
        assert verify_weighted(back)
        assert weighted_cert_to_json(back) == doc

    def test_psatz_roundtrip(self):
        x1 = NCPolynomial.variable(1)
        cert = PositivstellensatzCertificate(
            g=x1.star() * x1, h=NCPolynomial.one(), n=2, J="orthogonal",
            weights=[], terms={"": [x1]})
        doc = psatz_cert_to_json(cert)
        back = psatz_cert_from_json(doc)
        assert verify_positivstellensatz(back)
        assert psatz_cert_to_json(back) == doc

    SHARED_FAULTS = [("target", None), ("target", 5), ("target", ["X"]),
                     ("target", [[5, "0", "0"]] * 3), ("algebra", None), ("algebra", 5)]

    @pytest.mark.parametrize("kind, key, value", [
        *(("hermsq", k, v) for k, v in SHARED_FAULTS),
        *(("weighted", k, v) for k, v in SHARED_FAULTS),
        ("hermsq", "witnesses", "x"), ("hermsq", "witnesses", [5]), ("hermsq", "witnesses", None),
        ("weighted", "weights", [1]), ("weighted", "terms", {"1": 5}), ("weighted", "terms", None),
    ])
    def test_malformed_certificates(self, kind, key, value):
        # a missing key (None) or a value of the wrong type is a ShapeError
        # or ParseError, never a KeyError or TypeError
        alg = thm32_algebra()
        if kind == "hermsq":
            b = alg.unit(0, 1, X)
            doc = hermsq_cert_to_json(HermSqCertificate(alg, alg.mul(alg.involution(b), b), [b]))
            read = hermsq_cert_from_json
        else:
            doc = weighted_cert_to_json(WeightedCertificate(alg, alg.scalar(X * Y), [X * Y],
                                                            {"1": [alg.identity()]}))
            read = weighted_cert_from_json
        doc[key] = value
        if value is None:
            del doc[key]
        with pytest.raises((ShapeError, ParseError)):
            read(doc)
        with pytest.raises(ShapeError):
            read([doc])

    def test_malformed_quaternion_matrix(self):
        h = QuaternionAlgebra(-1, -1)
        alg = AlgebraWithInvolution(h, 1, InvolutionSpec.quat_conjugation())
        for doc in ([["1"]], [[["1", "0", "0", 0]]], [5], 5):
            with pytest.raises((ShapeError, ParseError)):
                matrix_from_json(alg, doc)

    def test_structure_algebra_cert_has_no_json(self):
        from hermsq.certificates import prop41_certificates, tensor_certificates
        quat = QuaternionAlgebra(-1, -1)
        c = prop41_certificates(quat, InvolutionSpec.quat_conjugation())[0][1]
        t = tensor_certificates(c, c)
        with pytest.raises(ShapeError):
            hermsq_cert_to_json(t)
