"""JSON serialization for forms, algebras, matrices and certificates.

Scalars travel as canonical grammar strings, matrices row-major; quaternion
entries are 4-element coordinate lists.  Parsing then printing a canonical
document is the identity.
"""

import json
from fractions import Fraction

from .errors import ParseError, ShapeError
from .scalars import format_scalar, parse_scalar
from .qforms import DiagonalForm, GramForm
from .involutions import (AlgebraWithInvolution, InvolutionSpec, QuatElem,
                          QuaternionAlgebra)
from .certificates import (HermSqCertificate, WeightedCertificate,
                           format_selector)
from .ncpoly import PositivstellensatzCertificate, format_nc, parse_nc

_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _typed(value, kind, what, items=None):
    """value, checked to have the JSON type kind, and each entry of a list
    the type items; the error names what the value is."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ShapeError(f"{what} must be {_KINDS[kind]}")
    for item in value if items else ():
        _typed(item, items, f"each entry of {what}")
    return value


def _field(doc, key, kind, what, items=None):
    """doc[key], where doc must be an object holding key."""
    if not isinstance(doc, dict) or key not in doc:
        raise ShapeError(f"{what} must be a JSON object with the key {key!r}")
    return _typed(doc[key], kind, f"{what} key {key!r}", items)


def form_to_json(form):
    return {"entries": [format_scalar(e) for e in form.entries]}


def form_from_json(doc):
    return DiagonalForm([parse_scalar(s)
                         for s in _field(doc, "entries", list, "form", str)])


def gram_from_json(doc):
    """{"matrix": rows of scalar strings} as a GramForm."""
    rows = _field(doc, "matrix", list, "Gram document")
    return GramForm([[parse_scalar(v) for v in _typed(row, list, "Gram matrix row", str)]
                     for row in rows])


def _rational(v):
    if isinstance(v, (int, float, str)) and not isinstance(v, bool):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    raise ParseError(f"matrix entry {v!r} is not a rational number", 0)


def matrices_from_json(doc):
    """A list of row-major matrices with rational entries (numbers or
    strings such as "2/3")."""
    return [[[_rational(v) for v in _typed(row, list, "matrix row")]
             for row in _typed(m, list, "each matrix")]
            for m in _typed(doc, list, "the matrix tuple")]


def quat_to_json(x):
    return [format_scalar(c) for c in x.coords]


def quat_from_json(algebra, doc):
    if len(doc) != 4:
        raise ParseError("quaternion coordinate list must have 4 entries", 0)
    return QuatElem(algebra, tuple(parse_scalar(s) for s in doc))


def algebra_to_json(algebra):
    if isinstance(algebra.base, QuaternionAlgebra):
        base = {"quaternion": {"a": format_scalar(algebra.base.a),
                               "b": format_scalar(algebra.base.b)}}
    else:
        base = "F"
    sigma = algebra.sigma
    inv = {"kind": sigma.kind}
    if sigma.kind in ("adjoint_diag", "adjoint_hermitian"):
        inv["q"] = [format_scalar(e) for e in sigma.q.entries]
    elif sigma.kind == "int_u_conj":
        inv["u"] = quat_to_json(sigma.u)
    elif sigma.kind == "int_skew":
        inv["s"] = [[format_scalar(v) for v in row] for row in sigma.skew]
    return {"base": base, "n": algebra.n, "involution": inv}


def algebra_from_json(doc):
    base = doc["base"]
    if base == "F":
        base_alg = "F"
    else:
        q = base["quaternion"]
        base_alg = QuaternionAlgebra(parse_scalar(q["a"]), parse_scalar(q["b"]))
    inv = doc["involution"]
    kind = inv["kind"]
    if kind == "transpose":
        sigma = InvolutionSpec.transpose()
    elif kind == "adjoint_diag":
        sigma = InvolutionSpec.adjoint_diag(
            DiagonalForm([parse_scalar(s) for s in inv["q"]]))
    elif kind == "adjoint_hermitian":
        sigma = InvolutionSpec.adjoint_hermitian(
            DiagonalForm([parse_scalar(s) for s in inv["q"]]))
    elif kind == "quat_conjugation":
        sigma = InvolutionSpec.quat_conjugation()
    elif kind == "int_u_conj":
        if base_alg == "F":
            raise ShapeError("int_u_conj requires a quaternion base")
        sigma = InvolutionSpec.int_u_conj(quat_from_json(base_alg, inv["u"]))
    elif kind == "symplectic_standard":
        sigma = InvolutionSpec.symplectic_standard()
    elif kind == "int_skew":
        sigma = InvolutionSpec.int_skew(
            [[parse_scalar(v) for v in row] for row in inv["s"]])
    else:
        raise ShapeError(f"unknown involution kind {kind!r}")
    return AlgebraWithInvolution(base_alg, doc["n"], sigma)


def matrix_to_json(algebra, m):
    if isinstance(algebra.base, QuaternionAlgebra):
        return [[quat_to_json(v) for v in row] for row in m]
    return [[format_scalar(v) for v in row] for row in m]


def matrix_from_json(algebra, doc):
    if isinstance(algebra.base, QuaternionAlgebra):
        rows = [[quat_from_json(algebra.base, v) for v in row] for row in doc]
    else:
        rows = [[parse_scalar(v) for v in row] for row in doc]
    return algebra.elem(rows)


def _target_to_json(algebra, target):
    return matrix_to_json(algebra, target)


def hermsq_cert_to_json(cert):
    alg = cert.algebra
    if not isinstance(alg, AlgebraWithInvolution):
        raise ShapeError("only matrix-algebra certificates have a JSON form")
    return {"algebra": algebra_to_json(alg),
            "target": _target_to_json(alg, cert.target),
            "witnesses": [matrix_to_json(alg, w) for w in cert.witnesses]}


def hermsq_cert_from_json(doc):
    alg = algebra_from_json(doc["algebra"])
    return HermSqCertificate(alg,
                             matrix_from_json(alg, doc["target"]),
                             [matrix_from_json(alg, w) for w in doc["witnesses"]])


def weighted_cert_to_json(cert):
    alg = cert.algebra
    if not isinstance(alg, AlgebraWithInvolution):
        raise ShapeError("only matrix-algebra certificates have a JSON form")
    return {"algebra": algebra_to_json(alg),
            "target": _target_to_json(alg, cert.target),
            "weights": [format_scalar(w) for w in cert.weights],
            "terms": {format_selector(eps): [matrix_to_json(alg, x) for x in xs]
                      for eps, xs in cert.terms.items()}}


def weighted_cert_from_json(doc):
    alg = algebra_from_json(doc["algebra"])
    return WeightedCertificate(
        alg,
        matrix_from_json(alg, doc["target"]),
        [parse_scalar(w) for w in doc["weights"]],
        {key: [matrix_from_json(alg, x) for x in xs]
         for key, xs in doc["terms"].items()})


def psatz_cert_to_json(cert):
    return {"g": format_nc(cert.g), "h": format_nc(cert.h),
            "n": cert.n, "J": cert.J,
            "weights": [format_nc(a) for a in cert.weights],
            "terms": {format_selector(eps): [format_nc(p) for p in ps]
                      for eps, ps in cert.terms.items()}}


def psatz_cert_from_json(doc):
    what = "certificate"
    g = parse_nc(_field(doc, "g", str, what))
    h = parse_nc(_field(doc, "h", str, what))
    n = _field(doc, "n", int, what)
    if n < 1:
        raise ShapeError(f"certificate key 'n' must be positive, got {n}")
    return PositivstellensatzCertificate(
        g, h, n, _field(doc, "J", str, what),
        [parse_nc(a) for a in _field(doc, "weights", list, what, str)],
        {key: [parse_nc(p) for p in _typed(ps, list, f"certificate term {key!r}", str)]
         for key, ps in _field(doc, "terms", dict, what).items()})


def dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}", exc.pos)
