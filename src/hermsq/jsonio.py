"""JSON serialization for forms, algebras, matrices and certificates.

Scalars travel as canonical grammar strings, matrices row-major; quaternion
entries are 4-element coordinate lists.  Parsing then printing a canonical
document is the identity.
"""

import json
import sys
from fractions import Fraction

from .errors import ParseError, ResourceLimitError, ShapeError
from .scalars import format_scalar, parse_scalar
from .qforms import DiagonalForm, GramForm
from .involutions import (_INVOLUTION_KINDS, AlgebraWithInvolution,
                          InvolutionSpec, QuatElem, QuaternionAlgebra)
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


# the largest Gram matrix gram_from_json reads, so `qf diag --json` ends in
# about a second: with random two-term entries over {1, X, Y, XY},
# diagonalizing takes 0.13 / 0.33 / 0.65 / 1.65 / 2.85 / 9.2 s at n = 6 / 7 /
# 8 / 9 / 10 / 12 (2-vCPU VM, Python 3.11).  diagonalize itself has no cap:
# the trace form of thm3.3 is 36 x 36.
MAX_GRAM_N = 8


def gram_from_json(doc):
    """{"matrix": rows of scalar strings} as a GramForm, of at most
    MAX_GRAM_N rows."""
    rows = _field(doc, "matrix", list, "Gram document")
    if len(rows) > MAX_GRAM_N:
        raise ResourceLimitError(
            f"Gram matrix of size {len(rows)} exceeds the cap {MAX_GRAM_N}")
    return GramForm(_scalar_rows(rows, "Gram matrix row"))


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
    if len(_typed(doc, list, "quaternion coordinate list", str)) != 4:
        raise ParseError("quaternion coordinate list must have 4 entries", 0)
    return QuatElem(algebra, tuple(parse_scalar(s) for s in doc))


def _scalar_rows(rows, what):
    """A list of lists of scalar strings, parsed; what names one row."""
    return [[parse_scalar(v) for v in _typed(row, list, what, str)] for row in rows]


# involution parameter type -> (JSON key, type of the key's list items,
# writer, reader(value, base))
_INVOLUTION_PARAMS = {
    "form": ("q", str, lambda q: [format_scalar(e) for e in q.entries],
             lambda v, base: DiagonalForm([parse_scalar(s) for s in v])),
    "quaternion": ("u", str, quat_to_json, lambda v, base: quat_from_json(base, v)),
    "skew": ("s", list, lambda s: [[format_scalar(v) for v in row] for row in s],
             lambda v, base: _scalar_rows(v, "skew matrix row")),
}


def algebra_to_json(algebra):
    if isinstance(algebra.base, QuaternionAlgebra):
        base = {"quaternion": {"a": format_scalar(algebra.base.a),
                               "b": format_scalar(algebra.base.b)}}
    else:
        base = "F"
    sigma = algebra.sigma
    inv = {"kind": sigma.kind}
    ptype = _INVOLUTION_KINDS[sigma.kind][1]
    if ptype is not None:
        key, _, write, _ = _INVOLUTION_PARAMS[ptype]
        inv[key] = write(sigma.param)
    return {"base": base, "n": algebra.n, "involution": inv}


def algebra_from_json(doc):
    base = doc.get("base") if isinstance(doc, dict) else None
    if base != "F":
        q = _field(_field(doc, "base", dict, "algebra"), "quaternion", dict, "algebra base")
        base = QuaternionAlgebra(*(parse_scalar(_field(q, k, str, "quaternion base"))
                                   for k in "ab"))
    n = _field(doc, "n", int, "algebra")
    inv = _field(doc, "involution", dict, "algebra")
    kind = _field(inv, "kind", str, "involution")
    if kind not in _INVOLUTION_KINDS:
        raise ShapeError(f"unknown involution kind {kind!r}")
    ptype = _INVOLUTION_KINDS[kind][1]
    args = ()
    if ptype is not None:
        key, items, _, read = _INVOLUTION_PARAMS[ptype]
        args = (read(_field(inv, key, list, "involution", items), base),)
    return AlgebraWithInvolution(base, n, getattr(InvolutionSpec, kind)(*args))


def matrix_to_json(algebra, m):
    if isinstance(algebra.base, QuaternionAlgebra):
        return [[quat_to_json(v) for v in row] for row in m]
    return [[format_scalar(v) for v in row] for row in m]


def matrix_from_json(algebra, doc):
    rows = _typed(doc, list, "matrix", list)
    if isinstance(algebra.base, QuaternionAlgebra):
        rows = [[quat_from_json(algebra.base, v) for v in row] for row in rows]
    else:
        rows = _scalar_rows(rows, "matrix row")
    return algebra.elem(rows)


def hermsq_cert_to_json(cert):
    alg = cert.algebra
    if not isinstance(alg, AlgebraWithInvolution):
        raise ShapeError("only matrix-algebra certificates have a JSON form")
    return {"algebra": algebra_to_json(alg),
            "target": matrix_to_json(alg, cert.target),
            "witnesses": [matrix_to_json(alg, w) for w in cert.witnesses]}


def hermsq_cert_from_json(doc):
    what = "certificate"
    alg = algebra_from_json(_field(doc, "algebra", dict, what))
    return HermSqCertificate(alg,
                             matrix_from_json(alg, _field(doc, "target", list, what)),
                             [matrix_from_json(alg, w)
                              for w in _field(doc, "witnesses", list, what)])


def weighted_cert_to_json(cert):
    alg = cert.algebra
    if not isinstance(alg, AlgebraWithInvolution):
        raise ShapeError("only matrix-algebra certificates have a JSON form")
    return {"algebra": algebra_to_json(alg),
            "target": matrix_to_json(alg, cert.target),
            "weights": [format_scalar(w) for w in cert.weights],
            "terms": {format_selector(eps): [matrix_to_json(alg, x) for x in xs]
                      for eps, xs in cert.terms.items()}}


def weighted_cert_from_json(doc):
    what = "certificate"
    alg = algebra_from_json(_field(doc, "algebra", dict, what))
    return WeightedCertificate(
        alg,
        matrix_from_json(alg, _field(doc, "target", list, what)),
        [parse_scalar(w) for w in _field(doc, "weights", list, what, str)],
        {key: [matrix_from_json(alg, x) for x in _typed(xs, list, f"certificate term {key!r}")]
         for key, xs in _field(doc, "terms", dict, what).items()})


def psatz_cert_to_json(cert):
    return {"g": format_nc(cert.g), "h": format_nc(cert.h),
            "n": cert.n, "J": cert.J,
            "weights": [format_nc(a) for a in cert.weights],
            "terms": {format_selector(eps): [format_nc(p) for p in ps]
                      for eps, ps in cert.terms.items()}}


def psatz_cert_from_json(doc):
    """The certificate as it is read; the verification caps the degrees of
    h and the weights first, and of g and the squares after cancellation."""
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


def _json_int(tok):
    """The int of a JSON integer token; one over Python's int/str conversion
    limit (sys.get_int_max_str_digits()) is refused, not a ValueError."""
    try:
        return int(tok)
    except ValueError:
        raise ResourceLimitError(
            f"JSON number of {len(tok.lstrip('-'))} digits is too long to read "
            f"(the limit is {sys.get_int_max_str_digits()} digits)") from None


def loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}", exc.pos)
    except RecursionError:
        raise ParseError("malformed JSON: nested too deeply", 0) from None
    except ValueError:
        # a number over the digit limit: read again to name it
        return json.loads(text, parse_int=_json_int)
