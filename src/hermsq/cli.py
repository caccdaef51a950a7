"""Command-line front end.

Exit codes: 0 claim confirmed / verification passed / property holds,
1 claim refuted / property fails, 2 bad input or resource limits.
"""

import argparse
import sys

from .errors import HermsqError, ResourceLimitError
from .scalars import MonomialOrdering, format_scalar, parse_scalar
from .qforms import (DiagonalForm, diagonalize, is_isotropic_Q,
                     is_weakly_isotropic_Q, weakly_represents_one)
from .jsonio import (dumps, form_from_json, gram_from_json, loads,
                     matrices_from_json, psatz_cert_from_json)
from .ncpoly import (degree_cap, is_central_nonvanishing, is_identity_mod_a, nc_eval,
                     parse_nc, psd_falsify, positivstellensatz_conditions)
from .scenarios import SCENARIOS, run_scenario


def _read_json(path):
    with open(path) as fh:
        return loads(fh.read())


def _load_form(args):
    if args.json:
        return form_from_json(_read_json(args.json))
    if not args.entries:
        raise HermsqError("no form given; pass entries or --json FILE")
    return DiagonalForm([parse_scalar(s) for s in args.entries])


def _emit(args, doc, text_lines):
    if args.output == "json":
        sys.stdout.write(dumps(doc))
    else:
        for line in text_lines:
            print(line)


def _add_form_args(p):
    p.add_argument("entries", nargs="*", help="diagonal entries in the scalar grammar")
    p.add_argument("--json", help="read the form from a JSON file instead")
    p.add_argument("--output", choices=("json", "text"), default="text")


def _cmd_qf_diag(args):
    doc = _read_json(args.json) if args.json else None
    if isinstance(doc, dict) and "matrix" in doc:
        result = diagonalize(gram_from_json(doc))
        entries = [format_scalar(e) for e in result.form.entries]
        transform = [[format_scalar(v) for v in row] for row in result.transform]
        _emit(args, {"entries": entries, "transform": transform},
              [" ".join(entries)])
        return 0
    form = _load_form(args) if doc is None else form_from_json(doc)
    _emit(args, {"entries": [format_scalar(e) for e in form.entries]},
          [" ".join(format_scalar(e) for e in form.entries)])
    return 0


def _cmd_qf_isotropy(args):
    form = _load_form(args)
    if args.weak:
        result = is_weakly_isotropic_Q(form)
        label = "weakly isotropic"
    else:
        result = is_isotropic_Q(form)
        label = "isotropic"
    _emit(args, {label.replace(" ", "_"): result}, [f"{label}: {result}"])
    return 0 if result else 1


def _cmd_qf_weak_rep_one(args):
    form = _load_form(args)
    rep = weakly_represents_one(form)
    doc = {"weakly_represents_one": rep.represents}
    lines = [f"weakly represents 1: {rep.represents}"]
    if rep.represents:
        doc["copies"] = rep.copies
        doc["vectors"] = [[format_scalar(v) for v in vec] for vec in rep.vectors]
        lines.append(f"copies: {rep.copies}")
    _emit(args, doc, lines)
    return 0 if rep.represents else 1


# argparse cannot carry the ordering "--" as a value: it strips "--" even
# from "--ordering=--" (Python 3.11 and earlier) and reads a detached "--" or
# "-+" as an option.  So main() hands the value over behind this marker,
# which the option's type takes off again.
_VALUE_MARK = "\x00"


def _quote_ordering(argv):
    """argv with each --ordering value (attached or detached, before the
    end-of-options marker) rewritten as --ordering=<mark><value>."""
    out = []
    rest = iter(argv)
    for tok in rest:
        if tok == "--":
            out.append(tok)
            out.extend(rest)
            break
        if tok == "--ordering":
            tok = "--ordering=" + next(rest, "")
        if tok.startswith("--ordering="):
            tok = "--ordering=" + _VALUE_MARK + tok[len("--ordering="):]
        out.append(tok)
    return out


def _ordering_value(text):
    return text[len(_VALUE_MARK):] if text.startswith(_VALUE_MARK) else text


def _cmd_qf_signature(args):
    form = _load_form(args)
    ordering = MonomialOrdering.parse(args.ordering)
    sig = form.signature(ordering)
    _emit(args, {"ordering": args.ordering, "signature": sig},
          [f"signature at {args.ordering}: {sig}"])
    return 0


def _cmd_nc_eval(args):
    poly = parse_nc(args.poly, degree_cap())
    mats = matrices_from_json(loads(args.matrices))
    value = nc_eval(poly, mats)
    try:
        value = [[str(v) for v in row] for row in value]
    except ValueError:   # an int over sys.get_int_max_str_digits()
        raise ResourceLimitError("the value has an entry too long to print (over "
                                 f"{sys.get_int_max_str_digits()} digits)") from None
    _emit(args, {"value": value}, [str(value)])
    return 0


def _cmd_nc_identity(args):
    result = is_identity_mod_a(parse_nc(args.poly, degree_cap()), args.n, args.type)
    _emit(args, {"identity": result}, [f"identity mod a: {result}"])
    return 0 if result else 1


def _cmd_nc_central(args):
    result = is_central_nonvanishing(parse_nc(args.poly, degree_cap()), args.n, args.type)
    _emit(args, {"central_nonvanishing": result},
          [f"central nonvanishing: {result}"])
    return 0 if result else 1


def _cmd_nc_falsify(args):
    found = psd_falsify(parse_nc(args.poly, degree_cap()), args.n, args.trials, args.seed,
                        args.bound)
    if found is None:
        _emit(args, {"counterexample": None},
              ["no counterexample found"])
        return 0
    doc = {"counterexample": [[[str(v) for v in row] for row in m]
                              for m in found]}
    _emit(args, doc, ["counterexample found:",
                      *(str([[str(v) for v in row] for row in m])
                        for m in found)])
    return 1


def _cmd_nc_verify_cert(args):
    cert = psatz_cert_from_json(_read_json(args.file), degree_cap())
    conditions = positivstellensatz_conditions(cert)
    ok = all(conditions.values())
    _emit(args, {"conditions": conditions, "verified": ok},
          [f"{k}: {v}" for k, v in conditions.items()] + [f"verified: {ok}"])
    return 0 if ok else 1


def _cmd_scenario(args):
    result = run_scenario(args.name, n=args.n, seed=args.seed)
    lines = [f"{k}: {v}" for k, v in result.items()]
    _emit(args, result, lines)
    return 0 if result["confirmed"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hermsq",
        description="Exact quadratic-form, involution-algebra and "
                    "hermitian-square certificate toolkit.",
        epilog="Scalar grammar: integers, p/q, X, Y, "
               "operators + - * / ^ and parentheses. NC grammar: sums of "
               "terms 'c x1 x2* ...'. Forms as JSON: {\"entries\": [...]}.")
    sub = parser.add_subparsers(dest="command", required=True)

    qf = sub.add_parser("qf", help="diagonal quadratic forms")
    qfsub = qf.add_subparsers(dest="subcommand", required=True)
    p = qfsub.add_parser("diag", help="print the canonical diagonal form")
    _add_form_args(p)
    p.set_defaults(func=_cmd_qf_diag)
    p = qfsub.add_parser("isotropy", help="isotropy over Q")
    _add_form_args(p)
    p.add_argument("--weak", action="store_true", help="test weak isotropy")
    p.set_defaults(func=_cmd_qf_isotropy)
    p = qfsub.add_parser("weak-rep-one",
                         help="weak representation of 1 (monomial entries)")
    _add_form_args(p)
    p.set_defaults(func=_cmd_qf_weak_rep_one)
    p = qfsub.add_parser("signature", help="signature at a monomial ordering")
    _add_form_args(p)
    p.add_argument("--ordering", required=True, type=_ordering_value,
                   choices=("++", "+-", "-+", "--"))
    p.set_defaults(func=_cmd_qf_signature)

    nc = sub.add_parser("nc", help="noncommutative polynomials")
    ncsub = nc.add_subparsers(dest="subcommand", required=True)
    p = ncsub.add_parser("eval", help="evaluate on a rational matrix tuple")
    p.add_argument("--poly", required=True)
    p.add_argument("--matrices", required=True,
                   help="JSON list of row-major matrices")
    p.add_argument("--output", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_nc_eval)
    for name, func, extra in (
            ("identity", _cmd_nc_identity, "test membership in the identity ideal"),
            ("central", _cmd_nc_central, "test central nonvanishing")):
        p = ncsub.add_parser(name, help=extra)
        p.add_argument("--poly", required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--type", choices=("orthogonal", "symplectic"),
                       default="orthogonal")
        p.add_argument("--output", choices=("json", "text"), default="text")
        p.set_defaults(func=func)
    p = ncsub.add_parser("falsify", help="randomized PSD falsification")
    p.add_argument("--poly", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--output", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_nc_falsify)
    p = ncsub.add_parser("verify-cert",
                         help="verify a Positivstellensatz certificate file")
    p.add_argument("file")
    p.add_argument("--output", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_nc_verify_cert)

    p = sub.add_parser("scenario", help="run a named end-to-end computation")
    p.add_argument("name", choices=sorted(SCENARIOS))
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--output", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_scenario)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_quote_ordering(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (HermsqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
