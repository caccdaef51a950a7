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
from .ncpoly import (is_central_nonvanishing, is_identity_mod_a, nc_eval, parse_nc,
                     psd_falsify, positivstellensatz_conditions)
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
    poly = parse_nc(args.poly)
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
    result = is_identity_mod_a(parse_nc(args.poly), args.n, args.type)
    _emit(args, {"identity": result}, [f"identity mod a: {result}"])
    return 0 if result else 1


def _cmd_nc_central(args):
    result = is_central_nonvanishing(parse_nc(args.poly), args.n, args.type)
    _emit(args, {"central_nonvanishing": result},
          [f"central nonvanishing: {result}"])
    return 0 if result else 1


def _cmd_nc_falsify(args):
    found = psd_falsify(parse_nc(args.poly), args.n, args.trials, args.seed, args.bound)
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
    cert = psatz_cert_from_json(_read_json(args.file))
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


def _arg(*names, **kwargs):
    """One argument of a leaf, as `add_argument` takes it."""
    return names, kwargs


_OUTPUT = _arg("--output", choices=("json", "text"), default="text")
_FORM = (_arg("entries", nargs="*", help="diagonal entries in the scalar grammar"),
         _arg("--json", help="read the form from a JSON file instead"),
         _OUTPUT)
_POLY = _arg("--poly", required=True)
_N = _arg("--n", type=int, required=True)
_TYPE = _arg("--type", choices=("orthogonal", "symplectic"), default="orthogonal")

# The command tree: a group maps its name to (help, {child: ...}), a leaf to
# (help, handler, arguments).
_COMMANDS = {
    "qf": ("diagonal quadratic forms", {
        "diag": ("print the canonical diagonal form", _cmd_qf_diag, _FORM),
        "isotropy": ("isotropy over Q", _cmd_qf_isotropy,
                     (*_FORM, _arg("--weak", action="store_true", help="test weak isotropy"))),
        "weak-rep-one": ("weak representation of 1 (monomial entries)",
                         _cmd_qf_weak_rep_one, _FORM),
        "signature": ("signature at a monomial ordering", _cmd_qf_signature,
                      (*_FORM, _arg("--ordering", required=True, type=_ordering_value,
                                    choices=("++", "+-", "-+", "--")))),
    }),
    "nc": ("noncommutative polynomials", {
        "eval": ("evaluate on a rational matrix tuple", _cmd_nc_eval,
                 (_POLY, _arg("--matrices", required=True,
                              help="JSON list of row-major matrices"), _OUTPUT)),
        "identity": ("test membership in the identity ideal", _cmd_nc_identity,
                     (_POLY, _N, _TYPE, _OUTPUT)),
        "central": ("test central nonvanishing", _cmd_nc_central,
                    (_POLY, _N, _TYPE, _OUTPUT)),
        "falsify": ("randomized PSD falsification", _cmd_nc_falsify,
                    (_POLY, _N, _arg("--trials", type=int, default=100),
                     _arg("--seed", type=int, default=0), _arg("--bound", type=int, default=5),
                     _OUTPUT)),
        "verify-cert": ("verify a Positivstellensatz certificate file", _cmd_nc_verify_cert,
                        (_arg("file"), _OUTPUT)),
    }),
    "scenario": ("run a named end-to-end computation", _cmd_scenario,
                 (_arg("name", choices=sorted(SCENARIOS)), _arg("--n", type=int),
                  _arg("--seed", type=int), _OUTPUT)),
}


def _add_leaf(parser, handler, arguments):
    """Give `parser` a leaf's arguments and its handler."""
    for names, kwargs in arguments:
        parser.add_argument(*names, **kwargs)
    parser.set_defaults(func=handler)


def _add_commands(parser, dest, table):
    """Add all of `table`'s commands under `parser`, as the argument `dest`."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, *body) in table.items():
        p = sub.add_parser(name, help=help_text)
        if isinstance(body[0], dict):
            _add_commands(p, "subcommand", body[0])
        else:
            _add_leaf(p, *body)


def build_parser():
    """The full command tree.  main() builds it only for help and errors
    above a leaf, and for arguments a leaf leaves over (see _parse)."""
    parser = argparse.ArgumentParser(
        prog="hermsq",
        description="Exact quadratic-form, involution-algebra and "
                    "hermitian-square certificate toolkit.",
        epilog="Scalar grammar: integers, p/q, X, Y, "
               "operators + - * / ^ and parentheses. NC grammar: sums of "
               "terms 'c x1 x2* ...'. Forms as JSON: {\"entries\": [...]}.")
    _add_commands(parser, "command", _COMMANDS)
    return parser


def _parse(argv):
    """argv parsed as the full tree parses it, with one parser when argv's
    leading words name a leaf.

    That parser is the leaf's, as the full tree builds it (same prog, same
    arguments), and it gets the rest of argv, as in the tree; so its help,
    errors and namespace are the tree's, less the tree's `command` and
    `subcommand`, which nothing reads.  Any other argv goes to the full
    tree: help or an error above a leaf, and arguments the leaf leaves over,
    which the top level reports under its own usage line."""
    table = _COMMANDS
    for depth, word in enumerate(argv, 1):
        if word not in table:
            break
        body = table[word][1:]
        if isinstance(body[0], dict):
            table = body[0]
            continue
        leaf = argparse.ArgumentParser(prog="hermsq " + " ".join(argv[:depth]))
        _add_leaf(leaf, *body)
        args, extras = leaf.parse_known_args(argv[depth:])
        if not extras:
            return args
        break
    return build_parser().parse_args(argv)


def main(argv=None):
    """Run the command argv (sys.argv[1:] by default) names and return its
    exit code; help and usage errors exit through argparse (0 and 2)."""
    argv = _quote_ordering(sys.argv[1:] if argv is None else argv)
    args = _parse(argv)
    try:
        return args.func(args)
    except (HermsqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
