"""Named end-to-end computations with fixed data, reported as plain dicts.

Each scenario returns {"scenario": name, "confirmed": bool, ...details}.
All output values are JSON-ready (strings, numbers, lists, dicts).
"""

import random
import time

from .errors import HermsqError, ShapeError
from .linalg import equal, identity
from .scalars import X, Y, as_scalar, format_scalar
from .qforms import DiagonalForm, weakly_represents_one
from .involutions import (AlgebraWithInvolution, InvolutionSpec,
                          QuaternionAlgebra, sigma_orderings, symbolic_elements)
from .certificates import (counterexample_pipeline, prop41_certificates,
                           psd_symmetric_rational, symplectic_minus_one,
                           tensor_certificates, verify_hermsq)
from .ncpoly import (NCPolynomial, commutator, is_central_nonvanishing,
                     is_identity_mod_a)


def _ordering_key(p):
    return repr(p).split("(")[1].rstrip(")")


def _pipeline_report(name, report):
    return {
        "scenario": name,
        "element": format_scalar(report.element),
        "positivity_witness_verified": report.positivity_witness.verify(),
        "signatures": {_ordering_key(p): s for p, s in report.signatures.items()},
        "sigma_orderings": [_ordering_key(p) for p in report.sigma_orderings],
        "entry_form": [format_scalar(e) for e in report.entry_form.entries],
        "weakly_represents_one": report.weak_rep.represents,
        "confirmed": report.verdict,
    }


def scenario_thm32(options):
    report = counterexample_pipeline(X, Y, "F")
    return _pipeline_report("thm3.2", report)


def scenario_thm33(options):
    report = counterexample_pipeline(X, Y, QuaternionAlgebra(-1, -1))
    return _pipeline_report("thm3.3", report)


def scenario_prop41(options):
    cases = [
        ("(-1,-1) conjugation", QuaternionAlgebra(-1, -1),
         InvolutionSpec.quat_conjugation()),
        ("(-1,-3) conjugation", QuaternionAlgebra(-1, -3),
         InvolutionSpec.quat_conjugation()),
        ("(-1,-1) Int(i) twist", QuaternionAlgebra(-1, -1), None),
    ]
    out = {"scenario": "prop4.1", "cases": []}
    confirmed = True
    for label, quat, sigma in cases:
        if sigma is None:
            sigma = InvolutionSpec.int_u_conj(quat.i())
        certs = prop41_certificates(quat, sigma)
        ok = all(verify_hermsq(c) for _, c in certs)
        confirmed = confirmed and ok
        out["cases"].append({"case": label,
                             "entries": [format_scalar(e) for e, _ in certs],
                             "verified": ok})
    out["confirmed"] = confirmed
    return out


def scenario_cor43(options):
    quat = QuaternionAlgebra(-1, -1)
    factors = [prop41_certificates(quat, InvolutionSpec.quat_conjugation())[0][1]
               for _ in range(3)]
    chained = tensor_certificates(tensor_certificates(factors[0], factors[1]),
                                  factors[2])
    ok = verify_hermsq(chained)
    return {"scenario": "cor4.3", "factors": 3,
            "target": format_scalar(chained.algebra.scalar_part(chained.target)),
            "witnesses": len(chained.witnesses), "confirmed": ok}


def scenario_thm47(options):
    n = 4 if options.get("n") is None else options["n"]
    # odd-size skew matrices are all singular, so the retries would not end
    if n < 2 or n % 2:
        raise ShapeError(f"thm4.7 needs an even matrix size n >= 2, got {n}")
    seed = options.get("seed") or 0
    rng = random.Random(seed)
    while True:
        s = [[as_scalar(0) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = as_scalar(rng.randint(-9, 9))
                s[i][j], s[j][i] = v, -v
        try:
            cert = symplectic_minus_one(s)
            break
        except HermsqError:
            continue
    return {"scenario": "thm4.7", "n": n, "seed": seed,
            "witness": [[format_scalar(v) for v in row]
                        for row in cert.witnesses[0]],
            "confirmed": verify_hermsq(cert)}


def scenario_lemma31(options):
    q = DiagonalForm([X, Y, X * Y])
    rep = weakly_represents_one(q)
    return {"scenario": "lemma3.1",
            "form": [format_scalar(e) for e in q.entries],
            "weakly_represents_one": rep.represents,
            "confirmed": not rep.represents}


def scenario_ex_psd(options):
    n = 2 if options.get("n") is None else options["n"]
    if n < 1:
        raise ShapeError(f"ex-psd needs a matrix size n >= 1, got {n}")
    alg = AlgebraWithInvolution("F", n, InvolutionSpec.transpose())
    gram = alg.trace_form().matrix
    identity_gram = equal(gram, identity(n * n, as_scalar(0), as_scalar(1)))
    orderings = sigma_orderings(alg)
    a = symbolic_elements(alg, 1)[0]
    trace = alg.trd(alg.hermitian_square(a))
    sum_squares = as_scalar(0)
    for row in a:
        for v in row:
            sum_squares = sum_squares + v * v
    psd_example = psd_symmetric_rational([[2, 1], [1, 2]])
    confirmed = (identity_gram and len(orderings) == 4
                 and trace == sum_squares and psd_example)
    return {"scenario": "ex-psd", "n": n,
            "identity_gram": identity_gram,
            "sigma_orderings": [_ordering_key(p) for p in orderings],
            "trace_is_sum_of_entry_squares": trace == sum_squares,
            "psd_example": psd_example,
            "confirmed": confirmed}


def scenario_hall_identity(options):
    x1, x2, x3 = (NCPolynomial.variable(i) for i in (1, 2, 3))
    hall = commutator(commutator(x1, x2) ** 2, x3)
    at2 = is_identity_mod_a(hall, 2)
    at3 = is_identity_mod_a(hall, 3)
    central = is_central_nonvanishing(commutator(x1, x2) ** 2, 2)
    return {"scenario": "hall-identity",
            "identity_at_n2": at2, "identity_at_n3": at3,
            "central_nonvanishing_at_n2": central,
            "confirmed": at2 and not at3 and central}


SCENARIOS = {
    "thm3.2": scenario_thm32,
    "thm3.3": scenario_thm33,
    "prop4.1": scenario_prop41,
    "cor4.3": scenario_cor43,
    "thm4.7": scenario_thm47,
    "lemma3.1": scenario_lemma31,
    "ex-psd": scenario_ex_psd,
    "hall-identity": scenario_hall_identity,
}


def run_scenario(name, **options):
    if name not in SCENARIOS:
        raise HermsqError(f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}")
    start = time.monotonic()
    result = SCENARIOS[name](options)
    result["seconds"] = round(time.monotonic() - start, 3)
    return result
