"""The four workloads: seeded inputs, the operations of one round, and the
check of each operation's output.

`build(name, seed, workdir)` returns the list of operations of one round.
Every operation calls the program through a module attribute looked up at
call time (``qforms.diagonalize(...)``, ``cli.main(...)``), so the wrappers
that the traced run installs see every call.  Checks use only `checks`.
"""

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import checks as C

# imported after run.py has put the checkout's src/ on sys.path
import hermsq
from hermsq import certificates, cli, jsonio, ncpoly, qforms, scalars

WORKLOADS = ("cli-mix", "rational-forms", "star-identities", "star-refutations")


class Op:
    """One timed call.  run() -> result; check(result, results) -> bool,
    where results maps operation names of the same round to their results;
    size(result) -> bytes of canonical text the call emitted.  A `fault`
    operation exercises a known program fault: it fails every time until
    the fault is fixed and then passes."""

    __slots__ = ("name", "run", "check", "size", "fault")

    def __init__(self, name, run, check, size=None, fault=False):
        self.name = name
        self.run = run
        self.check = check
        self.size = size or (lambda result: 0)
        self.fault = fault


def build(name, seed, workdir):
    rng = random.Random(f"{name}/{seed}")
    return _OPERATIONS[name](rng, workdir)


def _compact(doc):
    return len(json.dumps(doc, sort_keys=True, separators=(",", ":")))


# -- scalar inputs, written as text in the scalar grammar --------------------

def _monomial_text(c, i, j):
    body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in (("X", i), ("Y", j)) if e)
    if not body:
        return str(c)
    if c == 1:
        return body
    if c == -1:
        return f"-{body}"
    return f"{c}*{body}"


def _sum_text(terms):
    return " + ".join(_monomial_text(c, i, j) for c, i, j in terms).replace("+ -", "- ")


_MONOS_DEG2 = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
_MONOS_DEG1 = ((0, 0), (1, 0), (0, 1))


def _two_term_entry(rng, monos, a, b):
    """c1*m_a + c2*m_b with the monomials fixed by position and the
    coefficients seeded, so every seed gives the same cost profile."""
    a, b = a % len(monos), b % len(monos)
    if a == b:
        b = (b + 1) % len(monos)
    return _sum_text([(rng.choice((-3, -2, -1, 1, 2, 3)), *monos[a]),
                      (rng.choice((-3, -2, -1, 1, 2, 3)), *monos[b])])


def _nonsingular(rows, rng):
    """Nonsingular over Q(X,Y) when nonsingular at one rational point."""
    for point in C.rational_points(rng, 4):
        if not C.is_singular(C.eval_matrix(rows, point)):
            return True
    return False


def _gram_text(rng, n, monos, offset):
    while True:
        g = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = _two_term_entry(rng, monos, i + 2 * j + offset,
                                                    3 * i + j + 1 + offset)
        if _nonsingular(g, rng):
            return g


def _skew_text(rng, n, monos):
    while True:
        s = [["0"] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = _two_term_entry(rng, monos, i + j, i + 2 * j + 1)
                s[i][j], s[j][i] = v, f"-({v})"
        if _nonsingular(s, rng):
            return s


def _shape(tag, k):
    """Unseeded generator for the structure of input k (its monomials,
    words and signs); the seed picks only magnitudes, so every seed gives
    the same answers and the same cost profile."""
    return random.Random(f"shape/{tag}/{k}")


def _random_poly_terms(rng, shape, degree):
    monos = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    return [(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), i, j)
            for i, j in shape.sample(monos, shape.randint(2, 3))]


def _polynomial(terms):
    """Program polynomial built through the public constructors."""
    P = hermsq.Polynomial
    total = P.zero()
    for c, i, j in terms:
        total = total + P.const(c) * P.variable("X", i) * P.variable("Y", j)
    return total


def _fraction_text(rng):
    if rng.random() < 0.7:
        return str(rng.choice((-1, 1)) * rng.randint(1, 30))
    return f"{rng.choice((-1, 1)) * rng.randint(1, 12)}/{rng.randint(2, 9)}"


_MONOMIAL_COEFFS = (1, 2, 3, 5, Fraction(1, 2), Fraction(2, 3))


def _random_monomial_form(rng, shape):
    """c X^i Y^j entries: signs and exponent parities from shape, the
    coefficient sizes and the even part of the exponents from rng."""
    return [(shape.choice((-1, 1)) * rng.choice(_MONOMIAL_COEFFS),
             shape.randint(0, 1) + 2 * rng.randint(0, 1),
             shape.randint(0, 1) + 2 * rng.randint(0, 1))
            for _ in range(shape.randint(3, 4))]


def _ordering_text(sx, sy):
    return ("+" if sx > 0 else "-") + ("+" if sy > 0 else "-")


# -- cli-mix ---------------------------------------------------------------

def _cli_op(name, argv, check, fault=False):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                rc = exc.code
        return rc, out.getvalue()

    def size(result):
        doc = json.loads(result[1])
        doc.pop("seconds", None)  # wall-clock field of scenario reports
        return _compact(doc)

    return Op(name, run, check, None if fault else size, fault)


def _json_check(want_rc, predicate):
    """The exit code must be want_rc(doc) and predicate(doc) must hold for
    the printed JSON document doc."""
    def check(result, results):
        rc, text = result
        doc = json.loads(text)
        return rc == want_rc(doc) and predicate(doc)
    return check


def _sigma_orderings_consistent(doc, dim):
    sigs = doc["signatures"]
    full = sorted(p for p, s in sigs.items() if s == dim)
    return (full and sorted(doc["sigma_orderings"]) == full
            and all(abs(s) <= dim and (dim - s) % 2 == 0 for s in sigs.values()))


_XY_XY = [(1, 1, 0), (1, 0, 1), (1, 1, 1)]  # <X, Y, XY> as (c, i, j)


def _pipeline_ok(dim):
    # Theorems 3.2/3.3: XY is totally positive but not a sum of hermitian
    # squares, because <X, Y, XY> does not weakly represent 1
    def ok(doc):
        return (doc["confirmed"] is True and doc["positivity_witness_verified"] is True
                and doc["element"] == "X*Y"
                and doc["weakly_represents_one"] is C.weakly_represents_one(_XY_XY) is False
                and _sigma_orderings_consistent(doc, dim))
    return ok


def _prop41_ok(doc):
    want = {"(-1,-1) conjugation": [2, 2, 2, 2],      # 2<1, -a, -b, ab>
            "(-1,-3) conjugation": [2, 2, 6, 6]}
    for case in doc["cases"]:
        values = sorted(C.evaluate(e, {}) for e in case["entries"])
        if case["verified"] is not True:
            return False
        if case["case"] in want and values != want[case["case"]]:
            return False
        if "twist" in case["case"] and sorted(
                C.squarefree(v.numerator * v.denominator) for v in values) != [-2, -2, 2, 2]:
            return False
    return doc["confirmed"] is True and len(doc["cases"]) == 3


def _cor43_ok(doc):
    # the tensor cube of the (-1,-1) certificate for 2 certifies 2^3
    return (doc["confirmed"] is True and doc["factors"] == 3
            and C.evaluate(doc["target"], {}) == 8 and doc["witnesses"] >= 1)


def _thm47_skew(n, seed):
    """The skew matrix scenario thm4.7 draws: upper-triangle entries
    random.Random(seed).randint(-9, 9), redrawn while singular."""
    rng = random.Random(seed)
    while True:
        s = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randint(-9, 9)
                s[i][j], s[j][i] = Fraction(v), Fraction(-v)
        if not C.is_singular(s):
            return s


def _thm47_ok(doc):
    s = _thm47_skew(doc["n"], doc["seed"])
    w = [[C.evaluate(v, {}) for v in row] for row in doc["witness"]]
    return doc["confirmed"] is True and C.minus_one_witness_holds(s, w)


def _ex_psd_ok(doc):
    # Trd(x^t y) = sum x_ij y_ij: the transpose trace form is the identity
    # Gram matrix in the matrix-unit basis, positive at every ordering;
    # [[2,1],[1,2]] has leading minors 2 and 3
    return (doc["confirmed"] is True and doc["identity_gram"] is True
            and sorted(doc["sigma_orderings"]) == ["++", "+-", "-+", "--"]
            and doc["trace_is_sum_of_entry_squares"] is True
            and doc["psd_example"] is True)


def _hall_ok(memo, rng):
    x = [C.nc_var(i) for i in (1, 2, 3)]
    c2 = C.nc_mul(C.commutator(x[0], x[1]), C.commutator(x[0], x[1]))
    hall = C.commutator(c2, x[2])

    def ok(doc):
        if not memo:
            mats = C.find_nonzero_value(c2, 2, "orthogonal", rng)
            memo.append(
                C.vanishes_on_samples(hall, 2, "orthogonal", rng)            # Hall
                and C.find_nonzero_value(hall, 3, "orthogonal", rng) is not None
                and mats is not None
                and C.is_nonzero_scalar(C.nc_value(c2, mats, "orthogonal")))
        return (memo[0] and doc["confirmed"] is True and doc["identity_at_n2"] is True
                and doc["identity_at_n3"] is False
                and doc["central_nonvanishing_at_n2"] is True)
    return ok


def _lemma31_ok(doc):
    return (doc["confirmed"] is True and doc["form"] == ["X", "Y", "X*Y"]
            and doc["weakly_represents_one"] is C.weakly_represents_one(_XY_XY))


def _weak_rep_check(entries, rng):
    texts = [_monomial_text(c, i, j) for c, i, j in entries]

    def ok(doc):
        want = C.weakly_represents_one(entries)
        if doc["weakly_represents_one"] is not want:
            return False
        if want and C.negative_definite_somewhere(entries):
            return False
        if not want:
            return True
        vectors = doc["vectors"]
        if doc["copies"] != len(vectors) or any(len(v) != len(texts) for v in vectors):
            return False
        return C.holds_at_points(
            lambda pt: sum(C.evaluate(q, pt) * C.evaluate(v, pt) ** 2
                           for row in vectors for q, v in zip(texts, row)) == 1, rng)
    return ok


def _diag_json_ok(gram, rng):
    def ok(doc):
        return len(doc["entries"]) == len(gram) and C.holds_at_points(
            lambda pt: C.congruence_holds(gram, doc["transform"], doc["entries"], pt), rng)
    return ok


def _hermitian_square(rng, shape):
    """p* p for p with two or three short words over x1, x2 and their stars."""
    p = {}
    while len(p) < 2:
        word = tuple(shape.choice((1, -1)) * shape.randint(1, 2)
                     for _ in range(shape.randint(0, 2)))
        p = C.nc_add(p, {word: Fraction(rng.randint(1, 4) * rng.choice((1, -1)))})
    return p, C.nc_mul(C.nc_star(p), p)


def _cli_mix(rng, workdir):
    ops = []
    scenario_checks = {
        "thm3.2": _pipeline_ok(9), "thm3.3": _pipeline_ok(36), "prop4.1": _prop41_ok,
        "cor4.3": _cor43_ok, "thm4.7": _thm47_ok, "lemma3.1": _lemma31_ok,
        "ex-psd": _ex_psd_ok, "hall-identity": _hall_ok([], random.Random(7)),
    }
    confirmed = lambda doc: 0 if doc["confirmed"] else 1
    for name, ok in scenario_checks.items():
        ops.append(_cli_op(f"scenario-{name}", ["scenario", name, "--output", "json"],
                           _json_check(confirmed, ok)))
    for n in (6, 8):
        argv = ["scenario", "thm4.7", "--n", str(n), "--seed", str(rng.randint(1, 10**6)),
                "--output", "json"]
        ops.append(_cli_op(f"scenario-thm4.7-n{n}", argv, _json_check(confirmed, _thm47_ok)))
    for n in (3, 4):
        ops.append(_cli_op(f"scenario-ex-psd-n{n}",
                           ["scenario", "ex-psd", "--n", str(n), "--output", "json"],
                           _json_check(confirmed, _ex_psd_ok)))

    for k in range(20):
        texts = [_fraction_text(rng) for _ in range(3)]
        want = C.legendre_isotropic([Fraction(t) for t in texts])
        ops.append(_cli_op(f"isotropy-{k}", ["qf", "isotropy", "--output", "json", "--", *texts],
                           _json_check(lambda doc: 0 if doc["isotropic"] else 1,
                                       lambda doc, want=want: doc["isotropic"] is want)))
    for k in range(10):
        entries = _random_monomial_form(rng, _shape("weak-rep-one", k))
        argv = ["qf", "weak-rep-one", "--output", "json", "--",
                *(_monomial_text(*e) for e in entries)]
        ops.append(_cli_op(f"weak-rep-one-{k}", argv,
                           _json_check(lambda doc: 0 if doc["weakly_represents_one"] else 1,
                                       _weak_rep_check(entries, random.Random(k)))))
    for k in range(10):
        shape = _shape("signature", k)
        entries = _random_monomial_form(rng, shape)
        sx, sy = shape.choice(((1, 1), (1, -1), (-1, 1)))  # "--" is a kept fault, below
        want = C.monomial_signature(entries, sx, sy)
        argv = ["qf", "signature", f"--ordering={_ordering_text(sx, sy)}", "--output", "json",
                "--", *(_monomial_text(*e) for e in entries)]
        ops.append(_cli_op(f"signature-{k}", argv,
                           _json_check(lambda doc: 0,
                                       lambda doc, want=want: doc["signature"] == want)))
    for k in range(3):
        gram = _gram_text(rng, 3, _MONOS_DEG1, k)
        path = os.path.join(workdir, f"gram-{k}.json")
        with open(path, "w") as fh:
            json.dump({"matrix": gram}, fh)
        ops.append(_cli_op(f"diag-json-{k}", ["qf", "diag", "--json", path, "--output", "json"],
                           _json_check(lambda doc: 0, _diag_json_ok(gram, random.Random(k)))))
    for k in range(2):
        _, g = _hermitian_square(rng, _shape("falsify", k))
        argv = ["nc", "falsify", "--poly", C.format_nc(g), "--n", "2", "--trials", "4",
                "--seed", str(rng.randint(0, 10**6)), "--output", "json"]
        ops.append(_cli_op(f"falsify-hermitian-square-{k}", argv,
                           _json_check(lambda doc: 0,
                                       lambda doc: doc["counterexample"] is None)))
    for k in range(2):
        squares = [_hermitian_square(rng, _shape(f"verify-cert-{t}", k)) for t in range(2)]
        cert = {"g": C.format_nc(C.nc_add(*(sq for _, sq in squares))), "h": "1", "n": 2,
                "J": "orthogonal", "weights": [],
                "terms": {"": [C.format_nc(p) for p, _ in squares]}}
        path = os.path.join(workdir, f"cert-{k}.json")
        with open(path, "w") as fh:
            json.dump(cert, fh)
        ops.append(_cli_op(f"verify-cert-{k}", ["nc", "verify-cert", path, "--output", "json"],
                           _json_check(lambda doc: 0, lambda doc: doc["verified"] is True
                                       and all(doc["conditions"].values()))))

    # known fault: argparse takes the ordering "--" for its end-of-options
    # marker, so the CLI cannot ask for the ordering X < 0, Y < 0
    ops.append(_cli_op("signature-ordering-minus-minus",
                       ["qf", "signature", "--ordering=--", "--output", "json", "--", "X", "Y"],
                       lambda result, results: result[0] == 0
                       and json.loads(result[1])["signature"] == -2, fault=True))
    # known fault: malformed JSON documents must exit with code 2 (bad input)
    for k, (doc, argv) in enumerate((
            ({"g": "x1"}, ["nc", "verify-cert"]),
            ({"entries": 5}, ["qf", "isotropy", "--json"]))):
        path = os.path.join(workdir, f"malformed-{k}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        ops.append(_cli_op(f"malformed-json-{k}", [*argv, path],
                           lambda result, results: result[0] == 2, fault=True))
    return ops


# -- rational-forms ------------------------------------------------------

def _diag_op(gram_text):
    gram = qforms.GramForm([[scalars.parse_scalar(v) for v in row] for row in gram_text])
    orderings = [scalars.MonomialOrdering.parse(o) for o in ("++", "+-", "-+", "--")]

    def run():
        d = qforms.diagonalize(gram)
        return {"verified": d.verify(gram),
                "signatures": [d.form.signature(o) for o in orderings],
                "entries": [scalars.format_scalar(e) for e in d.form.entries],
                "transform": [[scalars.format_scalar(v) for v in row] for row in d.transform]}

    def size(result):
        return (sum(map(len, result["entries"]))
                + sum(len(v) for row in result["transform"] for v in row))

    return run, size


def _diag_check(gram_text, rng, twin=None):
    n = len(gram_text)

    def ok(result, results):
        sigs = result["signatures"]
        if not result["verified"] or len(result["entries"]) != n:
            return False
        if any(abs(s) > n or (n - s) % 2 for s in sigs):
            return False
        if twin is not None and results[twin]["signatures"] != sigs:
            return False  # Sylvester: congruent forms have equal signatures
        return C.holds_at_points(lambda pt: C.congruence_holds(
            gram_text, result["transform"], result["entries"], pt), rng)
    return ok


def _symplectic_op(skew_text, rng):
    s = [[scalars.parse_scalar(v) for v in row] for row in skew_text]

    def run():
        cert = certificates.symplectic_minus_one(s)
        return jsonio.dumps(jsonio.hermsq_cert_to_json(cert))

    def ok(result, results):
        doc = json.loads(result)
        skew = doc["algebra"]["involution"]["s"]
        target, witnesses = doc["target"], doc["witnesses"]
        n = len(skew_text)
        return (doc["algebra"]["involution"]["kind"] == "int_skew" and len(witnesses) == 1
                and C.holds_at_points(lambda pt: (
                    C.eval_matrix(skew, pt) == C.eval_matrix(skew_text, pt)
                    and C.eval_matrix(target, pt) == C.identity(n, -1)
                    and C.minus_one_witness_holds(skew, witnesses[0], pt)), rng))

    return Op("symplectic-minus-one", run, ok, len)


def _coprime_fault_inputs():
    """h = (Y-r1)(Y-r2)(X-r3)(X-r4)XY + 1 with r1..r4 the points the
    coprimality shortcut draws from random.Random(0xC0FFEE) mod 2^61-1:
    the leading coefficient of the true gcd vanishes at every point tried."""
    p = (1 << 61) - 1
    rng = random.Random(0xC0FFEE)
    r = [rng.randrange(1, p) for _ in range(4)]
    P = hermsq.Polynomial
    x, y = P.variable("X"), P.variable("Y")
    h = (y - r[0]) * (y - r[1]) * (x - r[2]) * (x - r[3]) * x * y + 1
    return h, x + 2, y + 3


def _rational_forms(rng, workdir):
    ops = []
    specs = [(4, _MONOS_DEG2)] * 3 + [(5, _MONOS_DEG1)]
    for k, (n, monos) in enumerate(specs):
        gram = _gram_text(rng, n, monos, k)
        perm = list(range(n))
        while perm == sorted(perm):
            rng.shuffle(perm)
        permuted = [[gram[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        run, size = _diag_op(gram)
        ops.append(Op(f"gram-{k}", run, _diag_check(gram, random.Random(k)), size))
        run, size = _diag_op(permuted)
        ops.append(Op(f"gram-{k}-permuted", run,
                      _diag_check(permuted, random.Random(k), twin=f"gram-{k}"), size))
    ops.append(_symplectic_op(_skew_text(rng, 6, _MONOS_DEG1), random.Random(99)))

    RF = hermsq.RationalFunction
    for k in range(20):
        shape = _shape("cancel", k)
        f, g, h = (_polynomial(_random_poly_terms(rng, shape, 2)) for _ in range(3))
        ops.append(Op(f"cancel-common-factor-{k}",
                      lambda f=f, g=g, h=h: RF(f * h, g * h) == RF(f, g),
                      lambda result, results: result is True))
    for k in range(20):
        shape = _shape("roundtrip", k)
        r = RF(_polynomial(_random_poly_terms(rng, shape, 3)),
               _polynomial(_random_poly_terms(rng, shape, 3)))
        ops.append(Op(f"parse-format-roundtrip-{k}",
                      lambda r=r: scalars.parse_scalar(scalars.format_scalar(r)) == r,
                      lambda result, results: result is True))

    # known fault: the coprimality shortcut declares h*(X+2), h*(Y+3) coprime
    h, f, g = _coprime_fault_inputs()
    ops.append(Op("coprime-shortcut-fault", lambda: RF(h * f, h * g) == RF(f, g),
                  lambda result, results: result is True, fault=True))
    return ops


# -- star-identities and star-refutations ---------------------------------

def _letters(star_sign, count):
    """x_i + x_i* (star_sign 1), x_i - x_i* (star_sign -1) or x_i (0)."""
    out = []
    for i in range(1, count + 1):
        v = C.nc_var(i)
        if star_sign:
            v = C.nc_add(v, C.nc_scale(C.nc_var(i, star=True), star_sign))
        out.append(v)
    return out


def _hall():
    x = _letters(0, 3)
    c = C.commutator(x[0], x[1])
    return C.commutator(C.nc_mul(c, c), x[2])


def _short_poly(rng, shape):
    """Two words of length 1-2 over x1..x3 and their stars."""
    p = {}
    while len(p) < 2:
        word = tuple(shape.choice((1, -1)) * shape.randint(1, 3)
                     for _ in range(shape.randint(1, 2)))
        p = C.nc_add(p, {word: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))})
    return p


def _scale(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))


def _identity_op(name, poly, n, kind, expect, rng):
    """is_identity_mod_a on poly; the answer must equal expect.  An expected
    identity is also evaluated on small integer tuples (where it must
    vanish), an expected refutation must have a small-integer witness."""
    program_poly = ncpoly.parse_nc(C.format_nc(poly))
    memo = []

    def run():
        return ncpoly.is_identity_mod_a(program_poly, n, kind)

    def ok(result, results):
        if not memo:
            memo.append(C.vanishes_on_samples(poly, n, kind, rng) if expect
                        else C.find_nonzero_value(poly, n, kind, rng) is not None)
        return memo[0] and result is expect

    return Op(name, run, ok, lambda result: _compact({"identity": result}))


def _psatz_op(name, g, h, weights, terms, rng):
    """verify_positivstellensatz on a certificate whose congruence holds as
    an equality of *-polynomials; at integer tuples h* g h must equal the
    weighted sum of squares exactly and h must take a nonzero scalar value."""
    cert = ncpoly.PositivstellensatzCertificate(
        ncpoly.parse_nc(C.format_nc(g)), ncpoly.parse_nc(C.format_nc(h)), 2, "orthogonal",
        [ncpoly.parse_nc(C.format_nc(a)) for a in weights],
        {eps: [ncpoly.parse_nc(C.format_nc(p)) for p in ps] for eps, ps in terms.items()})
    memo = []

    def run():
        return ncpoly.verify_positivstellensatz(cert)

    def ok(result, results):
        if not memo:
            rhs = {}
            for eps, ps in terms.items():
                coeff = {(): Fraction(1)}
                for bit, a in zip(eps, weights):
                    if bit == "1":
                        coeff = C.nc_mul(coeff, a)
                for p in ps:
                    rhs = C.nc_add(rhs, C.nc_mul(coeff, C.nc_mul(C.nc_star(p), p)))
            delta = C.nc_add(C.nc_mul(C.nc_mul(C.nc_star(h), g), h), C.nc_scale(rhs, -1))
            mats = C.find_nonzero_value(h, 2, "orthogonal", rng)
            memo.append(C.vanishes_on_samples(delta, 2, "orthogonal", rng) and mats is not None
                        and C.is_nonzero_scalar(C.nc_value(h, mats, "orthogonal")))
        return memo[0] and result is True

    return Op(name, run, ok, lambda result: _compact({"verified": result}))


def _star_identities(rng, workdir):
    ops = []
    crng = random.Random(5)
    skew3, sym_sp, plain = _letters(-1, 4), _letters(1, 4), _letters(0, 4)
    # s4 vanishes on skew 3x3 matrices, a 3-dimensional space, since s4 is
    # alternating; s4 vanishes on M_2 (Amitsur-Levitzki); Hall's identity
    for name, poly, n, kind in (
            ("s4-skew-M3-transpose", C.standard_poly(skew3), 3, "orthogonal"),
            ("s4-symmetrized-M2-symplectic", C.standard_poly(sym_sp), 2, "symplectic"),
            ("s4-M2", C.standard_poly(plain), 2, "orthogonal"),
            ("hall-M2", _hall(), 2, "orthogonal")):
        ops.append(_identity_op(name, C.nc_scale(poly, _scale(rng)), n, kind, True, crng))

    x = _letters(0, 3)
    c2 = C.nc_mul(C.commutator(x[0], x[1]), C.commutator(x[0], x[1]))
    lam = Fraction(rng.randint(1, 9))
    x3 = C.nc_scale(x[2], lam)
    ops.append(_psatz_op("psatz-central-denominator", C.nc_mul(C.nc_star(x3), x3), c2, [],
                         {"": [C.nc_mul(x3, c2)]}, crng))
    s1, s2 = _letters(1, 2)
    w = C.nc_mul(C.commutator(s1, s2), C.commutator(s1, s2))
    ops.append(_psatz_op("psatz-weighted", C.nc_mul(w, C.nc_mul(C.nc_star(x3), x3)),
                         {(): Fraction(1)}, [w], {"1": [x3]}, crng))

    # skew 2x2 matrices form a line, so they commute; under the symplectic
    # involution of M_2, p + p* is central; M_1 is commutative
    for k in range(12):
        p1, p2 = (_short_poly(rng, _shape(f"skew-{t}", k)) for t in range(2))
        skew = [C.nc_add(p, C.nc_scale(C.nc_star(p), -1)) for p in (p1, p2)]
        ops.append(_identity_op(f"skew-commutator-M2-{k}", C.commutator(*skew), 2,
                                "orthogonal", True, crng))
        p1, p2 = (_short_poly(rng, _shape(f"symmetrized-{t}", k)) for t in range(2))
        ops.append(_identity_op(f"symmetrized-commutator-M2-symplectic-{k}",
                                C.commutator(C.nc_add(p1, C.nc_star(p1)), p2), 2,
                                "symplectic", True, crng))
        p1, p2 = (_short_poly(rng, _shape(f"commutative-{t}", k)) for t in range(2))
        ops.append(_identity_op(f"commutator-M1-{k}", C.commutator(p1, p2), 1,
                                "orthogonal", True, crng))
    return ops


def _star_refutations(rng, workdir):
    ops = []
    crng = random.Random(6)
    sym3, plain, skew3 = _letters(1, 4), _letters(0, 4), _letters(-1, 3)
    for name, poly, n in (
            ("s4-symmetrized-M3-transpose", C.standard_poly(sym3), 3),
            ("s4-M3", C.standard_poly(plain), 3),
            ("s3-M2", C.standard_poly(plain[:3]), 2),
            ("s3-skew-M3-transpose", C.standard_poly(skew3), 3),
            ("hall-M3", _hall(), 3)):
        ops.append(_identity_op(name, C.nc_scale(poly, _scale(rng)), n, "orthogonal",
                                False, crng))
    x1, x2 = C.nc_var(1), C.nc_var(2)
    sym = C.nc_add(x1, C.nc_var(1, star=True))
    for k in range(12):
        # [x1 + a x2, x2 + b x1] = (1 - ab)[x1, x2], nonzero on M_2 for ab != 1
        a, b = _scale(rng), _scale(rng)
        while a * b == 1:
            b = _scale(rng)
        poly = C.commutator(C.nc_add(x1, C.nc_scale(x2, a)), C.nc_add(x2, C.nc_scale(x1, b)))
        ops.append(_identity_op(f"commutator-M2-{k}", poly, 2, "orthogonal", False, crng))
        ops.append(_identity_op(f"symmetric-commutator-M2-{k}",
                                C.nc_scale(C.commutator(sym, x2), _scale(rng)), 2,
                                "orthogonal", False, crng))
        ops.append(_identity_op(f"skew-commutator-M3-{k}",
                                C.nc_scale(C.commutator(skew3[0], skew3[1]), _scale(rng)), 3,
                                "orthogonal", False, crng))
    return ops


_OPERATIONS = {"cli-mix": _cli_mix, "rational-forms": _rational_forms,
               "star-identities": _star_identities, "star-refutations": _star_refutations}
