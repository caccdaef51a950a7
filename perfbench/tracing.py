"""Spans and counters around the program's public functions, installed from
outside the package for one traced round and removed afterwards.

A span is (name, start, end, parent span).  Spans stay in memory while the
round runs; `report()` turns them into per-layer call counts and self
times (a span's duration minus the time its child spans cover) and
`write()` stores them once the round is over.
"""

import contextlib
import functools
import gzip
import sys
import time

# metric prefix -> (module, class or None, attribute names)
LAYERS = {
    "scalars.poly_mul": ("hermsq.scalars", "Polynomial", ("__mul__",)),
    "scalars.rf_new": ("hermsq.scalars", "RationalFunction", ("__init__",)),
    "scalars.rf_add": ("hermsq.scalars", "RationalFunction", ("__add__",)),
    "scalars.rf_mul": ("hermsq.scalars", "RationalFunction", ("__mul__",)),
    "scalars.poly_gcd": ("hermsq.scalars", None, ("poly_gcd",)),
    "scalars.poly_divexact": ("hermsq.scalars", None, ("poly_divexact",)),
    "scalars.sign_at": ("hermsq.scalars", None, ("sign_at",)),
    "scalars.parse": ("hermsq.scalars", None, ("parse_scalar",)),
    "scalars.format": ("hermsq.scalars", None, ("format_scalar",)),
    "jsonio.loads": ("hermsq.jsonio", None, ("loads",)),
    "jsonio.dumps": ("hermsq.jsonio", None, ("dumps",)),
    "jsonio.from_json": ("hermsq.jsonio", None, "_from_json"),
    "jsonio.to_json": ("hermsq.jsonio", None, "_to_json"),
    "cli.main": ("hermsq.cli", None, ("main",)),
    "scenarios.run_scenario": ("hermsq.scenarios", None, ("run_scenario",)),
    "qforms.diagonalize": ("hermsq.qforms", None, ("diagonalize",)),
    "qforms.diag_verify": ("hermsq.qforms", "Diagonalization", ("verify",)),
    "qforms.signature": ("hermsq.qforms", "DiagonalForm", ("signature",)),
    "qforms.isotropy_Q": ("hermsq.qforms", None, ("is_isotropic_Q",)),
    "qforms.weak_rep": ("hermsq.qforms", None, ("weakly_represents_one",)),
    "involutions.mat_mul": ("hermsq.involutions", None, ("_mat_mul",)),
    "involutions.involution": ("hermsq.involutions", "AlgebraWithInvolution", ("involution",)),
    "involutions.trace_form": ("hermsq.involutions", "AlgebraWithInvolution", ("trace_form",)),
    "involutions.algebra_init": ("hermsq.involutions", "AlgebraWithInvolution", ("__init__",)),
    "fdalgebra.structure_algebra": ("hermsq.fdalgebra", None, ("structure_algebra",)),
    "fdalgebra.mul": ("hermsq.fdalgebra", "StructureAlgebra", ("mul",)),
    "certificates.verify": ("hermsq.certificates", None, ("verify_hermsq", "verify_weighted")),
    "certificates.construct": ("hermsq.certificates", None, (
        "prop41_certificates", "tensor_certificates", "skew_congruence",
        "symplectic_minus_one", "counterexample_pipeline", "rewrite_weighted_to_pure")),
    "certificates.psd": ("hermsq.certificates", None, ("psd_symmetric_rational",)),
    "ncpoly.nc_mul": ("hermsq.ncpoly", "NCPolynomial", ("__mul__",)),
    "ncpoly.generic_eval": ("hermsq.ncpoly", None, ("generic_eval",)),
    "ncpoly.nc_eval": ("hermsq.ncpoly", None, ("nc_eval",)),
}

_MEASURED = {"scalars.poly_mul", "scalars.poly_divexact"}      # Polynomial results
_MEASURED_RF = {"scalars.rf_add", "scalars.rf_mul"}            # RationalFunction results


def _poly_size(p):
    terms = getattr(p, "terms", None) or {}
    bits = max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in terms.values()), default=0)
    return len(terms), bits


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self.stack = []
        self.coprime = 0
        self.peak_terms = 0
        self.peak_bits = 0
        self._undo = []
        self.missing = []

    def _note(self, poly):
        terms, bits = _poly_size(poly)
        if terms > self.peak_terms:
            self.peak_terms = terms
        if bits > self.peak_bits:
            self.peak_bits = bits

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrapper(self, layer, fn):
        nid = self._name_id(layer)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        note = self._note

        def after(args, result):
            if layer in _MEASURED:
                note(result)
            elif layer in _MEASURED_RF and result is not NotImplemented:
                note(result.num)
                note(result.den)
            elif layer == "scalars.rf_new":
                note(args[0].num)
                note(args[0].den)
            elif layer == "scalars.poly_gcd" and result.is_constant():
                self.coprime += 1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                after(args, result)
                return result
            finally:
                stack.pop()
                spans[idx] = (nid, start, clock(), parent)
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark itself opens, one per operation."""
        nid, idx = self._name_id(name), len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx] = (nid, start, time.perf_counter(), parent)

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "hermsq" or n.startswith("hermsq."))]
        for layer, (modname, clsname, attrs) in LAYERS.items():
            mod = sys.modules[modname]
            owner = getattr(mod, clsname) if clsname else mod
            if isinstance(attrs, str):      # every function whose name ends so
                attrs = [a for a in vars(mod) if a.endswith(attrs) and callable(getattr(mod, a))]
            for attr in attrs:
                original = vars(owner).get(attr)
                if original is None:
                    self.missing.append(f"{modname}.{clsname + '.' if clsname else ''}{attr}")
                    continue
                wrapped = self._wrapper(layer, original)
                # rebind every alias: __rmul__ = __mul__ on classes, and
                # `from .x import f` copies in the other package modules
                holders = [owner] if clsname else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)
                            self._undo.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def report(self, names, traced_wall, untraced_wall):
        """The values of the per-layer metrics `names` that this tracer
        measures: <layer>.calls and <layer>.self_s for every layer in LAYERS,
        and the counters below.  A name it does not measure is left out."""
        span_names, spans = self.names, self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        values = {}
        for layer in LAYERS:
            values[f"{layer}.calls"] = 0
            values[f"{layer}.self_s"] = 0.0
        inside_ge = [False] * len(spans)
        mat_products = 0
        for i, (nid, start, end, parent) in enumerate(spans):
            name = span_names[nid]
            if name in LAYERS:
                values[f"{name}.calls"] += 1
                values[f"{name}.self_s"] += (end - start) - child[i]
            up = parent >= 0 and inside_ge[parent]
            inside_ge[i] = up or name == "ncpoly.generic_eval"
            if up and name == "involutions.mat_mul":
                mat_products += 1
        gcd_calls = values["scalars.poly_gcd.calls"]
        values["scalars.poly_gcd.coprime_share"] = self.coprime / gcd_calls if gcd_calls else 0.0
        values["scalars.peak_terms"] = self.peak_terms
        values["scalars.peak_coeff_bits"] = self.peak_bits
        values["ncpoly.generic_eval.mat_products"] = mat_products
        values["trace.overhead_ratio"] = traced_wall / untraced_wall
        return {name: values[name] for name in names if name in values}

    def write(self, path):
        """Spans as CSV: id, parent id, name, start and end in seconds."""
        if not self.spans:
            return
        origin = self.spans[0][1]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (nid, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{self.names[nid]},{start - origin:.9f},"
                         f"{end - origin:.9f}\n")
