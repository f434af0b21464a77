"""Span tracer that wraps the public functions of `secular` from outside.

`install` rebinds every public function of each `secular.*` module in every
`secular` namespace that holds it (so `sturm_isolate` is traced whether
`spectral`, `oscillate` or `invariants` calls it), plus the methods in
METHODS.  Each call records a span [name, start, end, parent, problem, note];
spans stay in memory until `summary` reduces them.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

MODULES = ("polynomials", "realroots", "matrices", "invariants", "spectral",
           "quadpairs", "oscillate", "io", "cli")
METHODS = (("polynomials", "Poly", "evaluate"), ("matrices", "Pencil", "char_poly"),
           ("matrices", "RatMatrix", "adjugate"))

# Calls whose arguments or results the summary inspects, by span name:
# the span's note keeps a reference, read only after the run.
NOTES = {
    "realroots.sturm_isolate": lambda args, result: args[0],
    "matrices.det_pencil": lambda args, result: result,
    "matrices.Pencil.char_poly": lambda args, result: args[0],
    "spectral.spectral_decompose": lambda args, result: result.path,
}

NAME, START, END, PARENT, PROBLEM, NOTE = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.problem = None
        self._restore = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.problem, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return traced

    def install(self):
        package = importlib.import_module("secular")
        modules = {m: importlib.import_module(f"secular.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                fn = getattr(mod, attr, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self.wrap(f"{short}.{attr}", fn)
        for ns in [package, *modules.values()]:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, wrappers[id(value)])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", original))

    def uninstall(self):
        while self._restore:
            ns, attr, value = self._restore.pop()
            setattr(ns, attr, value)

    def self_times(self):
        """Per span index: duration minus the durations of direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def dump(self, path):
        """Write the spans as JSON lines (times in seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "problem": s[PROBLEM]}) + "\n")


def coeff_bits(poly):
    """Largest coefficient bit length of the integer model of a Poly."""
    _content, prim = poly.integer_primitive()
    return max((abs(c.numerator).bit_length() for c in prim.coeffs), default=0)


def summary(tracer):
    """Per-layer metrics of one traced pass."""
    spans, own = tracer.spans, tracer.self_times()
    calls, self_s = {}, {}
    for s, t in zip(spans, own):
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + t

    def parent_name(s):
        return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""

    def ms(name):
        return 1000.0 * self_s.get(name, 0.0)

    bits = [coeff_bits(s[NOTE]) for s in spans
            if s[NAME] in ("realroots.sturm_isolate", "matrices.det_pencil")]
    pencils = {(p.A, p.B, p.orientation) for p in
               (s[NOTE] for s in spans if s[NAME] == "matrices.Pencil.char_poly")}
    paths = [s[NOTE] for s in spans if s[NAME] == "spectral.spectral_decompose"]
    char_calls = calls.get("matrices.Pencil.char_poly", 0)
    out = {
        "realroots.sturm_isolate.self_ms": (ms("realroots.sturm_isolate"), "ms"),
        "realroots.sturm_isolate.calls": (calls.get("realroots.sturm_isolate", 0), "count"),
        "realroots.refine_root.self_ms": (ms("realroots.refine_root"), "ms"),
        "realroots.refine_root.calls": (calls.get("realroots.refine_root", 0), "count"),
        "realroots.evaluate_calls": (sum(
            1 for s in spans if s[NAME] == "polynomials.Poly.evaluate"
            and parent_name(s).startswith("realroots.")), "count"),
        "polynomials.evaluate.calls": (calls.get("polynomials.Poly.evaluate", 0), "count"),
        "polynomials.self_ms": (1000.0 * sum(
            t for n, t in self_s.items() if n.startswith("polynomials.")), "ms"),
        "polynomials.max_coeff_bits": (max(bits, default=0), "bits"),
        "matrices.det_pencil.self_ms": (ms("matrices.det_pencil"), "ms"),
        "matrices.det_pencil.calls": (calls.get("matrices.det_pencil", 0), "count"),
        "matrices.interp_points": (sum(
            1 for s in spans if s[NAME] == "matrices.det_rational"
            and parent_name(s) == "matrices.det_pencil"), "count"),
        "matrices.det_rational.calls": (calls.get("matrices.det_rational", 0), "count"),
        "matrices.adjugate_pencil.self_ms": (ms("matrices.adjugate_pencil"), "ms"),
        "matrices.RatMatrix.adjugate.self_ms": (ms("matrices.RatMatrix.adjugate"), "ms"),
        "matrices.char_poly.calls": (char_calls, "count"),
        "matrices.char_poly.per_pencil": (char_calls / len(pencils) if pencils else 0.0, "ratio"),
        "matrices.char_poly.pencils": (len(pencils), "count"),
        "invariants.minor_gcd_chain.self_ms": (ms("invariants.minor_gcd_chain"), "ms"),
        "invariants.minors": (sum(
            1 for s in spans if s[NAME] == "matrices.det_pencil"
            and parent_name(s) == "invariants.minor_gcd_chain"), "count"),
        "invariants.elementary_divisors.self_ms": (ms("invariants.elementary_divisors"), "ms"),
        "invariants.inertia.self_ms": (ms("invariants.inertia"), "ms"),
        "invariants.inertia.calls": (calls.get("invariants.inertia", 0), "count"),
        "spectral.char_roots.self_ms": (ms("spectral.char_roots"), "ms"),
        "spectral.nullspace_at_root.self_ms": (ms("spectral.nullspace_at_root"), "ms"),
        "spectral.adjugate_eigenvector.self_ms": (ms("spectral.adjugate_eigenvector"), "ms"),
        "spectral.float_path_ratio": (
            paths.count("float") / len(paths) if paths else 0.0, "ratio"),
        "spectral.float_path_base": (len(paths), "count"),
    }
    for name in ("quadpairs.theta_components", "quadpairs.remarkable_circumstance_check",
                 "quadpairs.verify_theorem", "oscillate.solve_modal",
                 "oscillate.classify_stability", "oscillate.sample_trajectory",
                 "io.load_document", "io.dump_document"):
        out[f"{name}.self_ms"] = (ms(name), "ms")
    return out
