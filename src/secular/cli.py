"""Batch command-line front end.

Every verb reads JSON input files, writes a deterministic JSON (or CSV)
document and exits 0; malformed input exits 2, violated preconditions exit 3
(a float result beyond floating-point range among them), and an unavailable
arithmetic path exits 4.  Output documents carry a provenance block naming
the algorithm and its historical source label, plus the arithmetic path
("exact" or "float") of every numeric payload.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from . import io as sio
from .errors import (
    EngineError,
    ParseError,
    PathUnavailableError,
    PreconditionError,
)
from .matrices import Pencil, RatMatrix
from .realroots import DEFAULT_WIDTH

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_PATH = 4

DEFAULT_TOLERANCE = 1e-9
# a flag value such as -1/2, -1e0 or -.5, not an option
_NEGATIVE_NUMBER = re.compile(r"-\.?[0-9]")


def _provenance(algorithm: str, source: str) -> dict:
    return {"algorithm": algorithm, "source": source}


def _load_pencil_like(path: str) -> Pencil:
    """A pencil document, or a bare matrix M read as s*I - M."""
    doc = sio.load_document(path)
    if isinstance(doc, dict) and "A" in doc and "B" in doc:
        return sio.pencil_from_doc(doc)
    if isinstance(doc, dict) and "entries" in doc:
        M = sio.matrix_from_doc(doc)
        if not M.is_square:
            raise PreconditionError("matrix must be square")
        return Pencil.similarity(M)
    raise ParseError("input must be a matrix or pencil document")


def _load_matrix(path: str) -> RatMatrix:
    return sio.matrix_from_doc(sio.load_document(path))


def _root_doc(root) -> dict:
    if root.is_exact:
        return {
            "kind": "exact",
            "value": sio.format_fraction(root.value),
            "multiplicity": root.multiplicity,
        }
    return {
        "kind": "isolated",
        "interval": [sio.format_fraction(root.lo), sio.format_fraction(root.hi)],
        "approx": root.as_float(),
        "multiplicity": root.multiplicity,
    }


def _emit(text: str, args) -> None:
    """Write rendered output to --output or stdout."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rational(text: str) -> Fraction:
    """argparse type for --root: a rational number such as 3, -2/5 or 0.25,
    in the grammar of document entries (`io.parse_fraction`)."""
    try:
        return sio.parse_fraction(text)
    except ParseError:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _positive_rational(text: str) -> Fraction:
    """argparse type for --width: a rational number above zero."""
    value = _rational(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _finite_float(text: str) -> float:
    """argparse type for --time and --t-max, and under --tolerance: a finite
    floating-point number (`io._number`)."""
    try:
        return sio._number(text, float)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _integer(text: str) -> int:
    """argparse type for --t-steps and --root-index: an integer (`io._number`)."""
    try:
        return sio._number(text, int)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _tolerance(text: str) -> float:
    """argparse type for --tolerance: a finite float at or above zero."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a token such as -1/2, -1e0 or -.5 as a
    flag's value: argparse itself takes a token that begins with "-" for an
    option unless it is a plain negative decimal, so `--root -1/2` would
    fail where `--root=-1/2` runs."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_NUMBER.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _pick_root(roots, args):
    if args.root is not None:
        wanted = args.root
        for r in roots:
            if (r.is_exact and r.value == wanted) or (
                not r.is_exact and r.lo < wanted < r.hi
            ):
                return r
        raise PreconditionError(f"{args.root} is not a characteristic root")
    index = args.root_index if args.root_index is not None else 1
    if not 1 <= index <= len(roots):
        raise PreconditionError(f"root index {index} out of range")
    return roots[index - 1]


# -- verb handlers -----------------------------------------------------------


def _cmd_charpoly(args) -> dict:
    doc = sio.load_document(args.input)
    if isinstance(doc, dict) and "A" in doc and "B" in doc:
        pencil = sio.pencil_from_doc(doc)
    else:
        # bare matrix M: classical characteristic matrix M - xI
        pencil = Pencil.classical(sio.matrix_from_doc(doc))
    p = pencil.char_poly()
    return {
        "provenance": _provenance("characteristic-determinant", "cauchy-1829"),
        "path": "exact",
        "charpoly": sio.poly_to_doc(p),
    }


def _cmd_roots(args) -> dict:
    from .spectral import char_roots

    pencil = _load_pencil_like(args.input)
    roots = char_roots(pencil, args.width)
    return {
        "provenance": _provenance("sturm-root-isolation", "sturm-1829"),
        "path": "exact",
        "roots": [_root_doc(r) for r in roots],
    }


def _cmd_eigvec(args) -> dict:
    from .spectral import adjugate_eigenvector, char_roots, nullspace_at_root

    pencil = _load_pencil_like(args.input)
    roots = char_roots(pencil)
    root = _pick_root(roots, args)
    path = args.path
    try:
        vec = adjugate_eigenvector(pencil, root, path=path)
        method = "adjugate-column"
    except PreconditionError:
        vec = None
        method = "nullspace"
    if vec is not None:
        exact = isinstance(vec[0], Fraction)
        vectors = [vec]
    else:
        vectors = nullspace_at_root(pencil, root, path=path)
        exact = bool(vectors) and isinstance(vectors[0][0], Fraction)
    return {
        "provenance": _provenance(f"eigenvector-{method}", "cauchy-1829"),
        "path": "exact" if exact else "float",
        "root": _root_doc(root),
        "vectors": [
            [sio.format_fraction(x) for x in v] if exact else [float(x) for x in v]
            for v in vectors
        ],
    }


def _cmd_invariant_factors(args) -> dict:
    from .invariants import invariant_factors, minor_gcd_chain

    pencil = _load_pencil_like(args.input)
    chain = minor_gcd_chain(pencil.char_matrix())
    inv = invariant_factors(chain)
    return {
        "provenance": _provenance("minor-gcd-invariant-factors", "kronecker-1874"),
        "path": "exact",
        "minor_gcds": [sio.poly_to_doc(d) for d in chain.deltas],
        "invariant_factors": [sio.poly_to_doc(f) for f in inv.factors],
    }


def _cmd_elementary_divisors(args) -> dict:
    from .invariants import elementary_divisors, invariant_factors, minor_gcd_chain

    pencil = _load_pencil_like(args.input)
    inv = invariant_factors(minor_gcd_chain(pencil.char_matrix()))
    divisors = elementary_divisors(inv)
    return {
        "provenance": _provenance("elementary-divisors", "weierstrass-1868"),
        "path": "exact",
        "elementary_divisors": [
            {"irreducible": sio.poly_to_doc(p), "exponent": e}
            for p, e in divisors.divisors
        ],
    }


def _cmd_diagonalizable(args) -> dict:
    from .invariants import is_diagonalizable

    pencil = _load_pencil_like(args.input)
    verdict, witness = is_diagonalizable(pencil)
    return {
        "provenance": _provenance("simple-elementary-divisors-test", "jordan-1871"),
        "path": "exact",
        "diagonalizable": verdict,
        "witness": [
            {
                "factor": sio.poly_to_doc(f),
                "multiplicity": mult,
                "annihilates_minors_to_order": ok,
            }
            for f, mult, ok in witness.records
        ],
    }


def _cmd_inertia(args) -> dict:
    from .invariants import inertia

    M = _load_matrix(args.input)
    rep = inertia(M)
    return {
        "provenance": _provenance("minor-permanence-inertia", "darboux-1874"),
        "path": "exact",
        "positives": rep.positives,
        "negatives": rep.negatives,
        "zeros": rep.zeros,
        "method": rep.method,
        "minor_sequence": [sio.format_fraction(v) for v in rep.minor_sequence],
    }


def _cmd_darboux_steps(args) -> dict:
    from .invariants import darboux_signature_steps

    M = _load_matrix(args.input)
    steps = darboux_signature_steps(M)
    return {
        "provenance": _provenance("signature-step-scan", "darboux-1874"),
        "path": "exact",
        "steps": [
            {"root": _root_doc(r), "jump": jump} for r, jump in steps
        ],
    }


def _cmd_weierstrass_reduce(args) -> dict:
    from .quadpairs import remarkable_circumstance_check, theta_components, verify_theorem

    pair = sio.pair_from_doc(sio.load_document(args.input))
    circumstance = remarkable_circumstance_check(pair)
    dec = theta_components(pair, path=args.path)
    report = verify_theorem(dec, pair, tolerance=args.tolerance)
    comps = []
    for c in dec.components:
        if dec.path == "exact":
            theta = sio.matrix_to_doc(c.theta)
        else:
            theta = [[float(x) for x in row] for row in c.theta]
        comps.append(
            {
                "root": _root_doc(c.root),
                "multiplicity": c.multiplicity,
                "theta": theta,
            }
        )
    return {
        "provenance": _provenance("definite-pair-reduction", "weierstrass-1858"),
        "path": dec.path,
        "definiteness": pair.definiteness,
        "circumstance_check": [
            {"factor": sio.poly_to_doc(f), "multiplicity": m, "divisible": ok}
            for f, m, ok in circumstance.records
        ],
        "components": comps,
        "verified": report.ok,
    }


def _cmd_expm(args) -> dict:
    from .oscillate import expm_rows

    M = _load_matrix(args.input)
    t = args.time
    E = expm_rows(M, t)
    return {
        "provenance": _provenance(
            "matrix-exponential-spectral-projectors", "weierstrass-1858"
        ),
        "path": "float",
        "t": t,
        "exponential": E,
    }


def _cmd_solve(args) -> dict:
    from .oscillate import first_order_matrix, solve_jordan, solve_modal

    model, ic, _times = sio.scenario_from_doc(sio.load_document(args.input))
    if ic is None:
        raise PreconditionError("scenario has no initial conditions")
    if args.method == "modal":
        sol = solve_modal(model, ic, path=args.path)
        doc = sio.modal_solution_to_doc(sol)
        doc["provenance"] = _provenance("modal-superposition", "lagrange-1788")
        return doc
    x0 = list(ic.positions) + list(ic.velocities)
    sol = solve_jordan(first_order_matrix(model), x0, path=args.path)
    blocks = []
    for b in sol.blocks:
        blocks.append(
            {
                "sigma_re": float(b.sigma_re),
                "sigma_im": b.sigma_im,
                "chain_length": b.chain_length,
                "psi_degree": b.psi_degree(),
            }
        )
    return {
        "provenance": _provenance("canonical-form-integration", "jordan-1871"),
        "path": sol.path,
        "blocks": blocks,
    }


def _cmd_classify(args) -> dict:
    from .oscillate import classify_stability

    model, _ic, _times = sio.scenario_from_doc(sio.load_document(args.input))
    verdict = classify_stability(model)
    doc = sio.verdict_to_doc(verdict)
    doc["provenance"] = _provenance(
        "dual-stability-classifier", "lagrange-1766/weierstrass-1858"
    )
    doc["path"] = "exact"
    return doc


def _cmd_trajectory(args) -> str:
    from .oscillate import sample_trajectory, solve_modal, time_grid

    model, ic, times = sio.scenario_from_doc(sio.load_document(args.input))
    if ic is None:
        raise PreconditionError("scenario has no initial conditions")
    if args.t_max is not None or args.t_steps is not None:
        t_max = args.t_max if args.t_max is not None else times[-1]
        steps = args.t_steps if args.t_steps is not None else max(1, len(times) - 1)
        times = time_grid(t_max, steps)
    sol = solve_modal(model, ic, path=args.path)
    traj = sample_trajectory(sol, times)
    return sio.trajectory_to_csv(traj)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="secular",
        description="Exact-rational engine for symmetric matrix pencils and"
        " small-oscillation systems",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, handler, **flags):
        p = sub.add_parser(name)
        p.add_argument("--input", required=True)
        p.add_argument("--output", default=None)
        for key, kwargs in flags.items():
            p.add_argument(f"--{key.replace('_', '-')}", **kwargs)
        p.set_defaults(handler=handler)

    path = {"choices": ["exact", "float", "auto"], "default": "auto"}
    add("charpoly", _cmd_charpoly)
    add("roots", _cmd_roots,
        width={"type": _positive_rational, "default": DEFAULT_WIDTH,
               "help": "root isolation width (positive rational)"})
    add("eigvec", _cmd_eigvec, path=path,
        root={"type": _rational, "default": None,
              "help": "exact rational root value p/q"},
        root_index={"type": _integer, "default": None, "help": "1-based root index"})
    add("invariant-factors", _cmd_invariant_factors)
    add("elementary-divisors", _cmd_elementary_divisors)
    add("diagonalizable", _cmd_diagonalizable)
    add("inertia", _cmd_inertia)
    add("darboux-steps", _cmd_darboux_steps)
    add("weierstrass-reduce", _cmd_weierstrass_reduce, path=path,
        tolerance={"type": _tolerance, "default": DEFAULT_TOLERANCE,
                   "help": "float residual tolerance (finite, >= 0)"})
    add("expm", _cmd_expm,
        time={"type": _finite_float, "default": 1.0, "help": "time t (finite)"})
    add("solve", _cmd_solve, path=path,
        method={"choices": ["modal", "jordan"], "default": "modal"})
    add("classify", _cmd_classify)
    add("trajectory", _cmd_trajectory, path=path,
        t_max={"type": _finite_float, "default": None},
        t_steps={"type": _integer, "default": None})
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.handler(args)
        # a CSV string as is, a document as deterministic JSON
        text = result if isinstance(result, str) else sio.dump_document(result)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PathUnavailableError as exc:
        print(f"path unavailable: {exc}", file=sys.stderr)
        return EXIT_PATH
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OverflowError as exc:
        # no inf is emitted instead: JSON has no literal for it
        print(f"precondition violated: {exc}: a float result lies beyond"
              " floating-point range", file=sys.stderr)
        return EXIT_PRECONDITION
    _emit(text, args)
    return EXIT_OK


def main() -> None:
    sys.exit(run())
