"""File formats: matrices, pencils, pairs, scenarios, polynomials, CSV.

Documents are JSON.  Rational literals travel as "p/q" strings (denominator
always written, so values round-trip bit-exactly); polynomials as coefficient
arrays lowest degree first; matrix entries row-major.  Serialized indices are
1-based; the Python API is 0-based.

Everything written here is deterministic: keys are sorted, floats use their
shortest round-trip repr, and no timestamps enter the payload.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .errors import ParseError
from .matrices import Pencil, RatMatrix

if TYPE_CHECKING:
    from .oscillate import (InitialConditions, MechModel, ModalSolution, StabilityVerdict,
                            Trajectory)
    from .polynomials import Poly
    from .quadpairs import QuadraticPair

__all__ = [
    "parse_fraction",
    "format_fraction",
    "poly_to_doc",
    "matrix_to_doc",
    "matrix_from_doc",
    "pencil_from_doc",
    "pair_from_doc",
    "scenario_from_doc",
    "load_document",
    "dump_document",
    "trajectory_to_csv",
    "verdict_to_doc",
    "modal_solution_to_doc",
]


_EXPONENT = re.compile(r"([0-9.]*)[eE]([-+]?[0-9]+)\s*$")


def _plain_literal(text: str) -> str:
    """The number text itself if it is ASCII with no "_" digit separators,
    which Python's number readers would accept; else ValueError."""
    if "_" in text or not text.isascii():
        raise ValueError("digits are ASCII, with no '_' separators")
    return text


def parse_fraction(text: Any) -> Fraction:
    """A rational literal: an integer, or a string that `Fraction` reads in
    ASCII alone with no "_" digit separators, such as "-3", "2/5", "0.25"
    or "1e-3"; anything else raises ParseError."""
    try:
        if isinstance(text, bool):
            raise ValueError("boolean is not a rational literal")
        if isinstance(text, str):
            _plain_literal(text)
        if isinstance(text, str) and (match := _EXPONENT.search(text)):
            # Fraction would build 10**exponent, however many digits that has;
            # Python before 3.10.7 has no digit limit
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            digits = sum(c.isdigit() for c in match[1]) + abs(int(match[2]))
            if limit and digits > limit:
                raise ValueError(f"exponent expands beyond {limit} digits")
        if isinstance(text, (int, str)):
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}: {exc}") from None
    raise ParseError(f"bad rational literal {text!r}")


def format_fraction(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def poly_to_doc(p: Poly, var: str = "x") -> dict:
    return {
        "coefficients": [format_fraction(c) for c in p.coeffs],
        "display": p.to_string(var),
    }


def matrix_to_doc(M: RatMatrix) -> dict:
    doc = {
        "rows": M.rows,
        "cols": M.cols,
        "entries": [format_fraction(v) for v in M.entries],
    }
    if M.is_square:
        doc["symmetric"] = M.is_symmetric()
    return doc


def _number(value: Any, kind: type) -> int | float:
    """A number of the CLI's number flags or of a document field outside
    `entries` (rows, cols, steps, t_max), read by `kind`, int or float: a
    JSON number or a string in ASCII with no "_" separators, never a
    boolean, integral for int (int() truncates 2.5) and finite for float;
    else ValueError, or TypeError for a value of another type."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    if isinstance(value, str):
        _plain_literal(value)
    elif kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    number = kind(value)
    if kind is float and not math.isfinite(number):
        raise ValueError(f"{value!r} is not finite")
    return number


def matrix_from_doc(doc: Any) -> RatMatrix:
    if not isinstance(doc, dict):
        raise ParseError("matrix document must be an object")
    try:
        rows, cols, entries = doc["rows"], doc["cols"], doc["entries"]
    except KeyError as exc:
        raise ParseError(f"malformed matrix document: {exc}") from None
    try:
        rows, cols = _number(rows, int), _number(cols, int)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"matrix rows and cols must be integers: {exc}") from None
    if rows < 0 or cols < 0:
        raise ParseError("matrix rows and cols must not be negative")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ParseError("matrix entries do not match rows*cols")
    M = RatMatrix.from_entries(rows, cols, [parse_fraction(v) for v in entries])
    if doc.get("symmetric") and not M.is_symmetric():
        raise ParseError("matrix flagged symmetric but is not")
    return M


def pencil_from_doc(doc: Any) -> Pencil:
    if not isinstance(doc, dict) or "A" not in doc or "B" not in doc:
        raise ParseError("pencil document needs A and B matrices")
    orientation = doc.get("orientation", "sA-B")
    if orientation not in ("sA-B", "A-sB"):
        raise ParseError(f"unknown pencil orientation {orientation!r}")
    return Pencil(matrix_from_doc(doc["A"]), matrix_from_doc(doc["B"]), orientation)


def pair_from_doc(doc: Any) -> QuadraticPair:
    """A quadratic pair: {"phi": matrix, "psi": matrix}, or a pencil document
    read as (Phi, Psi) = (A, B)."""
    from .quadpairs import QuadraticPair

    if isinstance(doc, dict) and "phi" in doc and "psi" in doc:
        return QuadraticPair.checked(
            matrix_from_doc(doc["phi"]), matrix_from_doc(doc["psi"])
        )
    if isinstance(doc, dict) and "A" in doc and "B" in doc:
        p = pencil_from_doc(doc)
        return QuadraticPair.checked(p.A, p.B)
    raise ParseError("pair document needs phi/psi (or A/B) matrices")


def scenario_from_doc(
    doc: Any,
) -> tuple[MechModel, InitialConditions | None, tuple[float, ...]]:
    """Scenario: model kind, parameters, optional initial conditions and
    time-grid settings."""
    from .oscillate import InitialConditions, build_model, time_grid

    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("scenario document needs a model kind")
    kind = doc["kind"]
    params = doc.get("parameters", {})
    if not isinstance(params, dict):
        raise ParseError("scenario parameters must be an object")
    parsed = {k: parse_fraction(v) for k, v in params.items()}
    mass = stiffness = None
    if kind == "custom":
        if "mass" not in doc or "stiffness" not in doc:
            raise ParseError("custom scenario needs mass and stiffness matrices")
        mass = matrix_from_doc(doc["mass"])
        stiffness = matrix_from_doc(doc["stiffness"])
    model = build_model(kind, parsed, mass=mass, stiffness=stiffness)
    ic = None
    if "initial" in doc:
        raw = doc["initial"]
        try:
            vectors = raw["positions"], raw["velocities"]
            if not all(isinstance(v, list) for v in vectors):
                raise TypeError("positions and velocities must be arrays")
            ic = InitialConditions.of(*[[parse_fraction(x) for x in v] for v in vectors])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed initial conditions: {exc}") from None
        if ic.size != model.size or len(ic.velocities) != model.size:
            raise ParseError("initial conditions have the wrong dimension")
    grid_spec = doc.get("t_grid", {"t_max": 10.0, "steps": 200})
    try:
        times = time_grid(_number(grid_spec["t_max"], float), _number(grid_spec["steps"], int))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed t_grid: {exc}") from None
    return model, ic, times


def load_document(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from None


def dump_document(doc: Any) -> str:
    """Canonical rendering: sorted keys, two-space indent, trailing newline;
    an infinite or NaN float raises OverflowError (JSON has no literal for it)."""
    try:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise OverflowError(str(exc)) from None


def trajectory_to_csv(traj: Trajectory) -> str:
    """One line per time, floats as their shortest repr; an infinite or NaN
    sample raises OverflowError, as in `dump_document`."""
    if not all(math.isfinite(v) for row in traj.values for v in row):
        raise OverflowError("trajectory sample is not a finite float")
    width = len(traj.values[0]) if traj.values else 0
    header = "t," + ",".join(f"y{i + 1}" for i in range(width))
    lines = [header]
    for t, row in zip(traj.times, traj.values):
        lines.append(",".join([repr(t)] + [repr(v) for v in row]))
    return "\n".join(lines) + "\n"


def verdict_to_doc(v: StabilityVerdict) -> dict:
    return {
        "historical": {"verdict": v.historical, "rule": v.historical_rule},
        "corrected": {"verdict": v.corrected, "rule": v.corrected_rule},
        "agreement": v.agreement,
    }


def modal_solution_to_doc(sol: ModalSolution) -> dict:
    def vec(values):
        if sol.path == "exact":
            return [format_fraction(x) for x in values]
        return [float(x) for x in values]

    modes = [
        {
            "omega": m.omega,
            "squared_frequency": format_fraction(m.k_root.value)
            if m.k_root.is_exact
            else m.k_root.as_float(),
            "shape": vec(m.shape),
            "amplitude": m.amplitude,
            "phase": m.phase,
        }
        for m in sol.modes
    ]
    drifts = [
        {"shape": vec(d.shape), "offset": d.offset, "rate": d.rate}
        for d in sol.drifts
    ]
    return {"path": sol.path, "modes": modes, "drift_modes": drifts}
