"""Exact-rational engine for symmetric matrix pencils and small-oscillation
linear systems: characteristic polynomials and real roots, adjugate
eigenvectors, invariant factors and elementary divisors, quadratic-form
inertia, simultaneous reduction of definite pairs, and closed-form
oscillation solvers with a dual historical/corrected stability report.

The package loads a module on the first read of one of its names (PEP 562),
so `import secular` loads no engine module and a CLI verb only the ones it
runs.
"""

from importlib import import_module

_EXPORTS = {
    "errors": ("EngineError", "InternalError", "ParseError", "PathUnavailableError",
               "PreconditionError"),
    "polynomials": ("Poly", "kronecker_factor", "poly_gcd", "squarefree_decompose"),
    "realroots": ("RealRoot", "refine_root", "root_sign", "sturm_isolate"),
    "matrices": ("Pencil", "PolyMatrix", "RatMatrix", "adjugate_pencil", "det_pencil",
                 "det_rational"),
    "invariants": ("ElementaryDivisors", "InertiaReport", "InvariantFactors",
                   "MinorGcdChain", "darboux_signature_steps", "elementary_divisors",
                   "inertia", "invariant_factors", "is_diagonalizable", "minor_gcd_chain"),
    "spectral": ("QFactor", "SpectralDecomposition", "adjugate_eigenvector",
                 "cauchy_orthogonality", "char_roots", "nullspace_at_root", "q_factor",
                 "spectral_decompose"),
    "quadpairs": ("QuadraticPair", "ThetaDecomposition", "remarkable_circumstance_check",
                  "theta_components", "verify_theorem"),
    "oscillate": ("InitialConditions", "JordanSolution", "MechModel", "ModalSolution",
                  "ScalarSolution", "StabilityVerdict", "Trajectory", "build_model",
                  "classify_stability", "expm_projectors", "loaded_string_frequency_series",
                  "sample_trajectory", "scalar_residue_solve", "solve_jordan", "solve_modal",
                  "spectral_projectors", "time_grid"),
}
_MODULE_OF = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # runs on the first read of a name only: the value is then bound here, as
    # an eager import would have bound it, and later reads cost no call
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
