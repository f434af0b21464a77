"""Exact-rational engine for symmetric matrix pencils and small-oscillation
linear systems: characteristic polynomials and real roots, adjugate
eigenvectors, invariant factors and elementary divisors, quadratic-form
inertia, simultaneous reduction of definite pairs, and closed-form
oscillation solvers with a dual historical/corrected stability report.
"""

from .errors import (
    EngineError,
    InternalError,
    ParseError,
    PathUnavailableError,
    PreconditionError,
)
from .polynomials import (
    Poly,
    kronecker_factor,
    poly_gcd,
    squarefree_decompose,
)
from .realroots import RealRoot, refine_root, root_sign, sturm_isolate
from .matrices import (
    Pencil,
    PolyMatrix,
    RatMatrix,
    adjugate_pencil,
    det_pencil,
    det_rational,
)
from .invariants import (
    ElementaryDivisors,
    InertiaReport,
    InvariantFactors,
    MinorGcdChain,
    darboux_signature_steps,
    elementary_divisors,
    inertia,
    invariant_factors,
    is_diagonalizable,
    minor_gcd_chain,
)
from .spectral import (
    QFactor,
    SpectralDecomposition,
    adjugate_eigenvector,
    cauchy_orthogonality,
    char_roots,
    nullspace_at_root,
    q_factor,
    spectral_decompose,
)
from .quadpairs import (
    QuadraticPair,
    ThetaDecomposition,
    remarkable_circumstance_check,
    theta_components,
    verify_theorem,
)
from .oscillate import (
    InitialConditions,
    JordanSolution,
    MechModel,
    ModalSolution,
    ScalarSolution,
    StabilityVerdict,
    Trajectory,
    build_model,
    classify_stability,
    expm_projectors,
    loaded_string_frequency_series,
    sample_trajectory,
    scalar_residue_solve,
    solve_jordan,
    solve_modal,
    spectral_projectors,
    time_grid,
)

__version__ = "0.1.0"
