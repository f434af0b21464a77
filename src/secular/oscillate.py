"""Small-oscillation models and their closed-form solutions.

Models are stored as a symmetric couple (A, B) for A y'' + B y = 0 with A the
kinetic/mass matrix; the frequency equation is det(K*A - B) = 0 with K the
squared angular frequency.  (Exponential-ansatz texts write the same roots as
rho^2 = -K; the sign convention here is applied uniformly.)

Solvers:

* `solve_modal` -- superposition of modes E sin(omega t + eps) * shape fitted
  to initial conditions by A-orthogonal projection; zero-frequency roots
  become flagged drift terms E + V t.
* `solve_jordan` -- first-order systems dx/dt = M x through the generalized
  eigenstructure (the principal parts of the resolvent); solution entries are
  e^(sigma t) times a polynomial of degree < chain length.
* `expm_rows` -- exp(M t) from the spectral projectors P and nilpotent
  parts N^k P, the principal parts of the resolvent adj(s)/f(s) at each
  exact eigenvalue (`spectral._principal_part`), summed in Python floats;
  `expm_projectors` returns it as an array.
* `scalar_residue_solve` -- scalar constant-coefficient ODEs via residues of
  e^(r x)/F(r); multiple roots contribute x^k e^(r x) automatically.

`classify_stability` reports the historical root-nature trichotomy alongside
the corrected symmetry/definiteness rule, flagging disagreement.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import TYPE_CHECKING

from ._record import Record
from .errors import InternalError, PathUnavailableError, PreconditionError
from .invariants import inertia
from .matrices import Pencil, RatMatrix, _bilinear, _bilinear_float
from .polynomials import Poly, squarefree_decompose
from .realroots import RealRoot, root_sign
from .spectral import _decide_path, _principal_part, spectral_decompose

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MechModel",
    "InitialConditions",
    "Mode",
    "DriftMode",
    "ModalSolution",
    "JordanBlock",
    "JordanSolution",
    "ScalarTerm",
    "ScalarSolution",
    "StabilityVerdict",
    "Trajectory",
    "build_model",
    "loaded_string_frequency_series",
    "frequency_poly_in_rho",
    "solve_modal",
    "solve_jordan",
    "first_order_matrix",
    "spectral_projectors",
    "expm_projectors",
    "expm_rows",
    "scalar_residue_solve",
    "classify_stability",
    "sample_trajectory",
    "time_grid",
    "MODEL_KINDS",
]

MODEL_KINDS = (
    "loaded-string",
    "dalembert-two-mass",
    "yvon-villarceau-2dof",
    "coupled-springs",
    "custom",
)


class MechModel(Record):
    """An oscillation scenario: A y'' + B y = 0 with symmetric A, B."""

    kind: str
    parameters: tuple[tuple[str, Fraction], ...]
    mass: RatMatrix
    stiffness: RatMatrix

    @property
    def size(self) -> int:
        return self.mass.rows

    _pencil = cached_property(lambda self: Pencil(self.mass, self.stiffness, "sA-B"))

    def pencil(self) -> Pencil:
        """Frequency pencil: det(K*A - B) = 0, K = omega^2; one per model."""
        return self._pencil


class InitialConditions(Record):
    positions: tuple[Fraction, ...]
    velocities: tuple[Fraction, ...]

    @classmethod
    def of(cls, positions, velocities) -> "InitialConditions":
        return cls(
            tuple(Fraction(x) for x in positions),
            tuple(Fraction(x) for x in velocities),
        )

    @property
    def size(self) -> int:
        return len(self.positions)


def _param(params: dict, name: str, default=None) -> Fraction:
    if name in params:
        return Fraction(params[name])
    if default is None:
        raise PreconditionError(f"missing model parameter {name!r}")
    return Fraction(default)


def _require_positive(**named) -> None:
    for name, value in named.items():
        if value <= 0:
            raise PreconditionError(f"model parameter {name!r} must be positive")


def build_model(kind: str, parameters: dict | None = None,
                mass: RatMatrix | None = None,
                stiffness: RatMatrix | None = None) -> MechModel:
    """Construct a named oscillation scenario.

    loaded-string: hanging string fixed at the top, n equal unit masses at
      spacing a, unit gravity; coordinates are transverse displacements
      numbered from the lowest mass.
    dalembert-two-mass: the equal-mass, equal-length double pendulum, time
      unit T; the second equation is scaled by 1/2 so the couple is
      symmetric.
    yvon-villarceau-2dof: the 2-degree system g u'' + a s'' + c u = 0,
      f s'' + a u'' + c s = 0.
    coupled-springs: two equal masses m tied to walls by springs k0 and to
      each other by k.
    custom: explicit symmetric matrices (mass, stiffness).
    """
    params = dict(parameters or {})
    if kind == "loaded-string":
        n = _param(params, "n")
        a = _param(params, "a", 1)
        if n.denominator != 1:
            raise PreconditionError("loaded string needs a whole number of masses")
        n = int(n)
        if n < 1:
            raise PreconditionError("loaded string needs at least one mass")
        _require_positive(a=a)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for k in range(n):
            rows[k][k] = Fraction(2 * k + 1, 1) / a
            if k + 1 < n:
                rows[k][k + 1] = Fraction(-(k + 1), 1) / a
                rows[k + 1][k] = Fraction(-(k + 1), 1) / a
        A = RatMatrix.identity(n)
        B = RatMatrix.from_rows(rows)
        used = {"n": Fraction(n), "a": a}
    elif kind == "dalembert-two-mass":
        T = _param(params, "T", 1)
        _require_positive(T=T)
        c = Fraction(2) / (T * T)
        A = RatMatrix.diagonal([1, Fraction(1, 2)])
        B = RatMatrix.from_rows([[2 * c, -c], [-c, c]])
        used = {"T": T}
    elif kind == "yvon-villarceau-2dof":
        g = _param(params, "g")
        f = _param(params, "f")
        a = _param(params, "a", 0)
        c = _param(params, "c")
        _require_positive(g=g, f=f, c=c)
        A = RatMatrix.from_rows([[g, a], [a, f]])
        B = RatMatrix.diagonal([c, c])
        used = {"g": g, "f": f, "a": a, "c": c}
    elif kind == "coupled-springs":
        m = _param(params, "m", 1)
        k = _param(params, "k", 1)
        k0 = _param(params, "k0", 1)
        _require_positive(m=m, k=k, k0=k0)
        A = RatMatrix.diagonal([m, m])
        B = RatMatrix.from_rows([[k0 + k, -k], [-k, k0 + k]])
        used = {"m": m, "k": k, "k0": k0}
    elif kind == "custom":
        if mass is None or stiffness is None:
            raise PreconditionError("custom model needs explicit matrices")
        A, B = mass, stiffness
        used = {key: Fraction(v) for key, v in params.items()}
    else:
        raise PreconditionError(f"unknown model kind {kind!r}")
    if not (A.is_symmetric() and B.is_symmetric()):
        raise PreconditionError("model matrices must be symmetric")
    return MechModel(kind, tuple(sorted(used.items())), A, B)


def loaded_string_frequency_series(n: int, a) -> Poly:
    """The classical frequency series for the hanging string of n equal
    masses, as a polynomial in rho: sum_j C(n, j) a^j rho^(2j) / j!.

    The determinant of the string's frequency pencil, rewritten in rho via
    K = -rho^2, equals this series up to a nonzero rational scalar.  A
    negative or fractional n raises PreconditionError.
    """
    n = Fraction(n)
    if n.denominator != 1 or n < 0:
        raise PreconditionError("frequency series needs a whole, non-negative number of masses")
    n = int(n)
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    # times n! q^n, the j-th term is C(n, j) n!/j! p^j q^(n-j)
    ints = [0] * (2 * n + 1)
    ints[::2] = [math.comb(n, j) * math.perm(n, n - j) * p**j * q ** (n - j)
                 for j in range(n + 1)]
    return Poly._of(ints, den=factorial(n) * q**n)


def frequency_poly_in_rho(model: MechModel) -> Poly:
    """det(K*A - B) rewritten as a polynomial in rho via K = -rho^2."""
    q = model.pencil().char_poly()
    ints = [0] * (2 * q.degree() + 1)
    ints[::2] = [(-1) ** j * c for j, c in enumerate(q.prim)]
    return Poly._of(ints, q.content)


# ---------------------------------------------------------------------------
# modal solution
# ---------------------------------------------------------------------------


class _ShapeFloats:
    """The `shape` of a mode as floats, built once and read-only, since
    every caller shares the one array."""

    @cached_property
    def _shape_floats(self) -> np.ndarray:
        import numpy as np

        out = np.array([float(x) for x in self.shape])
        out.flags.writeable = False
        return out

    def shape_floats(self) -> np.ndarray:
        return self._shape_floats


class Mode(_ShapeFloats, Record):
    """One oscillatory mode E sin(omega t + phase) * shape."""

    k_root: RealRoot  # root K = omega^2 of the frequency equation
    omega: float
    shape: tuple
    sq_norm: Fraction | float  # shape^T A shape
    amplitude: float
    phase: float  # in [0, 2*pi)


class DriftMode(_ShapeFloats, Record):
    """Zero-frequency (rigid) mode: (offset + rate*t) * shape."""

    shape: tuple
    sq_norm: Fraction | float
    offset: float
    rate: float


class ModalSolution(Record):
    model: MechModel
    modes: tuple[Mode, ...]
    drifts: tuple[DriftMode, ...]
    path: str  # arithmetic path of the mode shapes

    @property
    def has_drift(self) -> bool:
        return bool(self.drifts)

    def evaluate_grid(self, times) -> np.ndarray:
        """Positions at every time, one row per time.

        Each mode adds its shape times the scalar E sin(omega t + phase),
        taken per time with `math`; modes, then drifts, are added in order,
        so a row does not depend on the other times in the grid.
        """
        import numpy as np

        times = [float(t) for t in times]
        y = np.zeros((len(times), self.model.size))
        for m in self.modes:
            try:
                scalars = [m.amplitude * math.sin(m.omega * t + m.phase) for t in times]
            except ValueError:  # math.sin of an infinite phase
                raise OverflowError("mode phase omega*t is not a finite float") from None
            y += np.array(scalars)[:, None] * m.shape_floats()
        for d in self.drifts:
            scalars = [d.offset + d.rate * t for t in times]
            y += np.array(scalars)[:, None] * d.shape_floats()
        return y

    def evaluate(self, t: float) -> np.ndarray:
        return self.evaluate_grid([t])[0]

    def derivative(self, t: float) -> np.ndarray:
        import numpy as np

        v = np.zeros(self.model.size)
        for m in self.modes:
            v += (
                m.amplitude * m.omega * math.cos(m.omega * t + m.phase)
            ) * m.shape_floats()
        for d in self.drifts:
            v += d.rate * d.shape_floats()
        return v

    def energy(self, t: float) -> float:
        """(1/2)(y'^T A y' + y^T B y); constant along the motion."""
        y, v = self.evaluate(t), self.derivative(t)
        A = self.model.mass.to_numpy()
        B = self.model.stiffness.to_numpy()
        return 0.5 * float(v @ A @ v + y @ B @ y)

    def amplitude_bound(self, t_max: float = 0.0) -> float:
        """Explicit sup-norm bound: sum |E| * ||shape||_inf, plus drift
        growth up to t_max."""
        import numpy as np

        bound = sum(
            abs(m.amplitude) * float(np.max(np.abs(m.shape_floats())))
            for m in self.modes
        )
        bound += sum(
            (abs(d.offset) + abs(d.rate) * t_max)
            * float(np.max(np.abs(d.shape_floats())))
            for d in self.drifts
        )
        return float(bound)

    def min_omega(self) -> float:
        return min((m.omega for m in self.modes), default=0.0)


def solve_modal(
    model: MechModel, ic: InitialConditions, path: str = "auto"
) -> ModalSolution:
    """Fit the mode superposition to initial positions and velocities.

    Requires a symmetric couple with definite A and real non-negative
    frequency roots; K = 0 roots produce flagged drift terms.  A negative
    definite A is solved on (-A, -B), the same equation, as
    `classify_stability` judges it.  Projections p = v^T A Y / v^T A v and
    q = v^T A V / v^T A v give amplitude E = sqrt(p^2 + (q/omega)^2) and
    phase atan2(p, q/omega).
    """
    if ic.size != model.size or len(ic.velocities) != model.size:
        raise PreconditionError("initial conditions have the wrong dimension")
    sign = inertia(model.mass).definite
    if not sign:
        raise PreconditionError(
            "modal solution needs a positive or negative definite kinetic matrix"
        )
    pencil = model.pencil() if sign > 0 else Pencil(-model.mass, -model.stiffness, "sA-B")
    dec = spectral_decompose(pencil, path=path)
    for root in dec.roots:
        if root_sign(root) < 0:
            raise PreconditionError(
                "negative squared frequency: the equilibrium is not"
                " oscillatory (see the stability classifier)"
            )
    A = pencil.A
    if dec.path == "exact":
        def project(v, nv):
            return (float(_bilinear(A, v, ic.positions) / nv),
                    float(_bilinear(A, v, ic.velocities) / nv))
    else:
        Af = A.to_floats()
        Y = [float(x) for x in ic.positions]
        V = [float(x) for x in ic.velocities]

        def project(v, nv):
            return _bilinear_float(Af, v, Y) / nv, _bilinear_float(Af, v, V) / nv

    modes: list[Mode] = []
    drifts: list[DriftMode] = []
    for root, vectors, norms in zip(dec.roots, dec.vectors, dec.sq_norms):
        for v, nv in zip(vectors, norms):
            p, q = project(v, nv)
            if root_sign(root) == 0:
                drifts.append(DriftMode(v, nv, p, q))
                continue
            omega = math.sqrt(root.as_float())
            amplitude = math.hypot(p, q / omega)
            phase = math.atan2(p, q / omega) % (2 * math.pi)
            modes.append(Mode(root, omega, v, nv, amplitude, phase))
    return ModalSolution(model, tuple(modes), tuple(drifts), dec.path)


# ---------------------------------------------------------------------------
# first-order systems: generalized eigenstructure, projectors, exponential
# ---------------------------------------------------------------------------


class JordanBlock(Record):
    """Solution slice e^(sigma t) * (cos/sin carrier) * psi(t).

    sigma = sigma_re + i*sigma_im; for real sigma the sin coefficients are
    empty.  cos_coeffs[k] (and sin_coeffs[k]) are the vector coefficients of
    t^k; the factorials are already folded in.
    """

    sigma_re: Fraction | float
    sigma_im: float
    chain_length: int
    cos_coeffs: tuple[tuple, ...]
    sin_coeffs: tuple[tuple, ...] = ()

    def psi_degree(self) -> int:
        """Largest power of t with a nonzero coefficient (-1 if none)."""
        deg = -1
        for k, c in enumerate(self.cos_coeffs):
            if any(x != 0 for x in c):
                deg = k
        for k, c in enumerate(self.sin_coeffs):
            if any(x != 0 for x in c):
                deg = max(deg, k)
        return deg

    def evaluate_grid(self, times: list[float], n: int) -> np.ndarray:
        """The block at every time, one row per time: per-time scalars from
        `math`, vector polynomials in t by ascending powers."""
        import numpy as np

        out = np.zeros((len(times), n))
        sigma_re, w = float(self.sigma_re), self.sigma_im
        carrier = [math.exp(sigma_re * t) for t in times]
        for coeffs, trig, at_rest in ((self.cos_coeffs, math.cos, 1.0),
                                      (self.sin_coeffs, math.sin, 0.0)):
            if coeffs:
                try:
                    scalars = [c * (trig(w * t) if w else at_rest)
                               for c, t in zip(carrier, times)]
                except ValueError:  # math.cos/math.sin of an infinite phase
                    raise OverflowError("block phase w*t is not a finite float") from None
                out += np.array(scalars)[:, None] * _vector_poly(coeffs, times, n)
        return out


def _vector_poly(coeffs, times: list[float], n: int) -> np.ndarray:
    """sum_k t^k coeffs[k] at every time, t^k by repeated multiplication."""
    import numpy as np

    out = np.zeros((len(times), n))
    t = np.array(times)
    tk = np.ones(len(times))
    for c in coeffs:
        out += tk[:, None] * np.array([float(x) for x in c])
        tk = tk * t
    return out


class JordanSolution(Record):
    matrix: RatMatrix
    blocks: tuple[JordanBlock, ...]
    path: str

    @property
    def size(self) -> int:
        return self.matrix.rows

    def evaluate_grid(self, times) -> np.ndarray:
        """The state at every time, one row per time, blocks added in order."""
        import numpy as np

        times = [float(t) for t in times]
        out = np.zeros((len(times), self.size))
        for b in self.blocks:
            out += b.evaluate_grid(times, self.size)
        return out

    def evaluate(self, t: float) -> np.ndarray:
        return self.evaluate_grid([t])[0]


def spectral_projectors(
    M: RatMatrix,
) -> list[tuple[Fraction, int, int, RatMatrix]]:
    """Exact spectral projectors of a matrix with rational eigenvalues.

    Returns (eigenvalue, algebraic multiplicity, chain length, projector),
    read off the principal parts of the resolvent by `_principal_parts`.
    """
    return [(sigma, m, len(terms), terms[0])
            for sigma, m, terms in _principal_parts(Pencil.similarity(M))]


def _rational_spectrum(pencil: Pencil) -> bool:
    """Whether every root of the pencil is real and rational."""
    roots = pencil.roots()
    return (sum(r.multiplicity for r in roots) == pencil.size
            and all(r.is_exact for r in roots))


def _principal_parts(pencil: Pencil) -> list[tuple[Fraction, int, list[RatMatrix]]]:
    """(sigma, m, [N^k P for k < chain]) per eigenvalue sigma of multiplicity m
    of M, for the similarity pencil sI - M: the resolvent's principal parts
    (`spectral._principal_part`), as many terms as the chain is long."""
    if not _rational_spectrum(pencil):
        raise PathUnavailableError(
            "spectral projectors need all-rational eigenvalues; use the"
            " floating Jordan path instead"
        )
    return [(root.value, root.multiplicity,
             _principal_part(pencil, root.value, root.multiplicity))
            for root in pencil.roots()]


def first_order_matrix(model: MechModel) -> RatMatrix:
    """System matrix of the recast x = (y, y'): dx/dt = [[0, I], [-A^-1 B, 0]] x."""
    n = model.size
    AB = model.mass.inverse() @ model.stiffness
    rows = [[Fraction(0)] * n + [Fraction(int(j == i)) for j in range(n)] for i in range(n)]
    rows += [[-AB.entry(i, j) for j in range(n)] + [Fraction(0)] * n for i in range(n)]
    return RatMatrix.from_rows(rows)


def solve_jordan(M: RatMatrix, ic, path: str = "auto") -> JordanSolution:
    """General solution of dx/dt = M x fitted to x(0).

    The path follows the rule of `spectral._decide_path`, with the roots of
    the similarity pencil sI - M: exact when all are rational.  Exact path:
    per eigenvalue sigma with chain length r, the block is
    e^(sigma t) * sum_k (M - sigma I)^k p_sigma x0 t^k / k!, k < r.
    Floating path: eigen-decomposition with complex pairs combined into real
    sin/cos blocks; defective floating matrices are rejected, the exact path
    handles those.
    """
    if not M.is_square:
        raise PreconditionError("system matrix must be square")
    n = M.rows
    x0 = tuple(Fraction(v) for v in ic)
    if len(x0) != n:
        raise PreconditionError("initial vector has the wrong dimension")
    pencil = Pencil.similarity(M)
    # the float path reads no root, so it isolates none
    mode = _decide_path(path, path != "float" and _rational_spectrum(pencil))
    if mode == "exact":
        blocks = []
        for sigma, _m, terms in _principal_parts(pencil):
            coeffs = tuple(
                tuple(c / factorial(k) for c in term.apply(x0)) for k, term in enumerate(terms)
            )
            blocks.append(JordanBlock(sigma, 0.0, len(terms), coeffs))
        return JordanSolution(M, tuple(blocks), "exact")
    # floating path
    import numpy as np

    Mf = M.to_numpy()
    eigvals, eigvecs = np.linalg.eig(Mf)
    # cond is undefined on the empty matrix, which has no eigenvectors
    if n and np.linalg.cond(eigvecs) > 1e8:
        raise PathUnavailableError(
            "defective (or nearly defective) matrix on the floating path;"
            " the exact path is required for non-diagonalizable systems"
        )
    c = np.linalg.solve(eigvecs, np.array([float(v) for v in x0], dtype=complex))
    blocks = []
    used = [False] * n
    order = sorted(range(n), key=lambda i: (eigvals[i].real, abs(eigvals[i].imag)))
    for i in order:
        if used[i]:
            continue
        lam = eigvals[i]
        vec = c[i] * eigvecs[:, i]
        if abs(lam.imag) < 1e-12:
            used[i] = True
            blocks.append(
                JordanBlock(
                    float(lam.real), 0.0, 1, (tuple(float(x.real) for x in vec),)
                )
            )
            continue
        # complex pair: find the conjugate partner
        j = next(
            k
            for k in range(n)
            if not used[k] and k != i and abs(eigvals[k] - lam.conjugate()) < 1e-8
        )
        used[i] = used[j] = True
        b = abs(lam.imag)
        if lam.imag < 0:
            vec = (c[j] * eigvecs[:, j])
        cos_part = tuple(float(2 * x.real) for x in vec)
        sin_part = tuple(float(-2 * x.imag) for x in vec)
        blocks.append(
            JordanBlock(float(lam.real), float(b), 1, (cos_part,), (sin_part,))
        )
    return JordanSolution(M, tuple(blocks), "float")


def expm_rows(M: RatMatrix, t: float) -> list[list[float]]:
    """exp(M t) assembled from exact spectral projectors, as rows of
    Python floats.

    exp(M t) = sum_i e^(sigma_i t) sum_{k < r_i} N_i^k p_i t^k / k!, with the
    terms N_i^k p_i read off the resolvent's principal parts
    (`_principal_parts`).  The projector algebra (p_i^2 = p_i, sum p_i = I)
    is exact; only the final sum is floating point.  Each entry of a term is
    rounded once from its integers over one denominator
    (`RatMatrix.to_floats`), and per eigenvalue the entries are summed as
    acc + term * t^k/k!, then added to the result as out + e^(sigma t) * acc,
    the order and the operations of an elementwise array sum, so the bytes
    are those of one.  Irrational eigenvalues are rejected toward the
    floating Jordan path.  An entry beyond floating-point range, an
    overflowing e^(sigma t) among them, raises OverflowError; no warning is
    issued.
    """
    out = [[0.0] * M.rows for _ in range(M.rows)]
    for sigma, _m, terms in _principal_parts(Pencil.similarity(M)):
        acc = terms[0].to_floats()
        tk = 1.0
        for k, term in enumerate(terms[1:], 1):
            tk *= t / k
            acc = [[a + v * tk for a, v in zip(ra, rv)] for ra, rv in zip(acc, term.to_floats())]
        e = math.exp(float(sigma) * t)
        out = [[o + e * a for o, a in zip(ro, ra)] for ro, ra in zip(out, acc)]
    if not all(math.isfinite(v) for row in out for v in row):
        raise OverflowError("matrix exponential entry is not a finite float")
    return out


def expm_projectors(M: RatMatrix, t: float) -> np.ndarray:
    """`expm_rows` as an n x n array."""
    import numpy as np

    return np.array(expm_rows(M, t)).reshape(M.rows, M.rows)


# ---------------------------------------------------------------------------
# scalar ODEs via residues
# ---------------------------------------------------------------------------


class ScalarTerm(Record):
    """coefficient terms x^power e^(alpha x) (c_cos cos(beta x) + c_sin sin(beta x))."""

    alpha: float
    beta: float
    power: int
    cos_coeff: float
    sin_coeff: float

    def evaluate(self, x: float) -> float:
        osc = self.cos_coeff * math.cos(self.beta * x) + self.sin_coeff * math.sin(
            self.beta * x
        )
        return x**self.power * math.exp(self.alpha * x) * osc


class ScalarSolution(Record):
    terms: tuple[ScalarTerm, ...]

    def evaluate(self, x: float) -> float:
        return sum(term.evaluate(x) for term in self.terms)

    def evaluate_grid(self, times) -> np.ndarray:
        """The value at every time, as a one-column array."""
        import numpy as np

        return np.array([self.evaluate(float(t)) for t in times], dtype=float).reshape(-1, 1)


def scalar_residue_solve(F: Poly, ic) -> ScalarSolution:
    """Solve F(d/dx) y = 0 with y(0), y'(0), ... given.

    The basis solutions are the residue contributions of e^(r x)/F(r): each
    root r of multiplicity m contributes x^k e^(r x), k < m, with complex
    pairs folded into real sin/cos terms.  Coefficients are fitted to the
    initial data by solving the derivative system at x = 0.
    """
    import numpy as np

    if F.is_zero() or F.degree() < 1:
        raise PreconditionError("degenerate characteristic polynomial")
    ic = [float(v) for v in ic]
    n = F.degree()
    if len(ic) != n:
        raise PreconditionError("need exactly deg(F) initial values")
    # enumerate roots: exact multiplicity structure, floating values
    basis: list[tuple[complex, int, str]] = []  # (root, power, "re"|"im"|"real")
    for part, mult in squarefree_decompose(F):
        coeffs = [float(c) for c in part.coeffs]
        roots = np.roots(coeffs[::-1]) if part.degree() >= 1 else []
        handled = set()
        for r in sorted(roots, key=lambda z: (round(z.real, 12), round(z.imag, 12))):
            if abs(r.imag) < 1e-9:
                r = complex(r.real, 0.0)
                for k in range(mult):
                    basis.append((r, k, "real"))
            else:
                key = (round(r.real, 9), round(abs(r.imag), 9))
                if key in handled:
                    continue
                handled.add(key)
                r = complex(r.real, abs(r.imag))
                for k in range(mult):
                    basis.append((r, k, "re"))
                    basis.append((r, k, "im"))
    if len(basis) != n:
        raise InternalError("basis enumeration does not match the degree")
    # derivative of x^k e^(rx) at 0 of order j is C(j, k) k! r^(j-k)
    system = np.zeros((n, n))
    for col, (r, k, part) in enumerate(basis):
        for j in range(n):
            if j < k:
                continue
            val = math.comb(j, k) * factorial(k) * r ** (j - k)
            if part in ("real", "re"):
                system[j, col] = val.real
            else:
                # d/dx commutes with Im: derivatives of Im[x^k e^(rx)]
                system[j, col] = val.imag
    coeffs = np.linalg.solve(system, np.array(ic))
    terms = []
    for (r, k, part), c in zip(basis, coeffs):
        if abs(c) < 1e-14:
            continue
        if part == "real":
            terms.append(ScalarTerm(float(r.real), 0.0, k, float(c), 0.0))
        elif part == "re":
            terms.append(ScalarTerm(float(r.real), float(r.imag), k, float(c), 0.0))
        else:
            terms.append(ScalarTerm(float(r.real), float(r.imag), k, 0.0, float(c)))
    return ScalarSolution(tuple(terms))


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------


class StabilityVerdict(Record):
    historical: str  # "stable" | "unstable" | "conditional"
    historical_rule: str
    corrected: str  # "stable" | "unstable"
    corrected_rule: str
    agreement: bool


_HISTORICAL_RULES = {
    "stable": (
        "lagrange-1766 case 1: all characteristic roots real, negative and"
        " unequal, so the equilibrium is stable for any initial disturbance"
    ),
    "unstable": (
        "lagrange-1766 case 2: roots all real positive, all imaginary, or a"
        " mix of positive and imaginary, so the equilibrium has no stability"
    ),
    "conditional": (
        "lagrange-1766 case 3: roots partly real negative unequal and partly"
        " equal, positive or imaginary, so only a restricted, conditional"
        " stability"
    ),
}


def classify_stability(model: MechModel) -> StabilityVerdict:
    """Dual report: the historical root-nature trichotomy next to the
    corrected symmetry/definiteness rule.

    The historical cases are stated for the exponential-ansatz roots
    rho^2 = -K: case 1 (stable) needs every K real, positive and simple;
    case 2 (no stability) is the all-bad mix with no good root at all;
    everything else -- including repeated or zero K -- is case 3
    (conditional).  The corrected rule: stable iff the couple is symmetric,
    A positive definite and B positive semidefinite, regardless of root
    multiplicity.  Every solution stays bounded only when B is positive
    definite; a singular B leaves zero-frequency modes that drift as
    E + V t, and the rule text says so.  A negative definite A is judged
    on (-A, -B), the same equation, and the rule text says so.
    """
    pencil = model.pencil()
    roots = pencil.roots()
    n_complex = pencil.char_poly().degree() - sum(r.multiplicity for r in roots)

    positive_simple = sum(
        1 for r in roots if root_sign(r) > 0 and r.multiplicity == 1
    )
    positive_multiple = sum(
        1 for r in roots if root_sign(r) > 0 and r.multiplicity > 1
    )
    zero = sum(1 for r in roots if root_sign(r) == 0)
    negative = sum(1 for r in roots if root_sign(r) < 0)

    if n_complex == 0 and zero == 0 and negative == 0 and positive_multiple == 0:
        historical = "stable"
    elif positive_simple == 0 and positive_multiple == 0 and zero == 0:
        historical = "unstable"
    else:
        historical = "conditional"

    n, stable, negated = model.size, False, False
    if pencil.is_symmetric():
        sign = inertia(model.mass).definite
        negated = sign < 0
        b_inertia = inertia(-model.stiffness if negated else model.stiffness)
        stable = sign != 0 and b_inertia.negatives == 0
    corrected = "stable" if stable else "unstable"
    rule = "weierstrass-1858: "
    if negated:
        rule += ("the kinetic matrix is negative definite, so the rule applies to"
                 " the negated equation (-A) y'' + (-B) y = 0: ")
    if not stable:
        corrected_rule = rule + (
            "symmetry/definiteness condition violated;"
            " some solution grows without bound"
        )
    elif b_inertia.positives == n:
        corrected_rule = rule + (
            "a symmetric couple with positive definite kinetic"
            " matrix and positive semidefinite stiffness stays bounded whether or"
            " not the characteristic roots are distinct"
        )
    else:
        corrected_rule = rule + (
            "a symmetric couple with positive definite"
            " kinetic matrix and singular positive semidefinite stiffness: the"
            " nonzero-frequency modes stay bounded whether or not the"
            " characteristic roots are distinct, but each zero-frequency mode"
            " drifts as E + V t unless the initial velocity has no component"
            " along it"
        )
    return StabilityVerdict(
        historical,
        _HISTORICAL_RULES[historical],
        corrected,
        corrected_rule,
        historical == corrected,
    )


# ---------------------------------------------------------------------------
# trajectory sampling
# ---------------------------------------------------------------------------


class Trajectory(Record):
    times: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]  # one row per time
    sup_norm: float


def time_grid(t_max: float, steps: int) -> tuple[float, ...]:
    if steps < 1 or not t_max >= 0:  # NaN fails every comparison
        raise PreconditionError("grid needs t_max >= 0 and steps >= 1")
    return tuple(t_max * k / steps for k in range(steps + 1))


def sample_trajectory(solution, times) -> Trajectory:
    """Evaluate a closed-form solution on a time grid in one call, reporting
    the grid sup-norm used by the stability checks."""
    import numpy as np

    times = tuple(float(t) for t in times)
    values = solution.evaluate_grid(times)
    peaks = np.max(np.abs(values), axis=1).tolist() if values.size else []
    return Trajectory(times, tuple(map(tuple, values.tolist())), max([0.0, *peaks]))
