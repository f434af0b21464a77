"""Simultaneous reduction of a pair of quadratic forms (the definite case).

Given symmetric Phi (definite, det != 0) and symmetric Psi, the determinant
f(s) = det(s*Phi - Psi) has only real roots s_1..s_m with multiplicities
lambda_mu summing to n, and there are unique symmetric PSD pieces theta_mu of
rank lambda_mu with

    Phi = sum theta_mu          Psi = sum s_mu * theta_mu.

The pieces are residues: with adj(s*Phi - Psi) = (s - s_mu)^(lambda_mu - 1) * G(s)
and f(s) = (s - s_mu)^lambda_mu * h(s), the matrix R_mu = G(s_mu) / h(s_mu) is
the residue of the pencil inverse at s_mu and theta_mu = Phi @ R_mu @ Phi.
The divisibility of every adjugate entry by (s - s_mu)^(lambda_mu - 1),
Weierstrass's "remarkable circumstance", is that the kernel of
s_mu*Phi - Psi has dimension lambda_mu (`remarkable_circumstance_check`;
`secular.invariants` gives the argument), and then the pole is simple.  On
the exact path theta_mu is read off a kernel basis V at the root, with no
adjugate built: with P(s) = s*Phi - Psi = P(s_mu) + (s - s_mu) Phi, the
Laurent series of P(s)^-1 gives P(s_mu) R_mu = R_mu P(s_mu) = 0 and
V^T Phi R_mu = V^T, as V^T P(s_mu) = 0 for P symmetric, so
R_mu = V (V^T Phi V)^-1 V^T and theta_mu = (Phi V)(V^T Phi V)^-1 (Phi V)^T.
A kernel smaller than lambda_mu is rejected.  The sums Phi = sum(theta) and
Psi = sum(s_mu * theta) are checked in integers over one common
denominator.

Exact path requires rational roots; otherwise G(s_mu) and h(s_mu), the
Taylor coefficients of order lambda_mu - 1 of every adjugate entry
(`Pencil._adjugate_taylor`) and of order lambda_mu of f, are taken at
refined root approximations and rounded to floating point (tolerance 1e-9,
on residuals that read 0 for the empty pair).  The sign of
the definite Phi plays no part (Weierstrass 1858): a negative definite pair
is reduced on its own pencil by the same residues, and only the
semidefiniteness test of `verify_theorem` reads the sign.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import TYPE_CHECKING

from ._record import Record
from .errors import PreconditionError
from .invariants import MinorDivisibility, _minor_divisibility, inertia
from .matrices import Pencil, RatMatrix, _linear_combination, _nullspace
from .realroots import RealRoot
from .spectral import FLOAT_ROOT_WIDTH, _decide_path, _root_point

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "QuadraticPair",
    "ThetaComponent",
    "ThetaDecomposition",
    "TheoremReport",
    "remarkable_circumstance_check",
    "theta_components",
    "verify_theorem",
    "FLOAT_RESIDUAL_TOL",
]

FLOAT_RESIDUAL_TOL = 1e-9


class QuadraticPair(Record):
    """Symmetric couple (Phi, Psi) with Phi definite."""

    phi: RatMatrix
    psi: RatMatrix
    definiteness: str  # "positive" | "negative"

    @classmethod
    def checked(cls, phi: RatMatrix, psi: RatMatrix) -> "QuadraticPair":
        if not (phi.is_symmetric() and psi.is_symmetric()):
            raise PreconditionError("both forms must be symmetric")
        if phi.rows != psi.rows:
            raise PreconditionError("forms must have the same size")
        rep = inertia(phi)
        if rep.zeros > 0:
            raise PreconditionError("Phi must have nonzero determinant")
        if rep.positives == phi.rows:
            kind = "positive"
        elif rep.negatives == phi.rows:
            kind = "negative"
        else:
            raise PreconditionError(
                "Phi must be definite (positive or negative); indefinite"
                " leading form rejected"
            )
        return cls(phi, psi, kind)

    @property
    def size(self) -> int:
        return self.phi.rows

    _pencil = cached_property(lambda self: Pencil(self.phi, self.psi, "sA-B"))

    def pencil(self) -> Pencil:
        """The pencil s*Phi - Psi, one per pair."""
        return self._pencil


class ThetaComponent(Record):
    root: RealRoot
    multiplicity: int
    theta: RatMatrix | tuple  # exact matrix, or row tuples of floats

    def theta_numpy(self) -> np.ndarray:
        import numpy as np

        if isinstance(self.theta, RatMatrix):
            return self.theta.to_numpy()
        return np.array(self.theta)


class ThetaDecomposition(Record):
    components: tuple[ThetaComponent, ...]
    path: str  # "exact" | "float"
    size: int


class TheoremReport(Record):
    ok: bool
    phi_residual: Fraction | float
    psi_residual: Fraction | float
    ranks_ok: bool
    semidefinite_ok: bool
    multiplicity_total_ok: bool
    path: str


def remarkable_circumstance_check(pair: QuadraticPair) -> MinorDivisibility:
    """Divisibility of every adjugate entry of s*Phi - Psi by
    (s - s_mu)^(lambda_mu - 1), read off the kernel at the roots and
    grouped by square-free factor so that irrational roots are covered
    jointly; one record per factor, simple ones included."""
    return _minor_divisibility(pair.pencil())


def _residue(pencil: Pencil, point: Fraction, mult: int) -> np.ndarray:
    """R = G(point)/h(point) in floats at a refined root approximation: G
    is the (mult-1)-th Taylor coefficient of the adjugate, h the mult-th of
    f = det, for mult at most n, as for any root of f.  A coefficient c of
    order k is rounded as float(c * k!)/k!, the k-th derivative at the
    midpoint over k!; each adjugate coefficient is one integer over the
    denominator of `Pencil._adjugate_taylor`, divided once.
    """
    import numpy as np

    n = pencil.size
    den, g = pencil._adjugate_taylor(point, mult)
    h = pencil.char_poly().taylor(point, mult + 1)[-1]
    fm, fh = factorial(mult - 1), factorial(mult)
    G = np.array([ts[-1] * fm / den / fm for ts in g]).reshape(n, n)
    return G / (float(h * fh) / fh)


def _exact_theta(pair: QuadraticPair, root: RealRoot) -> RatMatrix:
    """theta = (Phi V)(V^T Phi V)^-1 (Phi V)^T for the integer kernel basis V
    (`_nullspace` without its denominators, which theta does not see) of the
    characteristic matrix at the exact root, in `RatMatrix` products over
    one denominator each.  A kernel of dimension below the multiplicity is a
    Jordan chain longer than one, which a definite pair does not have: the
    adjugate then is not divisible to the expected order."""
    basis = _nullspace(pair.pencil()._numerators(root.value)[1], pair.size)
    if len(basis) != root.multiplicity:
        raise PreconditionError(
            "adjugate entry not divisible to the expected order; the"
            " leading form is not definite"
        )
    Vt = RatMatrix(len(basis), pair.size, 1, tuple([x for _, v in basis for x in v]))
    phi_v = pair.phi @ Vt.transpose()
    return phi_v @ (Vt @ phi_v).inverse() @ phi_v.transpose()


def _exact_residuals(comps, pair: QuadraticPair) -> tuple[RatMatrix, RatMatrix]:
    """sum(theta) - Phi and sum(root * theta) - Psi over exact components,
    each in integers over one common denominator."""
    thetas = [c.theta for c in comps]
    return (
        _linear_combination([1] * len(thetas) + [-1], thetas + [pair.phi]),
        _linear_combination([c.root.value for c in comps] + [-1], thetas + [pair.psi]),
    )


def _float_residuals(comps, pair: QuadraticPair) -> tuple[float, float]:
    """max |sum(theta) - Phi| and max |sum(root * theta) - Psi| over float
    components; both read 0.0 on the empty pair."""
    import numpy as np

    n = pair.size
    thetas = [c.theta_numpy() for c in comps]
    sum_theta = sum(thetas, np.zeros((n, n)))
    sum_s_theta = sum((c.root.as_float() * T for c, T in zip(comps, thetas)), np.zeros((n, n)))
    return (
        float(np.max(np.abs(sum_theta - pair.phi.to_numpy()), initial=0.0)),
        float(np.max(np.abs(sum_s_theta - pair.psi.to_numpy()), initial=0.0)),
    )


def theta_components(pair: QuadraticPair, path: str = "auto") -> ThetaDecomposition:
    """The pieces (root, multiplicity, theta) with Phi = sum(theta) and
    Psi = sum(root * theta); theta = Phi @ R @ Phi for the residue R of the
    pencil inverse at the root, whatever the sign of the definite Phi; on
    the exact path it is read off the kernel at the root (`_exact_theta`)."""
    pencil = pair.pencil()
    n = pair.size
    roots = pencil.roots(FLOAT_ROOT_WIDTH)
    if sum(r.multiplicity for r in roots) != n:
        raise PreconditionError("characteristic roots are not all real")
    mode = _decide_path(path, all(r.is_exact for r in roots))
    phi = pair.phi if mode == "exact" else pair.phi.to_numpy()
    comps = []
    for root in roots:
        if mode == "exact":
            theta = _exact_theta(pair, root)
        else:
            theta = phi @ _residue(pencil, _root_point(root), root.multiplicity) @ phi
            theta = tuple(tuple(float(x) for x in row) for row in (theta + theta.T) / 2)
        comps.append(ThetaComponent(root, root.multiplicity, theta))
    if mode == "exact":
        if any(any(res.nums) for res in _exact_residuals(comps, pair)):
            raise PreconditionError(
                "residue components do not reassemble the pair; the leading"
                " form is not definite"
            )
    else:
        import numpy as np

        phi_res, psi_res = _float_residuals(comps, pair)
        if (
            phi_res > FLOAT_RESIDUAL_TOL * float(np.max(np.abs(phi), initial=1.0))
            or psi_res
            > FLOAT_RESIDUAL_TOL * float(np.max(np.abs(pair.psi.to_numpy()), initial=1.0))
        ):
            raise PreconditionError(
                "residue components do not reassemble the pair within"
                " tolerance"
            )
    return ThetaDecomposition(tuple(comps), mode, n)


def verify_theorem(
    dec: ThetaDecomposition,
    pair: QuadraticPair,
    tolerance: float = FLOAT_RESIDUAL_TOL,
) -> TheoremReport:
    """Re-check the two sum identities, per-component rank = multiplicity,
    semidefiniteness of each (sign-adjusted) piece and the multiplicity
    count.  Exact path: exact equalities; floating path: residuals against
    `tolerance` (default 1e-9) in max norm."""
    n = dec.size
    sign = 1 if pair.definiteness == "positive" else -1
    mult_ok = sum(c.multiplicity for c in dec.components) == n
    if dec.path == "exact":
        ranks_ok = True
        semidef_ok = True
        for c in dec.components:
            assert isinstance(c.theta, RatMatrix)
            rep = inertia(c.theta)
            ranks_ok &= n - rep.zeros == c.multiplicity
            # the signature of -theta swaps that of theta
            semidef_ok &= (rep.negatives if sign > 0 else rep.positives) == 0
        phi_res, psi_res = (
            Fraction(max(map(abs, res.nums), default=0), res.den)
            for res in _exact_residuals(dec.components, pair)
        )
        ok = phi_res == 0 and psi_res == 0 and ranks_ok and semidef_ok and mult_ok
        return TheoremReport(ok, phi_res, psi_res, ranks_ok, semidef_ok, mult_ok, "exact")
    import numpy as np

    ranks_ok = True
    semidef_ok = True
    for c in dec.components:
        T = c.theta_numpy()
        eigs = np.linalg.eigvalsh(sign * T)
        scale = max(1.0, float(np.max(np.abs(T))))
        semidef_ok &= bool(eigs.min() >= -tolerance * scale)
        rank = int(np.sum(np.abs(eigs) > 1e-7 * scale))
        ranks_ok &= rank == c.multiplicity
    phi_res, psi_res = _float_residuals(dec.components, pair)
    ok = (
        phi_res <= tolerance
        and psi_res <= tolerance
        and ranks_ok
        and semidef_ok
        and mult_ok
    )
    return TheoremReport(ok, phi_res, psi_res, ranks_ok, semidef_ok, mult_ok, "float")
