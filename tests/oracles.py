"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the code paths it checks: determinants
by cofactor expansion instead of interpolation/Bareiss, adjugates entry by
entry from those cofactors instead of elimination/interpolation, minor-GCD
chains by enumerating every minor instead of Smith-form elimination, the matrix
exponential by a scaled-and-squared Taylor series instead of spectral
projectors, root brackets by plain bisection instead of Sturm machinery,
interval narrowing one halving at a time instead of quadratic interval
refinement, Sturm chains from Fraction remainders instead of integer
pseudo-remainders, ODE residuals by central finite differences instead of
symbolic derivatives, residues by polynomial deflation instead of Taylor
coefficients, and signatures from the congruence diagonal instead of
leading minors.  The float kernels keep their former definitions here:
the characteristic matrix as a Fraction matrix converted entry by entry,
trajectories one time at a time, and leading minors as one block
determinant each.  The small constructors and products the tests build
their inputs with live here too, outside the library.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from secular.errors import PreconditionError
from secular.invariants import MinorGcdChain, _congruence_diagonal
from secular.matrices import PolyMatrix, RatMatrix, det_rational
from secular.oscillate import Trajectory
from secular.polynomials import ONE, Poly, poly_gcd


def poly_from_roots(roots) -> Poly:
    """The monic product of (x - r) over the roots."""
    p = ONE
    for r in roots:
        p = p * Poly([-Fraction(r), 1])
    return p


def expand_factors(factors) -> Poly:
    """Multiply a (factor, exponent) list back out."""
    p = ONE
    for f, e in factors:
        p = p * f**e
    return p


def poly_matmul(P: PolyMatrix, Q: PolyMatrix) -> PolyMatrix:
    """Product of polynomial matrices by the row-times-column definition."""
    return PolyMatrix.from_rows([
        [sum((P.entry(i, k) * Q.entry(k, j) for k in range(P.cols)), Poly())
         for j in range(Q.cols)]
        for i in range(P.rows)
    ])


def cofactor_det_poly(P: PolyMatrix) -> Poly:
    """Determinant by first-row cofactor expansion."""
    n = P.rows
    if n == 1:
        return P.entry(0, 0)
    total = Poly()
    rows = list(range(1, n))
    for j in range(n):
        cols = [c for c in range(n) if c != j]
        term = P.entry(0, j) * cofactor_det_poly(P.submatrix(rows, cols))
        total = total + term if j % 2 == 0 else total - term
    return total


def cofactor_det_rat(M: RatMatrix) -> Fraction:
    n = M.rows
    if n == 1:
        return M.entry(0, 0)
    total = Fraction(0)
    rows = list(range(1, n))
    for j in range(n):
        cols = [c for c in range(n) if c != j]
        term = M.entry(0, j) * cofactor_det_rat(M.submatrix(rows, cols))
        total += term if j % 2 == 0 else -term
    return total


def bisect_bracket(p: Poly, lo: Fraction, hi: Fraction, width: Fraction):
    """Plain sign-change bisection; (lo, hi) must bracket a single root."""
    lo, hi = Fraction(lo), Fraction(hi)
    assert (p.evaluate(lo) > 0) != (p.evaluate(hi) > 0)
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = p.evaluate(mid)
        if v == 0:
            return mid, mid
        if (p.evaluate(lo) > 0) != (v > 0):
            hi = mid
        else:
            lo = mid
    return lo, hi


def bisect_narrow(cs, a: int, b: int, d: int, wide) -> tuple[int, int, int]:
    """Halve the isolating interval (a/d, b/d) of the integer polynomial cs
    (coefficients lowest degree first) while wide(a, b, d) holds, one sign
    per halving: the endpoints stay unreduced numerators over a denominator
    that doubles, and a midpoint that is a root moves halfway toward a.
    This is the narrowing loop that quadratic interval refinement replaced."""

    def sign(n, d):
        v = sum(c * n**i * d ** (len(cs) - 1 - i) for i, c in enumerate(cs))
        return (v > 0) - (v < 0)

    lo_positive = sign(a, d) > 0
    while wide(a, b, d):
        m, a, b, d = a + b, 2 * a, 2 * b, 2 * d
        s = sign(m, d)
        while s == 0:
            m, a, b, d = a + m, 2 * a, 2 * b, 2 * d
            s = sign(m, d)
        if (s > 0) != lo_positive:
            b = m
        else:
            a = m
    return a, b, d


def sturm_chain_by_divmod(p: Poly) -> list[Poly]:
    """Sturm chain from Fraction `Poly` remainders: each element is the
    negated remainder of lc(b)**e * a by b, reduced to its primitive part
    with the chain's sign kept (e = deg a - deg b + 1)."""
    _, p0 = p.integer_primitive()
    chain = [p0]
    if p0.degree() >= 1:
        chain.append(p0.derivative().integer_primitive()[1])
        while chain[-1].degree() >= 1:
            a, b = chain[-2], chain[-1]
            scale = b.leading() ** (a.degree() - b.degree() + 1)
            rem = (a * scale) % b
            if rem.is_zero():
                break
            neg = -rem if scale > 0 else rem
            content, prim = neg.integer_primitive()
            chain.append(prim if content > 0 else -prim)
    return chain


def expm_taylor(M: np.ndarray, t: float, terms: int = 40) -> np.ndarray:
    """Scaling-and-squaring truncated series for exp(M t)."""
    A = np.array(M, dtype=float) * t
    squarings = 0
    while np.max(np.abs(A)) > 0.5:
        A = A / 2
        squarings += 1
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms):
        term = term @ A / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def ode_residual(evaluate, M: np.ndarray, times, h: float = 1e-4) -> float:
    """Max relative residual of d/dt x = M x by central differences."""
    worst = 0.0
    scale = max(
        1e-12, max(float(np.max(np.abs(evaluate(float(t))))) for t in times)
    )
    for t in times:
        t = float(t)
        deriv = (evaluate(t + h) - evaluate(t - h)) / (2 * h)
        res = deriv - M @ evaluate(t)
        worst = max(worst, float(np.max(np.abs(res))) / scale)
    return worst


def second_order_residual(solution, model, times, h: float = 1e-4) -> float:
    """Max relative residual of A y'' + B y = 0 by central differences."""
    A = model.mass.to_numpy()
    B = model.stiffness.to_numpy()
    worst = 0.0
    scale = max(
        1e-12,
        max(float(np.max(np.abs(solution.evaluate(float(t))))) for t in times),
    )
    for t in times:
        t = float(t)
        ypp = (
            solution.evaluate(t + h)
            - 2 * solution.evaluate(t)
            + solution.evaluate(t - h)
        ) / (h * h)
        res = A @ ypp + B @ solution.evaluate(t)
        worst = max(worst, float(np.max(np.abs(res))) / scale)
    return worst


def cayley_orthogonal(skew_rows) -> RatMatrix:
    """Rational orthogonal matrix (I - S)(I + S)^-1 from a rational skew S."""
    S = RatMatrix.from_rows(skew_rows)
    n = S.rows
    eye = RatMatrix.identity(n)
    return (eye - S) @ (eye + S).inverse()


def cofactor_adjugate_rat(M: RatMatrix) -> RatMatrix:
    """Adjugate by its definition: adj[j][i] = (-1)^(i+j) * minor(i, j)."""
    n = M.rows
    if n == 1:
        return RatMatrix.from_rows([[1]])
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = M.submatrix(
                [r for r in range(n) if r != i], [c for c in range(n) if c != j]
            )
            minor = cofactor_det_rat(sub)
            out[j][i] = -minor if (i + j) % 2 else minor
    return RatMatrix.from_rows(out)


def cofactor_adjugate_poly(P: PolyMatrix) -> PolyMatrix:
    """Polynomial adjugate by its definition, entry by entry."""
    n = P.rows
    if n == 1:
        return PolyMatrix.from_rows([[Poly([1])]])
    out = [[Poly()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = P.submatrix(
                [r for r in range(n) if r != i], [c for c in range(n) if c != j]
            )
            minor = cofactor_det_poly(sub)
            out[j][i] = -minor if (i + j) % 2 else minor
    return PolyMatrix.from_rows(out)


def minor_gcd_chain_by_minors(P: PolyMatrix) -> MinorGcdChain:
    """The chain by its definition: Delta_k = monic gcd of all k x k minors.

    Enumerates C(n, k)^2 cofactor-expanded determinants for every k, so it is
    for small n only; singular matrices raise the engine's error.
    """
    n = P.rows
    full = cofactor_det_poly(P)
    if full.is_zero():
        raise PreconditionError(
            "singular pencil (determinant identically zero): Kronecker's"
            " singular case is out of scope"
        )
    deltas = []
    for k in range(1, n):
        g = Poly()
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                m = cofactor_det_poly(P.submatrix(rows, cols))
                if not m.is_zero():
                    g = poly_gcd(g, m) if g else m.monic()
        deltas.append(g)
    deltas.append(full.monic())
    return MinorGcdChain(tuple(deltas))


def residue_by_deflation(adj: PolyMatrix, f: Poly, root: Fraction, mult: int) -> RatMatrix:
    """R = G(root)/h(root) with G = adj / (x - root)^(mult-1) and
    h = f / (x - root)^mult formed as quotient polynomials by exact divmod."""
    lin = Poly([-root, 1])
    g = []
    for entry in adj.entries:
        quo, rem = divmod(entry, lin ** (mult - 1))
        if not rem.is_zero():
            raise PreconditionError("adjugate entry not divisible to the expected order")
        g.append(quo.evaluate(root))
    h, rem = divmod(f, lin**mult)
    if not rem.is_zero():
        raise PreconditionError("root multiplicity mismatch during deflation")
    return RatMatrix(adj.rows, adj.cols, tuple(g)).scale(1 / h.evaluate(root))


def congruence_signature(M: RatMatrix) -> tuple[int, int, int]:
    """(positives, negatives, zeros) counted on the exact congruence diagonal."""
    diag = _congruence_diagonal(M)
    pos = sum(1 for d in diag if d > 0)
    neg = sum(1 for d in diag if d < 0)
    return pos, neg, len(diag) - pos - neg


def verify_jordan_exact(sol) -> bool:
    """Exact residual check sigma*psi + psi' = M psi on every real block of
    an exact-path Jordan solution."""
    if sol.path != "exact":
        return False
    for b in sol.blocks:
        coeffs = [list(c) for c in b.cos_coeffs]
        for k, ck in enumerate(coeffs):
            lhs = [Fraction(b.sigma_re) * x for x in ck]
            if k + 1 < len(coeffs):
                lhs = [a + (k + 1) * x for a, x in zip(lhs, coeffs[k + 1])]
            if tuple(lhs) != sol.matrix.apply(ck):
                return False
    return True


def float_char_matrix_by_fractions(pencil, x) -> np.ndarray:
    """The characteristic matrix at x as Fractions, then each entry to float."""
    return pencil.evaluate(x).to_numpy()


def leading_minors_by_blocks(M: RatMatrix) -> list[Fraction]:
    """One determinant per leading k x k block, k = 1..n."""
    idx = list(range(M.rows))
    return [det_rational(M.submatrix(idx[:k], idx[:k])) for k in range(1, M.rows + 1)]


def modal_at(sol, t: float) -> np.ndarray:
    """A modal solution at one time: modes, then drifts, added in order."""
    y = np.zeros(sol.model.size)
    for m in sol.modes:
        y += m.amplitude * math.sin(m.omega * t + m.phase) * m.shape_floats()
    for d in sol.drifts:
        y += (d.offset + d.rate * t) * d.shape_floats()
    return y


def jordan_at(sol, t: float) -> np.ndarray:
    """A Jordan solution at one time, block by block."""
    n = sol.size
    out = np.zeros(n)
    for b in sol.blocks:
        block = np.zeros(n)
        carrier = math.exp(float(b.sigma_re) * t)
        cos_t = math.cos(b.sigma_im * t) if b.sigma_im else 1.0
        sin_t = math.sin(b.sigma_im * t) if b.sigma_im else 0.0
        poly_cos = np.zeros(n)
        tk = 1.0
        for c in b.cos_coeffs:
            poly_cos += tk * np.array([float(x) for x in c])
            tk *= t
        block += carrier * cos_t * poly_cos
        if b.sin_coeffs:
            poly_sin = np.zeros(n)
            tk = 1.0
            for c in b.sin_coeffs:
                poly_sin += tk * np.array([float(x) for x in c])
                tk *= t
            block += carrier * sin_t * poly_sin
        out += block
    return out


def trajectory_per_time(at, times) -> Trajectory:
    """A trajectory sampled one time at a time with `at(t)`, and its grid
    sup-norm."""
    rows = []
    sup = 0.0
    for t in times:
        y = at(float(t))
        sup = max(sup, float(np.max(np.abs(y))) if y.size else 0.0)
        rows.append(tuple(float(v) for v in y))
    return Trajectory(tuple(float(t) for t in times), tuple(rows), sup)
