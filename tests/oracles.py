"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the code paths it checks: determinants
by cofactor expansion instead of interpolation/Bareiss, adjugates entry by
entry from those cofactors instead of elimination/interpolation, minor-GCD
chains by enumerating every minor instead of Smith-form elimination,
diagonalizability from the Smith form's minimal polynomial instead of
adjugate divisibility, the matrix
exponential by a scaled-and-squared Taylor series instead of spectral
projectors, root brackets by plain bisection instead of Sturm machinery,
interval narrowing one halving at a time instead of quadratic interval
refinement, Sturm chains from Fraction remainders instead of integer
pseudo-remainders, ODE residuals by central finite differences instead of
symbolic derivatives, residues by polynomial deflation instead of Taylor
coefficients, signatures from the Fraction congruence diagonal instead of
the symmetric integer Bareiss pass, and spectral projectors by Bezout partial fractions with
chain lengths from the rank of matrix powers instead of the resolvent's
principal parts.  The exact kernels that now run in integers over one
common denominator keep their former `Fraction` definitions here: Taylor
coefficients by synthetic division, divisibility by `divmod`, the monic gcd
by Euclid's remainders and Yun's square-free decomposition on those gcds
(instead of the primitive pseudo-remainder sequence and exact integer
division), matrix products, linear combinations (scaling and negation
among them), transposes, inverses by cofactors, bilinear forms, the
characteristic matrix at a point and as `Poly` entries in either
orientation, and rank and nullspace from the reduced row echelon form.  The float kernels keep their former definitions too: the
characteristic matrix as a Fraction matrix converted entry by entry,
trajectories one time at a time, and leading minors as one block
determinant each.  Routes that rebuilt what a pencil already holds keep
theirs: theta pieces of a negative definite pair from the positive pair
(-Phi, -Psi) negated back, and Darboux's signature steps on Fraction samples
M - lambda*I between the roots of the similarity pencil.  The kernels that
now read integer numerators keep their `Fraction` polynomial definitions:
the Smith form by `divmod` on `Poly` rows kept primitive, the residue from
`Poly.taylor` on the `PolyMatrix` adjugate, adjugate divisibility by
`Poly.divides` on that adjugate, and the exact adjugate eigenvector by
`Poly.evaluate` on it.  Adjugate divisibility keeps its integer definition
too, from before the kernel at the roots decided it: exact division of the
pencil's interpolated integer adjugate.  The exact residue of a pair keeps
its definition before the resolvent's principal part took it over: Taylor
coefficients of order mult - 1 of the integer adjugate over order mult of
the determinant, with the lower orders required to vanish.  Rational roots keep
their former reading: one `limit_denominator` candidate from an interval
narrower than 1/(2 lc**2), and every final narrowing started from the
isolating interval.  Root isolation keeps its Sturm-chain form from before
Jacobi pencils counted roots by their leading minors: chain bisection,
rational roots tested in cells narrowed below 1/lc, and a second narrowing
from those cells or from the isolating interval.  The floating path keeps
its numpy routes from before it ran on Python floats: the SVD null vectors
Jacobi pencils took before their integer minors gave them, Gram-Schmidt
on arrays, and the matrix exponential summed as arrays.  `Poly` keeps its
form from before it stored content * prim: a tuple of Fraction
coefficients (`FractionPoly`), converted to a primitive integer part and
back around each product, division, gcd and Yun decomposition.  The small
constructors and products the tests build their inputs with live here too,
outside the library.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import factorial
from math import gcd as int_gcd
from math import lcm as int_lcm

import numpy as np

from secular.errors import InternalError, PathUnavailableError, PreconditionError
from secular.invariants import (
    MinorDivisibility,
    MinorGcdChain,
    inertia,
    invariant_factors,
    minor_gcd_chain,
)
from secular.matrices import Pencil, PolyMatrix, RatMatrix, adjugate_pencil, det_rational
from secular.oscillate import Trajectory, _principal_parts
from secular.polynomials import (
    ONE,
    Poly,
    _derivative,
    _exact_quo,
    _frac_str,
    _mul,
    _over_lcm,
    _pdivmod,
    _primitive,
    _prs,
    _taylor,
    _yun,
    squarefree_decompose,
)
from secular.quadpairs import (
    QuadraticPair,
    ThetaComponent,
    ThetaDecomposition,
    theta_components,
)
from secular.realroots import DEFAULT_WIDTH, RealRoot, _halve, _narrow, _sign_at, refine_root


def poly_gcd_by_euclid(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor over Q, by Euclid on Fraction
    remainders.

    gcd(p, 0) is monic(p); gcd(0, 0) is rejected.
    """
    if p.is_zero() and q.is_zero():
        raise PreconditionError("gcd(0, 0) is undefined")
    while not q.is_zero():
        p, q = q, p % q
    return p.monic()


def squarefree_by_fractions(p: Poly) -> list[tuple[Poly, int]]:
    """Yun decomposition over Q with Fraction gcds and quotients:
    monic(p) = product of factor**exponent with the factors monic,
    square-free and pairwise coprime.

    Factors are returned in increasing exponent order; exponent-k factors of
    degree zero are omitted.
    """
    if p.is_zero():
        raise PreconditionError("square-free decomposition of the zero polynomial")
    p = p.monic()
    if p.degree() == 0:
        return []
    out: list[tuple[Poly, int]] = []
    g = poly_gcd_by_euclid(p, p.derivative())
    if g.degree() == 0:
        return [(p, 1)]
    w = p // g
    y = p.derivative() // g
    k = 1
    while w.degree() > 0:
        z = y - w.derivative()
        f = poly_gcd_by_euclid(w, z) if not z.is_zero() else w.monic()
        if f.degree() > 0:
            out.append((f.monic(), k))
        w = w // f
        y = z // f
        k += 1
    return out


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


def conjugated_jordan(rng, n: int, denominators=(1, 2, 3)) -> RatMatrix:
    """S J S^-1 for a random Jordan matrix J of size n with rational
    eigenvalues (some repeated, blocks of random sizes) and a random
    unimodular integer S built from elementary row operations."""
    if n == 0:
        return RatMatrix.zeros(0, 0)
    values = [Fraction(rng.randint(-4, 4), rng.choice(denominators))
              for _ in range(rng.randint(1, n))]
    J = [[Fraction(0)] * n for _ in range(n)]
    i = 0
    while i < n:
        size = rng.randint(1, n - i)
        sigma = rng.choice(values)
        for k in range(i, i + size):
            J[k][k] = sigma
            if k + 1 < i + size:
                J[k][k + 1] = Fraction(1)
        i += size
    S = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        r, c = rng.sample(range(n), 2)
        f = rng.choice((-2, -1, 1, 2))
        S[r] = [x + f * y for x, y in zip(S[r], S[c])]
    S = RatMatrix.from_rows(S)
    return S @ RatMatrix.from_rows(J) @ S.inverse()


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


def primitive_by_fractions(p: Poly) -> tuple[Fraction, Poly]:
    """(content, primitive) with p = content * primitive, the primitive part
    with coprime integer coefficients and a positive leading one."""
    if p.is_zero():
        return Fraction(0), p
    content = Fraction(math.gcd(*[c.numerator for c in p.coeffs]),
                       math.lcm(*[c.denominator for c in p.coeffs]))
    if p.leading() < 0:
        content = -content
    return content, p.scale(1 / content)


def sturm_chain_by_divmod(p: Poly) -> list[Poly]:
    """Sturm chain from Fraction `Poly` remainders: each element is the
    negated remainder of lc(b)**e * a by b, reduced to its primitive part
    with the chain's sign kept (e = deg a - deg b + 1)."""
    _, p0 = primitive_by_fractions(p)
    chain = [p0]
    if p0.degree() >= 1:
        chain.append(primitive_by_fractions(p0.derivative())[1])
        while chain[-1].degree() >= 1:
            a, b = chain[-2], chain[-1]
            scale = b.leading() ** (a.degree() - b.degree() + 1)
            rem = (a * scale) % b
            if rem.is_zero():
                break
            neg = -rem if scale > 0 else rem
            content, prim = primitive_by_fractions(neg)
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
                    g = poly_gcd_by_euclid(g, m) if g else m.monic()
        deltas.append(g)
    deltas.append(full.monic())
    return MinorGcdChain(tuple(deltas))


def is_diagonalizable_by_smith(P: Pencil | RatMatrix) -> tuple[bool, tuple]:
    """Diagonalizability the long way: the verdict is square-freeness of the
    minimal polynomial, the last invariant factor of a Smith form, by
    gcd(minimal, minimal'); each multiple root's record tests its factor to
    the power mu-1 against Delta_(n-1) of the same chain."""
    if isinstance(P, RatMatrix):
        P = Pencil.similarity(P)
    if P.orientation != "sA-B" or P.A != RatMatrix.identity(P.size):
        raise PreconditionError(
            "diagonalizability test expects the pencil lambda*I - A"
        )
    chain = minor_gcd_chain(P.char_matrix())
    minimal = invariant_factors(chain).factors[-1]
    verdict = poly_gcd_by_euclid(minimal, minimal.derivative()).degree() <= 0
    # evidence in Jordan's multiple-root formulation
    n = P.size
    records = []
    charpoly = chain.deltas[-1]
    sub_gcd = chain.deltas[-2] if n >= 2 else Poly([1])
    for factor, mult in squarefree_by_fractions(charpoly):
        if mult < 2:
            continue
        annihilates = divides_by_divmod(factor ** (mult - 1), sub_gcd)
        records.append((factor, mult, annihilates))
    return verdict, tuple(records)


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
    return RatMatrix.from_entries(adj.rows, adj.cols, g).scale(1 / h.evaluate(root))


def _congruence_diagonal(M: RatMatrix) -> list[Fraction]:
    """Diagonal of an exact symmetric congruence reduction of M.

    Pivot search: the current diagonal entry, else a later nonzero diagonal
    entry (symmetric swap), else the 2 x 2 off-diagonal trick of adding one
    row/column pair into another.
    """
    n = M.rows
    a = M.to_rows()

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_into(i, j):
        # row_i += row_j, col_i += col_j
        a[i] = [x + y for x, y in zip(a[i], a[j])]
        for row in a:
            row[i] = row[i] + row[j]

    diag: list[Fraction] = []
    for k in range(n):
        if a[k][k] == 0:
            j = next((t for t in range(k + 1, n) if a[t][t] != 0), None)
            if j is not None:
                swap(k, j)
            else:
                j = next((t for t in range(k + 1, n) if a[k][t] != 0), None)
                if j is not None:
                    add_into(k, j)
        pivot = a[k][k]
        diag.append(pivot)
        if pivot == 0:
            continue
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / pivot
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
                for row in a:
                    row[i] = row[i] - f * row[k]
    return diag


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


def char_matrix_by_fractions(pencil: Pencil, s) -> RatMatrix:
    """The characteristic matrix at a rational point, entry by entry in
    Fractions: s*a - b for "sA-B", a - s*b for "A-sB"."""
    s = Fraction(s)
    pairs = zip(pencil.A.entries, pencil.B.entries)
    if pencil.orientation == "sA-B":
        values = [s * a - b for a, b in pairs]
    else:
        values = [a - s * b for a, b in pairs]
    return RatMatrix.from_entries(pencil.size, pencil.size, values)


def char_poly_matrix_by_fractions(pencil: Pencil) -> PolyMatrix:
    """The characteristic matrix as one `Poly` per entry, from the Fraction
    entries of A and B in the pencil's orientation."""
    pairs = zip(pencil.A.entries, pencil.B.entries)
    if pencil.orientation == "sA-B":
        entries = [Poly([-b, a]) for a, b in pairs]
    else:
        entries = [Poly([a, -b]) for a, b in pairs]
    return PolyMatrix(pencil.size, pencil.size, tuple(entries))


def float_char_matrix_by_fractions(pencil, x) -> np.ndarray:
    """The characteristic matrix at x as Fractions, then each entry to float."""
    return char_matrix_by_fractions(pencil, x).to_numpy()


def taylor_by_fractions(p: Poly, a, count: int) -> list:
    """The first `count` coefficients of p in powers of (x - a): each is the
    remainder of one Fraction synthetic division by (x - a), taken in place
    on the quotient of the previous one."""
    cs = list(p.coeffs)
    out = []
    for _ in range(count):
        acc = 0 * a
        for i in range(len(cs) - 1, -1, -1):
            acc = cs[i] = acc * a + cs[i]
        out.append(acc)
        cs = cs[1:]
    return out


def divides_by_divmod(g: Poly, e: Poly) -> bool:
    """True iff g divides e exactly, by the remainder of Fraction division
    (zero divides only zero)."""
    if g.is_zero():
        return e.is_zero()
    return (e % g).is_zero()


def matmul_by_fractions(A: RatMatrix, B: RatMatrix) -> RatMatrix:
    """The matrix product by Fraction dot products."""
    if A.cols != B.rows:
        raise PreconditionError("matrix shape mismatch in product")
    out = []
    for i in range(A.rows):
        ri = A.row(i)
        out.append(
            [
                sum((ri[k] * B.entry(k, j) for k in range(A.cols)),
                    Fraction(0))
                for j in range(B.cols)
            ]
        )
    return RatMatrix.from_entries(A.rows, B.cols, [v for row in out for v in row])


def linear_combination_by_fractions(weights, matrices) -> RatMatrix:
    """sum of w * M entry by entry, as Fraction products summed from zero;
    one weight and one matrix give a scaled (or negated) matrix."""
    M0 = matrices[0]
    return RatMatrix.from_entries(M0.rows, M0.cols, [
        sum((Fraction(w) * v for w, v in zip(weights, values)), Fraction(0))
        for values in zip(*[M.entries for M in matrices])
    ])


def transpose_by_fractions(M: RatMatrix) -> RatMatrix:
    """The transpose, entry by entry."""
    return RatMatrix.from_entries(M.cols, M.rows, [
        M.entry(i, j) for j in range(M.cols) for i in range(M.rows)])


def inverse_by_cofactors(M: RatMatrix) -> RatMatrix:
    """adj M / det M, both by cofactor expansion."""
    return linear_combination_by_fractions([1 / cofactor_det_rat(M)],
                                           [cofactor_adjugate_rat(M)])


def _rref_by_fractions(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by Fraction row operations; returns (rows,
    pivot column list)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank_by_fractions(M: RatMatrix) -> int:
    """Rank as the pivot count of the Fraction reduced row echelon form."""
    return len(_rref_by_fractions(M.to_rows())[1])


def nullspace_by_fractions(M: RatMatrix) -> list[tuple]:
    """Nullspace basis from the Fraction reduced row echelon form: one vector
    per free column, 1 in that coordinate."""
    reduced, pivots = _rref_by_fractions(M.to_rows())
    pivot_of_col = {c: r for r, c in enumerate(pivots)}
    basis = []
    for j in range(M.cols):
        if j in pivot_of_col:
            continue
        v = [Fraction(0)] * M.cols
        v[j] = Fraction(1)
        for c, r in pivot_of_col.items():
            v[c] = -reduced[r][j]
        basis.append(tuple(v))
    return basis


def bilinear_by_fractions(B: RatMatrix, v, w) -> Fraction:
    """v^T B w as a sum of Fraction products."""
    return sum(
        (Fraction(v[i]) * B.entry(i, j) * Fraction(w[j])
         for i in range(B.rows) for j in range(B.cols)),
        Fraction(0),
    )


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


def _matrix_power_apply(M: RatMatrix, k: int, v) -> tuple:
    out = tuple(Fraction(x) for x in v)
    for _ in range(k):
        out = M.apply(out)
    return out


def spectral_projectors_by_bezout(
    M: RatMatrix,
) -> list[tuple[Fraction, int, int, RatMatrix]]:
    """Exact spectral projectors of a matrix with rational eigenvalues.

    Returns (eigenvalue, algebraic multiplicity, chain length, projector).
    The projectors come from the Bezout identity behind the partial-fraction
    split of 1/charpoly: with F = prod (x - sigma_i)^(m_i), write
    1 = sum N_i * F/(x - sigma_i)^(m_i); then p_i = (N_i * F_i)(M).  Chain
    lengths are read off iterated nullspaces of (M - sigma*I)^k.
    """
    n = M.rows
    pencil = Pencil.similarity(M)
    roots = pencil.roots()
    if sum(r.multiplicity for r in roots) != n or any(
        not r.is_exact for r in roots
    ):
        raise PathUnavailableError(
            "spectral projectors need all-rational eigenvalues; use the"
            " floating Jordan path instead"
        )
    charpoly = pencil.char_poly()
    projectors = []
    ident = RatMatrix.identity(n)
    for root in roots:
        sigma, m = root.value, root.multiplicity
        lin_pow = Poly([-sigma, 1]) ** m
        cofactor = charpoly // lin_pow
        # N = cofactor^{-1} mod (x - sigma)^m via extended Euclid
        N = _invert_mod(cofactor, lin_pow)
        proj_poly = (N * cofactor) % charpoly
        P = _poly_of_matrix(proj_poly, M)
        # chain length via iterated nullspaces of (M - sigma I)^k
        shifted = M - ident.scale(sigma)
        power = ident
        chain = m
        for k in range(1, m + 1):
            power = power @ shifted
            if n - power.rank() == m:
                chain = k
                break
        projectors.append((sigma, m, chain, P))
    return projectors


def _invert_mod(a: Poly, modulus: Poly) -> Poly:
    """a^{-1} mod modulus for coprime arguments (extended Euclid)."""
    r0, r1 = modulus, a % modulus
    s0, s1 = Poly(), Poly([1])
    while not r1.is_zero():
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if r0.degree() != 0:
        raise InternalError("arguments not coprime in modular inverse")
    return (s0.scale(Fraction(1) / r0.leading())) % modulus


def _poly_of_matrix(p: Poly, M: RatMatrix) -> RatMatrix:
    n = M.rows
    out = RatMatrix.zeros(n, n)
    power = RatMatrix.identity(n)
    for k, c in enumerate(p.coeffs):
        if k:
            power = power @ M
        if c:
            out = out + power.scale(c)
    return out


def jordan_blocks_by_bezout(M: RatMatrix, x0) -> list[tuple]:
    """(sigma, chain, coefficient vectors) per exact Jordan block of
    dx/dt = M x: coefficient k is (M - sigma I)^k p x0 / k!, k < chain."""
    n = M.rows
    x0 = tuple(Fraction(v) for v in x0)
    blocks = []
    for sigma, _m, chain, P in spectral_projectors_by_bezout(M):
        px = P.apply(x0)
        coeffs = []
        for k in range(chain):
            ck = _matrix_power_apply(M - RatMatrix.identity(n).scale(sigma), k, px)
            coeffs.append(tuple(c / math.factorial(k) for c in ck))
        blocks.append((sigma, chain, tuple(coeffs)))
    return blocks


def expm_by_bezout(M: RatMatrix, t: float) -> np.ndarray:
    """exp(M t) = sum_i e^(sigma_i t) (sum_{k < r_i} (M - sigma_i I)^k t^k / k!) p_i
    over the Bezout projectors, the same float operations in the same order."""
    n = M.rows
    out = np.zeros((n, n))
    ident = RatMatrix.identity(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for sigma, _m, chain, P in spectral_projectors_by_bezout(M):
            shifted = M - ident.scale(sigma)
            term = P
            acc = term.to_numpy()
            tk = 1.0
            for k in range(1, chain):
                term = shifted @ term
                tk *= t / k
                acc = acc + term.to_numpy() * tk
            out += math.exp(float(sigma) * t) * acc
    return out


def theta_components_by_negation(pair: QuadraticPair, path: str = "auto") -> ThetaDecomposition:
    """Theta pieces of a negative definite pair from the positive pair
    (-Phi, -Psi) and its own pencil, each piece negated back."""
    if pair.definiteness == "negative":
        flipped = QuadraticPair(-pair.phi, -pair.psi, "positive")
        dec = theta_components(flipped, path)
        comps = tuple(
            ThetaComponent(
                c.root,
                c.multiplicity,
                -c.theta
                if isinstance(c.theta, RatMatrix)
                else tuple(tuple(-x for x in row) for row in c.theta),
            )
            for c in dec.components
        )
        return ThetaDecomposition(comps, dec.path, dec.size)
    return theta_components(pair, path)


def darboux_steps_by_fractions(M: RatMatrix) -> list[tuple]:
    """Jumps of the positive-square count of M - lambda*I at the roots of
    the similarity pencil s*I - M, each sample built as a Fraction identity
    scaled, negated and added to M."""
    if not M.is_symmetric():
        raise PreconditionError("signature steps require a symmetric matrix")
    n = M.rows
    roots = Pencil.similarity(M).roots()
    if not roots:
        return []
    samples = [roots[0].lo - 1]
    for left, right in zip(roots, roots[1:]):
        samples.append((left.hi + right.lo) / 2)
    samples.append(roots[-1].hi + 1)
    counts = [
        inertia(M - RatMatrix.identity(n).scale(lam)).positives for lam in samples
    ]
    return [
        (root, counts[i + 1] - counts[i]) for i, root in enumerate(roots)
    ]


def minor_gcd_chain_by_fraction_smith(P: PolyMatrix) -> MinorGcdChain:
    """Delta_k = monic gcd of all k x k minors, from a Smith form over Q[x]
    taken on `Poly` entries with Fraction coefficients.

    Elimination brings P to diag(d_1, ..., d_n) with d_k | d_(k+1), so
    Delta_k = monic(d_1 ... d_k).  Rejects singular pencils (determinant
    identically zero): their completion is out of scope here.
    """
    if not P.is_square:
        raise PreconditionError("minor chain of a non-square matrix")
    if P.rows == 0:
        return MinorGcdChain((Poly([1]),))  # the empty determinant
    block = [[P.entry(i, j) for j in range(P.cols)] for i in range(P.rows)]
    deltas = [Poly([1])]
    while block:
        deltas.append(deltas[-1] * _fraction_smith_pivot(block).monic())
        block = [row[1:] for row in block[1:]]
    return MinorGcdChain(tuple(deltas[1:]))


def _fraction_smith_pivot(a: list[list[Poly]]) -> Poly:
    """Reduce the block `a` in place until a[0][0] is alone in its row and
    column and divides every other entry; return that pivot.

    The pivot is the nonzero entry of least (degree, coefficient bits).  Its
    column, then its row, are reduced by divmod; a row the pivot does not
    divide is added into row 0 and reduced too.  A nonzero remainder has
    lower degree and becomes the next pivot, so each pass either returns or
    lowers the pivot degree.  Rows are kept primitive against coefficient
    growth.
    """
    while True:
        sizes = [(p.degree(), _fraction_bits(p), i, j)
                 for i, row in enumerate(a) for j, p in enumerate(row) if p]
        if not sizes:
            raise PreconditionError(
                "singular pencil (determinant identically zero): Kronecker's"
                " singular case is out of scope"
            )
        _, _, i, j = min(sizes)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        pivot = a[0][0]
        for i in range(1, len(a)):
            if a[i][0]:
                q = a[i][0] // pivot
                a[i] = _fraction_primitive([x - q * y for x, y in zip(a[i], a[0])])
        if any(row[0] for row in a[1:]):
            continue
        # Column 0 is clear below the pivot, so column operations change only
        # row 0: each entry becomes its remainder.
        rest = [x % pivot for x in a[0][1:]]
        if not any(rest) and pivot.degree() > 0:  # constants divide everything
            stray = next((r for r in a[1:] if any(x % pivot for x in r[1:])), None)
            if stray is not None:
                rest = [x % pivot for x in stray[1:]]
        if not any(rest):
            return pivot
        a[0] = _fraction_primitive([pivot] + rest)


def _fraction_bits(p: Poly) -> int:
    return sum(c.numerator.bit_length() + c.denominator.bit_length() for c in p.coeffs)


def _fraction_primitive(row: list[Poly]) -> list[Poly]:
    """The row divided by its content: integer coefficients with gcd 1."""
    num, den = 0, 1
    for p in row:
        for c in p.coeffs:
            num, den = int_gcd(num, c.numerator), int_lcm(den, c.denominator)
    return [p.scale(Fraction(den, num)) for p in row] if num else row


def residue_by_poly_taylor(adj: PolyMatrix, f: Poly, point: Fraction, mult: int, exact: bool):
    """R = G(point)/h(point) from Taylor coefficients at the root: G is the
    (mult-1)-th coefficient of adj, h the mult-th of f.

    Exact: every lower coefficient must vanish, which is the divisibility by
    (s - root)^(mult-1) and (s - root)^mult.  Float: a coefficient c of order
    k is rounded as float(c * k!)/k!, the k-th derivative at the refined
    midpoint over k!.
    """
    g = [entry.taylor(point, mult) for entry in adj.entries]
    h = f.taylor(point, mult + 1)
    if exact:
        if any(any(cs[:-1]) for cs in g):
            raise PreconditionError(
                "adjugate entry not divisible to the expected order; the"
                " leading form is not definite"
            )
        if any(h[:-1]):
            raise PreconditionError("root multiplicity mismatch during deflation")
        return RatMatrix.from_entries(adj.rows, adj.cols, [cs[-1] / h[-1] for cs in g])

    def rounded(c, order):
        return float(c * factorial(order)) / factorial(order)

    G = np.array([rounded(cs[-1], mult - 1) for cs in g]).reshape(adj.rows, adj.cols)
    return G / rounded(h[-1], mult)


def residue_by_integer_taylor(pencil: Pencil, point: Fraction, mult: int) -> RatMatrix:
    """R = G(point)/h(point) from Taylor coefficients at the root: G is the
    (mult-1)-th coefficient of the adjugate, h the mult-th of f = det.

    Every entry of the pencil's integer adjugate (scale, entries) has
    nominal degree n-1, so with point = p/q its k-th coefficient is the
    integer T_k of `_taylor` over the one denominator q^(n-1-k) * scale.
    Every lower coefficient must vanish, which is the divisibility by
    (s - root)^(mult-1) and (s - root)^mult, and each entry of R is one
    Fraction.
    """
    n = pencil.size
    scale, entries = pencil._adjugate
    p, q = point.numerator, point.denominator
    g = [_taylor(entry, p, q, mult) for entry in entries]
    den = q ** (n - mult) * scale  # of the coefficient of order mult - 1
    h = pencil.char_poly().taylor(point, mult + 1)
    if any(any(ts[:-1]) for ts in g):
        raise PreconditionError(
            "adjugate entry not divisible to the expected order; the"
            " leading form is not definite"
        )
    if any(h[:-1]):
        raise PreconditionError("root multiplicity mismatch during deflation")
    hn, hd = h[-1].numerator, h[-1].denominator
    return RatMatrix.from_entries(n, n, [Fraction(ts[-1] * hd, den * hn) for ts in g])


def minor_divisibility_by_poly_divides(pencil: Pencil) -> MinorDivisibility:
    """One record per square-free factor of the pencil's determinant, with
    multiplicity mu: whether factor^(mu-1) divides every entry of the
    pencil's `PolyMatrix` adjugate, by `Poly.divides`.  factor^0 divides
    everything, so a square-free determinant never builds the adjugate."""
    records = []
    for factor, mult in squarefree_decompose(pencil.char_poly()):
        power = factor ** (mult - 1)
        divisible = mult == 1 or all(
            power.divides(entry) for entry in adjugate_pencil(pencil).entries
        )
        records.append((factor, mult, divisible))
    return MinorDivisibility(tuple(records))


def _adjugate_divisible(pencil: Pencil, power: Poly) -> bool:
    """Whether the nonzero `power` divides every adjugate entry, by exact
    division by its primitive integer part (Gauss's lemma)."""
    divisor = power.prim
    return all(_exact_quo(entry, divisor) is not None for entry in pencil._adjugate[1])


def minor_divisibility_by_exact_division(pencil: Pencil) -> MinorDivisibility:
    """One record per square-free factor of the pencil's determinant, with
    multiplicity mu: whether factor^(mu-1) divides every entry of the
    pencil's cached integer adjugate (`_adjugate_divisible`).  factor^0
    divides everything, so a square-free determinant never builds the
    adjugate."""
    records = []
    for factor, mult in squarefree_decompose(pencil.char_poly()):
        divisible = mult == 1 or _adjugate_divisible(pencil, factor ** (mult - 1))
        records.append((factor, mult, divisible))
    return MinorDivisibility(tuple(records))


def adjugate_eigenvector_by_poly_evaluate(pencil: Pencil, root) -> tuple:
    """The first nonzero column of the `PolyMatrix` adjugate evaluated at an
    exact root entry by entry, its first nonzero entry made positive."""
    adj = adjugate_pencil(pencil)
    for j in range(adj.cols):
        col = tuple(adj.entry(i, j).evaluate(root.value) for i in range(adj.rows))
        if any(v != 0 for v in col):
            lead = next(v for v in col if v != 0)
            return tuple(-v for v in col) if lead < 0 else col
    raise PreconditionError(
        "adjugate vanishes at this root (geometric multiplicity > 1);"
        " use nullspace_at_root"
    )


def rational_roots_by_limit_denominator(cs, intervals) -> list[Fraction]:
    """The rational roots of the square-free integer polynomial cs, given an
    isolating interval for each of its real roots.

    A rational root p/q has q | lc (lc the leading coefficient), and two
    such rationals lie at least 1/lc**2 apart.  Once an interval is narrower
    than 1/(2 lc**2), the rational of denominator at most lc nearest its
    midpoint is the only candidate for its root.  A midpoint that lands on
    the root is nudged like any other, which keeps the root inside the
    interval, so the candidate still finds it.
    """
    lc = cs[-1]
    roots = []
    for a, b, d in intervals:
        a, b, d = _narrow(cs, a, b, d, Fraction(1, 2 * lc * lc))
        cand = Fraction(a + b, 2 * d).limit_denominator(lc)
        p, q = cand.numerator, cand.denominator
        if a * q <= p * d <= b * q and _sign_at(cs, p, q) == 0:
            roots.append(cand)
    return roots


def sturm_isolate_from_intervals(p: Poly, target_width=DEFAULT_WIDTH) -> list[RealRoot]:
    """`sturm_isolate` with every rational root read off an interval
    narrower than 1/(2 lc**2) by `limit_denominator`, and every final
    narrowing started from the isolating interval itself, not from a cell
    the rational-root test has narrowed."""
    if p.is_zero():
        raise PreconditionError("root isolation of the zero polynomial")
    target_width = Fraction(target_width)
    if target_width <= 0:  # bisection would never stop
        raise PreconditionError("isolation width must be positive")
    if p.degree() == 0:
        return []
    # the Sturm chain of p ends in gcd(p, p') up to a constant: a constant
    # means p is square-free; otherwise Yun starts from it, and the chain of
    # p's square-free part w is the one to isolate
    cs = p.prim
    chain = _prs(cs, _derivative(cs))
    if len(chain[-1]) == 1:
        parts = [(cs, p.monic(), 1)]
    else:
        cs, factors = _yun(cs, chain[-1])
        parts = [(f, Poly(f).monic(), e) for f, e in factors]
        chain = _prs(cs, _derivative(cs))

    def factor_of_exact(r: Fraction) -> tuple[Poly, int]:
        for fz, f, e in parts:
            if _sign_at(fz, r.numerator, r.denominator) == 0:
                return f, e
        raise AssertionError("rational root lost during decomposition")

    def factor_of_interval(a: int, b: int, d: int) -> tuple[Poly, int]:
        for fz, f, e in parts:
            if (_sign_at(fz, a, d) > 0) != (_sign_at(fz, b, d) > 0):
                return f, e
        raise AssertionError("isolated root lost during decomposition")

    intervals = isolate_by_chain(chain)
    exact_values = rational_roots_by_limit_denominator(chain[0], intervals)
    roots = [
        RealRoot.exact(r, *factor_of_exact(r)) for r in exact_values
    ]

    if exact_values:
        # the printed intervals come from isolating what is left
        deflated = chain[0]
        for r in exact_values:
            deflated = _exact_quo(deflated, [-r.numerator, r.denominator])
        chain = _prs(deflated, _derivative(deflated))
        intervals = isolate_by_chain(chain) if len(deflated) > 1 else []
    # separate every interval (ends included) from the exact roots, so the
    # defining factor is nonzero at both endpoints
    exact = [(r.numerator, r.denominator) for r in exact_values]
    for a, b, d in intervals:
        a, b, d = _narrow(chain[0], a, b, d, target_width, apart=exact)
        f, e = factor_of_interval(a, b, d)
        roots.append(RealRoot.isolated(Fraction(a, d), Fraction(b, d), f, e))

    return sorted(roots, key=lambda r: r.approx())


def _variations(chain: list[tuple[int, ...]], n: int, d: int) -> int:
    signs = [s for s in (_sign_at(q, n, d) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def isolate_by_chain(chain: list[tuple[int, ...]]) -> list[tuple[int, int, int]]:
    """Isolating intervals (a, b, d), meaning (a/d, b/d), of every real root
    of the square-free chain[0], from Sturm bisection of its Cauchy interval.
    """
    cs = chain[0]
    bound = 1 + Fraction(max(abs(c) for c in cs[:-1]), cs[-1])
    n, d = bound.numerator, bound.denominator
    stack = [(-n, n, d, _variations(chain, -n, d), _variations(chain, n, d))]
    intervals = []
    while stack:
        a, b, d, va, vb = stack.pop()
        if va - vb == 1:
            intervals.append((a, b, d))
        elif va - vb > 1:
            a, m, b, d, _ = _halve(cs, a, b, d)
            vm = _variations(chain, m, d)
            stack.append((a, m, d, va, vm))
            stack.append((m, b, d, vm, vb))
    return intervals


def _rational_roots(cs, intervals) -> tuple[list[Fraction], list[tuple[int, int, int]]]:
    """The rational roots of the square-free integer polynomial cs, given an
    isolating interval for each of its real roots, and those intervals
    narrowed below 1/lc (lc > 0 the leading coefficient).

    A rational root p/q has q | lc, so it is m/lc for an integer m, and a
    cell narrower than 1/lc holds at most one such point.  Bisection keeps
    the root strictly inside the cell (a midpoint that lands on a root is
    nudged), so the root is rational exactly when the first such point at
    or after the left end, m = ceil(lc a/d), lies in the cell and is a root.
    """
    lc = cs[-1]
    width = Fraction(1, lc)
    roots, cells = [], []
    for a, b, d in intervals:
        a, b, d = _narrow(cs, a, b, d, width)
        m = -(-lc * a // d)
        if m * d <= lc * b and _sign_at(cs, m, lc) == 0:
            roots.append(Fraction(m, lc))
        cells.append((a, b, d))
    return roots, cells


def sturm_isolate_by_chain(p: Poly, target_width=DEFAULT_WIDTH) -> list[RealRoot]:
    """`sturm_isolate` as it ran before Jacobi pencils counted roots with
    their leading minors and each root was narrowed in one pass: Sturm-chain
    bisection for every polynomial, rational roots tested in cells narrowed
    below 1/lc, and a second narrowing to the target that starts from those
    cells, or from the isolating interval where a cell is already narrower
    than the target."""
    if p.is_zero():
        raise PreconditionError("root isolation of the zero polynomial")
    target_width = Fraction(target_width)
    if target_width <= 0:  # bisection would never stop
        raise PreconditionError("isolation width must be positive")
    if p.degree() == 0:
        return []
    # the Sturm chain of p ends in gcd(p, p') up to a constant: a constant
    # means p is square-free; otherwise Yun starts from it, and the chain of
    # p's square-free part w is the one to isolate
    cs = p.prim
    chain = _prs(cs, _derivative(cs))
    if len(chain[-1]) == 1:
        parts = [(cs, p.monic(), 1)]
    else:
        cs, factors = _yun(cs, chain[-1])
        parts = [(f, Poly(f).monic(), e) for f, e in factors]
        chain = _prs(cs, _derivative(cs))

    def factor_of_exact(r: Fraction) -> tuple[Poly, int]:
        for fz, f, e in parts:
            if _sign_at(fz, r.numerator, r.denominator) == 0:
                return f, e
        raise AssertionError("rational root lost during decomposition")

    def factor_of_interval(a: int, b: int, d: int) -> tuple[Poly, int]:
        for fz, f, e in parts:
            if (_sign_at(fz, a, d) > 0) != (_sign_at(fz, b, d) > 0):
                return f, e
        raise AssertionError("isolated root lost during decomposition")

    intervals = isolate_by_chain(chain)
    exact_values, cells = _rational_roots(chain[0], intervals)
    roots = [
        RealRoot.exact(r, *factor_of_exact(r)) for r in exact_values
    ]

    if exact_values:
        # the printed intervals come from isolating what is left
        deflated = chain[0]
        for r in exact_values:
            deflated = _exact_quo(deflated, [-r.numerator, r.denominator])
        chain = _prs(deflated, _derivative(deflated))
        intervals = isolate_by_chain(chain) if len(deflated) > 1 else []
    else:
        # no grid point is a root, so bisection goes on from a cell as it
        # would from the interval; where a cell is already narrower than the
        # target, bisection stops at one of its ancestors: start again
        intervals = [
            cell if Fraction(cell[1] - cell[0], cell[2]) >= target_width else start
            for cell, start in zip(cells, intervals)
        ]
    # separate every interval (ends included) from the exact roots, so the
    # defining factor is nonzero at both endpoints
    exact = [(r.numerator, r.denominator) for r in exact_values]
    for a, b, d in intervals:
        a, b, d = _narrow(chain[0], a, b, d, target_width, apart=exact)
        f, e = factor_of_interval(a, b, d)
        roots.append(RealRoot.isolated(Fraction(a, d), Fraction(b, d), f, e))

    return sorted(roots, key=lambda r: r.approx())


def float_nullspace_by_svd(M: np.ndarray):
    """The floating kernel basis by SVD, as the library took it for every
    pencil before Jacobi pencils read theirs off their integer minors:
    singular values at most 10^-10 of the largest, each vector with its first
    entry above 10^-12 in size positive."""
    _, s, vh = np.linalg.svd(M)
    cutoff = 1e-10 * (s[0] if s.size and s[0] > 0 else 1.0)
    basis = []
    for k in range(M.shape[1]):
        sv = s[k] if k < s.size else 0.0
        if sv <= cutoff:
            v = vh[k]
            lead = v[int(np.argmax(np.abs(v) > 1e-12))]
            if lead < 0:
                v = -v
            basis.append(tuple(float(x) for x in v))
    return basis


def null_vectors_by_svd(pencil: Pencil, root: RealRoot):
    """The SVD kernel basis of the characteristic matrix, rounded from
    Fractions, at the root's midpoint refined to 10^-30."""
    return float_nullspace_by_svd(
        float_char_matrix_by_fractions(pencil, refine_root(root, DEFAULT_WIDTH).approx()))


def gram_schmidt_by_numpy(vectors, W: np.ndarray):
    """W-orthonormalization on numpy arrays, as the floating path ran it
    before it summed Python floats."""
    out = []
    for v in vectors:
        v = np.array(v, dtype=float)
        for u in out:
            v = v - (u @ W @ v) / (u @ W @ u) * u
        v = v / np.sqrt(abs(v @ W @ v))
        out.append(v)
    return [tuple(float(x) for x in v) for v in out], [1.0] * len(out)


def expm_by_numpy_sum(M: RatMatrix, t: float) -> np.ndarray:
    """exp(M t) from the resolvent's principal parts summed as numpy arrays,
    as `expm_projectors` summed them before its Python float lists."""
    out = np.zeros((M.rows, M.rows))
    with np.errstate(over="ignore", invalid="ignore"):
        for sigma, _m, terms in _principal_parts(Pencil.similarity(M)):
            acc = terms[0].to_numpy()
            tk = 1.0
            for k, term in enumerate(terms[1:], 1):
                tk *= t / k
                acc = acc + term.to_numpy() * tk
            out += math.exp(float(sigma) * t) * acc
    if not np.isfinite(out).all():
        raise OverflowError("matrix exponential entry is not a finite float")
    return out


# -- the Fraction-tuple polynomial, as `Poly` stored it before content * prim --


class FractionPoly:
    """Dense univariate polynomial with Fraction coefficients.

    Immutable; trailing zero coefficients are trimmed on construction, so the
    leading coefficient is nonzero unless the polynomial is zero (empty).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        # a coefficient that is a Fraction already is kept, not rebuilt
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FractionPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not self.coeffs or not other.coeffs:
            return FractionPoly()
        (ca, a), (cb, b) = _fraction_primitive_ints(self), _fraction_primitive_ints(other)
        c = ca * cb
        return FractionPoly([c * v for v in _mul(a, b)])

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        return FractionPoly([c * a for a in self.coeffs])

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        out, base = FractionPoly([1]), self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __divmod__(self, other):
        """Exact euclidean division; deg(remainder) < deg(divisor)."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.degree() < other.degree():
            return FractionPoly(), self
        (ca, a), (cb, b) = _fraction_primitive_ints(self), _fraction_primitive_ints(other)
        quo, rem = _pdivmod(a, b)  # lc(b)**e * a = quo * b + rem
        cr = ca / b[-1] ** (len(a) - len(b) + 1)
        cq = cr / cb
        return FractionPoly([cq * v for v in quo]), FractionPoly([cr * v for v in rem])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other) -> bool:
        """True iff self divides other exactly (zero divides only zero),
        by the exact division of the primitive integer parts."""
        if self.is_zero():
            return other.is_zero()
        return _exact_quo(_fraction_primitive_ints(other)[1],
                          _fraction_primitive_ints(self)[1]) is not None

    def evaluate(self, x):
        """Horner evaluation; works for Fraction, float and complex x."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return FractionPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def taylor(self, a, count: int) -> list:
        """The first `count` coefficients of self in powers of (x - a)."""
        a = Fraction(a)
        q = a.denominator
        content, cs = _fraction_primitive_ints(self)
        d = len(cs) - 1
        num, den = content.numerator, content.denominator
        out = [Fraction(num * t, den * q ** (d - k))
               for k, t in enumerate(_taylor(cs, a.numerator, q, count))]
        return out + [Fraction(0)] * (count - len(out))

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    def integer_primitive(self):
        content, ints = _fraction_primitive_ints(self)
        return content, FractionPoly(ints)

    def to_string(self, var: str = "x") -> str:
        """Deterministic human-readable rendering, highest degree first."""
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree(), -1, -1):
            c = self[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if k == 0:
                body = _frac_str(mag)
            else:
                head = "" if mag == 1 else _frac_str(mag) + "*"
                body = head + (var if k == 1 else f"{var}^{k}")
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"FractionPoly({self.to_string()})"


def _fraction_primitive_ints(p: FractionPoly) -> tuple[Fraction, list[int]]:
    """(content, ints) with p = content * ints: the coefficients as coprime
    integers with a positive leading one, in a fresh list the caller may
    consume; content carries the sign.  The zero polynomial gives (0, [])."""
    if p.is_zero():
        return Fraction(0), []
    denom, scaled = _over_lcm(p.coeffs)
    ints = _primitive(scaled)
    if ints[-1] < 0:
        ints = [-v for v in ints]
    return Fraction(scaled[-1] // ints[-1], denom), ints


def fraction_poly_gcd(p: FractionPoly, q: FractionPoly) -> FractionPoly:
    """Monic gcd over Q: the last element of the primitive pseudo-remainder
    sequence of the primitive integer parts."""
    if p.is_zero() and q.is_zero():
        raise PreconditionError("gcd(0, 0) is undefined")
    return FractionPoly(_prs(_fraction_primitive_ints(p)[1],
                             _fraction_primitive_ints(q)[1])[-1]).monic()


def fraction_squarefree_decompose(p: FractionPoly) -> list[tuple[FractionPoly, int]]:
    """Yun decomposition of monic(p), factors by increasing exponent."""
    if p.is_zero():
        raise PreconditionError("square-free decomposition of the zero polynomial")
    _, cs = _fraction_primitive_ints(p)
    _, factors = _yun(cs, _prs(cs, _derivative(cs))[-1])
    return [(FractionPoly(f).monic(), k) for f, k in factors]
