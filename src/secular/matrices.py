"""Exact rational matrices, polynomial matrices and pencils.

A `RatMatrix` is integers over one denominator: `nums`, row-major, over
`den`, in lowest terms (den > 0, gcd(den, *nums) = 1), so that equality and
hashing compare canonical integers.  Rationals enter it once, through
`polynomials._over_lcm`; every kernel computes on the integers and returns
its (d, integers), brought to lowest terms by one gcd chain; `entries`,
`entry`, `row`, `col`, `to_rows`, `to_floats` and `to_numpy` build Fractions or floats
from them on each read.  `PolyMatrix` holds `Poly` entries.  A `Pencil`
packages a matrix couple (A, B) with its orientation: "sA-B" (determinant in
s of s*A - B) or "A-sB" (of A - s*B, such as A - xI).  It reads the
orientation once, into its integer model (L, X, Y) with characteristic
matrix P(s) = (s*X + Y) / L, and every pencil kernel reads that form.
Eliminations run in place on fresh integer rows: Bareiss for determinants,
fraction-free Gauss-Jordan on [M | I] for inverses and adjugates, and a
symmetric Bareiss pass with swaps and Lagrange's add step for inertia
(`secular.invariants`).  A pencil computes its determinant, real roots (per
width), integer adjugate, integer model and kernel per square-free factor
once, on first use.  The integer adjugate is what interpolation produces:
one scale L^(n-1) and n^2 lists of n integer coefficients, so
adj P = entries / scale; other modules read it only through
`Pencil._adjugate_taylor` (Taylor coefficients at a rational point), and a
`PolyMatrix` is built only when `adjugate_pencil` is called.
Whether a factor's power divides the adjugate is not read off it but off a
kernel: `Pencil._factor_rows` writes the characteristic matrix at the roots
of a square-free factor as integer rows over Q (`secular.invariants` gives
the argument), and `Pencil._kernel` eliminates them once per factor: an
exact root p/q is the factor (-p, q), so the divisibility test, the theta
pieces and the exact eigenvectors read one kernel.  One sampler,
`Pencil._numerators`, gives the integer rows of P at a rational point: at
the integers k they are the samples L*P(k) from which Newton interpolation
in integers reads the adjugate, and the determinant unless P is
tridiagonal (as a loaded string's is), when the three-term recurrence of
its leading minors gives it (and, for a Jacobi pencil, counts its roots,
`_minor_count`, and with the trailing minors gives its null vector near a
root, `_jacobi_null_vector`); the float path rounds them once per entry.
The adjugate of a matrix M is the constant term of that of the pencil
sI + M, over its scale.  Leading principal minors are the pivots of one Bareiss
pass.  Integer tuples are built from lists: CPython sizes a tuple built from
a generator by a guess and shrinks it, and the freed block then stays on the
free list of the smaller size; over 250 rounds of the exact-structure
benchmark such blocks held about 0.7 MB.

Indices are 0-based throughout the code; serialized documents use 1-based
indices (see `secular.io`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd as int_gcd
from math import lcm as int_lcm
from operator import mul
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ._record import Record
from .errors import InternalError, PreconditionError
from .polynomials import Poly, _interpolate, _mul, _over_lcm, _sub, _taylor
from .realroots import DEFAULT_WIDTH, RealRoot, sturm_isolate

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RatMatrix",
    "PolyMatrix",
    "Pencil",
    "det_rational",
    "det_pencil",
    "adjugate_pencil",
]

Vector = tuple[Fraction, ...]


class RatMatrix(Record):
    """Immutable rational matrix: the integers `nums`, row-major, over one
    denominator `den`, in lowest terms (den > 0, gcd(den, *nums) = 1)."""

    rows: int
    cols: int
    den: int
    nums: tuple[int, ...]

    # -- constructors ------------------------------------------------------

    @classmethod
    def _lowest(cls, rows: int, cols: int, d: int, nums: list[int]) -> "RatMatrix":
        """The matrix nums / d (d > 0) in lowest terms, by one gcd chain."""
        g = int_gcd(d, *nums)
        if g != 1:
            d //= g
            nums = [v // g for v in nums]
        return cls(rows, cols, d, tuple(nums))

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Iterable) -> "RatMatrix":
        """The rows x cols matrix of rational entries, row-major, in lowest
        terms over the lcm of their denominators (`_over_lcm`)."""
        L, nums = _over_lcm([v if isinstance(v, (int, Fraction)) else Fraction(v)
                             for v in entries])
        return cls(rows, cols, L, tuple(nums))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        rows = list(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise PreconditionError("ragged matrix rows")
        return cls.from_entries(len(rows), ncols, [v for r in rows for v in r])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, 1, tuple([int(i == j) for i in range(n) for j in range(n)]))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, 1, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, values: Sequence) -> "RatMatrix":
        n = len(values)
        return cls.from_rows(
            [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    # -- access: Fractions built from (den, nums) on each read ----------------

    @property
    def entries(self) -> Vector:
        return tuple([Fraction(v, self.den) for v in self.nums])

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.nums[i * self.cols + j], self.den)

    def row(self, i: int) -> Vector:
        d, n = self.den, self.cols
        return tuple([Fraction(v, d) for v in self.nums[i * n : (i + 1) * n]])

    def col(self, j: int) -> Vector:
        return tuple([Fraction(v, self.den) for v in self.nums[j :: self.cols]])

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def to_floats(self) -> list[list[float]]:
        """The rows as Python floats, one correctly rounded integer division
        per entry, as float(Fraction)."""
        d = self.den
        return [[v / d for v in row] for row in self._int_rows()]

    def to_numpy(self) -> np.ndarray:
        """`to_floats` as an array."""
        import numpy as np

        return np.array(self.to_floats()).reshape(self.rows, self.cols)

    def _int_rows(self, c: int = 1) -> list[list[int]]:
        """The rows of c * den * self as fresh integer lists, for eliminations."""
        n, nums = self.cols, self.nums
        return [[c * v for v in nums[i * n : (i + 1) * n]] for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @cached_property
    def _symmetric(self) -> bool:
        # stored in the instance __dict__, which equality and hashing ignore
        n, nums = self.cols, self.nums
        return self.is_square and all(
            nums[i * n + j] == nums[j * n + i] for i in range(n) for j in range(i + 1, n)
        )

    def is_symmetric(self) -> bool:
        """Compared entry by entry on the first call only."""
        return self._symmetric

    # -- arithmetic: integers over one denominator ------------------------------

    def scale(self, c) -> "RatMatrix":
        c = Fraction(c)
        return RatMatrix._lowest(self.rows, self.cols, self.den * c.denominator,
                                 [c.numerator * v for v in self.nums])

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, self.den, tuple([-v for v in self.nums]))

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return _linear_combination((1, 1), (self, other))

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return _linear_combination((1, -1), (self, other))

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        """Integer dot products of the numerators, over the product of the
        denominators."""
        if self.cols != other.rows:
            raise PreconditionError("matrix shape mismatch in product")
        b, n = other.nums, other.cols
        cols = [b[j::n] for j in range(n)]
        return RatMatrix._lowest(self.rows, n, self.den * other.den, [
            sum(map(mul, row, col)) for row in self._int_rows() for col in cols
        ])

    def transpose(self) -> "RatMatrix":
        nums, n = self.nums, self.cols
        return RatMatrix(self.cols, self.rows, self.den,
                         tuple([v for j in range(n) for v in nums[j::n]]))

    def apply(self, vec: Sequence) -> Vector:
        """Matrix-vector product, in integers as `__matmul__`."""
        if len(vec) != self.cols:
            raise PreconditionError("vector length mismatch")
        Lv, v = _over_lcm([Fraction(x) for x in vec])
        d = self.den * Lv
        return tuple([Fraction(sum(map(mul, row, v)), d) for row in self._int_rows()])

    # -- elimination-based queries ----------------------------------------------

    def det(self) -> Fraction:
        return det_rational(self)

    def submatrix(self, keep_rows: Sequence[int], keep_cols: Sequence[int]) -> "RatMatrix":
        n, nums = self.cols, self.nums
        return RatMatrix._lowest(len(keep_rows), len(keep_cols), self.den,
                                 [nums[i * n + j] for i in keep_rows for j in keep_cols])

    def leading_principal_minors(self) -> list[Fraction]:
        """Determinants of the leading k x k blocks, k = 1..n.

        Bareiss elimination without pivoting on the integer rows of L*M,
        L = den: its k-th pivot is the leading k x k minor of L*M, which is
        L^k times the minor of M (Sylvester's identity).  A zero pivot stops
        the elimination, and the minors after it are block determinants.
        """
        if not self.is_square:
            raise PreconditionError("leading minors of a non-square matrix")
        n, L, m = self.rows, self.den, self._int_rows()
        minors = []
        prev = 1
        for k in range(n):
            minors.append(Fraction(m[k][k], L ** (k + 1)))
            if m[k][k] == 0:
                break
            _bareiss_step(m, k, prev, range(k + 1, n))
            prev = m[k][k]
        idx = list(range(n))
        return minors + [
            det_rational(self.submatrix(idx[: k + 1], idx[: k + 1]))
            for k in range(len(minors), n)
        ]

    def rank(self) -> int:
        return len(_rref(self._int_rows(), self.cols))

    def nullspace(self) -> list[Vector]:
        """Exact basis of the right nullspace, one vector per free column
        (`_nullspace` on the integer rows)."""
        return [tuple([Fraction(v, d) for v in vs])
                for d, vs in _nullspace(self._int_rows(), self.cols)]

    def adjugate(self) -> "RatMatrix":
        """Transposed cofactor matrix: self @ adj = det * I, at any rank.

        adj(sI + M) at s = 0 is adj M, and the pencil sI + M is never
        singular, so this is the constant term of every entry of that
        pencil's integer adjugate, over its scale.
        """
        if not self.is_square:
            raise PreconditionError("adjugate of a non-square matrix")
        scale, entries = Pencil.similarity(-self)._adjugate
        return RatMatrix._lowest(self.rows, self.cols, scale, [e[0] for e in entries])

    def inverse(self) -> "RatMatrix":
        """L * adj(L*M) / det(L*M), L = den, from one fraction-free
        Gauss-Jordan pass on the integer rows of L*M."""
        if not self.is_square:
            raise PreconditionError("inverse of a non-square matrix")
        det, adj = _int_adjugate(self._int_rows())
        if det == 0:
            raise PreconditionError("inverse of a singular matrix")
        L = self.den if det > 0 else -self.den
        return RatMatrix._lowest(self.rows, self.cols, abs(det), [L * v for v in adj])


def _rref(m: list[list[int]], ncols: int) -> list[int]:
    """Gauss-Jordan elimination on the integer rows m, in place; returns the
    pivot columns.  Each pivot is the first row left with a nonzero entry in
    its column; integer row operations clear that column in every other row,
    and each changed row is divided by the gcd of its entries.  Row r of the
    reduced row echelon form is then m[r] over its pivot entry."""
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        row_r, p = m[r], m[r][c]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and f:
                row = [a * p - f * b for a, b in zip(row, row_r)]
                g = int_gcd(*row) or 1
                m[i] = [a // g for a in row]
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return pivots


def _nullspace(m: list[list[int]], ncols: int) -> list[tuple[int, list[int]]]:
    """Exact basis of the right nullspace of the integer rows m (consumed);
    any nonzero rational multiple of the rows gives the same basis.

    Deterministic: free columns in increasing order, each basis vector has a
    1 in its free coordinate, and the others are read off the integer
    echelon rows of `_rref`, as (den, ints) for the vector ints / den, den > 0.
    """
    pivots = _rref(m, ncols)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        den = int_lcm(*[m[r][c] for r, c in enumerate(pivots) if m[r][j]])
        v = [0] * ncols
        v[j] = den
        for r, c in enumerate(pivots):
            v[c] = -m[r][j] * (den // m[r][c])
        basis.append((den, v))
    return basis



def _bareiss_step(m: list[list[int]], k: int, prev: int, rows: Iterable[int]) -> None:
    """One fraction-free elimination step on the pivot m[k][k]: clears column
    k of each of `rows` and updates the columns after it to the end of the
    row; prev is the pivot of the step before (1 at the first), and divides
    exactly."""
    pivot, row_k = m[k][k], m[k]
    for i in rows:
        row, f = m[i], m[i][k]
        for j in range(k + 1, len(row)):
            row[j] = (row[j] * pivot - f * row_k[j]) // prev
        row[k] = 0


def _bareiss(m: list[list[int]], n: int, above: bool = False) -> int:
    """Fraction-free elimination on the first n columns of the integer rows
    m, in place; returns the determinant of their leading n x n block.

    A zero pivot trades places with the next row that has a nonzero entry in
    its column, and the row moved down is negated, so that no swap changes
    the determinant: the last pivot is the determinant (Bareiss, Math. Comp.
    1968).  With `above`, the rows above each pivot are cleared as well
    (fraction-free Gauss-Jordan; Nakos, Turner and Williams, SIGSAM Bull.
    1997), which leaves adj M in the right half of [M | I].
    """
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], [-v for v in m[k]]
        _bareiss_step(m, k, prev, [*range(k), *range(k + 1, n)] if above else range(k + 1, n))
        prev = m[k][k]
    return prev


def _int_adjugate(m: list[list[int]]) -> tuple[int, list[int]]:
    """det m and the entries of adj m row by row, for a square integer
    matrix m (consumed); the adjugate holds only when det m is nonzero."""
    n = len(m)
    for i, row in enumerate(m):
        row.extend(int(i == j) for j in range(n))
    return _bareiss(m, n, above=True), [v for row in m for v in row[n:]]


def _linear_combination(weights: Sequence, matrices: Sequence[RatMatrix]) -> RatMatrix:
    """The sum of w * M over weights and matrices of one shape, in integers:
    the weights over their one denominator Q, each scaled to L, the lcm of
    the matrices' denominators, and each entry one integer dot product with
    the numerators, over Q*L."""
    shape = matrices[0].rows, matrices[0].cols
    if any((M.rows, M.cols) != shape for M in matrices):
        raise PreconditionError("matrix shape mismatch in addition")
    Q, ws = _over_lcm(weights)
    L = int_lcm(*[M.den for M in matrices])
    ws = [w * (L // M.den) for w, M in zip(ws, matrices)]
    return RatMatrix._lowest(*shape, Q * L, [
        sum(map(mul, ws, entry)) for entry in zip(*[M.nums for M in matrices])
    ])


def _bilinear(B: RatMatrix, v: Sequence, w: Sequence) -> Fraction:
    """v^T B w in integers on the numerators of B, v and w, divided once by
    the product of their denominators."""
    Lv, vi = _over_lcm(v)
    Lw, wi = _over_lcm(w)
    return Fraction(sum(x * sum(map(mul, row, wi)) for x, row in zip(vi, B._int_rows())),
                    B.den * Lv * Lw)


def _bilinear_float(rows: list[list[float]], v: Sequence[float], w: Sequence[float]) -> float:
    """v^T B w in Python floats, B given by its float rows (`to_floats`)."""
    return sum(x * sum(map(mul, row, w)) for x, row in zip(v, rows))


def det_rational(M: RatMatrix) -> Fraction:
    """Exact determinant via Bareiss elimination on the integer rows."""
    if not M.is_square:
        raise PreconditionError("determinant of a non-square matrix")
    return Fraction(_bareiss(M._int_rows(), M.rows), M.den**M.rows)


class PolyMatrix(Record):
    """Matrix of dense rational polynomials."""

    rows: int
    cols: int
    entries: tuple[Poly, ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Poly]]) -> "PolyMatrix":
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise PreconditionError("ragged matrix rows")
        return cls(len(rows), ncols, tuple([p for r in rows for p in r]))

    def entry(self, i: int, j: int) -> Poly:
        return self.entries[i * self.cols + j]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self.entry(i, j) == self.entry(j, i)
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def submatrix(self, keep_rows: Sequence[int], keep_cols: Sequence[int]) -> "PolyMatrix":
        return PolyMatrix.from_rows(
            [[self.entry(i, j) for j in keep_cols] for i in keep_rows]
        )


def _tridiagonal(rows) -> bool:
    """Whether the square rows are zero outside the band |i - j| <= 1."""
    return not any(any(row[:max(i - 1, 0)]) or any(row[i + 2:])
                   for i, row in enumerate(rows))


def det_pencil(pencil: "Pencil") -> Poly:
    """Exact determinant of the characteristic matrix P.

    With P(s) = (s*X + Y) / L, L^n det P is an integer polynomial of
    degree at most n.  When X and Y are zero outside the band |i - j| <= 1
    (every pencil of size 2 or less, every loaded string), it is the
    continuant of the entries p_ij = s*X_ij + Y_ij, by the three-term
    recurrence of the leading minors
    f_k = p_kk f_(k-1) - p_(k,k-1) p_(k-1,k) f_(k-2).  Otherwise Bareiss
    gives its values det(L*P(k)) at k = 0..n, and Newton interpolation in
    integers its coefficients.
    """
    n = pencil.size
    L, X, Y = pencil._int_model
    if _tridiagonal(X) and _tridiagonal(Y):
        def p(i, j):  # the entry p_ij, lowest degree first
            return [Y[i][j], X[i][j]]

        prev, coeffs = [], [1]
        for k in range(n):
            nxt = _mul(p(k, k), coeffs)
            if k:
                nxt = _sub(nxt, _mul(_mul(p(k, k - 1), p(k - 1, k)), prev))
            prev, coeffs = coeffs, nxt
    else:
        values = [_bareiss(pencil._numerators(k)[1], n) for k in range(n + 1)]
        coeffs = _interpolate(range(n + 1), values)
    return Poly._of(coeffs, den=L**n)


def _jacobi_rows(pencil: "Pencil") -> list[tuple[int, int, int]] | None:
    """[(X_kk, Y_kk, Y_(k,k-1))], Y_(0,-1) = 0, when the pencil is Jacobi,
    else None: P(s) = s*X + Y (over L) with X diagonal with positive entries
    and Y symmetric tridiagonal with no zero below its diagonal (every
    loaded string, and an "A-sB" pencil whose -B is positive diagonal).
    X is then positive definite and (m/d)X + Y unreduced tridiagonal, so
    every root is real and simple and has a one-dimensional kernel."""
    _, X, Y = pencil._int_model
    n = pencil.size
    if (not _tridiagonal(Y)
            or any(x for i, row in enumerate(X) for j, x in enumerate(row) if i != j)
            or any(X[k][k] <= 0 for k in range(n))
            or any(Y[k][k - 1] == 0 or Y[k][k - 1] != Y[k - 1][k] for k in range(1, n))):
        return None
    return [(X[k][k], Y[k][k], Y[k][k - 1] if k else 0) for k in range(n)]


def _minor_count(pencil: "Pencil") -> Callable[..., int] | None:
    """The root counter of a Jacobi pencil (`_jacobi_rows`), else None: the
    number of roots above m/d (d > 0) is the number of sign changes, zeros
    skipped, in the leading minors f_0 = 1, f_1, .., f_n of (m/d)X + Y
    (Cauchy 1829, Sturm 1829, Givens 1954).  They obey
    f_k = (x X_kk + Y_kk) f_(k-1) - Y_(k,k-1)^2 f_(k-2), so each f_k has k
    simple roots that strictly interlace those of f_(k+1), and where f_k
    vanishes (k < n), f_(k-1) and f_(k+1) have opposite signs, which skipping
    the zero keeps; at a root of f_n the count is that of the roots strictly
    above it.  The minors come in integers, F_k = d^k f_k:
    F_k = (m X_kk + d Y_kk) F_(k-1) - d^2 Y_(k,k-1)^2 F_(k-2).  A sign of
    the determinant at m/d that the caller knows is not needed.
    """
    jacobi = pencil._jacobi
    if jacobi is None:
        return None
    rows = [(x, y, c * c) for x, y, c in jacobi]

    def count(m: int, d: int, _sign=None) -> int:
        d2, f0, f1, positive, changes = d * d, 0, 1, True, 0
        for x, y, c in rows:
            f0, f1 = f1, (m * x + d * y) * f1 - d2 * c * f0
            if f1 and (f1 > 0) != positive:
                positive, changes = not positive, changes + 1
        return changes

    return count


def _jacobi_null_vector(jacobi: list[tuple[int, int, int]], m: int, d: int) -> list[int]:
    """An integer null vector of the Jacobi pencil (`_jacobi_rows`) at a simple
    root m/d (d > 0), or at a point near one: a column of the
    adjugate of the integer rows M = m*X + d*Y, first entry positive.

    Lagrange wrote each amplitude of the loaded string as a polynomial in
    the root: with a_k = M_kk, b_k = M_(k,k-1), the leading minors
    P_(k+1) = a_k P_k - b_k^2 P_(k-1) of `_minor_count` and the trailing
    ones Q_k = a_k Q_(k+1) - b_(k+1)^2 Q_(k+2) give adj M, for i <= j,
    (-1)^(i+j) b_(i+1) .. b_j P_i Q_(j+1).  Its last column is the forward
    recurrence v_k = (-1)^k P_k / (b_1 .. b_k), v_0 = 1, scaled.  Off the
    root by e, that column is the kernel of M changed in its last row, which
    is accurate only where the eigenvector's last entry is not small
    (Wilkinson, The Algebraic Eigenvalue Problem, 1965, ch. 5), so column r
    with the largest diagonal entry P_r Q_(r+1) is taken: at the root,
    adj M = c u u^T, and u_r^2 is at least |u|^2 / n.
    """
    n = len(jacobi)
    a = [m * x + d * y for x, y, _ in jacobi]
    b = [d * c for _, _, c in jacobi]
    P, Q = [1] * (n + 1), [1] * (n + 1)
    for k in range(n):
        P[k + 1] = a[k] * P[k] - (b[k] * b[k] * P[k - 1] if k else 0)
    for k in range(n - 1, -1, -1):
        Q[k] = a[k] * Q[k + 1] - (b[k + 1] * b[k + 1] * Q[k + 2] if k + 1 < n else 0)
    r = max(range(n), key=lambda k: abs(P[k] * Q[k + 1]))
    v = [0] * n
    v[r] = P[r] * Q[r + 1]
    if not v[r]:
        raise InternalError("adjugate of a Jacobi pencil vanishes near a simple root")
    c = Q[r + 1]
    for k in range(r - 1, -1, -1):
        c *= -b[k + 1]
        v[k] = c * P[k]
    c = P[r]
    for k in range(r + 1, n):
        c *= -b[k]
        v[k] = c * Q[k + 1]
    return v if v[0] > 0 else [-x for x in v]


def adjugate_pencil(pencil: "Pencil") -> PolyMatrix:
    """Adjugate (transposed cofactors) of the characteristic matrix P with the
    standard (-1)^(i+j) signs, so that P @ adj(P) = det(P) * I as a
    polynomial identity: the pencil's integer adjugate (`_int_adjugate_pencil`),
    divided by its scale into one `Poly` per entry."""
    scale, entries = pencil._adjugate
    return PolyMatrix(pencil.size, pencil.size,
                      tuple([Poly._of(entry, den=scale) for entry in entries]))


def _int_adjugate_pencil(pencil: "Pencil") -> tuple[int, list[list[int]]]:
    """(scale, entries) with adj P = entries / scale: scale = L^(n-1) and one
    list of n integer coefficients per entry, row by row, lowest degree
    first and padded to degree n - 1.

    adj(L*P(k)) = L^(n-1) adj P(k) has integer polynomial entries of degree
    below n, so n samples determine them.  They are taken at the integers
    k = c .. c+n-1 with c = 2 + floor(max|f_i| / |lc f|), f = det P: c lies
    beyond Cauchy's bound on the roots of f, so no sample is singular, and
    one fraction-free Gauss-Jordan pass per sample gives its adjugate.
    """
    f = pencil.char_poly()
    if f.is_zero():
        raise PreconditionError("singular pencil (determinant identically zero)")
    n = pencil.size
    c = 2 + max(map(abs, f.prim)) // f.prim[-1]
    points = range(c, c + n)
    values = [_int_adjugate(pencil._numerators(k)[1])[1] for k in points]
    return (pencil._int_model[0] ** max(n - 1, 0),
            [_interpolate(points, entry) for entry in zip(*values)])


ORIENTATIONS = ("sA-B", "A-sB")


class Pencil(Record):
    """Square matrix couple (A, B) with an orientation convention.

    "sA-B": characteristic matrix s*A - B (frequency pencils det(K*A - B),
    Weierstrass pairs det(s*Phi - Psi), similarity pencils det(s*I - M)).
    "A-sB": characteristic matrix A - s*B (classical A - xI with B = I).
    """

    A: RatMatrix
    B: RatMatrix
    orientation: str = "sA-B"

    def __post_init__(self):
        if self.orientation not in ORIENTATIONS:
            raise PreconditionError(f"unknown pencil orientation {self.orientation!r}")
        if not (self.A.is_square and self.B.is_square):
            raise PreconditionError("pencil matrices must be square")
        if self.A.rows != self.B.rows:
            raise PreconditionError("pencil matrices must have equal size")

    @classmethod
    def similarity(cls, M: RatMatrix) -> "Pencil":
        """The pencil s*I - M whose roots are the eigenvalues of M."""
        return cls(RatMatrix.identity(M.rows), M, "sA-B")

    @classmethod
    def classical(cls, M: RatMatrix) -> "Pencil":
        """The pencil M - s*I (characteristic-matrix convention)."""
        return cls(M, RatMatrix.identity(M.rows), "A-sB")

    @property
    def size(self) -> int:
        return self.A.rows

    def is_symmetric(self) -> bool:
        return self.A.is_symmetric() and self.B.is_symmetric()

    def leading(self) -> RatMatrix:
        """The matrix multiplying the pencil variable."""
        return self.A if self.orientation == "sA-B" else self.B

    def char_matrix(self) -> PolyMatrix:
        """P(s) = (s*X + Y) / L, one `Poly` per entry."""
        L, X, Y = self._int_model
        return PolyMatrix.from_rows([
            [Poly._of((y, x), den=L) for x, y in zip(row_x, row_y)]
            for row_x, row_y in zip(X, Y)
        ])

    # A cached_property writes the record's instance __dict__ beside the
    # fields; equality and hashing still see only A, B and the orientation.
    _char_poly = cached_property(lambda self: det_pencil(self))
    # (width numerator, width denominator) -> isolated roots
    _roots = cached_property(lambda self: {})
    # (scale, integer entries) from `_int_adjugate_pencil`, read only in this
    # module; `adjugate_pencil` divides them out on each call
    _adjugate = cached_property(lambda self: _int_adjugate_pencil(self))
    # the rows of a Jacobi pencil, or None (`_jacobi_rows`)
    _jacobi = cached_property(lambda self: _jacobi_rows(self))
    # square-free integer factor -> kernel basis of its rows (`_kernel`)
    _kernels = cached_property(lambda self: {})

    @cached_property
    def _int_model(self) -> tuple[int, list[list[int]], list[list[int]]]:
        """(L, X, Y), integer rows only read, with P(s) = (s*X + Y) / L and L
        the lcm of the denominators: X = L*A and Y = -L*B for "sA-B", X = -L*B
        and Y = L*A for "A-sB".  No kernel reads the orientation."""
        L = int_lcm(self.A.den, self.B.den)
        LA, neg_LB = self.A._int_rows(L // self.A.den), self.B._int_rows(-L // self.B.den)
        return (L, LA, neg_LB) if self.orientation == "sA-B" else (L, neg_LB, LA)

    def char_poly(self) -> Poly:
        """det of the characteristic matrix, computed on first use."""
        return self._char_poly

    def roots(self, width=DEFAULT_WIDTH) -> list[RealRoot]:
        """Real roots of `char_poly` isolated to `width`, once per width: a
        Jacobi pencil counts them with its leading minors (`_minor_count`),
        any other with the Sturm chain of its determinant."""
        width = Fraction(width)
        key = width.numerator, width.denominator
        if key not in self._roots:
            f = self.char_poly()
            if f.is_zero():
                raise PreconditionError("singular pencil (determinant identically zero)")
            self._roots[key] = sturm_isolate(f, width, _minor_count(self))
        return list(self._roots[key])

    def _adjugate_taylor(self, s, count: int) -> tuple[int, list[list[int]]]:
        """(den, coeffs): at s = p/q, the Taylor coefficient of order
        k < min(count, n) of adjugate entry e is coeffs[e][k] / den, with
        coeffs[e][k] = T_k * q^k for the integers T_k of `_taylor` and
        den = q^(n-1) * scale.  A singular pencil raises PreconditionError."""
        scale, entries = self._adjugate
        s = Fraction(s)
        p, q = s.numerator, s.denominator
        n = self.size
        coeffs = [_taylor(entry, p, q, count) for entry in entries]
        if q != 1 and count > 1:  # else every power q^k taken is 1
            powers = [q**k for k in range(min(count, n))]
            coeffs = [list(map(mul, ts, powers)) for ts in coeffs]
        return q ** max(n - 1, 0) * scale, coeffs

    def _factor_rows(self, g: Sequence[int]) -> list[list[int]]:
        """The characteristic matrix at the roots of g, a square-free integer
        polynomial of degree d >= 1 (lowest degree first), as n*d fresh
        integer rows over Q: P(alpha) acts on Q[alpha]^n, alpha = s mod g,
        written in the basis 1 .. alpha^(d-1), so entry (i, j) becomes the
        d x d block X_ij * lc*C + Y_ij * lc*I of P = (s*X + Y) / L, C the
        companion matrix of g and lc its leading coefficient.  For d = 1 and
        g_1 > 0 these are the rows of `_numerators` at the root -g_0/g_1.
        """
        d, lc = len(g) - 1, g[-1]
        # lc*C: multiplication by alpha sends alpha^b to alpha^(b+1), and
        # alpha^(d-1) to -(g_0 + .. + g_(d-1) alpha^(d-1)) / lc
        C = [[lc * (a == b + 1) for b in range(d - 1)] + [-g[a]] for a in range(d)]
        _, X, Y = self._int_model
        return [[x * C[a][b] + y * lc * (a == b) for x, y in zip(row_x, row_y) for b in range(d)]
                for row_x, row_y in zip(X, Y) for a in range(d)]

    def _kernel(self, g: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The exact nullspace of `_factor_rows(g)`, once per square-free
        factor g (a tuple in the form of `Poly.prim`; the root p/q is
        (-p, q)), each vector frozen to (den, ints) for ints / den."""
        if g not in self._kernels:
            self._kernels[g] = tuple([(d, tuple(v)) for d, v in _nullspace(
                self._factor_rows(g), self.size * (len(g) - 1))])
        return self._kernels[g]

    def evaluate(self, s) -> RatMatrix:
        """The characteristic matrix at a rational point, `_numerators` in
        lowest terms."""
        d, rows = self._numerators(s)
        return RatMatrix._lowest(self.size, self.size, d, [x for row in rows for x in row])

    def evaluate_float(self, s) -> np.ndarray:
        """`evaluate(s).to_numpy()` without the gcd chain: one correctly
        rounded integer division per entry of `_numerators`, the same floats,
        and the same OverflowError for an entry beyond floating-point range."""
        import numpy as np

        d, rows = self._numerators(s)
        return np.array([[x / d for x in row] for row in rows])

    def _numerators(self, s) -> tuple[int, list[list[int]]]:
        """(d, rows) with the characteristic matrix at s equal to rows / d.

        With s = p/q and P(s) = (s*X + Y) / L, the rows are p*X + q*Y and
        d = q*L.
        """
        s = Fraction(s)
        p, q = s.numerator, s.denominator
        L, X, Y = self._int_model
        return q * L, [[p * x + q * y for x, y in zip(row_x, row_y)]
                       for row_x, row_y in zip(X, Y)]
