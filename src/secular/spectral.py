"""Characteristic roots, eigenvectors and resolvent principal parts of pencils.

The exact path reads eigenvectors off the pencil's cached integer adjugate
at a rational root (`Pencil._adjugate_taylor`, first non-null column) or
off an exact nullspace of the characteristic matrix there, the pencil's
kernel at the factor (-p, q) of the root p/q (`Pencil._kernel`), which
`secular.invariants` and Weierstrass's theta pieces (`secular.quadpairs`)
read as well; `spectral_decompose` orthogonalizes it in integers.
`_principal_part` reads the resolvent's principal part at an exact root
off the adjugate's coefficients; its terms are the projector
and nilpotent parts of the Jordan solver (`secular.oscillate`).  One rule picks the path of every
entry point, this module's, the pair reduction's and the Jordan solver's:
an unknown path raises PreconditionError, "exact" with an irrational root
raises PathUnavailableError, and "auto" is exact exactly when every root
involved is.  Isolated irrational roots route to a floating path: the
interval is refined to width 10^-30, and the kernel is taken at its
midpoint.  A Jacobi pencil (`matrices._jacobi_rows`: every loaded string,
d'Alembert's two masses, a 2 x 2 symmetric matrix) reads its one null
vector there off its integer leading and trailing minors, as Lagrange
wrote the loaded string's amplitudes as polynomials in the root, and
rounds each entry of the unit vector once; it loads no numpy.  Any other
pencil rounds its characteristic matrix at the midpoint once to floats
from the integer model (no Fraction matrix is built) and takes nullspaces
by SVD with a relative singular-value threshold of 10^-10; at a simple
root the one null vector is the normalized adjugate column.  Weight norms
and projections on the floating path are Python float sums over a
matrix's float rows (`RatMatrix.to_floats`).

For a symmetric pencil whose leading matrix is definite (by `inertia`),
every root is real and vectors of distinct roots are orthogonal in both
matrices of the couple; `cauchy_orthogonality` re-verifies that identity on
demand.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from math import isqrt, sqrt
from operator import mul
from typing import TYPE_CHECKING

from ._record import Record
from .errors import InternalError, PathUnavailableError, PreconditionError
from .invariants import inertia
from .matrices import Pencil, RatMatrix, _bilinear, _bilinear_float, _jacobi_null_vector
from .polynomials import Poly, _over_lcm
from .realroots import DEFAULT_WIDTH as FLOAT_ROOT_WIDTH, RealRoot, refine_root

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SpectralDecomposition",
    "OrthogonalityReport",
    "QFactor",
    "char_roots",
    "adjugate_eigenvector",
    "nullspace_at_root",
    "cauchy_orthogonality",
    "q_factor",
    "spectral_decompose",
    "FLOAT_ROOT_WIDTH",
    "FLOAT_NULL_THRESHOLD",
]

FLOAT_NULL_THRESHOLD = 1e-10


class SpectralDecomposition(Record):
    """Roots with per-root vector systems.

    Exact-path vectors are unnormalized Fraction tuples with their squared
    norms (in the weight matrix) recorded; floating-path vectors are
    unit-norm float tuples.
    """

    roots: tuple[RealRoot, ...]
    vectors: tuple[tuple[tuple, ...], ...]  # per root, a tuple of column vectors
    sq_norms: tuple[tuple, ...]  # per root, squared weight-norms of the vectors
    orthonormal: bool
    path: str  # "exact" | "float"


class OrthogonalityReport(Record):
    pairs_checked: int
    max_violation: Fraction | float
    ok: bool


class QFactor(Record):
    """Deflated characteristic value at a simple root.

    deflated_value = (P / (x - root))(root) = P'(root); the overall scale
    convention is fixed to 1.
    """

    root: RealRoot
    deflated_value: Fraction | float
    scale: int = 1


def char_roots(pencil: Pencil, target_width=FLOAT_ROOT_WIDTH) -> list[RealRoot]:
    """All real characteristic roots with multiplicities, sorted.

    Rejects singular pencils.  When the pencil is symmetric with a definite
    leading matrix, every root must be real; a shortfall in total
    multiplicity would contradict that theorem and raises InternalError.
    """
    roots = pencil.roots(target_width)
    if pencil.is_symmetric():
        degree = pencil.char_poly().degree()
        if inertia(pencil.leading()).definite and sum(r.multiplicity for r in roots) != degree:
            raise InternalError(
                "symmetric definite pencil produced complex roots; this"
                " contradicts the real-root theorem and signals a bug"
            )
    return roots


def _root_point(root: RealRoot) -> Fraction:
    """Rational evaluation point: the root itself, or a refined midpoint."""
    if root.is_exact:
        return root.value
    return refine_root(root, FLOAT_ROOT_WIDTH).approx()


def _root_kernel(pencil: Pencil, root: RealRoot):
    """`Pencil._kernel` at the factor (-p, q) of the exact root p/q."""
    return pencil._kernel((-root.value.numerator, root.value.denominator))


def _decide_path(path: str, exact: bool) -> str:
    """The arithmetic path for a request: "exact" when every root involved
    is `exact` and the request allows it, else "float"; an unknown path, or
    "exact" with an irrational root, raises."""
    if path not in ("auto", "exact", "float"):
        raise PreconditionError(f"unknown arithmetic path {path!r}")
    if path == "exact" and not exact:
        raise PathUnavailableError(
            "exact path requested but a characteristic root is irrational;"
            " use the floating path"
        )
    return "exact" if exact and path != "float" else "float"


def _sign_normalize(vec: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    lead = next((v for v in vec if v != 0), None)
    if lead is not None and lead < 0:
        return tuple([-v for v in vec])
    return vec


def adjugate_eigenvector(pencil: Pencil, root: RealRoot, path: str = "auto"):
    """Eigenvector as the first non-null column of the adjugate of the
    characteristic matrix at the root.

    Exact path: the pencil's cached integer adjugate evaluated at the root,
    whose nonzero columns satisfy (characteristic matrix)(root) @ v = 0
    exactly; the vector is sign-normalized (first nonzero entry positive).
    Floating path: the adjugate has rank one exactly when the nullity is
    one, and its columns then span the nullspace, so the vector is the unit
    null vector of `nullspace_at_root`.  An all-zero adjugate (nullity above
    one) means the root has higher geometric multiplicity; use
    `nullspace_at_root` then.
    """
    mode = _decide_path(path, root.is_exact)
    if mode == "exact":
        n = pencil.size
        den, values = pencil._adjugate_taylor(root.value, 1)
        for j in range(n):
            col = [values[i * n + j][0] for i in range(n)]
            if any(col):
                return _sign_normalize(tuple([Fraction(v, den) for v in col]))
    else:
        basis = _float_null_vectors(pencil, root)
        if len(basis) == 1:
            return basis[0]
    raise PreconditionError(
        "adjugate vanishes at this root (geometric multiplicity > 1);"
        " use nullspace_at_root"
    )


def _principal_part(pencil: Pencil, sigma: Fraction, m: int) -> list[RatMatrix]:
    """[R_0, .., R_(r-1)], the principal part sum_k R_k / (s - sigma)^(k+1)
    of the resolvent adj(s)/f(s) of a regular pencil at an exact root sigma
    of multiplicity m of f = det.

    With f = (s - sigma)^m h, R_k is the Taylor coefficient of order m-1-k
    of adj/h: the adjugate's coefficients (`Pencil._adjugate_taylor`)
    convolved with the 1/h series, over one denominator.  R_0 is the
    residue; for sI - M it is the projector P, and R_k = N^k P with
    N = (M - sigma I) P.  Only the r = m - i0 nonzero terms are built, i0
    the lowest order of a nonzero adjugate coefficient; r is the longest
    Jordan chain.  m is checked first (PreconditionError unless f vanishes
    to order exactly m); the resolvent has a pole at a root, so then i0 < m.
    """
    f = pencil.char_poly()
    h = f.taylor(sigma, m + 1)
    if m < 1 or any(h[:m]) or not h[m]:
        raise PreconditionError("root multiplicity mismatch during deflation")
    den, g = pencil._adjugate_taylor(sigma, m)
    orders = list(zip(*g))  # orders[i]: the order-i coefficient of every entry
    i0 = next(i for i in range(m) if any(orders[i]))
    r = m - i0
    if r > 1:
        h = f.taylor(sigma, m + r)
    h = h[m:]
    inv = [1 / h[0]]
    for j in range(1, r):
        inv.append(-sum(h[i] * inv[j - i] for i in range(1, j + 1)) * inv[0])
    d, inv = _over_lcm(inv)
    den *= d
    n = pencil.size
    terms = []
    for j in range(m - 1, i0 - 1, -1):
        # R_(m-1-j), the order-j coefficient of adj/h: orders[i] * inv[j-i] over i
        nums = [inv[j - i0] * c for c in orders[i0]]
        for i in range(i0 + 1, j + 1):
            w = inv[j - i]
            nums = [a + w * c for a, c in zip(nums, orders[i])]
        terms.append(RatMatrix._lowest(n, n, den, nums))
    return terms


def _float_nullspace(M: np.ndarray):
    import numpy as np

    _, s, vh = np.linalg.svd(M)
    cutoff = FLOAT_NULL_THRESHOLD * (s[0] if s.size and s[0] > 0 else 1.0)
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


def _unit_floats(v: list[int]) -> tuple[float, ...]:
    """v / |v| as floats, each entry one correctly rounded integer division:
    |v| is the integer square root of sum v_k^2 scaled by a power of four
    to at least 2^256, so it errs by less than 2^-128 relative."""
    s = sum([x * x for x in v])
    t = max(0, 128 - s.bit_length() // 2)
    norm = isqrt(s << 2 * t)
    return tuple([(x << t) / norm for x in v])


def _float_null_vectors(pencil: Pencil, root: RealRoot) -> list[tuple[float, ...]]:
    """The floating path's unit kernel basis at the root's midpoint: the
    Jacobi pencil's one null vector from its integer minors, else the SVD's."""
    x = _root_point(root)
    if pencil._jacobi is not None:
        return [_unit_floats(_jacobi_null_vector(pencil._jacobi, x.numerator, x.denominator))]
    return _float_nullspace(pencil.evaluate_float(x))


def nullspace_at_root(pencil: Pencil, root: RealRoot, path: str = "auto"):
    """Exact (or floating) basis of the nullspace of the characteristic
    matrix at a root; its size is the geometric multiplicity.

    Exact path: the pencil's kernel at the root (`_root_kernel`, one
    elimination per pencil and factor, shared with theta), each vector
    as a sign-normalized Fraction tuple.  Floating path, at the midpoint m/d
    of the root refined to 10^-30: a Jacobi pencil, whose roots are all simple,
    gives its one null vector in integers, an adjugate column from the
    leading minors of `matrices._minor_count` and the trailing ones
    (`matrices._jacobi_null_vector`), first entry positive, and each entry
    of the unit vector is one correctly rounded integer division
    (`_unit_floats`).  Lagrange wrote the loaded string's amplitudes as
    these polynomials in the root; their recurrence runs in integers
    because in floats, and off the root from its last row, it loses the
    entries where the mode is small (Wilkinson, The Algebraic Eigenvalue
    Problem, 1965, ch. 5).  Any other pencil takes the SVD null vectors of
    its characteristic matrix rounded to floats, each with its first entry
    above 10^-12 in size positive.
    """
    mode = _decide_path(path, root.is_exact)
    if mode == "exact":
        return [_sign_normalize(tuple([Fraction(v, d) for v in vs]))
                for d, vs in _root_kernel(pencil, root)]
    return _float_null_vectors(pencil, root)


def cauchy_orthogonality(dec: SpectralDecomposition, B: RatMatrix) -> OrthogonalityReport:
    """Verify v_i^T B v_j = 0 across vectors of distinct roots.

    On the exact path any nonzero product is reported as a failure; on the
    floating path the largest magnitude is reported against a 1e-9 gate.
    """
    exact = dec.path == "exact"
    worst: Fraction | float = Fraction(0) if exact else 0.0
    pairs = 0
    groups = list(zip(dec.roots, dec.vectors))
    Bf = None if exact else B.to_floats()
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            for v in groups[a][1]:
                for w in groups[b][1]:
                    pairs += 1
                    if exact:
                        val = abs(_bilinear(B, v, w))
                        worst = max(worst, val)
                    else:
                        val = abs(_bilinear_float(Bf, v, w))
                        worst = max(worst, val)
    ok = (worst == 0) if exact else (worst <= 1e-9)
    return OrthogonalityReport(pairs, worst, ok)


def q_factor(p: Poly, root: RealRoot) -> QFactor:
    """Deflate the characteristic polynomial by its simple root.

    Returns (p / (x - root))(root), the first-order Taylor coefficient of p
    at the root, whose zeroth coefficient p(root) must vanish; an exact root
    is cross-checked against the derivative shortcut p'(root).  Multiple
    roots must go through the Jordan-form path.
    """
    if root.multiplicity != 1:
        raise PreconditionError(
            "q-factor deflation needs a simple root; multiple roots are"
            " handled by the Jordan-form solver"
        )
    x = _root_point(root)
    c0, c1 = p.taylor(x, 2)
    if not root.is_exact:
        return QFactor(root, float(c1))
    if c0 != 0:
        raise PreconditionError("the given value is not a root")
    if c1 != p.derivative().evaluate(x):
        raise InternalError("deflation disagrees with the derivative shortcut")
    return QFactor(root, c1)


def _gram_schmidt_exact(basis, W: RatMatrix):
    """W-orthogonalize a kernel basis given as (den, ints) per vector (no
    normalization), in integers; returns sign-normalized Fraction vectors
    with their squared W-norms.

    With <u, v> = u^T N v on the numerators N of W, a vector v = ints / den
    loses its part along each earlier u as
    v <- (<u, u> v - <u, v> u) / (den <u, u>), over one gcd, and its squared
    norm is <v, v> / (den^2 W.den); the denominators of u cancel.
    """
    rows = W._int_rows()
    done = []  # per vector: its integers, u^T N and <u, u>
    out = []
    norms = []
    for den, v in basis:
        for u, uN, uu in done:
            uv = sum(map(mul, uN, v))
            if uv:
                if uu < 0:
                    uu, uv = -uu, -uv
                v = [uu * a - uv * b for a, b in zip(v, u)]
                den *= uu
                g = int_gcd(den, *v)
                den, v = den // g, [a // g for a in v]
        if next((a for a in v if a), 0) < 0:
            v = [-a for a in v]
        vN = [sum(map(mul, col, v)) for col in zip(*rows)]
        vv = sum(map(mul, vN, v))
        if vv == 0:
            raise InternalError("degenerate weight norm during orthogonalization")
        done.append((v, vN, vv))
        out.append(tuple([Fraction(a, den) for a in v]))
        norms.append(Fraction(vv, den * den * W.den))
    return out, norms


def _gram_schmidt_float(vectors, W: list[list[float]]):
    """W-orthonormalize float vectors in Python floats, W given by its
    float rows (`RatMatrix.to_floats`); returns them with unit norms."""
    out = []
    for v in vectors:
        v = [float(x) for x in v]
        for u in out:
            c = _bilinear_float(W, u, v) / _bilinear_float(W, u, u)
            v = [a - c * b for a, b in zip(v, u)]
        nv = sqrt(abs(_bilinear_float(W, v, v)))
        if not nv:
            raise OverflowError("weight norm of a vector is not a positive float")
        out.append(tuple([a / nv for a in v]))
    return out, [1.0] * len(out)


def spectral_decompose(pencil: Pencil, path: str = "auto") -> SpectralDecomposition:
    """Full per-root vector systems for a symmetric pencil.

    Vectors within a repeated root are orthogonalized in the leading matrix
    of the pencil; across distinct roots that orthogonality holds
    automatically for symmetric pencils.  The exact path orthogonalizes the
    pencil's kernel at each root (`_root_kernel`) in integers, the
    floating path the unit null vectors of `nullspace_at_root` in floats.
    """
    roots = char_roots(pencil)
    mode = _decide_path(path, all(r.is_exact for r in roots))
    W = pencil.leading()
    Wf = None if mode == "exact" else W.to_floats()
    vectors = []
    norms = []
    for root in roots:
        if mode == "exact":
            vs, ns = _gram_schmidt_exact(_root_kernel(pencil, root), W)
        else:
            vs, ns = _gram_schmidt_float(_float_null_vectors(pencil, root), Wf)
        vectors.append(tuple(vs))
        norms.append(tuple(ns))
    return SpectralDecomposition(tuple(roots), tuple(vectors), tuple(norms),
                                 mode == "float", mode)
