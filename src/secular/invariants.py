"""Minor-GCD chains, invariant factors, elementary divisors, the
diagonalizability criterion, and quadratic-form inertia.

The chain Delta_1 | Delta_2 | ... | Delta_n collects the monic GCDs of all
k x k minors of a polynomial matrix.  It is read off a Smith form over Q[x]
built by Euclidean elimination, with no size cap: unimodular row and column
operations leave every minor GCD unchanged, so by theorem Delta_k is the
monic product of the first k diagonal entries.  The elimination runs on
primitive integer rows by pseudo-division (Collins 1967): a row times a
nonzero constant is unimodular over Q[x], so each row operation may first
scale its row by a power of the pivot's leading coefficient, and a reduction
of row 0 scales the whole row by one such power.  Quotients of consecutive
entries give the invariant factors, whose irreducible-power parts are the
elementary divisors.

A matrix is diagonalizable exactly when all of those are simple, that is
when its minimal polynomial f / Delta_(n-1) is square-free.  The adjugate of
the characteristic matrix P holds the (n-1)-minors, so for a square-free
factor g of f of multiplicity mu, g^(mu-1) divides every adjugate entry
exactly when it divides Delta_(n-1).  That is read off a kernel, by the
Smith form at one root alpha of an irreducible factor of g: the unimodular
transforms stay invertible at alpha, so dim ker P(alpha) counts the
invariant factors that alpha annuls.  Each holds the factor at least once,
their exponents sum to mu, and Delta_(n-1) holds mu less the largest, so
g^(mu-1) divides it exactly when each holds the factor once, that is when
dim ker P(alpha) = mu.  For all roots of g at once this is one integer
elimination over Q[s]/(g) (`Pencil._factor_rows`): no root's kernel
exceeds mu, so its rational nullity is at most mu * deg g, and equal to it
exactly then (`_minor_divisibility`).  Jordan's test for simple elementary
divisors and Weierstrass's "remarkable circumstance" for definite pairs are
both this one test, and neither builds the adjugate; the elimination is
the pencil's kernel at g (`Pencil._kernel`), which theta reads too.

Inertia of a symmetric rational matrix is read off the pivot signs of one
symmetric Bareiss pass with swaps and Lagrange's completing-the-square step;
with no zero pivot these are the sign permanences of the leading minors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

from ._record import Record
from .errors import InternalError, PreconditionError
from .matrices import Pencil, PolyMatrix, RatMatrix, _bareiss_step
from .polynomials import (
    ONE,
    Poly,
    _mul,
    _over_lcm,
    _pdivmod,
    _sub,
    kronecker_factor,
    squarefree_decompose,
)
from .realroots import RealRoot

__all__ = [
    "MinorGcdChain",
    "InvariantFactors",
    "ElementaryDivisors",
    "InertiaReport",
    "MinorDivisibility",
    "minor_gcd_chain",
    "invariant_factors",
    "elementary_divisors",
    "is_diagonalizable",
    "inertia",
    "darboux_signature_steps",
]


class MinorGcdChain(Record):
    """Monic GCDs Delta_1 .. Delta_n of the k x k minors (Delta_0 = 1)."""

    deltas: tuple[Poly, ...]

    def __iter__(self):
        return iter(self.deltas)


class InvariantFactors(Record):
    """Quotients i_k = Delta_k / Delta_(k-1); each divides the next."""

    factors: tuple[Poly, ...]

    def __iter__(self):
        return iter(self.factors)


class ElementaryDivisors(Record):
    """Irreducible-power parts of the invariant factors, flattened."""

    divisors: tuple[tuple[Poly, int], ...]


class MinorDivisibility(Record):
    """Minor-divisibility evidence per root group of a pencil's determinant.

    Each record is (square-free factor of the characteristic polynomial,
    multiplicity mu, whether factor^(mu-1) divides every (n-1)-minor, that
    is every adjugate entry); `ok` holds when every record does.
    """

    records: tuple[tuple[Poly, int, bool], ...]

    @property
    def ok(self) -> bool:
        return all(divisible for _, _, divisible in self.records)


class InertiaReport(Record, ignore=("matrix",)):
    positives: int
    negatives: int
    zeros: int
    method: str  # "minor-formula" | "congruence-fallback"
    matrix: RatMatrix  # left out of equality, the hash and the repr

    @property
    def signature(self) -> tuple[int, int, int]:
        return (self.positives, self.negatives, self.zeros)

    @property
    def definite(self) -> int:
        """+1 positive definite (as the 0 x 0 form is), -1 negative definite, else 0."""
        if self.negatives == self.zeros == 0:
            return 1
        return -1 if self.positives == self.zeros == 0 else 0

    @property
    def minor_sequence(self) -> tuple[Fraction, ...]:
        """Leading minors, determinant first down to 1, built when read."""
        return (*self.matrix.leading_principal_minors()[::-1], Fraction(1))


def minor_gcd_chain(P: PolyMatrix) -> MinorGcdChain:
    """Delta_k = monic gcd of all k x k minors, from a Smith form over Q[x].

    Elimination brings P to diag(d_1, ..., d_n) with d_k | d_(k+1), so
    Delta_k = monic(d_1 ... d_k).  It runs on integer rows: each row of P
    times the lcm of its denominators, divided by its content, which scales
    the row by a nonzero constant, a unimodular operation over Q[x].
    Rejects singular pencils (determinant identically zero): their
    completion is out of scope here.
    """
    if not P.is_square:
        raise PreconditionError("minor chain of a non-square matrix")
    if P.rows == 0:
        return MinorGcdChain((ONE,))  # the empty determinant
    block = []
    for i in range(P.rows):
        row = [P.entry(i, j) for j in range(P.cols)]
        scales = _over_lcm([p.content for p in row])[1]
        block.append(_primitive_row([[s * v for v in p.prim] for s, p in zip(scales, row)]))
    deltas = [ONE]
    while block:
        deltas.append(deltas[-1] * Poly._of(_smith_pivot(block)).monic())
        block = [row[1:] for row in block[1:]]
    return MinorGcdChain(tuple(deltas[1:]))


def _smith_pivot(a: list[list[list[int]]]) -> list[int]:
    """Reduce the block `a` of primitive integer rows (each entry a trimmed
    integer coefficient list, lowest degree first, zero empty) in place
    until a[0][0] is alone in its row and column and divides every other
    entry; return that pivot.

    The pivot is the nonzero entry of least (degree, coefficient bits).  Its
    column, then its row, are reduced by pseudo-division; a row the pivot
    does not divide is added into row 0 and reduced too.  A nonzero
    remainder has lower degree and becomes the next pivot, so each pass
    either returns or lowers the pivot degree.  Pseudo-division scales a
    row by a power of the pivot's leading coefficient, and each changed row
    is divided by its content against coefficient growth.
    """
    while True:
        sizes = [(len(p), sum(c.bit_length() for c in p), i, j)
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
        pivot, lc = a[0][0], a[0][0][-1]
        for i in range(1, len(a)):
            if a[i][0]:
                # lc^e * a[i] - quo * a[0], with lc^e * a[i][0] = quo * pivot + rem
                quo, rem = _pdivmod(a[i][0], pivot)
                c = lc ** (len(a[i][0]) - len(pivot) + 1)
                a[i] = _primitive_row([rem] + [
                    _sub([c * v for v in x], _mul(quo, y))
                    for x, y in zip(a[i][1:], a[0][1:])
                ])
        if any(row[0] for row in a[1:]):
            continue
        # Column 0 is clear below the pivot, so column operations change only
        # row 0: each entry becomes its remainder.  When none is left, the
        # first row below with an entry the pivot does not divide is added
        # into row 0 (a constant pivot divides everything).
        for rest in [a[0][1:], *[row[1:] for row in a[1:] if len(pivot) > 1]]:
            rems = [_pdivmod(x, pivot)[1] for x in rest]
            if any(rems):
                break
        else:
            return pivot
        # One power lc^e of the leading coefficient scales all of row 0, a row
        # operation; a power per entry would be a column scale, which the
        # rows below would have to receive as well.
        exps = [max(len(x) - len(pivot) + 1, 0) for x in rest]
        e = max(exps)
        a[0] = _primitive_row([[lc**e * v for v in pivot]] + [
            [lc ** (e - k) * v for v in rem] for rem, k in zip(rems, exps)
        ])


def _primitive_row(row: list[list[int]]) -> list[list[int]]:
    """The nonzero integer row divided by the gcd of all its coefficients."""
    g = int_gcd(*[c for p in row for c in p])
    return [[c // g for c in p] for p in row] if g > 1 else row


def invariant_factors(chain: MinorGcdChain) -> InvariantFactors:
    """i_k = Delta_k / Delta_(k-1), verifying both divisibility chains."""
    factors = []
    prev = ONE
    for delta in chain.deltas:
        quo, rem = divmod(delta, prev)
        if not rem.is_zero():
            raise InternalError("minor-GCD chain is not a divisibility chain")
        factors.append(quo.monic())
        prev = delta
    for a, b in zip(factors, factors[1:]):
        if not a.divides(b):
            raise InternalError("invariant factors do not divide in sequence")
    return InvariantFactors(tuple(factors))


def elementary_divisors(inv: InvariantFactors) -> ElementaryDivisors:
    """Split every invariant factor into irreducible powers."""
    out: list[tuple[Poly, int]] = []
    for f in inv.factors:
        if f.degree() <= 0:
            continue
        out.extend(kronecker_factor(f))
    return ElementaryDivisors(tuple(out))


def _minor_divisibility(pencil: Pencil) -> MinorDivisibility:
    """One record per square-free factor g of the pencil's determinant, of
    degree d and multiplicity mu: whether g^(mu-1) divides every adjugate
    entry, that is (see the module docstring) whether the pencil's kernel
    at g (`Pencil._kernel`) has mu*d vectors.  g^0 divides everything, so a
    square-free determinant eliminates nothing."""
    records = []
    for factor, mult in squarefree_decompose(pencil.char_poly()):
        divisible = mult == 1 or len(pencil._kernel(factor.prim)) == mult * factor.degree()
        records.append((factor, mult, divisible))
    return MinorDivisibility(tuple(records))


def is_diagonalizable(P: Pencil | RatMatrix) -> tuple[bool, MinorDivisibility]:
    """Whether all elementary divisors are simple, with minor-level evidence.

    Accepts a matrix M (treated as lambda*I - M) or its similarity pencil.
    The witness keeps the records of `_minor_divisibility` for the multiple
    roots (mu >= 2), and the verdict is that all of them hold: a factor's
    exponent in Delta_(n-1) is its exponent in the determinant less its
    exponent in the minimal polynomial, so this is square-freeness of the
    minimal polynomial, equivalently all elementary divisors simple.
    """
    if isinstance(P, RatMatrix):
        P = Pencil.similarity(P)
    if P != Pencil.similarity(P.B):
        raise PreconditionError(
            "diagonalizability test expects the pencil lambda*I - A"
        )
    witness = MinorDivisibility(
        tuple(r for r in _minor_divisibility(P).records if r[1] >= 2)
    )
    return witness.ok, witness


def inertia(M: RatMatrix) -> InertiaReport:
    """Signature (positives, negatives, zeros) of a symmetric rational form,
    by `_inertia`: "minor-formula" when no leading principal minor vanishes,
    else "congruence-fallback".  The counts are stored on the matrix
    instance, so each matrix is classified once however many callers ask.
    """
    # Stored as a cached_property would store it: in the record's instance
    # __dict__, which takes entries beside the fields; equality and hashing
    # read the fields alone.
    stored = vars(M)
    if "_inertia" not in stored:
        stored["_inertia"] = _inertia(M)
    return InertiaReport(*stored["_inertia"], M)


def _inertia(M: RatMatrix) -> tuple[int, int, int, str]:
    """One symmetric Bareiss pass (Math. Comp. 1968) on the integer rows of
    M.  Each pivot is a leading minor of the form reached so far, so its
    sign against the pivot before counts one positive or one negative square
    (Jacobi; Sylvester's law of inertia).  A zero pivot trades places with a
    later nonzero diagonal entry; when none is left, row and column j are
    added into k (Lagrange's step for a form without squares: the pivot
    becomes 2*m[k][j]); a zero row is a zero square and leaves the pass.
    Entries are bordered minors, linear in their bordering row and column,
    so these congruences commute with the reduction and divisions stay exact.
    """
    if not M.is_symmetric():
        raise PreconditionError("inertia requires a symmetric matrix")
    m = M._int_rows()
    signs = [0, 0]  # positive, negative squares
    prev, k, plain = 1, 0, True
    while k < len(m):
        if m[k][k] == 0:
            plain = False
            if (j := next((i for i in range(k + 1, len(m)) if m[i][i]), None)) is not None:
                m[k], m[j] = m[j], m[k]
                for row in m:
                    row[k], row[j] = row[j], row[k]
            elif (j := next((i for i in range(k + 1, len(m)) if m[k][i]), None)) is not None:
                m[k] = [a + b for a, b in zip(m[k], m[j])]
                for row in m:
                    row[k] += row[j]
            else:
                del m[k]
                for row in m:
                    del row[k]
                continue
        signs[(m[k][k] > 0) != (prev > 0)] += 1
        _bareiss_step(m, k, prev, range(k + 1, len(m)))
        prev = m[k][k]
        k += 1
    pos, neg = signs
    return pos, neg, M.rows - pos - neg, "minor-formula" if plain else "congruence-fallback"


def darboux_signature_steps(M: RatMatrix) -> list[tuple[RealRoot, int]]:
    """Jumps of the positive-square count of M - lambda*I at its eigenvalues.

    Returns (root, jump) pairs in increasing root order; for symmetric M each
    jump is -multiplicity.
    """
    if not M.is_symmetric():
        raise PreconditionError("signature steps require a symmetric matrix")
    pencil = Pencil.classical(M)
    roots = pencil.roots()
    if not roots:
        return []
    # rational sample points between consecutive roots: isolating intervals
    # are pairwise disjoint and exclude the exact roots, so a shared endpoint
    # is no root
    samples = [roots[0].lo - 1]
    for left, right in zip(roots, roots[1:]):
        samples.append((left.hi + right.lo) / 2)
    samples.append(roots[-1].hi + 1)
    counts = [inertia(pencil.evaluate(lam)).positives for lam in samples]
    return [
        (root, counts[i + 1] - counts[i]) for i, root in enumerate(roots)
    ]

