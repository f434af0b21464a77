"""Exact real-root isolation for rational polynomials.

Roots are represented by `RealRoot`: either an exact rational value or an
open isolating interval (lo, hi) with rational endpoints across which the
square-free defining polynomial changes sign.  Multiplicities always refer to
the original (possibly non-square-free) polynomial.

Isolation bisects the Cauchy interval of the square-free part with a root
counter: a function of n and d > 0 giving the number of roots above n/d up
to a constant, so that its drop across (a, b] is the number of roots there;
at a midpoint it is also handed the sign of the polynomial there, which
bisection has just taken.  The default counter is Sturm's, the sign
variations of the primitive pseudo-remainder sequence of `polynomials` on
int lists, which keeps coefficient growth in check while preserving the
sign structure the theorem needs; the sign handed to it is its first.
The chain of p ends in gcd(p, p') up to a constant; when that is not a
constant, Yun's decomposition over Z starts from it, and the chain of the
square-free part it returns is the one counted.  A caller that knows a
cheaper counter for a square-free p passes it instead, and no chain is
built: `Pencil.roots` passes the sign changes of a Jacobi pencil's leading
minors (`secular.matrices`), O(n) integer operations per point.  Every sign
is taken in integers: the sign of p at n/d is that of d**deg * p(n/d), which
homogeneous Horner computes without fractions.  Bisection keeps both
endpoints as unreduced numerators over one denominator that doubles at each
halving, so the endpoints are exactly those of Fraction bisection, and the
intervals come out in increasing order.

Narrowing an isolating interval does not halve step by step.  Bisection
stops at the first depth k where the interval is narrow enough, and its
interval there is one cell of the dyadic grid of depth k on the starting
interval; quadratic interval refinement (Abbott) finds that cell from
secant guesses through integer endpoint values, each confirmed by two
signs, so the endpoints are still bisection's, bit for bit.

Each root is narrowed in one pass, which also splits off the rational
roots.  A rational root p/q of the integer model has q dividing its leading
coefficient lc, so it is m/lc for an integer m, and a cell narrower than
1/lc holds at most one such point: refinement stops at the first depth
where cells are that narrow, and the first such point at or after the
cell's left end decides whether its root is rational.  If no root is,
refinement goes on from that cell with the step size it had reached down
to the target width, or, where the target depth is the shallower, the
target cell is that cell's ancestor; either way it is the cell bisection
from the isolating interval reaches.  If any is, the irrational roots are
isolated afresh from the polynomial deflated by exact integer division,
counted by the counter less the rational roots above the point, and each
is narrowed until its interval holds no rational root, ends included.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial

from ._record import Record, replace
from .errors import PreconditionError
from .polynomials import Poly, _derivative, _exact_quo, _over_lcm, _prs, _yun

__all__ = [
    "RealRoot",
    "sturm_isolate",
    "refine_root",
    "root_sign",
]

# the isolation width when none is given, also the floating path's
DEFAULT_WIDTH = Fraction(1, 10**30)


class RealRoot(Record):
    """One real root of a rational polynomial.

    kind "exact": `value` holds the rational root, lo == hi == value.
    kind "isolated": the open interval (lo, hi) contains exactly one root of
    `poly`, and sign(poly(lo)) != sign(poly(hi)), both nonzero.
    `poly` is the square-free factor the root belongs to; `multiplicity` is
    the root's multiplicity in the original polynomial.
    """

    kind: str
    value: Fraction | None
    lo: Fraction
    hi: Fraction
    poly: Poly
    multiplicity: int

    @classmethod
    def exact(cls, value, poly: Poly, multiplicity: int = 1) -> "RealRoot":
        v = Fraction(value)
        return cls("exact", v, v, v, poly, multiplicity)

    @classmethod
    def isolated(cls, lo, hi, poly: Poly, multiplicity: int = 1) -> "RealRoot":
        return cls("isolated", None, Fraction(lo), Fraction(hi), poly, multiplicity)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def width(self) -> Fraction:
        return self.hi - self.lo

    # the midpoint, built on first use
    _approx = cached_property(
        lambda self: self.value if self.kind == "exact" else (self.lo + self.hi) / 2)

    def approx(self) -> Fraction:
        """Rational representative: the value itself, or the midpoint."""
        return self._approx

    def as_float(self) -> float:
        return float(self._approx)

    def __repr__(self) -> str:
        if self.is_exact:
            return f"RealRoot({self.value!s}, mult={self.multiplicity})"
        return (
            f"RealRoot(({float(self.lo):.12g}, {float(self.hi):.12g}),"
            f" mult={self.multiplicity})"
        )


def _value_at(cs: tuple[int, ...], n: int, d: int) -> int:
    """d**deg * cs(n/d) by homogeneous Horner, in integers alone; for d > 0
    it has the sign of cs at n/d."""
    acc, dk = 0, 1
    for c in reversed(cs):
        acc = acc * n + c * dk
        dk *= d
    return acc


def _sign_at(cs: tuple[int, ...], n: int, d: int) -> int:
    """Sign of the integer polynomial cs at n/d (d > 0)."""
    acc = _value_at(cs, n, d)
    return (acc > 0) - (acc < 0)


def _variations(chain: list[tuple[int, ...]], n: int, d: int, first=None) -> int:
    """Sturm's counter: the sign variations of the chain at n/d; `first`,
    when given, is the sign of chain[0] there, which is then not taken."""
    head = _sign_at(chain[0], n, d) if first is None else first
    signs = [s for s in (head, *(_sign_at(q, n, d) for q in chain[1:])) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _halve(cs, a, b, d):
    """Split the interval (a/d, b/d) at its midpoint m/d over the doubled
    denominator; a midpoint that is a root of cs moves halfway toward a.

    Returns (a, m, b, d) over the new denominator and the sign of cs at m.
    The endpoints stay unreduced, so every number is the one Fraction
    bisection gives.
    """
    m, a, b, d = a + b, 2 * a, 2 * b, 2 * d
    s = _sign_at(cs, m, d)
    while s == 0:
        m, a, b, d = a + m, 2 * a, 2 * b, 2 * d
        s = _sign_at(cs, m, d)
    return a, m, b, d, s


def _isolate(cs, count) -> list[tuple[int, int, int]]:
    """Isolating intervals (a, b, d), meaning (a/d, b/d), of every real root
    of the square-free integer polynomial cs, in increasing order, from
    bisection of its Cauchy interval; count(n, d, sign) is the number of
    roots of cs above n/d up to a constant, and is handed the sign of cs at
    each midpoint, which bisection has taken already.
    """
    bound = 1 + Fraction(max(abs(c) for c in cs[:-1]), cs[-1])
    n, d = bound.numerator, bound.denominator
    stack = [(-n, n, d, count(-n, d), count(n, d))]
    intervals = []
    while stack:
        a, b, d, va, vb = stack.pop()
        if va - vb == 1:
            intervals.append((a, b, d))
        elif va - vb > 1:
            a, m, b, d, s = _halve(cs, a, b, d)
            vm = count(m, d, s)
            stack.append((m, b, d, vm, vb))
            stack.append((a, m, d, va, vm))
    return intervals


def _depth(a, b, d, width: Fraction, strict=False) -> int:
    """The first depth k at which the cells of (a/d, b/d), b - a over
    d * 2**k, are narrower than `width` (no wider, if strict)."""
    # wide at depth j while x >= y * 2**j
    x, y = (b - a) * width.denominator - strict, width.numerator * d
    k = max(0, x.bit_length() - y.bit_length())
    return k + (x >= y << k)


def _qir(cs, a, b, d, k, state=None) -> tuple[int, int, int, int, int]:
    """The cell of depth k that bisection of the isolating interval (a/d,
    b/d) of the square-free integer polynomial cs reaches, found by
    quadratic interval refinement (Abbott 2014) on the same dyadic grid.

    At depth j the cell is (lo, lo + b - a) over d * 2**j.  A step splits it
    into 2**m subcells, guesses the root's subcell from the secant through
    the endpoint values, and confirms the guess with two signs; m doubles on
    success and halves, with one plain halving, on failure.  A grid point
    that is a root stops the search at the last cell confirmed, where
    bisection is still the same; the caller bisects on from there.

    Returns the state (lo, depth, m, flo, fhi): the cell reached, the step
    exponent m, and the values of cs at the cell's ends over its
    denominator.  Passed back as `state` with a larger k, it goes on from
    that cell as one pass would have.
    """
    span, deg = b - a, len(cs) - 1
    lo, depth, m, flo, fhi = state or (a, 0, 2, _value_at(cs, a, d), _value_at(cs, b, d))
    while depth < k and flo and fhi:
        step = min(m, k - depth)
        n, grid, base = 1 << step, d << (depth + step), lo << step
        # the secant through the ends picks the grid point t, the sign there
        # the subcell on the root's side, and the sign at its far end u
        # confirms it (the ends' values, rescaled to the finer grid, are known)
        t = min(max(1, (2 * n * flo + flo - fhi) // (2 * (flo - fhi))), n - 1)
        ft = _value_at(cs, base + t * span, grid)
        right = (ft > 0) == (flo > 0)
        u = t + 1 if right else t - 1
        if u in (0, n):
            fu = (fhi if right else flo) << step * deg
        else:
            fu = _value_at(cs, base + u * span, grid)
        if not (ft and fu):
            break
        if (fu > 0) != (ft > 0):
            lo = base + min(t, u) * span
            flo, fhi = (ft, fu) if right else (fu, ft)
            depth, m = depth + step, 2 * m
            continue
        # the guess missed: halve once and take smaller steps
        m = max(1, m // 2)
        mid = 2 * lo + span
        fm = _value_at(cs, mid, d << (depth + 1))
        if not fm:
            break
        if (fm > 0) == (flo > 0):
            lo, flo, fhi = mid, fm, fhi << deg
        else:
            lo, flo, fhi = 2 * lo, flo << deg, fm
        depth += 1
    return lo, depth, m, flo, fhi


def _narrow(
    cs, a, b, d, width: Fraction, strict=False, apart=()
) -> tuple[int, int, int]:
    """Bisect the isolating interval (a/d, b/d) of the square-free integer
    polynomial cs until it is narrower than `width` (no wider, if strict)
    and holds, ends included, none of the rationals (p, q) in `apart`.

    Bisection stops narrowing at the first depth k where b - a over
    d * 2**k is no longer wide, so `_qir` jumps there; the halvings that
    are left (separation from `apart`, or a grid point that is a root) run
    one at a time.
    """
    wn, wd = width.numerator, width.denominator

    def wide(a, b, d):
        return (b - a) * wd - strict >= wn * d or any(
            a * q <= p * d <= b * q for p, q in apart
        )

    lo, depth, _, flo, _ = _qir(cs, a, b, d, _depth(a, b, d, width, strict))
    a, b, d = lo, lo + b - a, d << depth
    while wide(a, b, d):
        a, m, b, d, s = _halve(cs, a, b, d)
        if (s > 0) != (flo > 0):
            b = m
        else:
            a = m
    return a, b, d


def sturm_isolate(p: Poly, target_width=DEFAULT_WIDTH, count=None) -> list[RealRoot]:
    """Isolate every distinct real root of p, sorted in increasing order.

    Rational roots come back exact; irrational ones as disjoint open
    intervals narrower than `target_width`.  Multiplicities are read off the
    square-free decomposition of p, which runs only when p has a repeated
    factor.  `count`, given only for a square-free p, is a root counter (see
    the module docstring) that stands in for the Sturm chain.
    """
    if p.is_zero():
        raise PreconditionError("root isolation of the zero polynomial")
    target_width = Fraction(target_width)
    if target_width <= 0:  # bisection would never stop
        raise PreconditionError("isolation width must be positive")
    if p.degree() == 0:
        return []
    cs = p.prim
    parts = [(cs, p.monic(), 1)]
    if count is None:
        # the Sturm chain of p ends in gcd(p, p') up to a constant: a
        # constant means p is square-free; otherwise Yun starts from it, and
        # the chain of p's square-free part is the one to count
        chain = _prs(cs, _derivative(cs))
        if len(chain[-1]) > 1:
            cs, factors = _yun(cs, chain[-1])
            parts = [(f, Poly._of(f, den=f[-1]), e) for f, e in factors]
            chain = _prs(cs, _derivative(cs))
        count = partial(_variations, chain)

    def factor_of_interval(a: int, b: int, d: int) -> tuple[Poly, int]:
        if len(parts) == 1:
            return parts[0][1:]
        for fz, f, e in parts:
            if (_sign_at(fz, a, d) > 0) != (_sign_at(fz, b, d) > 0):
                return f, e
        raise AssertionError("isolated root lost during decomposition")

    # one refinement per root: to cells narrower than 1/lc, where its one
    # rational candidate is tested
    lc = cs[-1]
    below_lc = Fraction(1, lc)
    exact, cells = [], []
    for a, b, d in _isolate(cs, count):
        k = _depth(a, b, d, below_lc)
        state = _qir(cs, a, b, d, k)
        lo, depth = state[:2]
        if depth == k:
            cell = lo, lo + b - a, d << depth
        else:  # a grid point is the root: bisection nudges past it
            cell = _narrow(cs, a, b, d, below_lc)
        m = -(-lc * cell[0] // cell[2])
        if m * cell[2] <= lc * cell[1] and _sign_at(cs, m, lc) == 0:
            exact.append(Fraction(m, lc))
        else:
            cells.append((a, b, d, state))

    roots = []
    if not exact:
        # no grid point is a root, so the target cell lies on the path this
        # refinement took: below its cell, or above it for a wider target
        for a, b, d, state in cells:
            span, k = b - a, _depth(a, b, d, target_width)
            lo, depth = state[:2]
            if k > depth:
                lo = _qir(cs, a, b, d, k, state)[0]
            else:
                lo = (a << k) + ((lo - (a << depth)) // span >> (depth - k)) * span
            hi, d = lo + span, d << k
            roots.append(RealRoot.isolated(Fraction(lo, d), Fraction(hi, d),
                                           *factor_of_interval(lo, hi, d)))
        return roots

    for r in exact:
        for fz, f, e in parts:
            if _sign_at(fz, r.numerator, r.denominator) == 0:
                roots.append(RealRoot.exact(r, f, e))
                break
        else:
            raise AssertionError("rational root lost during decomposition")
    # the printed intervals come from isolating what is left; each is
    # separated (ends included) from the exact roots, so the defining factor
    # is nonzero at both endpoints
    apart = [(r.numerator, r.denominator) for r in exact]
    deflated = cs
    for u, v in apart:
        deflated = _exact_quo(deflated, [-u, v])

    def count_left(n, d, sign=None):
        # cs is deflated times the factors v*x - u, so the sign of cs at a
        # midpoint is the deflated one's times theirs
        if sign is not None:
            for u, v in apart:
                sign *= (v * n > u * d) - (v * n < u * d)
        return count(n, d, sign) - sum(1 for u, v in apart if u * d > n * v)

    for a, b, d in _isolate(deflated, count_left) if len(deflated) > 1 else []:
        a, b, d = _narrow(deflated, a, b, d, target_width, apart=apart)
        roots.append(RealRoot.isolated(Fraction(a, d), Fraction(b, d),
                                       *factor_of_interval(a, b, d)))
    # disjoint, and clear of the exact roots: ordered by their left ends
    return sorted(roots, key=lambda r: r.lo)


def root_sign(root: RealRoot) -> int:
    """Sign of the real number a RealRoot describes (-1, 0, +1).

    For an isolating interval straddling zero, the defining polynomial's sign
    at 0 decides which side the root lies on (0 itself would have been
    reported exact)."""
    if root.is_exact:
        v = root.value.numerator
        return (v > 0) - (v < 0)
    if root.lo.numerator >= 0:
        return 1
    if root.hi.numerator <= 0:
        return -1
    cs = root.poly.prim
    at_zero = _sign_at(cs, 0, 1)
    at_lo = _sign_at(cs, root.lo.numerator, root.lo.denominator)
    if at_zero == 0:
        raise PreconditionError("rational root misrepresented as isolated")
    # same sign as at lo means the sign change (the root) is right of 0
    return 1 if at_zero == at_lo else -1


def refine_root(root: RealRoot, width) -> RealRoot:
    """Shrink an isolating interval below `width`, to the interval exact
    bisection reaches.

    Exact roots, and intervals already narrow enough, come back unchanged.
    """
    width = Fraction(width)
    if width <= 0:  # bisection would never stop
        raise PreconditionError("refinement width must be positive")
    if root.is_exact or root.width() <= width:
        return root
    d, (a, b) = _over_lcm((root.lo, root.hi))
    a, b, d = _narrow(root.poly.prim, a, b, d, width, strict=True)
    return replace(root, lo=Fraction(a, d), hi=Fraction(b, d))
