"""Exact real-root isolation for rational polynomials.

Roots are represented by `RealRoot`: either an exact rational value or an
open isolating interval (lo, hi) with rational endpoints across which the
square-free defining polynomial changes sign.  Multiplicities always refer to
the original (possibly non-square-free) polynomial.

Isolation uses Sturm's root-counting theorem.  The Sturm chain is built from
an integer model of the square-free part with primitive-part normalisation
after every pseudo-remainder, which keeps coefficient growth in check while
preserving the sign structure the theorem needs.  Every sign is taken in
integers: the sign of p at n/d is that of d**deg * p(n/d), which homogeneous
Horner computes without fractions.  Bisection keeps both endpoints as
unreduced numerators over one denominator that doubles at each halving, so
the endpoints are exactly those of Fraction bisection.

Rational roots are split off first.  A rational root p/q of the integer model
has q dividing its leading coefficient lc, and such rationals lie at least
1/lc**2 apart, so once an isolating interval is narrower than 1/(2 lc**2) the
one candidate `limit_denominator(lc)` of its midpoint decides whether its
root is rational.  If any are, the irrational roots are isolated afresh
from the deflated polynomial, so bisection endpoints can never collide with
them; a defensive nudge handles the case anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from .errors import PreconditionError
from .polynomials import Poly, squarefree_decompose

__all__ = [
    "RealRoot",
    "sturm_isolate",
    "refine_root",
    "sturm_chain",
    "root_sign",
]


@dataclass(frozen=True)
class RealRoot:
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

    def approx(self) -> Fraction:
        """Rational representative: the value itself, or the midpoint."""
        return self.value if self.is_exact else (self.lo + self.hi) / 2

    def as_float(self) -> float:
        return float(self.approx())

    def __repr__(self) -> str:
        if self.is_exact:
            return f"RealRoot({self.value!s}, mult={self.multiplicity})"
        return (
            f"RealRoot(({float(self.lo):.12g}, {float(self.hi):.12g}),"
            f" mult={self.multiplicity})"
        )


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm chain of a square-free polynomial, integer coefficients.

    Successive elements are the negated pseudo-remainders reduced to their
    primitive parts; scaling factors are kept positive so sign variations are
    those of the classical chain.
    """
    _, p0 = p.integer_primitive()
    chain = [p0]
    if p0.degree() >= 1:
        _, p1 = p0.derivative().integer_primitive()
        chain.append(p1)
        while chain[-1].degree() >= 1:
            a, b = chain[-2], chain[-1]
            e = a.degree() - b.degree() + 1
            scale = b.leading() ** e
            rem = (a * scale) % b
            if rem.is_zero():
                break
            neg = -rem if scale > 0 else rem
            _, prim = neg.integer_primitive()
            # integer_primitive forces a positive leading coefficient; restore
            # the sign the chain requires
            if prim.leading() * neg.leading() < 0:
                prim = -prim
            chain.append(prim)
    return chain


def _ints(q: Poly) -> tuple[int, ...]:
    """Coefficients of an integer polynomial as ints, lowest degree first."""
    return tuple(c.numerator for c in q.coeffs)


def _int_model(p: Poly) -> tuple[int, ...]:
    """The primitive integer multiple of p with positive leading coefficient."""
    return _ints(p.integer_primitive()[1])


def _sign_at(cs: tuple[int, ...], n: int, d: int) -> int:
    """Sign of the integer polynomial cs at n/d (d > 0).

    Homogeneous Horner computes d**deg * cs(n/d), which has the same sign,
    in integers alone."""
    acc, dk = 0, 1
    for c in reversed(cs):
        acc = acc * n + c * dk
        dk *= d
    return (acc > 0) - (acc < 0)


def _variations(chain: list[tuple[int, ...]], n: int, d: int) -> int:
    signs = [s for s in (_sign_at(q, n, d) for q in chain) if s]
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


def _isolate(chain: list[tuple[int, ...]]) -> list[tuple[int, int, int]]:
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


def _narrow(cs, a, b, d, wide) -> tuple[int, int, int]:
    """Bisect the isolating interval (a/d, b/d) of the square-free integer
    polynomial cs while wide(a, b, d) holds."""
    lo_positive = _sign_at(cs, a, d) > 0
    while wide(a, b, d):
        a, m, b, d, s = _halve(cs, a, b, d)
        if (s > 0) != lo_positive:
            b = m
        else:
            a = m
    return a, b, d


def _rational_roots(cs, intervals) -> list[Fraction]:
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
        a, b, d = _narrow(cs, a, b, d, lambda a, b, d: 2 * lc * lc * (b - a) >= d)
        cand = Fraction(a + b, 2 * d).limit_denominator(lc)
        p, q = cand.numerator, cand.denominator
        if a * q <= p * d <= b * q and _sign_at(cs, p, q) == 0:
            roots.append(cand)
    return roots


def sturm_isolate(p: Poly, target_width=Fraction(1, 10**30)) -> list[RealRoot]:
    """Isolate every distinct real root of p, sorted in increasing order.

    Rational roots come back exact; irrational ones as disjoint open
    intervals narrower than `target_width`.  Multiplicities are read off the
    square-free decomposition of p.
    """
    if p.is_zero():
        raise PreconditionError("root isolation of the zero polynomial")
    target_width = Fraction(target_width)
    if target_width <= 0:  # bisection would never stop
        raise PreconditionError("isolation width must be positive")
    if p.degree() == 0:
        return []
    parts = [(_int_model(f), f, e) for f, e in squarefree_decompose(p)]

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

    squarefree = Poly([1])
    for _, f, _ in parts:
        squarefree = squarefree * f

    chain = [_ints(q) for q in sturm_chain(squarefree)]
    intervals = _isolate(chain)
    exact_values = _rational_roots(chain[0], intervals)
    roots = [
        RealRoot.exact(r, *factor_of_exact(r)) for r in exact_values
    ]

    if exact_values:
        # the printed intervals come from isolating what is left
        deflated = squarefree
        for r in exact_values:
            deflated = deflated // Poly([-r, 1])
        chain = [_ints(q) for q in sturm_chain(deflated)]
        intervals = _isolate(chain) if deflated.degree() >= 1 else []
    exact = [(r.numerator, r.denominator) for r in exact_values]
    tn, td = target_width.numerator, target_width.denominator

    def wide(a: int, b: int, d: int) -> bool:
        # narrow below the target width and separate the interval (ends
        # included) from every exact rational root, so the defining factor
        # is nonzero at both endpoints
        return (b - a) * td >= tn * d or any(
            a * den <= num * d <= b * den for num, den in exact
        )

    for a, b, d in intervals:
        a, b, d = _narrow(chain[0], a, b, d, wide)
        f, e = factor_of_interval(a, b, d)
        roots.append(RealRoot.isolated(Fraction(a, d), Fraction(b, d), f, e))

    return sorted(roots, key=lambda r: r.approx())


def root_sign(root: RealRoot) -> int:
    """Sign of the real number a RealRoot describes (-1, 0, +1).

    For an isolating interval straddling zero, the defining polynomial's sign
    at 0 decides which side the root lies on (0 itself would have been
    reported exact)."""
    if root.is_exact:
        return 0 if root.value == 0 else (1 if root.value > 0 else -1)
    if root.lo >= 0:
        return 1
    if root.hi <= 0:
        return -1
    at_zero = root.poly.evaluate(Fraction(0))
    at_lo = root.poly.evaluate(root.lo)
    if at_zero == 0:
        raise PreconditionError("rational root misrepresented as isolated")
    # same sign as at lo means the sign change (the root) is right of 0
    return 1 if (at_zero > 0) == (at_lo > 0) else -1


def refine_root(root: RealRoot, width) -> RealRoot:
    """Shrink an isolating interval below `width` by exact bisection.

    Exact roots, and intervals already narrow enough, come back unchanged.
    """
    width = Fraction(width)
    if width <= 0:  # bisection would never stop
        raise PreconditionError("refinement width must be positive")
    if root.is_exact or root.width() <= width:
        return root
    lo, hi = root.lo, root.hi
    d = lcm(lo.denominator, hi.denominator)
    a, b, d = _narrow(
        _int_model(root.poly),
        lo.numerator * (d // lo.denominator),
        hi.numerator * (d // hi.denominator),
        d,
        lambda a, b, d: (b - a) * width.denominator > width.numerator * d,
    )
    return replace(root, lo=Fraction(a, d), hi=Fraction(b, d))
