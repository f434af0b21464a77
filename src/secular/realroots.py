"""Exact real-root isolation for rational polynomials.

Roots are represented by `RealRoot`: either an exact rational value or an
open isolating interval (lo, hi) with rational endpoints across which the
square-free defining polynomial changes sign.  Multiplicities always refer to
the original (possibly non-square-free) polynomial.

Isolation uses Sturm's root-counting theorem.  The Sturm chain is built from
an integer model of the square-free part with primitive-part normalisation
after every pseudo-remainder, which keeps coefficient growth in check while
preserving the sign structure the theorem needs.  Rational roots are split
off first (divisor candidates of the integer model), so bisection endpoints
can never collide with the remaining irrational roots; a defensive nudge
handles the case anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import PreconditionError
from .polynomials import Poly, squarefree_decompose, _divisors

__all__ = [
    "RealRoot",
    "sturm_isolate",
    "refine_root",
    "sturm_chain",
    "count_roots",
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

    def contains(self, x: Fraction) -> bool:
        if self.is_exact:
            return x == self.value
        return self.lo < x < self.hi

    def same_root(self, other: "RealRoot") -> bool:
        """True iff both describe the same real number (disjoint-interval
        representations of distinct roots never overlap)."""
        if self.is_exact and other.is_exact:
            return self.value == other.value
        return not (self.hi <= other.lo or other.hi <= self.lo)

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


def _variations(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for q in chain:
        v = q.evaluate(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain: list[Poly], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in (a, b] for a square-free chain."""
    return _variations(chain, a) - _variations(chain, b)


def _cauchy_bound(p: Poly) -> Fraction:
    lead = abs(p.leading())
    return 1 + max((abs(c) for c in p.coeffs[:-1]), default=Fraction(0)) / lead


def _rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots of p (each reported once), via divisor candidates
    of an integer model."""
    _, pz = p.integer_primitive()
    roots = []
    k = 0
    while pz[k] == 0:
        k += 1
    if k:
        roots.append(Fraction(0))
        pz = Poly(pz.coeffs[k:])
    if pz.degree() >= 1:
        c0, cn = pz[0], pz.leading()
        seen = set()
        for num in _divisors(c0.numerator):
            for den in _divisors(cn.numerator):
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if cand not in seen:
                        seen.add(cand)
                        if pz.evaluate(cand) == 0:
                            roots.append(cand)
    return sorted(roots)


def _bisect_once(p: Poly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Halve an isolating interval of p, nudging if the midpoint is a root."""
    mid = (lo + hi) / 2
    v = p.evaluate(mid)
    while v == 0:
        # exactness makes a root hit detectable; halve toward the interior
        mid = (lo + mid) / 2
        v = p.evaluate(mid)
    if (p.evaluate(lo) > 0) != (v > 0):
        return lo, mid
    return mid, hi


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
    parts = squarefree_decompose(p)

    def factor_of_exact(r: Fraction) -> tuple[Poly, int]:
        for f, e in parts:
            if f.evaluate(r) == 0:
                return f, e
        raise AssertionError("rational root lost during decomposition")

    def factor_of_interval(lo: Fraction, hi: Fraction) -> tuple[Poly, int]:
        for f, e in parts:
            if (f.evaluate(lo) > 0) != (f.evaluate(hi) > 0):
                return f, e
        raise AssertionError("isolated root lost during decomposition")

    squarefree = Poly([1])
    for f, _ in parts:
        squarefree = squarefree * f

    exact_values = _rational_roots(squarefree)
    roots = [
        RealRoot.exact(r, *factor_of_exact(r)) for r in exact_values
    ]

    deflated = squarefree
    for r in exact_values:
        deflated = deflated // Poly([-r, 1])

    if deflated.degree() >= 1:
        chain = sturm_chain(deflated)
        work = deflated
        bound = _cauchy_bound(work)
        stack = [(-bound, bound)]
        intervals: list[tuple[Fraction, Fraction]] = []
        while stack:
            lo, hi = stack.pop()
            n = count_roots(chain, lo, hi)
            if n == 0:
                continue
            if n == 1:
                intervals.append((lo, hi))
                continue
            mid = (lo + hi) / 2
            while work.evaluate(mid) == 0:
                mid = (lo + mid) / 2
            stack.append((lo, mid))
            stack.append((mid, hi))
        for lo, hi in intervals:
            # narrow below the target width and separate the interval (ends
            # included) from every exact rational root, so the defining
            # factor is nonzero at both endpoints
            while hi - lo >= target_width or any(
                lo <= r <= hi for r in exact_values
            ):
                lo, hi = _bisect_once(work, lo, hi)
            f, e = factor_of_interval(lo, hi)
            roots.append(RealRoot.isolated(lo, hi, f, e))

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
    while hi - lo > width:
        lo, hi = _bisect_once(root.poly, lo, hi)
    return replace(root, lo=lo, hi=hi)
