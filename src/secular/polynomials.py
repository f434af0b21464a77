"""Exact dense univariate polynomials over the rationals.

A polynomial is a tuple of `fractions.Fraction` coefficients stored lowest
degree first; the zero polynomial is the empty tuple.  All arithmetic is
exact, which makes divisibility tests and polynomial identities fully
reliable -- the substrate every other module builds on.

Rationals enter the private integer section (int lists, lowest degree
first, the zero polynomial empty) through `_over_lcm`, as integers over the
lcm of their denominators, in this module and the others.  `Poly` products
and euclidean division run there on the primitive parts.

Beyond ring arithmetic the module provides:

* monic GCD and Yun square-free decomposition, both over Z in the integer
  section: one primitive part, one pseudo-division returning quotient and
  remainder, one Sturm-signed primitive pseudo-remainder sequence on it
  (Collins 1967, Brown 1971), which is also the Sturm chain of `realroots`,
  and one exact division by a primitive divisor (Gauss's lemma), shared by
  `divides`, Yun (1976) and rational-root deflation; whether a power of a
  factor divides a pencil's adjugate is read off a kernel instead
  (`secular.invariants`),
* Taylor coefficients at a rational point p/q by integer homogeneous
  Horner (`_taylor`), which `Poly.taylor` wraps and which
  `matrices.Pencil._adjugate_taylor` runs on a pencil's integer adjugate;
  the Smith form of `invariants` runs on the same pseudo-division and
  integer products,
* factorisation into irreducibles over Q: linear factors from the exact
  roots of the root engine, the rest by Kronecker's evaluation/interpolation
  scheme (guarded by a degree cap, since the divisor-combination search is
  combinatorial).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd as int_gcd
from math import lcm as int_lcm
from typing import Iterable, Sequence

from .errors import PreconditionError

__all__ = [
    "Poly",
    "ZERO",
    "ONE",
    "X",
    "poly_gcd",
    "squarefree_decompose",
    "kronecker_factor",
    "KRONECKER_DEGREE_CAP",
]

# Evaluation/interpolation factoring is combinatorial in the degree; keep it
# at desk scale.
KRONECKER_DEGREE_CAP = 12


class Poly:
    """Dense univariate polynomial with Fraction coefficients.

    Immutable; trailing zero coefficients are trimmed on construction, so the
    leading coefficient is nonzero unless the polynomial is zero (empty).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int | str] = ()):
        # a coefficient that is a Fraction already is kept, not rebuilt
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- basic queries -----------------------------------------------------

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
        # without it, iteration would call __getitem__, which never runs out
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring arithmetic ----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not self.coeffs or not other.coeffs:
            return ZERO
        (ca, a), (cb, b) = _primitive_ints(self), _primitive_ints(other)
        c = ca * cb
        return Poly([c * v for v in _mul(a, b)])

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly([c * a for a in self.coeffs])

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        out, base = ONE, self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact euclidean division; deg(remainder) < deg(divisor)."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.degree() < other.degree():
            return ZERO, self
        (ca, a), (cb, b) = _primitive_ints(self), _primitive_ints(other)
        quo, rem = _pdivmod(a, b)  # lc(b)**e * a = quo * b + rem
        cr = ca / b[-1] ** (len(a) - len(b) + 1)
        cq = cr / cb
        return Poly([cq * v for v in quo]), Poly([cr * v for v in rem])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        """True iff self divides other exactly (zero divides only zero),
        by the exact division of the primitive integer parts."""
        if self.is_zero():
            return other.is_zero()
        return _exact_quo(_primitive_ints(other)[1], _primitive_ints(self)[1]) is not None

    # -- calculus / evaluation ----------------------------------------------

    def evaluate(self, x):
        """Horner evaluation; works for Fraction, float and complex x."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def taylor(self, a, count: int) -> list:
        """The first `count` coefficients of self in powers of (x - a), for
        rational a = p/q; the k-th is the k-th derivative at a over k!.

        With self = content * P, P primitive of degree d, the k-th is
        content * T_k / q^(d-k) for the integers T_k of `_taylor`.
        """
        a = Fraction(a)
        q = a.denominator
        content, cs = _primitive_ints(self)
        d = len(cs) - 1
        num, den = content.numerator, content.denominator
        out = [Fraction(num * t, den * q ** (d - k))
               for k, t in enumerate(_taylor(cs, a.numerator, q, count))]
        return out + [Fraction(0)] * (count - len(out))

    # -- normal forms ---------------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    def integer_primitive(self) -> tuple[Fraction, "Poly"]:
        """Write self = content * primitive with integer primitive part.

        The primitive part has coprime integer coefficients and positive
        leading coefficient; content carries the sign.
        """
        content, ints = _primitive_ints(self)
        return content, Poly(ints)

    # -- presentation ---------------------------------------------------------

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
        return f"Poly({self.to_string()})"


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


ZERO = Poly()
ONE = Poly([1])
X = Poly([0, 1])


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor over Q: the last element of the
    primitive pseudo-remainder sequence of the primitive integer parts.

    gcd(p, 0) is monic(p); gcd(0, 0) is rejected.
    """
    if p.is_zero() and q.is_zero():
        raise PreconditionError("gcd(0, 0) is undefined")
    return Poly(_prs(_primitive_ints(p)[1], _primitive_ints(q)[1])[-1]).monic()


def squarefree_decompose(p: Poly) -> list[tuple[Poly, int]]:
    """Yun decomposition: monic(p) = product of factor**exponent with the
    factors monic, square-free and pairwise coprime.

    Factors are returned in increasing exponent order; exponent-k factors of
    degree zero are omitted.
    """
    if p.is_zero():
        raise PreconditionError("square-free decomposition of the zero polynomial")
    _, cs = _primitive_ints(p)
    _, factors = _yun(cs, _prs(cs, _derivative(cs))[-1])
    return [(Poly(f).monic(), k) for f, k in factors]


# -- integer polynomials: int lists, lowest degree first, zero empty ----------


def _primitive_ints(p: Poly) -> tuple[Fraction, list[int]]:
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


def _over_lcm(values) -> tuple[int, list[int]]:
    """(L, ints) with values = ints / L for rational or integer values: L is
    the lcm of their denominators, 1 when there are none."""
    L = int_lcm(*[v.denominator for v in values])
    return L, [v.numerator * (L // v.denominator) for v in values]


def _primitive(cs) -> list[int]:
    """The nonzero cs divided by the gcd of its coefficients, signs kept."""
    g = int_gcd(*cs)
    return [c // g for c in cs]


def _derivative(cs) -> list[int]:
    return [i * c for i, c in enumerate(cs)][1:]


def _pdivmod(a, b) -> tuple[list[int], list[int]]:
    """Pseudo-division: (quo, rem) with lc(b)**e * a = quo * b + rem and
    e = max(deg a - deg b + 1, 0), trailing zeros of rem stripped; quo is
    empty and rem is a when deg a < deg b."""
    r, lc, db = list(a), b[-1], len(b) - 1
    qs = []
    for top in range(len(a) - 1, db - 1, -1):
        q = r[top]
        qs.append(q)
        # lc * r - q x**(top - db) b: the top term cancels
        r = [c * lc for c in r[:top]]
        for j in range(db):
            r[top - db + j] -= q * b[j]
    while r and r[-1] == 0:
        r.pop()
    # each later step scales the quotient found so far by lc
    return [q * lc**k for k, q in enumerate(reversed(qs))], r


def _prs(a, b) -> list[list[int]]:
    """a, b, then the primitive parts of negated pseudo-remainders with the
    signs of Euclid's remainders, up to a constant or a zero remainder (b may
    be zero; for deg a < deg b the first remainder is a).  The last element
    is gcd(a, b) up to a constant; for b = a' this is the Sturm chain of a."""
    chain, r = [a], b
    while r:
        chain.append(_primitive(r))
        if len(chain[-1]) == 1:
            break
        a, b = chain[-2:]
        r = _pdivmod(a, b)[1]
        # the scale lc(b)**e of the pseudo-remainder is negative when lc(b)
        # is and e = deg a - deg b + 1 is odd
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            r = [-c for c in r]
    return chain


def _mul(a, b) -> list[int]:
    """The product a * b; empty when either is."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _sub(a, b) -> list[int]:
    """The difference a - b, trailing zeros stripped."""
    out = [x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _taylor(cs, p: int, q: int, count: int) -> list[int]:
    """T_0 .. T_(m-1), m = min(count, d + 1), for the integer coefficients
    cs of nominal degree d = len(cs) - 1 (a zero leading coefficient is
    allowed): the Taylor coefficients at the integer y = p of the integer
    polynomial q^d cs(y/q), so that the k-th coefficient of cs in powers of
    (x - p/q) is T_k / q^(d-k).  Each T_k is the remainder of one synthetic
    division by (y - p) taken in place on the quotient of the previous one
    (iterated homogeneous Horner); T_0 is q^d cs(p/q)."""
    d = len(cs) - 1
    cs = list(cs)
    qk = 1
    for i in range(d - 1, -1, -1):
        qk *= q
        cs[i] *= qk
    out = []
    for k in range(min(count, d + 1)):
        acc = 0
        for i in range(d, k - 1, -1):
            acc = cs[i] = acc * p + cs[i]
        out.append(acc)
    return out


def _exact_quo(a, b) -> list[int] | None:
    """a / b for a primitive b, or None when b does not divide a: by Gauss's
    lemma such a b divides a over Q only if it does over Z, so the division
    stops at the first leading quotient that is not an integer."""
    rem, db, lc = list(a), len(b) - 1, b[-1]
    quo = [0] * max(0, len(a) - db)
    for k in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[k + db], lc)
        if r:
            return None
        quo[k] = c
        if c:
            for j, v in enumerate(b):
                rem[k + j] -= c * v
    return None if any(rem[:db]) else quo


def _yun(cs, g) -> tuple[list[int], list[tuple[list[int], int]]]:
    """Yun's algorithm over Z for the primitive cs (positive leading
    coefficient) from g = gcd(cs, cs') up to a constant: the square-free
    part w = cs / g and the primitive f_k, up to sign, of cs = f_1 f_2**2
    ..., by increasing k, constant f_k left out.  From b = w, c = cs' / g,
    step k takes f_k = gcd(b, c - b') and divides b and c - b' by it for the
    next b and c; every divisor is primitive, so every division is exact."""
    if g[-1] < 0:
        g = [-c for c in g]
    w = b = _exact_quo(cs, g)
    c = _exact_quo(_derivative(cs), g)
    factors, k = [], 1
    while len(b) > 1:
        # c and b' both have degree deg b - 1
        d = [u - v for u, v in zip(c, _derivative(b))]
        while d and d[-1] == 0:
            d.pop()
        f = _prs(b, d)[-1]
        if len(f) > 1:
            factors.append((f, k))
        b, c, k = _exact_quo(b, f), _exact_quo(d, f), k + 1
    return w, factors


def _divisors(n: int) -> list[int]:
    """Positive divisors of |n|, n nonzero."""
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _interp_points(count: int) -> list[int]:
    """0, 1, -1, 2, -2, ... (count of them)."""
    pts = [0]
    k = 1
    while len(pts) < count:
        pts.append(k)
        if len(pts) < count:
            pts.append(-k)
        k += 1
    return pts


def _interpolate(points: Sequence[int], values: Sequence[int]) -> list[int] | None:
    """Integer coefficients, lowest first, of the polynomial of degree below
    len(points) taking values[i] at the distinct integers points[i], or None
    when it has others: at integer points, its Newton divided differences are
    all integers exactly when it is.  The Newton form c0 + (x - x0)(c1 + ...)
    is expanded by Horner's scheme."""
    xs, cs = list(points), list(values)
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            cs[i], r = divmod(cs[i] - cs[i - 1], xs[i] - xs[i - j])
            if r:
                return None
    acc: list[int] = []
    for x, c in zip(reversed(xs), reversed(cs)):
        nxt = [0] + acc  # acc * (X - x) + c
        for k, a in enumerate(acc):
            nxt[k] -= x * a
        nxt[0] += c
        acc = nxt
    return acc


def _kronecker_split_squarefree(f: Poly) -> list[Poly]:
    """Irreducible monic factors of a square-free polynomial: one linear
    factor per exact root from the root engine, then `_kronecker_search` on
    what is left."""
    from .realroots import sturm_isolate  # realroots builds on this module

    # any width will do: only the exact roots are read
    exact = [r.value for r in sturm_isolate(f, 1) if r.is_exact]
    _, rest = _primitive_ints(f)
    for r in exact:
        rest = _exact_quo(rest, [-r.numerator, r.denominator])
    linear = [Poly([-r, 1]) for r in exact]
    return linear + (_kronecker_search(Poly(rest)) if len(rest) > 1 else [])


def _kronecker_search(f: Poly) -> list[Poly]:
    """Irreducible monic factors of a square-free polynomial with no rational
    root.

    Such a polynomial has no factor of degree 1, so below degree 4 it is
    irreducible.  Above, the search tries divisors d = 2 .. deg/2 by
    evaluating an integer model of f at small integer points (none of them a
    root), enumerating divisor tuples of the values and interpolating trial
    factors.  A polynomial surviving the whole search is irreducible over Q.
    """
    if f.degree() <= 3:
        return [f.monic()]
    _, fz = f.integer_primitive()
    n = fz.degree()
    for d in range(2, n // 2 + 1):
        points = _interp_points(d + 1)
        values = [int(fz.evaluate(x)) for x in points]
        divisor_sets = []
        for i, v in enumerate(values):
            ds = _divisors(v)
            if i == 0:
                # q and -q divide together; fixing q(x0) > 0 keeps one of them
                divisor_sets.append(ds)
            else:
                divisor_sets.append([s * x for x in ds for s in (1, -1)])
        for combo in itertools.product(*divisor_sets):
            coeffs = _interpolate(points, combo)
            if coeffs is None:
                continue
            cand = Poly(coeffs)
            if cand.degree() < 2 or cand.degree() > d:
                continue
            quo, rem = divmod(fz, cand)
            if rem.is_zero():
                return _kronecker_search(cand.monic()) + _kronecker_search(quo.monic())
    return [f.monic()]


def _poly_sort_key(p: Poly):
    return (p.degree(), p.coeffs)


def kronecker_factor(p: Poly) -> list[tuple[Poly, int]]:
    """Complete factorisation of p into monic irreducibles over Q.

    Returns (irreducible, exponent) pairs whose product is monic(p); the pairs
    are sorted by (degree, coefficients).  Degrees above
    `KRONECKER_DEGREE_CAP` are rejected up front as a cost guard.
    """
    if p.is_zero():
        raise PreconditionError("factorisation of the zero polynomial")
    if p.degree() > KRONECKER_DEGREE_CAP:
        raise PreconditionError(
            f"degree {p.degree()} exceeds factorisation cap {KRONECKER_DEGREE_CAP}"
        )
    out: list[tuple[Poly, int]] = []
    for part, exp in squarefree_decompose(p):
        for irr in _kronecker_split_squarefree(part):
            out.append((irr, exp))
    return sorted(out, key=lambda fe: _poly_sort_key(fe[0]))
