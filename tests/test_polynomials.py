import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secular.errors import PreconditionError
from secular.polynomials import (
    ONE,
    Poly,
    X,
    kronecker_factor,
    poly_gcd,
    squarefree_decompose,
)
from secular.polynomials import _interpolate, _kronecker_split_squarefree

from oracles import (
    FractionPoly,
    divides_by_divmod,
    expand_factors,
    fraction_poly_gcd,
    fraction_squarefree_decompose,
    poly_from_roots,
    poly_gcd_by_euclid,
    squarefree_by_fractions,
    taylor_by_fractions,
)


def P(*coeffs):
    return Poly(coeffs)


small_fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)


def polys(max_degree=6, nonzero=False):
    base = st.lists(small_fractions, min_size=0, max_size=max_degree + 1).map(Poly)
    if nonzero:
        return base.filter(lambda p: not p.is_zero())
    return base


class TestConstruction:
    """Every coefficient reads back as a Fraction: ints and Fractions enter
    the integer form as they are, any other goes through Fraction(c), with
    its errors."""

    def test_accepted_inputs(self):
        half = Fraction(1, 2)
        p = Poly([3, "-2/4", half, 0.25, "0"])
        assert p.coeffs == (3, Fraction(-1, 2), half, Fraction(1, 4))
        assert all(type(c) is Fraction for c in p.coeffs)
        assert p.coeffs[2] == half and type(p.coeffs[2]) is Fraction
        assert Poly(p).coeffs == p.coeffs

    def test_fraction_subclass_is_rebuilt(self):
        class Tagged(Fraction):
            pass

        (c,) = Poly([Tagged(2, 3)]).coeffs
        assert type(c) is Fraction and c == Fraction(2, 3)

    @pytest.mark.parametrize("bad, error", [("x", ValueError), ("1/0", ZeroDivisionError),
                                            (None, TypeError), (float("nan"), ValueError),
                                            (float("inf"), OverflowError), (1j, TypeError)])
    def test_rejected_inputs_raise_as_fraction(self, bad, error):
        with pytest.raises(error):
            Fraction(bad)
        with pytest.raises(error):
            Poly([1, bad])


class TestArithmetic:
    def test_expand_product(self):
        assert poly_from_roots([1, 2]) == P(2, -3, 1)

    def test_divrem_exact_factor(self):
        quo, rem = divmod(P(2, -3, 1), P(-1, 1))
        assert quo == P(-2, 1)
        assert rem.is_zero()

    def test_divrem_cubic_from_3x3_example(self):
        # -x(3-x)(1-x) = -x^3 + 4x^2 - 3x divided by (x - 1)
        s = P(0, -3, 4, -1)
        quo, rem = divmod(s, P(-1, 1))
        assert rem.is_zero()
        # quotient is x(3 - x) up to sign convention
        assert quo.monic() == P(0, -3, 1).monic()
        assert quo == P(0, 3, -1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(P(1, 1), Poly())

    def test_evaluate_float_and_fraction(self):
        p = P(1, 0, 1)
        assert p.evaluate(Fraction(1, 2)) == Fraction(5, 4)
        assert p.evaluate(0.5) == pytest.approx(1.25)

    def test_to_string(self):
        assert P(0, -3, 4, -1).to_string() == "-x^3+4*x^2-3*x"
        assert Poly().to_string() == "0"
        assert P(Fraction(1, 2)).to_string() == "1/2"

    def test_iteration_ends(self, deadline):
        # indexing answers 0 past the end, so iteration must not rely on it
        deadline(1.0)
        p = P(1, 2, 0)
        assert list(p) == [1, 2] and list(Poly()) == []
        assert [c for c in P(0, -3, 4)] == [0, -3, 4]
        assert Poly(p) == p and p[5] == 0

    @given(polys(), polys(nonzero=True))
    @settings(max_examples=60)
    def test_divrem_recombines(self, p, q):
        quo, rem = divmod(p, q)
        assert quo * q + rem == p
        assert rem.degree() < q.degree()

    @given(polys(), polys())
    @example(Poly(), P(1, 2))
    @example(P(Fraction(-3, 2)), P(Fraction(2, 5)))
    @example(P(1, 1), P(0, 0, 3))
    @example(P(Fraction(1, 3), 0, 2), Poly())
    @settings(max_examples=80, deadline=None)
    def test_product_and_division_against_sympy(self, a, b):
        """Products and euclidean division on the primitive integer parts
        agree with sympy over QQ, zero and constants included."""
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")

        def to_sympy(p):
            return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                               for c in reversed(p.coeffs)] or [0], x, domain="QQ")

        assert to_sympy(a * b) == to_sympy(a) * to_sympy(b)
        if b.is_zero():
            return
        quo, rem = divmod(a, b)
        assert (to_sympy(quo), to_sympy(rem)) == sympy.div(to_sympy(a), to_sympy(b))
        assert a // b == quo and a % b == rem

    @given(polys(max_degree=4), polys(max_degree=4), polys(max_degree=3))
    @settings(max_examples=40)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


class TestTaylor:
    def test_cubic_about_one(self):
        # x^3 = (x-1)^3 + 3(x-1)^2 + 3(x-1) + 1
        assert P(0, 0, 0, 1).taylor(Fraction(1), 6) == [1, 3, 3, 1, 0, 0]

    def test_zero_polynomial_and_no_coefficients(self):
        assert Poly().taylor(Fraction(2), 3) == [0, 0, 0]
        assert P(1, 2).taylor(Fraction(2), 0) == []

    @given(polys(), small_fractions, st.integers(0, 9))
    @settings(max_examples=80)
    def test_coefficients_are_scaled_derivatives(self, p, a, count):
        # count runs past the degree (at most 6), where coefficients are 0
        expected, d = [], p
        for j in range(count):
            expected.append(d.evaluate(a) / math.factorial(j))
            d = d.derivative()
        assert p.taylor(a, count) == expected


# rational points: 0, negative and positive small ones, and denominators up
# to 10^15 so that the homogenizing powers q^(d-k) grow large
taylor_points = st.one_of(
    st.just(Fraction(0)),
    small_fractions,
    st.fractions(min_value=-3, max_value=3, max_denominator=10**15),
)


class TestTaylorAgainstFractionOracle:
    @given(polys(), taylor_points, st.integers(0, 9))
    @settings(max_examples=100)
    def test_matches_synthetic_division(self, p, a, count):
        # count runs past the degree (at most 6), and p may be zero
        got = p.taylor(a, count)
        assert got == taylor_by_fractions(p, a, count)
        assert all(type(c) is Fraction for c in got)

    @given(st.lists(st.fractions(min_value=-10**9, max_value=10**9,
                                 max_denominator=10**9), max_size=8).map(Poly),
           taylor_points, st.integers(0, 10))
    @settings(max_examples=50)
    def test_large_coefficients(self, p, a, count):
        assert p.taylor(a, count) == taylor_by_fractions(p, a, count)

    def test_zero_polynomial_beyond_any_degree(self):
        assert Poly().taylor(Fraction(-7, 3), 4) == taylor_by_fractions(
            Poly(), Fraction(-7, 3), 4) == [0, 0, 0, 0]


class TestDividesAgainstDivmodOracle:
    @given(polys(max_degree=3), polys(max_degree=3), polys(max_degree=2),
           st.fractions(min_value=-9, max_value=9, max_denominator=7))
    @settings(max_examples=100)
    def test_multiples_and_perturbed_multiples(self, g, q, r, c):
        # g scaled by c is non-monic and non-primitive; g * q is a multiple,
        # g * q + r usually is not; g or q may be zero
        g = g.scale(c)
        for e in (g * q, g * q + r, r):
            assert g.divides(e) == divides_by_divmod(g, e)

    @given(polys(max_degree=0), polys(max_degree=5))
    @settings(max_examples=60)
    def test_constant_divisors(self, g, e):
        # a nonzero constant divides everything, zero only zero
        assert g.divides(e) == divides_by_divmod(g, e)

    @pytest.mark.parametrize("g, e, expected", [
        (Poly(), Poly(), True),
        (Poly(), P(1), False),
        (P(1, 2), Poly(), True),
        (P(Fraction(2, 3), 2), P(1, 6, 9), True),  # (2/3)(1 + 3x) | (1 + 3x)^2
        (P(2, 4), P(1, 2), True),  # non-primitive divisor
        (P(1, 2), P(1, 0, 4), False),  # leading quotient 2 then a remainder
        (P(1, 2), P(1, 3), False),  # leading quotient 3/2, nothing below
        (P(0, 3), P(1, 3), False),  # constant remainder after an integer step
        (P(1, 1, 1), P(1, 1), False),  # dividend of lower degree
    ])
    def test_edge_cases(self, g, e, expected):
        assert g.divides(e) is expected
        assert divides_by_divmod(g, e) is expected


def lagrange(points, values) -> Poly:
    """The interpolating polynomial as a sum of Lagrange basis polynomials."""
    total = Poly()
    for i, (xi, yi) in enumerate(zip(points, values)):
        term = Poly([yi])
        for j, xj in enumerate(points):
            if j != i:
                term = term * Poly([Fraction(-xj, xi - xj), Fraction(1, xi - xj)])
        total = total + term
    return total


small_int_points = st.lists(st.integers(-8, 8), min_size=1, max_size=7, unique=True)


class TestInterpolate:
    def test_no_points_gives_zero(self):
        assert _interpolate([], []) == []

    @given(small_int_points.flatmap(lambda xs: st.tuples(
        st.just(xs),
        st.lists(st.integers(-20, 20), min_size=len(xs), max_size=len(xs)),
    )))
    @settings(max_examples=60)
    def test_degree_below_count_and_takes_values(self, data):
        # an integer polynomial of degree below the point count comes back
        # exactly, as ints
        points, coeffs = data
        values = [int(Poly(coeffs).evaluate(x)) for x in points]
        got = _interpolate(points, values)
        assert got == coeffs and all(type(c) is int for c in got)

    @given(small_int_points.flatmap(lambda xs: st.tuples(
        st.just(xs),
        st.lists(st.integers(-50, 50), min_size=len(xs), max_size=len(xs)),
    )))
    @settings(max_examples=80)
    def test_none_exactly_when_not_integral(self, data):
        points, values = data
        want = lagrange(points, values)
        got = _interpolate(points, values)
        if all(c.denominator == 1 for c in want.coeffs):
            assert Poly(got) == want
        else:
            assert got is None

    def test_half_integer_coefficient(self):
        assert _interpolate([0, 2], [0, 1]) is None  # x/2
        assert _interpolate([0, 1, 2], [0, 1, 4]) == [0, 0, 1]


class TestGcd:
    def test_common_factor(self):
        p = poly_from_roots([1, 1, 2])
        q = poly_from_roots([1, 3])
        assert poly_gcd(p, q) == P(-1, 1)

    def test_gcd_with_zero(self):
        p = P(0, -3, 4, -1)
        assert poly_gcd(p, Poly()) == p.monic()

    def test_gcd_both_zero_rejected(self):
        with pytest.raises(PreconditionError):
            poly_gcd(Poly(), Poly())

    @given(polys(max_degree=5), polys(max_degree=5))
    @settings(max_examples=60)
    def test_gcd_divides_both(self, p, q):
        if p.is_zero() and q.is_zero():
            return
        g = poly_gcd(p, q)
        assert g.divides(p) and g.divides(q)
        if not g.is_zero():
            assert g.leading() == 1


class TestSquarefree:
    def test_double_and_simple_root(self):
        parts = squarefree_decompose(poly_from_roots([2, 2, 3]))
        assert parts == [(P(-3, 1), 1), (P(-2, 1), 2)]

    def test_already_squarefree(self):
        assert squarefree_decompose(P(-5, 1)) == [(P(-5, 1), 1)]

    def test_cubed_irreducible(self):
        assert squarefree_decompose(P(1, 0, 1) ** 3) == [(P(1, 0, 1), 3)]

    def test_zero_rejected(self):
        with pytest.raises(PreconditionError):
            squarefree_decompose(Poly())

    @given(polys(max_degree=5, nonzero=True), st.integers(1, 2), st.integers(1, 2))
    @settings(max_examples=40)
    def test_expansion_reproduces_monic(self, p, e1, e2):
        if p.degree() < 1:
            return
        q = p**e1 * (p + ONE) ** e2
        parts = squarefree_decompose(q)
        assert expand_factors(parts) == q.monic()
        for f, _ in parts:
            assert poly_gcd(f, f.derivative()).degree() == 0


# numerators of 101 to 120 bits over denominators of up to 110
big_fractions = st.builds(
    lambda n, d, sign: Fraction(sign * n, d),
    st.integers(2**100, 2**120), st.integers(1, 2**110), st.sampled_from((1, -1)),
)


def repeated_factors(coefficients, max_degree=3):
    """A product f1**e1 * f2**e2 * f3 scaled by a fraction: repeated and
    shared factors, non-monic, fractional, sometimes constant or zero."""
    factor = st.lists(coefficients, max_size=max_degree + 1).map(Poly)
    return st.tuples(factor, factor, factor, st.integers(1, 3),
                     st.integers(1, 3), coefficients).map(
        lambda t: (t[0] ** t[3] * t[1] ** t[4] * t[2]).scale(t[5]))


class TestGcdAgainstEuclidOracle:
    @given(repeated_factors(small_fractions), repeated_factors(small_fractions),
           polys(max_degree=2))
    @settings(max_examples=100, deadline=None)
    def test_shared_and_repeated_factors(self, p, q, r):
        # r times both gives a common factor beyond the planted ones
        for a, b in ((p, q), (p * r, q * r), (q, p), (p, p.derivative())):
            if a.is_zero() and b.is_zero():
                continue
            assert poly_gcd(a, b) == poly_gcd_by_euclid(a, b)

    @given(repeated_factors(big_fractions, max_degree=2),
           repeated_factors(big_fractions, max_degree=2))
    @settings(max_examples=40, deadline=None)
    def test_coefficients_beyond_100_bits(self, p, q):
        if not (p.is_zero() and q.is_zero()):
            assert poly_gcd(p, q) == poly_gcd_by_euclid(p, q)

    @given(polys(max_degree=4, nonzero=True), polys(max_degree=0, nonzero=True))
    @settings(max_examples=40)
    def test_with_zero_and_constants(self, p, c):
        for a, b in ((p, Poly()), (Poly(), p), (p, c), (c, p), (c, c)):
            assert poly_gcd(a, b) == poly_gcd_by_euclid(a, b)

    def test_both_zero_rejected_alike(self):
        for gcd in (poly_gcd, poly_gcd_by_euclid):
            with pytest.raises(PreconditionError, match="gcd"):
                gcd(Poly(), Poly())


class TestSquarefreeAgainstFractionYun:
    @given(repeated_factors(small_fractions))
    @settings(max_examples=120, deadline=None)
    def test_repeated_non_monic_fractional(self, p):
        if not p.is_zero():
            assert squarefree_decompose(p) == squarefree_by_fractions(p)

    @given(repeated_factors(big_fractions, max_degree=2))
    @settings(max_examples=40, deadline=None)
    def test_coefficients_beyond_100_bits(self, p):
        if not p.is_zero():
            assert squarefree_decompose(p) == squarefree_by_fractions(p)

    @pytest.mark.parametrize("p", [
        P(7), P(Fraction(-2, 3)), P(0, 1), P(0, 0, 0, Fraction(5, 2)),
        P(-3, 1) ** 4 * P(1, 0, 1) ** 2 * P(2, -1, 3) * Fraction(-9, 4),
        P(2**100 + 1, 2**101) ** 3 * P(-(3**70), 0, 5**40),
    ])
    def test_constants_monomials_and_large(self, p, deadline):
        deadline(10)  # a wrongly scaled Yun step never ends
        assert squarefree_decompose(p) == squarefree_by_fractions(p)

    def test_zero_rejected_alike(self):
        for decompose in (squarefree_decompose, squarefree_by_fractions):
            with pytest.raises(PreconditionError, match="zero polynomial"):
                decompose(Poly())


class _Tagged(Fraction):
    pass


# every input form `Poly` takes: ints, Fractions (subclasses too), strings
# and floats, with trailing zeros; about half have a negative leading
# coefficient, so a negative content
raw_coefficients = st.one_of(
    st.integers(-50, 50),
    small_fractions,
    small_fractions.map(lambda f: f"{f.numerator}/{f.denominator}"),
    small_fractions.map(lambda f: _Tagged(f.numerator, f.denominator)),
    st.floats(-64, 64, allow_nan=False, width=16),
    big_fractions,
)
raw_polys = st.tuples(st.lists(raw_coefficients, max_size=6),
                      st.lists(st.sampled_from((0, "0", 0.0, Fraction(0))), max_size=2)
                      ).map(lambda t: t[0] + t[1])


def same(p: Poly, f: FractionPoly) -> None:
    """p and the Fraction-tuple oracle f read alike."""
    assert p.coeffs == f.coeffs and all(type(c) is Fraction for c in p.coeffs)
    assert p.to_string() == f.to_string() and repr(p) == "Poly(" + f.to_string() + ")"
    assert (p.degree(), p.leading(), p[0], p[p.degree() + 1]) == (
        f.degree(), f.leading(), f[0], f[f.degree() + 1])


class TestAgainstFractionPoly:
    """content * prim against the Fraction tuple it replaced
    (`oracles.FractionPoly`), on every public operation."""

    @given(raw_polys)
    @example([0, "0", 0.0])
    @example(["-1/2", 0, _Tagged(-3, 4), -0.0])
    @settings(max_examples=150)
    def test_form_and_reads(self, raw):
        p, f = Poly(raw), FractionPoly(raw)
        same(p, f)
        assert type(p.content) is Fraction and type(p.prim) is tuple
        if p.is_zero():
            assert (p.content, p.prim) == (0, ())
        else:
            assert p.prim[-1] > 0 and math.gcd(*p.prim) == 1 and p.content != 0
            assert p.coeffs == tuple(p.content * v for v in p.prim)
        assert Poly(p) == p and hash(Poly(p)) == hash(p) and list(p) == list(f)

    @given(raw_polys, raw_polys)
    @settings(max_examples=150)
    def test_equality_and_hash(self, a, b):
        p, q = Poly(a), Poly(b)
        assert (p == q) == (FractionPoly(a) == FractionPoly(b))
        # the same polynomial written differently
        r = Poly([str(Fraction(c)) for c in a] + ["0"])
        assert r == p and hash(r) == hash(p)
        assert p != tuple(p.coeffs) and p != FractionPoly(a)

    @given(raw_polys, raw_polys, st.integers(0, 3), small_fractions, st.integers(-5, 5))
    @settings(max_examples=150, deadline=None)
    def test_ring_operations(self, a, b, e, c, k):
        p, q, f, g = Poly(a), Poly(b), FractionPoly(a), FractionPoly(b)
        for got, want in ((p + q, f + g), (p - q, f - g), (-p, -f), (p * q, f * g),
                          (p ** e, f ** e), (p * c, f * c), (k * p, k * f),
                          (p.scale(c), f.scale(c))):
            same(got, want)

    @given(raw_polys, raw_polys)
    @settings(max_examples=150, deadline=None)
    def test_division(self, a, b):
        p, q, f, g = Poly(a), Poly(b), FractionPoly(a), FractionPoly(b)
        assert p.divides(q) == f.divides(g) and q.divides(p) == g.divides(f)
        assert (p * q).divides(q * q * p) and g.divides(f * g)
        if not q.is_zero():
            (quo, rem), (fq, fr) = divmod(p, q), divmod(f, g)
            same(quo, fq)
            same(rem, fr)
            same(p // q, f // g)
            same(p % q, f % g)

    @given(raw_polys, small_fractions, st.floats(-8, 8, allow_nan=False),
           st.integers(0, 8))
    @settings(max_examples=150, deadline=None)
    def test_calculus_and_evaluation(self, a, x, y, count):
        p, f = Poly(a), FractionPoly(a)
        same(p.derivative(), f.derivative())
        assert p.taylor(x, count) == f.taylor(x, count)
        assert p.evaluate(x) == f.evaluate(x)
        # Horner over the same Fraction coefficients: the same float bits
        assert repr(p.evaluate(y)) == repr(f.evaluate(y))

    @given(raw_polys)
    @settings(max_examples=150, deadline=None)
    def test_normal_forms(self, a):
        p, f = Poly(a), FractionPoly(a)
        same(p.monic(), f.monic())
        (c, prim), (fc, fprim) = p.integer_primitive(), f.integer_primitive()
        assert c == fc and type(c) is Fraction
        same(prim, fprim)
        assert prim.prim == p.prim and c == p.content

    @given(raw_polys, raw_polys, raw_polys)
    @settings(max_examples=100, deadline=None)
    def test_gcd_and_squarefree(self, a, b, c):
        p, q, r = Poly(a), Poly(b), Poly(c)
        f, g, h = FractionPoly(a), FractionPoly(b), FractionPoly(c)
        for (x, y), (fx, fy) in (((p * r, q * r), (f * h, g * h)), ((p, q), (f, g))):
            if not (x.is_zero() and y.is_zero()):
                same(poly_gcd(x, y), fraction_poly_gcd(fx, fy))
        x, fx = p * q * q * r, f * g * g * h
        if not x.is_zero():
            got, want = squarefree_decompose(x), fraction_squarefree_decompose(fx)
            assert [k for _, k in got] == [k for _, k in want]
            for (u, _), (v, _) in zip(got, want):
                same(u, v)


class TestKroneckerFactor:
    def test_quadratic_split(self):
        assert kronecker_factor(P(2, -3, 1)) == [
            (P(-2, 1), 1),
            (P(-1, 1), 1),
        ]

    def test_irreducible_quadratic(self):
        assert kronecker_factor(P(1, 0, 1)) == [(P(1, 0, 1), 1)]

    def test_multiplicity_pattern(self):
        # (x-1)^2 (x-2)^3 (x-3)
        p = poly_from_roots([1, 1, 2, 2, 2, 3])
        got = kronecker_factor(p)
        assert got == [(P(-3, 1), 1), (P(-2, 1), 3), (P(-1, 1), 2)]
        assert sorted(e for _, e in got) == [1, 2, 3]

    def test_degree_cap(self):
        with pytest.raises(PreconditionError):
            kronecker_factor(X**13)

    def test_non_monic_and_content(self):
        p = P(2, -3, 1).scale(Fraction(7, 3))
        assert kronecker_factor(p) == [(P(-2, 1), 1), (P(-1, 1), 1)]

    def test_irreducible_cubic(self):
        # x^3 - x - 1 has no rational roots, hence no degree<=1 factor
        assert kronecker_factor(P(-1, -1, 0, 1)) == [(P(-1, -1, 0, 1), 1)]

    @pytest.mark.parametrize("p, factors", [
        (P(2, 0, 3, 0, 1), [(P(1, 0, 1), 1), (P(2, 0, 1), 1)]),
        (P(4, 0, 0, 0, 1), [(P(2, -2, 1), 1), (P(2, 2, 1), 1)]),
        (P(1, 0, -10, 0, 1), [(P(1, 0, -10, 0, 1), 1)]),
        (P(-2, 0, 0, 1) * P(1, 1, 0, 1), [(P(-2, 0, 0, 1), 1), (P(1, 1, 0, 1), 1)]),
        (P(-1, 2) * P(1, 0, 1) * P(3, 0, 1),
         [(P(Fraction(-1, 2), 1), 1), (P(1, 0, 1), 1), (P(3, 0, 1), 1)]),
        (P(1, 0, 1) ** 2 * P(-2, 0, 1), [(P(-2, 0, 1), 1), (P(1, 0, 1), 2)]),
    ])
    def test_search_above_degree_three(self, p, factors, deadline):
        # square-free parts of degree 4 and more without a rational root:
        # Kronecker's divisor search proper, with its quadratic factors
        # x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2) and x^4 - 10x^2 + 1, the
        # minimal polynomial of sqrt(2) + sqrt(3), irreducible
        deadline(1.0)
        assert kronecker_factor(p) == factors

    def test_products_of_quadratics_and_cubics_against_sympy(self, deadline):
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        deadline(20.0)
        rng = random.Random(1858)
        for _ in range(60):
            degrees = rng.choice([(2, 2), (2, 3), (3, 3), (2, 2, 2)])
            p = ONE
            for d in degrees:
                lead = rng.choice([-3, -2, -1, 1, 2, 3])
                p = p * Poly([rng.randint(-3, 3) for _ in range(d)] + [lead])
            expr = sum(sympy.Integer(int(c)) * x**k for k, c in enumerate(p.coeffs))
            want = sorted(
                ((Poly(reversed(sympy.Poly(f, x).monic().all_coeffs())), e)
                 for f, e in sympy.factor_list(expr)[1]),
                key=lambda fe: (fe[0].degree(), fe[0].coeffs),
            )
            assert kronecker_factor(p) == want, p

    @given(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=3),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_reconstruction_and_irreducibility(self, roots):
        p = poly_from_roots(roots)
        factors = kronecker_factor(p)
        assert expand_factors(factors) == p.monic()
        for f, _ in factors:
            assert _kronecker_split_squarefree(f) == [f]
