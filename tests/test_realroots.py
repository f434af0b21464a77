import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secular.errors import PreconditionError
from secular.polynomials import Poly
from secular.realroots import RealRoot, refine_root, root_sign, sturm_isolate

from oracles import bisect_bracket


def P(*coeffs):
    return Poly(coeffs)


class TestIsolation:
    def test_cubic_with_three_integer_roots(self):
        # -x(3-x)(1-x)
        roots = sturm_isolate(P(0, -3, 4, -1))
        assert [(r.value, r.multiplicity) for r in roots] == [
            (0, 1),
            (1, 1),
            (3, 1),
        ]
        assert all(r.is_exact for r in roots)

    def test_multiplicities(self):
        roots = sturm_isolate(Poly.from_roots([2, 2, 3]))
        assert [(r.value, r.multiplicity) for r in roots] == [(2, 2), (3, 1)]

    def test_sqrt2_brackets(self):
        width = Fraction(1, 2**40)
        roots = sturm_isolate(P(-2, 0, 1), width)
        assert len(roots) == 2
        assert all(not r.is_exact for r in roots)
        assert all(r.width() < width for r in roots)
        lo, hi = bisect_bracket(P(-2, 0, 1), Fraction(1), Fraction(2), width)
        pos = roots[1]
        assert pos.lo <= hi and lo <= pos.hi  # brackets overlap on sqrt(2)
        assert abs(pos.as_float() - math.sqrt(2)) < 1e-11

    def test_sign_change_invariant(self):
        for root in sturm_isolate(P(-2, 0, 1) * Poly.from_roots([5])):
            if not root.is_exact:
                a = root.poly.evaluate(root.lo)
                b = root.poly.evaluate(root.hi)
                assert a != 0 and b != 0 and (a > 0) != (b > 0)

    def test_rational_roots_exact(self):
        roots = sturm_isolate(Poly.from_roots([Fraction(1, 3), Fraction(-7, 2)]))
        assert [r.value for r in roots] == [Fraction(-7, 2), Fraction(1, 3)]

    def test_no_real_roots(self):
        assert sturm_isolate(P(1, 0, 1)) == []

    def test_zero_poly_rejected(self):
        with pytest.raises(PreconditionError):
            sturm_isolate(Poly())

    def test_mixed_rational_and_irrational(self):
        p = P(-2, 0, 1) * Poly.from_roots([Fraction(1, 2)])
        roots = sturm_isolate(p)
        kinds = [r.kind for r in roots]
        assert kinds == ["isolated", "exact", "isolated"]
        assert roots[1].value == Fraction(1, 2)
        # intervals keep away from the exact root
        assert roots[0].hi < Fraction(1, 2) < roots[2].lo

    @given(
        st.lists(
            st.fractions(min_value=-8, max_value=8, max_denominator=4),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_planted_rational_roots_recovered(self, values):
        p = Poly.from_roots(values)
        roots = sturm_isolate(p)
        expected = {}
        for v in values:
            expected[v] = expected.get(v, 0) + 1
        assert {r.value: r.multiplicity for r in roots} == expected

    @given(
        st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=3),
            min_size=0,
            max_size=3,
        ),
        st.integers(min_value=2, max_value=7).filter(
            lambda n: int(math.isqrt(n)) ** 2 != n
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_total_multiplicity(self, values, square):
        p = Poly.from_roots(values) * P(-square, 0, 1)
        roots = sturm_isolate(p)
        assert sum(r.multiplicity for r in roots) == len(values) + 2
        for a, b in zip(roots, roots[1:]):
            assert a.hi <= b.lo or (a.is_exact and b.is_exact)


class TestAgainstNumericOracle:
    @given(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=7)
    )
    @settings(max_examples=60, deadline=None)
    def test_real_root_count_matches_numpy(self, coeffs):
        # square-free instances only: numpy smears multiple roots into
        # spurious complex clusters
        import numpy as np

        from secular.polynomials import poly_gcd

        p = Poly(coeffs)
        if p.degree() < 1 or poly_gcd(p, p.derivative()).degree() > 0:
            return
        roots = sturm_isolate(p)
        numeric = np.roots([float(c) for c in reversed(p.coeffs)])
        numeric_real = sorted(
            float(z.real) for z in numeric if abs(z.imag) < 1e-7
        )
        assert len(roots) == len(numeric_real)
        for r, z in zip(roots, numeric_real):
            assert abs(r.as_float() - z) < 1e-6 * max(1.0, abs(z))


class TestRefine:
    def test_sqrt2_to_picowidth(self):
        root = sturm_isolate(P(-2, 0, 1))[1]
        fine = refine_root(root, Fraction(1, 10**12))
        assert fine.width() <= Fraction(1, 10**12)
        assert abs(float(fine.approx()) - math.sqrt(2)) < 5e-13

    def test_exact_unchanged(self):
        root = RealRoot.exact(Fraction(5), P(-5, 1))
        assert refine_root(root, Fraction(1, 100)) is root

    def test_coarser_width_unchanged(self):
        root = sturm_isolate(P(-2, 0, 1), Fraction(1, 1000))[1]
        assert refine_root(root, Fraction(1)) == root

    @pytest.mark.parametrize("width", [0, -1, Fraction(-1, 3)])
    def test_non_positive_width_rejected(self, width, one_second):
        # bisection towards a width <= 0 never stops
        with pytest.raises(PreconditionError, match="positive"):
            sturm_isolate(P(-2, 0, 1), width)
        root = sturm_isolate(P(-2, 0, 1))[1]
        with pytest.raises(PreconditionError, match="positive"):
            refine_root(root, width)


class TestRootSign:
    def test_exact_signs(self):
        zero, one, three = sturm_isolate(P(0, -3, 4, -1))
        assert root_sign(zero) == 0
        assert root_sign(one) == 1
        assert root_sign(three) == 1

    def test_isolated_signs(self):
        neg, pos = sturm_isolate(P(-2, 0, 1))
        assert root_sign(neg) == -1
        assert root_sign(pos) == 1

    def test_interval_straddling_zero(self):
        # cube roots of +-2 in wide brackets that contain 0
        pos = RealRoot.isolated(Fraction(-1), Fraction(2), P(-2, 0, 0, 1))
        neg = RealRoot.isolated(Fraction(-2), Fraction(1), P(2, 0, 0, 1))
        assert root_sign(pos) == 1
        assert root_sign(neg) == -1
