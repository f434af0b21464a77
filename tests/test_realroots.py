import math
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from secular import polynomials, realroots
from secular.errors import PreconditionError
from secular.matrices import Pencil, RatMatrix
from secular.oscillate import build_model
from secular.polynomials import Poly, _derivative, _primitive_ints, _prs, poly_gcd
from secular.realroots import (
    RealRoot,
    refine_root,
    root_sign,
    sturm_isolate,
)

from oracles import (
    bisect_bracket,
    bisect_narrow,
    isolate_by_chain,
    poly_from_roots,
    sturm_chain_by_divmod,
    sturm_isolate_by_chain,
    sturm_isolate_from_intervals,
)


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
        roots = sturm_isolate(poly_from_roots([2, 2, 3]))
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
        for root in sturm_isolate(P(-2, 0, 1) * poly_from_roots([5])):
            if not root.is_exact:
                a = root.poly.evaluate(root.lo)
                b = root.poly.evaluate(root.hi)
                assert a != 0 and b != 0 and (a > 0) != (b > 0)

    def test_rational_roots_exact(self):
        roots = sturm_isolate(poly_from_roots([Fraction(1, 3), Fraction(-7, 2)]))
        assert [r.value for r in roots] == [Fraction(-7, 2), Fraction(1, 3)]

    def test_no_real_roots(self):
        assert sturm_isolate(P(1, 0, 1)) == []

    def test_zero_poly_rejected(self):
        with pytest.raises(PreconditionError):
            sturm_isolate(Poly())

    def test_mixed_rational_and_irrational(self):
        p = P(-2, 0, 1) * poly_from_roots([Fraction(1, 2)])
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
        p = poly_from_roots(values)
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
        p = poly_from_roots(values) * P(-square, 0, 1)
        roots = sturm_isolate(p)
        assert sum(r.multiplicity for r in roots) == len(values) + 2
        for a, b in zip(roots, roots[1:]):
            assert a.hi <= b.lo or (a.is_exact and b.is_exact)



def _route(roots, scale=1):
    return [(r.kind, r.value, r.lo, r.hi, r.poly, scale * r.multiplicity) for r in roots]


small_ints = st.integers(min_value=-6, max_value=6)


class TestSquarefreeShortcut:
    """A square-free p is isolated on its own integer Sturm chain, without
    Yun's decomposition.  p**2 always takes the decomposition route (its
    chain ends in p), over the same square-free part, so both must give the
    same roots and endpoints at twice the multiplicities."""

    @given(
        st.lists(small_ints, min_size=2, max_size=4).filter(lambda cs: cs[-1]),
        st.lists(small_ints, min_size=1, max_size=3).filter(lambda cs: cs[-1]),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_decomposition_route(self, f, g, e):
        p = Poly(f) ** e * Poly(g)
        assert _route(sturm_isolate(p), 2) == _route(sturm_isolate(p * p))

    def test_squarefree_skips_decomposition(self, monkeypatch):
        def refuse(cs, g):
            raise AssertionError("square-free polynomial decomposed")

        monkeypatch.setattr(realroots, "_yun", refuse)
        roots = sturm_isolate(P(-2, 0, 1) * P(-3, 1))
        assert [(r.kind, r.multiplicity) for r in roots] == [
            ("isolated", 1), ("isolated", 1), ("exact", 1)
        ]
        with pytest.raises(AssertionError, match="decomposed"):
            sturm_isolate(P(-3, 1) ** 2)


# square-free polynomials: irrational roots alone, beside a rational one,
# and rational roots alone
MIDPOINT_FIXTURES = [
    P(0, -3, 4, -1),
    P(-2, 0, 1) * poly_from_roots([5]),
    poly_from_roots([Fraction(1, 3), Fraction(-7, 2)]),
    P(-2, 0, 1),
    P(-8, 10, -6, 1),
    P(16, 0, -24, -1, 9),
]


class TestMidpointSignOnce:
    """On the Sturm path, bisection hands the sign it took at each midpoint
    to the counter as its chain's first sign, so no sign is taken twice; the
    isolating intervals and every root stay those of chain bisection."""

    @pytest.mark.parametrize("p", MIDPOINT_FIXTURES)
    def test_each_midpoint_sign_taken_once(self, monkeypatch, p):
        cs = tuple(_primitive_ints(p)[1])
        chain = _prs(list(cs), _derivative(list(cs)))
        assert len(chain[-1]) == 1  # square-free
        expected = isolate_by_chain(chain)
        taken = []
        sign_at = realroots._sign_at
        monkeypatch.setattr(realroots, "_sign_at", lambda q, n, d: (
            tuple(q) == cs and taken.append(Fraction(n, d))) or sign_at(q, n, d))
        got = realroots._isolate(cs, partial(realroots._variations, chain))
        assert sorted(got) == sorted(expected)
        assert len(taken) == len(set(taken))

    @pytest.mark.parametrize("p", MIDPOINT_FIXTURES)
    @pytest.mark.parametrize("width", [Fraction(1), Fraction(1, 10**30)])
    def test_roots_as_chain_bisection(self, deadline, p, width):
        # a wrong sign handed to the counter miscounts, or never isolates
        deadline(5.0)
        assert root_fields(sturm_isolate(p, width)) == \
            root_fields(sturm_isolate_by_chain(p, width))


class TestRepeatedRootGcdOnce:
    """The Sturm chain of p ends in gcd(p, p'), and Yun's decomposition
    starts from it: no gcd of p and p' is taken a second time."""

    def test_gcd_of_p_and_derivative_taken_once(self, monkeypatch):
        p = P(-3, 1) ** 2 * P(-2, 0, 1) * P(1, 2) ** 3 * Fraction(-5, 3)
        pair = (p.monic(), p.derivative().monic())

        def as_monic(q):  # a Poly, or an int list of the integer layer
            return (q if isinstance(q, Poly) else Poly(q)).monic()

        def spy(fn, seen):
            def wrapped(a, b):
                seen.append((as_monic(a), as_monic(b)))
                return fn(a, b)
            return wrapped

        # no route through the public gcd
        gcds = []
        monkeypatch.setattr(polynomials, "poly_gcd", spy(polynomials.poly_gcd, gcds))
        roots = sturm_isolate(p)
        assert [r.multiplicity for r in roots] == [1, 3, 1, 2]
        assert pair not in gcds
        # and one pseudo-remainder sequence of p and p', the Sturm chain's
        chains = []
        prs = spy(polynomials._prs, chains)
        for module in (polynomials, realroots):
            monkeypatch.setattr(module, "_prs", prs)
        assert sturm_isolate(p) == roots
        assert chains.count(pair) == 1


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


# Endpoints of `sturm_isolate` as Fraction bisection printed them before signs
# were taken in integers; the integer engine must reproduce every one, since
# any change to the bisection tree, the nudge or the stopping rule moves them.
GOLDEN_LOADED_STRING_12 = [
    (
        "6379267751949762731652631092686983007221/82688615161788046621600029605919675383808",
        "12758535503899525463305262185484983998685/165377230323576093243200059211839350767616",
    ),
    (
        "7494130253246688843127265178217816218499/18375247813730677027022228801315483418624",
        "33723586139610099794072693302035681975367/82688615161788046621600029605919675383808",
    ),
    (
        "55589177105471417771493536591952543390455/55125743441192031081066686403946450255872",
        "20845941414551781664310076221996081019451/20672153790447011655400007401479918845952",
    ),
    (
        "156212649220583287681707994199982868973089/82688615161788046621600029605919675383808",
        "312425298441166575363415988400076755930421/165377230323576093243200059211839350767616",
    ),
    (
        "507071685756430263371951713821460533477689/165377230323576093243200059211839350767616",
        "126767921439107565842987928455392887865483/41344307580894023310800014802959837691904",
    ),
    (
        "251539702736757268211780143506257594585681/55125743441192031081066686403946450255872",
        "377309554105135902317670215259441900870643/82688615161788046621600029605919675383808",
    ),
    (
        "265191121911848530322952090081270380760265/41344307580894023310800014802959837691904",
        "39287573616570152640437346678710834852789/6125082604576892342340742933771827806208",
    ),
    (
        "1433936901486080527098618189428364554967803/165377230323576093243200059211839350767616",
        "716968450743040263549309094714237786476023/82688615161788046621600029605919675383808",
    ),
    (
        "157263227930680206224852837275952356905937/13781435860298007770266671600986612563968",
        "1887158735168162474698234047311539300855487/165377230323576093243200059211839350767616",
    ),
    (
        "2442190650394592769352196405156813480802559/165377230323576093243200059211839350767616",
        "407031775065765461558699400859487416464467/27562871720596015540533343201973225127936",
    ),
    (
        "3140840747677649262350239331992125798279713/165377230323576093243200059211839350767616",
        "785210186919412315587559832998059204065989/41344307580894023310800014802959837691904",
    ),
    (
        "2045116628591011587409734979408283104898195/82688615161788046621600029605919675383808",
        "1363411085727341058273156652938892409260211/55125743441192031081066686403946450255872",
    ),
]

# A = L^T L + I and B = M^T M for L, M drawn from [-3, 3] by random.Random(4)
GOLDEN_CUSTOM_MASS = [[15, 8, 3, -4], [8, 20, 12, -14], [3, 12, 23, -9], [-4, -14, -9, 24]]
GOLDEN_CUSTOM_STIFFNESS = [[23, 4, 15, 5], [4, 15, 3, 9], [15, 3, 18, -4], [5, 9, -4, 20]]
GOLDEN_CUSTOM = [
    (
        "10347441560212189245916346711216997/86545041778781677698982921237430272",
        "124169298722546270950996160535326975/1038540501345380132387795054849163264",
    ),
    (
        "168738131202947724992973803832206285/519270250672690066193897527424581632",
        "112492087468631816661982535888378527/346180167115126710795931684949721088",
    ),
    (
        "2488477145842306036780478895050417101/1038540501345380132387795054849163264",
        "51843273871714709099593310313565419/21636260444695419424745730309357568",
    ),
    (
        "4393143972440943170943103612102864805/1038540501345380132387795054849163264",
        "549142996555117896367887951512948477/129817562668172516548474381856145408",
    ),
]

GOLDEN_SQRT2 = [
    (
        "-7170914684772625909597688093115/5070602400912917605986812821504",
        "-896364335596578238699711011639/633825300114114700748351602688",
    ),
    (
        "896364335596578238699711011639/633825300114114700748351602688",
        "7170914684772625909597688093115/5070602400912917605986812821504",
    ),
]


def endpoints(roots):
    return [(str(r.lo), str(r.hi)) for r in roots]


class TestGoldenIntervals:
    def test_loaded_string_12(self):
        model = build_model("loaded-string", {"n": 12, "a": Fraction(3, 2)})
        roots = sturm_isolate(model.pencil().char_poly())
        assert endpoints(roots) == GOLDEN_LOADED_STRING_12

    def test_custom_pencil(self):
        model = build_model(
            "custom",
            mass=RatMatrix.from_rows(GOLDEN_CUSTOM_MASS),
            stiffness=RatMatrix.from_rows(GOLDEN_CUSTOM_STIFFNESS),
        )
        roots = sturm_isolate(model.pencil().char_poly())
        assert endpoints(roots) == GOLDEN_CUSTOM

    def test_sqrt2_default_width(self):
        assert endpoints(sturm_isolate(P(-2, 0, 1))) == GOLDEN_SQRT2

    @pytest.mark.parametrize(
        "width, expected",
        [
            (Fraction(1, 10**30), [GOLDEN_SQRT2[0], ("1", "1"), GOLDEN_SQRT2[1]]),
            # wide enough already; only the exact root 1 forces narrowing
            (10, [("-3", "0"), ("1", "1"), ("9/8", "3/2")]),
            (1, [("-3/2", "-3/4"), ("1", "1"), ("9/8", "3/2")]),
        ],
    )
    def test_narrowed_clear_of_exact_root(self, width, expected):
        roots = sturm_isolate(P(-1, 1) * P(-2, 0, 1), width)
        assert [r.kind for r in roots] == ["isolated", "exact", "isolated"]
        assert endpoints(roots) == expected

    def test_refine_continues_the_same_bisection(self):
        # refining a coarse interval lands where isolating finely does
        coarse = sturm_isolate(P(-2, 0, 1), Fraction(1, 1000))[1]
        fine = refine_root(coarse, Fraction(1, 10**30))
        assert endpoints([fine]) == [GOLDEN_SQRT2[1]]


def _squarefree_case(rng):
    """A seeded square-free integer polynomial of degree 2..12 with a real
    root, coefficients of 4, 30 or 200 bits, as an integer model."""
    while True:
        bits = rng.choice([4, 30, 200])
        cs = [rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(2, 12))]
        p = Poly(cs + [rng.randint(1, 2**bits)])
        if poly_gcd(p, p.derivative()).degree() == 0 and sturm_isolate(p, 1):
            return tuple(_primitive_ints(p)[1])


def _intervals(cs):
    return realroots._isolate(cs, partial(realroots._variations, _prs(cs, _derivative(cs))))


def _wider_than(width, strict):
    if strict:
        return lambda a, b, d: Fraction(b - a, d) > width
    return lambda a, b, d: Fraction(b - a, d) >= width


# (x^2 - 2)(x^2 - 2 - 10^-20): roots 3.5e-21 apart, so the secant through one
# interval's ends sees the other root's curvature
CLUSTER = (4 * 10**20 + 2, 0, -(4 * 10**20 + 1), 0, 10**20)
# 10^50 x^2 - 2 * 10^50 - 3: coefficients of 170 bits
BIG = (-2 * 10**50 - 3, 0, 10**50)
# isolating intervals of sqrt(2) whose left or right end lies within 2**-60
# of the root, over a power of two and over a power of three
NEAR_ENDS = [
    (math.isqrt(2 * d * d), 2 * d, d) for d in (2**60, 3**40)
] + [(d, math.isqrt(2 * d * d) + 1, d) for d in (2**60, 3**40)]
WIDTHS = [Fraction(1, 10**e) for e in (3, 10, 30, 60)]


class TestQuadraticRefinement:
    """`_narrow` jumps to bisection's last interval by quadratic interval
    refinement; every endpoint must equal one-halving-per-step bisection."""

    @pytest.fixture
    def halvings(self, monkeypatch):
        """The plain halvings `_narrow` makes after refinement."""
        calls = []
        halve = realroots._halve
        monkeypatch.setattr(
            realroots, "_halve", lambda *args: calls.append(args) or halve(*args)
        )
        return calls

    @pytest.mark.parametrize("seed", range(24))
    def test_seeded_squarefree(self, seed):
        cs = _squarefree_case(random.Random(seed))
        for a, b, d in _intervals(cs):
            for width in WIDTHS:
                for strict in (False, True):
                    assert realroots._narrow(cs, a, b, d, width, strict) == (
                        bisect_narrow(cs, a, b, d, _wider_than(width, strict))
                    )

    @pytest.mark.parametrize(
        "cs, interval",
        [(CLUSTER, i) for i in _intervals(CLUSTER)]
        + [((-2, 0, 1), i) for i in NEAR_ENDS]
        + [(BIG, i) for i in _intervals(BIG)],
    )
    def test_secant_defeating(self, cs, interval, halvings):
        for width in WIDTHS:
            expected = bisect_narrow(cs, *interval, _wider_than(width, False))
            assert realroots._narrow(cs, *interval, width) == expected
        # the roots are irrational: no grid point is a root, so refinement
        # lands on the last interval without a single plain halving
        assert halvings == []

    def test_quadratic_not_linear(self, monkeypatch):
        # bisection to 1e-300 takes about 1000 signs; squaring the number
        # of subintervals on every confirmed guess takes a few dozen
        calls = []
        value_at = realroots._value_at
        monkeypatch.setattr(
            realroots, "_value_at", lambda *args: calls.append(1) or value_at(*args)
        )
        for cs in [(-2, 0, 1), CLUSTER]:
            for a, b, d in _intervals(cs):
                calls.clear()
                realroots._narrow(cs, a, b, d, Fraction(1, 10**300))
                assert len(calls) < 50

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 64, 200])
    def test_lands_at_depth_k(self, k):
        for cs in [(-2, 0, 1), CLUSTER, (-5, 3, 0, 1)]:
            for a, b, d in _intervals(cs):
                expected = bisect_narrow(cs, a, b, d, lambda _a, _b, dk: dk < d << k)
                lo, depth = realroots._qir(cs, a, b, d, k)[:2]
                assert (lo, lo + b - a, d << depth) == expected
                # a pass stopped halfway and resumed lands on the same cell
                halfway = realroots._qir(cs, a, b, d, k // 2)
                lo, depth = realroots._qir(cs, a, b, d, k, halfway)[:2]
                assert (lo, lo + b - a, d << depth) == expected

    def test_grid_root_hands_over_to_bisection(self, halvings):
        # (x - 3/4)(x^2 - 2) has the grid point 3/4 of (0, 4)/4 as a root
        cs = (6, -8, -3, 4)
        width = Fraction(1, 10**30)
        assert realroots._narrow(cs, 0, 4, 4, width) == bisect_narrow(
            cs, 0, 4, 4, _wider_than(width, False))
        assert halvings

    @pytest.mark.parametrize(
        "apart", [[(1, 1)], [(7, 5)], [(99, 70)], [(17, 12), (1, 1)]]
    )
    @pytest.mark.parametrize("width", [10, 1, Fraction(1, 10**30)])
    def test_separated_from_exact_roots(self, apart, width):
        # 99/70 lies 7e-5 from sqrt(2): narrowing continues past the width
        cs = (-2, 0, 1)
        width = Fraction(width)

        def wide(a, b, d):
            return Fraction(b - a, d) >= width or any(
                Fraction(a, d) <= Fraction(p, q) <= Fraction(b, d) for p, q in apart
            )

        for a, b, d in _intervals(cs):
            assert realroots._narrow(cs, a, b, d, width, apart=apart) == (
                bisect_narrow(cs, a, b, d, wide)
            )

    @pytest.mark.parametrize(
        "lo, hi, poly",
        [
            (Fraction(4, 3), Fraction(3, 2), P(-2, 0, 1)),
            (Fraction(6, 5), Fraction(9, 7), P(-2, 0, 0, 1)),
            (Fraction(-7, 3), Fraction(-11, 5), P(-5, 0, 1)),
            (Fraction(1), Fraction(2), P(-2, 0, 1)),
        ],
    )
    @pytest.mark.parametrize(
        "width", [Fraction(1, 4), Fraction(1, 10**5), Fraction(1, 10**40)]
    )
    def test_refine_across_denominators(self, lo, hi, poly, width):
        root = refine_root(RealRoot.isolated(lo, hi, poly), width)
        d = math.lcm(lo.denominator, hi.denominator)
        a, b, d = bisect_narrow(
            _primitive_ints(poly)[1],
            lo.numerator * (d // lo.denominator),
            hi.numerator * (d // hi.denominator),
            d,
            _wider_than(width, True),
        )
        assert (root.lo, root.hi) == (Fraction(a, d), Fraction(b, d))

    @pytest.mark.parametrize(
        "strict, expected", [(True, (5, 6, 4)), (False, (11, 12, 8))]
    )
    def test_width_met_exactly(self, strict, expected, halvings):
        # (1, 2) halves twice to width exactly 1/4: not wider than 1/4, but
        # not narrower either, so the non-strict rule halves once more
        cs = (-2, 0, 1)
        assert realroots._narrow(cs, 1, 2, 1, Fraction(1, 4), strict) == expected
        assert halvings == []
        root = refine_root(RealRoot.isolated(1, 2, P(*cs)), Fraction(1, 4))
        assert (root.lo, root.hi) == (Fraction(5, 4), Fraction(3, 2))


class TestDisjointRoots:
    """`darboux_signature_steps` samples between consecutive roots a, b at
    (a.hi + b.lo) / 2 and refines nothing: isolating intervals are pairwise
    disjoint and exact roots lie outside them, ends included."""

    def check(self, p, width):
        roots = sturm_isolate(p, width)
        for a, b in zip(roots, roots[1:]):
            assert a.hi <= b.lo
            assert p.evaluate((a.hi + b.lo) / 2) != 0
        return roots

    @pytest.mark.parametrize(
        "factors",
        [
            # sqrt(2) next to its convergents 7/5 and 99/70, one of them double
            [(P(-2, 0, 1), 1), (P(-7, 5), 2), (P(-99, 70), 1)],
            # a triple rational root between two irrational pairs
            [(P(-1, 1), 3), (P(-3, 0, 1), 1), (P(-1, 0, 0, 1), 2)],
            # (x^2 - 2)(x^2 - 2 - 10^-20): two roots 3.5e-21 apart, and 3/2
            [(P(*CLUSTER), 1), (P(-3, 2), 2)],
            [(P(-2, 1), 2), (P(-2, 0, 1), 3), (P(-1, 2), 1), (P(0, 1), 1)],
        ],
    )
    @pytest.mark.parametrize("width", [Fraction(10), Fraction(1, 1000), Fraction(1, 10**30)])
    def test_planted_factors(self, factors, width):
        p = Poly([1])
        for f, e in factors:
            p = p * f**e
        roots = self.check(p, width)
        assert {r.kind for r in roots} == {"exact", "isolated"}

    @pytest.mark.parametrize("seed", range(3))
    def test_symmetric_characteristic_polynomials(self, seed):
        rng = random.Random(1600 + seed)
        for _ in range(30):
            n = rng.randint(2, 5)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(-3, 3)
            p = Pencil.similarity(RatMatrix.from_rows(rows)).char_poly()
            self.check(p, Fraction(1, 10**30))


def _sturm_chain(p: Poly) -> list[Poly]:
    """The primitive pseudo-remainder sequence of p's integer model and its
    derivative, the chain `sturm_isolate` counts sign variations on."""
    _, cs = _primitive_ints(p)
    return [Poly(q) for q in _prs(cs, _derivative(cs))]


class TestIntegerSturmChain:
    @pytest.mark.parametrize("seed", range(24))
    def test_matches_fraction_remainders(self, seed, deadline):
        deadline(10)  # a wrong chain sign can keep bisection from ending
        rng = random.Random(seed)
        cs = _squarefree_case(rng)
        p = Poly(cs) * Fraction(rng.choice([1, -3]), rng.choice([1, 7]))
        assert _sturm_chain(p) == sturm_chain_by_divmod(p)

    def test_cluster_and_constant(self):
        for p in [Poly(CLUSTER), P(-2, 0, 1), P(5), P(3, -6)]:
            assert _sturm_chain(p) == sturm_chain_by_divmod(p)


def _sympy_case(rng):
    """A seeded polynomial of degree <= 8 mixing repeated rational roots,
    irrational roots and complex pairs."""
    roots, degree = [], rng.randint(1, 8)
    factors = []
    while degree > 0:
        pick = rng.random()
        if pick < 0.5 or degree == 1:
            r = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6]))
            mult = min(degree, rng.choice([1, 1, 1, 2, 3]))
            roots += [r] * mult
            degree -= mult
        elif pick < 0.8:
            k = rng.choice([2, 3, 5, 7, 10, Fraction(1, 2), Fraction(9, 2)])
            factors.append(P(-k, 0, 1))  # x^2 - k, k not a square
            degree -= 2
        else:
            factors.append(P(rng.randint(1, 5), rng.randint(-2, 2), 1))
            degree -= 2
    p = poly_from_roots(roots)
    for f in factors:
        p = p * f
    return p * rng.choice([1, -3, Fraction(5, 2)])


# Rational roots that bisection of the Cauchy interval (-B, B) reaches as
# midpoints: 0 is the first midpoint, and (x - 3)(x + 1) has B = 4, so -1
# and 3 are midpoints too; each case hits at least one root exactly.
DYADIC_HITS = [
    poly_from_roots([0]) * P(-2, 0, 1),
    poly_from_roots([3, -1]),
    poly_from_roots([3, -1, 0]) * P(-5, 0, 1),
    poly_from_roots([-2, -2, Fraction(5, 2)]) * P(-3, 0, 1),
    poly_from_roots([Fraction(1, 2), Fraction(5, 2), Fraction(5, 2)]) * P(-3, 0, 1),
]


class TestAgainstSympy:
    @pytest.mark.parametrize("seed", range(40))
    def test_seeded(self, seed):
        self.check(_sympy_case(random.Random(seed)))

    @pytest.mark.parametrize("p", DYADIC_HITS, ids=str)
    def test_roots_at_dyadic_midpoints(self, p):
        self.check(p)

    @staticmethod
    def check(p):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                         for c in reversed(p.coeffs)], x)
        distinct = []
        for r in sympy.real_roots(sp):
            if distinct and distinct[-1][0] == r:
                distinct[-1][1] += 1
            else:
                distinct.append([r, 1])
        roots = sturm_isolate(p)
        assert len(roots) == len(distinct)
        assert len(sp.intervals()) == len(roots)
        for ours, (theirs, mult) in zip(roots, distinct):
            assert ours.multiplicity == mult
            assert ours.is_exact == theirs.is_Rational
            if ours.is_exact:
                assert sympy.Rational(ours.value.numerator,
                                      ours.value.denominator) == theirs
            else:
                value = theirs.evalf(80)
                assert ours.lo < Fraction(str(value)) < ours.hi


# irreducible over Q: quadratics with and without real roots, x^3 - 2,
# x^3 - x - 1, 3x^3 - 5x + 1 and x^4 - 10x^2 + 1 (roots +-sqrt 2 +- sqrt 3)
IRREDUCIBLE = [
    P(-2, 0, 1), P(-3, 0, 2), P(-7, 0, 5), P(-1, 1, 1), P(1, 0, 1),
    P(-2, 0, 0, 1), P(-1, -1, 0, 1), P(1, -5, 0, 3), P(1, 0, -10, 0, 1),
]
ISOLATION_WIDTHS = [Fraction(3), Fraction(1), Fraction(1, 2), Fraction(1, 1000),
                    Fraction(1, 7**5), Fraction(1, 10**30)]


def root_fields(roots):
    return [(r.kind, r.value, r.lo, r.hi, r.poly, r.multiplicity) for r in roots]


class TestRationalRootsBelowOneOverLc:
    """A rational root m/lc is tested in a cell narrower than 1/lc, and with
    no rational root the final narrowing goes on from that cell unless it is
    already narrower than the target width: every field of every root is
    the one the `limit_denominator` test at 1/(2 lc**2) and a final
    narrowing from the isolating interval give."""

    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    # q x - p with q <= 12
                    st.tuples(st.integers(-30, 30), st.integers(1, 12)).map(
                        lambda pq: P(-pq[0], pq[1])),
                    st.sampled_from(IRREDUCIBLE),
                ),
                st.integers(1, 2),  # squares
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from(ISOLATION_WIDTHS),
    )
    # the narrowed cell (below 1/7) is narrower than the width: the final
    # narrowing starts from the isolating interval
    @example([(P(-3, 0, 7), 1)], Fraction(1))
    @example([(P(-3, 0, 7), 1)], Fraction(1, 1000))
    # a rational root next to an irrational one of the same denominator
    @example([(P(-2, 0, 9), 1), (P(-4, 3), 2)], Fraction(1, 2))
    @example([(P(-7, 12), 2), (P(-1, 0, 0, 1) * P(1, 0, 1), 1)], Fraction(1, 10**30))
    @settings(max_examples=300, deadline=None)
    def test_matches_limit_denominator_route(self, factors, width):
        p = P(1)
        for f, e in factors:
            p = p * f**e
        assert root_fields(sturm_isolate(p, width)) == root_fields(
            sturm_isolate_from_intervals(p, width))

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_squarefree(self, seed):
        rng = random.Random(2300 + seed)
        for _ in range(20):
            p = Poly(_squarefree_case(rng))
            for width in ISOLATION_WIDTHS:
                assert root_fields(sturm_isolate(p, width)) == root_fields(
                    sturm_isolate_from_intervals(p, width))

    def test_one_candidate_per_cell(self, monkeypatch):
        # 1/lc = 1/6: the root 5/6 and the root sqrt(29)/6 of 36x^2 - 29,
        # 0.064 away from it, are told apart in cells below 1/6, where each
        # of the three roots has one candidate m/6
        p = P(-5, 6) * P(-29, 0, 36)
        cs = tuple(_primitive_ints(p)[1])
        candidates = []
        sign_at = realroots._sign_at
        monkeypatch.setattr(realroots, "_sign_at", lambda q, n, d: (
            d == cs[-1] and candidates.append(Fraction(n, d))) or sign_at(q, n, d))
        roots = sturm_isolate(p, 1)
        assert [r.kind for r in roots] == ["isolated", "exact", "isolated"]
        assert roots[1].value == Fraction(5, 6)
        assert len(candidates) == 3 and Fraction(5, 6) in candidates


# similarity pencil of [[-2, 2, 0], [2, -2, -1], [0, -1, -2]]: the leading
# minor f_2 = s(s + 4) vanishes at 0, the midpoint of the Cauchy interval
# (-8, 8), and -2 is a rational root beside two irrational ones
ZERO_MINOR = [[-2, 2, 0], [2, -2, -1], [0, -1, -2]]
# [[2, 1, 0], [1, 2, 1], [0, 1, 2]]: the roots 2 and 2 +- sqrt(2)
MIXED_ROOTS = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
PENCIL_KINDS = ["jacobi", "zero-sub", "full-A", "indefinite-A", "A-sB", "jacobi-A-sB"]
ENTRY = st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4)))
POSITIVE = st.one_of(st.integers(1, 6), st.builds(Fraction, st.integers(1, 12), st.integers(1, 4)))


@st.composite
def tridiagonal_pencils(draw):
    """(kind, pencil): an "sA-B" pencil with A diagonal and positive and B
    symmetric tridiagonal with nonzero sub-diagonal ("jacobi"), the same
    characteristic matrix as the "A-sB" pencil (-B) - s(-A) ("jacobi-A-sB"),
    or one that breaks one of those conditions; sizes 1..10, entries
    integer or rational."""
    kind = draw(st.sampled_from(PENCIL_KINDS))
    n = draw(st.integers(1, 10))
    a = [Fraction(draw(POSITIVE)) for _ in range(n)]
    diag = [Fraction(draw(ENTRY)) for _ in range(n)]
    sub = [Fraction(draw(ENTRY.filter(bool))) for _ in range(n - 1)]
    if kind == "zero-sub" and n > 1:
        sub[draw(st.integers(0, n - 2))] = Fraction(0)
    if kind == "indefinite-A":
        a[draw(st.integers(0, n - 1))] *= -1
    A = [[a[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    B = [[diag[i] if i == j else sub[min(i, j)] if abs(i - j) == 1 else Fraction(0)
          for j in range(n)] for i in range(n)]
    if kind == "full-A" and n > 1:
        A[0][1] = A[1][0] = Fraction(draw(ENTRY.filter(bool)))
    A, B = RatMatrix.from_rows(A), RatMatrix.from_rows(B)
    if kind == "jacobi-A-sB":
        return kind, Pencil(-B, -A, "A-sB")
    # "A-sB": the same matrices, with the characteristic matrix A - sB
    return kind, Pencil(A, B, "A-sB" if kind == "A-sB" else "sA-B")


class TestMinorCountAgainstChain:
    """`Pencil.roots` counts a Jacobi pencil's roots with its leading minors
    and narrows each root in one pass; every field of every root must be
    the one Sturm-chain bisection, the rational test in cells below 1/lc
    and a second narrowing gave."""

    @given(tridiagonal_pencils(), st.sampled_from(
        [Fraction(3), Fraction(1), Fraction(1, 1000), Fraction(1, 10**30)]))
    @example(("jacobi", Pencil.similarity(RatMatrix.from_rows(ZERO_MINOR))), Fraction(1, 10**30))
    @example(("jacobi", Pencil.similarity(RatMatrix.from_rows(ZERO_MINOR))), Fraction(3))
    @example(("jacobi", Pencil.similarity(RatMatrix.from_rows(MIXED_ROOTS))), Fraction(1, 1000))
    @settings(max_examples=200, deadline=None)
    def test_matches_chain_route(self, case, width):
        from secular.matrices import _minor_count

        kind, pencil = case
        f = pencil.char_poly()
        assume(not f.is_zero())
        # a 1 x 1 "A-sB" pencil a - sb is Jacobi when -b > 0
        jacobi = kind in ("jacobi", "jacobi-A-sB") or pencil.size == 1 and (
            kind in ("zero-sub", "full-A") or kind == "A-sB" and pencil.B.entry(0, 0) < 0)
        assert (_minor_count(pencil) is not None) == jacobi
        assert root_fields(pencil.roots(width)) == root_fields(sturm_isolate_by_chain(f, width))

    @pytest.mark.parametrize("rows", [ZERO_MINOR, MIXED_ROOTS])
    def test_rational_root_beside_irrational_ones(self, rows):
        roots = Pencil.similarity(RatMatrix.from_rows(rows)).roots()
        assert [r.kind for r in roots] == ["isolated", "exact", "isolated"]
        assert roots[1].value == (-2 if rows is ZERO_MINOR else 2)

    def test_counter_counts_roots_above(self):
        # f_2 vanishes at 0; at the root -2 only the roots above it count
        from secular.matrices import _minor_count

        pencil = Pencil.similarity(RatMatrix.from_rows(ZERO_MINOR))
        count = _minor_count(pencil)
        roots = sorted(float(r.approx()) for r in pencil.roots())
        for m, d in [(-9, 1), (-2, 1), (0, 1), (-1, 3), (5, 2), (9, 1)]:
            assert count(m, d) == sum(1 for r in roots if r > m / d)
