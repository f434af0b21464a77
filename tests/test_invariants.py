import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secular.errors import PreconditionError
from secular.invariants import (
    MinorDivisibility,
    _minor_divisibility,
    darboux_signature_steps,
    elementary_divisors,
    inertia,
    invariant_factors,
    is_diagonalizable,
    minor_gcd_chain,
)
from secular.matrices import Pencil, PolyMatrix, RatMatrix
from secular.polynomials import Poly

from oracles import (
    cofactor_det_rat,
    congruence_signature,
    conjugated_jordan,
    darboux_steps_by_fractions,
    is_diagonalizable_by_smith,
    minor_divisibility_by_exact_division,
    minor_divisibility_by_poly_divides,
    minor_gcd_chain_by_fraction_smith,
    minor_gcd_chain_by_minors,
    poly_from_roots,
)

NOTE23 = RatMatrix.from_rows([[1, -1, 0], [-1, 2, 1], [0, 1, 1]])


def companion(p: Poly) -> RatMatrix:
    """Companion matrix of a monic polynomial."""
    p = p.monic()
    n = p.degree()
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = Fraction(1)
    for i in range(n):
        rows[i][n - 1] = -p[i]
    return RatMatrix.from_rows(rows)


def jordan_block(sigma, size) -> list[list[Fraction]]:
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = Fraction(sigma)
        if i + 1 < size:
            rows[i][i + 1] = Fraction(1)
    return rows


def block_diag(*blocks) -> RatMatrix:
    n = sum(len(b) for b in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                rows[at + i][at + j] = v
        at += len(b)
    return RatMatrix.from_rows(rows)


class TestMinorGcdChain:
    def test_scaled_identity_pencil(self):
        # (lambda - 1) * I3
        lam = Poly([-1, 1])
        P = PolyMatrix.from_rows(
            [[lam if i == j else Poly() for j in range(3)] for i in range(3)]
        )
        chain = minor_gcd_chain(P)
        assert list(chain) == [lam, lam**2, lam**3]

    def test_note23_distinct_roots(self):
        chain = minor_gcd_chain(Pencil.similarity(NOTE23).char_matrix())
        assert list(chain) == [
            Poly([1]),
            Poly([1]),
            Poly([0, 3, -4, 1]),  # x(x-1)(x-3)
        ]

    def test_companion_pencil(self):
        p = poly_from_roots([1, 1, 2])
        chain = minor_gcd_chain(Pencil.similarity(companion(p)).char_matrix())
        assert list(chain) == [Poly([1]), Poly([1]), p]

    def test_singular_pencil_rejected(self):
        Z = RatMatrix.zeros(2, 2)
        with pytest.raises(PreconditionError, match="singular"):
            minor_gcd_chain(Pencil(Z, Z, "sA-B").char_matrix())

    @pytest.mark.parametrize(
        "blocks, nontrivial",
        [
            # (eigenvalue, Jordan block size) -> roots of the invariant
            # factors that are not 1, in chain order
            ([(2, 3), (2, 2), (-1, 2), (0, 1)], [[2, 2], [2, 2, 2, -1, -1, 0]]),
            ([(1, 3), (1, 3), (1, 2), (5, 1)], [[1, 1], [1, 1, 1], [1, 1, 1, 5]]),
            ([(2, 4), (2, 3), (2, 2), (-3, 1)],
             [[2, 2], [2, 2, 2], [2, 2, 2, 2, -3]]),
        ],
    )
    def test_planted_jordan_beyond_former_size_cap(self, blocks, nontrivial):
        n = sum(size for _, size in blocks)
        J = block_diag(*(jordan_block(lam, size) for lam, size in blocks))
        rng = random.Random(n)
        while True:
            U = RatMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            )
            if U.det() != 0:
                break
        M = U @ J @ U.inverse()
        inv = invariant_factors(minor_gcd_chain(Pencil.similarity(M).char_matrix()))
        assert list(inv) == [Poly([1])] * (n - len(nontrivial)) + [
            poly_from_roots(roots) for roots in nontrivial
        ]

    def test_dense_rational_12x12(self, deadline):
        rng = random.Random(12)
        M = RatMatrix.from_rows(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(12)]
             for _ in range(12)]
        )
        pencil = Pencil.similarity(M)
        deadline(5.0)
        chain = minor_gcd_chain(pencil.char_matrix())
        assert chain.deltas[-1] == pencil.char_poly().monic()
        invariant_factors(chain)  # raises unless it is a divisibility chain


def chain_or_error(P: PolyMatrix, chain_of):
    try:
        return chain_of(P)
    except PreconditionError as exc:
        return str(exc)


def differential_case(rng, kind, n) -> PolyMatrix:
    """A seeded polynomial matrix of one kind; see TestSmithFormAgainstMinors."""

    def entry(denominators=(1,)):
        return Fraction(rng.randint(-3, 3), rng.choice(denominators))

    def square(denominators=(1,)):
        return RatMatrix.from_rows(
            [[entry(denominators) for _ in range(n)] for _ in range(n)]
        )

    if kind == "similarity":
        return Pencil.similarity(square()).char_matrix()
    if kind == "rational":
        return Pencil.similarity(square((1, 2, 5))).char_matrix()
    if kind in ("sA-B", "A-sB"):
        return Pencil(square((1, 3)), square((1, 3)), kind).char_matrix()
    if kind == "jordan":
        # repeated eigenvalues with chained blocks, conjugated by a
        # unimodular upper-triangular matrix
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = Fraction(rng.choice((-1, 1)))
            if i and rows[i][i] == rows[i - 1][i - 1]:
                rows[i - 1][i] = Fraction(rng.randint(0, 1))
        U = RatMatrix.from_rows(
            [[int(i == j) or (rng.randint(-2, 2) if j > i else 0)
              for j in range(n)] for i in range(n)]
        )
        M = U @ RatMatrix.from_rows(rows) @ U.inverse()
        return Pencil.similarity(M).char_matrix()
    if kind == "diagonal":
        # unordered products of x - 1, x and x + 1: elimination has to move
        # factors between diagonal entries to reach a divisibility chain
        return PolyMatrix.from_rows(
            [[poly_from_roots([rng.choice((-1, 0, 1)) for _ in range(rng.randint(0, 3))])
              if i == j else Poly() for j in range(n)] for i in range(n)]
        )
    rows = [
        # diagonal entries have degree 2, the others degree <= 2
        [Poly([entry((1, 2)), entry((1, 2)), rng.choice((1, -2, Fraction(1, 3)))])
         if i == j else Poly([entry((1, 2)) for _ in range(rng.randint(0, 3))])
         for j in range(n)]
        for i in range(n)
    ]
    if kind == "singular":
        # last row = x * (first row) + (row before it); zero when n = 1
        rows[-1] = ([Poly([0, 1]) * a + b for a, b in zip(rows[0], rows[-2])]
                    if n > 1 else [Poly()])
    return PolyMatrix.from_rows(rows)


class TestSmithFormAgainstMinors:
    """The elimination chain equals the literal minor-GCD definition."""

    @pytest.mark.parametrize(
        "kind",
        ["similarity", "rational", "sA-B", "A-sB", "jordan", "diagonal", "poly",
         "singular"],
    )
    def test_matches_minor_enumeration(self, kind):
        rng = random.Random(kind)
        for n in (1, 2, 3, 4, 5):
            P = differential_case(rng, kind, n)
            assert chain_or_error(P, minor_gcd_chain) == chain_or_error(
                P, minor_gcd_chain_by_minors
            ), (kind, n)


class TestSmithFormAgainstSympy:
    """Invariant factors of xI - M agree with sympy's Smith normal form."""

    def test_invariant_factors_match(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors as sympy_factors

        x = sympy.symbols("x")
        rng = random.Random(4)
        for kind in ("similarity", "rational", "jordan") * 4:
            n = rng.randint(1, 4)
            P = differential_case(rng, kind, n)
            M = sympy.Matrix(n, n, lambda i, j: -P.entry(i, j)[0])
            want = [
                sympy.Poly(f, x).monic().all_coeffs()[::-1]
                for f in sympy_factors(x * sympy.eye(n) - M, domain=sympy.QQ[x])
            ]
            got = invariant_factors(minor_gcd_chain(P))
            assert [
                [Fraction(int(c.p), int(c.q)) for c in coeffs] for coeffs in want
            ] == [list(f.coeffs) for f in got], (kind, n)


class TestInvariantFactors:
    def test_scaled_identity(self):
        lam = Poly([-1, 1])
        from secular.invariants import MinorGcdChain

        inv = invariant_factors(MinorGcdChain((lam, lam**2, lam**3)))
        assert list(inv) == [lam, lam, lam]

    def test_note23(self):
        chain = minor_gcd_chain(Pencil.similarity(NOTE23).char_matrix())
        inv = invariant_factors(chain)
        assert list(inv) == [Poly([1]), Poly([1]), Poly([0, 3, -4, 1])]

    def test_diagonal_2_2_3(self):
        M = RatMatrix.diagonal([2, 2, 3])
        chain = minor_gcd_chain(Pencil.similarity(M).char_matrix())
        assert list(chain) == [
            Poly([1]),
            Poly([-2, 1]),
            poly_from_roots([2, 2, 3]),
        ]
        inv = invariant_factors(chain)
        assert list(inv) == [
            Poly([1]),
            Poly([-2, 1]),
            poly_from_roots([2, 3]),
        ]

    def test_product_is_monic_charpoly(self):
        rng = random.Random(17)
        for _ in range(8):
            n = rng.randint(1, 4)
            M = RatMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            )
            pencil = Pencil.similarity(M)
            inv = invariant_factors(minor_gcd_chain(pencil.char_matrix()))
            product = Poly([1])
            for f in inv:
                product = product * f
            assert product == pencil.char_poly().monic()


class TestElementaryDivisors:
    def test_mixed_powers(self):
        from secular.invariants import InvariantFactors

        i3 = poly_from_roots([1, 1, 2, 2, 2, 3])
        divs = elementary_divisors(InvariantFactors((Poly([1]), i3)))
        assert set(divs.divisors) == {
            (Poly([-1, 1]), 2),
            (Poly([-2, 1]), 3),
            (Poly([-3, 1]), 1),
        }

    def test_repeated_linear(self):
        from secular.invariants import InvariantFactors

        lam = Poly([-1, 1])
        divs = elementary_divisors(InvariantFactors((lam, lam, lam)))
        assert divs.divisors == ((lam, 1), (lam, 1), (lam, 1))

    def test_from_block_construction(self):
        chain = minor_gcd_chain(
            Pencil.similarity(RatMatrix.diagonal([2, 2, 3])).char_matrix()
        )
        divs = elementary_divisors(invariant_factors(chain))
        assert sorted(divs.divisors, key=lambda d: tuple(d[0].coeffs)) == [
            (Poly([-3, 1]), 1),
            (Poly([-2, 1]), 1),
            (Poly([-2, 1]), 1),
        ]


class TestDiagonalizable:
    def test_distinct_roots(self):
        ok, witness = is_diagonalizable(NOTE23)
        assert ok and witness.records == ()

    def test_jordan_block_rejected(self):
        ok, witness = is_diagonalizable(companion(poly_from_roots([1, 1])))
        assert not ok
        assert witness.records == ((Poly([-1, 1]), 2, False),)

    def test_identity_repeated_root(self):
        ok, witness = is_diagonalizable(RatMatrix.identity(2))
        assert ok
        assert witness.records == ((Poly([-1, 1]), 2, True),)

    def test_orientation_checked(self):
        P = Pencil.classical(NOTE23)
        with pytest.raises(PreconditionError):
            is_diagonalizable(P)


class TestIntegerSmithAgainstFractionSmith:
    """The Smith form on primitive integer rows gives the chain of the
    Smith form on `Fraction` polynomials, and the divisibility records read
    off the integer adjugate are those of `Poly.divides` on the `PolyMatrix`
    one; singular pencils raise the same error."""

    @given(st.integers(0, 2**32), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_conjugated_jordan(self, seed, n):
        M = conjugated_jordan(random.Random(seed), n, denominators=(1, 2, 3, 5))
        pencil = Pencil.similarity(M)
        P = pencil.char_matrix()
        assert minor_gcd_chain(P) == minor_gcd_chain_by_fraction_smith(P)
        assert _minor_divisibility(pencil) == minor_divisibility_by_poly_divides(pencil)

    @pytest.mark.parametrize("rows", [
        [["34/5", 1, 3, 1], ["-171/5", "-29/5", "-99/5", "-24/5"], [0, 0, "4/5", 0],
         ["-9/5", "3/5", "9/5", "-2/5"]],
        [[-3, 1, 2, -1, 0, -2], [-8, 1, 6, -5, 0, -4], [3, -1, -4, 2, 0, 2],
         [6, -2, -8, 4, 0, 4], [-15, 4, 8, -4, 0, -8], [-2, 0, 2, -2, 0, -1]],
    ])
    def test_row_zero_scaled_as_one_row(self, rows):
        # row 0 is reduced while its entries have unequal pseudo-division
        # exponents: scaling each remainder by its own power of the leading
        # coefficient would scale columns in row 0 only and change the chain
        P = Pencil.similarity(RatMatrix.from_rows(rows)).char_matrix()
        assert minor_gcd_chain(P) == minor_gcd_chain_by_fraction_smith(P)

    @given(st.integers(0, 2**32), st.integers(1, 4), st.sampled_from(["sA-B", "A-sB"]))
    @settings(max_examples=60, deadline=None)
    def test_random_pencils(self, seed, n, orientation):
        # entries in -2..2 over 1..3, rows often repeated or zero: low-rank
        # leading matrices and singular pencils
        rng = random.Random(seed)
        A, B = ([[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
                 for _ in range(n)] for _ in range(2))
        if n > 1 and rng.random() < 0.5:
            A[0] = list(A[1])
            if rng.random() < 0.5:
                B[0] = list(B[1])
        P = Pencil(RatMatrix.from_rows(A), RatMatrix.from_rows(B), orientation).char_matrix()

        def outcome(chain):
            try:
                return chain(P)
            except PreconditionError as exc:
                return str(exc)

        assert outcome(minor_gcd_chain) == outcome(minor_gcd_chain_by_fraction_smith)


class TestDiagonalizableAgainstSmithForm:
    """Adjugate divisibility gives the verdict and witness records of the
    Smith-form route (minimal polynomial square-free by gcd with its
    derivative, records tested against Delta_(n-1))."""

    def check(self, M):
        ok, witness = is_diagonalizable(M)
        assert (ok, witness.records) == is_diagonalizable_by_smith(M)
        assert ok == witness.ok

    @pytest.mark.parametrize("seed", range(3))
    def test_conjugated_jordan(self, seed):
        rng = random.Random(1400 + seed)
        for n in range(7):
            for _ in range(4):
                self.check(conjugated_jordan(rng, n))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_integer(self, seed):
        # entries in -1..1 make repeated eigenvalues common
        rng = random.Random(1500 + seed)
        for n in range(1, 6):
            for _ in range(10):
                self.check(RatMatrix.from_rows(
                    [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]))


def unimodular(rng, n: int) -> RatMatrix:
    """A random unimodular integer matrix from elementary row operations."""
    S = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        r, c = rng.sample(range(n), 2)
        f = rng.choice((-2, -1, 1, 2))
        S[r] = [x + f * y for x, y in zip(S[r], S[c])]
    return RatMatrix.from_rows(S)


# monic irreducible quadratics and cubics over Q
QUADRATICS = [Poly([-1, -1, 1]), Poly([1, 0, 1]), Poly([-2, 0, 1]), Poly([1, 1, 1]),
              Poly([3, -3, 1])]
CUBICS = [Poly([-2, 0, 0, 1]), Poly([-1, -1, 0, 1]), Poly([1, -3, 0, 1]),
          Poly([1, 1, 0, 1]), Poly([-3, 2, -1, 1])]


def repeated_companion(C: RatMatrix, copies: int, coupling) -> list[list[Fraction]]:
    """copies of C down the diagonal, each coupled to the next by the
    block coupling() above the diagonal."""
    d = C.rows
    rows = [[Fraction(0)] * (d * copies) for _ in range(d * copies)]
    for k in range(copies):
        for i in range(d):
            rows[k * d + i][k * d : k * d + d] = C.row(i)
        if k + 1 < copies:
            for i, row in enumerate(coupling()):
                rows[k * d + i][(k + 1) * d : (k + 2) * d] = row
    return rows


class TestKernelDivisibilityAgainstExactDivision:
    """The kernel at the roots of each multiple factor gives the records of
    exact division of the interpolated integer adjugate: on U J U^-1 with
    integer Jordan blocks and on repeated companion blocks of irreducible
    quadratics and cubics, coupled or not, as pencils T(sI - M) and
    T(M - sI) with a leading matrix T carrying denominators."""

    @given(st.integers(0, 2**32), st.sampled_from(["jordan", "quadratic", "cubic"]),
           st.booleans(), st.sampled_from(["sA-B", "A-sB"]))
    @settings(max_examples=80, deadline=None)
    def test_matches_exact_division(self, seed, kind, coupled, orientation):
        rng = random.Random(seed)
        if kind == "jordan":
            M = conjugated_jordan(rng, rng.randint(1, 6), denominators=(1,))
        else:
            g = rng.choice(QUADRATICS if kind == "quadratic" else CUBICS)
            copies = rng.randint(2, 3) if kind == "quadratic" else 2
            d = g.degree()

            def coupling():
                return [[rng.randint(-1, 1) if coupled else 0 for _ in range(d)]
                        for _ in range(d)]

            U = unimodular(rng, d * copies)
            M = U @ RatMatrix.from_rows(repeated_companion(companion(g), copies, coupling)) \
                @ U.inverse()
        n = M.rows
        T = RatMatrix.diagonal([Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4))
                                for _ in range(n)]) @ unimodular(rng, n)
        if orientation == "sA-B":
            pencil = Pencil(T, T @ M, orientation)
        else:
            pencil = Pencil(T @ M, T, orientation)
        assert _minor_divisibility(pencil) == minor_divisibility_by_exact_division(pencil)

    @pytest.mark.parametrize("g", [QUADRATICS[0], CUBICS[1]])
    @pytest.mark.parametrize("coupled", [False, True])
    def test_repeated_irreducible(self, g, coupled):
        # diag(C, C) is semisimple; [[C, I], [0, C]] has chains of length 2
        d = g.degree()
        M = RatMatrix.from_rows(repeated_companion(
            companion(g), 2, lambda: [[int(coupled and i == j) for j in range(d)]
                                      for i in range(d)]))
        ok, witness = is_diagonalizable(M)
        assert ok is not coupled
        assert witness.records == ((g, 2, not coupled),)
        assert witness == MinorDivisibility(
            minor_divisibility_by_exact_division(Pencil.similarity(M)).records)


class TestInertia:
    def test_indefinite_2x2(self):
        rep = inertia(RatMatrix.from_rows([[1, 2], [2, 1]]))
        assert rep.signature == (1, 1, 0)
        assert rep.method == "minor-formula"
        assert rep.minor_sequence == (-3, 1, 1)

    def test_identity(self):
        rep = inertia(RatMatrix.identity(4))
        assert rep.signature == (4, 0, 0)

    def test_note23_semidefinite(self):
        rep = inertia(NOTE23)
        assert rep.signature == (2, 0, 1)
        assert rep.method == "congruence-fallback"

    def test_methods_agree_on_randoms(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 5)
            sym = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    sym[i][j] = sym[j][i] = Fraction(rng.randint(-5, 5))
            M = RatMatrix.from_rows(sym)
            assert inertia(M).signature == congruence_signature(M)

    def test_congruence_invariance(self):
        rng = random.Random(3)
        M = RatMatrix.from_rows([[1, 2, 0], [2, -1, 1], [0, 1, 5]])
        base = inertia(M).signature
        for _ in range(10):
            while True:
                S = RatMatrix.from_rows(
                    [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
                )
                if S.det() != 0:
                    break
            assert inertia(S.transpose() @ M @ S).signature == base

    def test_non_symmetric_rejected(self):
        with pytest.raises(PreconditionError):
            inertia(RatMatrix.from_rows([[0, 1], [0, 0]]))

    @pytest.mark.parametrize("rows, definite", [
        ([], 1),  # the 0 x 0 form is positive definite
        ([[2, 1], [1, 2]], 1),
        ([[-2, 1], [1, -2]], -1),
        ([[1, 2], [2, 1]], 0),
        ([[1, 1], [1, 1]], 0),  # singular positive semidefinite
        ([[-1, 0], [0, 0]], 0),  # singular negative semidefinite
    ])
    def test_definite(self, rows, definite):
        M = RatMatrix.from_rows(rows) if rows else RatMatrix.zeros(0, 0)
        assert inertia(M).definite == definite

    def test_zero_leading_minor_forces_fallback(self):
        M = RatMatrix.from_rows([[0, 1], [1, 0]])
        rep = inertia(M)
        assert rep.method == "congruence-fallback"
        assert rep.signature == (1, 1, 0)


@st.composite
def sparse_symmetric(draw):
    """Symmetric n x n forms, n <= 6, mostly singular and mostly without
    squares: diagonals mostly zero, small off-diagonal entries, and often one
    index repeating another, so that zero pivots, symmetric swaps, Lagrange's
    add step and zero rows all occur."""
    n = draw(st.integers(0, 6))
    diagonal = st.sampled_from([0, 0, 0, 0, 1, -1, Fraction(1, 3)])
    off = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 3), Fraction(-2, 3)])
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(diagonal if i == j else off)
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        for k in range(n):
            a[j][k] = a[i][k]
        for k in range(n):
            a[k][j] = a[k][i]
    return RatMatrix.from_rows(a)


class TestInertiaAgainstCongruenceOracle:
    """The symmetric Bareiss pass against the Fraction congruence diagonal,
    and its method against leading minors by cofactor expansion."""

    @given(sparse_symmetric())
    @example(RatMatrix.from_entries(0, 0, []))
    @example(RatMatrix.zeros(4, 4))
    @example(RatMatrix.from_rows([[0, 1], [1, 0]]))
    @example(RatMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
    @settings(max_examples=300, deadline=None)
    def test_signature_and_method(self, M):
        rep = inertia(M)
        assert rep.signature == congruence_signature(M)
        rows = M.to_rows()
        minors = [cofactor_det_rat(RatMatrix.from_rows([r[:k] for r in rows[:k]]))
                  for k in range(1, M.rows + 1)]
        assert (rep.method == "minor-formula") == all(minors)
        assert rep.minor_sequence == (*minors[::-1], 1)


class TestDarbouxSteps:
    def test_distinct_diagonal(self):
        steps = darboux_signature_steps(RatMatrix.diagonal([1, 2]))
        assert [(r.value, j) for r, j in steps] == [(1, -1), (2, -1)]

    def test_note23(self):
        steps = darboux_signature_steps(NOTE23)
        assert [(r.value, j) for r, j in steps] == [(0, -1), (1, -1), (3, -1)]

    def test_double_eigenvalue(self):
        steps = darboux_signature_steps(RatMatrix.diagonal([2, 2]))
        assert [(r.value, j) for r, j in steps] == [(2, -2)]

    def test_jumps_match_multiplicities(self):
        M = RatMatrix.diagonal([1, 1, 1, 4])
        steps = darboux_signature_steps(M)
        assert [(r.value, j) for r, j in steps] == [(1, -3), (4, -1)]

    def test_irrational_eigenvalues(self):
        M = RatMatrix.from_rows([[1, 1], [1, 2]])
        steps = darboux_signature_steps(M)
        assert [j for _, j in steps] == [-1, -1]
        assert all(not r.is_exact for r, _ in steps)


@st.composite
def symmetric_with_denominators(draw):
    """Symmetric n x n forms, n <= 5, small entries over denominators up to 6."""
    n = draw(st.integers(0, 5))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(entry)
    return RatMatrix.from_rows(a)


class TestDarbouxAgainstFractionSamples:
    """The classical pencil M - s*I gives the roots and every sample, and
    agrees with the similarity pencil's roots and Fraction samples."""

    @given(st.one_of(symmetric_with_denominators(), sparse_symmetric()))
    @example(RatMatrix.from_entries(0, 0, []))
    @example(RatMatrix.diagonal([Fraction(1, 2), Fraction(1, 2), Fraction(-1, 3)]))
    @settings(max_examples=80, deadline=None)
    def test_matches_fraction_samples(self, M):
        assert darboux_signature_steps(M) == darboux_steps_by_fractions(M)
