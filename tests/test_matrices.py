import random
import types
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secular import matrices
from secular.errors import PreconditionError
from secular.invariants import inertia
from secular.matrices import (
    ORIENTATIONS,
    Pencil,
    RatMatrix,
    _linear_combination,
    _nullspace,
    _rref,
    adjugate_pencil,
    det_pencil,
    det_rational,
)
from secular.oscillate import build_model
from secular.polynomials import Poly, squarefree_decompose
from secular.spectral import _principal_part

from oracles import (
    char_matrix_by_fractions,
    char_poly_matrix_by_fractions,
    cofactor_adjugate_poly,
    cofactor_adjugate_rat,
    cofactor_det_poly,
    cofactor_det_rat,
    conjugated_jordan,
    float_char_matrix_by_fractions,
    inverse_by_cofactors,
    leading_minors_by_blocks,
    linear_combination_by_fractions,
    matmul_by_fractions,
    nullspace_by_fractions,
    poly_matmul,
    rank_by_fractions,
    spectral_projectors_by_bezout,
    transpose_by_fractions,
)

NOTE23 = RatMatrix.from_rows([[1, -1, 0], [-1, 2, 1], [0, 1, 1]])


def random_pencils(rng, sizes, kinds=("integer", "rational", "singular-leading")):
    """Seeded pencils of every size, kind (see `sympy_case`) and orientation."""
    for n in sizes:
        for kind in kinds:
            for orientation in ORIENTATIONS:
                yield Pencil(*sympy_case(rng, kind, n, orientation), orientation)


def assert_adjugate_identity(pencil):
    """P @ adj P = det P * I for the characteristic matrix P."""
    n, P = pencil.size, pencil.char_matrix()
    prod = poly_matmul(P, adjugate_pencil(pencil))
    d = pencil.char_poly()
    assert not d.is_zero()
    for i in range(n):
        for j in range(n):
            assert prod.entry(i, j) == (d if i == j else Poly())


class TestRationalDet:
    def test_identity(self):
        assert det_rational(RatMatrix.identity(3)) == 1

    def test_two_by_two(self):
        assert det_rational(RatMatrix.from_rows([[1, 2], [2, 1]])) == -3

    def test_singular_symmetric(self):
        assert det_rational(NOTE23) == 0

    def test_non_square_rejected(self):
        with pytest.raises(PreconditionError):
            det_rational(RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    @given(
        st.lists(
            st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
                     min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=50)
    def test_matches_cofactor_oracle(self, rows):
        M = RatMatrix.from_rows(rows)
        assert det_rational(M) == cofactor_det_rat(M)


class TestPencilDet:
    def test_note23_classical(self):
        p = Pencil.classical(NOTE23).char_poly()
        assert p == Poly([0, -3, 4, -1])

    def test_repeated_identity(self):
        p = Pencil.similarity(RatMatrix.identity(2)).char_poly()
        assert p == Poly([1, -2, 1])

    def test_two_form_pencil(self):
        phi = RatMatrix.from_rows([[2, 1], [1, 2]])
        p = Pencil(phi, RatMatrix.identity(2), "sA-B").char_poly()
        assert p == Poly([1, -4, 3])

    def test_interpolation_matches_cofactor_oracle(self):
        dropped = 0
        for pencil in random_pencils(random.Random(7), (1, 2, 3, 4)):
            d = det_pencil(pencil)
            assert d == cofactor_det_poly(pencil.char_matrix())
            dropped += 0 <= d.degree() < pencil.size
        assert dropped >= 4

    def test_zero_row_shortcut(self):
        # a zero row in the characteristic matrix
        Z, R = RatMatrix.zeros(2, 2), RatMatrix.from_rows([[0, 0], [1, 1]])
        for pencil in (Pencil(Z, R, "sA-B"), Pencil(R, Z, "A-sB")):
            assert det_pencil(pencil).is_zero()


class TestAdjugate:
    def test_diag_pencil(self):
        adj = adjugate_pencil(Pencil.similarity(RatMatrix.identity(2)))
        assert adj.entry(0, 0) == Poly([-1, 1])
        assert adj.entry(1, 1) == Poly([-1, 1])
        assert adj.entry(0, 1).is_zero() and adj.entry(1, 0).is_zero()

    def test_note23_top_left(self):
        adj = adjugate_pencil(Pencil.classical(NOTE23))
        # first column evaluated at a root is an eigenvector
        assert adj.entry(0, 0) == Poly([1, -3, 1])
        assert adj.entry(1, 0) == Poly([1, -1])
        assert adj.entry(2, 0) == Poly([-1])

    def test_identity_on_random_pencils(self):
        for pencil in random_pencils(random.Random(23), (1, 2, 3, 4)):
            assert_adjugate_identity(pencil)

    def test_symmetric_pencil_symmetric_adjugate(self):
        phi = RatMatrix.from_rows([[2, 1], [1, 2]])
        assert adjugate_pencil(Pencil(phi, RatMatrix.identity(2), "sA-B")).is_symmetric()

    def test_identity_beyond_former_size_cap(self):
        rng = random.Random(41)
        for n in (9, 10):
            A = RatMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            )
            B = RatMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            )
            pencil = Pencil(A, B, "sA-B")
            assert pencil.char_poly().degree() == n
            assert_adjugate_identity(pencil)


def random_rank_matrix(rng, n, rank):
    """n x n rational matrix of exactly the given rank, as L @ R."""
    while True:
        L = RatMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(n)]
        )
        R = RatMatrix.from_rows(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(rank)]
        )
        M = L @ R if rank else RatMatrix.zeros(n, n)
        if M.rank() == rank:
            return M


class TestAdjugateAgainstCofactorOracle:
    def test_rational_adjugate_and_inverse_by_rank(self):
        rng = random.Random(13)
        for n in range(1, 6):
            for rank in sorted({n, n - 1, max(n - 2, 0), 0}):
                for _ in range(4):
                    M = random_rank_matrix(rng, n, rank)
                    expected = cofactor_adjugate_rat(M)
                    got = M.adjugate()
                    assert got == expected
                    assert all(type(v) is Fraction for v in got.entries)
                    if rank == n:
                        d = cofactor_det_rat(M)
                        assert M.inverse() == expected.scale(1 / d)
                    else:
                        with pytest.raises(PreconditionError, match="singular"):
                            M.inverse()

    def test_pencil_adjugate_with_zero_rows_and_rank_loss(self):
        # zero or equal rows in the leading matrix drop the degree of the
        # determinant; in both matrices they make the pencil singular
        rng = random.Random(29)
        singular = 0
        for trial in range(90):
            n = rng.randint(1, 4)
            orientation = ORIENTATIONS[trial % 2]
            lead, other = (
                [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                 for _ in range(n)]
                for _ in range(2)
            )
            both = trial % 5 == 0
            if n > 1 and trial % 3 == 0:
                k = rng.randrange(n)
                lead[k] = [Fraction(0)] * n
                if both:
                    other[k] = [Fraction(0)] * n
            if n > 2 and trial % 3 == 1:
                lead[0] = list(lead[1])
                if both:
                    other[0] = list(other[1])
            A, B = (lead, other) if orientation == "sA-B" else (other, lead)
            pencil = Pencil(RatMatrix.from_rows(A), RatMatrix.from_rows(B), orientation)
            P = pencil.char_matrix()
            if cofactor_det_poly(P).is_zero():
                singular += 1
                with pytest.raises(PreconditionError, match="singular pencil"):
                    adjugate_pencil(pencil)
            else:
                assert adjugate_pencil(pencil) == cofactor_adjugate_poly(P)
        assert singular >= 5


class TestPencilDerivedData:
    def test_cached_data_leaves_equality_and_hash_alone(self):
        fresh, used = Pencil.classical(NOTE23), Pencil.classical(NOTE23)
        used.char_poly(), used.roots(), adjugate_pencil(used)
        assert fresh == used and hash(fresh) == hash(used)
        assert len({fresh, used}) == 1

    def test_traced_methods_stay_plain_functions(self):
        # bench/tracer.py wraps these class __dict__ entries as functions
        for cls, name in ((Poly, "evaluate"), (Pencil, "char_poly"),
                          (RatMatrix, "adjugate")):
            assert isinstance(cls.__dict__[name], types.FunctionType), name

    def test_roots_returns_a_fresh_list(self):
        pencil = Pencil.classical(NOTE23)
        first = pencil.roots()
        first.clear()
        assert [r.value for r in pencil.roots()] == [0, 1, 3]
        assert pencil.roots() is not pencil.roots()

    def test_roots_per_width(self):
        # eigenvalues (5 +- sqrt(5)) / 2
        pencil = Pencil.similarity(RatMatrix.from_rows([[2, 1], [1, 3]]))
        coarse, fine = pencil.roots(Fraction(1, 10)), pencil.roots()
        assert all(r.hi - r.lo < Fraction(1, 10) for r in coarse)
        assert all(r.hi - r.lo < Fraction(1, 10**30) for r in fine)
        assert coarse != fine

    def test_singular_pencil_rejected(self):
        Z = RatMatrix.zeros(2, 2)
        with pytest.raises(
            PreconditionError, match=r"singular pencil \(determinant identically zero\)"
        ):
            Pencil(Z, Z).roots()

    def test_singular_pencil_adjugate_rejected(self):
        Z = RatMatrix.zeros(2, 2)
        A = RatMatrix.from_rows([[1, 0], [0, 0]])
        for pencil in (Pencil(Z, Z), Pencil(A, A, "A-sB")):
            with pytest.raises(
                PreconditionError, match=r"singular pencil \(determinant identically zero\)"
            ):
                adjugate_pencil(pencil)

    def test_adjugate_matches_adjugate_pencil(self):
        # the Taylor coefficients that `_adjugate_taylor` reads off the
        # integer adjugate, over its one denominator, are those of the
        # `PolyMatrix` that `adjugate_pencil` divides out, at every order
        for pencil in (Pencil.classical(NOTE23),
                       Pencil(NOTE23, RatMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]]))):
            for s in (Fraction(0), Fraction(2), Fraction(-5, 3)):
                den, coeffs = pencil._adjugate_taylor(s, 4)
                assert [[Fraction(c, den) for c in cs] for cs in coeffs] == [
                    entry.taylor(s, 3) for entry in adjugate_pencil(pencil).entries
                ]


def sympy_case(rng, kind, n, orientation):
    """Seeded (A, B) for the characteristic-polynomial differential test.

    kinds: "integer", "rational", "singular-leading" (the matrix multiplying
    s kills a dense v, so the determinant drops degree), "zero" (A v = B v =
    0: the determinant is identically zero).
    """

    def entry():
        if kind == "integer":
            return Fraction(rng.randint(-9, 9))
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    def dense():
        return [[entry() for _ in range(n)] for _ in range(n)]

    def annihilate(rows, v, k):
        # rows - (rows v) e_k^T maps v (with v[k] = 1) to zero
        Mv = [sum(a * b for a, b in zip(r, v)) for r in rows]
        return [[x - Mv[i] * (j == k) for j, x in enumerate(r)]
                for i, r in enumerate(rows)]

    A, B = dense(), dense()
    if kind in ("singular-leading", "zero"):
        k = rng.randrange(n)
        v = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        v[k] = Fraction(1)
        if kind == "zero" or orientation == "sA-B":
            A = annihilate(A, v, k)
        if kind == "zero" or orientation == "A-sB":
            B = annihilate(B, v, k)
    return RatMatrix.from_rows(A), RatMatrix.from_rows(B)


def sympy_char_poly(A: RatMatrix, B: RatMatrix, orientation: str) -> list[Fraction]:
    """Coefficients, lowest first, of sympy's det(s*A - B) or det(A - s*B),
    by fraction-free elimination over QQ[s], not interpolation."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    s = sympy.symbols("s")
    ring = sympy.QQ[s]
    n = A.rows
    a, b = (
        sympy.Matrix(n, n, [sympy.Rational(v.numerator, v.denominator) for v in M.entries])
        for M in (A, B)
    )
    char = s * a - b if orientation == "sA-B" else a - s * b
    want = sympy.Poly(ring.to_sympy(DomainMatrix.from_Matrix(char).convert_to(ring).det()), s)
    return [] if want.is_zero else [
        Fraction(int(c.p), int(c.q)) for c in reversed(want.all_coeffs())
    ]


class TestCharPolyAgainstSympy:
    """Pencil.char_poly equals sympy's det(s*A - B) or det(A - s*B) exactly."""

    def test_char_poly_matches(self):
        rng = random.Random(11)
        kinds = ("integer", "rational", "singular-leading", "zero")
        degree_dropped = zero = 0
        for n in range(1, 6):
            for kind in kinds:
                for orientation in ("sA-B", "A-sB"):
                    A, B = sympy_case(rng, kind, n, orientation)
                    got = Pencil(A, B, orientation).char_poly()
                    assert list(got.coeffs) == sympy_char_poly(A, B, orientation), (
                        n, kind, orientation)
                    degree_dropped += 0 <= got.degree() < n
                    zero += got.is_zero()
        assert degree_dropped >= 10 and zero >= 10


def tridiagonal_case(rng, n):
    """A seeded non-symmetric tridiagonal matrix with rational entries, about
    a third of them zero, on and off the diagonal."""
    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    return RatMatrix.from_rows(
        [[entry() if abs(i - j) <= 1 else 0 for j in range(n)] for i in range(n)])


class TestTridiagonalContinuant:
    """A pencil whose two matrices vanish outside |i - j| <= 1 (a loaded
    string's, any pencil of size 2 or less) takes its determinant from the
    three-term recurrence of its leading minors, with no Bareiss
    determinant and no interpolation."""

    def test_matches_sympy(self, monkeypatch):
        monkeypatch.setattr(matrices, "_bareiss", None)  # a call would fail
        rng = random.Random(23)
        zero_diagonal = zero_off_diagonal = 0
        for n in range(9):
            for orientation in ORIENTATIONS:
                for _ in range(3):
                    A, B = tridiagonal_case(rng, n), tridiagonal_case(rng, n)
                    got = Pencil(A, B, orientation).char_poly()
                    assert list(got.coeffs) == sympy_char_poly(A, B, orientation), (
                        n, orientation, A, B)
                    zero_diagonal += any(
                        A.entry(i, i) == B.entry(i, i) == 0 for i in range(n))
                    zero_off_diagonal += any(
                        A.entry(i, i + 1) == B.entry(i, i + 1) == 0 for i in range(n - 1))
        assert zero_diagonal >= 5 and zero_off_diagonal >= 5

    def test_one_entry_outside_the_band_interpolates(self, monkeypatch):
        calls = []
        bareiss = matrices._bareiss
        monkeypatch.setattr(matrices, "_bareiss", lambda *a: calls.append(1) or bareiss(*a))
        rng = random.Random(24)
        for orientation in ORIENTATIONS:
            for i, j in ((0, 2), (3, 0), (1, 4)):
                A, B = tridiagonal_case(rng, 5), tridiagonal_case(rng, 5)
                rows = A.to_rows() if orientation == "sA-B" else B.to_rows()
                rows[i][j] = Fraction(rng.choice([-2, -1, 1, 2]), 3)
                if orientation == "sA-B":
                    A = RatMatrix.from_rows(rows)
                else:
                    B = RatMatrix.from_rows(rows)
                calls.clear()
                got = Pencil(A, B, orientation).char_poly()
                assert calls == [1] * 6  # Bareiss at k = 0..5
                assert list(got.coeffs) == sympy_char_poly(A, B, orientation)

    def test_loaded_string_12(self, deadline):
        # the determinant and the twelve roots at the default width, which
        # take a few tens of milliseconds, under a deadline
        model = build_model("loaded-string", {"n": 12, "a": Fraction(3, 2)})
        deadline(2.0)
        f, roots = model.pencil().char_poly(), model.pencil().roots()
        deadline(0)
        assert list(f.coeffs) == sympy_char_poly(model.mass, model.stiffness, "sA-B")
        assert len(roots) == 12 and not any(r.is_exact for r in roots)


def transpose_check(P: Pencil) -> bool:
    """det of a pencil equals det of its entrywise transpose."""
    transposed = Pencil(P.A.transpose(), P.B.transpose(), P.orientation)
    return P.char_poly() == transposed.char_poly()


class TestTranspose:
    def test_random_pencil(self):
        rng = random.Random(5)
        for _ in range(5):
            A = RatMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            )
            B = RatMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            )
            assert transpose_check(Pencil(A, B, "sA-B"))

    def test_symmetric_and_note23(self):
        assert transpose_check(Pencil.classical(NOTE23))
        phi = RatMatrix.from_rows([[2, 1], [1, 2]])
        assert transpose_check(Pencil(phi, RatMatrix.identity(2), "sA-B"))


class TestRatMatrixAlgebra:
    def test_nullspace_rank(self):
        # det(NOTE23) = 0: one-dimensional kernel along (1, 1, -1)
        basis = NOTE23.nullspace()
        assert len(basis) == 1
        assert NOTE23.apply(basis[0]) == (0, 0, 0)
        assert NOTE23.rank() == 2

    def test_adjugate_identity(self):
        M = RatMatrix.from_rows([[1, 2], [3, 4]])
        prod = M @ M.adjugate()
        assert prod == RatMatrix.diagonal([-2, -2])

    def test_inverse(self):
        M = RatMatrix.from_rows([[1, 2], [3, 4]])
        assert M @ M.inverse() == RatMatrix.identity(2)

    def test_leading_principal_minors(self):
        assert NOTE23.leading_principal_minors() == [1, 1, 0]

    def test_symmetry_compared_once(self):
        compared = []

        class Counted(tuple):
            def __getitem__(self, k):
                compared.append(k)
                return tuple.__getitem__(self, k)

        M = RatMatrix.from_rows([[1, 2], [2, 1]])
        vars(M)["nums"] = Counted(M.nums)
        assert M.is_symmetric() and compared
        compared.clear()
        assert M.is_symmetric() and not compared


def random_rat_matrix(rng, n, span=9, symmetric=False):
    """Random rational entries; row i over the denominator i + 2 times a
    random factor, so rows carry different denominators."""
    rows = [[Fraction(rng.randint(-span, span), (i + 2) * rng.randint(1, 5))
             for _ in range(n)] for i in range(n)]
    if symmetric:
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return RatMatrix.from_rows(rows)


def same_floats(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape and equal bits, so that -0.0 and 0.0 differ too."""
    return a.shape == b.shape and np.array_equal(a, b) and a.tobytes() == b.tobytes()


class TestFloatCharMatrix:
    """`Pencil.evaluate_float` rounds the exact characteristic matrix once
    per entry, exactly as the Fraction matrix converted to floats."""

    def test_matches_fraction_matrix(self):
        rng = random.Random(909)
        for trial in range(60):
            n = rng.randint(1, 6)
            A = random_rat_matrix(rng, n, symmetric=trial % 2 == 0)
            B = random_rat_matrix(rng, n, symmetric=trial % 2 == 0)
            bits = rng.randint(100, 160)
            points = [
                Fraction(rng.getrandbits(bits) - 2 ** (bits - 1), 2**bits),
                Fraction(rng.getrandbits(bits) - 2 ** (bits - 1), rng.getrandbits(bits) | 1),
                Fraction(rng.randint(-5, 5)),
            ]
            for orientation in ("sA-B", "A-sB"):
                pencil = Pencil(A, B, orientation)
                for x in points:
                    got = pencil.evaluate_float(x)
                    assert same_floats(got, float_char_matrix_by_fractions(pencil, x))

    def test_root_midpoints_of_a_loaded_string(self):
        from secular.oscillate import build_model
        from secular.spectral import _root_point

        pencil = build_model("loaded-string", {"n": 6, "a": Fraction(3, 2)}).pencil()
        for root in pencil.roots():
            x = _root_point(root)
            assert x.denominator.bit_length() >= 100
            got = pencil.evaluate_float(x)
            assert same_floats(got, float_char_matrix_by_fractions(pencil, x))

    @pytest.mark.parametrize("orientation", ["sA-B", "A-sB"])
    @pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(10**20 + 1, 7)])
    def test_overflow_where_the_fraction_path_overflows(self, orientation, x):
        huge = Fraction(10**400)
        pencil = Pencil(RatMatrix.from_rows([[2, huge], [huge, 3]]),
                        RatMatrix.identity(2), orientation)
        with pytest.raises(OverflowError):
            float_char_matrix_by_fractions(pencil, x)
        with pytest.raises(OverflowError):
            pencil.evaluate_float(x)

    def test_large_but_finite_entries(self):
        # 1e300 * 1e10 overflows, 1e300 / 1e10 does not: the same entries
        # round or raise on both paths
        big = Fraction(10**300)
        pencil = Pencil(RatMatrix.from_rows([[big, 1], [1, big]]),
                        RatMatrix.from_rows([[1, big], [big, 1]]), "sA-B")
        small = Fraction(1, 10**10)
        assert same_floats(pencil.evaluate_float(small),
                           float_char_matrix_by_fractions(pencil, small))
        for call in (pencil.evaluate_float, lambda x: float_char_matrix_by_fractions(pencil, x)):
            with pytest.raises(OverflowError):
                call(Fraction(10**10))


mixed_fractions = st.one_of(
    st.integers(-20, 20).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=-2, max_value=2, max_denominator=10**12),
)


def rat_matrices(rows, cols):
    return st.lists(mixed_fractions, min_size=rows * cols, max_size=rows * cols).map(
        lambda vs: RatMatrix.from_entries(rows, cols, vs))


shapes = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


class TestIntegerKernelsAgainstFractionOracles:
    """Products, linear combinations, rank, nullspace and the characteristic
    matrix at a point run in integers over one common denominator; the
    Fraction definitions in `oracles` give the same results."""

    @given(shapes.flatmap(lambda s: st.tuples(rat_matrices(s[0], s[1]),
                                              rat_matrices(s[1], s[2]))))
    @settings(max_examples=50)
    def test_product(self, operands):
        A, B = operands
        got = A @ B
        assert (got.rows, got.cols) == (A.rows, B.cols)
        assert all(type(v) is Fraction for v in got.entries)
        if A.rows:
            assert got == matmul_by_fractions(A, B)
        else:
            # from_rows([]) cannot tell the oracle's column count
            assert got.entries == matmul_by_fractions(A, B).entries == ()
        # a matrix-vector product is the product with one column
        for j in range(B.cols):
            image = A.apply(B.col(j))
            assert image == got.col(j) and all(type(v) is Fraction for v in image)

    def test_product_shape_mismatch(self):
        with pytest.raises(PreconditionError, match="shape mismatch"):
            RatMatrix.zeros(2, 3) @ RatMatrix.zeros(2, 3)

    @given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 4)).flatmap(
        lambda s: st.tuples(st.lists(mixed_fractions, min_size=s[2], max_size=s[2]),
                            st.lists(rat_matrices(s[0], s[1]), min_size=s[2],
                                     max_size=s[2]))))
    @settings(max_examples=40)
    def test_linear_combination(self, case):
        weights, matrices = case
        assert (_linear_combination(weights, matrices)
                == linear_combination_by_fractions(weights, matrices))

    @given(shapes.flatmap(lambda s: st.tuples(rat_matrices(s[0], s[1]),
                                              rat_matrices(s[1], s[2]))),
           st.booleans())
    @settings(max_examples=60)
    def test_rank_and_nullspace(self, factors, low_rank):
        # a product through an inner dimension below both sides has deficient
        # rank, so free columns sit between pivot columns
        A, B = factors
        M = A @ B if low_rank else A
        assert M.rank() == rank_by_fractions(M)
        basis = M.nullspace()
        assert basis == nullspace_by_fractions(M)
        assert all(type(x) is Fraction for v in basis for x in v)

    @given(st.tuples(st.integers(1, 4), st.integers(0, 4)).flatmap(
        lambda s: st.tuples(rat_matrices(s[0], s[0]), rat_matrices(s[0], min(s)),
                            rat_matrices(min(s), s[0]))),
           st.sampled_from(ORIENTATIONS), mixed_fractions)
    @settings(max_examples=60)
    def test_nullspace_of_pencil_rows_at_a_root(self, case, orientation, s):
        # the characteristic matrix at s is planted as X @ Y, of rank at most
        # the inner dimension, so s is a root whenever that is below n
        M, X, Y = case
        N = X @ Y
        if orientation == "sA-B":
            pencil = Pencil(M, M.scale(s) - N, orientation)
        else:
            pencil = Pencil(N + M.scale(s), M, orientation)
        basis = [tuple(Fraction(v, d) for v in ints)
                 for d, ints in _nullspace(pencil._numerators(s)[1], pencil.size)]
        assert basis == nullspace_by_fractions(char_matrix_by_fractions(pencil, s))
        assert len(basis) >= pencil.size - X.cols

    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(rat_matrices(n, n),
                                                         rat_matrices(n, n))),
           st.sampled_from(ORIENTATIONS),
           st.one_of(st.just(Fraction(0)), mixed_fractions))
    @settings(max_examples=50)
    def test_characteristic_matrix_at_a_point(self, AB, orientation, s):
        pencil = Pencil(*AB, orientation)
        got = pencil.evaluate(s)
        assert got == char_matrix_by_fractions(pencil, s)
        assert all(type(v) is Fraction for v in got.entries)


def assert_integer_form(got: RatMatrix, want: RatMatrix) -> None:
    """got is in lowest terms, den > 0 and gcd(den, *nums) = 1, and equals the
    oracle's matrix entry by entry, in equality and in its hash."""
    assert type(got.nums) is tuple and all(type(v) is int for v in got.nums)
    assert got.den > 0 and gcd(got.den, *got.nums) == 1
    assert (got.rows, got.cols, got.entries) == (want.rows, want.cols, want.entries)
    assert got == want and hash(got) == hash(want)


class TestIntegerModelPerMatrix:
    """A matrix is its integer form (den, nums) in lowest terms, and every
    kernel returns that form: the outputs equal their Fraction oracles and
    compare and hash equal however they were reached.  The kernels that
    eliminate in place take fresh integer rows, so running every kernel in
    turn on one instance changes none of its results."""

    @given(shapes.flatmap(lambda s: st.tuples(rat_matrices(s[0], s[1]),
                                              rat_matrices(s[1], s[2]),
                                              rat_matrices(s[0], s[1]))),
           mixed_fractions)
    @settings(max_examples=60)
    def test_products_combinations_and_entrywise_kernels(self, operands, c):
        A, B, C = operands
        for got, want in [
            (A @ B, matmul_by_fractions(A, B)),
            (_linear_combination([c, 1, -c], [A, C, C]),
             linear_combination_by_fractions([c, 1, -c], [A, C, C])),
            (A + C, linear_combination_by_fractions([1, 1], [A, C])),
            (A - C, linear_combination_by_fractions([1, -1], [A, C])),
            (A.scale(0), RatMatrix.zeros(A.rows, A.cols)),
            (A.scale(-abs(c)), linear_combination_by_fractions([-abs(c)], [A])),
            (A.scale(c), linear_combination_by_fractions([c], [A])),
            (-A, linear_combination_by_fractions([-1], [A])),
            (A.transpose(), transpose_by_fractions(A)),
        ]:
            assert_integer_form(got, want)

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(rat_matrices(n, n),
                                                         rat_matrices(n, n))),
           st.sampled_from(ORIENTATIONS), mixed_fractions)
    @settings(max_examples=60)
    def test_inverse_adjugate_and_pencil_values(self, MN, orientation, s):
        M, N = MN
        assert_integer_form(M.adjugate(), cofactor_adjugate_rat(M))
        if cofactor_det_rat(M):
            assert_integer_form(M.inverse(), inverse_by_cofactors(M))
        pencil = Pencil(M, N, orientation)
        assert_integer_form(pencil.evaluate(s), char_matrix_by_fractions(pencil, s))

    @given(st.integers(0, 2**32), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_principal_parts(self, seed, n):
        # R_k = N^k P at each eigenvalue sigma, P the Bezout projector and
        # N = (M - sigma I) P, as many terms as the longest Jordan chain
        M = conjugated_jordan(random.Random(seed), n)
        eye = RatMatrix.identity(n)
        for sigma, m, chain, P in spectral_projectors_by_bezout(M):
            N = matmul_by_fractions(linear_combination_by_fractions([1, -sigma], [M, eye]), P)
            want = [P]
            while len(want) < chain:
                want.append(matmul_by_fractions(N, want[-1]))
            got = _principal_part(Pencil.similarity(M), sigma, m)
            assert len(got) == chain
            for term, oracle in zip(got, want):
                assert_integer_form(term, oracle)

    def test_equal_matrices_by_any_route(self):
        half, two, one = (RatMatrix.from_rows([[Fraction(1, 2)]]),
                          RatMatrix.from_rows([[2]]), RatMatrix.identity(1))
        routes = [half @ two, two.scale(Fraction(1, 2)), half + half, two - one, -(-one),
                  half.inverse().scale(Fraction(1, 2)), half.adjugate(),
                  RatMatrix.from_entries(1, 1, ["2/2"]), RatMatrix.diagonal([Fraction(3, 3)]),
                  Pencil.similarity(RatMatrix.zeros(1, 1)).evaluate(1),
                  RatMatrix.from_rows([[Fraction(1, 6), 2], [3, 4]]).submatrix([0], [0]).scale(6)]
        assert all(M == one and hash(M) == hash(one) for M in routes)
        assert len(set(routes)) == 1
        assert all((M.den, M.nums) == (1, (1,)) for M in routes)

    @pytest.mark.parametrize("rows", [
        [[Fraction(1, 2), 2, 0], [2, Fraction(-1, 3), 1], [0, 1, 5]],
        [[0, 1, 2], [1, 1, 0], [2, 0, 1]],
        [[1, -1, 0], [-1, 2, 1], [0, 1, 1]],
        [[0, Fraction(1, 2), 0], [Fraction(1, 2), 0, 0], [0, 0, 0]],
    ], ids=["nonsingular", "zero-first-pivot", "note23", "zero-row"])
    def test_kernels_in_sequence_match_a_fresh_matrix(self, rows):
        other = RatMatrix.from_rows([[Fraction(i - j, i + j + 1) for j in range(3)]
                                     for i in range(3)])
        kernels = [
            ("inertia", lambda M: inertia(M).signature),
            ("det", RatMatrix.det),
            ("rank", RatMatrix.rank),
            ("nullspace", RatMatrix.nullspace),
            ("inverse", lambda M: M.inverse() if M.det() else None),
            ("leading minors", RatMatrix.leading_principal_minors),
            ("products", lambda M: (M @ M, M @ other, other @ M)),
            ("combination", lambda M: _linear_combination([2, Fraction(-1, 3)], [M, other])),
            ("apply", lambda M: M.apply(other.row(1))),
        ]
        M = RatMatrix.from_rows(rows)
        for _ in range(2):
            for name, kernel in kernels:
                assert kernel(M) == kernel(RatMatrix.from_rows(rows)), name


class TestPencilIntegerForm:
    """A pencil reads its orientation once, into P(s) = (s*X + Y) / L; in
    both orientations the characteristic matrix, its integer rows at a
    point, its determinant (the continuant when banded) and the nullity of
    its rows at the roots of a factor are those of the Fraction oracles."""

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(rat_matrices(n, n),
                                                         rat_matrices(n, n))),
           st.sampled_from(ORIENTATIONS), st.booleans(), mixed_fractions)
    @settings(max_examples=60)
    def test_char_matrix_numerators_and_determinant(self, AB, orientation, banded, s):
        if banded:  # zero outside |i - j| <= 1: the continuant gives det
            AB = [RatMatrix.from_rows([[v if abs(i - j) <= 1 else 0 for j, v in enumerate(row)]
                                       for i, row in enumerate(M.to_rows())]) for M in AB]
        pencil = Pencil(*AB, orientation)
        P = char_poly_matrix_by_fractions(pencil)
        assert pencil.char_matrix() == P
        d, rows = pencil._numerators(s)
        assert (tuple([Fraction(x, d) for row in rows for x in row])
                == char_matrix_by_fractions(pencil, s).entries)
        assert det_pencil(pencil) == cofactor_det_poly(P)

    @given(st.integers(0, 2**32), st.integers(1, 4), st.sampled_from(ORIENTATIONS))
    @settings(max_examples=40, deadline=None)
    def test_factor_rows_nullity(self, seed, n, orientation):
        # S(sI - M) or its negation, M with rational eigenvalues: the nullity
        # of the rows at the roots of each square-free factor is the sum of
        # the kernel dimensions there
        rng = random.Random(seed)
        M = conjugated_jordan(rng, n)
        S = RatMatrix.from_rows([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                  for _ in range(n)] for _ in range(n)])
        if not cofactor_det_rat(S):
            S = RatMatrix.identity(n)
        pencil = Pencil(S, S @ M) if orientation == "sA-B" else Pencil(S @ M, S, "A-sB")
        roots = [r.value for r in pencil.roots()]
        # the kernel cache keys a root p/q by its factor (-p, q): the rows agree
        for r in roots:
            assert pencil._factor_rows((-r.numerator, r.denominator)) == pencil._numerators(r)[1]
        for factor, _mult in squarefree_decompose(pencil.char_poly()):
            g = factor.prim
            rows = pencil._factor_rows(g)
            size = n * (len(g) - 1)
            assert size - len(_rref(rows, size)) == sum(
                len(nullspace_by_fractions(char_matrix_by_fractions(pencil, r)))
                for r in roots if factor.evaluate(r) == 0)


def with_zero_leading_minor(M: RatMatrix, k: int) -> RatMatrix:
    """M with its diagonal entry k - 1 shifted so that the leading k x k
    minor vanishes; the minor is linear in that entry with slope the
    leading (k - 1) x (k - 1) minor, and the shift keeps M symmetric."""
    rows, minors = M.to_rows(), [Fraction(1)] + leading_minors_by_blocks(M)
    rows[k - 1][k - 1] -= minors[k] / minors[k - 1]
    return RatMatrix.from_rows(rows)


class TestLeadingMinors:
    """Leading minors are the pivots of one Bareiss pass, and block
    determinants only after a zero pivot."""

    def test_matches_block_determinants(self):
        rng = random.Random(2024)
        for trial in range(80):
            n = rng.randint(1, 7)
            M = random_rat_matrix(rng, n, symmetric=trial % 2 == 0)
            assert M.leading_principal_minors() == leading_minors_by_blocks(M)

    def test_zero_leading_minor_at_every_position(self):
        rng = random.Random(77)
        for symmetric in (True, False):
            for n in range(1, 7):
                for k in range(1, n + 1):
                    while True:
                        M = random_rat_matrix(rng, n, symmetric=symmetric)
                        if all(leading_minors_by_blocks(M)):
                            break
                    M = with_zero_leading_minor(M, k)
                    assert M.is_symmetric() or not symmetric
                    expected = leading_minors_by_blocks(M)
                    assert expected[k - 1] == 0
                    assert M.leading_principal_minors() == expected

    def test_integer_and_empty_matrices(self):
        assert RatMatrix.from_rows([]).leading_principal_minors() == []
        M = RatMatrix.from_rows([[0, 1], [1, 0]])
        assert M.leading_principal_minors() == [0, -1]

    def test_no_block_determinant_unless_a_minor_vanishes(self, monkeypatch):
        import secular.matrices as matrices

        calls = []
        det = matrices.det_rational
        monkeypatch.setattr(matrices, "det_rational", lambda M: calls.append(M) or det(M))
        string = RatMatrix.from_rows(
            [[3, -1, 0], [-1, 5, -2], [0, -2, 5]])
        assert string.leading_principal_minors() == [3, 14, 58]
        assert calls == []
        assert NOTE23.leading_principal_minors() == [1, 1, 0]
        assert calls == []
        singular_first = RatMatrix.from_rows([[0, 1, 2], [1, 1, 0], [2, 0, 1]])
        assert singular_first.leading_principal_minors() == [0, -1, -5]
        assert len(calls) == 2
