import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secular.errors import InternalError, PathUnavailableError, PreconditionError
from secular.matrices import Pencil, RatMatrix, _bilinear
from secular.polynomials import Poly
from secular.realroots import RealRoot, refine_root, sturm_isolate
from secular.spectral import (
    FLOAT_ROOT_WIDTH,
    _gram_schmidt_exact,
    _gram_schmidt_float,
    _principal_part,
    adjugate_eigenvector,
    cauchy_orthogonality,
    char_roots,
    nullspace_at_root,
    q_factor,
    spectral_decompose,
)

from oracles import (
    adjugate_eigenvector_by_poly_evaluate,
    bilinear_by_fractions,
    cayley_orthogonal,
    cofactor_adjugate_rat,
    poly_from_roots,
)

NOTE23 = RatMatrix.from_rows([[1, -1, 0], [-1, 2, 1], [0, 1, 1]])


def companion(p: Poly) -> RatMatrix:
    p = p.monic()
    n = p.degree()
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = Fraction(1)
    for i in range(n):
        rows[i][n - 1] = -p[i]
    return RatMatrix.from_rows(rows)


class TestCharRoots:
    def test_note23(self):
        roots = char_roots(Pencil.classical(NOTE23))
        assert [r.value for r in roots] == [0, 1, 3]

    def test_identity_pair(self):
        roots = char_roots(Pencil(RatMatrix.identity(3), RatMatrix.identity(3)))
        assert [(r.value, r.multiplicity) for r in roots] == [(1, 3)]

    def test_decoupled_ratios(self):
        pencil = Pencil(RatMatrix.diagonal([1, 2]), RatMatrix.diagonal([2, 1]))
        roots = char_roots(pencil)
        assert [r.value for r in roots] == [Fraction(1, 2), 2]

    def test_singular_rejected(self):
        Z = RatMatrix.zeros(2, 2)
        with pytest.raises(PreconditionError):
            char_roots(Pencil(Z, Z))


class TestAdjugateEigenvector:
    def test_note23_all_roots(self):
        pencil = Pencil.classical(NOTE23)
        roots = char_roots(pencil)
        expected = {0: (1, 1, -1), 1: (1, 0, 1), 3: (1, -2, -1)}
        for root in roots:
            v = adjugate_eigenvector(pencil, root)
            assert v == expected[root.value]
            # exact eigen relation (A - s I) v = 0
            residual = (NOTE23 - RatMatrix.identity(3).scale(root.value)).apply(v)
            assert residual == (0, 0, 0)

    def test_exact_vector_of_a_nonsymmetric_pencil(self):
        # the adjugate is not symmetric here: the vector is a column, and
        # solves the eigen relation exactly at the roots 1/2, 3 and -1
        M = RatMatrix.from_rows([[Fraction(1, 2), 1, 0], [0, 3, 2], [0, 0, -1]])
        for pencil in (Pencil.similarity(M), Pencil.classical(M)):
            for root in char_roots(pencil):
                v = adjugate_eigenvector(pencil, root, path="exact")
                assert pencil.evaluate(root.value).apply(v) == (0, 0, 0)
                assert v == adjugate_eigenvector_by_poly_evaluate(pencil, root)

    def test_degenerate_root_detected(self):
        pencil = Pencil.classical(RatMatrix.identity(2))
        root = char_roots(pencil)[0]
        with pytest.raises(PreconditionError, match="nullspace_at_root"):
            adjugate_eigenvector(pencil, root)

    def test_adjugate_columns_proportional(self):
        # any two non-null adjugate columns at a simple root are parallel
        pencil = Pencil.classical(NOTE23)
        for root in char_roots(pencil):
            adj = pencil.evaluate(root.value).adjugate()
            cols = [adj.col(j) for j in range(3)]
            nonnull = [c for c in cols if any(x != 0 for x in c)]
            ref = nonnull[0]
            for c in nonnull[1:]:
                assert ref[0] * c[1] == ref[1] * c[0]
                assert ref[0] * c[2] == ref[2] * c[0]

    def test_exact_path_requires_rational_root(self):
        M = RatMatrix.from_rows([[0, 1], [1, 1]])  # golden-ratio roots
        pencil = Pencil.classical(M)
        root = char_roots(pencil)[0]
        with pytest.raises(PathUnavailableError):
            adjugate_eigenvector(pencil, root, path="exact")
        v = adjugate_eigenvector(pencil, root, path="float")
        Mf = pencil.evaluate(root.approx()).to_numpy()
        import numpy as np

        assert float(np.max(np.abs(Mf @ np.array(v)))) < 1e-9

    def test_float_vector_is_normalized_adjugate_column(self):
        import numpy as np

        rng = random.Random(17)
        pencils = [Pencil.classical(RatMatrix.from_rows([[0, 1], [1, 1]]))]
        for n in (3, 4, 5):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randint(-4, 4)
            pencils.append(Pencil.similarity(RatMatrix.from_rows(rows)))
        checked = 0
        for pencil in pencils:
            for root in char_roots(pencil):
                if root.is_exact or root.multiplicity > 1:
                    continue
                point = refine_root(root, FLOAT_ROOT_WIDTH).approx()
                adj = cofactor_adjugate_rat(pencil.evaluate(point)).to_numpy()
                scale = np.max(np.abs(adj))
                col = next(
                    adj[:, j] for j in range(adj.shape[1])
                    if np.max(np.abs(adj[:, j])) > 1e-10 * scale
                )
                col = col / np.linalg.norm(col)
                if col[np.argmax(np.abs(col) > 1e-10)] < 0:
                    col = -col
                v = adjugate_eigenvector(pencil, root, path="float")
                assert float(np.max(np.abs(np.array(v) - col))) <= 1e-12
                checked += 1
        assert checked >= 8


class TestPrincipalPart:
    # a Jordan block of size 2 at 2 (with the entry 1/2) and a simple root 3
    DEFECTIVE = RatMatrix.from_rows([[2, Fraction(1, 2), 0], [0, 2, 0], [0, 0, 3]])

    def test_projector_and_nilpotent_term(self):
        pencil = Pencil.similarity(self.DEFECTIVE)
        P, N = _principal_part(pencil, Fraction(2), 2)
        assert P == RatMatrix.diagonal([1, 1, 0])
        assert P @ P == P
        assert N == (self.DEFECTIVE - RatMatrix.identity(3).scale(2)) @ P
        assert _principal_part(pencil, Fraction(3), 1) == [RatMatrix.diagonal([0, 0, 1])]

    def test_orientation_negates_the_resolvent(self):
        # M - sI = -(sI - M): every term changes sign
        for s, m in ((Fraction(2), 2), (Fraction(3), 1)):
            assert _principal_part(Pencil.classical(self.DEFECTIVE), s, m) == [
                -T for T in _principal_part(Pencil.similarity(self.DEFECTIVE), s, m)
            ]


class TestNullspaceAtRoot:
    def test_full_eigenspace(self):
        pencil = Pencil(RatMatrix.identity(3), RatMatrix.identity(3))
        root = char_roots(pencil)[0]
        basis = nullspace_at_root(pencil, root)
        assert len(basis) == 3

    def test_jordan_block_single_vector(self):
        pencil = Pencil.classical(companion(poly_from_roots([1, 1])))
        root = char_roots(pencil)[0]
        assert root.multiplicity == 2
        basis = nullspace_at_root(pencil, root)
        assert len(basis) == 1

    def test_note23_root3(self):
        pencil = Pencil.classical(NOTE23)
        root = char_roots(pencil)[2]
        basis = nullspace_at_root(pencil, root)
        assert len(basis) == 1
        v = basis[0]
        assert v[1] / v[0] == -2 and v[2] / v[0] == -1


class TestCauchyOrthogonality:
    def test_note23_euclidean(self):
        dec = spectral_decompose(Pencil.classical(NOTE23))
        report = cauchy_orthogonality(dec, RatMatrix.identity(3))
        assert report.ok and report.max_violation == 0
        assert report.pairs_checked == 3

    def test_single_root_vacuous(self):
        dec = spectral_decompose(Pencil(RatMatrix.identity(2), RatMatrix.identity(2)))
        report = cauchy_orthogonality(dec, RatMatrix.identity(2))
        assert report.ok and report.pairs_checked == 0

    def test_random_symmetric_4x4_distinct_rational_roots(self):
        # symmetric matrix with planted spectrum via a rational orthogonal Q
        Q = cayley_orthogonal(
            [
                [0, 1, -2, 0],
                [-1, 0, 1, 1],
                [2, -1, 0, -1],
                [0, -1, 1, 0],
            ]
        )
        assert Q.transpose() @ Q == RatMatrix.identity(4)
        D = RatMatrix.diagonal([1, 2, 3, 5])
        M = Q.transpose() @ D @ Q
        assert M.is_symmetric()
        dec = spectral_decompose(Pencil.classical(M))
        assert [r.value for r in dec.roots] == [1, 2, 3, 5]
        report = cauchy_orthogonality(dec, RatMatrix.identity(4))
        assert report.ok and report.max_violation == 0

    def test_float_path_repeated_irrational_roots(self):
        # B = diag(C, C), C = [[1, 1], [1, 0]]: the roots (1 -+ sqrt 5)/2 are
        # double, so Gram-Schmidt projects the second vector of each SVD
        # nullspace and the check runs on floats
        import numpy as np

        C = [[1, 1], [1, 0]]
        B = RatMatrix.from_rows([row + [0, 0] for row in C] + [[0, 0] + row for row in C])
        dec = spectral_decompose(Pencil(RatMatrix.identity(4), B))
        assert dec.path == "float"
        assert [r.multiplicity for r in dec.roots] == [2, 2]
        assert [len(vs) for vs in dec.vectors] == [2, 2]
        report = cauchy_orthogonality(dec, B)
        assert report.ok and report.pairs_checked == 4
        V = np.array([v for vs in dec.vectors for v in vs])
        assert np.allclose(V @ V.T, np.eye(4), rtol=0, atol=1e-12)


mixed_fractions = st.one_of(
    st.integers(-20, 20),
    st.integers(-20, 20).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=-2, max_value=2, max_denominator=10**12),
)


class TestBilinearAgainstFractionOracle:
    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(
        st.lists(mixed_fractions, min_size=n * n, max_size=n * n),
        st.lists(mixed_fractions, min_size=n, max_size=n),
        st.lists(mixed_fractions, min_size=n, max_size=n))))
    @settings(max_examples=50)
    def test_matches_fraction_sum(self, case):
        # vectors mix ints and Fractions with unrelated denominators
        entries, v, w = case
        n = len(v)
        B = RatMatrix.from_entries(n, n, entries)
        got = _bilinear(B, v, w)
        assert type(got) is Fraction
        assert got == bilinear_by_fractions(B, v, w)


class TestQFactor:
    def test_cubic_deflation(self):
        p = Poly([0, 3, -4, 1])  # x(x-1)(x-3)
        root = RealRoot.exact(Fraction(1), Poly([-1, 1]))
        qf = q_factor(p, root)
        assert qf.deflated_value == -2
        assert qf.scale == 1

    def test_linear(self):
        qf = q_factor(Poly([-5, 1]), RealRoot.exact(Fraction(5), Poly([-5, 1])))
        assert qf.deflated_value == 1

    def test_quadratic(self):
        qf = q_factor(
            poly_from_roots([2, 3]), RealRoot.exact(Fraction(2), Poly([-2, 1]))
        )
        assert qf.deflated_value == -1

    def test_multiple_root_rejected(self):
        p = poly_from_roots([2, 2])
        root = RealRoot.exact(Fraction(2), Poly([-2, 1]), multiplicity=2)
        with pytest.raises(PreconditionError, match="Jordan"):
            q_factor(p, root)

    def test_irrational_root_float_value(self):
        p = Poly([-2, 0, 1])  # x^2 - 2
        for root in sturm_isolate(p):
            x = refine_root(root, FLOAT_ROOT_WIDTH).approx()
            assert q_factor(p, root).deflated_value == float(p.derivative().evaluate(x))

    @given(
        st.fractions(min_value=-6, max_value=6, max_denominator=4),
        st.lists(
            st.fractions(min_value=-6, max_value=6, max_denominator=4),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=50)
    def test_deflation_equals_derivative(self, r, others):
        if r in others:
            return
        p = poly_from_roots([r] + others)
        root = RealRoot.exact(r, Poly([-r, 1]))
        qf = q_factor(p, root)
        assert qf.deflated_value == p.derivative().evaluate(r)


class TestSpectralDecompose:
    def test_exact_residuals(self):
        pencil = Pencil.classical(NOTE23)
        dec = spectral_decompose(pencil)
        assert dec.path == "exact"
        for root, vecs in zip(dec.roots, dec.vectors):
            M0 = pencil.evaluate(root.value)
            for v in vecs:
                assert M0.apply(v) == (0, 0, 0)

    def test_repeated_root_orthogonalized(self):
        pencil = Pencil(RatMatrix.identity(3), RatMatrix.identity(3))
        dec = spectral_decompose(pencil)
        vecs = dec.vectors[0]
        assert len(vecs) == 3
        for i in range(3):
            for j in range(i + 1, 3):
                dot = sum(a * b for a, b in zip(vecs[i], vecs[j]))
                assert dot == 0

    def test_geometric_multiplicity_consistency(self):
        # sum of geometric multiplicities = n iff diagonalizable
        from secular.invariants import is_diagonalizable

        for M in (NOTE23, companion(poly_from_roots([1, 1])), RatMatrix.identity(2)):
            pencil = Pencil.similarity(M)
            roots = char_roots(pencil)
            geo = sum(len(nullspace_at_root(pencil, r)) for r in roots)
            assert (geo == M.rows) == is_diagonalizable(M)[0]


@st.composite
def weighted_bases(draw):
    """(W, basis): W = +-L L^T definite, L lower triangular with a positive
    diagonal, and 1..n vectors (den, ints) in dimension n <= 4, with
    denominators up to 10^15."""
    n = draw(st.integers(1, 4))
    big = st.integers(1, 10**15)
    entry = st.integers(-10**9, 10**9)
    L = [[Fraction(draw(st.integers(1, 10**9) if i == j else entry), draw(big)) if j <= i else 0
          for j in range(n)] for i in range(n)]
    sign = draw(st.sampled_from([1, -1]))
    W = RatMatrix.from_rows([[sign * sum(a * b for a, b in zip(L[i], L[j])) for j in range(n)]
                             for i in range(n)])
    basis = [(draw(big), tuple(draw(st.lists(entry, min_size=n, max_size=n))))
             for _ in range(draw(st.integers(1, n)))]
    return W, basis


class TestExactGramSchmidt:
    """The integer Gram-Schmidt over a kernel basis gives the vectors and
    norms of the Fraction one, exactly, and fails where it fails."""

    @given(weighted_bases())
    @example((RatMatrix.identity(2), [(1, (1, 0)), (1, (0, 3))]))  # orthogonal already
    @example((-RatMatrix.identity(2), [(3, (1, 2)), (7, (1, 2))]))  # equal directions
    @example((RatMatrix.identity(2), [(5, (2, -1)), (5, (2, -1))]))  # equal vectors
    @example((RatMatrix.identity(3), [(1, (0, 0, 0))]))  # the zero vector
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_oracle(self, case):
        from oracles import gram_schmidt_by_fractions

        W, basis = case
        vectors = [[Fraction(a, den) for a in v] for den, v in basis]
        try:
            want = gram_schmidt_by_fractions(vectors, W)
        except InternalError:
            with pytest.raises(InternalError, match="degenerate weight norm"):
                _gram_schmidt_exact(basis, W)
            return
        assert _gram_schmidt_exact(basis, W) == want

    def test_decomposition_matches_the_fraction_oracle(self):
        # repeated roots of a planted positive and a negated pair
        from oracles import gram_schmidt_by_fractions

        S = RatMatrix.from_rows([[1, 1, 0, 2], [0, 1, 2, -1], [-1, 0, 1, 3], [0, 0, 1, 1]])
        St = S.transpose()
        phi = St @ RatMatrix.diagonal([3, Fraction(1, 2), 5, 7]) @ S
        psi = St @ RatMatrix.diagonal([6, 1, 10, -7]) @ S
        for pencil in (Pencil(phi, psi), Pencil(-phi, -psi)):
            dec = spectral_decompose(pencil, path="exact")
            assert [r.multiplicity for r in dec.roots] == [1, 3]
            for root, vectors, norms in zip(dec.roots, dec.vectors, dec.sq_norms):
                want = gram_schmidt_by_fractions(nullspace_at_root(pencil, root), pencil.leading())
                assert (list(vectors), list(norms)) == want


class TestUnknownPath:
    """Every entry point that takes a path applies one rule, and an unknown
    path is refused whatever the roots."""

    @pytest.mark.parametrize("call", [
        lambda p, r: adjugate_eigenvector(p, r, path="bogus"),
        lambda p, r: nullspace_at_root(p, r, path="bogus"),
        lambda p, r: spectral_decompose(p, path="bogus"),
    ], ids=["adjugate_eigenvector", "nullspace_at_root", "spectral_decompose"])
    @pytest.mark.parametrize("matrix", [NOTE23, RatMatrix.from_rows([[1, 1], [1, 2]])],
                             ids=["exact-roots", "irrational-roots"])
    def test_rejected(self, call, matrix):
        pencil = Pencil.similarity(matrix)
        root = char_roots(pencil)[0]
        with pytest.raises(PreconditionError, match="unknown arithmetic path 'bogus'"):
            call(pencil, root)

    def test_exact_on_an_irrational_root_is_unavailable(self):
        pencil = Pencil.similarity(RatMatrix.from_rows([[1, 1], [1, 2]]))
        root = char_roots(pencil)[0]
        for call in (lambda: adjugate_eigenvector(pencil, root, path="exact"),
                     lambda: nullspace_at_root(pencil, root, path="exact"),
                     lambda: spectral_decompose(pencil, path="exact")):
            with pytest.raises(PathUnavailableError, match="a characteristic root is irrational"):
                call()


@pytest.fixture
def pencil_work(monkeypatch):
    """Counts of the determinants, integer pencil adjugates and root
    isolations that `secular.matrices` runs, keyed by function name."""
    import secular.matrices as matrices

    counts = dict.fromkeys(("det_pencil", "_int_adjugate_pencil", "sturm_isolate"), 0)
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(matrices, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(matrices, name, counted)
    return counts


class TestPencilWorkDoneOnce:
    """A model or pair hands out one pencil, and the pencil computes its
    determinant, roots and adjugate once however many callers read them."""

    def test_modal_model(self, pencil_work, monkeypatch):
        import secular.polynomials as polynomials
        import secular.realroots as realroots
        from secular.oscillate import (
            InitialConditions,
            build_model,
            classify_stability,
            frequency_poly_in_rho,
            solve_modal,
        )

        # a string's pencil counts its roots by its leading minors: no
        # pseudo-remainder sequence is built
        chains = []
        for module in (polynomials, realroots):
            monkeypatch.setattr(module, "_prs", lambda *args, _prs=module._prs: (
                chains.append(args) or _prs(*args)))
        model = build_model("loaded-string", {"n": 4, "a": 1})
        solve_modal(model, InitialConditions.of([1, 0, 0, 0], [0, 0, 0, 1]))
        assert classify_stability(model).corrected == "stable"
        frequency_poly_in_rho(model)
        assert pencil_work == {"det_pencil": 1, "_int_adjugate_pencil": 0, "sturm_isolate": 1}
        assert len(chains) == 0

    def test_string_root_refined_in_one_pass(self, monkeypatch):
        # each irrational root of the 12-mass string starts one quadratic
        # refinement, which the rational test pauses and the target width
        # resumes; no root is narrowed twice from its isolating interval
        import secular.realroots as realroots
        from secular.oscillate import build_model

        starts, resumes = [], []
        qir = realroots._qir

        def counted(cs, a, b, d, k, state=None):
            (resumes if state else starts).append((a, b, d))
            return qir(cs, a, b, d, k, state)

        monkeypatch.setattr(realroots, "_qir", counted)
        roots = build_model("loaded-string", {"n": 12, "a": Fraction(3, 2)}).pencil().roots()
        assert len(roots) == 12 and not any(r.is_exact for r in roots)
        assert len(starts) == 12 and len(set(starts)) == 12
        assert sorted(resumes) == sorted(starts)

    def test_modal_inertia(self, monkeypatch):
        # solve_modal, char_roots and classify_stability all ask for the mass
        # matrix's inertia, classify_stability for the stiffness matrix's too
        from secular.oscillate import (
            InitialConditions,
            build_model,
            classify_stability,
            solve_modal,
        )

        import secular.invariants as invariants

        passes = []
        one_pass = invariants._inertia
        monkeypatch.setattr(invariants, "_inertia",
                            lambda M: passes.append(M) or one_pass(M))
        model = build_model("loaded-string", {"n": 4, "a": 1})
        solve_modal(model, InitialConditions.of([1, 0, 0, 0], [0, 0, 0, 1]))
        assert classify_stability(model).corrected == "stable"
        assert len(passes) == 2
        assert passes[0] is model.mass and passes[1] is model.stiffness

    def test_modal_float_path_builds_no_fraction_matrix(self, monkeypatch):
        # the irrational roots of a loaded string take the float path, whose
        # characteristic matrix comes from the pencil's integer model
        from secular.oscillate import InitialConditions, build_model, solve_modal

        def refuse(*args, **kwargs):
            raise AssertionError("Fraction matrix built on the float path")

        monkeypatch.setattr(Pencil, "evaluate", refuse)
        monkeypatch.setattr(RatMatrix, "scale", refuse)
        model = build_model("loaded-string", {"n": 4, "a": 1})
        sol = solve_modal(model, InitialConditions.of([1, 0, 0, 0], [0, 0, 0, 1]))
        assert sol.path == "float" and len(sol.modes) == 4

    @pytest.mark.parametrize("rows, verdict", [
        # the defective 4x4 matrix of the CI console-script step: chains of
        # length 2 at the roots of the double square-free factor (x-2)(x-3)
        ([[2, 1, 0, 0], [0, 2, 0, 1], [0, 0, 3, "1/2"], [0, 0, 0, 3]], False),
        # diag(C, C) with C = [[1, 1], [1, 0]]: the double factor x^2 - x - 1
        ([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 0]], True),
    ])
    def test_diagonalizable_builds_no_adjugate(self, pencil_work, rows, verdict):
        from secular.invariants import is_diagonalizable

        ok, witness = is_diagonalizable(RatMatrix.from_rows(rows))
        assert ok is verdict and len(witness.records) == 1
        assert pencil_work == {"det_pencil": 1, "_int_adjugate_pencil": 0, "sturm_isolate": 0}

    def test_checked_pair(self, pencil_work):
        from secular.quadpairs import (
            QuadraticPair,
            remarkable_circumstance_check,
            theta_components,
        )

        pair = QuadraticPair.checked(
            RatMatrix.from_rows([[2, 1, 0], [1, 2, 0], [0, 0, 1]]),
            RatMatrix.from_rows([[2, 1, 0], [1, 2, 0], [0, 0, 3]]),
        )
        assert remarkable_circumstance_check(pair).ok
        assert theta_components(pair).path == "exact"
        assert spectral_decompose(pair.pencil()).path == "exact"
        # the double root 1 reads its kernel, for the circumstance and for theta
        assert pencil_work == {"det_pencil": 1, "_int_adjugate_pencil": 0, "sturm_isolate": 1}

    @staticmethod
    def eliminations(monkeypatch) -> list[int]:
        """The column count of every `_rref` call from now on, counted in
        every module that binds the name, however it imports it."""
        import secular.invariants as invariants
        import secular.matrices as matrices
        import secular.quadpairs as quadpairs
        import secular.spectral as spectral

        counts = []
        real = matrices._rref
        for module in (matrices, invariants, quadpairs, spectral):
            if hasattr(module, "_rref"):
                monkeypatch.setattr(module, "_rref", lambda m, ncols: (
                    counts.append(ncols) or real(m, ncols)))
        return counts

    def test_planted_pair_eliminates_once_per_root(self, monkeypatch):
        # the exact-structure sequence on Phi = S^T S, Psi = S^T diag(2, 2, -1) S
        # (the plantedpair.json document of the CI console-script step): the
        # circumstance check, theta, the spectral vectors and the eigenvector
        # call read one kernel per root
        from secular.quadpairs import (
            QuadraticPair,
            remarkable_circumstance_check,
            theta_components,
            verify_theorem,
        )

        eliminations = self.eliminations(monkeypatch)
        pair = QuadraticPair.checked(
            RatMatrix.from_rows([[2, 1, -1], [1, 2, 2], [-1, 2, 5]]),
            RatMatrix.from_rows([[1, 2, 1], [2, 4, 4], [1, 4, 7]]),
        )
        assert remarkable_circumstance_check(pair).ok
        dec = theta_components(pair)
        assert verify_theorem(dec, pair).ok
        spec = spectral_decompose(pair.pencil(), path="exact")
        for root, vectors in zip(spec.roots, spec.vectors):
            assert len(nullspace_at_root(pair.pencil(), root)) == len(vectors)
        assert [(r.value, r.multiplicity) for r in spec.roots] == [(-1, 1), (2, 2)]
        assert eliminations == [3, 3]

    def test_nonsemisimple_eliminates_once(self, monkeypatch):
        # the nonsemisimple.json matrix of the CI console-script step,
        # [[C, I], [0, C]] with C = [[1, 1], [1, 0]] and determinant
        # (x^2 - x - 1)^2: one elimination of 4 * 2 columns over Q[x]/(x^2 - x - 1)
        from secular.invariants import is_diagonalizable

        eliminations = self.eliminations(monkeypatch)
        M = RatMatrix.from_rows([[1, 1, 1, 0], [1, 0, 0, 1], [0, 0, 1, 1], [0, 0, 1, 0]])
        ok, witness = is_diagonalizable(M)
        assert not ok and witness.records == ((Poly([-1, -1, 1]), 2, False),)
        assert eliminations == [8]


JACOBI_ENTRY = st.one_of(st.integers(-60, 60), st.builds(Fraction, st.integers(-60, 60), st.integers(1, 4)))
JACOBI_SUB = st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 8))
JACOBI_MASS = st.builds(Fraction, st.integers(1, 12), st.integers(1, 4))


@st.composite
def jacobi_pencils(draw):
    """An "sA-B" pencil with A positive diagonal and B symmetric tridiagonal
    with nonzero sub-diagonal, or the "A-sB" pencil (-B) - s(-A) with the
    same characteristic matrix (the "jacobi-A-sB" kind of
    test_realroots.py); sizes 1..12.  A wide diagonal beside a small
    sub-diagonal gives modes that decay by many orders along the string."""
    n = draw(st.integers(1, 12))
    a = [draw(JACOBI_MASS) for _ in range(n)]
    diag = [draw(JACOBI_ENTRY) for _ in range(n)]
    sub = [draw(JACOBI_SUB) for _ in range(n - 1)]
    A = RatMatrix.diagonal(a)
    B = RatMatrix.from_rows([[diag[i] if i == j else sub[min(i, j)] if abs(i - j) == 1 else 0
                              for j in range(n)] for i in range(n)])
    return Pencil(-B, -A, "A-sB") if draw(st.booleans()) else Pencil(A, B, "sA-B")


def mpmath_shapes(pencil: Pencil):
    """The mass-normalised mode shapes (|v^T W v| = 1, W the leading matrix,
    first entry positive) of a Jacobi pencil in increasing order of its
    roots, from a 50-digit symmetric eigensolver: with P(s) = (s*X + Y) / L
    and X diagonal, the roots are the eigenvalues of -X^(-1/2) Y X^(-1/2)
    and the shapes sqrt(L) X^(-1/2) u."""
    import mpmath

    L, X, Y = pencil._int_model
    n = pencil.size
    with mpmath.workdps(50):
        roots = [mpmath.sqrt(X[k][k]) for k in range(n)]
        C = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                C[i, j] = -mpmath.mpf(Y[i][j]) / (roots[i] * roots[j])
        E, U = mpmath.eigsy(C)
        shapes = []
        for k in sorted(range(n), key=lambda k: E[k]):
            v = [U[i, k] / roots[i] * mpmath.sqrt(L) for i in range(n)]
            shapes.append(v if v[0] > 0 else [-x for x in v])
    return shapes


# a wide diagonal and a sub-diagonal of 1/8: the modes decay by about 10^28
# along the string, where the forward recurrence v_k = (-1)^k P_k / (b_1 .. b_k)
# at the refined midpoint is wrong in the third digit
DECAYING = Pencil(RatMatrix.identity(12), RatMatrix.from_rows(
    [[(-1) ** i * 40 + i if i == j else Fraction(1, 8) if abs(i - j) == 1 else 0
      for j in range(12)] for i in range(12)]), "sA-B")


class TestJacobiNullVector:
    """A Jacobi pencil's float null vectors come from its integer minors:
    an exact adjugate column, correctly rounded once normalised, with no
    SVD and no numpy."""

    @given(jacobi_pencils())
    @example(DECAYING)
    @settings(max_examples=60, deadline=None)
    def test_mass_normalised_shapes_match_mpmath(self, pencil):
        import mpmath

        dec = spectral_decompose(pencil, path="float")
        assert dec.path == "float" and len(dec.roots) == pencil.size
        for (got,), ref in zip(dec.vectors, mpmath_shapes(pencil)):
            scale = max(abs(x) for x in ref)
            err = max(abs(mpmath.mpf(g) - x) for g, x in zip(got, ref))
            assert err <= 4 * 2.0**-52 * scale

    @given(jacobi_pencils())
    @example(DECAYING)
    @settings(max_examples=60, deadline=None)
    def test_against_svd_oracle(self, pencil):
        import numpy as np

        from oracles import float_char_matrix_by_fractions, null_vectors_by_svd

        for root in char_roots(pencil):
            (v,) = nullspace_at_root(pencil, root, path="float")
            assert adjugate_eigenvector(pencil, root, path="float") == v
            assert v[0] > 0 and abs(math.fsum(x * x for x in v) - 1) <= 1e-15
            (w,) = null_vectors_by_svd(pencil, root)
            # the SVD's own error: eps * |M| over the gap to the next
            # singular value; its sign rule reads the first entry above 1e-12
            M = float_char_matrix_by_fractions(pencil, refine_root(root, FLOAT_ROOT_WIDTH).approx())
            s = np.linalg.svd(M, compute_uv=False)
            tol = 64 * 2.0**-52 * s[0] / s[-2] if pencil.size > 1 else 0.0
            assert min(max(abs(x - y) for x, y in zip(v, w)),
                       max(abs(x + y) for x, y in zip(v, w))) <= tol

    @given(jacobi_pencils(), st.sampled_from([Fraction(1), Fraction(1, 1000), FLOAT_ROOT_WIDTH]))
    @example(Pencil.similarity(RatMatrix.from_rows([[2, 1, 0], [1, 2, 1], [0, 1, 2]])),
             FLOAT_ROOT_WIDTH)
    @settings(max_examples=60, deadline=None)
    def test_exact_adjugate_column(self, pencil, width):
        # M v = +-det(M) e_r exactly, with M = m*X + d*Y the integer rows at
        # the midpoint m/d (the root itself when it is rational): v is a
        # column of adj M, negated if need be to make its first entry positive
        from secular.matrices import _jacobi_null_vector

        _, X, Y = pencil._int_model
        for root in char_roots(pencil, width):
            x = root.approx()
            m, d = x.numerator, x.denominator
            rows = [[m * a + d * b for a, b in zip(ra, rb)] for ra, rb in zip(X, Y)]
            v = _jacobi_null_vector(pencil._jacobi, m, d)
            det = RatMatrix.from_rows(rows).det()  # Bareiss
            Mv = [sum(a * b for a, b in zip(row, v)) for row in rows]
            assert v[0] > 0
            assert sum(1 for y in Mv if y) == (det != 0)
            assert all(y in (0, det, -det) for y in Mv)
            if root.is_exact:
                assert Mv == [0] * pencil.size

    def test_dense_pencil_keeps_the_svd(self):
        # a full mass matrix is not Jacobi: the SVD oracle's vectors exactly
        from oracles import null_vectors_by_svd

        A = RatMatrix.from_rows([[2, 1, 0], [1, 3, 1], [0, 1, 2]])
        B = RatMatrix.from_rows([[1, 1, 1], [1, 2, 0], [1, 0, 5]])
        pencil = Pencil(A, B)
        assert pencil._jacobi is None
        for root in char_roots(pencil):
            assert nullspace_at_root(pencil, root, path="float") == null_vectors_by_svd(pencil, root)

    @given(jacobi_pencils())
    @settings(max_examples=30, deadline=None)
    def test_gram_schmidt_against_numpy_oracle(self, pencil):
        import numpy as np

        from oracles import gram_schmidt_by_numpy

        W = pencil.leading()
        for root in char_roots(pencil):
            basis = nullspace_at_root(pencil, root, path="float")
            got, norms = _gram_schmidt_float(basis, W.to_floats())
            want, _ = gram_schmidt_by_numpy(basis, W.to_numpy())
            assert norms == [1.0]
            assert np.allclose(got, want, rtol=0, atol=8 * 2.0**-52)
