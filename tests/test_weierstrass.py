import random
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secular.errors import PathUnavailableError, PreconditionError
from secular.invariants import inertia, minor_gcd_chain
from secular.matrices import RatMatrix, adjugate_pencil
from secular.polynomials import Poly
from secular.quadpairs import (
    QuadraticPair,
    ThetaComponent,
    ThetaDecomposition,
    _residue,
    remarkable_circumstance_check,
    theta_components,
    verify_theorem,
)
from secular.realroots import refine_root
from secular.spectral import FLOAT_ROOT_WIDTH, _principal_part, adjugate_eigenvector

from oracles import (
    adjugate_eigenvector_by_poly_evaluate,
    minor_divisibility_by_poly_divides,
    minor_gcd_chain_by_fraction_smith,
    residue_by_deflation,
    residue_by_integer_taylor,
    residue_by_poly_taylor,
    theta_components_by_negation,
)


def pair_of(phi_rows, psi_rows) -> QuadraticPair:
    return QuadraticPair.checked(
        RatMatrix.from_rows(phi_rows), RatMatrix.from_rows(psi_rows)
    )


def planted_pair(rng: random.Random, n: int, spectrum) -> tuple[QuadraticPair, dict]:
    """Construct (Phi, Psi) with known components.

    Phi = L^T L + I for a random integer L; a random basis is
    Phi-orthogonalized exactly, each direction w contributes the rank-one
    piece Phi w w^T Phi / (w^T Phi w), and Psi plants `spectrum` on those
    pieces.  Ground truth: theta at root s = sum of pieces with spectrum s.
    """
    while True:
        L = RatMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        )
        phi = L.transpose() @ L + RatMatrix.identity(n)
        basis = []
        candidate = [
            [Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)
        ]
        ok = True
        for raw in candidate:
            v = list(raw)
            for u in basis:
                num = _phi_dot(phi, u, v)
                den = _phi_dot(phi, u, u)
                c = num / den
                v = [a - c * b for a, b in zip(v, u)]
            if all(x == 0 for x in v):
                ok = False
                break
            basis.append(tuple(v))
        if ok:
            break
    pieces = []
    for w in basis:
        pw = phi.apply(w)
        norm = _phi_dot(phi, w, w)
        piece = RatMatrix.from_rows(
            [[pw[i] * pw[j] / norm for j in range(n)] for i in range(n)]
        )
        pieces.append(piece)
    psi = RatMatrix.zeros(n, n)
    truth: dict[Fraction, RatMatrix] = {}
    for s, piece in zip(spectrum, pieces):
        s = Fraction(s)
        psi = psi + piece.scale(s)
        truth[s] = truth.get(s, RatMatrix.zeros(n, n)) + piece
    return QuadraticPair.checked(phi, psi), truth


def _phi_dot(phi: RatMatrix, u, v) -> Fraction:
    pu = phi.apply(v)
    return sum((Fraction(a) * b for a, b in zip(u, pu)), Fraction(0))


class TestCircumstance:
    def test_identity_pair_double_root(self):
        report = remarkable_circumstance_check(
            pair_of([[1, 0], [0, 1]], [[1, 0], [0, 1]])
        )
        assert report.ok
        assert report.records[0][1] == 2

    def test_planted_double_root_diag(self):
        report = remarkable_circumstance_check(
            pair_of(
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[2, 0, 0], [0, 2, 0], [0, 0, 5]],
            )
        )
        assert report.ok
        mults = sorted(m for _, m, _ in report.records)
        assert mults == [1, 2]

    def test_random_planted_double(self):
        rng = random.Random(42)
        pair, _ = planted_pair(rng, 3, [2, 2, 5])
        assert remarkable_circumstance_check(pair).ok


class TestThetaComponents:
    def test_diagonal_split(self):
        dec = theta_components(pair_of([[1, 0], [0, 1]], [[3, 0], [0, 7]]))
        assert dec.path == "exact"
        thetas = {c.root.value: c.theta for c in dec.components}
        assert thetas[3] == RatMatrix.diagonal([1, 0])
        assert thetas[7] == RatMatrix.diagonal([0, 1])

    def test_multiple_root_without_branching(self):
        dec = theta_components(pair_of([[1, 0], [0, 1]], [[1, 0], [0, 1]]))
        assert len(dec.components) == 1
        c = dec.components[0]
        assert c.multiplicity == 2
        assert c.theta == RatMatrix.identity(2)

    def test_two_by_two_derived(self):
        pair = pair_of([[2, 1], [1, 2]], [[1, 0], [0, 1]])
        dec = theta_components(pair)
        assert [c.root.value for c in dec.components] == [Fraction(1, 3), 1]
        t1, t2 = (c.theta for c in dec.components)
        half = Fraction(1, 2)
        assert t1 == RatMatrix.from_rows([[3 * half, 3 * half], [3 * half, 3 * half]])
        assert t2 == RatMatrix.from_rows([[half, -half], [-half, half]])
        assert t1 + t2 == pair.phi
        assert t1.scale(Fraction(1, 3)) + t2 == pair.psi

    def test_scalar_pair(self):
        dec = theta_components(pair_of([[5]], [[3]]))
        assert dec.components[0].theta == RatMatrix.from_rows([[5]])
        assert dec.components[0].root.value == Fraction(3, 5)

    def test_planted_ground_truth(self):
        rng = random.Random(7)
        for spectrum in ([1, 2, 3], [2, 2, 5], [4, 4, 4]):
            pair, truth = planted_pair(rng, 3, spectrum)
            dec = theta_components(pair)
            assert dec.path == "exact"
            got = {c.root.value: c.theta for c in dec.components}
            assert got == truth

    def test_partial_fraction_completeness(self):
        rng = random.Random(19)
        pair, _ = planted_pair(rng, 3, [1, 2, 2])
        dec = theta_components(pair)
        phi_inv = pair.phi.inverse()
        sum_r = RatMatrix.zeros(3, 3)
        sum_sr = RatMatrix.zeros(3, 3)
        for c in dec.components:
            R = phi_inv @ c.theta @ phi_inv
            # residues kill the pencil at their root
            M0 = pair.phi.scale(c.root.value) - pair.psi
            assert M0 @ R == RatMatrix.zeros(3, 3)
            sum_r = sum_r + R
            sum_sr = sum_sr + R.scale(c.root.value)
        assert sum_r == phi_inv
        assert sum_sr == phi_inv @ pair.psi @ phi_inv

    def test_negative_definite_phi(self):
        pair = QuadraticPair.checked(
            RatMatrix.diagonal([-1, -2]), RatMatrix.diagonal([-3, -8])
        )
        assert pair.definiteness == "negative"
        dec = theta_components(pair)
        total = RatMatrix.zeros(2, 2)
        for c in dec.components:
            total = total + c.theta
            rep = inertia(-c.theta)
            assert rep.negatives == 0  # -theta is PSD for negative phi
        assert total == pair.phi
        assert [c.root.value for c in dec.components] == [3, 4]

    def test_indefinite_phi_rejected(self):
        # det(s*Phi - Psi) = -s^2 - 1 has complex roots; the pair is refused
        # up front rather than silently computed
        phi = RatMatrix.diagonal([1, -1])
        psi = RatMatrix.from_rows([[0, 1], [1, 0]])
        from secular.matrices import Pencil

        assert Pencil(phi, psi, "sA-B").char_poly() == Poly([-1, 0, -1])
        with pytest.raises(PreconditionError, match="definite"):
            QuadraticPair.checked(phi, psi)
        with pytest.raises(PreconditionError, match="definite"):
            QuadraticPair.checked(RatMatrix.diagonal([1, -1]), RatMatrix.identity(2))

    def test_exact_path_unavailable_for_irrational_roots(self):
        pair = pair_of([[1, 0], [0, 1]], [[1, 1], [1, 2]])
        with pytest.raises(PathUnavailableError):
            theta_components(pair, path="exact")
        dec = theta_components(pair)
        assert dec.path == "float"
        report = verify_theorem(dec, pair)
        assert report.ok

    def test_negative_definite_float_path(self):
        # negative phi with irrational pencil roots takes the floating
        # residue path on the pair's own pencil
        pair = QuadraticPair.checked(
            RatMatrix.diagonal([-1, -1]), RatMatrix.from_rows([[-1, -1], [-1, -2]])
        )
        assert pair.definiteness == "negative"
        dec = theta_components(pair)
        assert dec.path == "float"
        report = verify_theorem(dec, pair)
        assert report.ok

    def test_unknown_path_rejected(self):
        pair = pair_of([[1, 0], [0, 1]], [[3, 0], [0, 7]])
        with pytest.raises(PreconditionError, match="unknown arithmetic path 'bogus'"):
            theta_components(pair, path="bogus")

    def test_negative_pair_builds_one_determinant_and_no_adjugate(self, monkeypatch):
        # the circumstance check, the reduction and its verification all read
        # the one pencil s*Phi - Psi of the pair, whatever the sign of Phi,
        # and the double root's kernel stands in for the adjugate
        import secular.matrices as matrices

        positive, _ = planted_pair(random.Random(5), 3, [2, 2, 5])
        pair = QuadraticPair.checked(-positive.phi, -positive.psi)
        assert pair.definiteness == "negative"
        calls = {"det_pencil": 0, "_int_adjugate_pencil": 0}
        for name in calls:
            def counted(pencil, real=getattr(matrices, name), name=name):
                calls[name] += 1
                return real(pencil)

            monkeypatch.setattr(matrices, name, counted)
        assert remarkable_circumstance_check(pair).ok
        dec = theta_components(pair)
        assert dec.path == "exact"
        assert verify_theorem(dec, pair).ok
        assert calls == {"det_pencil": 1, "_int_adjugate_pencil": 0}

    def test_float_path_multiplicity_robust(self):
        # a double root and its 1e-6 perturbation give nearby decompositions
        rng = random.Random(99)
        pair_double, _ = planted_pair(rng, 3, [2, 2, 5])
        eps = Fraction(1, 10**6)
        rng = random.Random(99)  # same construction, perturbed spectrum
        pair_near, _ = planted_pair(rng, 3, [2, 2 + eps, 5])
        dec_double = theta_components(pair_double, path="float")
        dec_near = theta_components(pair_near, path="float")
        merged = np.zeros((3, 3))
        for c in dec_near.components:
            if abs(c.root.as_float() - 2) < 1e-3:
                merged += c.theta_numpy()
        target = next(
            c.theta_numpy()
            for c in dec_double.components
            if abs(c.root.as_float() - 2) < 1e-3
        )
        assert np.max(np.abs(merged - target)) < 1e-4


class TestNegativeDefiniteAgainstNegationOracle:
    """A negative definite pair reduces on its own pencil: the pieces are
    those of the positive pair (-Phi, -Psi) negated back, equal on the exact
    path and equal up to the sign of zero on the float path."""

    @given(st.integers(0, 2**32), st.integers(1, 4), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_negation_oracle(self, seed, n, planted):
        rng = random.Random(seed)
        if planted:
            spectrum = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)]
            positive, _ = planted_pair(rng, n, spectrum)
        else:
            # generic Psi: irrational roots, the float path under "auto" too
            L = RatMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            a = [[Fraction(rng.randint(-4, 4), rng.choice((1, 3))) for _ in range(n)]
                 for _ in range(n)]
            positive = QuadraticPair.checked(
                L.transpose() @ L + RatMatrix.identity(n),
                RatMatrix.from_rows([[a[min(i, j)][max(i, j)] for j in range(n)]
                                     for i in range(n)]))
        pair = QuadraticPair.checked(-positive.phi, -positive.psi)
        assert pair.definiteness == "negative"
        for path in ("auto", "float"):
            got = theta_components(pair, path)
            want = theta_components_by_negation(pair, path)
            assert (got.path, got.size) == (want.path, want.size)
            assert ([(c.root, c.multiplicity) for c in got.components]
                    == [(c.root, c.multiplicity) for c in want.components])
            for g, w in zip(got.components, want.components):
                if got.path == "exact":
                    assert g.theta == w.theta
                else:
                    assert np.array_equal(np.array(g.theta), np.array(w.theta))
            assert verify_theorem(got, pair).ok


def _block_diagonal(block, copies) -> RatMatrix:
    m = len(block)
    return RatMatrix.from_rows(
        [[block[i % m][j % m] if i // m == j // m else 0 for j in range(m * copies)]
         for i in range(m * copies)]
    )


class TestResidue:
    """The residue at a root is read off Taylor coefficients: order mult-1 of
    the adjugate over order mult of the determinant.  On the exact path it
    is the one term of the resolvent's principal part."""

    def test_exact_matches_deflation_oracle(self):
        rng = random.Random(31)
        mults = set()
        for spectrum in ([1, 2, 3], [2, 2, 5], [4, 4, 4], [1, 1, 3, 3], [0, 2, 2, 2],
                         [Fraction(-1, 2), 3]):
            pair, _ = planted_pair(rng, len(spectrum), spectrum)
            pencil = pair.pencil()
            adj, f = adjugate_pencil(pencil), pencil.char_poly()
            for root in pencil.roots():
                want = residue_by_deflation(adj, f, root.value, root.multiplicity)
                assert _principal_part(pencil, root.value, root.multiplicity) == [want]
                mults.add(root.multiplicity)
        assert mults == {1, 2, 3}

    def test_exact_rejects_wrong_order(self):
        # the multiplicity is checked before the adjugate is read: a wrong
        # order, a point that is no root, and orders beyond the degree or
        # below 1 all raise the one PreconditionError
        pair = pair_of([[1, 0], [0, 1]], [[3, 0], [0, 7]])
        for point, order in ((3, 2), (4, 1), (3, 3), (3, 0), (4, 0), (3, -1), (7, 5)):
            with pytest.raises(PreconditionError, match="root multiplicity mismatch"):
                _principal_part(pair.pencil(), Fraction(point), order)

    def test_unchecked_pair_with_a_defective_root_is_rejected(self):
        # s*Phi - Psi = [[0, s], [s, -1]] for an indefinite Phi that skipped
        # `checked`: det = -s^2 and adj = [[-1, -s], [-s, 0]], so the double
        # root 0 has a principal part of two terms and s does not divide adj
        pair = QuadraticPair(RatMatrix.from_rows([[0, 1], [1, 0]]),
                             RatMatrix.from_rows([[0, 0], [0, 1]]), "positive")
        assert len(_principal_part(pair.pencil(), Fraction(0), 2)) == 2
        with pytest.raises(PreconditionError, match=(
                "^adjugate entry not divisible to the expected order; the"
                " leading form is not definite$")):
            theta_components(pair)

    @given(st.integers(0, 2**32), st.integers(1, 5), st.booleans(), st.sampled_from([1, -1]))
    @settings(max_examples=40, deadline=None)
    def test_principal_part_is_the_integer_residue(self, seed, n, planted, sign):
        # planted spectra and generic Psi, with denominators in Phi (scaled
        # by a positive c), in Psi and in the roots, for Phi of either sign:
        # at every exact root the principal part is the one residue of the
        # integer Taylor oracle
        rng = random.Random(seed)
        if planted:
            spectrum = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)]
            pair, _ = planted_pair(rng, n, spectrum)
            phi, psi = pair.phi, pair.psi
        else:
            L = RatMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            a = [[Fraction(rng.randint(-4, 4), rng.choice((1, 3))) for _ in range(n)]
                 for _ in range(n)]
            phi = L.transpose() @ L + RatMatrix.identity(n)
            psi = RatMatrix.from_rows([[a[min(i, j)][max(i, j)] for j in range(n)]
                                       for i in range(n)])
        c = Fraction(rng.randint(1, 5), rng.choice((1, 2, 7)))
        pair = QuadraticPair.checked(phi.scale(sign * c), psi)
        assert pair.definiteness == ("positive" if sign > 0 else "negative")
        pencil = pair.pencil()
        for root in pencil.roots(FLOAT_ROOT_WIDTH):
            if root.is_exact:
                want = residue_by_integer_taylor(pencil, root.value, root.multiplicity)
                assert _principal_part(pencil, root.value, root.multiplicity) == [want]

    @given(st.integers(0, 2**32), st.integers(1, 5), st.sampled_from([1, -1]))
    @settings(max_examples=40, deadline=None)
    def test_kernel_theta_is_phi_residue_phi(self, seed, n, sign):
        # planted spectra with repeated rational roots, Phi of either sign:
        # theta read off the kernel at each root is Phi R Phi for the
        # resolvent's one-term principal part R there
        rng = random.Random(seed)
        spectrum = [Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(n)]
        planted, _ = planted_pair(rng, n, spectrum)
        pair = QuadraticPair.checked(planted.phi.scale(sign), planted.psi.scale(sign))
        pencil = pair.pencil()
        dec = theta_components(pair, path="exact")
        assert sum(c.multiplicity for c in dec.components) == n
        for c in dec.components:
            terms = _principal_part(pencil, c.root.value, c.multiplicity)
            assert [c.theta] == [pair.phi @ R @ pair.phi for R in terms]

    def test_float_rounds_as_derivatives(self):
        # irrational double roots (3 +- sqrt(5))/2, and a rational triple root
        # taken on the float path, where 3! is not a power of two and
        # float(6c)/6 differs from float(c) for h = -329880/7
        def derivative(p, k):
            for _ in range(k):
                p = p.derivative()
            return p

        double = QuadraticPair.checked(
            RatMatrix.identity(4), _block_diagonal([[1, 1], [1, 2]], 2)
        )
        triple, _ = planted_pair(random.Random(1), 4, [Fraction(-2, 7)] * 3 + [4])
        for pair, kinds in ((double, {(2, False)}), (triple, {(3, True), (1, True)})):
            pencil = pair.pencil()
            adj, f = adjugate_pencil(pencil), pencil.char_poly()
            mults = set()
            for root in pencil.roots(FLOAT_ROOT_WIDTH):
                m = root.multiplicity
                s = refine_root(root, FLOAT_ROOT_WIDTH).approx()
                G = np.array(
                    [float(derivative(e, m - 1).evaluate(s)) / factorial(m - 1)
                     for e in adj.entries]
                ).reshape(4, 4)
                h = float(derivative(f, m).evaluate(s)) / factorial(m)
                assert np.array_equal(_residue(pencil, s, m), G / h)
                mults.add((m, root.is_exact))
            assert mults == kinds


def _outcome(fn, *args):
    """The result of fn(*args), or the type and text of the error it raises."""
    try:
        return fn(*args)
    except PreconditionError as exc:
        return type(exc), str(exc)


class TestIntegerKernelsAgainstFractionPolynomials:
    """On the pencil of a pair, the kernels that read the integer adjugate
    and the integer Smith rows agree with their former definitions on
    `Fraction` polynomials: the residue (exact, float, and a wrong order),
    adjugate divisibility, the exact adjugate eigenvector and the minor-GCD
    chain."""

    @given(st.integers(0, 2**32), st.integers(1, 5), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_fraction_kernels(self, seed, n, planted):
        rng = random.Random(seed)
        if planted:
            spectrum = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)]
            pair, _ = planted_pair(rng, n, spectrum)
        else:
            # generic Psi with denominators: irrational roots, the float path
            L = RatMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            a = [[Fraction(rng.randint(-4, 4), rng.choice((1, 3))) for _ in range(n)]
                 for _ in range(n)]
            pair = pair_of((L.transpose() @ L + RatMatrix.identity(n)).to_rows(),
                           [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
        pencil = pair.pencil()
        adj, f = adjugate_pencil(pencil), pencil.char_poly()
        P = pencil.char_matrix()
        assert minor_gcd_chain(P) == minor_gcd_chain_by_fraction_smith(P)
        assert remarkable_circumstance_check(pair) == minor_divisibility_by_poly_divides(pencil)
        for root in pencil.roots(FLOAT_ROOT_WIDTH):
            m = root.multiplicity
            mid = refine_root(root, FLOAT_ROOT_WIDTH).approx()
            assert np.array_equal(_residue(pencil, mid, m),
                                  residue_by_poly_taylor(adj, f, mid, m, False))
            if root.is_exact:
                # the root's order, then the wrong ones up to the degree n of
                # the determinant and one beyond it
                assert (_principal_part(pencil, root.value, m)
                        == [residue_by_poly_taylor(adj, f, root.value, m, True)])
                for order in range(m + 1, n + 2):
                    assert (_outcome(_principal_part, pencil, root.value, order)
                            == (PreconditionError,
                                "root multiplicity mismatch during deflation"))
                assert (_outcome(adjugate_eigenvector, pencil, root, "exact")
                        == _outcome(adjugate_eigenvector_by_poly_evaluate, pencil, root))

    def test_float_residue_of_a_quadruple_root(self):
        # G is the order-3 coefficient, rounded through 3! = 6, which is not
        # a power of two: float(6c)/6 differs from float(c) in some entry
        pair, _ = planted_pair(random.Random(0), 5, [Fraction(-2, 7)] * 4 + [3])
        pencil = pair.pencil()
        adj, f = adjugate_pencil(pencil), pencil.char_poly()
        got = _residue(pencil, Fraction(-2, 7), 4)
        assert np.array_equal(got, residue_by_poly_taylor(adj, f, Fraction(-2, 7), 4, False))


class TestVerifyTheorem:
    def test_examples_pass(self):
        for phi, psi in (
            ([[1, 0], [0, 1]], [[3, 0], [0, 7]]),
            ([[1, 0], [0, 1]], [[1, 0], [0, 1]]),
            ([[2, 1], [1, 2]], [[1, 0], [0, 1]]),
        ):
            pair = pair_of(phi, psi)
            report = verify_theorem(theta_components(pair), pair)
            assert report.ok

    def test_tampered_decomposition_fails(self):
        pair = pair_of([[2, 1], [1, 2]], [[1, 0], [0, 1]])
        dec = theta_components(pair)
        first = dec.components[0]
        tampered = ThetaDecomposition(
            (
                ThetaComponent(first.root, first.multiplicity, first.theta.scale(2)),
            )
            + dec.components[1:],
            dec.path,
            dec.size,
        )
        report = verify_theorem(tampered, pair)
        assert not report.ok
        assert report.phi_residual > 0

    def test_exact_piece_inertia_builds_no_block_determinant(self, monkeypatch):
        # every exact theta piece but a full-rank one is singular, so each
        # meets a zero pivot: its inertia comes from the one symmetric
        # Bareiss pass, never from leading minors or block determinants
        import secular.matrices as matrices

        pair, _ = planted_pair(random.Random(17), 4, [1, 1, 2, Fraction(-1, 2)])
        dec = theta_components(pair)
        assert dec.path == "exact"
        assert sorted(c.multiplicity for c in dec.components) == [1, 1, 2]

        def refuse(*args, **kwargs):
            raise AssertionError("block determinant on the inertia path")

        monkeypatch.setattr(RatMatrix, "submatrix", refuse)
        monkeypatch.setattr(RatMatrix, "leading_principal_minors", refuse)
        monkeypatch.setattr(matrices, "det_rational", refuse)
        report = verify_theorem(dec, pair)
        assert report.ok and report.ranks_ok and report.semidefinite_ok
        assert [inertia(c.theta).method for c in dec.components] == ["congruence-fallback"] * 3
