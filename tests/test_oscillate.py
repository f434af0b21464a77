import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from secular.errors import PathUnavailableError, PreconditionError
from secular.matrices import Pencil, RatMatrix
from secular.oscillate import (
    InitialConditions,
    build_model,
    classify_stability,
    expm_projectors,
    expm_rows,
    first_order_matrix,
    frequency_poly_in_rho,
    loaded_string_frequency_series,
    sample_trajectory,
    scalar_residue_solve,
    solve_jordan,
    solve_modal,
    spectral_projectors,
    time_grid,
)
from secular.polynomials import Poly
from secular.spectral import char_roots

from oracles import (
    conjugated_jordan,
    expm_by_bezout,
    expm_by_numpy_sum,
    expm_taylor,
    jordan_blocks_by_bezout,
    jordan_at,
    modal_at,
    ode_residual,
    second_order_residual,
    spectral_projectors_by_bezout,
    trajectory_per_time,
    verify_jordan_exact,
)

NOTE71 = RatMatrix.from_rows([[1, 4, -2], [0, 6, -3], [-1, 4, 0]])


class TestBuildModel:
    def test_string_single_mass(self):
        model = build_model("loaded-string", {"n": 1, "a": 1})
        assert frequency_poly_in_rho(model).monic() == Poly([1, 0, 1])

    def test_string_matches_series(self):
        for n in (1, 2, 3, 4):
            model = build_model("loaded-string", {"n": n, "a": 1})
            series = loaded_string_frequency_series(n, 1)
            assert frequency_poly_in_rho(model).monic() == series.monic()

    def test_string_nonunit_spacing(self):
        model = build_model("loaded-string", {"n": 3, "a": Fraction(1, 2)})
        series = loaded_string_frequency_series(3, Fraction(1, 2))
        assert frequency_poly_in_rho(model).monic() == series.monic()

    @pytest.mark.parametrize("n, a", [(-1, 1), (-3, "1/2"), (Fraction(5, 2), 1), (2.5, 1)])
    def test_series_rejects_a_count_that_is_not_a_whole_number(self, n, a):
        with pytest.raises(PreconditionError, match="whole, non-negative number of masses"):
            loaded_string_frequency_series(n, a)

    def test_springs_decoupled_frequencies(self):
        model = build_model("coupled-springs", {"m": 1, "k": 1, "k0": 1})
        roots = char_roots(model.pencil())
        assert [r.value for r in roots] == [1, 3]

    def test_yvon_characteristic_equation(self):
        g, f, a, c = Fraction(3), Fraction(2), Fraction(1, 2), Fraction(5)
        model = build_model("yvon-villarceau-2dof", {"g": g, "f": f, "a": a, "c": c})
        got = model.pencil().char_poly()
        expected = Poly([c * c, -(f + g) * c, f * g - a * a])
        assert got == expected

    def test_unknown_kind(self):
        with pytest.raises(PreconditionError, match="unknown model kind"):
            build_model("pendulum-farm", {})

    def test_nonpositive_parameter(self):
        with pytest.raises(PreconditionError, match="positive"):
            build_model("coupled-springs", {"m": 0})

    def test_custom_requires_symmetry(self):
        with pytest.raises(PreconditionError, match="symmetric"):
            build_model(
                "custom",
                {},
                mass=RatMatrix.identity(2),
                stiffness=RatMatrix.from_rows([[0, 1], [0, 0]]),
            )


class TestSolveModal:
    def test_beat_closed_form(self):
        model = build_model("coupled-springs", {"m": 1, "k": 1, "k0": 1})
        sol = solve_modal(model, InitialConditions.of([1, 0], [0, 0]))
        assert sol.path == "exact"
        w1, w2 = 1.0, math.sqrt(3.0)
        for t in (0.0, 0.3, 1.7, 8.0, 25.0):
            y = sol.evaluate(t)
            expected = [
                0.5 * (math.cos(w1 * t) + math.cos(w2 * t)),
                0.5 * (math.cos(w1 * t) - math.cos(w2 * t)),
            ]
            assert np.allclose(y, expected, atol=1e-12)

    def test_energy_constant_with_drift_mode(self):
        # B = [[1, -1], [-1, 1]] is singular: the mode (1, 1) drifts, and its
        # rate enters the velocity, hence the kinetic energy
        model = build_model(
            "custom",
            {},
            mass=RatMatrix.identity(2),
            stiffness=RatMatrix.from_rows([[1, -1], [-1, 1]]),
        )
        sol = solve_modal(model, InitialConditions.of([1, 0], [Fraction(1, 2), -1]))
        assert sol.has_drift and sol.drifts[0].rate != 0
        e0 = sol.energy(0.0)
        assert e0 == pytest.approx(9 / 8, rel=1e-12)  # (|y'(0)|^2 + y(0)^T B y(0)) / 2
        for t in (0.4, 3.0, 17.5, 250.0):
            assert sol.energy(t) == pytest.approx(e0, rel=1e-12)
        assert np.allclose(sol.derivative(0.0), [0.5, -1.0], atol=1e-12)

    def test_zero_initial_conditions(self):
        model = build_model("coupled-springs", {})
        sol = solve_modal(model, InitialConditions.of([0, 0], [0, 0]))
        assert all(m.amplitude == 0 for m in sol.modes)

    def test_reconstruction_at_zero(self):
        model = build_model("loaded-string", {"n": 3})
        Y = [Fraction(1, 3), Fraction(-1, 2), Fraction(2)]
        V = [Fraction(0), Fraction(1, 5), Fraction(-1)]
        sol = solve_modal(model, InitialConditions.of(Y, V))
        assert np.allclose(sol.evaluate(0.0), [float(x) for x in Y], atol=1e-10)
        assert np.allclose(sol.derivative(0.0), [float(x) for x in V], atol=1e-10)

    def test_dalembert_closed_form_trajectory(self):
        # started at x = 1, y = 0, at rest: the decoupled combinations
        # u = x + y/sqrt(2) and u' = x - y/sqrt(2) are pure cosines
        model = build_model("dalembert-two-mass", {"T": 1})
        sol = solve_modal(model, InitialConditions.of([1, 0], [0, 0]))
        w1 = math.sqrt(4 - 2 * math.sqrt(2))
        w2 = math.sqrt(4 + 2 * math.sqrt(2))
        for t in (0.0, 0.3, 1.1, 4.0, 9.7):
            x, y = sol.evaluate(t)
            assert x == pytest.approx(
                0.5 * (math.cos(w1 * t) + math.cos(w2 * t)), abs=1e-10
            )
            assert y == pytest.approx(
                (math.cos(w1 * t) - math.cos(w2 * t)) / math.sqrt(2), abs=1e-10
            )

    def test_exact_path_refused_for_irrational_frequencies(self):
        model = build_model("dalembert-two-mass", {"T": 1})
        with pytest.raises(PathUnavailableError):
            solve_modal(model, InitialConditions.of([1, 0], [0, 0]), path="exact")

    def test_unknown_path_rejected(self):
        model = build_model("coupled-springs", {"m": 1, "k": 1, "k0": 1})
        with pytest.raises(PreconditionError, match="unknown arithmetic path 'bogus'"):
            solve_modal(model, InitialConditions.of([1, 0], [0, 0]), path="bogus")

    def test_dalembert_decoupling(self):
        model = build_model("dalembert-two-mass", {"T": 1})
        sol = solve_modal(model, InitialConditions.of([1, 0], [0, 0]))
        assert sol.path == "float"
        omegas = sorted(m.omega for m in sol.modes)
        assert omegas[0] == pytest.approx(math.sqrt(4 - 2 * math.sqrt(2)), rel=1e-14)
        assert omegas[1] == pytest.approx(math.sqrt(4 + 2 * math.sqrt(2)), rel=1e-14)
        A = model.mass.to_numpy()
        dirs = sorted(
            ((A @ m.shape_floats()) / (A @ m.shape_floats())[0])[1] for m in sol.modes
        )
        assert dirs[0] == pytest.approx(-1 / math.sqrt(2), abs=1e-12)
        assert dirs[1] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_rigid_mode_flagged(self):
        # free-free chain: one zero frequency, drift E + V t
        model = build_model(
            "custom",
            {},
            mass=RatMatrix.identity(2),
            stiffness=RatMatrix.from_rows([[1, -1], [-1, 1]]),
        )
        sol = solve_modal(model, InitialConditions.of([1, 0], [1, 1]))
        assert sol.has_drift
        assert len(sol.drifts) == 1 and len(sol.modes) == 1
        drift = sol.drifts[0]
        assert drift.rate == pytest.approx(1.0)  # common velocity
        y40 = sol.evaluate(40.0)
        assert np.max(np.abs(y40)) > 30  # the drift really grows

    def test_shape_floats_built_once(self):
        model = build_model(
            "custom",
            {},
            mass=RatMatrix.identity(2),
            stiffness=RatMatrix.from_rows([[1, -1], [-1, 1]]),
        )
        sol = solve_modal(model, InitialConditions.of([1, 0], [1, 1]))
        for term in sol.modes + sol.drifts:
            shape = term.shape_floats()
            assert shape is term.shape_floats()
            assert shape.tolist() == [float(x) for x in term.shape]
            with pytest.raises(ValueError):
                shape[0] = 0.0

    def test_negative_root_rejected(self):
        model = build_model(
            "custom",
            {},
            mass=RatMatrix.identity(1),
            stiffness=RatMatrix.from_rows([[-1]]),
        )
        with pytest.raises(PreconditionError, match="not.*oscillatory|stability"):
            solve_modal(model, InitialConditions.of([1], [0]))

    def test_indefinite_mass_rejected(self):
        model = build_model(
            "custom",
            {},
            mass=RatMatrix.diagonal([1, -1]),
            stiffness=RatMatrix.identity(2),
        )
        with pytest.raises(PreconditionError, match="definite"):
            solve_modal(model, InitialConditions.of([1, 0], [0, 0]))

    def test_ode_residual_small(self):
        model = build_model("loaded-string", {"n": 2})
        sol = solve_modal(
            model, InitialConditions.of([1, Fraction(-1, 2)], [0, Fraction(1, 3)])
        )
        times = [0.1 + 0.37 * k for k in range(12)]
        assert second_order_residual(sol, model, times) < 1e-6

    def test_energy_conserved(self):
        model = build_model("coupled-springs", {"m": 2, "k": 3, "k0": 1})
        sol = solve_modal(
            model, InitialConditions.of([1, Fraction(1, 4)], [Fraction(-1, 2), 1])
        )
        energies = [sol.energy(t) for t in np.linspace(0.0, 100.0, 400)]
        drift = (max(energies) - min(energies)) / max(energies)
        assert drift < 1e-12


class TestSolveJordan:
    def test_textbook_jordan_block(self):
        M = RatMatrix.from_rows([[2, 1], [0, 2]])
        sol = solve_jordan(M, [3, 5])
        assert sol.path == "exact"
        assert len(sol.blocks) == 1
        block = sol.blocks[0]
        assert block.sigma_re == 2 and block.chain_length == 2
        # x1 = e^{2t}(3 + 5t), x2 = 5 e^{2t}
        for t in (0.0, 0.4, 2.0):
            expected = [math.exp(2 * t) * (3 + 5 * t), 5 * math.exp(2 * t)]
            assert np.allclose(sol.evaluate(t), expected, rtol=1e-12)
        assert verify_jordan_exact(sol)

    def test_diagonal_constant_psi(self):
        M = RatMatrix.diagonal([1, -2])
        sol = solve_jordan(M, [1, 1])
        assert all(b.chain_length == 1 for b in sol.blocks)
        assert all(b.psi_degree() == 0 for b in sol.blocks)

    def test_note71_block_structure(self):
        sol = solve_jordan(NOTE71, [1, 1, 1])
        got = sorted((float(b.sigma_re), b.chain_length) for b in sol.blocks)
        assert got == [(2.0, 2), (3.0, 1)]
        assert verify_jordan_exact(sol)
        times = [0.0, 0.2, 0.9, 1.5]
        assert ode_residual(sol.evaluate, NOTE71.to_numpy(), times) < 1e-6

    def test_float_path_complex_pair(self):
        M = RatMatrix.from_rows([[0, -1], [1, 0]])  # rotation generator
        sol = solve_jordan(M, [1, 0], path="float")
        assert sol.path == "float"
        for t in (0.0, 0.5, 2.2):
            assert np.allclose(sol.evaluate(t), [math.cos(t), math.sin(t)], atol=1e-9)

    def test_irrational_real_eigenvalues_float(self):
        M = RatMatrix.from_rows([[0, 1], [2, 0]])  # eigenvalues +-sqrt(2)
        sol = solve_jordan(M, [1, 0])
        assert sol.path == "float"
        times = [0.0, 0.3, 1.0]
        assert ode_residual(sol.evaluate, M.to_numpy(), times) < 1e-6

    def test_defective_float_rejected(self):
        M = RatMatrix.from_rows([[2, 1], [0, 2]])
        with pytest.raises(PathUnavailableError):
            solve_jordan(M, [1, 1], path="float")

    def test_infinite_phase_overflows(self):
        # omega*t = 2e308 is inf, where math.cos and math.sin raise ValueError
        sol = solve_jordan(RatMatrix.from_rows([[0, -2], [2, 0]]), [1, 0], path="float")
        with pytest.raises(OverflowError):
            sol.evaluate(1e308)


class TestProjectorsAndExpm:
    def test_projector_identities_note71(self):
        projs = spectral_projectors(NOTE71)
        total = RatMatrix.zeros(3, 3)
        for sigma, mult, chain, P in projs:
            assert P @ P == P
            total = total + P
        assert total == RatMatrix.identity(3)
        pairs = {(s, m, c) for s, m, c, _ in projs}
        assert pairs == {(Fraction(2), 2, 2), (Fraction(3), 1, 1)}

    def test_projectors_orthogonal(self):
        projs = spectral_projectors(NOTE71)
        p2 = projs[0][3]
        p3 = projs[1][3]
        assert p2 @ p3 == RatMatrix.zeros(3, 3)

    def test_zero_matrix(self):
        E = expm_projectors(RatMatrix.zeros(2, 2), 1.0)
        assert np.allclose(E, np.eye(2))

    def test_diagonal(self):
        E = expm_projectors(RatMatrix.diagonal([1, 2]), 1.0)
        assert np.allclose(E, np.diag([math.e, math.e**2]), rtol=1e-14)

    def test_note71_against_series_oracle(self):
        E = expm_projectors(NOTE71, 1.0)
        T = expm_taylor(NOTE71.to_numpy(), 1.0)
        assert np.max(np.abs(E - T)) <= 1e-9

    def test_irrational_eigenvalues_rejected(self):
        M = RatMatrix.from_rows([[0, 1], [2, 0]])
        with pytest.raises(PathUnavailableError, match="[Jj]ordan|floating"):
            expm_projectors(M, 1.0)

    def test_series_agreement_within_norm_five(self):
        rng = random.Random(8)
        cases = [
            (RatMatrix.from_rows([[1, 1], [0, 1]]), 2.0),
            (RatMatrix.from_rows([[-2, 1, 0], [0, -2, 1], [0, 0, 1]]), 1.5),
            (RatMatrix.diagonal([-1, 0, 2]), 2.5),
        ]
        for M, t in cases:
            assert float(np.max(np.abs(M.to_numpy()))) * t <= 5.0 + 1e-9
            E = expm_projectors(M, t)
            T = expm_taylor(M.to_numpy(), t)
            assert float(np.max(np.abs(E - T))) <= 1e-9


    def test_principal_parts_match_bezout_route(self, deadline):
        """Projectors, chain lengths, expm floats and exact Jordan blocks
        equal the Bezout partial-fraction route, and both reject the same
        inputs, on conjugated Jordan matrices and random integer ones."""
        deadline(60)
        rng = random.Random(13)
        cases = [conjugated_jordan(rng, rng.randint(0, 6)) for _ in range(64)]
        cases += [RatMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
                  for n in [rng.randint(1, 4) for _ in range(16)]]
        rejected = defective = 0
        for M in cases:
            x0 = [rng.randint(-3, 3) for _ in range(M.rows)]
            try:
                expected = spectral_projectors_by_bezout(M)
            except PathUnavailableError:
                rejected += 1
                for call in (lambda: spectral_projectors(M), lambda: expm_projectors(M, 1.0),
                             lambda: solve_jordan(M, x0, path="exact")):
                    with pytest.raises(PathUnavailableError):
                        call()
                continue
            assert spectral_projectors(M) == expected
            defective += any(chain > 1 for _s, _m, chain, _P in expected)
            for t in (1.0, -0.75):
                assert expm_projectors(M, t).tobytes() == expm_by_bezout(M, t).tobytes()
            sol = solve_jordan(M, x0, path="exact")
            assert [(b.sigma_re, b.chain_length, b.cos_coeffs) for b in sol.blocks] == \
                jordan_blocks_by_bezout(M, x0)
        assert rejected and defective and len(cases) - rejected - defective


class TestExpmListSum:
    """`expm_rows` sums the principal parts as Python floats with the
    operations and order of the numpy sum it replaced, and `expm_projectors`
    is its array."""

    def test_bit_identical_to_numpy_sum(self, deadline):
        deadline(60)
        rng = random.Random(27)
        for M in [conjugated_jordan(rng, rng.randint(0, 6)) for _ in range(48)]:
            for t in (1.0, -0.75, 2.5, 1e-3, 40.0):
                expected = expm_by_numpy_sum(M, t).tobytes()
                assert np.array(expm_rows(M, t)).reshape(M.rows, M.rows).tobytes() == expected
                assert expm_projectors(M, t).tobytes() == expected

    @pytest.mark.parametrize("rows, t", [
        # math.exp(2e6) overflows
        ([[1, 0], [0, 2]], 1e6),
        # the chain of 0 has length 3: entry (0, 2) of acc is -1e200 * 1e200
        # = -inf, then -inf + 1 * (1e200 * 1e200 / 2) = -inf + inf
        ([[0, 1, -10**200], [0, 0, 1], [0, 0, 0]], 1e200),
    ])
    def test_overflow_raises_without_warning(self, rows, t):
        M = RatMatrix.from_rows(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for call in (expm_rows, expm_projectors, expm_by_numpy_sum):
                with pytest.raises(OverflowError):
                    call(M, t)


class TestScalarResidue:
    def test_cosh(self):
        sol = scalar_residue_solve(Poly([-1, 0, 1]), [1, 0])
        for x in (0.0, 0.5, 2.0):
            assert sol.evaluate(x) == pytest.approx(math.cosh(x), rel=1e-12)

    def test_double_root_t_exponential(self):
        sol = scalar_residue_solve(Poly([1, -2, 1]), [0, 1])
        for x in (0.0, 0.7, 3.0):
            assert sol.evaluate(x) == pytest.approx(x * math.exp(x), abs=1e-10)

    def test_sine(self):
        sol = scalar_residue_solve(Poly([1, 0, 1]), [0, 1])
        for x in (0.0, 0.9, 4.0):
            assert sol.evaluate(x) == pytest.approx(math.sin(x), abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(PreconditionError):
            scalar_residue_solve(Poly([5]), [])

    def test_wrong_ic_count(self):
        with pytest.raises(PreconditionError):
            scalar_residue_solve(Poly([-1, 0, 1]), [1])


class TestClassifyStability:
    def test_distinct_positive_roots_stable_twice(self):
        model = build_model("coupled-springs", {"m": 1, "k": 1, "k0": 1})
        v = classify_stability(model)
        assert v.historical == "stable"
        assert v.corrected == "stable"
        assert v.agreement

    def test_repeated_root_controversy(self):
        model = build_model("yvon-villarceau-2dof", {"g": 1, "f": 1, "a": 0, "c": 1})
        roots = char_roots(model.pencil())
        assert [(r.value, r.multiplicity) for r in roots] == [(1, 2)]
        v = classify_stability(model)
        assert v.historical == "conditional"
        assert v.corrected == "stable"
        assert not v.agreement

    def test_definite_stiffness_rule_stays_bounded(self):
        v = classify_stability(build_model("coupled-springs", {}))
        assert v.corrected_rule.startswith(
            "weierstrass-1858: a symmetric couple with positive definite kinetic")
        assert "stays bounded" in v.corrected_rule
        assert "drift" not in v.corrected_rule

    def test_singular_stiffness_rule_names_drift(self):
        # free-free pair: B = [[1, -1], [-1, 1]] is positive semidefinite and
        # singular, so a push along (1, 1) drifts off as E + V t
        model = build_model(
            "custom",
            {},
            mass=RatMatrix.identity(2),
            stiffness=RatMatrix.from_rows([[1, -1], [-1, 1]]),
        )
        v = classify_stability(model)
        assert v.corrected == "stable"
        assert "stays bounded" not in v.corrected_rule
        assert "drifts as E + V t" in v.corrected_rule
        sol = solve_modal(model, InitialConditions.of([0, 0], [1, 0]))
        assert sol.has_drift
        assert np.max(np.abs(sol.evaluate(100.0))) > 49

    def test_negative_definite_mass_judged_on_negated_equation(self):
        # -I y'' + [[-2, 1], [1, -2]] y = 0 is I y'' + [[2, -1], [-1, 2]] y = 0:
        # simple roots K = 1 and 3, so the first-order roots are +-i, +-i sqrt 3
        model = build_model(
            "custom",
            {},
            mass=RatMatrix.diagonal([-1, -1]),
            stiffness=RatMatrix.from_rows([[-2, 1], [1, -2]]),
        )
        roots = char_roots(model.pencil())
        assert [(r.value, r.multiplicity) for r in roots] == [(1, 1), (3, 1)]
        first_order = Pencil.similarity(first_order_matrix(model))
        assert first_order.char_poly() == Poly([3, 0, 4, 0, 1])
        v = classify_stability(model)
        assert (v.historical, v.corrected, v.agreement) == ("stable", "stable", True)
        assert "applies to the negated equation" in v.corrected_rule
        assert "stays bounded" in v.corrected_rule

    def test_negative_definite_mass_solved_on_negated_equation(self):
        # the modal solution of -I y'' + [[-2, 1], [1, -2]] y = 0 is that of
        # I y'' + [[2, -1], [-1, 2]] y = 0, mode for mode, and it belongs to
        # the model as given
        ic = InitialConditions.of([1, 0], [0, 1])
        negated = build_model("custom", {}, mass=RatMatrix.diagonal([-1, -1]),
                              stiffness=RatMatrix.from_rows([[-2, 1], [1, -2]]))
        positive = build_model("custom", {}, mass=RatMatrix.identity(2),
                               stiffness=RatMatrix.from_rows([[2, -1], [-1, 2]]))
        sol, ref = solve_modal(negated, ic), solve_modal(positive, ic)
        assert sol.model is negated
        assert (sol.modes, sol.drifts, sol.path) == (ref.modes, ref.drifts, ref.path)
        assert [m.k_root.value for m in sol.modes] == [1, 3]
        assert all(m.sq_norm > 0 for m in sol.modes)
        times = [0.0, 0.7, 3.1]
        assert sample_trajectory(sol, times) == sample_trajectory(ref, times)
        assert sol.evaluate(0.0) == pytest.approx([1, 0], abs=1e-12)
        assert sol.derivative(0.0) == pytest.approx([0, 1], abs=1e-12)
        assert second_order_residual(sol, negated, [0.3, 1.9]) < 1e-6
        # the energy of -A and -B is the negated one, still constant
        assert sol.energy(2.5) == pytest.approx(sol.energy(0.0), rel=1e-12)
        assert sol.energy(0.0) == pytest.approx(-ref.energy(0.0), rel=1e-12)

    @pytest.mark.parametrize("mass", [[[1, 0], [0, -1]], [[-1, 0], [0, 0]]])
    def test_indefinite_or_singular_mass_not_solved(self, mass):
        model = build_model("custom", {}, mass=RatMatrix.from_rows(mass),
                            stiffness=RatMatrix.identity(2))
        with pytest.raises(PreconditionError, match="positive or negative definite"):
            solve_modal(model, InitialConditions.of([1, 0], [0, 1]))

    @pytest.mark.parametrize("stiffness, corrected, phrase", [
        ([[1, 0], [0, 1]], "unstable", "grows without bound"),
        ([[-1, 1], [1, -1]], "stable", "drifts as E + V t"),
    ])
    def test_negative_definite_mass_other_stiffness(self, stiffness, corrected, phrase):
        # -B = -I is negative definite; -B = [[1, -1], [-1, 1]] is singular PSD
        model = build_model(
            "custom",
            {},
            mass=RatMatrix.diagonal([-1, -1]),
            stiffness=RatMatrix.from_rows(stiffness),
        )
        v = classify_stability(model)
        assert v.corrected == corrected
        assert "applies to the negated equation" in v.corrected_rule
        assert phrase in v.corrected_rule

    def test_planted_positive_growth_unstable_twice(self):
        model = build_model(
            "custom",
            {},
            mass=RatMatrix.identity(2),
            stiffness=RatMatrix.diagonal([-1, -2]),
        )
        v = classify_stability(model)
        assert v.historical == "unstable"
        assert v.corrected == "unstable"
        assert v.agreement

    def test_mixed_roots_conditional(self):
        model = build_model(
            "custom",
            {},
            mass=RatMatrix.identity(2),
            stiffness=RatMatrix.diagonal([1, -1]),
        )
        v = classify_stability(model)
        assert v.historical == "conditional"
        assert v.corrected == "unstable"


class TestTrajectory:
    def test_zero_ic_all_zero(self):
        model = build_model("coupled-springs", {})
        sol = solve_modal(model, InitialConditions.of([0, 0], [0, 0]))
        traj = sample_trajectory(sol, time_grid(10.0, 50))
        assert traj.sup_norm == 0.0
        assert all(all(v == 0 for v in row) for row in traj.values)

    def test_beat_bounded_with_envelope(self):
        model = build_model("coupled-springs", {"m": 1, "k": 1, "k0": 1})
        sol = solve_modal(model, InitialConditions.of([1, 0], [0, 0]))
        traj = sample_trajectory(sol, time_grid(40.0, 2000))
        assert traj.sup_norm <= 1.0 + 1e-9
        # energy migrates fully onto the second mass at the beat node
        mass2 = [abs(row[1]) for row in traj.values]
        assert max(mass2) > 0.99

    def test_linear_growth_from_zero_sigma_chain(self):
        M = RatMatrix.from_rows([[0, 1], [0, 0]])
        sol = solve_jordan(M, [0, 1])
        traj = sample_trajectory(sol, time_grid(10.0, 100))
        assert traj.sup_norm == pytest.approx(10.0, rel=1e-12)

    def test_jordan_modal_agreement_on_diagonalizable_system(self):
        model = build_model("coupled-springs", {"m": 1, "k": 2, "k0": 3})
        ic = InitialConditions.of([1, Fraction(-1, 2)], [0, 1])
        modal = solve_modal(model, ic)
        n = model.size
        jordan = solve_jordan(
            first_order_matrix(model), list(ic.positions) + list(ic.velocities)
        )
        for t in np.linspace(0.0, 20.0, 101):
            ym = modal.evaluate(float(t))
            yj = jordan.evaluate(float(t))[:n]
            assert np.max(np.abs(ym - yj)) <= 1e-8


def same_trajectory(got, expected) -> bool:
    """Equal times, samples and sup-norm, compared by repr so that the sign
    of a zero counts."""
    return repr(got) == repr(expected)


class TestGridEvaluation:
    """One grid evaluation per solution gives the floats of evaluating one
    time at a time."""

    TIMES = time_grid(10.0, 200) + (-0.5, 1e-300, 37.25)

    def test_modal_with_drift_modes(self):
        rng = random.Random(55)
        models = [
            build_model("custom", {}, mass=RatMatrix.identity(2),
                        stiffness=RatMatrix.from_rows([[1, -1], [-1, 1]])),
            # two rigid modes: two disconnected free pairs
            build_model("custom", {}, mass=RatMatrix.diagonal([1, 2, 1, 3]),
                        stiffness=RatMatrix.from_rows(
                            [[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]])),
            build_model("loaded-string", {"n": 5, "a": Fraction(2, 3)}),
            build_model("coupled-springs", {"m": 1, "k": 1, "k0": 1}),
        ]
        drifts = 0
        for model in models:
            n = model.size
            ic = InitialConditions.of(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)],
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)])
            sol = solve_modal(model, ic)
            drifts += len(sol.drifts)
            grid = sol.evaluate_grid(self.TIMES)
            assert grid.shape == (len(self.TIMES), n)
            for t, row in zip(self.TIMES, grid):
                assert row.tobytes() == modal_at(sol, t).tobytes()
                assert sol.evaluate(t).tobytes() == row.tobytes()
            assert same_trajectory(sample_trajectory(sol, self.TIMES),
                                   trajectory_per_time(lambda t: modal_at(sol, t), self.TIMES))
        assert drifts == 3

    def test_jordan_exact_and_float(self):
        cases = [
            (RatMatrix.from_rows([[2, 1], [0, 2]]), [3, 5], "auto"),
            (NOTE71, [1, -2, 3], "auto"),
            (RatMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]]), [1, 2, 3], "exact"),
            (RatMatrix.from_rows([[0, -1], [1, 0]]), [1, 0], "float"),
            (RatMatrix.from_rows([[Fraction(-1, 10), -2], [2, Fraction(-1, 10)]]), [1, 1], "float"),
            (RatMatrix.from_rows([[0, 1], [2, 0]]), [1, 0], "auto"),
            (first_order_matrix(build_model("loaded-string", {"n": 3, "a": 1})),
             [1, 0, -1, 0, 1, 0], "float"),
        ]
        times = time_grid(3.0, 60) + (-1.25,)
        paths = set()
        for M, x0, path in cases:
            sol = solve_jordan(M, x0, path=path)
            paths.add(sol.path)
            grid = sol.evaluate_grid(times)
            assert grid.shape == (len(times), M.rows)
            for t, row in zip(times, grid):
                assert row.tobytes() == jordan_at(sol, t).tobytes()
                assert sol.evaluate(t).tobytes() == row.tobytes()
            assert same_trajectory(sample_trajectory(sol, times),
                                   trajectory_per_time(lambda t: jordan_at(sol, t), times))
        assert paths == {"exact", "float"}

    def test_scalar_solution_samples_as_one_column(self):
        sol = scalar_residue_solve(Poly([1, 0, 1]), [1, 0])  # y'' + y = 0
        traj = sample_trajectory(sol, [0.0, 1.0])
        assert traj.values == ((sol.evaluate(0.0),), (sol.evaluate(1.0),))
        assert traj.sup_norm == max(abs(sol.evaluate(0.0)), abs(sol.evaluate(1.0)))
