"""Acceptance suite: every criterion as one test, each printing a PASS line
with its stated tolerance pinned.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from secular.invariants import (
    darboux_signature_steps,
    inertia,
    invariant_factors,
    is_diagonalizable,
    minor_gcd_chain,
)
from secular.matrices import Pencil, RatMatrix
from secular.oscillate import (
    InitialConditions,
    build_model,
    classify_stability,
    expm_projectors,
    frequency_poly_in_rho,
    loaded_string_frequency_series,
    sample_trajectory,
    solve_jordan,
    solve_modal,
    spectral_projectors,
    time_grid,
)
from secular.polynomials import Poly
from secular.quadpairs import remarkable_circumstance_check, theta_components
from secular.spectral import (
    adjugate_eigenvector,
    cauchy_orthogonality,
    char_roots,
    nullspace_at_root,
    spectral_decompose,
)

from oracles import congruence_signature, expm_taylor, ode_residual, verify_jordan_exact
from test_weierstrass import planted_pair

NOTE23 = RatMatrix.from_rows([[1, -1, 0], [-1, 2, 1], [0, 1, 1]])
NOTE71 = RatMatrix.from_rows([[1, 4, -2], [0, 6, -3], [-1, 4, 0]])


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def jordan_matrix(structure) -> RatMatrix:
    """Block-diagonal Jordan matrix from ((sigma, (sizes...)), ...)."""
    n = sum(size for _, sizes in structure for size in sizes)
    rows = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for sigma, sizes in structure:
        for size in sizes:
            for i in range(size):
                rows[at + i][at + i] = Fraction(sigma)
                if i + 1 < size:
                    rows[at + i][at + i + 1] = Fraction(1)
            at += size
    return RatMatrix.from_rows(rows)


def ground_truth_invariant_factors(structure, n: int) -> list[Poly]:
    """Invariant factors of a Jordan structure: the k-th factor from the top
    collects the k-th largest block of every eigenvalue."""
    layers: list[Poly] = []
    depth = max(len(sizes) for _, sizes in structure)
    for k in range(depth):
        f = Poly([1])
        for sigma, sizes in structure:
            ordered = sorted(sizes, reverse=True)
            if k < len(ordered):
                f = f * Poly([-Fraction(sigma), 1]) ** ordered[k]
        layers.append(f)
    layers.reverse()  # smallest last in divisibility order
    factors = [Poly([1])] * (n - len(layers)) + layers
    return factors


def all_jordan_structures(n: int, root_pool=(1, 2, 3)):
    """Every Jordan-type structure of size n with <= 3 distinct roots:
    partitions of n into <= 3 labelled groups, each group carrying its own
    block-size partition."""

    def partitions(m: int, cap: int | None = None):
        cap = cap or m
        if m == 0:
            yield ()
            return
        for first in range(min(m, cap), 0, -1):
            for rest in partitions(m - first, first):
                yield (first,) + rest

    for k in range(1, min(3, n) + 1):
        for split in partitions(n):
            if len(split) != k:
                continue
            for sub in itertools.product(*(partitions(part) for part in split)):
                yield tuple(
                    (root_pool[i], sizes) for i, sizes in enumerate(sub)
                )


class TestAcceptance:
    def test_c01_note23_reproduction(self):
        pencil = Pencil.classical(NOTE23)
        charpoly = pencil.char_poly()
        assert charpoly == Poly([0, -3, 4, -1])  # -x(3-x)(1-x) expanded
        roots = char_roots(pencil)
        assert [(r.value, r.multiplicity) for r in roots] == [
            (0, 1),
            (1, 1),
            (3, 1),
        ]
        expected = {1: (1, 0, 1), 0: (1, 1, -1)}
        for root in roots:
            v = adjugate_eigenvector(pencil, root)
            if root.value in expected:
                assert v == expected[root.value]
            residual = (NOTE23 - RatMatrix.identity(3).scale(root.value)).apply(v)
            assert residual == (0, 0, 0)
        dec = spectral_decompose(pencil)
        rep = cauchy_orthogonality(dec, RatMatrix.identity(3))
        assert rep.ok and rep.max_violation == 0 and rep.pairs_checked == 3
        report(1, "3x3 worked example: charpoly, exact roots, adjugate"
                  " eigenvectors, exact orthogonality")

    def test_c02_dalembert_two_mass(self):
        model = build_model("dalembert-two-mass", {"T": 1})
        sol = solve_modal(model, InitialConditions.of([1, 0], [0, 0]))
        omegas = sorted(m.omega for m in sol.modes)
        expected_ratio = math.sqrt(4 - 2 * math.sqrt(2)) / math.sqrt(
            4 + 2 * math.sqrt(2)
        )
        got_ratio = omegas[0] / omegas[1]
        assert abs(got_ratio - expected_ratio) / expected_ratio <= 1e-12
        A = model.mass.to_numpy()
        seen = set()
        for m in sol.modes:
            d = A @ m.shape_floats()
            d = d / d[0]
            for sign in (1, -1):
                if abs(d[1] - sign / math.sqrt(2)) <= 1e-10:
                    seen.add(sign)
        assert seen == {1, -1}
        report(2, "two-mass decoupling: frequency ratio to 1e-12, directions"
                  " (1, +-1/sqrt(2)) to 1e-10")

    def test_c03_loaded_string_series(self):
        for n in range(1, 7):
            model = build_model("loaded-string", {"n": n, "a": 1})
            got = frequency_poly_in_rho(model)
            series = loaded_string_frequency_series(n, 1)
            assert got.monic() == series.monic()
            scale = got.leading() / series.leading()
            assert scale != 0 and got == series.scale(scale)
        report(3, "hanging string n=1..6: frequency determinant equals the"
                  " classical series up to a rational scalar, exactly")

    def test_c04_two_dof_characteristic_equation(self):
        cases = [
            (Fraction(1), Fraction(1), Fraction(0), Fraction(1)),
            (Fraction(3), Fraction(2), Fraction(1, 2), Fraction(5)),
            (Fraction(7, 3), Fraction(5, 2), Fraction(-1, 4), Fraction(11, 7)),
        ]
        for g, f, a, c in cases:
            model = build_model(
                "yvon-villarceau-2dof", {"g": g, "f": f, "a": a, "c": c}
            )
            got = model.pencil().char_poly()
            assert got == Poly([c * c, -(f + g) * c, f * g - a * a])
        report(4, "2-dof characteristic equation matches the cleared form"
                  " exactly for rational parameters")

    def test_c05_definite_pair_reduction_randomized(self):
        rng = random.Random(20260810)
        plans = (
            [(2, [1, 2])] * 6
            + [(3, [1, 2, 4])] * 8
            + [(3, [5, 5, 1])] * 6          # planted double
            + [(4, [2, 2, 7, 3])] * 6       # planted double
            + [(3, [4, 4, 4])] * 5          # planted triple
            + [(4, [1, 1, 1, 6])] * 5       # planted triple
            + [(2, [3, 3])] * 4             # planted double, full size
            + [(3, [2, 5, 9])] * 6
            + [(4, [1, 3, 5, 7])] * 4
        )
        assert len(plans) == 50
        doubles = triples = 0
        for n, spectrum in plans:
            pair, truth = planted_pair(rng, n, spectrum)
            dec = theta_components(pair)
            assert dec.path == "exact"
            got = {c.root.value: c.theta for c in dec.components}
            assert got == truth
            total = RatMatrix.zeros(n, n)
            weighted = RatMatrix.zeros(n, n)
            for c in dec.components:
                total = total + c.theta
                weighted = weighted + c.theta.scale(c.root.value)
                assert c.theta.rank() == c.multiplicity
                assert inertia(c.theta).negatives == 0
                if c.multiplicity == 2:
                    doubles += 1
                if c.multiplicity == 3:
                    triples += 1
            assert total == pair.phi
            assert weighted == pair.psi
            assert remarkable_circumstance_check(pair).ok
        assert doubles >= 10 and triples >= 5
        report(5, f"50 randomized definite pairs reduced exactly"
                  f" ({doubles} double, {triples} triple roots)")

    def test_c06_invariant_factor_ground_truth(self):
        checked = 0
        for n in range(1, 6):
            for structure in all_jordan_structures(n):
                M = jordan_matrix(structure)
                chain = minor_gcd_chain(Pencil.similarity(M).char_matrix())
                inv = list(invariant_factors(chain))
                assert inv == ground_truth_invariant_factors(structure, n)
                checked += 1
        # sum over n<=5 of (partitions of n into <=3 labelled parts, each
        # carrying its own block partition) = 1 + 3 + 6 + 14 + 25
        assert checked == 49
        # similarity invariance under random rational conjugation
        rng = random.Random(99)
        conjugations = 0
        while conjugations < 20:
            n = rng.randint(2, 4)
            structures = list(all_jordan_structures(n))
            structure = structures[rng.randrange(len(structures))]
            M = jordan_matrix(structure)
            T = RatMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            )
            if T.det() == 0:
                continue
            conj = T @ M @ T.inverse()
            inv_a = list(
                invariant_factors(minor_gcd_chain(Pencil.similarity(M).char_matrix()))
            )
            inv_b = list(
                invariant_factors(
                    minor_gcd_chain(Pencil.similarity(conj).char_matrix())
                )
            )
            assert inv_a == inv_b
            conjugations += 1
        report(6, f"invariant factors match ground truth on {checked} Jordan"
                  f" structures (n<=5) and survive 20 conjugations")

    def test_c07_diagonalizability_agreement(self):
        for n in range(1, 6):
            for structure in all_jordan_structures(n):
                M = jordan_matrix(structure)
                verdict, _ = is_diagonalizable(M)
                pencil = Pencil.similarity(M)
                geo = sum(
                    len(nullspace_at_root(pencil, r)) for r in char_roots(pencil)
                )
                assert verdict == (geo == n)
        report(7, "diagonalizability verdict agrees with geometric"
                  " multiplicity counts on every structure")

    def test_c08_inertia_paths_and_darboux(self):
        rng = random.Random(4242)
        for _ in range(100):
            n = rng.randint(1, 6)
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = Fraction(
                        rng.randint(-6, 6), rng.randint(1, 3)
                    )
            M = RatMatrix.from_rows(rows)
            assert inertia(M).signature == congruence_signature(M)
        M = RatMatrix.from_rows(
            [[2, 1, 0], [1, -3, Fraction(1, 2)], [0, Fraction(1, 2), 5]]
        )
        base = inertia(M).signature
        done = 0
        while done < 20:
            S = RatMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            )
            if S.det() == 0:
                continue
            assert inertia(S.transpose() @ M @ S).signature == base
            done += 1
        for diag in ([1, 2], [2, 2], [1, 1, 1, 4], [0, 3, 3]):
            D = RatMatrix.diagonal(diag)
            steps = darboux_signature_steps(D)
            for root, jump in steps:
                assert -jump == root.multiplicity
        sym = RatMatrix.from_rows([[1, 1, 0], [1, 2, 1], [0, 1, 1]])
        for root, jump in darboux_signature_steps(sym):
            assert -jump == root.multiplicity
        report(8, "minor-formula and congruence inertia agree on 100 randoms;"
                  " 20 congruence invariances; signature jumps equal"
                  " multiplicities")

    def test_c09_matrix_exponential(self):
        # det(M - xI) = -(x-2)^2 (x-3) = -x^3 + 7x^2 - 16x + 12
        assert Pencil.classical(NOTE71).char_poly() == Poly([12, -16, 7, -1])
        E = expm_projectors(NOTE71, 1.0)
        T = expm_taylor(NOTE71.to_numpy(), 1.0)
        assert float(np.max(np.abs(E - T))) <= 1e-9
        projs = spectral_projectors(NOTE71)
        total = RatMatrix.zeros(3, 3)
        for _sigma, _m, _chain, P in projs:
            assert P @ P == P
            total = total + P
        assert total == RatMatrix.identity(3)
        report(9, "spectral-projector exponential matches the series oracle"
                  " to 1e-9; projector identities exact")

    def test_c10_jordan_ode_random_defective(self):
        rng = random.Random(314159)
        solved = 0
        while solved < 20:
            n = rng.randint(2, 4)
            structures = [
                s
                for s in all_jordan_structures(n)
                if any(size >= 2 for _, sizes in s for size in sizes)
            ]
            structure = structures[rng.randrange(len(structures))]
            J = jordan_matrix(structure)
            T = RatMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            )
            if T.det() == 0:
                continue
            M = T @ J @ T.inverse()
            ok, _ = is_diagonalizable(M)
            assert not ok
            chains = {
                Fraction(sigma): max(sizes) for sigma, sizes in structure
            }
            # a random start can land in a proper invariant subspace and
            # truncate psi; redraw until the generic degree is attained
            for _attempt in range(20):
                ic = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
                sol = solve_jordan(M, ic)
                if all(
                    b.psi_degree() == b.chain_length - 1 for b in sol.blocks
                ):
                    break
            assert sol.path == "exact"
            assert verify_jordan_exact(sol)
            times = [0.1, 0.4, 0.8, 1.3]
            assert ode_residual(sol.evaluate, M.to_numpy(), times) <= 1e-6
            for block in sol.blocks:
                assert block.chain_length == chains[block.sigma_re]
                assert block.psi_degree() == block.chain_length - 1
            solved += 1
        report(10, "20 random defective systems: residual <= 1e-6 and psi"
                   " degree = chain length - 1")

    def test_c11_stability_controversy(self):
        model = build_model(
            "yvon-villarceau-2dof", {"g": 1, "f": 1, "a": 0, "c": 1}
        )
        roots = char_roots(model.pencil())
        assert [(r.value, r.multiplicity) for r in roots] == [(1, 2)]
        verdict = classify_stability(model)
        assert verdict.historical != verdict.corrected
        assert verdict.corrected == "stable"
        assert not verdict.agreement
        sol = solve_modal(
            model, InitialConditions.of([Fraction(1, 10), 0], [0, Fraction(1, 20)])
        )
        horizon = 100 * (2 * math.pi / sol.min_omega())
        traj = sample_trajectory(sol, time_grid(horizon, 4000))
        bound = sol.amplitude_bound(horizon)
        assert traj.sup_norm <= bound + 1e-12
        report(11, "repeated-root scenario: verdicts disagree, corrected"
                   " stable, trajectory within the modal bound over 100"
                   " periods")

    def test_c12_energy_conservation(self):
        scenarios = [
            ("coupled-springs", {"m": 1, "k": 1, "k0": 1}, [1, 0], [0, 0]),
            ("coupled-springs", {"m": 2, "k": 3, "k0": 1},
             [1, Fraction(1, 4)], [Fraction(-1, 2), 1]),
            ("loaded-string", {"n": 4, "a": 1},
             [1, 0, Fraction(-1, 3), Fraction(1, 2)], [0, 1, 0, Fraction(-1, 5)]),
            ("dalembert-two-mass", {"T": 1}, [1, 0], [0, Fraction(1, 2)]),
            ("yvon-villarceau-2dof", {"g": 1, "f": 1, "a": 0, "c": 1},
             [Fraction(1, 10), 0], [0, Fraction(1, 20)]),
            ("yvon-villarceau-2dof", {"g": 3, "f": 2, "a": 1, "c": 5},
             [Fraction(1, 10), Fraction(-1, 10)], [0, 0]),
        ]
        for kind, params, Y, V in scenarios:
            model = build_model(kind, params)
            sol = solve_modal(model, InitialConditions.of(Y, V))
            energies = [sol.energy(t) for t in np.linspace(0.0, 100.0, 500)]
            top = max(abs(e) for e in energies)
            assert top > 0
            drift = (max(energies) - min(energies)) / top
            assert drift <= 1e-8
        report(12, "energy drift <= 1e-8 over t in [0, 100] for six modal"
                   " scenarios")
