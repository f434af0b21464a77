"""Seeded workloads for the secular benchmark.

Each workload is a sequence of rounds.  A round holds one problem per size
stratum, in a seeded order, so every complete round has the same mix of
sizes and a run that measures whole rounds keeps that mix whatever its speed.
Round r of seed s depends only on (workload, s, r).

A problem is a callable that drives the public API of `secular` and returns
its outputs; `check` compares those outputs with planted ground truth or an
independent oracle and returns None when they are right, else a reason.
Checking happens outside the timed region.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import secular
from secular import cli

# ---------------------------------------------------------------------------
# plain integer / rational helpers (independent of the library)
# ---------------------------------------------------------------------------


def int_matrix(rng, n, bound):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def matmul(X, Y):
    return [
        [sum(X[i][k] * Y[k][j] for k in range(len(Y))) for j in range(len(Y[0]))]
        for i in range(len(X))
    ]


def transpose(X):
    return [list(col) for col in zip(*X)]


def gram(rng, n, bound, shift=0):
    """L^T L + shift * I for a seeded integer L with entries in [-bound, bound]."""
    L = int_matrix(rng, n, bound)
    G = matmul(transpose(L), L)
    for i in range(n):
        G[i][i] += shift
    return G


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def unimodular(rng, n, ops):
    """Integer U with integer inverse, from `ops` seeded elementary row
    operations; returns (U, U^-1)."""
    U, Uinv = identity(n), identity(n)
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 1, 2))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        for row in Uinv:
            row[j] -= c * row[i]
    return U, Uinv


def expand_roots(factors):
    """Coefficients (lowest degree first) of prod (x - lam)^e."""
    c = [Fraction(1)]
    for lam, e in factors:
        for _ in range(e):
            c = [
                (c[i - 1] if i else 0) - lam * (c[i] if i < len(c) else 0)
                for i in range(len(c) + 1)
            ]
    return c


def polymul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def rank(rows):
    """Rank of a rational matrix by plain Gaussian elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col] / m[r][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def frac_doc(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def matrix_doc(M):
    n = len(M)
    return {
        "rows": n,
        "cols": n,
        "entries": [frac_doc(v) for row in M for v in row],
    }


def rat_matrix(M):
    return secular.RatMatrix.from_rows(M)


def nonzero_vector(rng, n, bound=3):
    while True:
        v = [rng.randint(-bound, bound) for _ in range(n)]
        if any(v):
            return v


# ---------------------------------------------------------------------------
# modal-irrational: loaded strings and custom definite pencils
# ---------------------------------------------------------------------------

# Spacing a = p/q makes the string's integer model have leading coefficient
# p^n and constant term q^n det(B0).  The divisor search in rational-root
# finding costs about d(constant) * sqrt(leading) trial divisions, so these
# spacings keep a 12-mass string near one second while 1/3, 3/4 or 11/2
# take 3 to 45 s.
SPACINGS = tuple(Fraction(a) for a in ("1", "2", "3", "3/2", "2/3"))
GRID_T_MAX, GRID_STEPS = 10.0, 200
MODAL_TOL = 1e-8


class ModalProblem:
    def __init__(self, kind, n, parameters, mass, stiffness, ic):
        self.kind, self.n = kind, n
        self.parameters, self.mass, self.stiffness = parameters, mass, stiffness
        self.ic = ic
        self.label = f"{kind}-n{n}"

    def describe(self):
        return [self.kind, self.n, {k: str(v) for k, v in self.parameters.items()},
                self.mass, self.stiffness, [str(x) for x in self.ic[0] + self.ic[1]]]

    def __call__(self):
        if self.kind == "custom":
            model = secular.build_model(
                "custom", {}, mass=rat_matrix(self.mass),
                stiffness=rat_matrix(self.stiffness))
        else:
            model = secular.build_model(self.kind, self.parameters)
        ic = secular.InitialConditions.of(*self.ic)
        sol = secular.solve_modal(model, ic)
        verdict = secular.classify_stability(model)
        traj = secular.sample_trajectory(sol, secular.time_grid(GRID_T_MAX, GRID_STEPS))
        return model, sol, verdict, traj

    def check(self, out):
        # numpy only checks; imported here so that set-up imports no more
        # than `secular` itself does
        import numpy as np

        model, sol, verdict, traj = out
        A = np.array([[float(x) for x in r] for r in model.mass.to_rows()])
        B = np.array([[float(x) for x in r] for r in model.stiffness.to_rows()])
        scale_b = max(1.0, float(np.max(np.abs(B))))
        # oracle eigenvalues of the pencil K*A - B via a Cholesky reduction
        L = np.linalg.cholesky(A)
        Linv = np.linalg.inv(L)
        eig = np.sort(np.linalg.eigvalsh(Linv @ B @ Linv.T))
        tol = MODAL_TOL * max(1.0, float(np.max(np.abs(eig))))
        got = sorted([m.k_root.as_float() for m in sol.modes] + [0.0] * len(sol.drifts))
        if len(got) != self.n:
            return f"{len(got)} modes for n={self.n}"
        for m in sol.modes:
            r = m.k_root
            if not r.is_exact and not (float(r.lo) - tol <= eig[np.argmin(np.abs(eig - r.as_float()))] <= float(r.hi) + tol):
                return "isolating interval misses the eigvalsh root"
        if np.max(np.abs(np.array(got) - eig)) > tol:
            return "roots differ from eigvalsh"
        # verdicts: corrected rule from definiteness, historical from roots
        stable_b = float(np.min(np.linalg.eigvalsh(B))) >= -tol
        if verdict.corrected != ("stable" if stable_b else "unstable"):
            return "corrected verdict disagrees with definiteness"
        # zero roots counted exactly; repeated roots judged from float gaps,
        # and the check is skipped when a gap is too close to call
        zero_roots = self.n - rank(model.stiffness.to_rows())
        gap = float(np.min(np.diff(eig))) / max(1.0, float(eig[-1]))
        if zero_roots or gap < 1e-12:
            if verdict.historical == "stable":
                return "historical verdict 'stable' with a zero or repeated root"
        elif gap > 1e-6 and verdict.historical != "stable":
            return "historical verdict not 'stable' with simple positive roots"
        # closed form rebuilt from the mode data: initial values, ODE
        # residual A y'' + B y and energy along the grid, grid samples
        t = np.array(traj.times)
        y = np.zeros((len(t), self.n))
        v = np.zeros_like(y)
        acc = np.zeros_like(y)
        for m in sol.modes:
            s = np.array([float(x) for x in m.shape])
            ph = m.omega * t + m.phase
            y += np.outer(m.amplitude * np.sin(ph), s)
            v += np.outer(m.amplitude * m.omega * np.cos(ph), s)
            acc -= np.outer(m.amplitude * m.omega ** 2 * np.sin(ph), s)
        for d in sol.drifts:
            s = np.array([float(x) for x in d.shape])
            y += np.outer(d.offset + d.rate * t, s)
            v += np.outer(np.full_like(t, d.rate), s)
        Y0 = np.array([float(x) for x in self.ic[0]])
        V0 = np.array([float(x) for x in self.ic[1]])
        size = max(1.0, float(np.max(np.abs(Y0))), float(np.max(np.abs(V0))))
        if np.max(np.abs(y[0] - Y0)) > MODAL_TOL * size or np.max(np.abs(v[0] - V0)) > MODAL_TOL * size:
            return "initial conditions not reproduced"
        ymax = max(1.0, float(np.max(np.abs(y))))
        residual = acc @ A.T + y @ B.T
        if np.max(np.abs(residual)) > MODAL_TOL * scale_b * ymax * max(1.0, eig[-1]):
            return "ODE residual too large"
        energy = 0.5 * (np.einsum("ti,ij,tj->t", v, A, v) + np.einsum("ti,ij,tj->t", y, B, y))
        if np.max(np.abs(energy - energy[0])) > MODAL_TOL * max(1.0, float(energy[0])) * ymax:
            return "energy not conserved"
        if len(traj.values) != GRID_STEPS + 1 or np.max(np.abs(np.array(traj.values) - y)) > MODAL_TOL * ymax:
            return "trajectory samples differ from the closed form"
        return None


def modal_round(seed, r):
    # String n takes spacing SPACINGS[(offset[n] + r) % 5], offsets seeded
    # per seed: over any five consecutive rounds every string size meets
    # every spacing once, so the strings' share of the work does not depend
    # on the seed.
    offsets = random.Random(f"modal-irrational/{seed}").choices(range(len(SPACINGS)), k=10)
    rng = random.Random(f"modal-irrational/{seed}/{r}")
    problems = []
    for n, off in zip(range(3, 13), offsets):
        a = SPACINGS[(off + r) % len(SPACINGS)]
        ic = (nonzero_vector(rng, n), nonzero_vector(rng, n))
        problems.append(ModalProblem("loaded-string", n, {"n": n, "a": a}, None, None, ic))
    for n in range(3, 8):
        A, B = gram(rng, n, 3, shift=1), gram(rng, n, 3)
        ic = (nonzero_vector(rng, n), nonzero_vector(rng, n))
        problems.append(ModalProblem("custom", n, {}, A, B, ic))
    rng.shuffle(problems)
    return problems


# ---------------------------------------------------------------------------
# exact-structure: planted definite pairs and Jordan structures
# ---------------------------------------------------------------------------


class PairProblem:
    """Definite pair Phi = S^T S, Psi = S^T diag(lam) S with unimodular S:
    the theta piece of root mu is S^T E_mu S, E_mu selecting lam == mu."""

    def __init__(self, n, S, lam, label):
        self.n, self.S, self.lam, self.label = n, S, lam, label
        St = transpose(S)
        self.phi = matmul(St, S)
        self.psi = matmul(St, [[lam[i] * S[i][j] for j in range(n)] for i in range(n)])

    def describe(self):
        return [self.label, self.S, [str(x) for x in self.lam]]

    def __call__(self):
        pair = secular.QuadraticPair.checked(rat_matrix(self.phi), rat_matrix(self.psi))
        circ = secular.remarkable_circumstance_check(pair)
        dec = secular.theta_components(pair)
        report = secular.verify_theorem(dec, pair)
        spec = secular.spectral_decompose(pair.pencil(), path="exact")
        return circ, dec, report, spec

    def check(self, out):
        circ, dec, report, spec = out
        n, S, lam = self.n, self.S, self.lam
        mults = {}
        for x in lam:
            mults[x] = mults.get(x, 0) + 1
        if not circ.ok or not report.ok or dec.path != "exact":
            return "circumstance check, theorem report or path wrong"
        got = {c.root.value: c for c in dec.components if c.root.is_exact}
        if sorted(got) != sorted(mults) or len(got) != len(dec.components):
            return "theta roots differ from the planted spectrum"
        for mu, comp in got.items():
            want = [
                [sum(S[k][i] * S[k][j] for k in range(n) if lam[k] == mu) for j in range(n)]
                for i in range(n)
            ]
            if comp.multiplicity != mults[mu] or comp.theta.to_rows() != want:
                return f"theta piece at {mu} differs from the planted one"
        if [(r.value, r.multiplicity) for r in spec.roots] != sorted(mults.items()):
            return "spectral roots differ from the planted spectrum"
        for root, vectors in zip(spec.roots, spec.vectors):
            mu = root.value
            images = [[sum(S[k][j] * v[j] for j in range(n)) for k in range(n)] for v in vectors]
            if len(vectors) != mults[mu] or rank(images) != mults[mu]:
                return f"eigenspace at {mu} has the wrong dimension"
            if any(w[k] != 0 for w in images for k in range(n) if lam[k] != mu):
                return f"eigenvector at {mu} leaves the planted eigenspace"
        return None


class JordanProblem:
    """M = U J U^-1 for a planted Jordan matrix J with integer eigenvalues."""

    def __init__(self, n, blocks, U, Uinv):
        self.n, self.blocks = n, blocks  # blocks: list of (eigenvalue, size)
        J = [[0] * n for _ in range(n)]
        k = 0
        for lam, size in blocks:
            for i in range(size):
                J[k + i][k + i] = lam
                if i + 1 < size:
                    J[k + i][k + i + 1] = 1
            k += size
        self.M = matmul(matmul(U, J), Uinv)
        self.label = f"jordan-n{n}"

    def describe(self):
        return [self.label, self.M]

    def __call__(self):
        M = rat_matrix(self.M)
        chain = secular.minor_gcd_chain(secular.Pencil.similarity(M).char_matrix())
        inv = secular.invariant_factors(chain)
        divisors = secular.elementary_divisors(inv)
        diag, _witness = secular.is_diagonalizable(M)
        return chain, inv, divisors, diag

    def check(self, out):
        chain, inv, divisors, diag = out
        n = self.n
        sizes = {}
        for lam, size in self.blocks:
            sizes.setdefault(lam, []).append(size)
        for s in sizes.values():
            s.sort(reverse=True)
        # i_(n-j) is prod over eigenvalues of (x - lam)^(j-th largest block)
        want = [
            expand_roots([(lam, s[j]) for lam, s in sizes.items() if j < len(s)])
            for j in range(n)
        ][::-1]
        if [list(f.coeffs) for f in inv.factors] != want:
            return "invariant factors differ from the planted Jordan structure"
        delta = [Fraction(1)]
        for k, f in enumerate(want):
            delta = polymul(delta, f)
            if list(chain.deltas[k].coeffs) != delta:
                return "minor-GCD chain differs from the planted Jordan structure"
        got = sorted((-p.coeffs[0] / p.coeffs[1], e) for p, e in divisors.divisors if p.degree() == 1)
        if len(got) != len(divisors.divisors) or got != sorted(self.blocks):
            return "elementary divisors differ from the planted blocks"
        if diag != all(size == 1 for _lam, size in self.blocks):
            return "diagonalizability verdict wrong"
        return None


def planted_spectrum(rng, n):
    distinct = rng.randint(2, n - 1)
    values = set()
    while len(values) < distinct:
        values.add(Fraction(rng.randint(-6, 6), rng.choice((1, 2))))
    values = sorted(values)
    lam = list(values) + [rng.choice(values) for _ in range(n - distinct)]
    rng.shuffle(lam)
    return lam


def big_constant_spectrum(rng, n):
    """One double root plus simple roots, integers of 8 to 13 bits, so that
    the constant term of the characteristic polynomial has 30 to 40 bits."""
    lo, hi = (2**10, 2**13) if n == 3 else (2**7, 2**10)
    while True:
        vals = [rng.randrange(lo, hi) * rng.choice((-1, 1)) for _ in range(n - 1)]
        lam = [vals[0]] + vals
        c0 = 1
        for x in lam:
            c0 *= x
        if len(set(vals)) == n - 1 and 30 <= abs(c0).bit_length() <= 40:
            return [Fraction(x) for x in lam]


def jordan_blocks(rng, n):
    eigen = rng.sample(range(-3, 4), rng.randint(1, min(3, n)))
    share = [1] * len(eigen)
    for _ in range(n - len(eigen)):
        share[rng.randrange(len(eigen))] += 1
    blocks = []
    for lam, m in zip(eigen, share):
        while m:
            size = rng.randint(1, m)
            blocks.append((lam, size))
            m -= size
    rng.shuffle(blocks)
    return blocks


def exact_round(seed, r):
    rng = random.Random(f"exact-structure/{seed}/{r}")
    problems = []
    for n in range(3, 8):
        S, _ = unimodular(rng, n, n + 1)
        problems.append(PairProblem(n, S, planted_spectrum(rng, n), f"pair-n{n}"))
    for n in range(3, 7):
        U, Uinv = unimodular(rng, n, n + 1)
        problems.append(JordanProblem(n, jordan_blocks(rng, n), U, Uinv))
    for n in (3, 4):
        S, _ = unimodular(rng, n, n)
        problems.append(PairProblem(n, S, big_constant_spectrum(rng, n), f"bigconst-n{n}"))
    rng.shuffle(problems)
    return problems


# ---------------------------------------------------------------------------
# cli-small-docs: one `python -m secular <verb>` call per problem
# ---------------------------------------------------------------------------

VERBS = (
    "charpoly", "roots", "eigvec", "invariant-factors", "elementary-divisors",
    "diagonalizable", "inertia", "darboux-steps", "weierstrass-reduce", "expm",
    "solve", "classify", "trajectory",
)


def symmetric_matrix(rng, n, bound=4):
    M = int_matrix(rng, n, bound)
    return [[M[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]


def jordan_matrix(rng, n):
    U, Uinv = unimodular(rng, n, n)
    return JordanProblem(n, jordan_blocks(rng, n), U, Uinv).M


def scenario_doc(rng, n):
    kind = rng.choice(("loaded-string", "coupled-springs", "dalembert-two-mass",
                       "yvon-villarceau-2dof", "custom"))
    if kind in ("coupled-springs", "dalembert-two-mass", "yvon-villarceau-2dof"):
        n = 2
    doc = {"kind": kind, "t_grid": {"t_max": 10.0, "steps": rng.choice((50, 100, 200))}}
    if kind == "loaded-string":
        doc["parameters"] = {"n": str(n), "a": frac_doc(rng.choice(SPACINGS))}
    elif kind == "coupled-springs":
        doc["parameters"] = {k: str(rng.randint(1, 4)) for k in ("m", "k", "k0")}
    elif kind == "dalembert-two-mass":
        doc["parameters"] = {"T": frac_doc(Fraction(rng.randint(1, 4), rng.randint(1, 3)))}
    elif kind == "yvon-villarceau-2dof":
        g, f = rng.randint(2, 5), rng.randint(2, 5)
        doc["parameters"] = {"g": str(g), "f": str(f), "a": str(rng.randint(-1, 1)),
                             "c": str(rng.randint(1, 4))}
    else:
        doc["mass"] = matrix_doc(gram(rng, n, 2, shift=1))
        doc["stiffness"] = matrix_doc(gram(rng, n, 2))
    doc["initial"] = {
        "positions": [frac_doc(x) for x in nonzero_vector(rng, n)],
        "velocities": [frac_doc(x) for x in nonzero_vector(rng, n)],
    }
    return doc


def pair_matrices(rng, n, planted):
    """(Phi, Psi, number of distinct roots) of a definite pair: planted with
    rational roots, or generic with irrational roots (floating residues)."""
    if planted:
        S, _ = unimodular(rng, n, n + 1)
        lam = planted_spectrum(rng, n) if n > 2 else [Fraction(rng.randint(-4, 4))] * 2
        p = PairProblem(n, S, lam, "pair")
        return p.phi, p.psi, len(set(lam))
    return gram(rng, n, 2, shift=1), symmetric_matrix(rng, n), n


def verb_document(rng, verb, n, r):
    if verb in ("charpoly",):
        return matrix_doc(int_matrix(rng, n, 5)), []
    if verb in ("roots", "inertia", "darboux-steps"):
        return matrix_doc(symmetric_matrix(rng, n)), []
    if verb == "eigvec":
        # even rounds: a planted pencil with rational roots (exact adjugate);
        # odd rounds: a random symmetric matrix (floating adjugate)
        if r % 2 == 0:
            phi, psi, roots = pair_matrices(rng, n, planted=True)
            doc = {"A": matrix_doc(phi), "B": matrix_doc(psi)}
        else:
            doc, roots = matrix_doc(symmetric_matrix(rng, n)), n
        return doc, ["--root-index", str(rng.randint(1, roots))]
    if verb in ("invariant-factors", "elementary-divisors", "diagonalizable"):
        return matrix_doc(jordan_matrix(rng, n)), []
    if verb == "expm":
        return matrix_doc(jordan_matrix(rng, n)), ["--time", rng.choice(("0.5", "1.0", "2.0"))]
    if verb == "weierstrass-reduce":
        phi, psi, _ = pair_matrices(rng, n, planted=rng.random() < 0.5)
        return {"phi": matrix_doc(phi), "psi": matrix_doc(psi)}, []
    return scenario_doc(rng, n), []


class CliProblem:
    """One CLI call: the worker runs `argv` as a subprocess (timed); the
    same argv through `cli.run` in process is the oracle for its stdout."""

    def __init__(self, verb, doc, extra, workdir, key):
        self.verb, self.doc, self.extra = verb, doc, extra
        self.path = os.path.join(workdir, f"{key}.json")
        self.label = f"cli-{verb}"
        self.argv = [verb, "--input", self.path] + extra

    def describe(self):
        return [self.verb, self.doc, self.extra]

    def write(self):
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh)

    def inproc(self):
        import contextlib
        import io

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(self.argv)
        return code, buf.getvalue()

    def check(self, out):
        code, stdout = out
        if code != 0:
            return f"exit code {code}"
        ref_code, ref = self.inproc()
        if ref_code != 0 or stdout != ref:
            return "stdout differs from in-process cli.run"
        return None


def cli_round(seed, r, workdir):
    rng = random.Random(f"cli-small-docs/{seed}/{r}")
    problems = []
    for verb in VERBS:
        n = rng.randint(2, 4)
        doc, extra = verb_document(rng, verb, n, r)
        problems.append(CliProblem(verb, doc, extra, workdir, f"{seed}-r{r}-{verb}"))
    rng.shuffle(problems)
    for p in problems:
        p.write()
    return problems
