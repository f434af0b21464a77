"""Microbenchmark of the hot records: construction, ==, hash and a field
read of RealRoot, RatMatrix, Pencil and Mode, and the same for `Poly` with
its product, euclidean division and monic form.

    PYTHONPATH=src python scripts/record_microbench.py [--baseline SRC] [--rounds N]

With --baseline, the `secular` package under SRC (for example an older
checkout's src/) is timed in the same process, alternating with this one,
and the table gives the ratio this/baseline.  Each figure is the minimum
over the rounds of the mean time of one operation, in nanoseconds.

A RatMatrix is built from its entries by `RatMatrix.from_entries` (by the
class itself in a tree older than that constructor), and it stores only
integers over one denominator: the `RatMatrix.entries` row times a build
of four Fractions, not a field read.  The same holds for `Poly.coeffs` on a
`Poly` stored as content * prim.  The `Poly` rows take a quartic with
denominators 2 to 6, a negative leading coefficient and a quadratic
divisor, the sizes of the characteristic polynomials the engine divides.
`Poly ==` compares it with an equal quartic built from other Fraction
objects, as two computations of one polynomial give: over shared objects,
a tuple of Fractions compares by identity and never calls Fraction.__eq__.
"""

import argparse
import importlib
import sys
import timeit
from fractions import Fraction

OPERATIONS = (
    ("RealRoot(...)", "RealRoot('isolated', None, f, f, p, 1)"),
    ("RatMatrix(...)", "build(2, 2, entries)"),
    ("Pencil(...)", "Pencil(a, a, 'sA-B')"),
    ("Mode(...)", "Mode(r1, 1.0, shape, f, 1.0, 0.5)"),
    ("RealRoot ==", "r1 == r2"),
    ("RatMatrix ==", "a == b"),
    ("Pencil ==", "p1 == p2"),
    ("Mode ==", "m1 == m2"),
    ("hash(RealRoot)", "hash(r1)"),
    ("hash(RatMatrix)", "hash(a)"),
    ("hash(Pencil)", "hash(p1)"),
    ("RatMatrix.entries", "a.entries"),
    ("RealRoot.lo", "r1.lo"),
    ("Poly(fractions)", "Poly(cs)"),
    ("Poly ==", "q1 == q2"),
    ("hash(Poly)", "hash(q1)"),
    ("Poly *", "q1 * d"),
    ("divmod(Poly)", "divmod(q1, d)"),
    ("Poly.monic", "q1.monic()"),
    ("Poly.coeffs", "q1.coeffs"),
)


def load(src):
    """The record classes of the `secular` under src (None: the importable one)."""
    for name in [m for m in sys.modules if m == "secular" or m.startswith("secular.")]:
        del sys.modules[name]
    if src is not None:
        sys.path.insert(0, src)
    try:
        realroots = importlib.import_module("secular.realroots")
        matrices = importlib.import_module("secular.matrices")
        oscillate = importlib.import_module("secular.oscillate")
        polynomials = importlib.import_module("secular.polynomials")
    finally:
        if src is not None:
            sys.path.remove(src)
    return realroots.RealRoot, matrices.RatMatrix, matrices.Pencil, oscillate.Mode, polynomials.Poly


def namespace(RealRoot, RatMatrix, Pencil, Mode, Poly):
    f, p = Fraction(1, 3), Poly([-2, 0, 1])
    entries, shape = (f,) * 4, (f, f)
    build = getattr(RatMatrix, "from_entries", RatMatrix)
    a, b = build(2, 2, entries), build(2, 2, entries)
    r1, r2 = (RealRoot("isolated", None, f, f, p, 1) for _ in range(2))
    cs = tuple(Fraction(n, d) for n, d in ((7, 6), (-5, 2), (0, 1), (11, 3), (-4, 3)))
    q1, q2 = Poly(cs), Poly([Fraction(c.numerator, c.denominator) for c in cs])
    d = Poly([Fraction(1, 2), Fraction(-1, 3), 1])
    return dict(RealRoot=RealRoot, build=build, Pencil=Pencil, Mode=Mode, f=f, p=p,
                Poly=Poly, cs=cs, q1=q1, q2=q2, d=d,
                entries=entries, shape=shape, a=a, b=b, r1=r1, r2=r2,
                p1=Pencil(a, a, "sA-B"), p2=Pencil(b, b, "sA-B"),
                m1=Mode(r1, 1.0, shape, f, 1.0, 0.5), m2=Mode(r2, 1.0, shape, f, 1.0, 0.5))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", help="src directory of the package to compare with")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--number", type=int, default=5000, help="operations per sample")
    args = ap.parse_args()

    trees = {"this": namespace(*load(None))}
    if args.baseline:
        trees["baseline"] = namespace(*load(args.baseline))
    best = {(label, tree): float("inf") for label, _ in OPERATIONS for tree in trees}
    for _ in range(args.rounds):
        for label, stmt in OPERATIONS:
            for tree, ns in trees.items():
                ns_per_op = timeit.timeit(stmt, globals=ns, number=args.number) / args.number * 1e9
                best[label, tree] = min(best[label, tree], ns_per_op)

    header = f"{'operation':20s} {'this ns':>9s}"
    if args.baseline:
        header += f" {'baseline ns':>12s} {'ratio':>6s}"
    print(header)
    for label, _ in OPERATIONS:
        line = f"{label:20s} {best[label, 'this']:9.0f}"
        if args.baseline:
            base = best[label, "baseline"]
            line += f" {base:12.0f} {best[label, 'this'] / base:6.2f}"
        print(line)


if __name__ == "__main__":
    main()
