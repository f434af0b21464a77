"""Check that the traced work counts repeat exactly.

    python3 bench/check_repeat.py [--seed N] [--other-seed M] [workload ...]

For each workload, runs the traced benchmark twice with --seed and once with
--other-seed.  Passes when the two same-seed runs report identical counts
(every per-layer metric that is not a time) and the other seed measured a
different corpus.  Exits 1 on any mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
TIME_UNITS = ("ms", "s", "1/s")
TIMED_RATIOS = ("trace.overhead_ratio",)


def traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=os.path.dirname(BENCH), capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    corpus = next(line.split(" corpus ")[1].split(":")[0] for line in lines if " corpus " in line)
    metrics = json.loads(lines[-1])["metrics"]
    counts = {k: m["value"] for k, m in metrics.items()
              if m["unit"] not in TIME_UNITS and k not in TIMED_RATIOS}
    return corpus, counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--other-seed", type=int, default=2)
    ap.add_argument("workloads", nargs="*",
                    default=["modal-irrational", "exact-structure", "cli-small-docs"])
    args = ap.parse_args()
    ok = True
    for w in args.workloads:
        corpus_a, counts_a = traced(w, args.seed)
        corpus_b, counts_b = traced(w, args.seed)
        corpus_c, _ = traced(w, args.other_seed)
        diff = sorted(k for k in counts_a if counts_a[k] != counts_b.get(k))
        repeat = not diff and corpus_a == corpus_b
        distinct = corpus_c != corpus_a
        ok &= repeat and distinct
        print(f"{w}: {len(counts_a)} counts {'identical' if repeat else 'DIFFER ' + str(diff)}"
              f" for seed {args.seed}; seed {args.other_seed} corpus"
              f" {'differs' if distinct else 'is THE SAME'} ({corpus_a} vs {corpus_c})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
