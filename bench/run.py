"""Benchmark for secular: one command, every metric, every output checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.
Workloads: modal-irrational, exact-structure, cli-small-docs (see
bench/README.md).  Each run starts fresh worker processes, one at a time:
the first SETUP_REPEATS - 1 only set up and exit, so set-up is timed several
times; the last one also measures.  With --trace 0 the last line of stdout
is the end-to-end result, with --trace 1 the per-layer result of a traced
pass over a fixed prefix of the corpus (--seconds does not apply, so its
counts repeat exactly).  Earlier lines are a readable summary.  The exit
code is 0 when a result was printed.

End-to-end times are scaled to a reference host speed measured with a
calibration kernel beside every problem and every set-up (hostspeed.py);
the summary also prints the unscaled figures.  Percentiles are
Harrell-Davis estimates.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import hostspeed

WORKLOADS = ("modal-irrational", "exact-structure", "cli-small-docs")
SETUP_REPEATS = 5
SETUP_KERNEL = 5  # kernel samples before and after each set-up
DEADLINE_S = 170.0
BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def harrell_davis(xs, p):
    """Harrell-Davis estimate of the p-quantile of the sorted sample xs: a
    mean of all order statistics weighted by Beta(p(n+1), (1-p)(n+1)).
    A single order statistic jumps when the sample has a gap at p, as a
    corpus of size strata does between strata; this estimate moves smoothly."""
    # imported here, after the workers have exited: a child inherits its
    # parent's peak RSS at fork, so a heavy parent would inflate peak_rss_mb
    from scipy.special import betainc

    n = len(xs)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), [i / n for i in range(n + 1)])
    return sum((hi - lo) * x for lo, hi, x in zip(edges, edges[1:], xs))


def beyond(lat, pct):
    """How many samples of sorted `lat` lie beyond its pct-th percentile."""
    cut = statistics.quantiles(lat, n=100, method="inclusive")[pct - 1]
    return sum(1 for x in lat if x > cut)


def start_worker(workload, seed, workdir):
    """Spawn a worker and wait for "ready"; returns (process, set-up
    seconds scaled to the reference host speed, as measured)."""
    # one single-threaded process: no BLAS thread pool beside the worker
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    kernel = [hostspeed.sample() for _ in range(SETUP_KERNEL)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py"), workload, str(seed), workdir],
        cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not become ready (got {line!r})")
    kernel += [hostspeed.sample() for _ in range(SETUP_KERNEL)]
    return proc, setup * hostspeed.REFERENCE_S / statistics.median(kernel)


def finish(proc, command):
    """Send the command, read the worker's one-line answer, reap it."""
    out, _ = proc.communicate(command + "\n")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]) if out.strip() else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "secular", "__init__.py")):
        print(f"no secular sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}")
    os.makedirs(workdir, exist_ok=True)

    procs = []
    timer = threading.Timer(DEADLINE_S, lambda: [p.kill() for p in procs])
    timer.start()
    try:
        setups = []
        for i in range(1 if args.trace else SETUP_REPEATS):
            proc, setup = start_worker(args.workload, args.seed, workdir)
            procs.append(proc)
            setups.append(setup)
            if i < SETUP_REPEATS - 1 and not args.trace:
                finish(proc, "exit")
        res = finish(proc, json.dumps({"seconds": args.seconds, "trace": args.trace}))
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        timer.cancel()
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    if res is None:
        print("benchmark failed: worker gave no result", file=sys.stderr)
        return 3

    for why in res["failures"]:
        print(f"FAILED {why}")
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
        print(f"workload {args.workload} seed {args.seed} corpus {res['corpus']}:"
              f" {res['attempted']} traced problems, spans in {workdir}")
    else:
        lat = sorted(t * f for t, f in zip(res["times_s"], hostspeed.factors(res["kernel_s"])))
        pct = res["tail_percentile"]
        metrics = {
            "problems_per_s": {"value": (len(lat) - res["failed"]) / sum(lat), "unit": "1/s"},
            "latency_p50_ms": {"value": 1000.0 * harrell_davis(lat, 0.5), "unit": "ms"},
            "latency_tail_ms": {"value": 1000.0 * harrell_davis(lat, pct / 100), "unit": "ms"},
            "verified_ratio": {
                "value": (res["attempted"] - res["failed"]) / res["attempted"], "unit": "ratio"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        speed = hostspeed.REFERENCE_S / statistics.median(res["kernel_s"])
        print(f"workload {args.workload} seed {args.seed} corpus {res['corpus']}:"
              f" {len(lat)} problems in {res['rounds']} rounds, {res['elapsed_s']:.2f} s;"
              f" {sum(res['times_s']):.2f} s as measured at host speed {speed:.2f}")
        print(f"failure_ratio {res['failed'] / res['attempted']:.4f}"
              f" ({res['failed']} of {res['attempted']})")
        print(f"latency_tail_ms is p{pct}, {beyond(lat, pct)} samples beyond it")
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
        if res["drift_with_bounded_verdict"]:
            print(f"{res['drift_with_bounded_verdict']} problems have drift modes under a"
                  " 'stays bounded' verdict (ROADMAP 4a)")
        raw = sorted(res["times_s"])
        print(f"unscaled: problems_per_s {(len(raw) - res['failed']) / sum(raw):.6g} 1/s,"
              f" latency_p50_ms {1000.0 * harrell_davis(raw, 0.5):.6g} ms,"
              f" latency_tail_ms {1000.0 * harrell_davis(raw, pct / 100):.6g} ms")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
