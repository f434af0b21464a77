"""Benchmark worker: one fresh process that sets up one workload, then runs
the command its parent sends on stdin.

Protocol: argv is (workload, seed, workdir).  The worker imports `secular`
before anything heavy, builds the inputs, warms up and prints "ready".  It
then reads one line: "exit", or a JSON object {"seconds": s, "trace": 0|1}.
It answers with one JSON line and exits.
"""

import os
import signal
import sys
import time

import secular  # the first heavy import; set-up time includes it

import hashlib
import json
import resource
import statistics
import subprocess

import hostspeed
import tracer as spans
import workloads

PROBLEM_LIMIT_S = 10.0
# Tail percentile per workload, fixed so that a faster program, which
# measures more rounds in the same time, is not judged at a higher one.
TAIL = {"modal-irrational": 0.9, "exact-structure": 0.9, "cli-small-docs": 0.8}
TRACE_ROUNDS = {"modal-irrational": 1, "exact-structure": 2, "cli-small-docs": 3}
PROBE_REPEATS = 5


class ProblemTimeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise ProblemTimeout()


class Workload:
    def __init__(self, name, seed, workdir):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.rounds = []
        self.env = dict(os.environ, PYTHONPATH=os.path.dirname(secular.__path__[0]))

    def make_round(self, seed, r):
        if self.name == "modal-irrational":
            return workloads.modal_round(seed, r)
        if self.name == "exact-structure":
            return workloads.exact_round(seed, r)
        return workloads.cli_round(seed, r, self.workdir)

    def round(self, r):
        while len(self.rounds) <= r:
            self.rounds.append(self.make_round(self.seed, len(self.rounds)))
        return self.rounds[r]

    def subprocess_cli(self, argv):
        proc = subprocess.run([sys.executable, "-m", "secular", *argv], env=self.env,
                              capture_output=True, text=True, timeout=PROBLEM_LIMIT_S)
        return proc.returncode, proc.stdout

    def run(self, problem):
        """Run one problem under the time limit; returns (seconds, output or
        an error string)."""
        t0 = time.perf_counter()
        try:
            if isinstance(problem, workloads.CliProblem):
                out = self.subprocess_cli(problem.argv)
            else:
                signal.setitimer(signal.ITIMER_REAL, PROBLEM_LIMIT_S)
                try:
                    out = problem()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except (ProblemTimeout, subprocess.TimeoutExpired):
            out = f"time limit of {PROBLEM_LIMIT_S} s exceeded"
        except Exception as exc:  # any engine error is a failed problem
            out = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - t0, out

    def warm_up(self):
        """Run the two smallest problems of a round outside the corpus."""
        rnd = self.make_round("warm-up", 0)
        for p in sorted(rnd, key=lambda p: getattr(p, "n", 0))[:2]:
            self.run(p)
            if isinstance(p, workloads.CliProblem):
                p.inproc()


def check(problem, out):
    if isinstance(out, str):
        return out
    try:
        return problem.check(out)
    except Exception as exc:  # a check that cannot run counts as a failure
        return f"check raised {type(exc).__name__}: {exc}"


def measure(w, seconds):
    """Closed loop over fresh whole rounds.  A round starts while it is
    expected to end within `seconds`, and rounds go on until the tail
    percentile has at least ten samples beyond it.  The calibration kernel
    runs just before each problem, so each problem time has a host-speed
    sample beside it.  Each round's outputs are checked, outside the timed
    region, before the next round starts, so memory holds one round of
    outputs at most."""
    need = int(10 / (1 - TAIL[w.name]) + 0.5) + 1
    times, kernel, failures = [], [], []
    drift_stable = 0
    r, t0 = 0, time.perf_counter()
    last = elapsed = 0.0
    while elapsed + last <= seconds or len(times) < need:
        outs = []
        for p in w.round(r):
            kernel.append(hostspeed.sample())
            dt, out = w.run(p)
            times.append(dt)
            outs.append((p, out))
        for p, out in outs:
            why = check(p, out)
            if why is not None:
                failures.append(f"{p.label} round {r}: {why}")
            elif isinstance(p, workloads.ModalProblem):
                drift_stable += out[1].has_drift and out[2].corrected == "stable"
        r += 1
        last = time.perf_counter() - t0 - elapsed
        elapsed += last
    return {
        "attempted": len(times),
        "failed": len(failures),
        "failures": failures[:20],
        "rounds": r,
        "elapsed_s": elapsed,
        "times_s": times,
        "kernel_s": kernel,
        "tail_percentile": round(100 * TAIL[w.name]),
        "drift_with_bounded_verdict": drift_stable,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def probe_ms(argv, env):
    """Median wall time of a fresh interpreter running argv."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=env, check=True,
                       capture_output=True, timeout=PROBLEM_LIMIT_S)
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def timed_calls(problems, tracer=None):
    """In-process pass; returns (per-problem seconds, outputs, per-problem
    host-speed factors from a kernel sample before each problem)."""
    secs, outs, kernel = [], [], []
    for i, p in enumerate(problems):
        if tracer is not None:
            tracer.problem = f"{i}:{p.label}"
        kernel.append(hostspeed.sample())
        t0 = time.perf_counter()
        outs.append(p.inproc() if isinstance(p, workloads.CliProblem) else p())
        secs.append(time.perf_counter() - t0)
    return secs, outs, hostspeed.factors(kernel)


def traced(w):
    """Per-layer metrics from a traced in-process pass over the first
    TRACE_ROUNDS rounds, between two untraced passes over the same problems
    for the overhead ratio (the first pass in a fresh worker runs slower,
    and the mean of one pass before and one after cancels that).  Every workload's pass ends with one round of
    cli-small-docs documents (the CLI workload's own rounds already are), so
    each layer, `cli` and `io` included, is reached on every workload; the
    CLI documents also run as subprocesses for the per-verb times."""
    own = [p for r in range(TRACE_ROUNDS[w.name]) for p in w.round(r)]
    cli = own if w.name == "cli-small-docs" else workloads.cli_round(w.seed, 0, w.workdir)
    problems = own if cli is own else own + cli
    def scaled_seconds(secs, _outs, speed):
        return sum(t * f for t, f in zip(secs, speed))

    untraced_own = scaled_seconds(*timed_calls(own))
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_s, outs, traced_speed = timed_calls(problems, tracer)
    finally:
        tracer.uninstall()
    failures = [f"{p.label}: {why}" for p, out in zip(problems, outs)
                if (why := check(p, out)) is not None]
    metrics = spans.summary(tracer)
    # all passes scaled to the reference host speed, so that host drift
    # between them does not read as tracing overhead
    untraced_own = (untraced_own + scaled_seconds(*timed_calls(own))) / 2
    traced_own = scaled_seconds(traced_s, None, traced_speed[:len(own)])
    metrics["trace.untraced_problems_per_s"] = (len(own) / untraced_own, "1/s")
    metrics["trace.traced_problems_per_s"] = (len(own) / traced_own, "1/s")
    metrics["trace.overhead_ratio"] = (traced_own / untraced_own, "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")

    inproc, _, _ = timed_calls(cli)
    per_verb = {v: [] for v in workloads.VERBS}
    for p in cli:
        dt, out = w.run(p)
        why = check(p, out)
        if why is not None:
            failures.append(f"{p.label} subprocess: {why}")
        per_verb[p.verb].append(dt)
    for v in workloads.VERBS:
        metrics[f"cli.{v}.p50_ms"] = (1000.0 * statistics.median(per_verb[v]), "ms")
    inproc_ms = 1000.0 * statistics.median(inproc)
    metrics["cli.inproc.p50_ms"] = (inproc_ms, "ms")
    metrics["cli.startup_ms"] = (1000.0 * statistics.median(
        [dt for ts in per_verb.values() for dt in ts]) - inproc_ms, "ms")
    interpreter = probe_ms(["-c", "pass"], w.env)
    metrics["process.interpreter_ms"] = (interpreter, "ms")
    metrics["process.import_ms"] = (probe_ms(["-c", "import secular"], w.env) - interpreter, "ms")
    tracer.dump(os.path.join(w.workdir, "spans.jsonl"))
    return {
        "attempted": len(problems) + len(cli),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics,
    }


def main():
    name, seed, workdir = sys.argv[1], sys.argv[2], sys.argv[3]
    signal.signal(signal.SIGALRM, _alarm)
    w = Workload(name, seed, workdir)
    w.round(0)
    w.warm_up()
    print("ready", flush=True)
    line = sys.stdin.readline().strip()
    if line == "exit" or not line:
        return
    cmd = json.loads(line)
    result = traced(w) if cmd["trace"] else measure(w, cmd["seconds"])
    result["corpus"] = corpus_digest(w)
    print(json.dumps(result), flush=True)


def corpus_digest(w):
    """Hash of the generated inputs of round 0, so runs can show which
    corpus they measured."""
    text = json.dumps([p.describe() for p in w.round(0)], sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


if __name__ == "__main__":
    main()
