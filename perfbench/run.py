"""truncbin benchmark: one closed-loop client driving the package.

Run from the repository root (standard library only):

    python3 perfbench/run.py --workload scan-decide --seed 1 --seconds 25 --trace 0

The client starts each operation only after the previous one returned.
It repeats the workload's fixed, seeded list of operations in passes
until --seconds have gone by, always finishing the pass it is in, and
checks every output between operations with the clock stopped.  Lines
starting with '#' report the environment, the samples behind each metric,
fail_ratio and every failure; the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The end-to-end times are given at a reference CPU speed.  On a shared
2-vCPU VM the speed the process gets drifts by tens of per cent over
seconds to minutes, and interpreted Python and big-integer arithmetic
slow by different amounts.  So two fixed pieces of work, python_work and
bigint_work, are timed outside the timed region after every CAL_EVERY_NS
of timed work and at the end of each pass.  Their slowdowns against
REF_PYTHON_NS and REF_BIGINT_NS, weighted by the workload's
workloads.PYTHON_SHARE, give the slowdown of that moment; the operations
between two calibrations are divided by the mean of the two slowdowns
(the first in a run by the one after it), and set-up by a calibration
taken right after it.  The REF_ times are those of an idle 2-vCPU x86-64
VM under CPython 3.11, so there the figures read as plain seconds.  The
'#' lines give the scale factors and the unscaled set-up times.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates plain
and traced passes and reports the per-layer metrics of spans.per_layer(),
with trace.overhead_s = traced minus plain wall_s, both scaled as above.
The layers' own times are as measured.

Workloads (see workloads.build): scan-decide, scan-emit, verdict-batch,
catalog.  Self-tests: python3 -m pytest perfbench -q
"""
# Only os, sys and time load before truncbin, so that setup_s includes the
# standard-library modules truncbin imports; the rest are imported later.
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Fresh interpreters whose set-up is timed besides this one; setup_s is
# the median of all of them.
SETUP_PROBES = 8
# Best-of-3 times of python_work and bigint_work at the reference speed.
REF_PYTHON_NS = 900_000
REF_BIGINT_NS = 900_000
# The big value bigint_work divides, about 100 000 bits.
REF_DIVIDEND = 999_983**5003
# Timed work between two calibrations.
CAL_EVERY_NS = 100_000_000

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def import_program():
    """Import truncbin from this checkout's src/ and from nowhere else."""
    package = os.path.join(SRC, "truncbin")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"error: no truncbin package under {SRC}")
    sys.path.insert(0, SRC)
    import truncbin
    import truncbin.cli  # noqa: F401  (the package does not import its CLI)

    if os.path.dirname(os.path.abspath(truncbin.__file__)) != package:
        sys.exit(f"error: imported truncbin from {truncbin.__file__}, not {package}")
    return truncbin


def main(argv=None):
    started = time.perf_counter()
    tb = import_program()
    import_s = time.perf_counter() - started

    import argparse
    import json

    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only time import and input generation, print it and exit",
    )
    args = parser.parse_args(argv)

    generating = time.perf_counter()
    ops = workloads.build(tb, args.workload, args.seed)
    setup_s = import_s + (time.perf_counter() - generating)
    setup_scale = Calibration(workloads.PYTHON_SHARE[args.workload]).measure()
    if args.setup_probe:
        print(repr(setup_s), repr(setup_scale))
        return 0

    env = environment(args)
    too_many = sorted({op.label for op in ops if op.workers > env["nproc"]})
    if too_many:
        sys.exit(f"error: more worker processes than nproc = {env['nproc']}: {too_many}")
    print("# env " + json.dumps(env))

    calibration = Calibration(workloads.PYTHON_SHARE[args.workload])
    if args.trace:
        metrics, tally = traced_run(tb, ops, args.seconds, calibration)
    else:
        metrics, tally = plain_run(ops, args.seconds, (setup_s, setup_scale), calibration, args)
    tally.report()
    print(json.dumps({
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def environment(args):
    import platform

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": git_commit(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[len("ref: "):])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def known_failure(op, exc):
    """The one tolerated crash: CLI output past CPython's int->str limit."""
    return (
        op.digit_limit
        and isinstance(exc, ValueError)
        and "integer string conversion" in str(exc)
    )


class Tally:
    """Operations attempted and failed, with the reasons for failures.

    An op fails when it raises, or when its check finds a wrong exit code
    or output.  Every failure makes the run incorrect except the known
    crash of known_failure, which counts in failed only.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.reasons = {}

    def record(self, label, problem, incorrect=True):
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        self.incorrect += incorrect
        key = (label, problem)
        self.reasons[key] = self.reasons.get(key, 0) + 1

    def report(self):
        ratio = self.failed / self.attempted
        print(f"# fail_ratio {ratio!r} ratio ({self.failed} of {self.attempted} operations)")
        for (label, problem), count in sorted(self.reasons.items()):
            print(f"# failed x{count}: {label}: {problem}")


def python_work():
    """Fixed interpreted work: a loop of small-int arithmetic and dict stores."""
    total, seen = 0, {}
    for i in range(10000):
        total += i * i % 7
        seen[i & 255] = total
    return total


def bigint_work():
    """Fixed big-integer work like a valuation: repeated division by n."""
    value, remainder = REF_DIVIDEND, 0
    for _ in range(40):
        value, remainder = divmod(value, 1009)
    return remainder


def best_of_3_ns(work):
    best = None
    for _ in range(3):
        start = time.perf_counter_ns()
        work()
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class Calibration:
    """Factors that scale measured times to the reference CPU speed.

    python_share is the weight of python_work's slowdown against
    bigint_work's; measure() appends each factor to factors.
    """

    def __init__(self, python_share):
        self.python_share = python_share
        self.factors = []

    def measure(self):
        slowdown = (
            self.python_share * best_of_3_ns(python_work) / REF_PYTHON_NS
            + (1 - self.python_share) * best_of_3_ns(bigint_work) / REF_BIGINT_NS
        )
        self.factors.append(1 / slowdown)
        return self.factors[-1]


def run_pass(ops, tally, latencies_ns, recorder=None, calibration=None):
    """One pass over the op list; returns its timed wall time in seconds.

    Latencies of successful ops are appended to latencies_ns.  Given a
    Calibration, times are scaled to the reference CPU speed: a
    calibration follows every CAL_EVERY_NS of timed work and the end of
    the pass, and the ops since the calibration before (its last factor)
    are scaled by the two factors' harmonic mean, which divides them by
    the mean slowdown.  Without one, times are as measured.
    """
    timed = 0.0
    segment = []  # (elapsed_ns, succeeded) of the ops since the last calibration
    segment_ns = 0

    def calibrate():
        nonlocal timed, segment_ns
        scale = 1.0
        if calibration is not None:
            before = calibration.factors[-1] if calibration.factors else None
            after = calibration.measure()
            scale = 2 / (1 / (before or after) + 1 / after)
        timed += scale * segment_ns
        latencies_ns.extend(scale * elapsed for elapsed, ok in segment if ok)
        segment.clear()
        segment_ns = 0

    for op in ops:
        start = time.perf_counter_ns()
        error = None
        try:
            outcome = op.call()
        except Exception as exc:  # an uncaught program error fails this op only
            error = exc
        elapsed = time.perf_counter_ns() - start
        segment.append((elapsed, error is None))
        segment_ns += elapsed
        if calibration is None or segment_ns >= CAL_EVERY_NS:
            calibrate()

        if error is not None:
            tally.record(op.label, f"raised {type(error).__name__}: {error}"[:160],
                         incorrect=not known_failure(op, error))
            if recorder is not None and op.cli:
                recorder.count("cli.uncaught")
            continue
        if recorder is not None and op.cli:
            recorder.count("cli.out_bytes", len(outcome[1]))
        try:
            problem = op.check(outcome)
        except Exception as exc:  # output the check cannot read is a wrong output
            problem = f"unreadable output: {type(exc).__name__}: {exc}"[:160]
        tally.record(op.label, problem)
    if segment:
        calibrate()
    return timed / 1e9


def percentile_ms(latencies_ns, q):
    """q-th percentile (1..99) by statistics.quantiles, in milliseconds."""
    import statistics

    return statistics.quantiles(latencies_ns, n=100, method="inclusive")[q - 1] / 1e6


def plain_run(ops, seconds, setup, calibration, args):
    import resource
    import statistics

    tally = Tally()
    walls, latencies = [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        walls.append(run_pass(ops, tally, latencies, calibration=calibration))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup] + [setup_probe(args) for _ in range(SETUP_PROBES)]

    beyond_p99 = len(latencies) - -(-99 * len(latencies) // 100)
    print(f"# setup_s: median of {len(setups)} interpreters, (unscaled s, scale): {setups}")
    print(f"# wall_s: median of {len(walls)} passes of {len(ops)} operations: {walls}")
    scales = calibration.factors
    print(f"# scale factors: {len(scales)} calibrations, median {statistics.median(scales)!r}, "
          f"range {min(scales)!r} to {max(scales)!r}, python share {calibration.python_share}")
    print(f"# op_p50_ms, op_p99_ms: {len(latencies)} successful operations, "
          f"{beyond_p99} beyond p99")
    values = {
        "setup_s": statistics.median(raw * scale for raw, scale in setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": percentile_ms(latencies, 50),
        "op_p99_ms": percentile_ms(latencies, 99),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}, tally


def setup_probe(args):
    import subprocess

    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    raw, scale = done.stdout.strip().splitlines()[-1].split()
    return float(raw), float(scale)


def traced_run(tb, ops, seconds, calibration):
    import statistics

    import spans

    codes = tb.claims.CLAIM_CODES
    tally = Tally()
    plain, traced, samples = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(run_pass(ops, tally, [], calibration=calibration))
        recorder = spans.Recorder()
        with spans.installed(tb, recorder):
            traced.append(run_pass(ops, tally, [], recorder, calibration))
        samples.append(spans.layer_metrics(recorder, codes))
    overhead = statistics.median(traced) - statistics.median(plain)
    print(f"# {len(traced)} traced passes {traced} and {len(plain)} plain passes {plain}")
    print(f"# trace.overhead_s {overhead!r} s (traced minus plain median wall_s)")
    metrics = {}
    for name, unit in spans.per_layer(codes):
        if name == "trace.overhead_s":
            metrics[name] = (overhead, unit)
        else:
            metrics[name] = (statistics.median(s[name] for s in samples), unit)
    return metrics, tally


if __name__ == "__main__":
    sys.exit(main())
