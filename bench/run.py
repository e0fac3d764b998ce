"""Benchmark of the normform CLI on seeded problem files.

Usage, from the repository root:

    python3 bench/run.py --workload reduce|solve|heights --seed N \
        --seconds S --trace 0|1

Each op is one CLI command (``normform.cli.main``, default flags) run
in-process on a problem file generated from the seed.  The loop is closed,
with one client in one process on one thread: the next op starts when the
previous one returns, for ``--seconds`` seconds, cycling through the
workload's pool.  Every op pays for tower construction, as every CLI
invocation does, and is timed from outside; the report's
``timing_seconds`` is not used.  Outputs are checked after the timed loop
(``bench/checks.py``); an op fails on a nonzero exit or a failed check.

Op times are scaled to a reference machine speed.  After each op the loop
times a fixed exact-rational calibration loop, and an op's time is
multiplied by (CALIBRATION_REF_S / median calibration time) **
CALIBRATION_EXPONENT, over the calibrations within CALIBRATION_WINDOW_S of
it.  Shared hosts drift by tens of percent within minutes, and the ops slow
down with the calibration, so scaled times of runs made at different
moments compare where raw times do not.
The unscaled figures are in the details line.  Percentiles are
Harrell-Davis estimates, which weigh all samples instead of one.

``--trace 0`` prints the end-to-end metrics:
  ops_per_s    ops that succeeded and passed their checks, per second of
               scaled op time
  p50_ms       median scaled latency of those ops
  p90_ms       90th percentile scaled latency of those ops
  setup_s      median over fresh processes of interpreter start, imports,
               input generation and one warm-up op, scaled the same way
  peak_rss_mb  peak resident memory of this process during the timed loop
``--trace 1`` runs blocks of ops untraced and then traced, and prints the
per-layer metrics of ``bench/tracing.py`` plus the tracing overhead.  The line before the result holds the details: the
environment, the spread of the input properties, sample counts, exit codes
and check failures.  Generated problems, spans and results are written
under ``bench/out/``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
PRECISION_EXIT = 4  # the CLI's documented refusal: not a wrong answer
# Time of calibration_loop on a quiet 2-core x86-64 host with Python 3.11,
# and the half-width of the window of calibrations that scales an op.
CALIBRATION_REF_S = 0.003
CALIBRATION_WINDOW_S = 5.0
# Op times follow the calibration's only in part: over 15 runs on a shared
# 2-core host, log throughput moved with log calibration speed at slopes
# 0.48 (reduce), 0.57 (solve) and 0.64 (heights).
CALIBRATION_EXPONENT = 0.55
TRACE_BLOCK = 5  # ops per untraced/traced block in a traced run


def import_program():
    """normform.cli from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import normform.cli
    except ImportError as exc:
        sys.exit(f"cannot import normform from {src}: {exc}")
    if Path(normform.cli.__file__).resolve().parent != src / "normform":
        sys.exit(f"normform was imported from {normform.cli.__file__}, not {src}")
    return normform.cli


def run_op(cli, argv):
    """(exit code, seconds, stdout) of one in-process CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = f"exit:{exc.code}"
    except Exception as exc:  # a traceback escaping main fails the op
        code = f"raised:{type(exc).__name__}"
    return code, time.perf_counter() - start, out.getvalue()


def calibration_loop():
    """Fixed exact-rational work whose time tracks the machine's speed."""
    acc = Fraction(0)
    for i in range(1, 800):
        acc += Fraction(1, i)
    return acc


def timed_calibration():
    """(clock at the midpoint, seconds) of one calibration_loop."""
    start = time.perf_counter()
    calibration_loop()
    end = time.perf_counter()
    return (start + end) / 2, end - start


def speed_factor(calibrations) -> float:
    """How much faster than the reference this machine ran the ops."""
    return (CALIBRATION_REF_S / statistics.median(calibrations)) ** CALIBRATION_EXPONENT


@dataclass
class Loop:
    """What one timed loop measured."""

    results: list = field(default_factory=list)   # (op, exit code, seconds, stdout)
    op_mid: list = field(default_factory=list)    # clock at each op's midpoint
    cal_mid: list = field(default_factory=list)   # clock at each calibration's midpoint
    cal_s: list = field(default_factory=list)     # each calibration's time

    def raw_times(self) -> list:
        return [dt for _, _, dt, _ in self.results]

    def scaled_times(self) -> list:
        """Each op's time times the speed factor of the calibrations near it."""
        out = []
        for dt, mid in zip(self.raw_times(), self.op_mid):
            lo = bisect.bisect_left(self.cal_mid, mid - CALIBRATION_WINDOW_S)
            hi = bisect.bisect_right(self.cal_mid, mid + CALIBRATION_WINDOW_S)
            out.append(dt * speed_factor(self.cal_s[lo:hi] or self.cal_s))
        return out


def timed_loop(cli, ops, directory, seconds) -> Loop:
    """Closed loop over ``ops`` for ``seconds``, calibrating after each op."""
    loop = Loop()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        op = ops[i % len(ops)]
        argv = op.argv(directory)
        start = time.perf_counter()
        code, dt, out = run_op(cli, argv)
        loop.results.append((op, code, dt, out))
        loop.op_mid.append(start + dt / 2)
        mid, cal = timed_calibration()
        loop.cal_mid.append(mid)
        loop.cal_s.append(cal)
        i += 1
        if time.perf_counter() >= deadline:
            return loop


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics, steadier than one order statistic in a sparse tail."""
    import mpmath

    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x[i] for i in range(n))


def check_results(results):
    """Per result: None if it passed, else why it failed; plus whether every
    failure was the documented precision exit rather than a wrong answer."""
    from bench.checks import Checker

    checker = Checker()
    verdicts = {}
    outcomes = []
    correct = True
    for op, code, _, out in results:
        if code != 0:
            outcomes.append(f"exit {code}")
            correct = correct and code == PRECISION_EXIT
            continue
        key = (op.key, out)
        if key not in verdicts:
            try:
                verdicts[key] = checker.check(op, json.loads(out))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                verdicts[key] = [f"malformed report: {type(exc).__name__}: {exc}"]
        errors = verdicts[key]
        outcomes.append(f"{op.key}: {errors[0]}" if errors else None)
        correct = correct and not errors
    return outcomes, correct


def latency_metrics(times, outcomes):
    """End-to-end metrics from per-op times (seconds) and check outcomes."""
    ok = [t for t, why in zip(times, outcomes) if why is None]
    lat = ok or times
    return {
        "ops_per_s": {"value": len(ok) / sum(times), "unit": "1/s"},
        "p50_ms": {"value": quantile(lat, 0.5) * 1000.0, "unit": "ms"},
        "p90_ms": {"value": quantile(lat, 0.9) * 1000.0, "unit": "ms"},
    }, len(ok)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).exists():
        return (git / name).read_text().strip()
    if (git / "packed-refs").exists():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import mpmath

    src = ROOT / "src" / "normform"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py"))
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": nproc,
            "git_commit": git_commit(), "src_normform_lines": lines}


def prepare(cli, workload, seed):
    """Generate and write the inputs, then run the warm-up op."""
    from bench import workloads

    warm, pool = workloads.generate(workload, seed)
    directory = OUT / f"{workload}-{seed}" / "problems"
    workloads.write_problems([warm, *pool], directory)
    run_op(cli, warm.argv(directory))
    return pool, directory


def setup_samples(workload, seed):
    """Scaled wall times of fresh processes that only import, generate and
    warm up, each scaled by calibrations just before and after it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        calibrations = [timed_calibration()[1] for _ in range(5)]
        start = time.perf_counter()
        # A blocking wait: Popen.wait(timeout=...) polls in steps of up to
        # 50 ms, which would round every sample to that step.
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
            proc.kill()
            proc.wait()
        wall = time.perf_counter() - start
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
        calibrations += [timed_calibration()[1] for _ in range(5)]
        samples.append((wall, wall * speed_factor(calibrations)))
    return samples


def traced_run(cli, pool, directory, seconds, details):
    """Blocks of ops run untraced and then traced; returns layer metrics.

    Each op of a block runs once without and once with the tracer, moments
    apart, so the overhead is the median ratio of an op's traced time to its
    untraced time; the layer metrics average over the traced ops.
    """
    from bench.tracing import LAYER_METRICS, Tracer

    tracer = Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        block = [pool[(i + j) % len(pool)] for j in range(TRACE_BLOCK)]
        for op in block:
            plain.append((op, *run_op(cli, op.argv(directory))))
        tracer.install()
        try:
            for j, op in enumerate(block):
                tracer.op_id = i + j
                traced.append((op, *run_op(cli, op.argv(directory))))
        finally:
            tracer.uninstall()
        i += TRACE_BLOCK
    layers = tracer.layer_metrics(len(traced))
    layers["trace.overhead_ratio"] = statistics.median(
        t[2] / p[2] for p, t in zip(plain, traced))
    spans_path = OUT / details["run"] / "spans.jsonl"
    tracer.write_spans(spans_path)
    details.update(traced_ops=len(traced), spans=len(tracer.spans),
                   spans_file=str(spans_path.relative_to(ROOT)))
    metrics = {name: {"value": layers[name], "unit": layer_unit(name)}
               for name in LAYER_METRICS}
    return metrics, plain + traced


def layer_unit(name: str) -> str:
    if name.endswith(".self_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    from bench import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = import_program()
    if args.setup_only:
        prepare(cli, args.workload, args.seed)
        return 0
    setup = [] if args.trace else setup_samples(args.workload, args.seed)
    pool, directory = prepare(cli, args.workload, args.seed)
    own_setup = time.perf_counter() - START
    gc.collect()

    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "run": f"{args.workload}-{args.seed}"}
    if args.trace:
        metrics, results = traced_run(cli, pool, directory, args.seconds, details)
        outcomes, correct = check_results(results)
    else:
        loop = timed_loop(cli, pool, directory, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        results = loop.results
        outcomes, correct = check_results(results)
        metrics, samples = latency_metrics(loop.scaled_times(), outcomes)
        metrics["setup_s"] = {"value": statistics.median(s for _, s in setup), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        unscaled, _ = latency_metrics(loop.raw_times(), outcomes)
        unscaled = {name: m["value"] for name, m in unscaled.items()}
        unscaled["setup_s"] = statistics.median(w for w, _ in setup)
        details.update(latency_samples=samples, speed=speed_factor(loop.cal_s),
                       unscaled=unscaled)

    failures = [why for why in outcomes if why is not None]
    details.update(
        env=environment(),
        inputs=workloads.input_spread(pool),
        pool_passes=len(results) / len(pool),
        setup_samples_s=setup, own_setup_s=own_setup,
        exit_codes=dict(Counter(str(code) for _, code, _, _ in results)),
        failures=dict(Counter(failures)))
    result = {"correct": correct, "attempted": len(results), "failed": len(failures),
              "metrics": metrics}
    (OUT / details["run"] / f"result-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
