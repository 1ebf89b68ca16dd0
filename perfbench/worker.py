"""One workload in one fresh process: set up, say ``ready``, run, check, report.

Started by ``run.py``; not meant to be run by hand.  Modes:

* ``setup``: set up (import, generate inputs, warm up), print ``ready``, then
  report the warm-up figures of ``warm_up``; the parent times process start to
  ``ready``.
* ``measure``: after ``ready``, run whole rounds until ``--seconds`` have
  passed and at least ``MIN_JOBS`` jobs ran, calibrating before each round;
  check every job right after its timed span; print one JSON report line.
* ``trace``: run ``TRACE_ROUNDS`` rounds once untraced to warm caches, then
  each job with the tracer installed and again without it, for the overhead
  ratio; run one round under ``tracemalloc``; print the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from fractions import Fraction
from pathlib import Path

import reference as ref
import tracing
import workloads

# Job times of the in-process workloads are reported at a reference machine
# speed: the one at which the calibration unit (see ``calibrate``) takes
# REFERENCE_CAL_S.  The host this benchmark was written on is shared, and its
# speed drifts by up to 2x for minutes at a time.  The calibration unit runs
# around every round, in the same process, and slows down with the jobs, so
# scaled times compare commits measured in different spells.  It does not
# track process start, so cli_mix job times and the part of setup_s before
# the warm-up stay raw; the warm-up itself is scaled like the jobs.
REFERENCE_CAL_S = 0.008
MIN_JOBS = 100
MAX_RUN_FACTOR = 3  # a slow machine may extend a run to reach MIN_JOBS, up to this factor
TRACE_ROUNDS = {"order_int": 2, "order_exact": 2, "compose_sweep": 4, "cli_mix": 6}
SUBPROCESS_PROBES = 9


def _import_package():
    import laddergraphs as lg
    import laddergraphs.cli  # noqa: F401  (the package does not import its CLI)
    return lg


def calibrate(samples: int = 3) -> list[float]:
    """Seconds for a fixed unit of exact polynomial arithmetic, ``samples`` times.

    The unit is ``reference.shifted_power``: Fractions, tuples and dicts, like
    the package's own work, but it does not touch the package, so a change
    to the package cannot move it.
    """
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        ref.shifted_power(ref.g(3, 1), ref.g(-2, Fraction(1, 3)), ref.g(Fraction(1, 2)), 9)
        times.append(time.perf_counter() - start)
    return times


def time_scale(calibrations: list[float]) -> float:
    """Factor from this machine's current seconds to reference seconds."""
    return REFERENCE_CAL_S / statistics.median(calibrations)


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


class Runner:
    """Runs and checks jobs, keeping only latencies and failure counts."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies_ns: list[int] = []
        self.failed = 0
        self.reported = 0

    def _fail(self, job, detail: str) -> None:
        self.failed += 1
        if self.reported < 5:  # enough to diagnose, without flooding the log
            self.reported += 1
            print(f"job failed: {str(job)[:300]}: {detail}", file=sys.stderr)

    def timed(self, job, prepared):
        """Run one job in its timed span; return its output or the exception it raised."""
        start = time.perf_counter_ns()
        try:
            return self.workload.run(job, prepared)
        except Exception as exc:  # a job that raises is a failed job, not a failed run
            return exc
        finally:
            self.latencies_ns.append(time.perf_counter_ns() - start)

    def check(self, job, out, prepared) -> None:
        if isinstance(out, Exception):
            self._fail(job, f"{type(out).__name__}: {str(out)[:200]}")
            return
        try:
            ok = self.workload.check(job, out, prepared)
        except Exception as exc:
            self._fail(job, f"check raised {type(exc).__name__}: {exc}")
            return
        if not ok:
            self._fail(job, "output differs from the expected value")

    def one(self, job) -> None:
        prepared = self.workload.prepare(job)
        self.check(job, self.timed(job, prepared), prepared)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_ns) / 1e9


def warm_up(wl, cli: bool) -> tuple[int, dict]:
    """Run the warm-up jobs, calibrating before the first and after each one.

    Returns the failures and, for ``run.py``, the warm-up's own seconds, the
    seconds spent calibrating (to leave out of setup_s) and the time scale
    over the warm-up.  The host's speed changes within seconds, so one
    calibration for a whole run would not fit each setup sample.
    """
    runner = Runner(wl)
    samples, figures = [], {"warm_up_s": 0.0, "calibration_s": 0.0, "warm_up_scale": 1.0}

    def calibrate_here():
        if not cli:
            start = time.perf_counter()
            samples.extend(calibrate())
            figures["calibration_s"] += time.perf_counter() - start

    calibrate_here()
    for job in wl.warm_up_jobs():
        start = time.perf_counter()
        runner.one(job)
        figures["warm_up_s"] += time.perf_counter() - start
        calibrate_here()
    if samples:
        figures["warm_up_scale"] = time_scale(samples)
    return runner.failed, figures


def latency_summary(latencies_ns: list[float]) -> dict:
    ms = sorted(x / 1e6 for x in latencies_ns)
    return {
        "jobs": len(ms),
        "jobs_per_s": len(ms) / (sum(ms) / 1e3),
        "job_p50_ms": statistics.median(ms),
        "job_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[-1],
    }


def measure(wl, seconds: float, cli: bool) -> dict:
    runner = Runner(wl)
    calibrations = []  # one list of samples before each round, and one after the last
    ends = []  # jobs completed at the end of each round
    start = time.perf_counter()
    rounds = 0
    while True:
        calibrations.append([] if cli else calibrate())
        for job in wl.round(rounds):
            runner.one(job)
        ends.append(runner.attempted)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and runner.attempted >= MIN_JOBS:
            break
        if elapsed >= MAX_RUN_FACTOR * seconds:
            break
    calibrations.append([] if cli else calibrate())
    # each round is scaled by the samples taken just before and just after it
    scales = [1.0 if cli else time_scale(calibrations[i] + calibrations[i + 1])
              for i in range(rounds)]
    scaled, first = [], 0
    for scale, end in zip(scales, ends):
        scaled += [latency * scale for latency in runner.latencies_ns[first:end]]
        first = end
    report = latency_summary(scaled)
    report.update({
        "raw": latency_summary(runner.latencies_ns),
        "time_scale": statistics.median(scales),
        "rounds": rounds,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "wall_s": time.perf_counter() - start,
        "peak_rss_mb": _peak_rss_mb(children=cli),
    })
    if cli:
        report["known_defects"] = [wl.deep_nesting_probe()]
    return report


def _start_and_import_ms(root: Path, cwd: Path) -> tuple[float, float]:
    """Median bare interpreter start, and median extra time to import the CLI.

    Runs alternate, and the import time is the median of paired differences,
    so that a slow spell of the machine lands on both sides of a pair.
    """
    env = workloads.child_env(root)
    bare, extra = [], []
    for _ in range(SUBPROCESS_PROBES):
        times = []
        for code in ("pass", "import laddergraphs.cli"):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True, timeout=60)
            times.append((time.perf_counter() - start) * 1e3)
        bare.append(times[0])
        extra.append(times[1] - times[0])
    return statistics.median(bare), statistics.median(extra)


def trace(wl, lg, name: str, root: Path, tmp_root: Path, trace_path: Path) -> dict:
    jobs = [job for index in range(TRACE_ROUNDS[name]) for job in wl.round(index)]
    warm = Runner(wl)  # fills caches as the traced and untraced passes will both find them
    for job in jobs:
        warm.one(job)
    prepared = [wl.prepare(job) for job in jobs]  # input construction stays untraced

    # Each job runs traced and untraced back to back, alternating which goes
    # first, so both passes see the same spells of a shared machine.
    tracer = tracing.Tracer()
    traced, untraced = Runner(wl), Runner(wl)
    outputs = []
    for index, (job, inputs) in enumerate(zip(jobs, prepared)):
        if index % 2:
            untraced.one(job)
        tracing.install(tracer, lg)
        try:
            tracer.job = index
            frame = tracer.open(True)
            outputs.append(traced.timed(job, inputs))
            tracer.close("job", frame, True)
        finally:
            tracer.uninstall()
        if not index % 2:
            untraced.one(job)
    tracer.job = None
    cache = lg.ladder._basis_product.cache_info()
    deep = None
    if name == "cli_mix":
        tracing.install(tracer, lg)
        try:
            deep = wl.deep_nesting_probe()
        finally:
            tracer.uninstall()
    for job, inputs, out in zip(jobs, prepared, outputs):
        traced.check(job, out, inputs)
    tracer.write(trace_path)

    allocating = Runner(wl)
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    for job in wl.round(0):
        allocating.one(job)
    peak_alloc = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()

    n = len(jobs)
    totals, counters = tracer.totals, tracer.counters

    def calls(*names):
        return sum(totals.get(x, (0, 0, 0))[0] for x in names)

    def total_ms(*names):
        return sum(totals.get(x, (0, 0, 0))[1] for x in names) / 1e6 / n

    def self_ms(*names):
        return sum(totals.get(x, (0, 0, 0))[2] for x in names) / 1e6 / n

    def ratio(part, whole):
        return part / whole if whole else 0.0

    compose_calls = calls("graphs.compose")
    metrics = {
        "scalars.add_calls": (calls("scalars.add"), "count"),
        "scalars.mul_calls": (calls("scalars.mul"), "count"),
        "scalars.self_ms": (self_ms("scalars.add", "scalars.mul"), "ms/job"),
        "ladder.mul_calls": (calls("ladder.mul"), "count"),
        "ladder.mul_self_ms": (self_ms("ladder.mul"), "ms/job"),
        "ladder.pairs_formed": (counters.get("ladder.pairs_formed", 0), "count"),
        "ladder.peak_terms": (counters.get("ladder.peak_terms", 0), "count"),
        "ladder.basis_cache_hit_ratio": (ratio(cache.hits, cache.hits + cache.misses), "ratio"),
        "ladder.rewrite_ms": (total_ms("ladder.rewrite"), "ms/job"),
        "ladder.fold_ms": (total_ms("ladder.fold"), "ms/job"),
        "exprs.parse_ms": (total_ms("exprs.parse"), "ms/job"),
        "exprs.evaluate_self_ms": (self_ms("exprs.evaluate"), "ms/job"),
        "exprs.format_ms": (total_ms("exprs.format"), "ms/job"),
        "graphs.matchings": (counters.get("graphs.matchings", 0), "count"),
        "graphs.enumerate_matchings_ms": (total_ms("graphs.enumerate_matchings"), "ms/job"),
        "graphs.compose_calls": (compose_calls, "count"),
        "graphs.compose_self_ms": (self_ms("graphs.compose"), "ms/job"),
        "graphs.validations": (calls("graphs.validate"), "count"),
        "graphs.validate_ms": (total_ms("graphs.validate"), "ms/job"),
        "graphs.validations_per_composition": (
            ratio(calls("graphs.validate"), compose_calls), "ratio"),
        "graphs.graphsum_mul_self_ms": (self_ms("graphs.graphsum_mul"), "ms/job"),
        "graphs.project_ms": (total_ms("graphs.project_sum"), "ms/job"),
        "graphs.peak_alloc_mb": (peak_alloc / 2**20, "MB"),
        "oracles.run_ms": (total_ms("oracles.run"), "ms/job"),
        "oracles.random_graph_ms": (total_ms("oracles.random_graph"), "ms/job"),
        "cli.main_ms": (total_ms("cli.main"), "ms/job"),
        # traced over untraced jobs_per_s on the same jobs
        "tracing_overhead": (ratio(untraced.busy_s, traced.busy_s), "ratio"),
    }
    start_ms, import_ms = _start_and_import_ms(root, tmp_root) if name == "cli_mix" else (0.0, 0.0)
    metrics.update({
        "cli.interp_start_ms": (start_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.stdout_bytes": (sum(len(out[1].encode()) for out in outputs
                                 if name == "cli_mix" and not isinstance(out, Exception)), "bytes"),
        "cli.deep_nesting_failures": (int(deep is not None and not deep["ok"]), "count"),
    })
    return {
        "attempted": traced.attempted,
        "failed": warm.failed + traced.failed + untraced.failed + allocating.failed,
        "traced_jobs": n,
        "trace_spans": len(tracer.records),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        "known_defects": [deep] if deep else [],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()

    root = workloads.BENCH_DIR.parent
    cli = args.workload == "cli_mix"
    in_process = args.mode == "trace"
    # cli_mix measures the CLI in child processes; only its traced run imports the package
    lg = None if cli and not in_process else _import_package()
    (workloads.BENCH_DIR / "out" / "tmp").mkdir(parents=True, exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(dir=workloads.BENCH_DIR / "out" / "tmp"))
    try:
        wl = workloads.make(args.workload, lg, args.seed, root, tmp_root, in_process)
        failed, warm_up_figures = warm_up(wl, cli)
        if failed:
            print("warm-up failed", file=sys.stderr)
            return 1
        print("ready", flush=True)
        if args.mode == "setup":
            report = warm_up_figures
        elif args.mode == "measure":
            report = {**measure(wl, args.seconds, cli), **warm_up_figures}
        else:
            report = trace(wl, lg, args.workload, root, tmp_root, args.trace_out)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
