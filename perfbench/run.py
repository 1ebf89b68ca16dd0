"""Benchmark of laddergraphs: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload order_int --seed 1 --seconds 20 --trace 0

Workloads: ``order_int``, ``order_exact``, ``compose_sweep``, ``cli_mix``, or ``all``
(see ``perfbench/README.md``).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the traced pass and prints the per-layer metrics.  The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the full record, with environment and sample counts, goes to
``perfbench/out/records/`` and a human-readable summary to standard error.

The load is a closed loop with one client: each job starts when the previous
one has finished.  Each measurement runs in a fresh worker process
(``worker.py``) that imports the package from ``src/``; this process never
imports it.  Bytecode goes to ``perfbench/out/pycache``, never next to the
sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
import workloads  # noqa: E402  (after disabling bytecode: nothing is written in the tree)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
# setup_s is the median of this many process starts (the measured one included).
# Half of them run before the measured worker and half after it, so the samples
# span the whole run rather than one spell of a shared machine.
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170  # all workers of one workload together; the run must end within 180 s


def setup_times(ready_s: float, report: dict) -> tuple[float, float]:
    """(setup_s, raw setup_s) of one worker: process start to ``ready``
    without the calibrations, with and without the warm-up at the reference
    speed (see ``worker.warm_up``)."""
    raw = ready_s - report["calibration_s"]
    return raw + report["warm_up_s"] * (report["warm_up_scale"] - 1), raw


class WorkerError(RuntimeError):
    pass


def run_worker(mode: str, args, deadline: float, extra: list[str] = ()) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from start to ``ready``, its JSON report).

    The worker is killed if it is still running at ``deadline`` (``time.monotonic``).
    """
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--mode", mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), *extra]
    start = time.perf_counter()
    # its own process group, so that a kill also reaches a CLI child it is waiting for
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=workloads.child_env(ROOT),
                            cwd=ROOT, start_new_session=True)
    try:
        if not select.select([proc.stdout], [], [], max(1.0, deadline - time.monotonic()))[0]:
            raise subprocess.TimeoutExpired(argv, RUN_BUDGET_S)
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker timed out")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if ready.strip() != "ready" or proc.returncode:
        raise WorkerError(f"{mode} worker failed with exit status {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    runs = [run_worker("setup", args, deadline) for _ in range(SETUP_SAMPLES // 2)]
    runs.append(run_worker("measure", args, deadline))
    report = runs[-1][1]
    runs += [run_worker("setup", args, deadline) for _ in range(SETUP_SAMPLES - len(runs))]
    setups, raw_setups = zip(*(setup_times(*run) for run in runs))
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s", "samples": len(setups)},
        "jobs_per_s": {"value": report["jobs_per_s"], "unit": "1/s", "samples": report["jobs"]},
        "job_p50_ms": {"value": report["job_p50_ms"], "unit": "ms", "samples": report["jobs"]},
        "job_p90_ms": {"value": report["job_p90_ms"], "unit": "ms", "samples": report["jobs"]},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB", "samples": 1},
        "failed_frac": {"value": report["failed"] / report["attempted"], "unit": "ratio",
                        "samples": report["attempted"]},
    }
    report["setup_samples_s"] = setups
    report["raw"]["setup_s"] = statistics.median(raw_setups)
    return metrics, report


def traced(args, deadline: float) -> tuple[dict, dict]:
    trace_dir = OUT / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
    _, report = run_worker("trace", args, deadline, ["--trace-out", str(trace_path)])
    report["trace_file"] = str(trace_path.relative_to(ROOT))
    return report["metrics"], report


def run_workload(args) -> int:
    try:
        deadline = time.monotonic() + RUN_BUDGET_S
        metrics, report = (traced if args.trace else end_to_end)(args, deadline)
    except WorkerError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "metrics": metrics,
        "report": report,
    }
    records = OUT / "records"
    records.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (records / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n")

    raw = report.get("raw", {})
    for key, metric in metrics.items():
        note = f" (raw {raw[key]:.6g})" if key in raw else ""
        print(f"{args.workload} {key} = {metric['value']:.6g} {metric['unit']}{note}",
              file=sys.stderr)
    for defect in report.get("known_defects", []):
        status = "fixed" if defect["ok"] else "still fails"
        print(f"{args.workload} known defect, {defect['input']}: {status} "
              f"(exit {defect['exit']}: {defect['stderr_last_line']})", file=sys.stderr)

    # failed_frac stays in the record: it is 0 on a healthy run, so it cannot
    # be compared as a share of its median; the result line carries the counts.
    shown = {key: {"value": m["value"], "unit": m["unit"]}
             for key, m in metrics.items() if key != "failed_frac"}
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": shown}), flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "laddergraphs" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'laddergraphs'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload != "all":
        return run_workload(args)
    status = 0
    for name in workloads.WORKLOADS:
        status |= run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
    return status


if __name__ == "__main__":
    sys.exit(main())
