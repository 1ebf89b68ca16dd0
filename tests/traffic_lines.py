"""Which lines and functions of the package the benchmark's workloads run.

Not a test module: pytest does not collect it, like ``brute_force.py``.  It
runs ``--rounds`` rounds of each workload of ``perfbench/workloads.py``
(imported, never changed) in this one process, ``cli_mix`` through
``cli.main`` instead of one interpreter per job.  Only each job's timed call,
the workload's ``run``, is traced; the workload's own ``check`` then confirms
the output.  It prints, per workload, the jobs run and checked and the call
count of every package function that ran (a generator counts one call per
resume), then, per module, the line numbers that ran in any selected
workload.

From the root of the repository:

    python3 tests/traffic_lines.py --rounds 2 --seed 1

A function that appears under no workload, or a line missing from the
ranges, is code that no benchmark traffic takes.  For instance, the command
above lists no call of ``GaussianRational.__add__`` under any workload and
at most a few dozen calls of ``GaussianRational.__mul__`` per workload.
Copied into a checkout of another commit, the script shows that commit's
traffic, so two commits' call counts can be compared line by line.
Tracing makes the package several times slower; two rounds take a few
seconds.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "laddergraphs"
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import laddergraphs  # noqa: E402
import laddergraphs.cli  # noqa: E402,F401  (the package does not import its CLI)
import workloads  # noqa: E402


def traced(calls: Counter, lines: defaultdict, fn, *args):
    """``fn(*args)``, counting calls of package code and the package lines that run."""
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        calls[code] += 1
        return local

    sys.settrace(on_call)
    try:
        return fn(*args)
    finally:
        sys.settrace(None)


def ranges(numbers) -> str:
    """``1, 2, 3, 5`` as ``1-3, 5``."""
    spans: list[list[int]] = []
    for n in sorted(numbers):
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def function_name(code) -> str:
    name = getattr(code, "co_qualname", code.co_name)  # co_qualname from Python 3.11
    return f"{Path(code.co_filename).name}:{code.co_firstlineno} {name}"


def source_order(code) -> tuple[str, int]:
    return code.co_filename, code.co_firstlineno


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=2, help="rounds of each workload (default 2)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)

    lines: defaultdict = defaultdict(set)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            wl = workloads.make(name, laddergraphs, args.seed, ROOT, Path(tmp), in_process=True)
            calls: Counter = Counter()
            jobs = correct = 0
            for index in range(args.rounds):
                for job in wl.round(index):
                    prepared = wl.prepare(job)
                    out = traced(calls, lines, wl.run, job, prepared)
                    jobs += 1
                    correct += bool(wl.check(job, out, prepared))
            failed += jobs - correct
            print(f"{name}: {jobs} jobs, {correct} correct")
            for code, count in sorted(calls.items(), key=lambda item: source_order(item[0])):
                print(f"  {count:>9}  {function_name(code)}")
    print("lines run:")
    for path in sorted(PACKAGE.glob("*.py")):
        print(f"  {path.name}: {ranges(lines.get(str(path), ())) or '-'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
