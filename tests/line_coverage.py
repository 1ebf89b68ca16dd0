"""Which lines of the package the tier-1 suite never runs.

Not a test module: pytest does not collect it, like ``traffic_lines.py``.
It runs the tier-1 suite with ``pytest.main`` in this one process under a
``sys.settrace`` line tracer, standard library only, and lists every line
of ``src/laddergraphs`` that starts a statement and ran in no test.  A line
on ``ALLOWED`` is listed apart, with its reason.  It exits 1 when a line
that is not allowed never ran, when an allowed line did run or no longer
exists, or when the suite fails; otherwise 0.

From the root of the repository (extra arguments go to pytest):

    python3 tests/line_coverage.py
    python3 tests/line_coverage.py -x tests/test_graphs.py

A subset of the tests leaves more lines unrun, so only the whole suite
passes.  Tracing makes the suite two to three times slower.
"""

from __future__ import annotations

import dis
import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "laddergraphs"

# (module, a line's text without indentation): why no test runs it in-process.
# An entry for the first line of a block, such as an ``except`` clause, also
# covers the lines inside that block.
ALLOWED = {
    ("exprs.py", """raise self.error("'a', 'ad', '1' or '('")"""):
        "parse_atom is entered only after _at_factor_start, so no input reaches its last "
        "fallback; it keeps `parse` raising only ParseError",
    ("cli.py", "except BrokenPipeError:"):
        "runs only when a reader closes the stdout pipe of a `python -m laddergraphs` subprocess",
    ("cli.py", 'if __name__ == "__main__":'):
        "the script entry point runs only in a subprocess",
    ("__main__.py", "import sys"): "`python -m laddergraphs` runs only in a subprocess",
    ("__main__.py", "from .cli import main"): "the same",
    ("__main__.py", "sys.exit(main())"): "the same",
}


def statement_lines(path: Path) -> set[int]:
    """The lines of a module where a statement starts, from its compiled code objects."""
    lines: set[int] = set()
    pending = [compile(path.read_text(), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        pending += [const for const in code.co_consts if hasattr(const, "co_code")]
    return lines


def headers(source: list[str], line: int):
    """The text of ``line``, then of each line that opens a block around it."""
    text = source[line - 1]
    indent = len(text) - len(text.lstrip())
    yield text.strip()
    for above in reversed(source[:line - 1]):
        stripped = above.strip()
        if stripped and not stripped.startswith("#") and len(above) - len(stripped) < indent:
            indent = len(above) - len(stripped)
            yield stripped


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """The exit status of the suite, and the package lines that ran, by file name."""
    import pytest  # imported untraced; the package is imported by the tests, traced
    from hypothesis import settings

    # The same examples on every run, so that a line is not run only by chance.
    settings.register_profile("line_coverage", derandomize=True)
    settings.load_profile("line_coverage")

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src")]
    # The suite's subprocesses import the package from the same source.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    status, ran = run_traced(argv)
    unrun, allowed = [], []
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(statement_lines(path) - ran.get(str(path), set())):
            text = source[line - 1].strip()
            entry = next(((path.name, header) for header in headers(source, line)
                          if (path.name, header) in ALLOWED), None)
            if entry:
                used.add(entry)
                allowed.append(f"  {path.name}:{line}  {text}\n      ({ALLOWED[entry]})")
            else:
                unrun.append(f"  {path.name}:{line}  {text}")
    stale = [f"  {name}: {text}" for name, text in ALLOWED if (name, text) not in used]
    print(f"allowed, never run in-process ({len(allowed)}):", *allowed, sep="\n")
    print(f"never run and not allowed ({len(unrun)}):", *unrun, sep="\n")
    print(f"allowed but run, or not found ({len(stale)}):", *stale, sep="\n")
    if status:
        print(f"the suite failed with status {status}")
    return 1 if status or unrun or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
