"""Record the CLI output digests that the ``cli_mix`` workload checks against.

Run once, from the repository root, at a commit whose CLI output is the
reference (it was recorded at the commit that added the benchmark):

    python3 perfbench/record_digests.py

For every command in ``workloads.cli_pool()`` it stores the exit status, the
SHA-256 of standard output (with the temporary directory replaced by
``<DIR>``) and, for commands that write DOT files, a SHA-256 over the file
names and contents.  The CLI promises byte-identical output for the same
arguments, so a later commit must reproduce every digest.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import laddergraphs.cli  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    out_dir = workloads.BENCH_DIR / "out" / "tmp"
    out_dir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for _, argv in workloads.cli_pool():
        workdir = tempfile.mkdtemp(dir=out_dir) if workloads.DIR in argv else None
        try:
            concrete = [workdir if a == workloads.DIR else a for a in argv]
            code, stdout, _ = workloads.run_in_process(laddergraphs, concrete)
            digests[workloads.digest_key(argv)] = workloads.output_digest(code, stdout, workdir)
        finally:
            if workdir is not None:
                shutil.rmtree(workdir)
    workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {workloads.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
