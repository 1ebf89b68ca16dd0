"""Byte identity of the CLI against the digests recorded in ``perfbench/``.

``perfbench/cli_digests.json`` maps each command of the benchmark's CLI mix
(a JSON list of arguments) to its exit status, the SHA-256 of its standard
output and, for commands that write DOT files, a SHA-256 over the written
file names and contents.  The argument ``<DIR>`` stands for a fresh empty
directory, and the directory's path in standard output is written back as
``<DIR>`` before hashing.  Every command is replayed here in-process through
``laddergraphs.cli.main``; the digests are computed as the benchmark
computes them, so any change to the CLI's bytes fails this test.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from laddergraphs.cli import main

DIGESTS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "cli_digests.json"
DIR = "<DIR>"


def output_digest(exit_code: int, stdout: str, workdir: Path | None) -> dict:
    files = None
    if workdir is not None:
        stdout = stdout.replace(str(workdir), DIR)
        h = hashlib.sha256()
        for name in sorted(os.listdir(workdir)):
            h.update(name.encode() + b"\0")
            h.update((workdir / name).read_bytes())
        files = h.hexdigest()
    return {"exit": exit_code, "stdout": hashlib.sha256(stdout.encode()).hexdigest(),
            "files": files}


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def test_every_recorded_command_reproduces_its_digest(tmp_path):
    recorded = json.loads(DIGESTS_PATH.read_text())
    assert len(recorded) == 958
    mismatches = []
    for number, (key, expected) in enumerate(recorded.items()):
        argv = json.loads(key)
        workdir = None
        if DIR in argv:
            workdir = tmp_path / f"run{number}"
            workdir.mkdir()
            argv = [str(workdir) if a == DIR else a for a in argv]
        code, stdout = run(argv)
        if output_digest(code, stdout, workdir) != expected:
            mismatches.append(key)
    assert mismatches == []
