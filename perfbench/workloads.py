"""The four benchmark workloads: seeded inputs, the timed call, the check.

A workload is a stream of rounds.  Round ``i`` is generated from
``random.Random(f"{seed}:{i}")``, so the same seed always gives the same
jobs, and the traced run can replay exactly the rounds it measures.

Every round holds the same fifteen job sizes (exponents, composition counts,
word lengths with a fixed number of inversions), or on ``cli_mix`` the same
twelve command kinds; the seed picks coefficients, letters, graphs, output
formats, commands and order.  A run ends on a round boundary, so each run
measures the same distribution of job sizes whatever the seed, and with
twelve or fifteen sizes per round the median and the 90th percentile fall in
the middle of a size class rather than between two.

``run`` is the only part that is timed.  It calls the package through module
attributes (``lg.exprs.parse``, ``lg.graphs.compose`` ...) so that the
tracer's wrappers, installed on those attributes, see every call.  ``check``
compares the output with :mod:`reference`, which does not import the package.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import reference as ref

BENCH_DIR = Path(__file__).resolve().parent


def _round_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def letters(lg, word: str) -> tuple:
    """The package's word for a string over 'a' and 'd' (for ``ad``)."""
    letter = lg.ladder.Letter
    return tuple(letter.ANNIHILATOR if ch == "a" else letter.CREATOR for ch in word)


def word_with_inversions(rng: random.Random, lowers: int, raises: int, inversions: int) -> str:
    """A seeded word over 'a' and 'd' (for ``ad``) with a fixed inversion count.

    An inversion is an ``a`` standing left of an ``ad``; the rewrite route's
    cost grows steeply with their number, so fixing it keeps the cost of a
    word size class narrow while the letters still vary with the seed.
    """
    letters = list("a" * lowers + "d" * raises)
    while True:
        rng.shuffle(letters)
        seen_a = count = 0
        for ch in letters:
            if ch == "a":
                seen_a += 1
            else:
                count += seen_a
        if count == inversions:
            return "".join(letters)


# ---------------------------------------------------------------------------
# Expression workloads: order_int and order_exact
# ---------------------------------------------------------------------------

def coeff_text(c) -> str:
    """A Gaussian rational in the coefficient syntax of GRAMMAR.md."""
    re, im = c
    if not im:
        return str(re)
    if not re:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


INT_POOL = [ref.g(v) for v in (1, -1, 2, -2, 3, -3)]
EXACT_POOL = [
    ref.g(Fraction(1, 2)), ref.g(0, 3), ref.g(0, Fraction(-2, 5)),
    ref.g(Fraction(1, 2), Fraction(1, 3)), ref.g(Fraction(-2, 3), Fraction(1, 5)),
    ref.g(Fraction(3, 4), Fraction(-1, 2)), ref.g(Fraction(-1, 3), Fraction(-2, 5)),
    ref.g(Fraction(2, 3), Fraction(-1, 7)),
]


class OrderWorkload:
    """``parse`` -> ``evaluate`` -> ``format_polynomial``/``to_json`` on powers.

    Shapes, one job per listed size in every round:

    * ``(c1 a + c2 ad)^n``, checked by the pairing formula;
    * ``(c ad a + d a)^n``, checked by the Stirling expansion (``d = 0`` in
      ``order_int``, where it is ``(c ad a)^n``);
    * ``(c1 a + c2 ad + c0)^n``, checked by the binomial expansion;
    * words through ``normal_order_rewrite`` and ``normal_order_fold``,
      checked by :func:`reference.normal_order`; sizes are
      ``(a count, ad count, inversions)``.

    ``order_exact`` draws non-integer Gaussian-rational coefficients and uses
    smaller exponents, so that a job takes about as long as in ``order_int``.
    """

    INT_SIZES = {
        "pair": (8, 18, 28, 34, 40),
        "stirling": (16, 32, 48, 64),
        "shifted": (6, 12, 18),
        "word": ((6, 6, 18), (7, 7, 24), (7, 7, 28)),
    }
    EXACT_SIZES = {
        "pair": (6, 14, 22, 28, 32),
        "stirling": (5, 10, 14, 18, 20),
        "shifted": (4, 8, 11, 14, 16),
        "word": (),
    }

    def __init__(self, lg, seed: int, exact: bool):
        self.lg = lg
        self.seed = seed
        self.exact = exact
        self.pool = EXACT_POOL if exact else INT_POOL
        self.sizes = self.EXACT_SIZES if exact else self.INT_SIZES

    def _expr_job(self, rng: random.Random, shape: str, n: int) -> tuple:
        c1, c2, c0 = (rng.choice(self.pool) for _ in range(3))
        if shape == "pair":
            text = f"({coeff_text(c1)} a + {coeff_text(c2)} ad)^{n}"
            params = (c1, c2)
        elif shape == "stirling":
            d = c2 if self.exact else ref.ZERO
            body = f"{coeff_text(c1)} ad a" + (f" + {coeff_text(d)} a" if d != ref.ZERO else "")
            text = f"({body})^{n}"
            params = (c1, d)
        else:
            text = f"({coeff_text(c1)} a + {coeff_text(c2)} ad + {coeff_text(c0)})^{n}"
            params = (c1, c2, c0)
        return ("expr", shape, text, params, n, rng.choice(("text", "json")))

    def round(self, index: int) -> list[tuple]:
        rng = _round_rng(self.seed, index)
        jobs = []
        for shape, sizes in self.sizes.items():
            for size in sizes:
                if shape == "word":
                    jobs.append(("word", word_with_inversions(rng, *size)))
                else:
                    jobs.append(self._expr_job(rng, shape, size))
        rng.shuffle(jobs)
        return jobs

    def warm_up_jobs(self) -> list[tuple]:
        """The largest job of each shape, which fills the basis-product cache."""
        rng = random.Random("warm-up")
        jobs = [self._expr_job(rng, shape, sizes[-1])
                for shape, sizes in self.sizes.items() if shape != "word"]
        jobs += [("word", word_with_inversions(rng, *size)) for size in self.sizes["word"][-1:]]
        return jobs

    def prepare(self, job: tuple) -> tuple:
        if job[0] == "word":
            return (job[0], letters(self.lg, job[1]))
        return job

    def run(self, job: tuple, prepared: tuple):
        lg = self.lg
        if job[0] == "word":
            word = prepared[1]
            return (lg.ladder.normal_order_rewrite(word), lg.ladder.normal_order_fold(word))
        _, _, text, _, _, output = job
        poly = lg.exprs.evaluate(lg.exprs.parse(text))
        if output == "text":
            return lg.exprs.format_polynomial(poly)
        return poly.to_json()

    def check(self, job: tuple, out, prepared: tuple) -> bool:
        if job[0] == "word":
            expected = ref.polynomial_json(ref.normal_order(job[1]))
            return out[0].to_json() == expected and out[1].to_json() == expected
        _, shape, _, params, n, output = job
        if shape == "pair":
            expected = ref.binomial_power(*params, n)
        elif shape == "stirling":
            expected = ref.stirling_power(*params, n)
        else:
            expected = ref.shifted_power(*params, n)
        if output == "text":
            return out == ref.polynomial_text(expected)
        return out == ref.polynomial_json(expected)


# ---------------------------------------------------------------------------
# Graph workload: compose_sweep
# ---------------------------------------------------------------------------

def random_chain(rng: random.Random, vertices: int, max_lines: int, spots: int):
    """A chain for ``build_iteratively`` and its projection, both seeded.

    Tracks the dangling counts itself, so the projection is known without the
    package: joining ``i`` lines removes ``i`` gray and ``i`` white spots.
    Redraws until both spot counts equal ``spots``, so that the product of two
    such chains has a fixed number of compositions whatever the seed.
    """
    while True:
        gray = white = 0
        steps = []
        for _ in range(vertices):
            r, s = rng.randint(0, max_lines), rng.randint(0, max_lines)
            index = rng.randrange(ref.product_count(gray, r))
            joined, below = 0, 1
            while index >= below:  # matchings are ordered by size first
                joined += 1
                below += ref.product_count_exact(gray, r, joined)
            steps.append((r, s, index))
            gray, white = gray - joined + s, white + r - joined
        if gray == white == spots:
            return steps, (white, gray)


class ComposeWorkload:
    """Graph composition: one-vertex sweeps, graph-sum products, graph words.

    * ``(r,s) x (k,l)``: every composition from ``enumerate_compositions`` is
      consumed by iteration and projected; the tally must equal the closed
      form and ``multiply_monomials``.  The sizes run up to 13 327
      compositions (``s = k = 6``).  Every other job is mirrored to
      ``(l,k) x (s,r)``, which has the same count and port total, so each
      size runs both ways equally often in every run.
    * random three-vertex pairs whose projections are ``ad^k a^k``, one pair
      for each ``k`` in ``PAIR_SPOTS``: ``GraphSum.__mul__`` then
      ``project_sum``, which must equal the product of the projections.
    * words of 6 to 10 letters through ``normal_order_via_graphs``, which
      must agree with the rewrite and fold routes and the reference.
    """

    VERTEX_SIZES = ((3, 6, 6, 3), (2, 5, 6, 4), (4, 5, 5, 2), (3, 4, 5, 3), (2, 4, 4, 2),
                    (3, 3, 4, 1), (1, 2, 4, 3), (2, 2, 3, 2), (1, 1, 2, 1))
    PAIR_SPOTS = (1, 2, 3)
    WORD_SIZES = ((3, 3, 4), (4, 4, 8), (5, 5, 12))

    def __init__(self, lg, seed: int):
        self.lg = lg
        self.seed = seed

    def round(self, index: int) -> list[tuple]:
        rng = _round_rng(self.seed, index)
        jobs = []
        for position, (r, s, k, l) in enumerate(self.VERTEX_SIZES):
            if (index + position) % 2:
                r, s, k, l = l, k, s, r
            jobs.append(("vertex", r, s, k, l))
        for spots in self.PAIR_SPOTS:
            chains = [random_chain(rng, 3, 2, spots) for _ in range(2)]
            jobs.append(("pair", *chains))
        jobs += [("word", word_with_inversions(rng, *size)) for size in self.WORD_SIZES]
        rng.shuffle(jobs)
        return jobs

    def warm_up_jobs(self) -> list[tuple]:
        """One small job of each kind: nothing here has a cache to fill."""
        rng = random.Random("warm-up")
        chains = [random_chain(rng, 2, 1, 1) for _ in range(2)]
        return [("vertex", 2, 2, 2, 2), ("pair", *chains),
                ("word", word_with_inversions(rng, 2, 2, 2))]

    def prepare(self, job: tuple) -> tuple:
        """Build the job's input graphs or letters before the timed span."""
        lg = self.lg
        if job[0] == "vertex":
            _, r, s, k, l = job
            return (lg.graphs.make_vertex(r, s), lg.graphs.make_vertex(k, l))
        if job[0] == "pair":
            return tuple(lg.graphs.build_iteratively(steps) for steps, _ in job[1:])
        return letters(lg, job[1])

    def run(self, job: tuple, prepared: tuple):
        graphs = self.lg.graphs
        if job[0] == "vertex":
            tally: dict = {}
            for composed in graphs.enumerate_compositions(*prepared):
                mono = graphs.project(composed)
                key = (mono.r, mono.s)
                tally[key] = tally.get(key, 0) + 1
            return tally
        if job[0] == "pair":
            g1, g2 = prepared
            return graphs.project_sum(graphs.GraphSum.basis(g1) * graphs.GraphSum.basis(g2))
        return graphs.normal_order_via_graphs(prepared)

    def check(self, job: tuple, out, prepared: tuple) -> bool:
        lg = self.lg
        if job[0] == "vertex":
            _, r, s, k, l = job
            expected = ref.monomial_product(r, s, k, l)
            closed = lg.ladder.multiply_monomials((r, s), (k, l)).to_json()
            return (sum(out.values()) == ref.product_count(s, k)
                    and {m: ref.g(c) for m, c in out.items()} == expected
                    and closed == ref.polynomial_json(expected))
        if job[0] == "pair":
            (_, (r, s)), (_, (k, l)) = job[1], job[2]
            g1, g2 = prepared
            expected = ref.polynomial_json(ref.monomial_product(r, s, k, l))
            via_algebra = lg.ladder.multiply_monomials(
                lg.graphs.project(g1), lg.graphs.project(g2))
            return out.to_json() == expected and via_algebra.to_json() == expected
        expected = ref.polynomial_json(ref.normal_order(job[1]))
        return (out.to_json() == expected
                and lg.ladder.normal_order_rewrite(prepared).to_json() == expected
                and lg.ladder.normal_order_fold(prepared).to_json() == expected)


# ---------------------------------------------------------------------------
# Command-line workload: cli_mix
# ---------------------------------------------------------------------------

DIR = "<DIR>"
DIGESTS_PATH = BENCH_DIR / "cli_digests.json"

NORMAL_ORDER_EXPRS = (
    [f"(ad a)^{n}" for n in range(1, 11)]
    + [f"(a+ad)^{n}" for n in range(1, 11)]
    + [f"(2 a - 3 ad + 1)^{n}" for n in range(1, 7)]
    + [f"(1/2 a + 3i ad)^{n}" for n in range(1, 7)]
)
RENDER_CHAINS = [
    "2,1;2,2@2", "1,1;1,1@1", "2,2;1,1@1;1,2@2", "0,3;3,0@5",
    "3,1;1,2@1;2,2@3", "1,2;2,1@2;2,1@1;0,1", "2,2;2,2@6", "1,0;0,1;1,1@1",
]
PROJECT_BOUNDS = ["1,1,1,1", "2,2,2,2", "3,2,2,3", "2,3,3,2"]
UNKNOWN_TOKEN = ["a + b", "ad x", "2 a ~ ad"]
ZERO_DENOMINATOR = ["1/0 a", "(ad a)^2 + 3/0", "a - 1/0i"]
DEEP_NESTING = "(" * 400 + "a" + ")" * 400


def cli_pool() -> list[tuple[str, list[str]]]:
    """Every command the mix can draw, grouped by kind; ``<DIR>`` is a temp dir."""
    pool = []
    for expr in NORMAL_ORDER_EXPRS:
        pool.append(("normal-order", ["normal-order", expr]))
        pool.append(("normal-order-json", ["normal-order", "--json", expr]))
    for s in range(7):
        for k in range(7):
            pool.append(("commutator", ["commutator", str(s), str(k)]))
            pool.append(("commutator-json", ["commutator", "--json", str(s), str(k)]))
    for r in range(4):
        for s in range(4):
            for k in range(4):
                for l in range(4):
                    args = ["compose", str(r), str(s), str(k), str(l)]
                    pool.append(("compose", args))
                    pool.append(("compose-json", args + ["--json"]))
                    pool.append(("compose-dot", args + ["--dot", DIR]))
    pool += [("render", ["render", chain, "--dot", DIR]) for chain in RENDER_CHAINS]
    pool += [("project-check", ["project-check", "--bounds", b]) for b in PROJECT_BOUNDS]
    pool += [("oracle-check", ["oracle-check", "--bounds", "2,2,2,2", "--words", "10",
                               "--pairs", "5", "--seed", str(seed)]) for seed in range(10)]
    pool += [("unknown-token", ["normal-order", e]) for e in UNKNOWN_TOKEN]
    pool += [("zero-denominator", ["normal-order", e]) for e in ZERO_DENOMINATOR]
    return pool


def digest_key(argv: list[str]) -> str:
    return json.dumps(argv)


def output_digest(exit_code: int, stdout: str, workdir: str | None) -> dict:
    """What the seed commit's CLI printed and wrote, as digests."""
    if workdir is not None:
        stdout = stdout.replace(workdir, DIR)
    files = None
    if workdir is not None:
        h = hashlib.sha256()
        for name in sorted(os.listdir(workdir)):
            h.update(name.encode() + b"\0")
            h.update((Path(workdir) / name).read_bytes())
        files = h.hexdigest()
    return {"exit": exit_code, "stdout": hashlib.sha256(stdout.encode()).hexdigest(),
            "files": files}


class CliWorkload:
    """One ``python -m laddergraphs`` process per job, or ``cli.main`` in-process.

    Each round draws commands of every kind; outputs must match the
    digests recorded at the seed commit (``cli_digests.json``), and the two
    malformed kinds must also exit 1 with an ``error:`` line and no traceback.
    """

    def __init__(self, lg, seed: int, root: Path, tmp_root: Path, in_process: bool):
        self.lg = lg
        self.seed = seed
        self.root = root
        self.tmp_root = tmp_root
        self.in_process = in_process
        self.kinds: dict[str, list[list[str]]] = {}
        for kind, argv in cli_pool():
            self.kinds.setdefault(kind, []).append(argv)
        self.digests = json.loads(DIGESTS_PATH.read_text())
        self.env = child_env(root)

    def round(self, index: int) -> list[tuple]:
        """Every kind once: twelve jobs.  The weights are uniform by design,
        because no measured frequencies of CLI use exist to weight them by."""
        rng = _round_rng(self.seed, index)
        jobs = [("cli", kind, rng.choice(argvs)) for kind, argvs in self.kinds.items()]
        rng.shuffle(jobs)
        return jobs

    def warm_up_jobs(self) -> list[tuple]:
        return [("cli", "normal-order", ["normal-order", "(ad a)^1"])]

    def prepare(self, job: tuple) -> tuple:
        argv = job[2]
        workdir = tempfile.mkdtemp(dir=self.tmp_root) if DIR in argv else None
        return ([workdir if a == DIR else a for a in argv], workdir)

    def run(self, job: tuple, prepared: tuple) -> tuple[int, str, str]:
        argv = prepared[0]
        if self.in_process:
            return run_in_process(self.lg, argv)
        proc = subprocess.run([sys.executable, "-m", "laddergraphs", *argv],
                              capture_output=True, text=True, env=self.env,
                              cwd=self.tmp_root, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, job: tuple, out, prepared: tuple) -> bool:
        code, stdout, stderr = out
        workdir = prepared[1]
        try:
            expected = self.digests.get(digest_key(job[2]))
            ok = expected is not None and output_digest(code, stdout, workdir) == expected
        finally:
            if workdir is not None:
                shutil.rmtree(workdir, ignore_errors=True)
        if job[1] in ("unknown-token", "zero-denominator"):
            ok = ok and code == 1 and stderr.startswith("error:") and "Traceback" not in stderr
        return ok

    def deep_nesting_probe(self) -> dict:
        """ROADMAP item 4: a 400-deep expression must not end in a traceback.

        Either outcome of a fix passes: exit 0 printing ``a``, or exit 1 with
        a one-line ``error:``.
        """
        argv = ["normal-order", DEEP_NESTING]
        code, stdout, stderr = self.run(("cli", "deep-nesting", argv), (argv, None))
        clean_error = code == 1 and stderr.startswith("error:") and "Traceback" not in stderr
        ok = (code == 0 and stdout == "a\n") or clean_error
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return {"input": "normal-order with 400 nested parentheses", "ok": ok,
                "exit": code, "stderr_last_line": last[:200]}


def run_in_process(lg, argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` with stdout and stderr captured; a raise is exit 1."""
    import contextlib
    import io
    import traceback

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lg.cli.main(argv)
        except Exception:  # the CLI leaked an exception: report it like the interpreter
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def child_env(root: Path) -> dict:
    """Environment for child interpreters: the package from ``src``.

    Bytecode is cached, as it is for users, but under ``perfbench/out`` and
    never next to the sources; the cache is written even where the caller's
    environment disables writing, so that every run after the first one in a
    checkout starts from cached bytecode.
    """
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONPYCACHEPREFIX"] = str(BENCH_DIR / "out" / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


WORKLOADS = ("order_int", "order_exact", "compose_sweep", "cli_mix")


def make(name: str, lg, seed: int, root: Path, tmp_root: Path, in_process: bool = False):
    if name == "order_int":
        return OrderWorkload(lg, seed, exact=False)
    if name == "order_exact":
        return OrderWorkload(lg, seed, exact=True)
    if name == "compose_sweep":
        return ComposeWorkload(lg, seed)
    if name == "cli_mix":
        return CliWorkload(lg, seed, root, tmp_root, in_process)
    raise ValueError(f"unknown workload {name!r}")
