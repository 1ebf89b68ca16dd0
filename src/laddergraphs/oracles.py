"""Machine-checkable agreement between the algebraic and graph routes.

Three families of checks, all exact and all deterministic for a fixed seed:

* an exhaustive sweep over one-vertex products, comparing the closed-form
  basis product against composition enumeration followed by projection, and
  the enumerated composition count against its closed-form formula;
* random letter words normally ordered three ways (rewriting, folding over
  basis products, graph composition) and as the product of their letter runs;
* random multi-vertex graph pairs, checking that projection of the composed
  sum equals the product of the projections.

The checks either all pass or the report carries one line per counterexample.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import groupby
from math import prod

from .exprs import format_polynomial
from .graphs import (  # noqa: F401 (perfbench/tracing.py wraps enumerate_* by name here)
    DiagGraph,
    GraphSum,
    _composition_buckets,
    _nth_matching,
    compose,
    count_matchings,
    enumerate_compositions,
    enumerate_matchings,
    make_vertex,
    normal_order_via_graphs,
    project,
    project_sum,
    void_graph,
)
from .ladder import (
    Letter,
    NormalMonomial,
    NormalPolynomial,
    Word,
    multiply_monomials,
    normal_order_fold,
    normal_order_rewrite,
)
from .scalars import Record

_LETTERS = (Letter.ANNIHILATOR, Letter.CREATOR)


class OracleReport(Record):
    """Outcome of one oracle run; ``failures`` holds counterexample lines."""

    __slots__ = __match_args__ = (
        "products_checked", "words_checked", "graph_pairs_checked", "failures")

    def __init__(self, products_checked: int, words_checked: int,
                 graph_pairs_checked: int, failures: tuple[str, ...] = ()):
        self._fill(products_checked, words_checked, graph_pairs_checked, failures)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        n = len(self.failures)
        return (
            f"{'PASS' if self.passed else 'FAIL'} "
            f"({self.products_checked} exhaustive products, "
            f"{self.words_checked} words, "
            f"{self.graph_pairs_checked} graph pairs, "
            f"{n} mismatch{'' if n == 1 else 'es'})"
        )

    def lines(self) -> list[str]:
        return [self.summary()] + [f"  {f}" for f in self.failures]


def random_word(rng: random.Random, max_length: int = 10) -> Word:
    return tuple(rng.choice(_LETTERS) for _ in range(rng.randint(0, max_length)))


def random_graph(
    rng: random.Random,
    max_vertices: int = 4,
    max_lines: int = 2,
    dangling_cap: int = 4,
) -> DiagGraph:
    """A seeded random multi-vertex graph built by successive composition.

    The dangling cap bounds both spot counts so that downstream composition
    enumeration stays small; draws violating the cap are redrawn.
    """
    for _ in range(100):
        acc = void_graph()
        for _ in range(rng.randint(1, max_vertices)):
            r = rng.randint(0, max_lines)
            s = rng.randint(0, max_lines)
            vertex = make_vertex(r, s)
            index = rng.randrange(count_matchings(len(acc.dangling_in), r))
            acc = compose(acc, vertex, _nth_matching(acc.dangling_in, vertex.dangling_out, index))
        if len(acc.dangling_in) <= dangling_cap and len(acc.dangling_out) <= dangling_cap:
            return acc
    raise RuntimeError("could not draw a graph within the dangling cap")


def _word_str(word: Word) -> str:
    return " ".join(letter.value for letter in word) if word else "(empty)"


def run_oracle_checks(
    max_r: int = 4,
    max_s: int = 4,
    max_k: int = 4,
    max_l: int = 4,
    words: int = 200,
    graph_pairs: int = 50,
    seed: int = 42,
) -> OracleReport:
    """Run all oracle checks and return a report."""
    failures: list[str] = []

    products = 0
    for r in range(max_r + 1):
        for s in range(max_s + 1):
            left = make_vertex(r, s)
            for k in range(max_k + 1):
                for l in range(max_l + 1):
                    products += 1
                    formula = multiply_monomials(NormalMonomial(r, s), NormalMonomial(k, l))
                    # One matching size at a time: buckets hold different edge
                    # counts, so distinctness within each is distinctness overall.
                    enumerated, distinct, counts = 0, True, Counter()
                    for bucket in _composition_buckets(left, make_vertex(k, l)):
                        enumerated += len(bucket)
                        distinct = distinct and len(set(bucket)) == len(bucket)
                        counts.update(map(project, bucket))
                        del bucket  # let the next bucket replace it, not join it
                    expected_count = count_matchings(s, k)
                    if enumerated != expected_count:
                        failures.append(
                            f"composition count ({r},{s})x({k},{l}): "
                            f"enumerated {enumerated} != formula {expected_count}"
                        )
                    if not distinct:
                        failures.append(f"duplicate compositions for ({r},{s})x({k},{l})")
                    projected = NormalPolynomial(counts.items())
                    if projected != formula:
                        # name the summand: term (r+k-i, s+l-i) pins down i
                        top = (formula - projected).monomials()[0]
                        failures.append(
                            f"product ({r},{s})x({k},{l}) summand i={r + k - top.r}: "
                            f"closed form [{format_polynomial(formula)}] != "
                            f"graph projection [{format_polynomial(projected)}]"
                        )

    rng = random.Random(seed)
    for _ in range(words):
        word = random_word(rng)
        by_rewrite = normal_order_rewrite(word)
        by_fold = normal_order_fold(word)
        by_graphs = normal_order_via_graphs(word)
        # a a ad ad ad a as (0,2)(3,0)(0,1): unlike the fold, this reaches i >= 2 summands
        by_runs = prod((NormalPolynomial.monomial(x.monomial) ** len(list(run))
                        for x, run in groupby(word)), start=NormalPolynomial.one())
        if not (by_rewrite == by_fold == by_graphs == by_runs):
            failures.append(
                f"word {_word_str(word)}: rewrite [{format_polynomial(by_rewrite)}] "
                f"vs fold [{format_polynomial(by_fold)}] "
                f"vs graphs [{format_polynomial(by_graphs)}] "
                f"vs letter runs [{format_polynomial(by_runs)}]"
            )

    for pair_no in range(graph_pairs):
        g1 = random_graph(rng)
        g2 = random_graph(rng)
        via_graphs = project_sum(GraphSum.basis(g1) * GraphSum.basis(g2))
        via_algebra = multiply_monomials(project(g1), project(g2))
        if via_graphs != via_algebra:
            failures.append(
                f"graph pair {pair_no}: projected product "
                f"[{format_polynomial(via_graphs)}] != product of projections "
                f"[{format_polynomial(via_algebra)}]"
            )

    return OracleReport(
        products_checked=products,
        words_checked=words,
        graph_pairs_checked=graph_pairs,
        failures=tuple(failures),
    )
