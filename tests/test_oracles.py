import random

import pytest

from laddergraphs import oracles
from laddergraphs.ladder import NormalPolynomial
from laddergraphs.oracles import OracleReport, random_graph, random_word, run_oracle_checks


def test_full_run_passes():
    report = run_oracle_checks(2, 2, 2, 2, words=40, graph_pairs=10, seed=9)
    assert report.passed
    assert report.products_checked == 81
    assert report.words_checked == 40
    assert report.graph_pairs_checked == 10
    assert report.summary() == "PASS (81 exhaustive products, 40 words, 10 graph pairs, 0 mismatches)"
    assert report.lines() == [report.summary()]


def corrupt_product(monkeypatch, r, s, k, l, i):
    """Bump the i-th term of the closed-form product ``(r, s) * (k, l)`` as the oracles see it."""
    true_product = oracles.multiply_monomials

    def corrupted(m1, m2):
        formula = true_product(m1, m2)
        if (m1.r, m1.s, m2.r, m2.s) == (r, s, k, l):
            terms = list(formula.terms())
            formula = formula + NormalPolynomial.monomial(terms[i % len(terms)][0])
        return formula

    monkeypatch.setattr(oracles, "multiply_monomials", corrupted)


def test_default_run_is_pinned():
    assert run_oracle_checks().summary() == (
        "PASS (625 exhaustive products, 200 words, 50 graph pairs, 0 mismatches)")


def test_fault_injection_is_reported(monkeypatch):
    corrupt_product(monkeypatch, 2, 1, 2, 2, 1)
    report = run_oracle_checks(2, 2, 2, 2, words=0, graph_pairs=0)
    assert not report.passed
    assert len(report.failures) == 1
    assert report.summary().startswith("FAIL")
    assert "1 mismatch)" in report.summary()
    assert "product (2,1)x(2,2) summand i=1" in report.failures[0]
    # the corrupted closed form and the true graph projection both appear
    assert "3 ad^3 a^2" in report.failures[0]
    assert "2 ad^3 a^2" in report.failures[0]


def test_a_repeated_composition_is_reported_by_count_and_distinctness(monkeypatch):
    # (0,1)x(1,0) enumerates its one connected composition twice.
    true_buckets = oracles._composition_buckets

    def repeating_buckets(g1, g2):
        buckets = list(true_buckets(g1, g2))
        if (len(g1.dangling_in), len(g2.dangling_out)) == (1, 1):
            buckets[-1] = buckets[-1] + buckets[-1][:1]
        return iter(buckets)

    monkeypatch.setattr(oracles, "_composition_buckets", repeating_buckets)
    report = run_oracle_checks(0, 1, 1, 0, words=0, graph_pairs=0)
    assert report.failures == (
        "composition count (0,1)x(1,0): enumerated 3 != formula 2",
        "duplicate compositions for (0,1)x(1,0)",
        "product (0,1)x(1,0) summand i=1: closed form [ad a + 1] != graph projection [ad a + 2]",
    )


def test_a_wrong_projection_is_reported_per_graph_pair(monkeypatch):
    true_project_sum = oracles.project_sum
    monkeypatch.setattr(oracles, "project_sum", lambda s: true_project_sum(s) + NormalPolynomial.one())
    report = run_oracle_checks(0, 0, 0, 0, words=0, graph_pairs=2, seed=3)
    assert report.failures == (
        "graph pair 0: projected product [ad^4 a^3 + 6 ad^3 a^2 + 6 ad^2 a + 1] "
        "!= product of projections [ad^4 a^3 + 6 ad^3 a^2 + 6 ad^2 a]",
        "graph pair 1: projected product [ad^6 a + 1] != product of projections [ad^6 a]",
    )


def test_fault_injection_outside_bounds_changes_nothing(monkeypatch):
    corrupt_product(monkeypatch, 5, 5, 5, 5, 0)
    report = run_oracle_checks(1, 1, 1, 1, words=0, graph_pairs=0)
    assert report.passed


def test_runs_are_deterministic_for_a_seed():
    a = run_oracle_checks(1, 1, 1, 1, words=30, graph_pairs=8, seed=123)
    b = run_oracle_checks(1, 1, 1, 1, words=30, graph_pairs=8, seed=123)
    assert a == b


def test_random_word_bounds():
    rng = random.Random(0)
    for _ in range(50):
        word = random_word(rng, max_length=6)
        assert 0 <= len(word) <= 6


def test_random_graph_respects_caps():
    rng = random.Random(0)
    for _ in range(50):
        g = random_graph(rng, max_vertices=3, max_lines=2, dangling_cap=3)
        assert 1 <= len(g.vertices) <= 3
        assert len(g.dangling_in) <= 3 and len(g.dangling_out) <= 3


def test_random_graph_gives_up_on_a_cap_no_graph_meets():
    with pytest.raises(RuntimeError, match="^could not draw a graph within the dangling cap$"):
        random_graph(random.Random(0), dangling_cap=-1)


def test_random_graph_defaults_cover_their_ranges():
    # Up to four vertices with up to two lines of each kind, every value drawn.
    rng = random.Random(0)
    drawn = [random_graph(rng) for _ in range(100)]
    assert {len(g.vertices) for g in drawn} == {1, 2, 3, 4}
    assert {len(v.out_ports) for g in drawn for v in g.vertices} == {0, 1, 2}
    assert {len(v.in_ports) for g in drawn for v in g.vertices} == {0, 1, 2}


def test_report_failure_lines_are_indented():
    report = OracleReport(1, 0, 0, failures=("something broke",))
    assert report.lines() == [report.summary(), "  something broke"]
