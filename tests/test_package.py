"""The package's public names, and the benchmark's holds on the package.

``perfbench/tracing.py`` wraps package functions by attribute name, and
``perfbench/worker.py`` reads a cache's statistics; a rename, a dropped
import or a dropped cache there would otherwise fail only inside a
benchmark run.
"""

import contextlib
import io
from pathlib import Path

import laddergraphs
import laddergraphs.cli
import reference

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PUBLIC_NAMES = [
    "DiagGraph", "ExprNode", "GaussianRational", "GraphSum", "IDENTITY", "IdentityExpr",
    "LOWER", "Letter", "LetterExpr", "Matching", "NormalMonomial", "NormalPolynomial",
    "OracleReport", "ParseError", "PowerExpr", "ProductExpr", "RAISE", "ScaledExpr",
    "SumExpr", "Vertex", "Word", "build_iteratively", "canonical_decode", "canonical_encode",
    "commutator_powers", "compose", "count_matchings", "enumerate_compositions",
    "enumerate_matchings", "evaluate", "format_polynomial", "graph_from_json", "graph_to_dot",
    "graph_to_json", "make_vertex", "multiply_monomials", "normal_order_fold",
    "normal_order_rewrite", "normal_order_via_graphs", "normal_order_word", "parse",
    "power_word", "project", "project_sum", "random_graph", "random_word",
    "run_oracle_checks", "void_graph", "word_from_str",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 49
    assert laddergraphs.__all__ == PUBLIC_NAMES
    namespace: dict = {}
    exec("from laddergraphs import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES
    assert all(namespace[name] is getattr(laddergraphs, name) for name in PUBLIC_NAMES)


def _namespaces(lg) -> list:
    """Every module of the package and every class defined in one."""
    modules = [lg.scalars, lg.ladder, lg.exprs, lg.graphs, lg.oracles, lg.cli]
    return modules + [value for module in modules for value in vars(module).values()
                      if isinstance(value, type) and value.__module__ == module.__name__]


def test_reference_is_the_benchmarks_module():
    # No module under tests/ may shadow the oracle module the benchmark checks against.
    assert Path(reference.__file__).resolve() == PERFBENCH / "reference.py"


def test_basis_product_cache_statistics_exist():
    # The benchmark worker's trace mode reads them for ladder.basis_cache_hit_ratio.
    info = laddergraphs.ladder._basis_product.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_benchmark_tracer_installs_and_uninstalls():
    import tracing

    lg = laddergraphs
    before = {namespace: dict(vars(namespace)) for namespace in _namespaces(lg)}
    main = lg.cli.main
    tracer = tracing.Tracer()
    tracing.install(tracer, lg)
    try:
        assert lg.cli.main is not main
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert lg.cli.main(["commutator", "2", "2"]) == 0
    finally:
        tracer.uninstall()
    assert out.getvalue() == "4 ad a + 2\n"
    assert tracer.totals["cli.main"][0] == 1
    for namespace, attributes in before.items():
        now = vars(namespace)
        assert now.keys() == attributes.keys(), namespace
        changed = [name for name, value in attributes.items() if now[name] is not value]
        assert changed == [], namespace
