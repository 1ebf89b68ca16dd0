"""Exact ladder-operator algebra and its equivalent graph-composition calculus.

The package keeps two faithful models of the same algebra side by side:

* :mod:`laddergraphs.ladder`: normally ordered monomials ``ad^r a^s`` with a
  closed-form product, exact Gaussian-rational coefficients, and normal
  ordering of raw operator words;
* :mod:`laddergraphs.graphs`: labeled acyclic graphs whose composition
  enumerates partial matchings of dangling lines, with a projection back onto
  the monomial algebra that is an algebra homomorphism.

:mod:`laddergraphs.exprs` provides the expression language,
:mod:`laddergraphs.oracles` the cross-validation harness, and
:mod:`laddergraphs.cli` the command-line interface.
"""

from .exprs import (
    ExprNode,
    IdentityExpr,
    LetterExpr,
    ParseError,
    PowerExpr,
    ProductExpr,
    ScaledExpr,
    SumExpr,
    evaluate,
    format_polynomial,
    parse,
)
from .graphs import (
    DiagGraph,
    GraphSum,
    Matching,
    Vertex,
    build_iteratively,
    canonical_decode,
    canonical_encode,
    compose,
    count_matchings,
    enumerate_compositions,
    enumerate_matchings,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    make_vertex,
    normal_order_via_graphs,
    project,
    project_sum,
    void_graph,
)
from .ladder import (
    IDENTITY,
    LOWER,
    RAISE,
    Letter,
    NormalMonomial,
    NormalPolynomial,
    Word,
    commutator_powers,
    multiply_monomials,
    normal_order_fold,
    normal_order_rewrite,
    normal_order_word,
    power_word,
    word_from_str,
)
from .oracles import OracleReport, random_graph, random_word, run_oracle_checks
from .scalars import GaussianRational

__version__ = "0.1.0"

__all__ = [
    "DiagGraph",
    "ExprNode",
    "GaussianRational",
    "GraphSum",
    "IDENTITY",
    "IdentityExpr",
    "LOWER",
    "Letter",
    "LetterExpr",
    "Matching",
    "NormalMonomial",
    "NormalPolynomial",
    "OracleReport",
    "ParseError",
    "PowerExpr",
    "ProductExpr",
    "RAISE",
    "ScaledExpr",
    "SumExpr",
    "Vertex",
    "Word",
    "build_iteratively",
    "canonical_decode",
    "canonical_encode",
    "commutator_powers",
    "compose",
    "count_matchings",
    "enumerate_compositions",
    "enumerate_matchings",
    "evaluate",
    "format_polynomial",
    "graph_from_json",
    "graph_to_dot",
    "graph_to_json",
    "make_vertex",
    "multiply_monomials",
    "normal_order_fold",
    "normal_order_rewrite",
    "normal_order_via_graphs",
    "normal_order_word",
    "parse",
    "power_word",
    "project",
    "project_sum",
    "random_graph",
    "random_word",
    "run_oracle_checks",
    "void_graph",
    "word_from_str",
]
