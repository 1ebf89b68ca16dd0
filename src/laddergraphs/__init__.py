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

from types import ModuleType as _ModuleType

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

# The public names are exactly the names imported above.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
