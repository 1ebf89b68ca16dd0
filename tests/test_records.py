"""The value contract of the package's immutable records, and a cold-start guard."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from laddergraphs.exprs import (
    IdentityExpr,
    LetterExpr,
    PowerExpr,
    ProductExpr,
    ScaledExpr,
    SumExpr,
    _Token,
    parse,
)
from laddergraphs.graphs import DiagGraph, Vertex, enumerate_compositions, make_vertex
from laddergraphs.ladder import Letter, NormalMonomial
from laddergraphs.oracles import OracleReport
from laddergraphs.scalars import GaussianRational

SRC = str(Path(__file__).resolve().parent.parent / "src")

A = LetterExpr(Letter.ANNIHILATOR)
AD = LetterExpr(Letter.CREATOR)

# One instance of every record class, with its fields in order.
RECORDS = [
    (NormalMonomial(1, 2), (1, 2)),
    (Vertex((1,), (0,)), ((1,), (0,))),
    (make_vertex(1, 1), ((Vertex((1,), (0,)),), (), (1,), (0,))),
    (IdentityExpr(), ()),
    (A, (Letter.ANNIHILATOR,)),
    (PowerExpr(AD, 3), (AD, 3)),
    (ProductExpr((A, AD)), ((A, AD),)),
    (SumExpr((A, AD)), ((A, AD),)),
    (ScaledExpr(GaussianRational(2), A), (GaussianRational(2), A)),
    (_Token("int", "12", 3), ("int", "12", 3)),
    (OracleReport(1, 2, 3, ("x",)), (1, 2, 3, ("x",))),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


# Literal reprs, as the frozen dataclasses printed them.
@pytest.mark.parametrize("record, text", [
    (NormalMonomial(1, 2), "NormalMonomial(r=1, s=2)"),
    (make_vertex(1, 1), "DiagGraph(vertices=(Vertex(in_ports=(1,), out_ports=(0,)),), "
                        "edges=(), dangling_in=(1,), dangling_out=(0,))"),
    (IdentityExpr(), "IdentityExpr()"),
    (_Token("int", "12", 3), "_Token(kind='int', lexeme='12', pos=3)"),
    (OracleReport(1, 2, 3), "OracleReport(products_checked=1, words_checked=2, "
                            "graph_pairs_checked=3, failures=())"),
    (parse("2 (a + ad)^3 - 1/2 a ad"),
     "SumExpr(terms=(ScaledExpr(coeff=GaussianRational(Fraction(2, 1), Fraction(0, 1)), "
     "body=PowerExpr(base=SumExpr(terms=(LetterExpr(letter=<Letter.ANNIHILATOR: 'a'>), "
     "LetterExpr(letter=<Letter.CREATOR: 'ad'>))), exponent=3)), "
     "ScaledExpr(coeff=GaussianRational(Fraction(-1, 2), Fraction(0, 1)), "
     "body=ProductExpr(factors=(LetterExpr(letter=<Letter.ANNIHILATOR: 'a'>), "
     "LetterExpr(letter=<Letter.CREATOR: 'ad'>))))))"),
])
def test_repr_is_unchanged(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_hash_is_the_field_tuple_hash_but_never_equal_to_it(record, fields):
    assert hash(record) == hash(fields)
    assert hash(record) == hash(record)  # a cached hash gives the same value again
    assert record != fields and not record == fields


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_records_are_frozen(record, fields):
    for name in (*record.__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in record.__match_args__) == fields


def test_scalar_refuses_assignment_and_deletion():
    x = GaussianRational(1, 2)
    for name in ("_re", "_im", "re"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == GaussianRational(1, 2)


@pytest.mark.parametrize("record, fields", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(record, fields):
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)
        assert repr(clone) == repr(record)


def test_graph_hash_cache_is_not_a_field():
    graphs = enumerate_compositions(make_vertex(2, 2), make_vertex(2, 1))
    g = graphs[3]
    fresh = pickle.loads(pickle.dumps(g))
    hash(g)
    assert pickle.dumps(g) == pickle.dumps(fresh)  # the filled cache is not pickled state
    assert "_hash" not in repr(g)
    rebuilt = DiagGraph(**{name: getattr(g, name) for name in DiagGraph.__match_args__})
    assert rebuilt == g and hash(rebuilt) == hash(g)
    assert len(set(graphs)) == len(graphs) and {g: 1}[rebuilt] == 1


def test_constructors_still_refuse():
    with pytest.raises(TypeError):
        NormalMonomial(1.0, 2)
    with pytest.raises(ValueError):
        NormalMonomial(-1, 2)
    with pytest.raises(ValueError):
        ProductExpr(())
    with pytest.raises(ValueError):
        SumExpr(())
    with pytest.raises(ValueError):
        PowerExpr(A, -1)
    with pytest.raises(TypeError):
        IdentityExpr(1)


def test_keyword_construction():
    assert Vertex(in_ports=(1,), out_ports=(0,)) == make_vertex(1, 1).vertices[0]
    assert OracleReport(products_checked=1, words_checked=0, graph_pairs_checked=0) \
        == OracleReport(1, 0, 0, ())


def _run(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, timeout=60)


def test_cli_import_leaves_dataclasses_unloaded():
    # -S keeps site-packages .pth files, which may import anything, out of the check.
    result = _run("-S", "-c", "import laddergraphs.cli, sys; print('dataclasses' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"
    result = _run("-m", "laddergraphs", "compose", "2", "2", "2", "1")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("(2,2) o (2,1): 7 compositions\n")
