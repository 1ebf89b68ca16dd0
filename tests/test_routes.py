"""The three normal-ordering routes compute independently of one another.

The rewrite and the fold of ``ladder`` and the graph walk of ``graphs`` check
each other only while none of them computes through another's arithmetic.
A route that borrowed another's closed form would give equal results, so no
value test could tell.  These tests record, per route, the package functions
it calls, keyed by module and qualified name, and allow two routes to share
only the constructors of their result.  What a shared function calls counts
as part of it.
"""

import sys
from functools import cache
from itertools import combinations
from types import CodeType, FunctionType

import pytest

from laddergraphs import cli, exprs, graphs, ladder, oracles, scalars
from laddergraphs.ladder import word_from_str

MODULES = (scalars, ladder, graphs, exprs, oracles, cli)

# Looked up on each call, so that a patched route is the one traced.
ROUTES = {
    "rewrite": (ladder, "normal_order_rewrite"),
    "fold": (ladder, "normal_order_fold"),
    "graph walk": (graphs, "normal_order_via_graphs"),
}

# The empty word, one-letter words, two letters (the walk counts the second),
# and longer ones whose walk pushes prefixes and whose rewrite takes both successors.
WORDS = [word_from_str(spelled) for spelled in (
    "", "a", "ad", "a ad", "ad a", "a a ad ad", "ad a ad a a ad", "a ad a ad a ad a")]

# What every route may call: the result's constructors and the sum step.
SHARED = {
    ("laddergraphs.ladder", "NormalPolynomial._from_numerators"),
    ("laddergraphs.scalars", "GaussianRational._raw"),
    ("laddergraphs.ladder", "Letter.monomial"),
    ("laddergraphs.scalars", "accumulate"),
}


def _functions(obj):
    """The functions behind a module attribute: itself, what a cache wraps, or a class's methods."""
    obj = getattr(obj, "__wrapped__", obj)
    if isinstance(obj, FunctionType):
        yield obj
    elif isinstance(obj, type) and obj.__module__.startswith("laddergraphs."):
        for member in vars(obj).values():
            # staticmethod and classmethod, property, cached_property
            for attr in ("__func__", "fget", "func"):
                member = getattr(member, attr, member)
            if isinstance(member, FunctionType):
                yield member


def _names_by_code() -> dict[CodeType, tuple[str, str]]:
    """Each code object of the package: its module and qualified name.

    Code nested in a function, such as a comprehension or a closure, is
    named as that function, whether or not the Python version inlines it.
    """
    names = {}
    pending = [(function.__code__, (function.__module__, function.__qualname__))
               for module in MODULES for obj in vars(module).values() for function in _functions(obj)
               if function.__module__.startswith("laddergraphs.")]
    while pending:
        code, name = pending.pop()
        names[code] = name
        pending += [(const, name) for const in code.co_consts if isinstance(const, CodeType)]
    return names


NAMES = _names_by_code()


def _inside_shared(frame) -> bool:
    """Whether a shared function is among the callers of ``frame``."""
    while frame := frame.f_back:
        if NAMES.get(frame.f_code) in SHARED:
            return True
    return False


def package_calls(route, word) -> set[tuple[str, str]]:
    """The package functions ``route(word)`` calls, with every package cache empty."""
    called = set()

    def trace(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if module.startswith("laddergraphs.") and not _inside_shared(frame):
            called.add(NAMES.get(frame.f_code, (module, frame.f_code.co_name)))

    with pytest.MonkeyPatch.context() as mp:
        # A hit on a cache that another route filled would call nothing.
        for module in MODULES:
            for name, obj in vars(module).items():
                if hasattr(obj, "cache_clear"):
                    mp.setattr(module, name, cache(obj.__wrapped__))
        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            route(word)
        finally:
            sys.settrace(previous)
    return called


def reached() -> dict[str, set[tuple[str, str]]]:
    """Per route, the package functions it calls on any of ``WORDS``."""
    return {name: set().union(*(package_calls(getattr(*route), word) for word in WORDS))
            for name, route in ROUTES.items()}


def test_no_route_computes_through_another():
    calls = reached()
    # The tracer sees each route's own arithmetic ...
    assert calls["rewrite"] == {("laddergraphs.ladder", "normal_order_rewrite"),
                                ("laddergraphs.ladder", "NormalPolynomial._from_numerators"),
                                ("laddergraphs.scalars", "accumulate")}
    assert {("laddergraphs.ladder", "_basis_product"), ("laddergraphs.ladder", "_real_numerators"),
            ("laddergraphs.ladder", "NormalPolynomial.__mul__")} <= calls["fold"]
    assert {("laddergraphs.graphs", "_assembler"), ("laddergraphs.graphs", "_pairings"),
            ("laddergraphs.graphs", "_shape")} <= calls["graph walk"]
    assert SHARED <= set(NAMES.values())
    # ... and no two routes share any beyond the shared names.
    for (first, mine), (second, theirs) in combinations(calls.items(), 2):
        assert mine & theirs <= SHARED, f"{first} and {second} both call {sorted(mine & theirs - SHARED)}"
