"""Labeled acyclic multi-vertex graphs and their composition algebra.

A graph is a sequence of vertices, each carrying ordered in-ports and
out-ports.  Ports have integer labels that are unique within the graph (the
full label set is exactly ``0..P-1`` for ``P`` ports), which makes every line
distinguishable.  An edge joins one out-port to one in-port; ports not in any
edge dangle, gray on the in side and white on the out side.  Directedness is
inherited from the ports and cycles are excluded.

Composition of ``g1`` with ``g2`` picks a partial matching between the
dangling in-ports of ``g1`` and the dangling out-ports of ``g2`` and adds one
edge per matched pair, so every new edge runs from ``g2`` into ``g1`` and
acyclicity is preserved by construction.  The number of compositions is

    sum over i in 0..min(|gray1|, |white2|) of  i! * C(|gray1|, i) * C(|white2|, i)

and projecting each composition down to its dangling-line counts reproduces
the closed-form product of :mod:`laddergraphs.ladder` term by term.  That
projection (:func:`project_sum`) is an algebra homomorphism and the bridge
between the two representations.  Formal sums of graphs (:class:`GraphSum`)
and the polynomials they project onto share one sparse linear-combination
core, :class:`~laddergraphs.scalars.LinearCombination`.  Their product forms
one coefficient per pair of terms and adds it to each of the pair's
compositions, which share one vertex tuple that hashes its vertices once.

:func:`normal_order_via_graphs`, the third normal-ordering route beside the
rewrite and the fold of :mod:`laddergraphs.ladder`, walks a word's
compositions depth first: no graph on the way is hashed or given a
coefficient.  It builds every prefix of the word up to the last letter, and
counts the compositions with the last letter by the size-``i`` terms of
:func:`count_matchings` instead of building them.

Port labels are assigned at vertex creation and never collide: the right
operand of a composition is embedded by shifting its labels up by the left
operand's port count.  The shift is order-preserving and additive, so label
assignment commutes with reassociating products and canonical encodings are
stable across runs with no global state.  Every port of a valid graph dangles
or ends one edge, so the shift takes constant time; the validation of outside
input, where that is in question, still counts ports vertex by vertex.

Validation happens where graphs enter the package.  The public
``DiagGraph(...)`` constructor, :func:`canonical_decode` and
:func:`graph_from_json` check every label, edge and dangling list and search
for cycles, under ``python -O`` too.  Graphs the package builds itself --
:func:`make_vertex`, :func:`void_graph` and every composition -- are valid by
construction (fresh labels, a shift that keeps the operands apart, new edges
only from ``g2`` into ``g1``) and skip the checks: the first two go through
the private ``DiagGraph._trusted``, and the assembly loop of compositions
fills the same four slots inline.  :func:`compose` and
:func:`enumerate_compositions` build graphs through that one assembly;
enumeration puts them in matching order by an order cached once per
gray/white shape.
"""

from __future__ import annotations

import re
from array import array
from collections import Counter
from functools import cache, cached_property
from itertools import chain, combinations, filterfalse, permutations, product, repeat
from math import comb, lcm, perm
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .ladder import Letter, NormalMonomial, NormalPolynomial, Word, _monomial
from .scalars import ONE, GaussianRational, LinearCombination, Record, ScalarLike, accumulate

Matching = tuple[tuple[int, int], ...]  # (gray in-port of g1, white out-port of g2) pairs
Picker = Callable[[tuple], tuple]


class Vertex(Record):
    """One vertex: ordered in-port labels and ordered out-port labels."""

    __slots__ = __match_args__ = ("in_ports", "out_ports")

    def __init__(self, in_ports: tuple[int, ...], out_ports: tuple[int, ...]):
        self._fill(in_ports, out_ports)

    def __hash__(self) -> int:
        return hash((self.in_ports, self.out_ports))


class DiagGraph(Record):
    """Immutable labeled graph; equality is labeled-structure equality.

    ``edges`` are (out-port, in-port) pairs, stored sorted.  ``dangling_in``
    and ``dangling_out`` list the unmatched in-ports (gray spots) and
    out-ports (white spots) in a significant order.

    Calling the class validates its arguments, the path for external input:
    it raises ``ValueError`` when the labels, edges or dangling lists do not
    form a valid acyclic graph.  The package's own constructions, valid by
    construction, use :meth:`_trusted` instead.
    """

    __slots__ = __match_args__ = ("vertices", "edges", "dangling_in", "dangling_out")

    def __init__(self, vertices: tuple[Vertex, ...] = (), edges: tuple[tuple[int, int], ...] = (),
                 dangling_in: tuple[int, ...] = (), dangling_out: tuple[int, ...] = ()):
        self._fill(vertices, edges, dangling_in, dangling_out)
        self.__post_init__()

    def __post_init__(self) -> None:
        # The constructor's validation hook; perfbench/tracing.py wraps it by name.
        self._validate()

    @classmethod
    def _trusted(cls, vertices, edges, dangling_in, dangling_out) -> "DiagGraph":
        """A graph from fields the caller guarantees valid; nothing is checked."""
        graph = _new(cls)
        _set_vertices(graph, vertices)
        _set_edges(graph, edges)
        _set_dangling_in(graph, dangling_in)
        _set_dangling_out(graph, dangling_out)
        return graph

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges, self.dangling_in, self.dangling_out))

    def __reduce__(self):
        return self.__class__, (tuple(self.vertices), self.edges, self.dangling_in, self.dangling_out)

    # -- structure ----------------------------------------------------------

    @property
    def port_count(self) -> int:
        return sum(len(v.in_ports) + len(v.out_ports) for v in self.vertices)

    def port_owners(self) -> tuple[dict[int, int], dict[int, int]]:
        """Maps in-port label -> vertex index and out-port label -> vertex index."""
        in_owner: dict[int, int] = {}
        out_owner: dict[int, int] = {}
        for idx, v in enumerate(self.vertices):
            for p in v.in_ports:
                in_owner[p] = idx
            for p in v.out_ports:
                out_owner[p] = idx
        return in_owner, out_owner

    def _validate(self) -> None:
        for name in self.__match_args__:
            _check_tuple(getattr(self, name), name)
        for v in self.vertices:
            if not isinstance(v, Vertex):
                raise ValueError(f"a vertex must be a Vertex, got {v!r}")
            _check_labels(_check_tuple(v.in_ports, "in_ports"))
            _check_labels(_check_tuple(v.out_ports, "out_ports"))
        for edge in self.edges:
            if len(_check_tuple(edge, "an edge")) != 2:
                raise ValueError(f"an edge is a pair of port labels, got {edge!r}")
            _check_labels(edge)
        _check_labels(self.dangling_in)
        _check_labels(self.dangling_out)
        in_owner, out_owner = self.port_owners()
        labels = sorted(in_owner) + sorted(out_owner)
        if len(labels) != self.port_count or sorted(labels) != list(range(len(labels))):
            raise ValueError("port labels must be distinct and form a contiguous 0..P-1 range")
        if list(self.edges) != sorted(self.edges):
            raise ValueError("edges must be stored in sorted order")
        used_out: set[int] = set()
        used_in: set[int] = set()
        for out_p, in_p in self.edges:
            if out_p not in out_owner or in_p not in in_owner:
                raise ValueError(f"edge ({out_p}, {in_p}) references unknown ports")
            if out_p in used_out or in_p in used_in:
                raise ValueError("a port may belong to at most one edge")
            used_out.add(out_p)
            used_in.add(in_p)
        if sorted(self.dangling_in) != sorted(set(in_owner) - used_in):
            raise ValueError("dangling_in must list exactly the unmatched in-ports")
        if sorted(self.dangling_out) != sorted(set(out_owner) - used_out):
            raise ValueError("dangling_out must list exactly the unmatched out-ports")
        if self.has_cycle():
            raise ValueError("graph contains a closed path")

    def has_cycle(self) -> bool:
        """Whether the vertex-level graph has a cycle, by Kahn's count of removable vertices."""
        in_owner, out_owner = self.port_owners()
        succ: list[list[int]] = [[] for _ in self.vertices]
        indegree = [0] * len(self.vertices)
        for out_p, in_p in self.edges:
            succ[out_owner[out_p]].append(in_owner[in_p])
            indegree[in_owner[in_p]] += 1
        removed = [v for v, d in enumerate(indegree) if not d]
        for v in removed:  # the list grows while it is walked
            for w in succ[v]:
                indegree[w] -= 1
                if not indegree[w]:
                    removed.append(w)
        return len(removed) < len(self.vertices)

    def __str__(self) -> str:
        return canonical_encode(self).decode("ascii")


_new = object.__new__
_set_vertices, _set_edges, _set_dangling_in, _set_dangling_out = (
    getattr(DiagGraph, name).__set__ for name in DiagGraph.__slots__)
_set_in_ports, _set_out_ports = (getattr(Vertex, name).__set__ for name in Vertex.__slots__)


class _Vertices(tuple):
    """The vertex tuple one operand pair's compositions share; it keeps its hash and is not pickled."""

    @cached_property
    def _hash(self) -> int:
        # A function, not ``tuple.__hash__`` itself: from Python 3.13,
        # cached_property reads ``__module__``, which a slot wrapper lacks.
        return tuple.__hash__(self)

    def __hash__(self) -> int:
        return self._hash


def _check_tuple(value, what: str) -> tuple:
    """Refuse a graph field that is not a tuple; return it unchanged."""
    if not isinstance(value, tuple):
        raise ValueError(f"{what} must be a tuple, got {value!r}")
    return value


def _check_labels(values) -> None:
    """Refuse any port label that is not an ``int``, or that is a ``bool``."""
    for value in values:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"port label must be an integer, got {value!r}")


def void_graph() -> DiagGraph:
    """The graph with no vertices and no lines; the multiplicative unit."""
    return DiagGraph._trusted((), (), (), ())


def make_vertex(r: int, s: int) -> DiagGraph:
    """A single vertex with ``r`` white out-lines and ``s`` gray in-lines.

    ``make_vertex(0, 0)`` is an isolated vertex, not the void graph.  Counts
    that are negative, or too large for a tuple to hold, raise ``ValueError``;
    any other float raises ``TypeError``, as in ``range``.
    """
    if r < 0 or s < 0:
        raise ValueError("line counts must be nonnegative")
    try:  # past about 2**60 ports, tuple() refuses before it allocates anything
        out_ports = tuple(range(r))
        in_ports = tuple(range(r, r + s))
    except (OverflowError, MemoryError):
        raise ValueError(f"line counts too large to build: ({r}, {s})") from None
    return DiagGraph._trusted(
        (Vertex(in_ports=in_ports, out_ports=out_ports),), (), in_ports, out_ports
    )


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def enumerate_matchings(grays: Iterable[int], whites: Iterable[int]) -> Iterator[Matching]:
    """All partial matchings between two port-label sets, in canonical order.

    Order: by matching size ascending, then lexicographically on the sorted
    tuple of (gray, white) pairs.  The empty matching always comes first.
    """
    gray_sorted = sorted(grays)
    white_sorted = sorted(whites)
    for size in range(min(len(gray_sorted), len(white_sorted)) + 1):
        bucket = [
            tuple(zip(gs, ws))
            for gs in combinations(gray_sorted, size)
            for ws in permutations(white_sorted, size)
        ]
        bucket.sort()
        yield from bucket


def count_matchings(n_gray: int, n_white: int) -> int:
    """Closed-form matching count: the sum over sizes of :func:`_matchings_of_size`.

    That is the sum of i! * C(n_gray, i) * C(n_white, i).  The size-``i``
    term is also the count by which :func:`normal_order_via_graphs` weighs
    the last letter's compositions with a prefix.  Counts are nonnegative
    ``int``s: a negative count raises ``ValueError``, as in
    :func:`make_vertex`, and any other float ``TypeError``, as in ``math.comb``.
    """
    if n_gray < 0 or n_white < 0:
        raise ValueError(f"spot counts must be nonnegative, got {(n_gray, n_white)}")
    return sum(_matchings_of_size(n_gray, n_white, i) for i in range(min(n_gray, n_white) + 1))


def _matchings_of_size(n_gray: int, n_white: int, size: int) -> int:
    """The partial matchings of ``size`` pairs: C(n_gray, size) * n_white! / (n_white - size)!."""
    return comb(n_gray, size) * perm(n_white, size)


def _shift_vertex(v: Vertex, offset: int) -> Vertex:
    vertex = _new(Vertex)
    _set_in_ports(vertex, tuple(map(offset.__add__, v.in_ports)))
    _set_out_ports(vertex, tuple(map(offset.__add__, v.out_ports)))
    return vertex


def _picker(indices) -> Picker:
    """``t -> tuple(t[i] for i in indices)``; ``tuple`` serves the ``()`` and ``(0,)`` used here."""
    return itemgetter(*indices) if len(indices) > 1 else tuple


def _pairing(perm: tuple[int, ...]) -> tuple[Picker, Picker]:
    """Two pickers for one way of joining ``n`` sorted grays to ``n`` sorted whites.

    ``perm[j]`` is the index of the white joined to gray ``j``.  The first
    picker takes ``grays + whites`` to the sort key of :func:`_bucket_order`,
    ``(gray 0, its white, gray 1, its white, ...)``.  The second takes the
    row-major table ``product(whites, grays)`` of candidate edges to the
    joined edges, sorted by white, that is by out-port.
    """
    n = len(perm)
    key = [index for gray, white in enumerate(perm) for index in (gray, n + white)]
    edges = sorted(white * n + gray for gray, white in enumerate(perm))
    return _picker(key), _picker(edges)


@cache  # a size's lists are never longer than the smallest bucket that asks for them
def _pairings(size: int) -> tuple[tuple[Picker, ...], tuple[Picker, ...]]:
    """Every :func:`_pairing` of ``size`` grays: the sort-key pickers, then the edge pickers."""
    keys, edges = zip(*map(_pairing, permutations(range(size))))
    return keys, edges


@cache  # 8 bytes per matching of each shape asked for
def _bucket_order(n_gray: int, n_white: int, size: int) -> memoryview:
    """Where one bucket's matchings sit in ``assemble``'s loop order, read-only.

    Loop order is gray combination, white combination, pairing; the positions
    come in :func:`enumerate_matchings` order.  Grays and whites are sorted,
    so labels compare as their positions do and the order depends on the
    shape alone.
    """
    keys = [key_of(grays + whites)
            for grays in combinations(range(n_gray), size)
            for whites in combinations(range(n_white), size)
            for key_of in _pairings(size)[0]]
    return memoryview(array("Q", sorted(range(len(keys)), key=keys.__getitem__))).toreadonly()


def _assembler(g1: DiagGraph, g2: DiagGraph) -> Callable[..., list[DiagGraph]]:
    """The compositions of ``g1`` with ``g2``, by gray and white combination.

    The per-pair work is done here, once: the shift, the shifted vertices and
    edges of ``g2`` and its shifted dangling ports.  The returned function
    takes gray combinations (sorted labels of ``g1``) and white combinations
    (sorted labels of ``g2``) of one size and applies every given edge
    picker of :func:`_pairing` to each gray/white pair of them.  It returns
    the compositions in that loop order.  The matchings must be valid
    (:func:`compose` checks a caller's); every result is then valid by
    construction and has its slots filled as ``DiagGraph._trusted`` would,
    inline, with no call per composition.  The shift is
    ``g1``'s port count in constant time: every port of a valid graph
    dangles or ends one edge.  ``_validate`` keeps the sum over vertices,
    as on outside input the formula would accept a label used twice in one
    vertex and listed once.
    """
    shift = len(g1.dangling_in) + len(g1.dangling_out) + 2 * len(g1.edges)
    vertices = _Vertices(g1.vertices + tuple(map(_shift_vertex, g2.vertices, repeat(shift))))
    # Every out-port of g1 is below ``shift``, so g1's sorted edges stay a
    # sorted prefix; only the edges leaving g2 are merged with the joined ones.
    g1_edges = g1.edges
    g2_edges = g2.edges
    if g2_edges:  # no letter and no one-vertex operand has any
        g2_edges = tuple([(out_p + shift, in_p + shift) for out_p, in_p in g2_edges])
    g1_grays, g1_whites = g1.dangling_in, g1.dangling_out
    g2_grays = tuple(map(shift.__add__, g2.dangling_in))
    g2_whites = tuple(map(shift.__add__, g2.dangling_out))

    def assemble(gray_combos, white_combos, edge_pickers) -> list[DiagGraph]:
        # Remaining spots once per combination, grays in g1.dangling_in's own order.
        by_white = []
        for whites in white_combos:
            shifted = tuple(map(shift.__add__, whites))
            rest = tuple(filterfalse(shifted.__contains__, g2_whites)) if whites else g2_whites
            by_white.append((shifted, g1_whites + rest))
        built = []
        append = built.append
        for grays in gray_combos:
            rest = tuple(filterfalse(grays.__contains__, g1_grays)) if grays else g1_grays
            dangling_in = rest + g2_grays
            for shifted, dangling_out in by_white:
                candidates = tuple(product(shifted, grays))
                for joined_of in edge_pickers:
                    joined = joined_of(candidates)
                    edges = g1_edges + (tuple(sorted(joined + g2_edges)) if g2_edges else joined)
                    graph = _new(DiagGraph)
                    _set_vertices(graph, vertices)
                    _set_edges(graph, edges)
                    _set_dangling_in(graph, dangling_in)
                    _set_dangling_out(graph, dangling_out)
                    append(graph)
        return built

    return assemble


def _composition_buckets(g1: DiagGraph, g2: DiagGraph) -> Iterator[list[DiagGraph]]:
    """:func:`enumerate_compositions`, one list per matching size.

    A bucket of two or more edges is put in matching order by its shape's
    :func:`_bucket_order`; smaller ones are built in that order.  Buckets
    differ in edge count, so no graph is in two of them.
    """
    assemble = _assembler(g1, g2)
    grays, whites = sorted(g1.dangling_in), sorted(g2.dangling_out)
    for size in range(min(len(grays), len(whites)) + 1):
        # The order first, so that its sort keys are gone before the bucket is built.
        order = _bucket_order(len(grays), len(whites), size) if size > 1 else None
        built = assemble(combinations(grays, size), combinations(whites, size), _pairings(size)[1])
        yield built if order is None else list(map(built.__getitem__, order))
        del built  # not held here while the next bucket is built


def compose(g1: DiagGraph, g2: DiagGraph, matching: Matching) -> DiagGraph:
    """One composition of ``g1`` with ``g2`` for a chosen partial matching.

    ``matching`` pairs dangling in-ports of ``g1`` with dangling out-ports of
    ``g2`` (labels as in the operands).  ``g2`` is embedded with its labels
    shifted by ``g1.port_count``; matched pairs become edges from ``g2`` into
    ``g1``.  Raises ``ValueError`` when a label is not an ``int`` or does
    not name an unmatched spot.
    """
    gray_set = set(g1.dangling_in)
    white_set = set(g2.dangling_out)
    partner: dict[int, int] = {}
    matched_white: set[int] = set()
    for gray, white in matching:
        _check_labels((gray, white))
        if gray not in gray_set or gray in partner:
            raise ValueError(f"invalid matching: {gray} is not an unmatched gray spot of the first graph")
        if white not in white_set or white in matched_white:
            raise ValueError(f"invalid matching: {white} is not an unmatched white spot of the second graph")
        partner[gray] = white
        matched_white.add(white)
    grays = tuple(sorted(partner))
    whites = tuple(sorted(matched_white))
    perm = tuple([whites.index(partner[gray]) for gray in grays])
    (graph,) = _assembler(g1, g2)((grays,), (whites,), (_pairing(perm)[1],))
    return graph


def enumerate_compositions(g1: DiagGraph, g2: DiagGraph) -> list[DiagGraph]:
    """All compositions of ``g1`` with ``g2``, one per partial matching.

    Output order follows :func:`enumerate_matchings`; the first entry is the
    disjoint union (empty matching).  All outputs are pairwise distinct as
    labeled graphs.
    """
    return list(chain.from_iterable(_composition_buckets(g1, g2)))


def _nth_matching(grays: Iterable[int], whites: Iterable[int], index: int) -> Matching:
    """The matching at ``index`` in :func:`enumerate_matchings` order, or ``ValueError``."""
    grays, whites = sorted(grays), sorted(whites)
    for size in range(min(len(grays), len(whites)) + 1):
        count = _matchings_of_size(len(grays), len(whites), size)
        if 0 <= index < count:
            break
        index -= count
    else:
        raise ValueError("matching index out of range")
    matching = []
    for left in reversed(range(size)):  # pairs still to choose after this one
        # The matchings whose next pair takes grays[0]: the other pairs take later grays.
        while index >= (block := comb(len(grays) - 1, left) * perm(len(whites), left + 1)):
            index -= block
            del grays[0]
        white, index = divmod(index, block // len(whites))
        matching.append((grays.pop(0), whites.pop(white)))
    return tuple(matching)


def build_iteratively(steps: Iterable[tuple[int, int, int]]) -> DiagGraph:
    """Fold one-vertex graphs onto the void graph by successive composition.

    Each step is ``(r, s, matching_index)`` where the index selects a partial
    matching between the accumulated graph's gray spots and the new vertex's
    white spots, in :func:`enumerate_matchings` order (0 = no joins).  A line
    count is checked by :func:`make_vertex`: a nonnegative float raises ``TypeError``.
    """
    acc = void_graph()
    for step_no, (r, s, matching_index) in enumerate(steps):
        vertex = make_vertex(r, s)
        total = count_matchings(len(acc.dangling_in), len(vertex.dangling_out))
        if not 0 <= matching_index < total:
            raise ValueError(
                f"step {step_no}: matching index {matching_index} out of range 0..{total - 1}"
            )
        chosen = _nth_matching(acc.dangling_in, vertex.dangling_out, matching_index)
        acc = compose(acc, vertex, chosen)
    return acc


# ---------------------------------------------------------------------------
# Formal sums of graphs
# ---------------------------------------------------------------------------

class GraphSum(LinearCombination):
    """Finitely supported sum of labeled graphs with exact coefficients.

    The sum structure is the shared
    :class:`~laddergraphs.scalars.LinearCombination` core; this class adds the
    graph basis, ordered by canonical encoding, and composition as product:
    each pair of terms adds its one coefficient product to each of its
    compositions.  Unhashable.
    """

    __slots__ = ()

    @staticmethod
    def _sort_key(graph: DiagGraph) -> bytes:
        return canonical_encode(graph)

    @classmethod
    def one(cls) -> "GraphSum":
        return cls.basis(void_graph())

    @classmethod
    def basis(cls, graph: DiagGraph, coeff: ScalarLike = ONE) -> "GraphSum":
        c = GaussianRational.coerce(coeff)
        return cls._raw({graph: c} if c else {})

    def __mul__(self, other: "GraphSum") -> "GraphSum":
        """Bilinear extension of composition enumeration; unit is the void graph."""
        if not isinstance(other, GraphSum):
            return NotImplemented
        acc: dict = {}
        for (g1, c1), (g2, c2) in product(self._terms.items(), other._terms.items()):
            c = c1 * c2
            if acc:  # compositions of different pairs can coincide and cancel
                for g in enumerate_compositions(g1, g2):
                    accumulate(acc, g, c)
            else:  # one pair's compositions are distinct, and nonzero terms have a nonzero product
                acc = dict.fromkeys(enumerate_compositions(g1, g2), c)
        return self._raw(acc)

    def __repr__(self) -> str:
        if not self._terms:
            return "GraphSum(0)"
        parts = ", ".join(f"{g}: {c}" for g, c in self.terms())
        return f"GraphSum({parts})"


# ---------------------------------------------------------------------------
# Forgetful projection
# ---------------------------------------------------------------------------

def project(g: DiagGraph) -> NormalMonomial:
    """Forget all inner structure: keep (white spot count, gray spot count)."""
    return _monomial(len(g.dangling_out), len(g.dangling_in))


def _shape(g: DiagGraph) -> tuple[int, int]:
    """:func:`project` as a plain ``(whites, grays)`` pair, the walk's tally key."""
    return len(g.dangling_out), len(g.dangling_in)


def project_sum(x: GraphSum) -> NormalPolynomial:
    """Linear extension of :func:`project`; an algebra homomorphism.

    One pass adds the coefficients per ``(whites, grays)`` as integer
    numerators over their common denominator; each nonzero sum is divided once.
    """
    coeffs = x._terms.values()
    den = lcm(*{c._re.denominator for c in coeffs}, *{c._im.denominator for c in coeffs})
    sums: dict = {}
    for g, c in x._terms.items():
        key = len(g.dangling_out), len(g.dangling_in)
        re, im = c._re, c._im
        if den != 1:
            re, im = re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)
        total = sums.get(key)
        if total is None:
            sums[key] = [re, im]
        else:
            total[0] += re
            total[1] += im
    return NormalPolynomial._from_numerators(
        den, [(key, re, im) for key, (re, im) in sums.items() if re or im])


# Each letter's vertex, built once at import: graphs are immutable.
_LETTER_VERTICES = {letter: make_vertex(letter.monomial.r, letter.monomial.s) for letter in Letter}


def normal_order_via_graphs(word: Word) -> NormalPolynomial:
    """Third normal-ordering route: compose one-vertex graphs, then project.

    A depth-first walk over an explicit stack of ``(graph, depth)``, with no
    recursion per letter, composes each prefix graph with the next letter's
    vertex, up to the prefixes of every letter but the last.  Those are
    tallied by ``(whites, grays)`` and not kept.  A prefix with ``w`` whites
    and ``g`` grays, joined by ``i`` edges to the last letter's vertex with
    ``r`` whites and ``s`` grays, gives :func:`_matchings_of_size` ``(g, r, i)``
    distinct compositions of shape ``(w + r - i, g - i + s)``, the size-``i``
    term of :func:`count_matchings`.  So the route stays independent of
    :mod:`laddergraphs.ladder`: every prefix is a labeled graph built by
    composition, and the last letter is counted by this module's own
    matching arithmetic.  A one-letter word builds its one composition.
    Labeled compositions are distinct, so each count is a coefficient.
    """
    vertices = list(map(_LETTER_VERTICES.__getitem__, word))
    if not vertices:  # the void graph alone, of shape (0, 0)
        return NormalPolynomial._from_numerators(1, [((0, 0), 1, 0)])
    last = len(vertices) - 1
    tallied = max(last - 1, 0)  # the depth whose compositions are counted, not pushed
    shapes = Counter()
    stack = [(void_graph(), 0)]
    while stack:
        graph, depth = stack.pop()
        buckets = _composition_buckets(graph, vertices[depth])
        if depth < tallied:
            for bucket in buckets:
                stack += zip(bucket, repeat(depth + 1))
        else:
            for bucket in buckets:
                shapes.update(map(_shape, bucket))
    if last:
        prefixes, shapes = shapes, Counter()
        r, s = _shape(vertices[last])
        for (w, g), n in prefixes.items():
            for i in range(min(g, r) + 1):
                shapes[w + r - i, g - i + s] += n * _matchings_of_size(g, r, i)
    return NormalPolynomial._from_numerators(1, [(key, n, 0) for key, n in shapes.items()])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_canonical_label = re.compile(r"0|[1-9][0-9]*").fullmatch


def _decode_label(text: str) -> int:
    """A port label of the canonical encoding: digits only, no leading zero."""
    if not _canonical_label(text):
        raise ValueError(f"malformed port label {text!r} in graph encoding")
    return int(text)


def _json_labels(values) -> tuple[int, ...]:
    """A JSON list of port labels; :class:`DiagGraph` checks each label."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"expected a list of port labels, got {values!r}")
    return tuple(values)


def canonical_encode(g: DiagGraph) -> bytes:
    """Injective, run-stable byte encoding of a labeled graph.

    Layout: ``V:<out>/<in>;...|E:<out>><in>,...|I:...|O:...`` with decimal
    port labels.  The void graph encodes as ``V:|E:|I:|O:``.
    """
    vertices = ";".join(
        ",".join(map(str, v.out_ports)) + "/" + ",".join(map(str, v.in_ports))
        for v in g.vertices
    )
    edges = ",".join(f"{o}>{i}" for o, i in g.edges)
    gray = ",".join(map(str, g.dangling_in))
    white = ",".join(map(str, g.dangling_out))
    return f"V:{vertices}|E:{edges}|I:{gray}|O:{white}".encode("ascii")


def canonical_decode(data: bytes) -> DiagGraph:
    """Inverse of :func:`canonical_encode`; validates the decoded structure.

    Only the exact output of :func:`canonical_encode` is accepted: labels are
    unsigned decimals without leading zeros, and every separator is present,
    so each graph has exactly one encoding.
    """
    text = data.decode("ascii")
    fields = text.split("|")
    if len(fields) != 4 or [f[:2] for f in fields] != ["V:", "E:", "I:", "O:"]:
        raise ValueError(f"malformed graph encoding: {text!r}")
    v_part, e_part, i_part, o_part = (f[2:] for f in fields)

    def pair(chunk: str, sep: str) -> tuple[str, str]:
        left, found, right = chunk.partition(sep)
        if not found:
            raise ValueError(f"missing {sep!r} in graph encoding chunk {chunk!r}")
        return left, right

    def int_list(chunk: str) -> tuple[int, ...]:
        return tuple(map(_decode_label, chunk.split(","))) if chunk else ()

    vertices = []
    if v_part:
        for vtx in v_part.split(";"):
            out_s, in_s = pair(vtx, "/")
            vertices.append(Vertex(in_ports=int_list(in_s), out_ports=int_list(out_s)))
    edges = []
    if e_part:
        for e in e_part.split(","):
            out_s, in_s = pair(e, ">")
            edges.append((_decode_label(out_s), _decode_label(in_s)))
    return DiagGraph(
        vertices=tuple(vertices),
        edges=tuple(edges),
        dangling_in=int_list(i_part),
        dangling_out=int_list(o_part),
    )


def graph_to_json(g: DiagGraph) -> dict:
    """JSON object mirroring the graph fields with explicit port labels."""
    return {
        "vertices": [{"out": list(v.out_ports), "in": list(v.in_ports)} for v in g.vertices],
        "edges": [list(e) for e in g.edges],
        "dangling_in": list(g.dangling_in),
        "dangling_out": list(g.dangling_out),
    }


def graph_from_json(obj: dict) -> DiagGraph:
    """Inverse of :func:`graph_to_json`; raises only ``ValueError`` on bad input.

    Port labels must be JSON integers; floats and booleans are refused, so
    every accepted graph also round-trips through :func:`canonical_encode`.
    """
    try:
        return DiagGraph(
            vertices=tuple(
                Vertex(in_ports=_json_labels(v["in"]), out_ports=_json_labels(v["out"]))
                for v in obj["vertices"]
            ),
            edges=tuple(map(_json_labels, obj["edges"])),
            dangling_in=_json_labels(obj["dangling_in"]),
            dangling_out=_json_labels(obj["dangling_out"]),
        )
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed graph record: {exc}") from exc


def graph_to_dot(g: DiagGraph, name: str = "composition") -> str:
    """Graphviz DOT rendering: black vertex dots, gray/white terminal spots.

    Ingoing lines run from their gray spot into the vertex; outgoing lines run
    from the vertex to their white spot; internal lines run between vertices
    and are labeled with their (out-port, in-port) pair.
    """
    in_owner, out_owner = g.port_owners()
    lines = [
        f"digraph {name} {{",
        "  rankdir=BT;",
        '  node [shape=circle, fontsize=10];',
    ]
    for idx in range(len(g.vertices)):
        lines.append(f'  v{idx} [label="", style=filled, fillcolor=black, width=0.2];')
    for p in g.dangling_in:
        lines.append(f'  gray{p} [label="{p}", style=filled, fillcolor=gray, width=0.15];')
    for p in g.dangling_out:
        lines.append(f'  white{p} [label="{p}", style=filled, fillcolor=white, width=0.15];')
    for out_p, in_p in g.edges:
        lines.append(f'  v{out_owner[out_p]} -> v{in_owner[in_p]} [label="{out_p}>{in_p}"];')
    for p in g.dangling_in:
        lines.append(f"  gray{p} -> v{in_owner[p]};")
    for p in g.dangling_out:
        lines.append(f"  v{out_owner[p]} -> white{p};")
    lines.append("}")
    return "\n".join(lines) + "\n"
