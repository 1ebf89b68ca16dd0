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
core, :class:`~laddergraphs.scalars.LinearCombination`.

Port labels are assigned at vertex creation and never collide: the right
operand of a composition is embedded by shifting its labels up by the left
operand's port count.  The shift is order-preserving and additive, so label
assignment commutes with reassociating products and canonical encodings are
stable across runs with no global state.

Validation happens where graphs enter the package.  The public
``DiagGraph(...)`` constructor, :func:`canonical_decode` and
:func:`graph_from_json` check every label, edge and dangling list and search
for cycles, under ``python -O`` too.  Graphs the package builds itself --
:func:`make_vertex`, :func:`void_graph` and every composition -- are valid by
construction (fresh labels, a shift that keeps the operands apart, new edges
only from ``g2`` into ``g1``) and go through the private
``DiagGraph._trusted``, which skips the checks.  Composition does its
per-operand-pair work (the shift and the embedded copy of ``g2``) once per
pair, not once per matching.
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import combinations, islice, permutations, repeat
from math import comb, factorial
from operator import mul
from typing import Callable, Iterable, Iterator

from .ladder import NormalMonomial, NormalPolynomial, Word
from .scalars import ONE, LinearCombination, Record, ScalarLike

Matching = tuple[tuple[int, int], ...]  # (gray in-port of g1, white out-port of g2) pairs


class Vertex(Record):
    """One vertex: ordered in-port labels and ordered out-port labels."""

    __slots__ = __match_args__ = ("in_ports", "out_ports")

    def __init__(self, in_ports: tuple[int, ...], out_ports: tuple[int, ...]):
        self._fill(in_ports, out_ports)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.in_ports == other.in_ports and self.out_ports == other.out_ports

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
    construction, use :meth:`_trusted` instead.  The hash is cached on first
    use in ``_hash``, a slot that is not a field.
    """

    __slots__ = ("vertices", "edges", "dangling_in", "dangling_out", "_hash")
    __match_args__ = ("vertices", "edges", "dangling_in", "dangling_out")

    def __init__(self, vertices: tuple[Vertex, ...] = (), edges: tuple[tuple[int, int], ...] = (),
                 dangling_in: tuple[int, ...] = (), dangling_out: tuple[int, ...] = ()):
        self._fill(vertices, edges, dangling_in, dangling_out)
        _set_hash(self, None)
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
        _set_hash(graph, None)
        return graph

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertices, self.edges, self.dangling_in, self.dangling_out) == (
            other.vertices, other.edges, other.dangling_in, other.dangling_out)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.vertices, self.edges, self.dangling_in, self.dangling_out))
            _set_hash(self, h)
        return h

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
        """Explicit cycle search over the vertex-level directed graph."""
        in_owner, out_owner = self.port_owners()
        succ: dict[int, set[int]] = {i: set() for i in range(len(self.vertices))}
        for out_p, in_p in self.edges:
            succ[out_owner[out_p]].add(in_owner[in_p])
        # Iterative three-color depth-first search.
        WHITE, GRAY, BLACK = 0, 1, 2
        color = dict.fromkeys(succ, WHITE)
        for start in succ:
            if color[start] != WHITE:
                continue
            stack: list[tuple[int, Iterator[int]]] = [(start, iter(succ[start]))]
            color[start] = GRAY
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == GRAY:
                        return True
                    if color[nxt] == WHITE:
                        color[nxt] = GRAY
                        stack.append((nxt, iter(succ[nxt])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return False

    def __str__(self) -> str:
        return canonical_encode(self).decode("ascii")


_new = object.__new__
_set_vertices, _set_edges, _set_dangling_in, _set_dangling_out, _set_hash = (
    getattr(DiagGraph, name).__set__ for name in DiagGraph.__slots__)


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

    ``make_vertex(0, 0)`` is an isolated vertex, not the void graph.
    """
    if r < 0 or s < 0:
        raise ValueError("line counts must be nonnegative")
    out_ports = tuple(range(r))
    in_ports = tuple(range(r, r + s))
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
    """Closed-form matching count: sum of i! * C(n_gray, i) * C(n_white, i)."""
    return sum(
        factorial(i) * comb(n_gray, i) * comb(n_white, i)
        for i in range(min(n_gray, n_white) + 1)
    )


def _shift_vertex(v: Vertex, offset: int) -> Vertex:
    return Vertex(
        in_ports=tuple(p + offset for p in v.in_ports),
        out_ports=tuple(p + offset for p in v.out_ports),
    )


def _composer(g1: DiagGraph, g2: DiagGraph) -> Callable[[Matching], DiagGraph]:
    """The compositions of ``g1`` with ``g2`` as a function of the matching.

    The per-pair work is done here, once: the shift, the shifted vertices and
    edges of ``g2`` and its shifted dangling ports.  Each call then adds one
    edge per matched pair and drops the matched spots.  The matching must be
    valid (:func:`compose` checks a caller's); the result is then valid by
    construction and built with ``DiagGraph._trusted``.
    """
    shift = g1.port_count
    vertices = g1.vertices + tuple(_shift_vertex(v, shift) for v in g2.vertices)
    # Every out-port of g1 is below ``shift``, so g1's sorted edges stay a
    # sorted prefix and only the edges leaving g2 need sorting.
    g1_edges = g1.edges
    g2_edges = [(out_p + shift, in_p + shift) for out_p, in_p in g2.edges]
    g1_grays, g1_whites = g1.dangling_in, g1.dangling_out
    g2_grays = tuple(p + shift for p in g2.dangling_in)
    g2_whites = tuple(p + shift for p in g2.dangling_out)
    trusted = DiagGraph._trusted

    def build(matching: Matching) -> DiagGraph:
        joined = [(white + shift, gray) for gray, white in matching]
        matched_gray = {gray for _, gray in joined}
        matched_white = {white for white, _ in joined}
        return trusted(
            vertices,
            g1_edges + tuple(sorted(g2_edges + joined)),
            tuple([p for p in g1_grays if p not in matched_gray]) + g2_grays,
            g1_whites + tuple([p for p in g2_whites if p not in matched_white]),
        )

    return build


def compose(g1: DiagGraph, g2: DiagGraph, matching: Matching) -> DiagGraph:
    """One composition of ``g1`` with ``g2`` for a chosen partial matching.

    ``matching`` pairs dangling in-ports of ``g1`` with dangling out-ports of
    ``g2`` (labels as in the operands).  ``g2`` is embedded with its labels
    shifted by ``g1.port_count``; matched pairs become edges from ``g2`` into
    ``g1``.
    """
    gray_set = set(g1.dangling_in)
    white_set = set(g2.dangling_out)
    matched_gray: set[int] = set()
    matched_white: set[int] = set()
    for gray, white in matching:
        if gray not in gray_set or gray in matched_gray:
            raise ValueError(f"invalid matching: {gray} is not an unmatched gray spot of the first graph")
        if white not in white_set or white in matched_white:
            raise ValueError(f"invalid matching: {white} is not an unmatched white spot of the second graph")
        matched_gray.add(gray)
        matched_white.add(white)
    return _composer(g1, g2)(matching)


def enumerate_compositions(g1: DiagGraph, g2: DiagGraph) -> list[DiagGraph]:
    """All compositions of ``g1`` with ``g2``, one per partial matching.

    Output order follows :func:`enumerate_matchings`; the first entry is the
    disjoint union (empty matching).  All outputs are pairwise distinct as
    labeled graphs.
    """
    return list(map(_composer(g1, g2), enumerate_matchings(g1.dangling_in, g2.dangling_out)))


def build_iteratively(steps: Iterable[tuple[int, int, int]]) -> DiagGraph:
    """Fold one-vertex graphs onto the void graph by successive composition.

    Each step is ``(r, s, matching_index)`` where the index selects a partial
    matching between the accumulated graph's gray spots and the new vertex's
    white spots, in :func:`enumerate_matchings` order (0 = no joins).
    """
    acc = void_graph()
    for step_no, (r, s, matching_index) in enumerate(steps):
        vertex = make_vertex(r, s)
        total = count_matchings(len(acc.dangling_in), len(vertex.dangling_out))
        if not 0 <= matching_index < total:
            raise ValueError(
                f"step {step_no}: matching index {matching_index} out of range 0..{total - 1}"
            )
        matchings = enumerate_matchings(acc.dangling_in, vertex.dangling_out)
        chosen = next(islice(matchings, matching_index, None))
        acc = compose(acc, vertex, chosen)
    return acc


# ---------------------------------------------------------------------------
# Formal sums of graphs
# ---------------------------------------------------------------------------

def _weighted_compositions(g1: DiagGraph, g2: DiagGraph) -> Iterator[tuple[DiagGraph, int]]:
    """Every composition of ``g1`` with ``g2``, each at weight 1."""
    return zip(enumerate_compositions(g1, g2), repeat(1))


class GraphSum(LinearCombination):
    """Finitely supported sum of labeled graphs with exact coefficients.

    The sum structure is the shared
    :class:`~laddergraphs.scalars.LinearCombination` core; this class adds the
    graph basis, ordered by canonical encoding, and composition as product.
    Unhashable.
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
        return cls([(graph, coeff)])

    def __mul__(self, other: "GraphSum") -> "GraphSum":
        """Bilinear extension of composition enumeration; unit is the void graph."""
        if not isinstance(other, GraphSum):
            return NotImplemented
        return self._product(other, _weighted_compositions)

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
    return NormalMonomial(len(g.dangling_out), len(g.dangling_in))


def project_sum(x: GraphSum) -> NormalPolynomial:
    """Linear extension of :func:`project`; an algebra homomorphism."""
    return NormalPolynomial((project(g), c) for g, c in x._terms.items())


def normal_order_via_graphs(word: Word) -> NormalPolynomial:
    """Third normal-ordering route: compose one-vertex graphs, then project."""
    vertices = (make_vertex(letter.monomial.r, letter.monomial.s) for letter in word)
    return project_sum(reduce(mul, map(GraphSum.basis, vertices), GraphSum.one()))


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
