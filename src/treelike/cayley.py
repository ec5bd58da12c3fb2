"""Cayley graphs of finite A-generated groups and their subgraphs.

The Cayley graph of G has the elements as vertices and one positive edge
(g, a) from g to g*a per element and base letter; inverse edges are
implicit.  Subgraphs are value objects holding a vertex set and a set of
positive edges over a fixed group.

This module holds the signed walk of a word, which path spans, kernel
rewriting and cocycles read, and the one search of a Cayley graph: a
breadth-first search of Gamma(H) over its step tables through the edges
whose integer keys lie in a set, one set lookup per edge (its parent map
is read by `words.path_label`).  Edge keys have one layout, kept in
`groups` with each group's crossed-edge table `FinGroup.edge_rows()`,
which keys the edge that each signed letter crosses from each id.
Components and the two-edge connectivity check search G through G's
own table; a lift to H ->> G through H's rows keyed by the images of
their edges in G (`constellations.Dissolver`).  It also computes path
spans (over any group-like object with n_letters and step, unenumerated
extension levels included), the covering subgraph of a folded
basepointed graph (the part of the Cayley graph swept out by paths from
1 whose labels are readable in the given graph from its basepoint, found
by `stallings.breadth_first` over the product of the two graphs),
border edge sets of a vertex set, and whether the Cayley graph stays
connected after deleting two edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (AbstractSet, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from .groups import FinGroup, _edge_keys
from .stallings import LabeledGraph, breadth_first, transition_maps

Edge = Tuple[int, int]                  # (element id, base letter)
TraversalCount = Dict[Edge, int]        # signed traversal counts


@dataclass(frozen=True)
class CayleySubgraph:
    """Subgraph of the Cayley graph of `group`: vertices (element ids,
    or the elements of an unenumerated level) plus positive edges
    (g, a); both endpoints of every edge are vertices."""

    group: FinGroup
    vertices: frozenset
    pos_edges: frozenset

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        object.__setattr__(self, "pos_edges", frozenset(self.pos_edges))
        for g, a in self.pos_edges:
            if g not in self.vertices or self.group.step(g, a) not in self.vertices:
                raise ValueError("edge (%r, %d) has an endpoint outside the "
                                 "vertex set" % (g, a))

    def dst(self, e: Edge) -> int:
        return self.group.step(e[0], e[1])

    def __contains__(self, e: Edge) -> bool:
        return e in self.pos_edges


def cayley_graph(G: FinGroup) -> CayleySubgraph:
    """The full Cayley graph: |G| vertices, |G|*|A| positive edges."""
    return CayleySubgraph(G, range(G.order()), {
        (g, a) for g in range(G.order()) for a in range(1, G.n_letters + 1)})


def walk(G, start, w: Sequence[int]) -> Iterator[Tuple[tuple, int, object]]:
    """The signed Cayley walk of w from start: per letter, the crossed
    positive edge, its sign (+1 forward, -1 backward) and the vertex
    reached.  G is any group-like object with n_letters and step."""
    n = G.n_letters
    cur = start
    for x in w:
        if not 0 < abs(x) <= n:
            raise ValueError("letter %r outside alphabet" % (x,))
        nxt = G.step(cur, x)
        yield ((cur, x), 1, nxt) if x > 0 else ((nxt, -x), -1, nxt)
        cur = nxt


def path_span(G, start, w: Sequence[int]
              ) -> Tuple[CayleySubgraph, object, TraversalCount]:
    """Walk w from start: the subgraph spanned by the traversed edges,
    the endpoint, and per-edge signed traversal counts, all read off
    `walk`, so G is any group-like object with n_letters and step."""
    counts: TraversalCount = {}
    vertices = {start}
    end = start
    for e, sign, end in walk(G, start, w):
        counts[e] = counts.get(e, 0) + sign
        vertices.add(end)
    return (CayleySubgraph(G, frozenset(vertices), frozenset(counts)),
            end, counts)


def covering_subgraph(A: LabeledGraph, G: FinGroup) -> CayleySubgraph:
    """Subgraph of the Cayley graph spanned by all edges lying on some
    path from 1 whose label is readable in A from its basepoint.

    Computed as the projection of the product graph A x Gamma(G)
    restricted to the states reachable from (basepoint, 1): a Cayley
    edge belongs to the span iff some reachable product state traverses
    it.  Always connected and contains 1.
    """
    if A.basepoint is None:
        raise ValueError("covering subgraph needs a basepointed graph")
    if A.n_letters != G.n_letters:
        raise ValueError("alphabet sizes differ")
    t = transition_maps(A)
    signed = [x for a in range(1, A.n_letters + 1) for x in (a, -a)]
    reached = breadth_first(
        [(A.basepoint, 0)],
        lambda s: [((t[(s[0], x)], G.step(s[1], x)), x)
                   for x in signed if (s[0], x) in t])
    # each traversed Cayley edge is crossed forward from some reached state
    edges = {(g, a) for p, g in reached for a in range(1, A.n_letters + 1)
             if (p, a) in t}
    return CayleySubgraph(G, frozenset(g for _, g in reached),
                          frozenset(edges))


def search(H: FinGroup, root: int, keys: AbstractSet[int], rows: list
           ) -> Dict[int, Optional[tuple]]:
    """FIFO breadth-first search of the Cayley graph of H from root
    through the edges whose keys lie in keys: the parent map {v: (u, x)}
    with step(u, x) = v, in discovery order, None at the root.  rows
    holds (x, row, key) per row of H in the order 1, -1, 2, -2, ...,
    row[u] the vertex that x reaches from u and key[u] the key of the
    edge it crosses; only edges to unseen vertices are looked up in
    keys.  With H's own `edge_rows()` it is the component of root in a
    subgraph; a lift passes rows whose keys are those of the images in
    its quotient."""
    # not breadth_first: looking up only edges to unseen vertices is fast
    parent: Dict[int, Optional[tuple]] = {root: None}
    queue = [root]
    for u in queue:
        for x, row, key in rows:
            if (v := row[u]) not in parent and key[u] in keys:
                parent[v] = (u, x)
                queue.append(v)
    return parent


def components(X: CayleySubgraph) -> List[frozenset]:
    """Connected components (undirected over included edges); isolated
    vertices are singletons.  Sorted by smallest member."""
    comps: List[frozenset] = []
    for v in sorted(X.vertices):
        if not any(v in c for c in comps):
            comps.append(component_of(X, v))
    return comps


def component_of(X: CayleySubgraph, v: int) -> frozenset:
    """The component of v in X."""
    if v not in X.vertices:
        raise ValueError("vertex %r not in subgraph" % (v,))
    G = X.group
    return frozenset(search(G, v, _edge_keys(G.n_letters, X.pos_edges),
                            G.edge_rows()))


def intersect(X: CayleySubgraph, Y: CayleySubgraph) -> CayleySubgraph:
    if X.group is not Y.group:
        raise ValueError("subgraphs live over different groups")
    return CayleySubgraph(X.group, X.vertices & Y.vertices,
                          X.pos_edges & Y.pos_edges)


def union(X: CayleySubgraph, Y: CayleySubgraph) -> CayleySubgraph:
    if X.group is not Y.group:
        raise ValueError("subgraphs live over different groups")
    return CayleySubgraph(X.group, X.vertices | Y.vertices,
                          X.pos_edges | Y.pos_edges)


def translate(g: int, X: CayleySubgraph) -> CayleySubgraph:
    """Left translation g*X: vertex x -> g*x, edge (x, a) -> (g*x, a)."""
    G = X.group
    return CayleySubgraph(G,
                          frozenset(G.mul_ids(g, v) for v in X.vertices),
                          frozenset((G.mul_ids(g, x), a) for x, a in X.pos_edges))


def borders(X: CayleySubgraph, Z: Iterable[int]
            ) -> Tuple[frozenset, frozenset]:
    """(D, C): positive edges of X leaving Z (source in Z, target out)
    and entering Z (source out, target in).  Loops at Z never appear."""
    zset = set(Z)
    if not zset <= set(X.vertices):
        raise ValueError("Z must be a subset of the vertices of X")
    D, C = set(), set()
    for e in X.pos_edges:
        s_in = e[0] in zset
        t_in = X.dst(e) in zset
        if s_in and not t_in:
            D.add(e)
        elif t_in and not s_in:
            C.add(e)
    return frozenset(D), frozenset(C)


def connected_without_two_edges(G: FinGroup, e: Edge, f: Edge) -> bool:
    """Whether the Cayley graph stays connected after deleting the
    inverse-closed pairs of two distinct positive edges.  Requires the
    separated generation property (>= 2 letters, distinct nonidentity
    images), under which this always holds.  Refuses e or f that is not
    a positive edge."""
    if not G.separated():
        raise ValueError("group does not satisfy the separated generation "
                         "property")
    _check_edge_pair(G, e, f)
    n = G.order()
    keys = set(range(n * G.n_letters)) - _edge_keys(G.n_letters, (e, f))
    return len(search(G, 0, keys, G.edge_rows())) == n


def _check_edge_pair(G: FinGroup, e: Optional[Edge], f: Optional[Edge]):
    """Refuse e and f unless each is None or a positive edge (g, a) of
    the Cayley graph of G, and the two are distinct where given."""
    if e is not None and e == f:
        raise ValueError("edges must be distinct")
    for g, a in filter(None, (e, f)):
        if not (0 <= g < G.order() and 0 < a <= G.n_letters):
            raise ValueError("%r is not a positive edge of the Cayley "
                             "graph" % ((g, a),))


def subgraph_to_dot(X: CayleySubgraph, name: str = "X",
                    z: Optional[Iterable[int]] = None,
                    d_edges: Optional[Iterable[Edge]] = None,
                    c_edges: Optional[Iterable[Edge]] = None) -> str:
    """DOT rendering with an optional highlighted vertex class Z and
    border edge classes D (leaving) and C (entering)."""
    zset = set(z or ())
    dset = set(d_edges or ())
    cset = set(c_edges or ())
    names = X.group.alphabet
    lines = ["digraph %s {" % name]
    for v in sorted(X.vertices):
        style = ' [style=filled, fillcolor=lightblue]' if v in zset else ""
        lines.append('  "%d"%s;' % (v, style))
    for edge in sorted(X.pos_edges):
        g, a = edge
        color = ""
        if edge in dset:
            color = ', color=red'
        elif edge in cset:
            color = ', color=blue'
        lines.append('  "%d" -> "%d" [label="%s"%s];'
                     % (g, X.dst(edge), names[a - 1], color))
    lines.append("}")
    return "\n".join(lines)
