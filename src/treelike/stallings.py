"""Folded labelled graphs over a finite alphabet.

Graphs follow the one-edge-per-inverse-pair convention: only positively
labelled edges are stored, and each (src, a, dst) implicitly carries the
reverse a-inverse edge.  A graph is folded when, at every vertex, each
letter labels at most one outgoing and at most one incoming positive
edge; it is complete when exactly one of each, i.e. every letter acts as
a permutation of the vertices.

The functions here build Stallings graphs of finitely generated
subgroups of a free group (bouquet -> fold -> core), decide membership
by path reading, construct Schreier graphs of subgroups of finite
quotients, and extract the transition group of a complete graph.  It
also holds the one breadth-first search over caller-given moves, which
connectivity, subgroup bases, covering subgraphs and the product
automaton run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from .groups import FinGroup
from .words import DEFAULT_ALPHABET, Word, is_reduced


def _sorted(values):
    """Deterministic order for possibly mixed-type vertex ids."""
    try:
        return sorted(values)
    except TypeError:
        return sorted(values, key=repr)


@dataclass(frozen=True)
class LabeledGraph:
    """Immutable labelled graph value.

    vertices: hashable ids; pos_edges: triples (src, label, dst) with
    label a 1-based letter index; basepoint: a vertex or None.
    """

    vertices: frozenset
    pos_edges: frozenset
    basepoint: object = None
    alphabet: tuple = field(default=DEFAULT_ALPHABET[:2])

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        object.__setattr__(self, "pos_edges", frozenset(self.pos_edges))
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        for s, a, d in self.pos_edges:
            if not 1 <= a <= len(self.alphabet):
                raise ValueError("edge label %r outside alphabet of size %d"
                                 % (a, len(self.alphabet)))
            if s not in self.vertices or d not in self.vertices:
                raise ValueError("edge (%r, %r, %r) has endpoint outside vertex set"
                                 % (s, a, d))
        if self.basepoint is not None and self.basepoint not in self.vertices:
            raise ValueError("basepoint %r not a vertex" % (self.basepoint,))

    @property
    def n_letters(self) -> int:
        return len(self.alphabet)

    def degree(self, v) -> int:
        return sum((s == v) + (d == v) for s, _, d in self.pos_edges)


def transition_maps(g: LabeledGraph) -> dict:
    """The signed transition map: t[(v, a)] = w and t[(w, -a)] = v per
    positive a-edge v -> w, so t[(v, x)] is the end of the x-edge at v
    for every signed letter x.  Requires g folded (raises otherwise)."""
    t = {}
    for s, a, d in g.pos_edges:
        if (s, a) in t or (d, -a) in t:
            raise ValueError("graph is not folded at letter %r" % (a,))
        t[(s, a)] = d
        t[(d, -a)] = s
    return t


def is_folded(g: LabeledGraph) -> bool:
    try:
        transition_maps(g)
    except ValueError:
        return False
    return True


def is_complete(g: LabeledGraph) -> bool:
    if not is_folded(g):
        return False
    return all(g.degree(v) == 2 * g.n_letters for v in g.vertices)


def breadth_first(roots, moves) -> dict:
    """FIFO breadth-first search from roots: the parent map {v: (u,
    label)} in discovery order, None at each root.  moves(u) yields the
    (v, label) pairs leaving u in the order they are tried; moves to
    vertices already seen are ignored."""
    parent = dict.fromkeys(roots)
    queue = list(parent)
    for u in queue:
        for v, label in moves(u):
            if v not in parent:
                parent[v] = (u, label)
                queue.append(v)
    return parent


def is_connected(g: LabeledGraph) -> bool:
    if not g.vertices:
        return True
    adj = {v: [] for v in g.vertices}
    for s, a, d in g.pos_edges:
        adj[s].append((d, a))
        adj[d].append((s, -a))
    root = next(iter(g.vertices)) if g.basepoint is None else g.basepoint
    return len(breadth_first([root], adj.__getitem__)) == len(g.vertices)


def bouquet(generators: Sequence[Word], alphabet: Sequence[str] = ()) -> LabeledGraph:
    """Wedge of loops at a fresh basepoint 0, one subdivided loop reading
    each generator.  Unfolded in general."""
    if not generators:
        raise ValueError("need at least one generator word")
    width = max((max(abs(x) for x in w) for w in generators if w), default=0)
    if not alphabet:
        alphabet = DEFAULT_ALPHABET[:max(width, 2)]
    vertices = {0}
    edges = set()
    nxt = 1
    for w in generators:
        if not w:
            raise ValueError("empty generator word")
        if not is_reduced(w):
            raise ValueError("generator word %r is not reduced" % (w,))
        cur = 0
        for k, x in enumerate(w):
            end = 0 if k == len(w) - 1 else nxt
            if end == nxt:
                vertices.add(nxt)
                nxt += 1
            if x > 0:
                edges.add((cur, x, end))
            else:
                edges.add((end, -x, cur))
            cur = end
    return LabeledGraph(vertices, edges, basepoint=0, alphabet=alphabet)


def fold(g: LabeledGraph) -> LabeledGraph:
    """Identification quotient: merge targets (sources) of equally
    labelled edges leaving (entering) one vertex, to a fixpoint.  The
    result is folded and reads the same language at the basepoint.

    Iterated union-find passes over the edge list; each pass either
    merges some classes or terminates, so at most |V| passes run.
    """
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    changed = True
    while changed:
        changed = False
        t = {}
        for s, a, d in g.pos_edges:
            rs, rd = find(s), find(d)
            for v, x, u in ((rs, a, rd), (rd, -a, rs)):
                prev = t.get((v, x))
                if prev is not None and find(prev) != u:
                    parent[find(prev)] = u
                    changed = True
                else:
                    t[(v, x)] = u
    edges = {(find(s), a, find(d)) for s, a, d in g.pos_edges}
    vertices = {find(v) for v in g.vertices}
    base = None if g.basepoint is None else find(g.basepoint)
    return LabeledGraph(vertices, edges, basepoint=base, alphabet=g.alphabet)


def core(g: LabeledGraph) -> LabeledGraph:
    """Iteratively strip non-basepoint vertices of degree 1.  Keeps the
    language at the basepoint; idempotent."""
    if g.basepoint is None:
        raise ValueError("core needs a basepoint")
    vertices = set(g.vertices)
    edges = set(g.pos_edges)
    while True:
        deg = {v: 0 for v in vertices}
        for s, _, d in edges:
            deg[s] += 1
            deg[d] += 1
        spurs = {v for v, k in deg.items() if k == 1 and v != g.basepoint}
        if not spurs:
            break
        vertices -= spurs
        edges = {(s, a, d) for s, a, d in edges
                 if s not in spurs and d not in spurs}
    return LabeledGraph(vertices, edges, basepoint=g.basepoint, alphabet=g.alphabet)


def stallings_graph(generators: Sequence[Word],
                    alphabet: Sequence[str] = ()) -> LabeledGraph:
    """Core of the folded bouquet: the Stallings graph of the subgroup
    generated by the given reduced words."""
    return core(fold(bouquet(generators, alphabet)))


def read_word(g: LabeledGraph, start, w: Sequence[int]):
    """Endpoint of the unique path labelled w from start, or None if w is
    not readable.  Requires g folded."""
    t = transition_maps(g)
    cur = start
    for x in w:
        cur = t.get((cur, x))
        if cur is None:
            return None
    return cur


def member(g: LabeledGraph, w: Sequence[int]) -> bool:
    """Whether reduced w lies in the subgroup read at the basepoint: w
    must label a closed path there."""
    if g.basepoint is None:
        raise ValueError("membership needs a basepoint")
    if not is_reduced(tuple(w)):
        raise ValueError("word must be reduced")
    return read_word(g, g.basepoint, w) == g.basepoint


def schreier(G: FinGroup, H_gens: Sequence[Word]) -> LabeledGraph:
    """Schreier graph of H = <images of H_gens> acting on right cosets of
    G: vertices are cosets Hg, with a-edges Hg -> Hga.  Complete, folded,
    basepointed at H."""
    n = G.order()
    h_set = G.subgroup(G.evaluate(w) for w in H_gens)
    coset_of = [-1] * n
    reps = []
    for g_id in range(n):
        if coset_of[g_id] >= 0:
            continue
        c = len(reps)
        reps.append(g_id)
        for h in h_set:
            coset_of[G.mul_ids(h, g_id)] = c
    edges = set()
    for c, rep in enumerate(reps):
        for a in range(1, G.n_letters + 1):
            edges.add((c, a, coset_of[G.step(rep, a)]))
    return LabeledGraph(frozenset(range(len(reps))), edges,
                        basepoint=coset_of[0], alphabet=G.alphabet)


def complete_arbitrary(g: LabeledGraph) -> LabeledGraph:
    """Embed a folded graph into a complete one by pairing, per letter,
    the vertices missing an outgoing a-edge with those missing an
    incoming one (sorted order).  Folded input has one a-edge out of and
    into at most one vertex each, so both lists have |V| - #a-edges
    entries and no vertex is added."""
    t = transition_maps(g)
    edges = set(g.pos_edges)
    for a in range(1, g.n_letters + 1):
        no_out = _sorted(v for v in g.vertices if (v, a) not in t)
        no_in = _sorted(v for v in g.vertices if (v, -a) not in t)
        for s, d in zip(no_out, no_in):
            edges.add((s, a, d))
    return LabeledGraph(g.vertices, edges, basepoint=g.basepoint,
                        alphabet=g.alphabet)


def transition_group(g: LabeledGraph, name: str = "T") -> FinGroup:
    """Permutation group on V(g) generated by the letter actions of a
    complete folded graph."""
    if not is_complete(g):
        raise ValueError("transition group needs a complete folded graph")
    verts = _sorted(g.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    t = transition_maps(g)
    perms = [tuple(pos[t[(v, a)]] for v in verts)
             for a in range(1, g.n_letters + 1)]
    return FinGroup.from_perms(g.alphabet, perms, name=name)


def graph_to_json(g: LabeledGraph) -> dict:
    """JSON value {vertices, edges:[{src,label,dst}], basepoint, alphabet}
    with letter names as labels.  Vertex ids must be JSON-serializable."""
    edges = [{"src": s, "label": g.alphabet[a - 1], "dst": d}
             for s, a, d in _sorted(g.pos_edges)]
    return {"vertices": _sorted(g.vertices),
            "edges": edges,
            "basepoint": g.basepoint,
            "alphabet": list(g.alphabet)}


def _vertex_id(value, where: str, seen: dict):
    """A vertex id checked against the ids read so far (seen): JSON
    values that Python counts as equal (0 and false, 1, true and 1.0)
    would name one vertex, so they are refused."""
    if isinstance(value, (list, dict)):
        raise ValueError("graph JSON %s: vertex id must not be an array "
                         "or object, got %r" % (where, value))
    first = seen.setdefault(value, value)
    if type(first) is not type(value):
        raise ValueError("graph JSON %s: vertex id %s would merge with "
                         "vertex id %s" % (where, json.dumps(value),
                                           json.dumps(first)))
    return value


def graph_from_json(data: dict) -> LabeledGraph:
    if not isinstance(data, dict):
        raise ValueError("graph JSON: expected an object")
    for key in ("vertices", "edges"):
        if key not in data:
            raise ValueError("graph JSON: missing field %r" % key)
    vertices = data["vertices"]
    if not isinstance(vertices, list):
        raise ValueError("graph JSON field 'vertices': list required")
    seen: dict = {}
    vertices = [_vertex_id(v, "field 'vertices'", seen) for v in vertices]
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise ValueError("graph JSON field 'edges': list required")
    alphabet = data.get("alphabet")
    if alphabet is None:
        names = sorted({e["label"] for e in raw_edges if isinstance(e, dict)
                        and isinstance(e.get("label"), str)})
        alphabet = names or list(DEFAULT_ALPHABET[:2])
    elif (not isinstance(alphabet, list)
          or not all(isinstance(name, str) for name in alphabet)):
        raise ValueError("graph JSON field 'alphabet': list of strings "
                         "required")
    letter_of = {name: i + 1 for i, name in enumerate(alphabet)}
    edges = set()
    for k, e in enumerate(raw_edges):
        if not isinstance(e, dict) or {"src", "label", "dst"} - set(e):
            raise ValueError("graph JSON edge %d: need src, label, dst" % k)
        if not isinstance(e["label"], str):
            raise ValueError("graph JSON edge %d: label must be a string, "
                             "got %r" % (k, e["label"]))
        if e["label"] not in letter_of:
            raise ValueError("graph JSON edge %d: unknown label %r" % (k, e["label"]))
        edges.add((_vertex_id(e["src"], "edge %d src" % k, seen),
                   letter_of[e["label"]],
                   _vertex_id(e["dst"], "edge %d dst" % k, seen)))
    basepoint = _vertex_id(data.get("basepoint"), "field 'basepoint'", seen)
    return LabeledGraph(frozenset(vertices), edges, basepoint=basepoint,
                        alphabet=alphabet)


def graph_to_dot(g: LabeledGraph, name: str = "G") -> str:
    lines = ["digraph %s {" % name]
    if g.basepoint is not None:
        lines.append('  "%s" [shape=doublecircle];' % (g.basepoint,))
    for s, a, d in _sorted(g.pos_edges):
        lines.append('  "%s" -> "%s" [label="%s"];' % (s, d, g.alphabet[a - 1]))
    lines.append("}")
    return "\n".join(lines)
