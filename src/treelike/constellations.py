"""Constellations in Cayley graphs and dissolving checks between
finite quotients.

A constellation in the Cayley graph of G is a triple (X, g, T) of
connected subgraphs X, T both containing the vertices 1 and g, such
that the components of 1 and of g inside the intersection X cap T are
distinct.  A quotient phi: H ->> G (canonical morphism of A-generated
groups) dissolves the constellation when [u]_H != [v]_H for every pair
of words u labelling a path 1 -> g inside X and v labelling a path
1 -> g inside T.

Lifting lemma.  Write X~ for the component of 1 of the preimage of X
in the Cayley graph of H: vertices are the preimages of V(X), edges the
pairs (h, a) with (phi(h), a) an edge of X.  Then for every vertex g of
X, the set {[u]_H : u labels a path 1 -> g inside X} equals the fiber
{h in V(X~) : phi(h) = g}.  Proof: a word u reading 1 -> g inside X,
read from 1 in the Cayley graph of H, traverses only edges projecting
into E(X) because phi commutes with the letter actions; the path stays
inside the preimage and connects 1 to [u]_H there, so [u]_H lies in X~
and projects to g.  Conversely a vertex h of X~ with phi(h) = g is
joined to 1 by a path inside X~; its label u satisfies [u]_H = h, and
the projected path runs inside X from 1 to g.  QED.

Hence H dissolves (X, g, T) iff the fibers over g of X~ and T~ are
disjoint: the two fibers are exactly the value sets of [u]_H and [v]_H.
This replaces the quantification over infinitely many word pairs by two
component computations, which is how `dissolves` certifies its verdicts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .cayley import CayleySubgraph, components
from .groups import EnumerationBudgetError, FinGroup
from .words import Word, random_reduced_word, word_str

EXHAUSTIVE_EDGE_BUDGET = 16


def _span_components(vertices: frozenset, edges: frozenset,
                     group: FinGroup) -> Dict[int, int]:
    """Map vertex -> component root over the given edge set."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for g, a in edges:
        ra, rb = find(g), find(group.step(g, a))
        if ra != rb:
            parent[ra] = rb
    return {v: find(v) for v in vertices}


@dataclass(frozen=True)
class Constellation:
    """Validated constellation (X, g, T); construction re-checks the
    three defining conditions."""

    X: CayleySubgraph
    g: int
    T: CayleySubgraph

    def __post_init__(self):
        problem = constellation_defect(self.X, self.g, self.T)
        if problem:
            raise ValueError("not a constellation: %s" % problem)

    def key(self) -> tuple:
        """Canonical sort key for deterministic report ordering."""
        return (sorted(self.X.pos_edges), self.g, sorted(self.T.pos_edges))


def constellation_defect(X: CayleySubgraph, g: int,
                         T: CayleySubgraph) -> Optional[str]:
    """None if (X, g, T) is a constellation, else a short reason."""
    if X.group is not T.group:
        return "subgraphs live over different groups"
    for name, S in (("X", X), ("T", T)):
        if 0 not in S.vertices:
            return "1 is not a vertex of %s" % name
        if g not in S.vertices:
            return "g is not a vertex of %s" % name
        if len(components(S)) != 1:
            return "%s is not connected" % name
    inter_v = X.vertices & T.vertices
    roots = _span_components(inter_v, X.pos_edges & T.pos_edges, X.group)
    if roots[0] == roots[g]:
        return "1 and g share a component of the intersection"
    return None


def is_constellation(X: CayleySubgraph, g: int, T: CayleySubgraph) -> bool:
    return constellation_defect(X, g, T) is None


def enumerate_constellations(G: FinGroup,
                             edge_budget: int = EXHAUSTIVE_EDGE_BUDGET
                             ) -> Iterator[Constellation]:
    """All constellations (X, g, T) of the Cayley graph of G whose X and
    T are spans of edge subsets.  Every constellation with g != 1 is of
    this form: a connected subgraph holding the two distinct vertices 1
    and g has no isolated vertex.

    Exhaustive over pairs of connected edge subsets containing the
    vertex 1; raises when the Cayley graph has more positive edges than
    edge_budget (the scan is exponential in the edge count).
    """
    n = G.order()
    edges = sorted((g, a) for g in range(n)
                   for a in range(1, G.n_letters + 1))
    if len(edges) > edge_budget:
        raise EnumerationBudgetError(
            edge_budget, "exhaustive constellation scan over %d edges" % len(edges))
    dst = [G.step(g, a) for g, a in edges]

    # connected edge subsets whose span contains vertex 0
    candidates: List[Tuple[int, frozenset]] = []
    for mask in range(1, 1 << len(edges)):
        verts = set()
        for i in range(len(edges)):
            if mask >> i & 1:
                verts.add(edges[i][0])
                verts.add(dst[i])
        if 0 not in verts:
            continue
        span = frozenset(edges[i] for i in range(len(edges))
                         if mask >> i & 1)
        verts = frozenset(verts)
        if len(set(_span_components(verts, span, G).values())) == 1:
            candidates.append((mask, verts))

    subgraph_cache: Dict[int, CayleySubgraph] = {}

    def subgraph(mask: int, verts: frozenset) -> CayleySubgraph:
        got = subgraph_cache.get(mask)
        if got is None:
            got = CayleySubgraph(G, verts, frozenset(
                edges[i] for i in range(len(edges)) if mask >> i & 1))
            subgraph_cache[mask] = got
        return got

    partition_cache: Dict[Tuple[int, frozenset], Dict[int, int]] = {}
    for mask_x, verts_x in candidates:
        for mask_t, verts_t in candidates:
            inter_v = verts_x & verts_t
            if len(inter_v) < 2:
                continue
            inter_mask = mask_x & mask_t
            key = (inter_mask, inter_v)
            roots = partition_cache.get(key)
            if roots is None:
                inter_edges = frozenset(edges[i] for i in range(len(edges))
                                        if inter_mask >> i & 1)
                roots = _span_components(inter_v, inter_edges, G)
                partition_cache[key] = roots
            root0 = roots[0]
            for g in sorted(inter_v):
                if g and roots[g] != root0:
                    yield Constellation(subgraph(mask_x, verts_x), g,
                                        subgraph(mask_t, verts_t))


def sample_constellations(G: FinGroup, rng: random.Random, count: int,
                          max_len: int = 8
                          ) -> Iterator[Tuple[Constellation, Word, Word]]:
    """Yield `count` random triples (constellation, u, v): reduced word
    pairs with equal nonidentity image in G whose path spans X, T form a
    constellation, u reading 1 -> g in X and v in T.  Draws are rejection
    sampled; gives up once attempts exceed 1000 * count."""
    from .cayley import path_span
    yielded = 0
    for _ in range(1000 * count):
        if yielded == count:
            return
        u = random_reduced_word(rng, G.n_letters, rng.randint(1, max_len))
        g = G.evaluate(u)
        v = None
        for _ in range(64):
            cand = random_reduced_word(rng, G.n_letters, rng.randint(1, max_len))
            if G.evaluate(cand) == g:
                v = cand
                break
        if v is None:
            continue
        X, end_u, _ = path_span(G, 0, u)
        T, end_v, _ = path_span(G, 0, v)
        assert end_u == end_v == g
        if is_constellation(X, g, T):
            yielded += 1
            yield Constellation(X, g, T), u, v
    if yielded < count:
        raise RuntimeError("constellation sampling stalled: %d of %d after "
                           "%d attempts" % (yielded, count, 1000 * count))


@dataclass(frozen=True)
class DissolveVerdict:
    """Outcome of one dissolving check.

    status: 'dissolved' (fibers over g disjoint, certified),
    'counterexample' (witness words u, v with equal image in H), or
    'inconclusive' (witnesses exceeded the extraction length bound).
    """

    status: str
    u: Optional[Word] = None
    v: Optional[Word] = None
    fiber_x: int = 0
    fiber_t: int = 0

    @property
    def dissolved(self) -> bool:
        return self.status == "dissolved"


class Dissolver:
    """Dissolving checks of one quotient phi: H ->> G with memoized
    component lifts (the lift of X depends only on X, and exhaustive
    scans reuse the same X across many constellations)."""

    def __init__(self, H: FinGroup, G: FinGroup):
        phi = H.canonical_morphism_to(G) if H is not G else list(range(G.order()))
        if phi is None:
            raise ValueError("no canonical morphism %s ->> %s"
                             % (H.name, G.name))
        self.H = H
        self.G = G
        self.phi = phi
        self._lifts: Dict[frozenset, tuple] = {}

    def lift(self, X: CayleySubgraph) -> tuple:
        """(fibers, parent) for the component of 1 of the preimage of X:
        fibers maps g -> frozenset of component vertices over g, parent
        holds BFS back-pointers for witness words."""
        got = self._lifts.get(X.pos_edges)
        if got is not None:
            return got
        H, phi = self.H, self.phi
        edge_set = X.pos_edges
        parent: Dict[int, Optional[tuple]] = {0: None}
        queue = [0]
        head = 0
        while head < len(queue):
            h = queue[head]
            head += 1
            base = phi[h]
            for a in range(1, H.n_letters + 1):
                if (base, a) in edge_set:
                    nxt = H.step(h, a)
                    if nxt not in parent:
                        parent[nxt] = (h, a)
                        queue.append(nxt)
                back = H.step(h, -a)
                if (phi[back], a) in edge_set:
                    if back not in parent:
                        parent[back] = (h, -a)
                        queue.append(back)
        fibers: Dict[int, set] = {}
        for h in parent:
            fibers.setdefault(phi[h], set()).add(h)
        got = ({g: frozenset(s) for g, s in fibers.items()}, parent)
        self._lifts[X.pos_edges] = got
        return got

    def witness_word(self, parent: Dict[int, Optional[tuple]], h: int) -> Word:
        out = []
        while h:
            h, x = parent[h]
            out.append(x)
        return tuple(reversed(out))

    def dissolves(self, c: Constellation,
                  max_witness_len: Optional[int] = None) -> DissolveVerdict:
        fibers_x, parent_x = self.lift(c.X)
        fibers_t, parent_t = self.lift(c.T)
        fx = fibers_x.get(c.g, frozenset())
        ft = fibers_t.get(c.g, frozenset())
        common = fx & ft
        if not common:
            return DissolveVerdict("dissolved", fiber_x=len(fx), fiber_t=len(ft))
        h = min(common)
        u = self.witness_word(parent_x, h)
        v = self.witness_word(parent_t, h)
        if max_witness_len is not None and max(len(u), len(v)) > max_witness_len:
            return DissolveVerdict("inconclusive",
                                   fiber_x=len(fx), fiber_t=len(ft))
        return DissolveVerdict("counterexample", u=u, v=v,
                               fiber_x=len(fx), fiber_t=len(ft))


def dissolves(H: FinGroup, G: FinGroup, c: Constellation,
              max_witness_len: Optional[int] = None) -> DissolveVerdict:
    """Whether phi: H ->> G dissolves the constellation c, certified by
    fiber disjointness of the lifted components (see module docstring)."""
    return Dissolver(H, G).dissolves(c, max_witness_len)


def dissolves_all(H: FinGroup, G: FinGroup, mode: str = "exhaustive",
                  edge_budget: int = EXHAUSTIVE_EDGE_BUDGET,
                  samples: int = 1000, max_len: int = 8,
                  seed: Optional[int] = None,
                  detail_limit: Optional[int] = 200) -> dict:
    """Run dissolving checks over all (exhaustive) or sampled
    constellations of G; returns a JSON-ready report."""
    dis = Dissolver(H, G)
    report = {
        "schema": 1,
        "quotient": H.name,
        "group": G.name,
        "mode": mode,
        "total": 0,
        "dissolved": 0,
        "failures": [],
        "constellations": [],
    }
    if mode == "exhaustive":
        report["edge_budget"] = edge_budget
        stream = ((c, None, None) for c in enumerate_constellations(G, edge_budget))
    elif mode == "sampled":
        rng = random.Random(seed)
        report["samples"] = samples
        report["max_len"] = max_len
        report["seed"] = seed
        stream = sample_constellations(G, rng, samples, max_len)
    else:
        raise ValueError("mode must be 'exhaustive' or 'sampled'")
    names = G.alphabet
    for c, _, _ in stream:
        verdict = dis.dissolves(c)
        report["total"] += 1
        if verdict.dissolved:
            report["dissolved"] += 1
        entry = {
            "g": c.g,
            "x_edges": sorted(list(e) for e in c.X.pos_edges),
            "t_edges": sorted(list(e) for e in c.T.pos_edges),
            "verdict": verdict.status,
        }
        if verdict.status == "counterexample":
            entry["u"] = word_str(verdict.u, names)
            entry["v"] = word_str(verdict.v, names)
            if detail_limit is None or len(report["failures"]) < detail_limit:
                report["failures"].append(entry)
            else:
                report["failures_truncated"] = True
        if detail_limit is None or len(report["constellations"]) < detail_limit:
            report["constellations"].append(entry)
    report["all_dissolved"] = report["dissolved"] == report["total"]
    return report
