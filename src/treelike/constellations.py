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

The exhaustive scan counts with int masks over edges, over G and over H:
the constellations of a candidate pair (X, T) are the bits g of
vx & vt & ~comp0[mx & mt], dissolved iff lift_X & lift_T & fiber_g == 0.
Only the entries a report lists are built as objects.  Scans over more
than EXHAUSTIVE_PAIR_BUDGET candidate pairs are refused before the first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .cayley import (CayleySubgraph, component_of, intersect, path_label,
                     path_span, search)
from .groups import EnumerationBudgetError, FinGroup
from .words import Word, reduced_word_sampler, word_str

EXHAUSTIVE_EDGE_BUDGET = 16
EXHAUSTIVE_PAIR_BUDGET = 10 ** 8


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
        if component_of(S, 0) != S.vertices:
            return "%s is not connected" % name
    if g in component_of(intersect(X, T), 0):
        return "1 and g share a component of the intersection"
    return None


def require_counts(**counts: int) -> None:
    """Refuse a count below 1: a sampled check of nothing passes vacuously."""
    for name, n in counts.items():
        if n < 1:
            raise ValueError("%s must be at least 1, got %d" % (name, n))


def is_constellation(X: CayleySubgraph, g: int, T: CayleySubgraph) -> bool:
    return constellation_defect(X, g, T) is None


def _candidate_pass(G: FinGroup, edge_budget: int
                    ) -> Tuple[List[Tuple[int, int]], List[int]]:
    """(candidates, comp0) of the exhaustive scan over the int masks m of
    edge subsets (bit i is edge (i // |A|, i % |A| + 1)).  comp0[m] is
    the vertex mask of the component of 1 in the span of m; a candidate
    (m, vertex mask) is a connected span containing 1.  Both budgets
    are checked before any pair is visited."""
    n, k = G.order(), G.n_letters
    if n * k > edge_budget:
        raise EnumerationBudgetError(edge_budget, "exhaustive constellation "
                                     "scan over %d edges" % (n * k), "edges")
    ends = [1 << g | 1 << G.step(g, a)
            for g in range(n) for a in range(1, k + 1)]
    vmask, comp0 = [0] * (1 << n * k), [1] * (1 << n * k)
    candidates = []
    for m in range(1, 1 << n * k):
        low = m & -m
        end = ends[low.bit_length() - 1]
        vmask[m] = vmask[m ^ low] | end
        c, grown = comp0[m ^ low], comp0[m ^ low] | end
        while end & c and grown != c:   # the new edge touches 1's part
            c = grown
            for i in _bits(m):
                if ends[i] & grown:
                    grown |= ends[i]
        comp0[m] = c
        if c == vmask[m]:
            candidates.append((m, c))
    pairs = len(candidates) ** 2
    if pairs > EXHAUSTIVE_PAIR_BUDGET:
        raise EnumerationBudgetError(EXHAUSTIVE_PAIR_BUDGET, "exhaustive constellation"
                                     " scan over %d candidate pairs" % pairs, "pairs")
    return candidates, comp0


def _bits(mask: int) -> List[int]:
    """Positions of the set bits of mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _subgraph(G: FinGroup, mask: int, verts: int) -> CayleySubgraph:
    edges = [(i // G.n_letters, i % G.n_letters + 1) for i in _bits(mask)]
    return CayleySubgraph(G, _bits(verts), edges)


def enumerate_constellations(G: FinGroup,
                             edge_budget: int = EXHAUSTIVE_EDGE_BUDGET
                             ) -> Iterator[Constellation]:
    """All constellations (X, g, T) of the Cayley graph of G whose X and
    T are spans of edge subsets.  Every constellation with g != 1 is of
    this form: a connected subgraph holding the two distinct vertices 1
    and g has no isolated vertex.

    Exhaustive over the candidate pairs (X, T) of the mask pass, in the
    order X, T, g ascending; the g of a pair are the bits of
    vx & vt & ~comp0[mx & mt].  Raises EnumerationBudgetError over
    edge_budget positive edges or EXHAUSTIVE_PAIR_BUDGET candidate pairs.
    """
    candidates, comp0 = _candidate_pass(G, edge_budget)
    subgraphs = [_subgraph(G, m, v) for m, v in candidates]
    for (mx, vx), X in zip(candidates, subgraphs):
        for (mt, vt), T in zip(candidates, subgraphs):
            for g in _bits(vx & vt & ~comp0[mx & mt]):
                yield Constellation(X, g, T)


def sample_constellations(G: FinGroup, rng: random.Random, count: int,
                          max_len: int = 8
                          ) -> Iterator[Tuple[Constellation, Word, Word]]:
    """Yield `count` random triples (constellation, u, v): reduced word
    pairs with equal nonidentity image in G whose path spans X, T form a
    constellation, u reading 1 -> g in X and v in T.  Draws are rejection
    sampled; gives up once attempts exceed 1000 * count.

    RNG stream: each word (u, then up to 64 candidates v) is one
    rng.randint(1, max_len) for its length and then the letter draws of
    reduced_word_sampler(rng, G.n_letters), the calls of
    random_reduced_word(rng, G.n_letters, rng.randint(1, max_len));
    G.evaluate draws nothing.  So a seed fixes the triples and the rng
    state after sampling."""
    draw = reduced_word_sampler(rng, G.n_letters)
    yielded = 0
    for _ in range(1000 * count):
        if yielded == count:
            return
        u = draw(rng.randint(1, max_len))
        g = G.evaluate(u)
        v = None
        for _ in range(64):
            cand = draw(rng.randint(1, max_len))
            if G.evaluate(cand) == g:
                v = cand
                break
        if v is None:
            continue
        X, end_u, _ = path_span(G, 0, u)
        T, end_v, _ = path_span(G, 0, v)
        assert end_u == end_v == g
        try:
            c = Constellation(X, g, T)
        except ValueError:
            continue
        yielded += 1
        yield c, u, v
    if yielded < count:
        raise RuntimeError("constellation sampling stalled: %d of %d after "
                           "%d attempts" % (yielded, count, 1000 * count))


@dataclass(frozen=True)
class DissolveVerdict:
    """Outcome of one dissolving check.

    status: 'dissolved' (fibers over g disjoint, certified) or
    'counterexample' (witness words u, v with equal image in H).
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

    def _component(self, edge_mask: int) -> Dict[int, Optional[tuple]]:
        """Search parent map of the component of 1 of the preimage of
        the edges in edge_mask (edge (g, a) is bit g * |A| + a - 1)."""
        phi, k = self.phi, self.H.n_letters
        return search(self.H, 0,
                      lambda e: edge_mask >> phi[e[0]] * k + e[1] - 1 & 1)

    def lift(self, X: CayleySubgraph) -> tuple:
        """(fibers, parent) for the component of 1 of the preimage of X:
        fibers maps g -> frozenset of component vertices over g, parent
        holds BFS back-pointers for witness words."""
        if X.pos_edges not in self._lifts:
            k = self.H.n_letters
            parent = self._component(sum(1 << (g * k + a - 1)
                                         for g, a in X.pos_edges))
            fibers: Dict[int, set] = {}
            for h in parent:
                fibers.setdefault(self.phi[h], set()).add(h)
            self._lifts[X.pos_edges] = (
                {g: frozenset(s) for g, s in fibers.items()}, parent)
        return self._lifts[X.pos_edges]

    def dissolves(self, c: Constellation) -> DissolveVerdict:
        fibers_x, parent_x = self.lift(c.X)
        fibers_t, parent_t = self.lift(c.T)
        fx = fibers_x.get(c.g, frozenset())
        ft = fibers_t.get(c.g, frozenset())
        common = fx & ft
        if not common:
            return DissolveVerdict("dissolved", fiber_x=len(fx), fiber_t=len(ft))
        h = min(common)
        return DissolveVerdict("counterexample", u=path_label(parent_x, h),
                               v=path_label(parent_t, h),
                               fiber_x=len(fx), fiber_t=len(ft))


def dissolves(H: FinGroup, G: FinGroup, c: Constellation) -> DissolveVerdict:
    """Whether phi: H ->> G dissolves the constellation c, certified by
    fiber disjointness of the lifted components (see module docstring)."""
    return Dissolver(H, G).dissolves(c)


def dissolves_all(H: FinGroup, G: FinGroup, mode: str = "exhaustive",
                  edge_budget: int = EXHAUSTIVE_EDGE_BUDGET,
                  samples: int = 1000, max_len: int = 8,
                  seed: Optional[int] = None,
                  detail_limit: Optional[int] = 200) -> dict:
    """Run dissolving checks over all (exhaustive) or sampled
    constellations of G; returns a JSON-ready report."""
    if mode == "sampled":
        require_counts(samples=samples, max_len=max_len)
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
        _scan_exhaustive(dis, report, edge_budget, detail_limit)
    elif mode == "sampled":
        report["samples"] = samples
        report["max_len"] = max_len
        report["seed"] = seed
        for c, _, _ in sample_constellations(G, random.Random(seed), samples,
                                             max_len):
            verdict = _record(report, dis, c, detail_limit)
            report["total"] += 1
            report["dissolved"] += verdict.dissolved
    else:
        raise ValueError("mode must be 'exhaustive' or 'sampled'")
    if report["total"] - report["dissolved"] > len(report["failures"]):
        report["failures_truncated"] = True
    report["all_dissolved"] = report["dissolved"] == report["total"]
    return report


def _record(report: dict, dis: Dissolver, c: Constellation,
            detail_limit: Optional[int]) -> DissolveVerdict:
    """Check c and list it in the report while the lists have room."""
    verdict = dis.dissolves(c)
    names = dis.G.alphabet
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
    if detail_limit is None or len(report["constellations"]) < detail_limit:
        report["constellations"].append(entry)
    return verdict


def _scan_exhaustive(dis: Dissolver, report: dict, edge_budget: int,
                     detail_limit: Optional[int]) -> None:
    """Count the dissolved constellations of every candidate pair (see
    the module docstring).  fibers[vs] is the mask of H-ids over the
    vertex mask vs; a pair needs the per-g check only when its lifts
    meet the fibers over its g's, or while the report lists entries."""
    G = dis.G
    candidates, comp0 = _candidate_pass(G, edge_budget)
    lifts = [sum(1 << h for h in dis._component(m)) for m, _ in candidates]
    fibers = [0]
    for g in range(G.order()):      # fibers[vs] for vs < 2^(g + 1)
        fg = sum(1 << h for h, x in enumerate(dis.phi) if x == g)
        fibers += [f | fg for f in fibers]
    limit = float("inf") if detail_limit is None else detail_limit
    listed, failures = report["constellations"], report["failures"]
    total = failed = 0
    for (mx, vx), lx in zip(candidates, lifts):
        for (mt, vt), lt in zip(candidates, lifts):
            gs = vx & vt & ~comp0[mx & mt]
            common = lx & lt & fibers[gs]
            if not common and len(listed) >= limit:
                total += gs.bit_count()
                continue
            for g in _bits(gs):
                total += 1
                bad = common & fibers[1 << g]
                failed += bad != 0
                if len(listed) < limit or bad and len(failures) < limit:
                    c = Constellation(_subgraph(G, mx, vx), g,
                                      _subgraph(G, mt, vt))
                    _record(report, dis, c, detail_limit)
    report.update(total=total, dissolved=total - failed)
