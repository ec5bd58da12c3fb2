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
component computations.  `Dissolver` is the one model of them: int
masks of H-ids, lift_X and fiber_g, and (X, g, T) is dissolved iff
lift_X & lift_T & fiber_g == 0, for `dissolves` and the scan alike.

The exhaustive scan counts with int masks over edges, over G and over H:
the constellations of a candidate pair (X, T) are the bits g of
vx & vt & ~comp0[mx & mt], each decided by the masks above.  Lifts only
grow with their edge sets, so a constellation is dissolved when one
that dominates it is.  The cut cover is a small family of
constellations that dominates them all: if each of its members is
dissolved, so is every constellation, and `total` comes from an
AND-convolution of the candidate masks, with no pair loop and no lift
outside the cover.  The scan takes that path where the convolution's
|E| 2^|E| steps cost less than the candidates^2 / 2 unordered pairs.
Otherwise, or if a member fails, the count visits each unordered pair
once and weighs it 2, as both masks are symmetric in X and T.  The
report lists its entries in the ordered order X, T, g: after the count,
one walk over the ordered pairs lists them until the constellation list
is full and the failure list holds as many of the counted failures as
it has room for.  Scans over more than EXHAUSTIVE_PAIR_BUDGET ordered
candidate pairs are refused before the first.  A sampled check decides
its triple by the same three masks.

Both modes list their entries through one lister, which reads each
entry off the edge masks of X and T, g and the meet
lift_X & lift_T & fiber_g, with no subgraph, Constellation or verdict
object.  It reads edge lists and witness words only for an entry a
report list has room for, and says what `Dissolver.dissolves` says of
the Constellation: the tests check the one against the other.  Witness
words are labelled after the walk, one search per mask that a listed
failure names, so one search parent map is alive at a time.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .cayley import CayleySubgraph, component_of, intersect, path_span, search
from .groups import EnumerationBudgetError, FinGroup, _edge_keys, _edge_of
from .words import Word, path_label, word_str

EXHAUSTIVE_EDGE_BUDGET = 16
MODES = ("exhaustive", "sampled")       # of dissolves_all and the campaign
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
        """(sorted edges of X, g, sorted edges of T): a plain value that
        is equal exactly for equal constellations, by which tests
        compare them."""
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


def require_choice(name: str, value: str, choices: Tuple[str, ...]) -> None:
    """Refuse a value outside choices, before the caller does any work."""
    if value not in choices:
        raise ValueError("%s must be %s" % (name, " or ".join(map(repr, choices))))


def is_constellation(X: CayleySubgraph, g: int, T: CayleySubgraph) -> bool:
    return constellation_defect(X, g, T) is None


def _candidate_pass(G: FinGroup, edge_budget: int
                    ) -> Tuple[List[Tuple[int, int]], List[int]]:
    """(candidates, comp0) of the exhaustive scan over the int masks m of
    edge subsets (bit i is the edge of key i).  comp0[m] is
    the vertex mask of the component of 1 in the span of m; a candidate
    (m, vertex mask) is a connected span containing 1.  Both budgets
    are checked before any pair is visited."""
    _check_edges(G, edge_budget)
    n, k = G.order(), G.n_letters
    ends = _ends(G)
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


def _check_edges(G: FinGroup, edge_budget: int) -> None:
    """Refuse a scan of G over more than edge_budget positive edges,
    counted from G's order formula, so a refused G is not enumerated."""
    edges = G.formula_order() * G.n_letters
    if edges > edge_budget:
        raise EnumerationBudgetError(edge_budget, "exhaustive constellation "
                                     "scan over %d edges" % edges, "edges")


@functools.lru_cache(maxsize=1)
def _ends(G: FinGroup) -> list:
    """ends[i], the vertex mask of the two ends of the edge of key i,
    kept for the last G asked, so that the candidate pass and the cut
    cover of one scan read one table."""
    k = G.n_letters
    return [1 << g | 1 << G.step(g, a) for g, a in
            map(_edge_of, itertools.repeat(k), range(G.order() * k))]


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, ascending: one step per set
    bit, so a sparse mask of a large group decodes in few steps."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _edge_set(mask: int, k: int) -> set:
    """Edges of an edge mask over k letters: bit i is the edge of key i."""
    return {_edge_of(k, i) for i in _bits(mask)}


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
    subgraphs = [CayleySubgraph(G, _bits(v), _edge_set(m, G.n_letters))
                 for m, v in candidates]
    for (mx, vx), X in zip(candidates, subgraphs):
        for (mt, vt), T in zip(candidates, subgraphs):
            for g in _bits(vx & vt & ~comp0[mx & mt]):
                yield Constellation(X, g, T)


# the sampling law draws v from at most this many words
V_DRAWS = 64


def _locate(r: int, weights: List[Tuple[int, int]]) -> Tuple[int, int]:
    """(item, rank) of the (item, integer weight) pair whose range holds
    the rank r, and r less the weights before it.  A rank uniform below
    the total weight picks each item with probability proportional to its
    weight, and leaves a rank uniform below that weight."""
    for item, w in weights:
        if r < w:
            return item, r
        r -= w
    raise ValueError("rank beyond the total weight")


class ReducedWordCounts:
    """Counts of the reduced words of length 1..max_len over the letters
    of G by image, length and last letter, and the integer weights with
    which sample_constellations draws from its law.

    Letters have indices 0, 1, 2, 3, ... in the order 1, -1, 2, -2, ...
    of G.rows(), so index i ^ 1 is the inverse of index i.  E[k][i] maps
    y to the number of reduced words of length k that read 1 -> y and
    end in letter i, and C[k] maps y to the number of all of them.  A
    word of length k ending in letter j at row_j[y] extends each word of
    length k - 1 at y that does not end in j ^ 1, so E[k][j] maps row_j[y]
    to C[k - 1][y] - E[k - 1][j ^ 1][y] (rows are permutations: no two y
    collide).  The tables hold only the states some word reaches.

    The weights.  With M = max_len and m = 2|A|, a word has probability
    (m - 1)^(M - L) / D under the law (L its length, D = M m (m - 1)^(M - 1)),
    so a word reads g with probability q_g = n_g / D, where
    n_g = sum_L C[L][g] (m - 1)^(M - L).  Summed over the pairs reading g,
    the law's P(u) P(v) (1 - (1 - q_g)^V_DRAWS) / q_g gives g the weight
    n_g (D^V_DRAWS - (D - n_g)^V_DRAWS), and u and v are independent given
    g, each with probability P(w) / q_g.  draw_word unranks such a word
    from one rank r uniform below n_g, by the recursive method of
    Nijenhuis and Wilf: r picks the length L by the weights
    C[L][g] (m - 1)^(M - L); what is left of r, divided by (m - 1)^(M - L),
    is uniform below C[L][g] and picks the letters backwards from g,
    letter k by the weights E[k][i][y] of the letters i that do not
    cancel letter k + 1."""

    def __init__(self, G: FinGroup, max_len: int):
        rows = G.rows()
        self.letters = [x for x, _ in rows]
        self.rows = [row for _, row in rows]
        self.max_len = max_len
        self.E: List[Optional[list]] = [None]
        self.C: List[Optional[dict]] = [None]
        layer = [{row[0]: 1} for row in self.rows]
        for k in range(1, max_len + 1):
            if k > 1:
                layer = [{row[y]: c for y, n in self.C[-1].items()
                          if (c := n - layer[j ^ 1].get(y, 0))}
                         for j, row in enumerate(self.rows)]
            total: Dict[int, int] = {}
            for ends in layer:
                for y, n in ends.items():
                    total[y] = total.get(y, 0) + n
            self.E.append(layer)
            self.C.append(total)
        m = len(rows)
        self._scale = [(m - 1) ** (max_len - k) for k in range(max_len + 1)]
        self.n_words: Dict[int, int] = {}
        for k in range(1, max_len + 1):
            for g, c in self.C[k].items():
                self.n_words[g] = self.n_words.get(g, 0) + c * self._scale[k]
        D = max_len * m * (m - 1) ** (max_len - 1)
        hit = D ** V_DRAWS
        miss: Dict[int, int] = {}      # (D - n_g)^V_DRAWS; many g share n_g
        self.image_weights: Dict[int, int] = {}
        for g, n in sorted(self.n_words.items()):
            if g:
                if n not in miss:
                    miss[n] = (D - n) ** V_DRAWS
                self.image_weights[g] = n * (hit - miss[n])
        self._images = list(self.image_weights)
        self._cumulative = list(
            itertools.accumulate(self.image_weights.values()))

    def length_weights(self, g: int) -> List[Tuple[int, int]]:
        """(L, weight) of the length of a word drawn from g."""
        return [(k, self.C[k][g] * self._scale[k])
                for k in range(1, self.max_len + 1) if g in self.C[k]]

    def letter_weights(self, y: int, k: int, after: Optional[int]
                       ) -> List[Tuple[int, int]]:
        """(letter index, weight) of letter k of a word whose first k
        letters read 1 -> y and whose letter k + 1 has index `after`
        (None for the last letter)."""
        bar = -1 if after is None else after ^ 1
        return [(i, ends[y]) for i, ends in enumerate(self.E[k])
                if i != bar and y in ends]

    def draw_image(self, rng: random.Random) -> int:
        """g != 1 with probability proportional to image_weights[g]."""
        r = rng.randrange(self._cumulative[-1])
        return self._images[bisect.bisect_right(self._cumulative, r)]

    def draw_word(self, rng: random.Random, g: int) -> Word:
        """A reduced word reading g, unranked from one rank drawn below
        n_words[g]: its length, then its letters from the last to the
        first."""
        lengths = self.length_weights(g)
        L, r = _locate(rng.randrange(self.n_words[g]), lengths)
        r //= self._scale[L]                    # uniform below C[L][g]
        y, after = g, None
        out = []
        for k in range(L, 0, -1):
            after, r = _locate(r, self.letter_weights(y, k, after))
            out.append(self.letters[after])
            y = self.rows[after ^ 1][y]
        return tuple(reversed(out))


def sample_constellations(G: FinGroup, rng: random.Random, count: int,
                          max_len: int = 8
                          ) -> Iterator[Tuple[Constellation, Word, Word]]:
    """Yield `count` random triples (constellation, u, v): reduced words
    u, v of length 1..max_len with the same image g != 1 in G, whose
    path spans X, T form the constellation (X, g, T), u reading 1 -> g
    in X and v in T.

    The law is that of a rejection sampler: draw u with its length
    uniform on 1..max_len and then uniformly; draw words the same way,
    up to V_DRAWS of them, until one, v, reads the image g of u; keep
    the triple if it is a constellation.  So an accepted pair has
    probability proportional to P(u) P(v) (1 - (1 - q_g)^V_DRAWS) / q_g,
    q_g the probability that a word reads g.  No word is rejected here:
    ReducedWordCounts draws g and then u and v from g, with integer
    weights, so the law is exact.  A triple that is no constellation is
    thrown away, and the next attempt draws g again.

    Stalls: raises ValueError before the first draw when no word of
    length 1..max_len reads an element other than 1, and after
    1000 * count attempts that yield fewer than `count` triples."""
    counts = ReducedWordCounts(G, max_len)
    if not counts.image_weights:
        raise ValueError("constellation sampling stalled: no reduced word of "
                         "length 1..%d reads an element other than 1 in %s"
                         % (max_len, G.name))
    yielded = 0
    for _ in range(1000 * count):
        if yielded == count:
            return
        g = counts.draw_image(rng)
        u = counts.draw_word(rng, g)
        v = counts.draw_word(rng, g)
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
        raise ValueError("constellation sampling stalled: %d of %d after "
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
    """Dissolving checks of one quotient phi: H ->> G over int masks of
    H-ids (bit h for id h), each built by _mask in time linear in |H|.
    fiber[g] holds the ids over g, built at first use; lift(m), memoized
    in _lifts, the ids of the lift of the edge mask m, whose bit i is the
    edge of G with key i (`groups`, the one home of the edge-key layout).
    A lift searches H through the keys of m, over _rows: (x, row, keys)
    per row of H, keys[h] the key of the image of the edge that x crosses
    from h.  That image is the edge that x crosses from phi[h] in G, so
    keys is G's `edge_rows()` keys composed with phi."""

    def __init__(self, H: FinGroup, G: FinGroup):
        phi = H.canonical_morphism_to(G) if H is not G else list(range(G.order()))
        if phi is None:
            raise ValueError("no canonical morphism %s ->> %s"
                             % (H.name, G.name))
        self.H, self.G, self.phi = H, G, phi
        self.fiber = _Fibers(phi)
        self._lifts: Dict[int, int] = {}
        self._rows = [(x, row, list(map(keys.__getitem__, phi)))
                      for (x, row), (_, _, keys)
                      in zip(H.rows(), G.edge_rows())]

    def _component(self, edge_mask: int) -> Dict[int, Optional[tuple]]:
        """Search parent map of the lift of the edges in edge_mask."""
        return search(self.H, 0, set(_bits(edge_mask)), self._rows)

    def lift(self, edge_mask: int, parent: Optional[dict] = None) -> int:
        """Mask of the H-ids of the component of 1 of the preimage, read
        off parent, the search parent map of edge_mask, if it is given,
        else searched."""
        if edge_mask not in self._lifts:
            self._lifts[edge_mask] = _mask(parent or self._component(edge_mask),
                                           len(self.phi))
        return self._lifts[edge_mask]

    def dissolves(self, c: Constellation) -> DissolveVerdict:
        """Disjoint fibers over c.g, else the witnesses of the meet: words
        u, v labelling paths to its lowest H-id inside the lifts of X and
        T, so [u]_H = [v]_H.  A lift first met here is searched once, and
        its parent map serves the lift and the witness word."""
        masks = _edge_mask(c.X), _edge_mask(c.T)
        fresh = {m: self._component(m) for m in set(masks) - self._lifts.keys()}
        fx, ft = (self.lift(m, fresh.get(m)) & self.fiber[c.g] for m in masks)
        sizes = {"fiber_x": fx.bit_count(), "fiber_t": ft.bit_count()}
        if not (meet := fx & ft):
            return DissolveVerdict("dissolved", **sizes)
        fresh.update((m, self._component(m)) for m in set(masks) - fresh.keys())
        return DissolveVerdict("counterexample", *(path_label(
            fresh[m], (meet & -meet).bit_length() - 1) for m in masks), **sizes)


class _Fibers(dict):
    """fiber[g], the mask of the H-ids over g under phi, built at first
    use from the H-ids sorted by image, which the first use sorts: a
    check builds the fibers it reads, never |G| masks of |H| bits."""

    def __init__(self, phi: List[int]):
        self.phi, self.by_image = phi, None

    def __missing__(self, g: int) -> int:
        phi, ids = self.phi, self.by_image
        if ids is None:
            ids = self.by_image = sorted(range(len(phi)), key=phi.__getitem__)
        lo = bisect.bisect_left(ids, g, key=phi.__getitem__)
        hi = bisect.bisect_right(ids, g, lo, key=phi.__getitem__)
        return self.setdefault(g, _mask(ids[lo:hi], len(phi)))


def _mask(ids: Iterable[int], size: int) -> int:
    """The int with bit i set for each i in ids, all below size: set in
    a bytearray and converted once, in time linear in size and ids."""
    buf = bytearray((size + 7) >> 3)
    for i in ids:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def _edge_mask(X: CayleySubgraph) -> int:
    """Edge mask of X: each edge is the bit of its key."""
    k = X.group.n_letters
    return _mask(_edge_keys(k, X.pos_edges), X.group.order() * k)


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
    constellations of G; returns a JSON-ready report.  An unknown mode
    is refused before any group is enumerated."""
    require_choice("mode", mode, MODES)
    if mode == "sampled":
        require_counts(samples=samples, max_len=max_len)
    if mode == "exhaustive":
        # H's budget, then G's edges, from order formulas: neither H nor
        # the morphism is built for a G the scan refuses
        H.formula_order()
        _check_edges(G, edge_budget)
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
    else:
        report.update(samples=samples, max_len=max_len, seed=seed)
        record, label = _lister(report, dis, detail_limit)
        for c, _, _ in sample_constellations(G, random.Random(seed), samples,
                                             max_len):
            mx, mt = _edge_mask(c.X), _edge_mask(c.T)
            meet = dis.lift(mx) & dis.lift(mt) & dis.fiber[c.g]
            record(mx, mt, c.g, meet)
            report["total"] += 1
            report["dissolved"] += not meet
        label()
    if report["total"] - report["dissolved"] > len(report["failures"]):
        report["failures_truncated"] = True
    report["all_dissolved"] = report["dissolved"] == report["total"]
    return report


def _lister(report: dict, dis: Dissolver, detail_limit: Optional[int]
            ) -> Tuple[Callable[[int, int, int, int], None], Callable[[], None]]:
    """(record, label).  record(mx, mt, g, meet) lists the entry of
    (X, g, T), X and T the spans of the edge masks mx and mt, in each
    report list that has room: a counterexample if meet =
    lift_X & lift_T & fiber[g] is nonzero, else dissolved.  It reads
    edge lists, one list per mask, only for an entry it lists.  A listed
    counterexample waits under each of its masks for its witness words u
    and v, which label paths to the lowest H-id of meet inside the lifts
    of X and T, so [u]_H = [v]_H.  label() then searches each waiting
    mask once, writes the words of all its entries and drops the parent
    map, so one map is alive at a time."""
    room = float("inf") if detail_limit is None else detail_limit
    listed, failures = report["constellations"], report["failures"]
    waiting: Dict[int, list] = {}

    @functools.cache
    def edge_list(m: int) -> list:
        """The [[g, a], ...] edges of m, one list for every entry of m."""
        return sorted(map(list, _edge_set(m, dis.G.n_letters)))

    def record(mx: int, mt: int, g: int, meet: int) -> None:
        fail = meet and len(failures) < room
        if not (fail or len(listed) < room):
            return
        entry = {"g": g, "x_edges": edge_list(mx), "t_edges": edge_list(mt),
                 "verdict": "counterexample" if meet else "dissolved"}
        if meet:
            h = (meet & -meet).bit_length() - 1
            for m, side in ((mx, "u"), (mt, "v")):
                waiting.setdefault(m, []).append((entry, side, h))
        if fail:
            failures.append(entry)
        if len(listed) < room:
            listed.append(entry)

    def label() -> None:
        for m in sorted(waiting):
            parent = dis._component(m)
            for entry, side, h in waiting.pop(m):
                entry[side] = word_str(path_label(parent, h), dis.G.alphabet)

    return record, label


def _cut_cover(G: FinGroup, candidates: List[Tuple[int, int]],
               comp0: List[int]) -> Iterator[Tuple[int, int, int]]:
    """The members (x, t, gs) of the cut cover, each pair of edge masks
    (x, t) once, gs the g of the constellations (x, g, t): a family that
    dominates every constellation (X, g, T) of the scan, by a member with
    X in x, T in t and g in gs.

    For each candidate X and each vertex set S of a connected sub-span
    of X that holds 1 ({1}, or the vertex set of a candidate inside X
    that X's edges inside it connect), T* = cut(X, S) is the span of the
    component of 1 in the edges outside X and the edges of X that do not
    cross S, and X** = cut(T*, comp0[X & T*]) is built from T* the same
    way; the member is (X**, T*).

    Proof.  Take S = comp0[X & T], which g is not in: the edges of X & T
    inside S connect it, so it is one of the sets S of X.  No edge of
    X & T crosses S, so every edge of T is outside X or an edge of X that
    does not cross S, and T, connected and holding 1, lies in T*.  The edges
    of X in T* do not cross S, so comp0[X & T*] lies in S, and X lies in
    X** the same way.  No edge of X** & T* crosses comp0[X & T*] either,
    so comp0[X** & T*] lies in S and misses g, while g is a vertex of
    X in X** and of T in T*: (X**, g, T*) is a constellation.  Lifts
    grow with their edge sets, so its meet holds that of (X, g, T), and
    if the member dissolves, so does the constellation."""
    n, k = G.order(), G.n_letters
    ends = _ends(G)
    touching = [_mask((i for i, e in enumerate(ends) if e & vs), n * k)
                for vs in range(1 << n)]    # edges with an end in vs
    every, vertices = (1 << n * k) - 1, (1 << n) - 1

    def cut(m: int, s: int) -> int:
        """The span of the component of 1 in the edges outside m and the
        edges of m that do not cross the vertex mask s."""
        kept = every ^ (m & touching[s] & touching[vertices ^ s])
        return kept & touching[comp0[kept]]

    members, sets = set(), sorted({1} | {v for _, v in candidates})
    for mx, vx in candidates:
        for s in sets:
            if s & ~vx or comp0[mx & ~touching[vertices ^ s]] != s:
                continue                # X's edges inside s miss part of s
            t = cut(mx, s)
            x = cut(t, comp0[mx & t])
            if (x, t) not in members:
                members.add((x, t))
                yield x, t, comp0[x] & comp0[t] & ~comp0[x & t]


def _pair_total(candidates: List[Tuple[int, int]], comp0: List[int],
                width: int) -> int:
    """The number of constellations of all ordered candidate pairs, with
    no pair loop.  comp0[mx & mt] lies in vx & vt, so a pair has
    |vx & vt| - |comp0[mx & mt]| of them, and all pairs
    sum_g c_g^2 - sum_m N(m) |comp0[m]|: c_g counts the candidates that
    hold g, and N(m) the ordered pairs with mx & mt = m.  N is the
    AND-convolution of the candidate masks: their superset sums,
    squared, then inverted by Moebius (the zeta/Moebius pair of fast
    subset convolution), each |width| rounds over 2^width entries."""
    def superset_sums(f: list, op: Callable[[int, int], int]) -> list:
        """f[m] op= f[m | 1 << i] for each bit i below width.  Each round
        moves bit 0 of the index to the top, so that its pairs (m, m | 1)
        are the two halves of the list; width rounds restore the order."""
        half = len(f) // 2
        for _ in range(width):
            f = f[0::2] + f[1::2]
            f[:half] = map(op, f[:half], f[half:])
        return f

    f = list(map({m for m, _ in candidates}.__contains__, range(1 << width)))
    f = superset_sums([x * x for x in superset_sums(f, int.__add__)],
                      int.__sub__)
    held = collections.Counter(v for _, v in candidates)
    return (sum(sum(c for v, c in held.items() if v >> g & 1) ** 2
                for g in range(max(held).bit_length()))
            - sum(x * comp0[m].bit_count() for m, x in enumerate(f) if x))


def _scan_exhaustive(dis: Dissolver, report: dict, edge_budget: int,
                     detail_limit: Optional[int]) -> None:
    """Count and list the constellations of every candidate pair (see
    the module docstring) from the masks and witnesses of dis, reading
    dis.fiber once per g into a list only after the candidate pass has
    admitted G.  over[vs] lists the g of the vertex mask vs ascending,
    and fibers[vs] is the union of their fibers, which settles most
    pairs in one test.  An entry fails iff meet = lx & lt & fiber[g] is
    nonzero.

    The cut cover (`_cut_cover`) decides an all-dissolved scan: if each
    of its members (x, t, gs) has lift_x & lift_t & fibers[gs] == 0,
    every constellation is dissolved, `_pair_total` counts them, and the
    scan lifts no mask outside the cover.  A cost rule, not an option,
    picks the path: the cover runs only where its |E| 2^|E| transform
    costs less than the pair count's candidates^2 / 2 unordered pairs,
    and stops at its first failing member.  The candidate pass has
    checked both budgets before either path starts.

    Otherwise the count visits each unordered pair {X, T} once with
    weight 2, because the g of a pair and the meet of its lifts are
    symmetric in X and T, and a pair X = T has no g.  Then one listing
    walk over the ordered pairs (X, T) and their g ascending gives each
    entry with its meet (0 after the cover) to the report's lister
    (`_lister`), until the constellation list is full and the failure
    list holds as many of the failures as it has room for."""
    G = dis.G
    candidates, comp0 = _candidate_pass(G, edge_budget)
    fiber = [dis.fiber[g] for g in range(G.order())]    # G is admitted
    over, fibers = [()], [0]        # tables for vs < 2^(g + 1)
    for g, f in enumerate(fiber):
        over += [gs + (g,) for gs in over]
        fibers += [x | f for x in fibers]
    width = G.order() * G.n_letters
    covered = width << width < len(candidates) ** 2 // 2 and not any(
        gs and dis.lift(x) & dis.lift(t) & fibers[gs]
        for x, t, gs in _cut_cover(G, candidates, comp0))
    rows = [(m, v, 0 if covered else dis.lift(m)) for m, v in candidates]
    # built after the lifts: built before them, it made the pair count of
    # s3_c3_2.json ->> S3 5% slower (CPython 3.11, 2-core x86-64 host)
    outside = [~c for c in comp0]
    if covered:
        total, failed = _pair_total(candidates, comp0, width), 0
    else:
        total = failed = 0          # over unordered pairs, each worth 2
        for i, (mx, vx, lx) in enumerate(rows):
            for mt, vt, lt in rows[i + 1:]:
                gs = vx & vt & outside[mx & mt]
                if not gs:
                    continue
                total += len(over[gs])
                common = lx & lt & fibers[gs]
                if not common:
                    continue
                for g in over[gs]:
                    if common & fiber[g]:
                        failed += 1
        total, failed = 2 * total, 2 * failed
    report.update(total=total, dissolved=total - failed)
    limit = float("inf") if detail_limit is None else detail_limit
    listed, failures = report["constellations"], report["failures"]
    wanted = min(limit, failed)
    record, label = _lister(report, dis, detail_limit)
    for (mx, vx, lx), (mt, vt, lt) in itertools.product(rows, repeat=2):
        if len(listed) >= limit and len(failures) >= wanted:
            break
        for g in over[vx & vt & outside[mx & mt]]:
            record(mx, mt, g, lx & lt & fiber[g])
    label()
