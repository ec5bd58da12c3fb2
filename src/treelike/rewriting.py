"""Spanning trees of Cayley graphs and rewriting over the kernel basis.

The kernel of the evaluation F ->> G is free; a spanning tree of the
Cayley graph yields a basis with one element per non-tree positive edge
(g, a): the word reading tree-path to g, then a, then tree-path back
from g*a.  Rewriting a closed path over this basis is edge replacement:
tree edges contribute nothing, each non-tree edge contributes its basis
element with the traversal sign.  Consequently the exponent sum of a
basis element in the rewritten word equals the signed traversal count of
its edge, which is what the border certificates consume.

Each group's breadth-first tree is searched once and kept while the
group lives; a tree avoiding two edges is derived from it by at most two
edge exchanges, and basis indices are read by bisection over its sorted
edge keys, so neither a search nor the full index is needed per tree.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, filterfalse, product
from typing import Dict, List, Optional, Sequence, Tuple

from .cayley import Edge, path_label, search, walk
from .groups import FinGroup
from .stallings import LabeledGraph, transition_maps, _sorted
from .words import Word, concat, invert_word


@dataclass(frozen=True)
class SpanningTree:
    """Spanning tree of the Cayley graph rooted at the identity.

    parent[v] = (u, x) with step(u, x) = v for every non-root vertex;
    tree_edges holds the underlying positive edges and keys their sorted
    integer keys g|A| + a - 1, which locate basis indices by bisection.
    """

    group: FinGroup
    tree_edges: frozenset
    parent: tuple  # parent[v] = (u, signed letter) or None at the root
    keys: tuple = field(compare=False, repr=False)

    @cached_property
    def index(self) -> Dict[Edge, int]:
        """Basis index of each non-tree positive edge, in (vertex id,
        letter) order; the kernel basis has exactly these |G|(|A|-1)+1
        elements, so certificates need no basis words."""
        G = self.group
        edges = product(range(G.order()), range(1, G.n_letters + 1))
        return dict(zip(filterfalse(self.tree_edges.__contains__, edges),
                        count()))

    def index_of(self, edge: Edge) -> Optional[int]:
        """index[edge] without building index; None for a tree edge."""
        return _position(self.keys, edge[0] * self.group.n_letters
                         + edge[1] - 1)

    def path_word(self, v: int) -> Word:
        """Label of the tree path from the root to v."""
        return path_label(self.parent, v)


def _position(keys: Sequence[int], key: int) -> Optional[int]:
    """Basis index of the edge with the given key: the key minus the
    number of tree keys below it, or None when the edge is a tree edge."""
    i = bisect_left(keys, key)
    return None if i < len(keys) and keys[i] == key else key - i


# FinGroup -> (tree_edges, parent, keys) of its breadth-first tree; the
# value holds no reference to the group, so the group is not kept alive
_BASES = weakref.WeakKeyDictionary()
_DISCONNECTED = "deleting the given edges disconnects the Cayley graph"


def _base(G: FinGroup) -> Tuple[frozenset, tuple, tuple]:
    """Edge set, parent tuple and sorted edge keys of G's breadth-first
    tree."""
    base = _BASES.get(G)
    if base is None:
        parent = search(G, 0, lambda d: True)
        k = G.n_letters
        edges = frozenset((u, x) if x > 0 else (v, -x)
                          for v, (u, x) in list(parent.items())[1:])
        base = _BASES[G] = (edges, tuple(map(parent.get, sorted(parent))),
                            tuple(sorted(g * k + a - 1 for g, a in edges)))
    return base


def _exchange(G: FinGroup, parent: list, cut: Edge, e: Edge, f: Edge
              ) -> Optional[Edge]:
    """Replace the tree edge cut by the first edge, other than e and f,
    that leaves the subtree below it, scanning that subtree breadth-first
    in row order; the subtree hangs from the new edge by reversing the
    parent pointers from the attaching vertex up to its root.  Returns
    the new edge, or None when cut is not a tree edge."""
    g, a = cut
    h = G.step(g, a)
    if parent[h] == (g, a):
        root = h
    elif parent[g] == (h, -a):
        root = g
    else:
        return None

    def below(v: int) -> bool:
        while v != root:
            if parent[v] is None:
                return False
            v = parent[v][0]
        return True

    rows = G.rows()
    queue = [root]
    for u in queue:
        for x, row in rows:
            v = row[u]
            if parent[v] == (u, x):
                queue.append(v)
                continue
            d = (u, x) if x > 0 else (v, -x)
            if d != e and d != f and not below(v):
                link, cur = (v, -x), u
                while True:
                    link, parent[cur] = parent[cur], link
                    if cur == root:
                        return d
                    cur, link = link[0], (cur, -link[1])
    raise ValueError(_DISCONNECTED)


def spanning_tree_avoiding(G: FinGroup, e: Optional[Edge] = None,
                           f: Optional[Edge] = None) -> SpanningTree:
    """Spanning tree of the Cayley graph minus the (optional) positive
    edges e and f.  Raises if the remaining graph does not span, which
    cannot happen for separated groups (their Cayley graphs stay
    connected after removing any two positive edges).

    The tree is G's breadth-first enumeration tree, built once per group
    and held while G lives, with e and then f exchanged for the first
    edge leaving the subtree each one cuts off; the result depends only
    on G, e and f."""
    if e is not None and e == f:
        raise ValueError("edges must be distinct")
    for d in (e, f):
        if d is not None and not (0 <= d[0] < G.order()
                                  and 0 < d[1] <= G.n_letters):
            raise ValueError("%r is not a positive edge of the Cayley "
                             "graph" % (d,))
    edges, parent, keys = _base(G)
    tree = list(parent)
    swaps = [(d, _exchange(G, tree, d, e, f)) for d in (e, f) if d is not None]
    swaps = [(cut, link) for cut, link in swaps if link is not None]
    if not swaps:
        return SpanningTree(G, edges, parent, keys)
    k, keys = G.n_letters, list(keys)
    for (g, a), (h, b) in swaps:
        del keys[bisect_left(keys, g * k + a - 1)]
        insort(keys, h * k + b - 1)
    cuts, links = zip(*swaps)
    return SpanningTree(G, edges.difference(cuts).union(links), tuple(tree),
                        tuple(keys))


@dataclass(frozen=True)
class BasisWord:
    """Kernel basis element attached to a non-tree positive edge."""

    edge: Edge
    word: Word


def nielsen_basis(G: FinGroup, tree: SpanningTree) -> List[BasisWord]:
    """One basis word per non-tree positive edge, in the order of
    tree.index; there are exactly |G|(|A|-1)+1 of them."""
    basis = []
    for g, a in tree.index:
        w = concat(concat(tree.path_word(g), (a,)),
                   invert_word(tree.path_word(G.step(g, a))))
        basis.append(BasisWord((g, a), w))
    return basis


def rewrite(G: FinGroup, tree: SpanningTree, w: Sequence[int]
            ) -> List[Tuple[int, int]]:
    """Rewrite a closed path at 1 into (basis index, +-1) factors.

    Streams over the walk: tree edges are dropped, every non-tree edge
    (g, a) contributes its basis index tree.index_of((g, a)) with the
    traversal sign; neither a basis word nor the index is built.  The concatenation of the
    corresponding basis words (nielsen_basis) reduces to red(w).
    """
    keys, k = tree.keys, G.n_letters
    out = []
    g = 0
    for (h, a), sign, g in walk(G, 0, w):
        i = _position(keys, h * k + a - 1)
        if i is not None:
            out.append((i, sign))
    if g != 0:
        raise ValueError("word is not a closed path at the identity")
    return out


def exponent_sums(factors: Sequence[Tuple[int, int]]) -> Dict[int, int]:
    """Sparse exponent vector of a rewritten factor sequence."""
    sums: Dict[int, int] = {}
    for i, s in factors:
        sums[i] = sums.get(i, 0) + s
        if sums[i] == 0:
            del sums[i]
    return sums


def expand(factors: Sequence[Tuple[int, int]],
           basis: Sequence[BasisWord]) -> Word:
    """Reduced word of the concatenated basis words."""
    out: Word = ()
    for i, s in factors:
        w = basis[i].word if s > 0 else invert_word(basis[i].word)
        out = concat(out, w)
    return out


def graph_subgroup_basis(A: LabeledGraph) -> List[Word]:
    """Nielsen-style generating words of the subgroup read at the
    basepoint of a folded graph: BFS spanning tree from the basepoint,
    one word per non-tree positive edge."""
    if A.basepoint is None:
        raise ValueError("need a basepointed graph")
    t = transition_maps(A)
    path: Dict[object, Word] = {A.basepoint: ()}
    queue = [A.basepoint]
    tree = set()
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for a in range(1, A.n_letters + 1):
            for x in (a, -a):
                w = t.get((v, x))
                if w is not None and w not in path:
                    path[w] = path[v] + (x,)
                    tree.add((v, a, w) if x > 0 else (w, a, v))
                    queue.append(w)
    if len(path) != len(A.vertices):
        raise ValueError("graph is not connected")
    words = []
    for s, a, d in _sorted(A.pos_edges):
        if (s, a, d) in tree:
            continue
        words.append(concat(concat(path[s], (a,)), invert_word(path[d])))
    return words
