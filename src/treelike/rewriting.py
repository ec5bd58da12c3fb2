"""Spanning trees of Cayley graphs and rewriting over the kernel basis.

The kernel of the evaluation F ->> G is free; a spanning tree of the
Cayley graph yields a basis with one element per non-tree positive edge
(g, a): the word reading tree-path to g, then a, then tree-path back
from g*a.  Rewriting a closed path over this basis is edge replacement:
tree edges contribute nothing, each non-tree edge contributes its basis
element with the traversal sign.  Consequently the exponent sum of a
basis element in the rewritten word equals the signed traversal count of
its edge, which is what the border certificates consume.

Each group's base tree is the breadth-first tree of its own
enumeration, the group's parents() tuple itself; its edge keys, read
off the group's crossed-edge table (`groups`, the one home of the
edge-key layout), are sorted once per group and kept while the group
lives, so no search of the Cayley graph runs and no word is built.
Every other tree is that base plus at most two edge exchanges.  An
exchange writes the few parent entries it reverses into a small overlay,
and basis indices are read by bisection over the base's sorted edge
keys, corrected for the swapped keys, so a tree costs its exchanges
rather than |G|.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import count, filterfalse, product
from typing import Dict, List, Optional, Sequence, Tuple

from .cayley import Edge, _check_edge_pair, walk
from .groups import FinGroup, _edge_key, _edge_keys, _edge_of
from .stallings import LabeledGraph, _sorted, breadth_first, transition_maps
from .words import Word, concat, invert_word, path_label


class SpanningTree:
    """Spanning tree of the Cayley graph rooted at the identity: a base
    tree, given by its parent tuple and sorted edge keys, with an
    overlay {v: parent} of the entries its exchanges reversed and the
    (cut key, link key) pairs they swapped.

    parent[v] = (u, x) with step(u, x) = v for every non-root vertex;
    tree_edges holds the underlying positive edges and keys their sorted
    integer keys (`groups._edge_key`).  tree_edges, keys, parent and index are
    derived on demand; a tree without exchanges hands out its base's
    tuples.
    Two trees are equal when their groups and parent maps are.
    """

    def __init__(self, group: FinGroup, parent: tuple, keys: tuple,
                 overlay: Optional[Dict[int, tuple]] = None,
                 swaps: Sequence[Tuple[int, int]] = ()):
        self.group = group
        self._k = group.n_letters
        self._base_parent, self._base_keys = parent, keys
        self._overlay = overlay or {}
        self._swaps = tuple(swaps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpanningTree):
            return NotImplemented
        return self.group is other.group and self.parent == other.parent

    def __hash__(self) -> int:
        return hash((self.group, self.parent))

    @cached_property
    def parent(self) -> tuple:
        """parent[v] = (u, signed letter), None at the root."""
        if not self._overlay:
            return self._base_parent
        parent = list(self._base_parent)
        for v, up in self._overlay.items():
            parent[v] = up
        return tuple(parent)

    @cached_property
    def keys(self) -> tuple:
        """Sorted keys of the tree edges."""
        if not self._swaps:
            return self._base_keys
        keys = list(self._base_keys)
        for cut, link in self._swaps:
            del keys[bisect_left(keys, cut)]
            insort(keys, link)
        return tuple(keys)

    @cached_property
    def tree_edges(self) -> frozenset:
        """The positive edges of the tree."""
        return frozenset(map(partial(_edge_of, self._k), self.keys))

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
        """index.get(edge) without building index: the edge's key minus
        the number of tree keys below it, or None for a tree edge.  The
        base keys below it are counted by bisection, then each swap
        takes its cut key out and puts its link key in."""
        key = _edge_key(self._k, *edge)
        keys = self._base_keys
        i = bisect_left(keys, key)
        tree = i < len(keys) and keys[i] == key
        for cut, link in self._swaps:
            if key == cut:
                tree = False
            elif key == link:
                tree = True
            i += (link < key) - (cut < key)
        return None if tree else key - i

    def path_word(self, v: int) -> Word:
        """Label of the tree path from the root to v."""
        return path_label(self.parent, v)


# FinGroup -> (parent, keys) of its base tree; the value holds no
# reference to the group, so the group is not kept alive
_BASES = weakref.WeakKeyDictionary()
_DISCONNECTED = "deleting the given edges disconnects the Cayley graph"


def _base(G: FinGroup) -> Tuple[tuple, tuple]:
    """G.parents(), the tree of G's enumeration, which is the tree a
    breadth-first search from 1 trying the rows in the order 1, -1, 2,
    -2, ... would find, and the sorted keys of its edges, read off G's
    `edge_rows()`."""
    base = _BASES.get(G)
    if base is None:
        parent = G.parents()
        crossed = {x: keys for x, _, keys in G.edge_rows()}
        keys = sorted(crossed[x][u] for u, x in parent[1:])
        base = _BASES[G] = (parent, tuple(keys))
    return base


def _exchange(G: FinGroup, base: tuple, overlay: dict, cut: Edge,
              avoid: set) -> Optional[int]:
    """Replace the tree edge cut of the tree base + overlay by the first
    edge, other than the edges of the keys in avoid, that leaves the
    subtree below it, scanning that subtree breadth-first in row order;
    the subtree hangs from the new edge by reversing the parent pointers
    from the attaching vertex up to its root, which are written into
    overlay.  Returns the key of the new edge, or None when cut is not a
    tree edge."""

    def parent(v: int) -> Optional[tuple]:
        return overlay.get(v) or base[v]

    g, a = cut
    h = G.step(g, a)
    if parent(h) == (g, a):
        root = h
    elif parent(g) == (h, -a):
        root = g
    else:
        return None

    def below(v: int) -> bool:
        while v != root:
            up = parent(v)
            if up is None:
                return False
            v = up[0]
        return True

    rows = G.edge_rows()
    queue = [root]
    for u in queue:
        for x, row, keys in rows:
            v = row[u]
            if parent(v) == (u, x):
                queue.append(v)
                continue
            if keys[u] not in avoid and not below(v):
                link, cur = (v, -x), u
                while True:
                    link, overlay[cur] = parent(cur), link
                    if cur == root:
                        return keys[u]
                    cur, link = link[0], (cur, -link[1])
    raise ValueError(_DISCONNECTED)


def spanning_tree_avoiding(G: FinGroup, e: Optional[Edge] = None,
                           f: Optional[Edge] = None) -> SpanningTree:
    """Spanning tree of the Cayley graph minus the (optional) positive
    edges e and f.  Raises if the remaining graph does not span, which
    cannot happen for separated groups (their Cayley graphs stay
    connected after removing any two positive edges).

    The tree is G's base tree, read off its enumeration once and held
    while G lives, with e and then f exchanged for the first edge leaving the
    subtree each one cuts off; the result depends only on G, e and f,
    and copies nothing of the size of G."""
    _check_edge_pair(G, e, f)
    parent, keys = _base(G)
    avoid = _edge_keys(G.n_letters, filter(None, (e, f)))
    overlay: Dict[int, tuple] = {}
    swaps = []
    for d in filter(None, (e, f)):
        link = _exchange(G, parent, overlay, d, avoid)
        if link is not None:
            swaps.append((_edge_key(G.n_letters, *d), link))
    return SpanningTree(G, parent, keys, overlay, swaps)


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
    contributes its basis index tree.index_of(edge) with the traversal
    sign; neither a basis word nor the index is built.  The
    concatenation of the corresponding basis words (nielsen_basis)
    reduces to red(w).
    """
    index_of = tree.index_of
    out = []
    g = 0
    for edge, sign, g in walk(G, 0, w):
        i = index_of(edge)
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
    parent = breadth_first(
        [A.basepoint],
        lambda v: [(t[(v, x)], x) for a in range(1, A.n_letters + 1)
                   for x in (a, -a) if (v, x) in t])
    if len(parent) != len(A.vertices):
        raise ValueError("graph is not connected")
    # the first entry is the basepoint, the root
    tree = {(u, x, v) if x > 0 else (v, -x, u)
            for v, (u, x) in list(parent.items())[1:]}
    words = []
    for s, a, d in _sorted(A.pos_edges):
        if (s, a, d) in tree:
            continue
        words.append(concat(concat(path_label(parent, s), (a,)),
                            invert_word(path_label(parent, d))))
    return words
