"""Spanning trees of Cayley graphs and rewriting over the kernel basis.

The kernel of the evaluation F ->> G is free; a spanning tree of the
Cayley graph yields a basis with one element per non-tree positive edge
(g, a): the word reading tree-path to g, then a, then tree-path back
from g*a.  Rewriting a closed path over this basis is edge replacement:
tree edges contribute nothing, each non-tree edge contributes its basis
element with the traversal sign.  Consequently the exponent sum of a
basis element in the rewritten word equals the signed traversal count of
its edge, which is what the border certificates consume.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import count, filterfalse, product
from typing import Dict, List, Optional, Sequence, Tuple

from .cayley import Edge, path_label, search, walk
from .groups import FinGroup
from .stallings import LabeledGraph, transition_maps, _sorted
from .words import Word, concat, invert_word


@dataclass(frozen=True)
class SpanningTree:
    """BFS spanning tree of the Cayley graph rooted at the identity.

    parent[v] = (u, x) with step(u, x) = v for every non-root vertex;
    tree_edges holds the underlying positive edges.
    """

    group: FinGroup
    tree_edges: frozenset
    parent: tuple  # parent[v] = (u, signed letter) or None at the root

    @cached_property
    def index(self) -> Dict[Edge, int]:
        """Basis index of each non-tree positive edge, in (vertex id,
        letter) order; the kernel basis has exactly these |G|(|A|-1)+1
        elements, so certificates need no basis words."""
        G = self.group
        edges = product(range(G.order()), range(1, G.n_letters + 1))
        return dict(zip(filterfalse(self.tree_edges.__contains__, edges),
                        count()))

    def path_word(self, v: int) -> Word:
        """Label of the tree path from the root to v."""
        return path_label(self.parent, v)


def spanning_tree_avoiding(G: FinGroup, e: Optional[Edge] = None,
                           f: Optional[Edge] = None,
                           rng: Optional[random.Random] = None
                           ) -> SpanningTree:
    """BFS spanning tree of the Cayley graph minus the (optional) edge
    pairs e, f.  Raises if the remaining graph does not span, which
    cannot happen for separated groups (their Cayley graphs stay
    connected after removing any two positive edges).  An rng shuffles
    the neighbor exploration order to vary the tree."""
    if e is not None and e == f:
        raise ValueError("edges must be distinct")
    parent = search(G, 0, lambda d: d != e and d != f, rng)
    if len(parent) < G.order():
        raise ValueError("deleting the given edges disconnects the Cayley "
                         "graph")
    tree_edges = frozenset((u, x) if x > 0 else (v, -x)
                           for v, (u, x) in list(parent.items())[1:])
    return SpanningTree(G, tree_edges, tuple(map(parent.get, sorted(parent))))


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


def basis_index(basis: Sequence[BasisWord]) -> Dict[Edge, int]:
    return {bw.edge: i for i, bw in enumerate(basis)}


def rewrite(G: FinGroup, tree: SpanningTree, w: Sequence[int]
            ) -> List[Tuple[int, int]]:
    """Rewrite a closed path at 1 into (basis index, +-1) factors.

    Streams over the walk: tree edges are dropped, every non-tree edge
    (g, a) contributes its basis index tree.index[(g, a)] with the
    traversal sign; no basis word is built.  The concatenation of the
    corresponding basis words (nielsen_basis) reduces to red(w).
    """
    index = tree.index
    out = []
    g = 0
    for edge, sign, g in walk(G, 0, w):
        i = index.get(edge)
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
