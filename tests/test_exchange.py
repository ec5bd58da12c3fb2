"""Spanning trees by edge exchange.

`spanning_tree_avoiding(G, e, f)` is the group's base tree, the
breadth-first tree of its enumeration, with e and f exchanged out of it
on an overlay, and basis indices are read by bisection over the base's
sorted tree-edge keys corrected for the swapped keys.  The trees are
checked for being spanning trees that avoid e and f, against the tree
index and the Nielsen basis, against trees built by copying the base
whole, and certificates over them against certificates over a tree
found by a fresh search of the Cayley graph minus e and f
(`search_tree`, the oracle, which other tests also use to draw shuffled
trees).  The base tree is read once per group, runs no search and does
not keep the group alive, and a certificate allocates nothing of the
size of the group.
"""

import gc
import random
import tracemalloc
import weakref

import pytest

from test_golden import CERT_CASES
from treelike import cayley, extension, rewriting
from treelike.cayley import cayley_graph, search
from treelike.constellations import sample_constellations
from treelike.extension import dissolving_certificate, extension_group
from treelike.groups import FinGroup, builtin
from treelike.rewriting import (SpanningTree, expand, nielsen_basis, rewrite,
                                spanning_tree_avoiding)
from treelike.words import concat, invert_word, random_reduced_word, reduce_word

DISCONNECTS = "deleting the given edges disconnects the Cayley graph"
# (group, edge pairs checked)
EXCHANGE_GROUPS = (("C2xC2", 40), ("S3", 40), ("C2xC2^2", 40), ("S3^2", 40),
                   ("C3^3", 40), ("A5", 40), ("D4^2", 8))


def _group(name):
    if "^" in name:
        base, p = name.split("^")
        return extension_group(builtin(base), int(p))
    return builtin(name)


def _cyclic(n):
    return FinGroup.from_perms(("a",), [tuple(range(1, n)) + (0,)],
                               name="C%done" % n)


def _edges(G):
    return sorted(cayley_graph(G).pos_edges)


def search_tree(G, e=None, f=None, rng=None):
    """The breadth-first tree of the Cayley graph minus the (optional)
    edges e and f, by a fresh search that tries the rows in the order 1,
    -1, 2, -2, ...; an rng shuffles the rows at each dequeued vertex, so
    successive calls draw different trees."""
    rows = G.rows()
    parent = {0: None}
    queue = [0]
    for u in queue:
        if rng is not None:
            rng.shuffle(rows)
        for x, row in rows:
            v = row[u]
            d = (u, x) if x > 0 else (v, -x)
            if v not in parent and d != e and d != f:
                parent[v] = (u, x)
                queue.append(v)
    if len(parent) < G.order():
        raise ValueError(DISCONNECTS)
    k = G.n_letters
    edges = [(u, x) if x > 0 else (v, -x)
             for v, (u, x) in list(parent.items())[1:]]
    return SpanningTree(G, tuple(map(parent.get, sorted(parent))),
                        tuple(sorted(g * k + a - 1 for g, a in edges)))


def _check_spanning(G, tree, e=None, f=None):
    """A spanning tree of G rooted at 1 that avoids e and f, whose keys
    and index lookups agree with its edge set."""
    n, k = G.order(), G.n_letters
    assert len(tree.tree_edges) == len(tree.parent) - 1 == n - 1
    assert tree.parent[0] is None
    pointed = set()
    for v in range(1, n):
        u, x = tree.parent[v]
        assert G.step(u, x) == v
        pointed.add((u, x) if x > 0 else (v, -x))
    assert pointed == tree.tree_edges
    for v in range(n):
        seen = 0
        while v:
            v = tree.parent[v][0]
            seen += 1
            assert seen < n
    assert e not in tree.tree_edges and f not in tree.tree_edges
    assert tree.keys == tuple(sorted(g * k + a - 1
                                     for g, a in tree.tree_edges))
    index = tree.index
    assert [tree.index_of(d) for d in _edges(G)] == [index.get(d)
                                                     for d in _edges(G)]


def _subtree(tree, root):
    return {v for v in range(len(tree.parent))
            if root in _ancestors(tree.parent, v)}


def _ancestors(parent, v):
    out = {v}
    while parent[v] is not None:
        v = parent[v][0]
        out.add(v)
    return out


def _tree_edge(tree, v):
    u, x = tree.parent[v]
    return (u, x) if x > 0 else (v, -x)


@pytest.mark.parametrize("name,pairs", EXCHANGE_GROUPS,
                         ids=[name for name, _ in EXCHANGE_GROUPS])
def test_exchanged_trees_span_and_avoid_the_pair(name, pairs):
    G = _group(name)
    base = spanning_tree_avoiding(G)
    _check_spanning(G, base)
    rng = random.Random(17)
    for _ in range(pairs):
        e, f = rng.sample(_edges(G), 2)
        tree = spanning_tree_avoiding(G, e, f)
        _check_spanning(G, tree, e, f)
        # two exchanges at most: only e and f leave the base tree
        assert base.tree_edges - tree.tree_edges == base.tree_edges & {e, f}
        assert len(tree.tree_edges - base.tree_edges) == len(
            base.tree_edges & {e, f})


def test_pairs_near_the_root_and_nested():
    G = _group("C2xC2^2")
    base = spanning_tree_avoiding(G)
    children = [v for v in range(1, G.order()) if base.parent[v][0] == 0]
    for c in children:
        e = _tree_edge(base, c)
        below = sorted(_subtree(base, c) - {c})
        assert below
        # f at the root as well, then f inside e's subtree, near and deep
        for f in ([_tree_edge(base, d) for d in children if d != c]
                  + [_tree_edge(base, below[0]),
                     _tree_edge(base, below[-1])]):
            for pair in ((e, f), (f, e)):
                tree = spanning_tree_avoiding(G, *pair)
                _check_spanning(G, tree, *pair)
                assert len(tree.tree_edges ^ base.tree_edges) == 4


def test_pair_outside_the_tree_keeps_the_base_tree():
    G = _group("S3^2")
    base = spanning_tree_avoiding(G)
    outside = [d for d in _edges(G) if d not in base.tree_edges]
    rng = random.Random(5)
    for _ in range(10):
        e, f = rng.sample(outside, 2)
        tree = spanning_tree_avoiding(G, e, f)
        assert tree == base
        assert tree.parent is base.parent and tree.keys is base.keys


def test_single_edge_and_one_letter_groups():
    C5 = _cyclic(5)
    for e in _edges(C5):
        _check_spanning(C5, spanning_tree_avoiding(C5, e), e)
        _check_spanning(C5, spanning_tree_avoiding(C5, None, e), None, e)
    for e, f in ((d, g) for d in _edges(C5) for g in _edges(C5) if d != g):
        with pytest.raises(ValueError, match="^%s$" % DISCONNECTS):
            spanning_tree_avoiding(C5, e, f)
        for rng in (None, random.Random(0)):
            with pytest.raises(ValueError, match="^%s$" % DISCONNECTS):
                search_tree(C5, e, f, rng)
    C1 = _cyclic(1)
    assert spanning_tree_avoiding(C1, (0, 1)).tree_edges == frozenset()


def test_shuffled_search_trees_span_and_vary():
    # the trees other tests draw with an rng
    G = _group("S3")
    rng = random.Random(4)
    shapes = set()
    for _ in range(20):
        tree = search_tree(G, rng=rng)
        _check_spanning(G, tree)
        shapes.add(tree.tree_edges)
    assert len(shapes) > 1
    assert search_tree(G) == spanning_tree_avoiding(G)


def test_index_lookup_and_round_trip_on_exchanged_trees():
    rng = random.Random(23)
    for name in ("C2xC2", "S3", "D4", "C2xC2^2", "A5"):
        G = _group(name)
        for _ in range(6):
            e, f = rng.sample(_edges(G), 2)
            tree = spanning_tree_avoiding(G, e, f)
            basis = nielsen_basis(G, tree)
            assert [bw.edge for bw in basis] == list(tree.index)
            assert all(tree.index_of(bw.edge) == i
                       for i, bw in enumerate(basis))
            for _ in range(20):
                w = random_reduced_word(rng, G.n_letters, rng.randint(0, 10))
                closed = concat(w, invert_word(tree.path_word(G.evaluate(w))))
                assert (expand(rewrite(G, tree, closed), basis)
                        == reduce_word(closed))


def _certificates(G, pairs):
    targets = (builtin("C3"), builtin("A5"))
    return [dissolving_certificate(G, c, u, v, S)
            for c, u, v in pairs for S in targets]


def _without_tree(cert):
    return {name: getattr(cert, name) for name in cert.__dataclass_fields__
            if name != "tree"}


@pytest.mark.parametrize("name,base,p,count,seed",
                         CERT_CASES + [("d4_2_pairs", "D4", 2, 10, 29)],
                         ids=[case[0] for case in CERT_CASES] + ["d4_2_pairs"])
def test_certificates_match_the_search_oracle(monkeypatch, name, base, p,
                                              count, seed):
    G = extension_group(builtin(base), p)
    pairs = list(sample_constellations(G, random.Random(seed), count))
    got = _certificates(G, pairs)
    with monkeypatch.context() as m:
        m.setattr(extension, "spanning_tree_avoiding", search_tree)
        want = _certificates(G, pairs)
    assert [_without_tree(c) for c in got] == [_without_tree(c) for c in want]
    for cert in got:
        assert cert.e not in cert.tree_edges
        assert cert.f not in cert.tree_edges
        assert len(cert.tree_edges) == G.order() - 1


def test_one_base_search_per_group(monkeypatch):
    """One base tree per group, read off its enumeration: no search."""
    G = extension_group(builtin("S3"), 2)
    pairs = list(sample_constellations(G, random.Random(8), 20))
    built = []

    class Bases(weakref.WeakKeyDictionary):
        def __setitem__(self, key, value):
            built.append(key)
            super().__setitem__(key, value)

    def no_search(*args, **kwargs):
        raise AssertionError("the base tree is read off the enumeration")

    monkeypatch.setattr(rewriting, "_BASES", Bases())
    with monkeypatch.context() as m:
        m.setattr(cayley, "search", no_search)
        m.setattr(rewriting, "search", no_search, raising=False)
        base = spanning_tree_avoiding(G)
    certs = _certificates(G, pairs)
    assert len(certs) == 40 and built == [G]
    parent, keys = rewriting._BASES[G]
    assert base.parent is parent and base.keys is keys


def _certify_and_forget():
    G = extension_group(builtin("C2xC2"), 2)
    for c, u, v in sample_constellations(G, random.Random(3), 3):
        dissolving_certificate(G, c, u, v, builtin("C3"))
    tree = spanning_tree_avoiding(G, (0, 1), (1, 2))
    _check_spanning(G, tree, (0, 1), (1, 2))
    return weakref.ref(G)


def test_base_tree_does_not_keep_the_group_alive():
    ref = _certify_and_forget()
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("name", [name for name, _ in EXCHANGE_GROUPS])
def test_base_tree_is_the_breadth_first_search_tree(name):
    G = _group(name)
    parent, keys = rewriting._base(G)
    want = search_tree(G)
    assert parent == want.parent and keys == want.keys
    searched = search(G, 0, set(range(G.order() * G.n_letters)),
                      G.edge_rows())
    assert parent == tuple(map(searched.get, range(G.order())))
    tree = spanning_tree_avoiding(G)
    assert tree.tree_edges == want.tree_edges and tree == want


# groups whose seeded pairs are checked against a copy-built reference
OVERLAY_GROUPS = ("C2xC2^2", "S3^2", "C3^3", "A5", "D4^2")


def _copy_exchange(G, parent, cut, e, f):
    """The exchange of spanning_tree_avoiding, on a full list copy of the
    parent map: the first edge other than e and f leaving the subtree
    below cut, in breadth-first row order, and the path to it reversed."""
    g, a = cut
    h = G.step(g, a)
    if parent[h] == (g, a):
        root = h
    elif parent[g] == (h, -a):
        root = g
    else:
        return None
    queue = [root]
    for u in queue:
        for x, row in G.rows():
            v = row[u]
            if parent[v] == (u, x):
                queue.append(v)
                continue
            d = (u, x) if x > 0 else (v, -x)
            if d not in (e, f) and root not in _ancestors(parent, v):
                path = [u]
                while path[-1] != root:
                    path.append(parent[path[-1]][0])
                ups = [(v, -x)] + [(w, -parent[w][1]) for w in path[:-1]]
                for w, up in zip(path, ups):
                    parent[w] = up
                return d
    raise ValueError(DISCONNECTS)


def _copy_built(G, e, f):
    """(parent, keys, tree_edges) of the tree avoiding e and f, built by
    copying the base tree's parent map and edge set whole."""
    base = search_tree(G)
    parent, edges = list(base.parent), set(base.tree_edges)
    for d in (e, f):
        link = _copy_exchange(G, parent, d, e, f)
        if link is not None:
            edges.remove(d)
            edges.add(link)
    k = G.n_letters
    return (tuple(parent), tuple(sorted(g * k + a - 1 for g, a in edges)),
            frozenset(edges))


def _seeded_pairs(G, n, seed):
    rng = random.Random(seed)
    edges = _edges(G)
    base = spanning_tree_avoiding(G).tree_edges
    inside = sorted(base)
    pairs = [tuple(rng.sample(edges, 2)) for _ in range(n)]
    # both in the base tree, so that both exchanges swap keys
    pairs += [tuple(rng.sample(inside, 2)) for _ in range(n)]
    return pairs


@pytest.mark.parametrize("name", OVERLAY_GROUPS)
def test_index_of_reads_the_index_on_exchanged_trees(name):
    G = _group(name)
    edges = _edges(G)
    for e, f in _seeded_pairs(G, 3, 41):
        tree = spanning_tree_avoiding(G, e, f)
        index = tree.index
        assert [tree.index_of(d) for d in edges] == [index.get(d)
                                                     for d in edges]


@pytest.mark.parametrize("name", OVERLAY_GROUPS)
def test_lazy_tree_matches_a_copy_built_tree(name):
    G = _group(name)
    for e, f in _seeded_pairs(G, 3, 41):
        tree = spanning_tree_avoiding(G, e, f)
        parent, keys, edges = _copy_built(G, e, f)
        assert tree.parent == parent
        assert tree.keys == keys
        assert tree.tree_edges == edges
        reference = SpanningTree(G, parent, keys)
        assert tree == reference and hash(tree) == hash(reference)
        base = spanning_tree_avoiding(G)
        assert (tree == base) == (not base.tree_edges & {e, f})


def test_d4_squared_certificate_allocates_nothing_group_sized():
    G = _group("D4^2")
    pairs = list(sample_constellations(G, random.Random(29), 3))
    S = builtin("A5")
    for c, u, v in pairs:       # warm-up: base tree, exponent, tables
        dissolving_certificate(G, c, u, v, S)
    c, u, v = pairs[-1]
    tracemalloc.start()
    try:
        cert = dissolving_certificate(G, c, u, v, S)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024
    assert len(cert.tree_edges) == G.order() - 1
