"""Visit order of the Cayley-graph searches.

Spanning trees (plain, and avoiding a seeded edge pair) and the lifted
components behind `dissolves` are compared with values frozen in
tests/golden/search_order.json, so the order in which the search
discovers vertices cannot drift.  A tree avoiding an edge pair is the
plain tree with the two edges exchanged (tests/test_exchange.py checks
it against a fresh search that avoids them), so its frozen entries pin
the exchange order as well.
`components` is checked against an independent union-find, and the
search itself against its contract and against `_predicate_search`, a
reference copy of the earlier search that took a predicate in place of
a set of edge keys and rows of crossed-edge keys.  To rewrite that file after an intended
change of content, run `PYTHONPATH=src python tests/test_search.py`
from the repository root.
"""

import json
import random
from pathlib import Path

import pytest

from treelike.cayley import CayleySubgraph, cayley_graph, components, search
from treelike.constellations import Dissolver
from treelike.extension import extension_group
from treelike.groups import builtin
from treelike.rewriting import spanning_tree_avoiding
from treelike.words import path_label

GOLDEN = Path(__file__).resolve().parent / "golden" / "search_order.json"
TREE_GROUPS = ("S3", "D4", "C2xC2^2")
TREE_SEEDS = range(4)


def _group(name):
    if name.endswith("^2"):
        return extension_group(builtin(name[:-2]), 2)
    return builtin(name)


def _edges(G):
    return sorted(cayley_graph(G).pos_edges)


def _key(k, g, a):
    """The key g|A| + a - 1 of the positive edge (g, a) over k letters."""
    return g * k + a - 1


def _keys(G, edges):
    return {_key(G.n_letters, g, a) for g, a in edges}


def _trees(name) -> dict:
    """Parent tuples of spanning trees of one group, keyed by case."""
    G = _group(name)
    out = {"plain": spanning_tree_avoiding(G).parent}
    for seed in TREE_SEEDS:
        e, f = random.Random(seed).sample(_edges(G), 2)
        out["avoid%d" % seed] = spanning_tree_avoiding(G, e, f).parent
    return {case: [None if p is None else list(p) for p in parent]
            for case, parent in out.items()}


def _lifts() -> list:
    """Parent items of the lift of every edge mask of C2xC2 to C2xC2^2,
    in discovery order."""
    G = builtin("C2xC2")
    dis = Dissolver(extension_group(G, 2), G)
    return [[[v, p] for v, p in dis._component(m).items()]
            for m in range(1 << G.order() * G.n_letters)]


def _frozen() -> dict:
    return json.loads(json.dumps(
        {"trees": {name: _trees(name) for name in TREE_GROUPS},
         "lifts": _lifts()}))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", TREE_GROUPS)
def test_spanning_tree_order_is_frozen(golden, name):
    assert json.loads(json.dumps(_trees(name))) == golden["trees"][name]


def test_lift_order_is_frozen(golden):
    assert json.loads(json.dumps(_lifts())) == golden["lifts"]


def _union_find_components(X):
    parent = {v: v for v in X.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for g, a in X.pos_edges:
        parent[find(g)] = find(X.group.step(g, a))
    classes = {}
    for v in X.vertices:
        classes.setdefault(find(v), set()).add(v)
    return sorted((frozenset(c) for c in classes.values()), key=min)


@pytest.mark.parametrize("name", ("C2xC2", "S3", "D4", "C2xC2^2"))
def test_components_match_union_find(name):
    G = _group(name)
    edges = _edges(G)
    rng = random.Random(11)
    for _ in range(40):
        keep = rng.random()
        sub = [e for e in edges if rng.random() < keep]
        verts = {v for g, a in sub for v in (g, G.step(g, a))}
        verts |= {v for v in range(G.order()) if rng.random() < 0.1}
        X = CayleySubgraph(G, verts, sub)
        assert components(X) == _union_find_components(X)


def test_rows_are_the_step_tables():
    G = _group("S3")
    rows = G.rows()
    assert [x for x, _ in rows] == [1, -1, 2, -2]
    assert all(row[i] == G.step(i, x)
               for x, row in rows for i in range(G.order()))


class _CountingSet(set):
    """A set that records each edge looked up in it."""

    def __init__(self, edges):
        super().__init__(edges)
        self.asked = []

    def __contains__(self, e):
        self.asked.append(e)
        return super().__contains__(e)


@pytest.mark.parametrize("name", ("S3", "D4", "C2xC2^2"))
def test_search_parent_map(name):
    G = _group(name)
    root = G.order() - 1
    edges = _CountingSet(_keys(G, _edges(G)))
    parent = search(G, root, edges, G.edge_rows())
    # only edges to unseen vertices are looked up, so each discovers one
    assert len(edges.asked) == G.order() - 1
    assert next(iter(parent)) == root and parent[root] is None
    for v, p in parent.items():
        if p is not None:
            assert G.step(*p) == v
            assert list(parent).index(p[0]) < list(parent).index(v)
        assert G.mul_ids(root, G.evaluate(path_label(parent, v))) == v
    assert path_label(parent, root) == ()


def test_search_admits_only_accepted_edges():
    G = _group("D4")
    blocked = set(random.Random(3).sample(_edges(G), 6))
    parent = search(G, 0, _keys(G, set(_edges(G)) - blocked), G.edge_rows())
    for v, p in parent.items():
        if p is not None:
            u, x = p
            assert ((u, x) if x > 0 else (v, -x)) not in blocked


def _predicate_search(G, root, admit):
    """The search as it was before it took an edge set and a morphism:
    admit is asked about each positive edge to an unseen vertex."""
    rows = G.rows()
    parent = {root: None}
    queue = [root]
    for u in queue:
        for x, row in rows:
            v = row[u]
            if v not in parent and admit((u, x) if x > 0 else (v, -x)):
                parent[v] = (u, x)
                queue.append(v)
    return parent


def _seeded_edge_sets(G, seed, count=30):
    """count seeded random sets of positive edges of the Cayley graph of
    G, from nearly empty to nearly full."""
    edges = _edges(G)
    rng = random.Random(seed)
    return [{e for e in edges if rng.random() < keep}
            for keep in (rng.random() for _ in range(count))]


def _same_search(H, root, edges, phi, rows):
    """Assert that search through rows and the reference, which maps
    each edge by phi, give the same parent map in the same order, and
    look up the keys of the same images in the same order."""
    looked = _CountingSet(_keys(H, edges))
    admitted = []
    parent = search(H, root, looked, rows)
    want = _predicate_search(
        H, root, lambda e: admitted.append(_key(H.n_letters, phi[e[0]], e[1]))
        or (phi[e[0]], e[1]) in edges)
    assert list(parent.items()) == list(want.items())
    assert looked.asked == admitted


@pytest.mark.parametrize("name", ("C3", "S3", "D4", "C2xC2^2"))
def test_search_matches_reference_on_subgraphs(name):
    G = _group(name)
    rng = random.Random(23)
    for edges in _seeded_edge_sets(G, 17):
        _same_search(G, rng.randrange(G.order()), edges, range(G.order()),
                     G.edge_rows())


@pytest.mark.parametrize("name", ("C3^2", "S3^2", "C2xC2^2"))
def test_search_matches_reference_on_lifts(name):
    """Lifts to H = G^2, the universal C_2-extension of G, searched
    through Dissolver's own rows: an inverse letter x < 0 from u to v
    reads the edge (phi[v], -x), not (phi[u], -x)."""
    G, H = builtin(name[:-2]), _group(name)
    phi = H.canonical_morphism_to(G)
    rows = Dissolver(H, G)._rows
    rng = random.Random(29)
    for edges in _seeded_edge_sets(G, 19):
        _same_search(H, 0, edges, phi, rows)
        _same_search(H, rng.randrange(H.order()), edges, phi, rows)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_frozen(), sort_keys=True) + "\n")
