"""The signed walk and the signed transition map.

`cayley.walk` is the one walk of a word through a Cayley graph; path
spans, kernel rewriting and cocycles must read it edge by edge, and a
path span runs over an unenumerated extension level as well.  The
crossed-edge table `FinGroup.edge_rows()`, which searches, spanning
trees and packed extension codes read in place of the walk, must key
the edge that the walk crosses, in the layout of `groups._edge_key`.  The
readers of `stallings.transition_maps` (basis words, canonical forms,
completions, transition groups, the product automaton) are compared
with values frozen in tests/golden/signed_maps.json, and the covering
subgraph with the union of the path spans of readable words.  To
rewrite that file after an intended change of content, run
`PYTHONPATH=src python tests/test_signed_walk.py` from the repository
root.
"""

import json
import random
from pathlib import Path

import pytest

from test_exchange import search_tree
from test_stallings import canonical_form
from treelike.cayley import cayley_graph, covering_subgraph, path_span, walk
from treelike.cli import group_arg
from treelike.extension import ExtContext, extension_group
from treelike.groups import FinGroup, _edge_key, _edge_of, builtin
from treelike.rational import ProductAutomaton
from treelike.rewriting import graph_subgroup_basis, rewrite, spanning_tree_avoiding
from treelike.stallings import (complete_arbitrary, stallings_graph,
                                transition_group, transition_maps)
from treelike.tower import Tower, TowerSpec
from treelike.words import random_reduced_word

GOLDEN = Path(__file__).resolve().parent / "golden" / "signed_maps.json"
GRAPH_SEEDS = range(8)
GROUPS = ("C2xC2", "S3", "D4")
# the golden c16.json has one letter
TABLE_GROUPS = ("C3", "S3", "D4", "A5", "C2xC2^2", "S3^2", "c16.json")


def _folded_graph(seed):
    """Stallings graph of one to three seeded reduced words over {a, b}."""
    rng = random.Random(seed)
    gens = [random_reduced_word(rng, 2, rng.randint(1, 5))
            for _ in range(rng.randint(1, 3))]
    return stallings_graph(gens)


def _signed_map_values(seed) -> dict:
    g = _folded_graph(seed)
    completed = complete_arbitrary(g)
    n, edges, alphabet = canonical_form(g)
    trans = ProductAutomaton([g, _folded_graph(seed + 100)]).trans
    return {"basis": [list(w) for w in graph_subgroup_basis(g)],
            "canonical": [n, sorted(list(e) for e in edges), list(alphabet)],
            "completion": sorted(list(e) for e in completed.pos_edges),
            "transition_perms": [list(p) for p in
                                 transition_group(completed).gens],
            "trans": [[q, x, r] for (q, x), r in trans.items()]}


def _frozen() -> dict:
    return {str(seed): _signed_map_values(seed) for seed in GRAPH_SEEDS}


# -- the walk and its three readers -------------------------------------


def _walk_cases():
    """(group, word) pairs: seeded words, not all reduced or closed."""
    rng = random.Random(7)
    for name in GROUPS:
        G = builtin(name)
        letters = [x for a in range(1, G.n_letters + 1) for x in (a, -a)]
        for _ in range(20):
            yield G, tuple(rng.choice(letters)
                           for _ in range(rng.randint(0, 12)))


def test_walk_steps_signed_edges():
    for G, w in _walk_cases():
        cur = 0
        for x, (edge, sign, nxt) in zip(w, walk(G, 0, w)):
            assert nxt == G.step(cur, x)
            assert (edge, sign) == (((cur, x), 1) if x > 0 else ((nxt, -x), -1))
            cur = nxt


def _table_group(name):
    return group_arg(str(GOLDEN.parent / name) if name.endswith(".json")
                     else name)


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_edge_rows_key_the_edge_walk_crosses(name):
    G = _table_group(name)
    k = G.n_letters
    rows = G.edge_rows()
    assert [(x, row) for x, row, _ in rows] == G.rows()
    for x, row, keys in rows:
        assert len(keys) == G.order()
        for u in range(G.order()):
            [(edge, _, v)] = walk(G, u, (x,))
            assert row[u] == v and keys[u] == _edge_key(k, *edge)


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_edge_keys_round_trip(name):
    """Key -> edge -> key and edge -> key -> edge on every positive
    edge; the keys of the edges (g, a) in sorted order are 0, 1, 2, ..."""
    G = _table_group(name)
    k = G.n_letters
    edges = sorted(cayley_graph(G).pos_edges)
    keys = [_edge_key(k, g, a) for g, a in edges]
    assert keys == list(range(G.order() * k))
    assert [_edge_of(k, key) for key in keys] == edges
    assert [_edge_key(k, *_edge_of(k, key)) for key in keys] == keys


def test_path_span_counts_follow_walk():
    for G, w in _walk_cases():
        counts, end, vertices = {}, 0, {0}
        for edge, sign, end in walk(G, 0, w):
            counts[edge] = counts.get(edge, 0) + sign
            vertices.add(end)
        span, got_end, got = path_span(G, 0, w)
        assert list(got.items()) == list(counts.items())
        assert got_end == end
        assert span.vertices == vertices and span.pos_edges == set(counts)


def test_rewrite_factors_follow_walk():
    rng = random.Random(8)
    for G, w in _walk_cases():
        closed = w + G.witness(G.inv_id(G.evaluate(w)))
        tree = search_tree(G, rng=rng)
        expected = [(tree.index[edge], sign)
                    for edge, sign, _ in walk(G, 0, closed)
                    if edge in tree.index]
        assert rewrite(G, tree, closed) == expected


def _contexts():
    """ExtContexts over an enumerated group and over a level-1 context."""
    yield ExtContext(builtin("S3"), 3)
    yield ExtContext(builtin("D4"), 2)
    yield Tower(TowerSpec(builtin("C2xC2"), (2, 3)))._context(2)


def test_cocycles_follow_walk():
    rng = random.Random(9)
    for ctx in _contexts():
        start = ctx.identity.base
        for _ in range(20):
            w = random_reduced_word(rng, ctx.n_letters, rng.randint(0, 10))
            base, counts = start, {}
            for edge, sign, base in walk(ctx.G, start, w):
                counts[edge] = (counts.get(edge, 0) + sign) % ctx.p
            got = ctx.evaluate(w)
            assert got.base == base
            assert dict(got.cocycle) == {e: c for e, c in counts.items() if c}


@pytest.mark.parametrize("name", GROUPS)
def test_path_span_over_unenumerated_extension(name):
    """path_span walks an ExtContext, which has a step and no step
    tables, and agrees through id_of with the enumerated extension:
    the same vertices, endpoint and signed counts, in walk order."""
    G = builtin(name)
    ctx, H = ExtContext(G, 2), extension_group(G, 2)
    rng = random.Random(10)
    for _ in range(300):
        w = random_reduced_word(rng, G.n_letters, rng.randint(0, 12))
        span, end, counts = path_span(ctx, ctx.identity, w)
        want_span, want_end, want = path_span(H, 0, w)
        assert H.id_of(end) == want_end
        assert {H.id_of(v) for v in span.vertices} == want_span.vertices
        assert [((H.id_of(v), a), c) for (v, a), c in counts.items()] \
            == list(want.items())


@pytest.mark.parametrize("x", (0, 4, -4))
def test_readers_reject_letters_outside_alphabet(x):
    """The alphabet bound is the group's own: letters +-3 pass on three
    letters, and 0 and +-4 fail in the walk and in each reader."""
    G = FinGroup.from_perms(("a", "b", "c"),
                            [(1, 0, 2), (0, 2, 1), (1, 2, 0)], name="S3abc")
    tree = spanning_tree_avoiding(G)
    closed = (3, -3)
    readers = (lambda w: list(walk(G, 0, w)), lambda w: path_span(G, 0, w),
               lambda w: rewrite(G, tree, w),
               lambda w: ExtContext(G, 2).evaluate(w))
    for read in readers:
        read(closed)
        with pytest.raises(ValueError, match="letter %r outside alphabet" % x):
            read((1, x))


# -- the signed transition map ------------------------------------------


def _readable_words(graph, length):
    """Every reduced word of at most `length` letters readable in the
    folded graph from its basepoint."""
    maps = transition_maps(graph)
    words = [()]
    frontier = [((), graph.basepoint)]
    for _ in range(length):
        nxt = []
        for w, v in frontier:
            for x in (1, -1, 2, -2):
                if w and x == -w[-1]:
                    continue
                u = maps.get((v, x))
                if u is not None:
                    nxt.append((w + (x,), u))
        words.extend(w for w, _ in nxt)
        frontier = nxt
    return words


@pytest.mark.parametrize("name", GROUPS)
def test_covering_subgraph_is_union_of_readable_spans(name):
    G = builtin(name)
    for seed in GRAPH_SEEDS:
        graph = _folded_graph(seed)
        vertices, edges = set(), set()
        for w in _readable_words(graph, 6):
            span, _, _ = path_span(G, 0, w)
            vertices |= span.vertices
            edges |= span.pos_edges
        X = covering_subgraph(graph, G)
        assert (X.vertices, X.pos_edges) == (vertices, edges)


def test_signed_map_readers_match_frozen_values():
    assert _frozen() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_frozen(), sort_keys=True) + "\n")
