import random

import pytest

from treelike.cayley import (
    CayleySubgraph,
    borders,
    cayley_graph,
    component_of,
    components,
    connected_without_two_edges,
    covering_subgraph,
    intersect,
    path_span,
    subgraph_to_dot,
    translate,
    union,
)
from treelike.extension import ExtContext
from treelike.groups import FinGroup, builtin
from treelike.stallings import LabeledGraph, stallings_graph
from treelike.words import parse_word, random_reduced_word

A = 1
B = 2


def _trivial_group():
    return FinGroup.from_perms(("a", "b"), [(0,), (0,)], name="1")


def test_cayley_graph_sizes():
    X = cayley_graph(builtin("C2xC2"))
    assert len(X.vertices) == 4 and len(X.pos_edges) == 8
    Y = cayley_graph(builtin("C3"))
    assert len(Y.vertices) == 3 and len(Y.pos_edges) == 6
    point = cayley_graph(_trivial_group())
    assert point.vertices == frozenset({0})
    assert point.pos_edges == frozenset({(0, 1), (0, 2)})


def test_subgraph_validation():
    G = builtin("C2xC2")
    with pytest.raises(ValueError, match="endpoint outside"):
        CayleySubgraph(G, {0}, {(0, 1)})
    X = cayley_graph(G)
    assert (0, 1) in X
    assert X.dst((0, 1)) == G.evaluate((1,))
    with pytest.raises(ValueError, match="^vertex 4 not in subgraph$"):
        component_of(X, 4)
    # over an unenumerated level the vertices are ExtElements
    ctx = ExtContext(G, 2)
    one = ctx.identity
    with pytest.raises(ValueError, match="endpoint outside"):
        CayleySubgraph(ctx, {one}, {(one, 1)})
    Y, _, _ = path_span(ctx, one, (1,))
    with pytest.raises(ValueError, match="not in subgraph"):
        component_of(Y, ctx.letter(2))


def test_path_span_cancelling_pair():
    G = builtin("C2xC2")
    X, end, counts = path_span(G, 0, parse_word("a a^-1"))
    assert end == 0
    assert counts == {(0, A): 0}
    assert X.vertices == frozenset({0, G.evaluate((1,))})
    assert X.pos_edges == frozenset({(0, A)})


def test_path_span_two_letters():
    G = builtin("C2xC2")
    ga = G.evaluate((1,))
    gab = G.evaluate((1, 2))
    X, end, counts = path_span(G, 0, parse_word("a b"))
    assert end == gab
    assert counts == {(0, A): 1, (ga, B): 1}
    assert X.vertices == frozenset({0, ga, gab})


def test_path_span_revisits_edge():
    G = builtin("C2xC2")
    ga = G.evaluate((1,))
    X, end, counts = path_span(G, 0, parse_word("a^3"))
    assert end == ga
    assert counts == {(0, A): 2, (ga, A): 1}


def test_path_span_inverse_steps():
    G = builtin("C3")
    ga = G.evaluate((1,))
    X, end, counts = path_span(G, 0, parse_word("a^-1"))
    inv = G.inv_id(ga)
    assert end == inv
    assert counts == {(inv, A): -1}


def test_covering_subgraph_of_full_graph():
    G = builtin("C2xC2")
    full = LabeledGraph(frozenset(range(4)),
                        {(g, a, G.step(g, a)) for g in range(4)
                         for a in (1, 2)},
                        basepoint=0, alphabet=G.alphabet)
    X = covering_subgraph(full, G)
    assert X.vertices == cayley_graph(G).vertices
    assert X.pos_edges == cayley_graph(G).pos_edges


def test_covering_subgraph_frozen():
    G = builtin("C2xC2")
    gb = G.evaluate((2,))
    graph = stallings_graph([parse_word("a^2"), parse_word("a b a^-1")])
    X = covering_subgraph(graph, G)
    assert X.vertices == frozenset(range(4))
    assert X.pos_edges == cayley_graph(G).pos_edges - {(0, B), (gb, B)}


def test_covering_subgraph_single_loop():
    G = builtin("C2xC2")
    ga = G.evaluate((1,))
    loop = LabeledGraph({0}, {(0, 1, 0)}, basepoint=0, alphabet=("a", "b"))
    X = covering_subgraph(loop, G)
    assert X.vertices == frozenset({0, ga})
    assert X.pos_edges == frozenset({(0, A), (ga, A)})


def test_covering_subgraph_contains_readable_spans():
    rng = random.Random(5)
    G = builtin("D4")
    graph = stallings_graph([parse_word("a^2"), parse_word("b a b^-1")])
    X = covering_subgraph(graph, G)
    from treelike.stallings import transition_maps
    maps = transition_maps(graph)
    for _ in range(200):
        w = []
        cur = graph.basepoint
        for _ in range(rng.randint(1, 10)):
            choices = [x for x in (1, 2, -1, -2)
                       if maps.get((cur, x)) is not None]
            if not choices:
                break
            x = rng.choice(choices)
            w.append(x)
            cur = maps[(cur, x)]
        span, _, _ = path_span(G, 0, w)
        assert span.pos_edges <= X.pos_edges
        assert span.vertices <= X.vertices


def test_covering_subgraph_errors():
    G = builtin("C2xC2")
    with pytest.raises(ValueError, match="needs a basepointed"):
        covering_subgraph(LabeledGraph({0}, {(0, 1, 0)}), G)
    wide = LabeledGraph({0}, set(), basepoint=0, alphabet=("a", "b", "c"))
    with pytest.raises(ValueError, match="alphabet sizes differ"):
        covering_subgraph(wide, G)


def test_components():
    G = builtin("C2xC2")
    full = cayley_graph(G)
    assert components(full) == [full.vertices]
    scattered = CayleySubgraph(G, {0, 3}, set())
    assert components(scattered) == [frozenset({0}), frozenset({3})]
    assert component_of(scattered, 3) == frozenset({3})
    with pytest.raises(ValueError, match="not in subgraph"):
        component_of(scattered, 1)


def test_components_of_span_intersection():
    G = builtin("C2xC2")
    gab = G.evaluate((1, 2))
    X, _, _ = path_span(G, 0, parse_word("a b"))
    T, _, _ = path_span(G, 0, parse_word("b a"))
    Z = intersect(X, T)
    assert Z.vertices == frozenset({0, gab})
    assert Z.pos_edges == frozenset()
    assert components(Z) == [frozenset({0}), frozenset({gab})]


def test_borders_frozen():
    G = builtin("C2xC2")
    ga, gb, gab = (G.evaluate(w) for w in ((1,), (2,), (1, 2)))
    full = cayley_graph(G)
    D, C = borders(full, {0})
    assert D == frozenset({(0, A), (0, B)})
    assert C == frozenset({(ga, A), (gb, B)})
    D, C = borders(full, {0, ga})
    assert D == frozenset({(0, B), (ga, B)})
    assert C == frozenset({(gb, B), (gab, B)})
    X, _, _ = path_span(G, 0, parse_word("a b"))
    D, C = borders(X, {0})
    assert D == frozenset({(0, A)})
    assert C == frozenset()
    with pytest.raises(ValueError, match="subset of the vertices"):
        borders(X, {0, gb})


def test_border_flow_counts_one():
    # a path from inside Z to outside crosses the border with net flow 1
    rng = random.Random(23)
    for name in ("C2xC2", "S3", "D4"):
        G = builtin(name)
        for _ in range(100):
            w = random_reduced_word(rng, 2, rng.randint(1, 12))
            X, end, counts = path_span(G, 0, w)
            if end == 0:
                continue
            inner = [v for v in X.vertices if v not in (0, end)]
            Z = {0} | {v for v in inner if rng.random() < 0.5}
            D, C = borders(X, Z)
            flow = (sum(counts[e] for e in D)
                    - sum(counts[e] for e in C))
            assert flow == 1


def test_connected_without_two_edges():
    G = builtin("C2xC2")
    edges = sorted(cayley_graph(G).pos_edges)
    pairs = [(e, f) for i, e in enumerate(edges) for f in edges[i + 1:]]
    assert len(pairs) == 28
    assert all(connected_without_two_edges(G, e, f) for e, f in pairs)
    S3 = builtin("S3")
    s3_edges = sorted(cayley_graph(S3).pos_edges)
    s3_pairs = [(e, f) for i, e in enumerate(s3_edges) for f in s3_edges[i + 1:]]
    assert len(s3_pairs) == 66
    assert all(connected_without_two_edges(S3, e, f) for e, f in s3_pairs)
    with pytest.raises(ValueError, match="must be distinct"):
        connected_without_two_edges(G, (0, A), (0, A))
    with pytest.raises(ValueError, match="separated generation"):
        connected_without_two_edges(builtin("C2"), (0, A), (0, B))


def test_connected_without_two_edges_refuses_non_edges():
    """Non-edges are refused as spanning_tree_avoiding refuses them, not
    read as two edges whose deletion changes nothing."""
    S3 = builtin("S3")
    for e, f, bad in (((0, 5), (99, 1), (0, 5)), ((0, 1), (99, 1), (99, 1)),
                      ((6, 1), (0, 1), (6, 1)), ((0, 1), (0, 0), (0, 0))):
        with pytest.raises(ValueError, match=r"^\(%d, %d\) is not a "
                           "positive edge of the Cayley graph$" % bad):
            connected_without_two_edges(S3, e, f)


def test_translate():
    G = builtin("S3")
    X, _, _ = path_span(G, 0, parse_word("a b"))
    assert translate(0, X) == X
    g = G.evaluate((2, 1))
    moved = translate(g, X)
    assert moved.vertices == frozenset(G.mul_ids(g, v) for v in X.vertices)
    back = translate(G.inv_id(g), moved)
    assert back == X


def test_intersect_union_algebra():
    G = builtin("C2xC2")
    X, _, _ = path_span(G, 0, parse_word("a b"))
    Y, _, _ = path_span(G, 0, parse_word("b a"))
    assert intersect(X, Y) == intersect(Y, X)
    assert union(X, Y) == union(Y, X)
    assert intersect(X, union(X, Y)) == X
    assert union(X, intersect(X, Y)).vertices == X.vertices
    other = cayley_graph(builtin("C3"))
    with pytest.raises(ValueError, match="different groups"):
        intersect(X, other)
    with pytest.raises(ValueError, match="different groups"):
        union(X, other)


def test_subgraph_to_dot_smoke():
    G = builtin("C2xC2")
    X = cayley_graph(G)
    D, C = borders(X, {0})
    text = subgraph_to_dot(X, name="full", z={0}, d_edges=D, c_edges=C)
    assert text.startswith("digraph full {")
    assert "fillcolor=lightblue" in text
    assert "color=red" in text and "color=blue" in text
    assert text.rstrip().endswith("}")
