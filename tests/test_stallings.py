import json
import random

import pytest

from treelike.groups import FinGroup, builtin, canonical_morphism
from treelike.stallings import (
    LabeledGraph,
    bouquet,
    complete_arbitrary,
    core,
    fold,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    is_complete,
    is_connected,
    is_folded,
    member,
    read_word,
    schreier,
    stallings_graph,
    transition_group,
    transition_maps,
)
from treelike.words import concat, parse_word, random_reduced_word, reduce_word

A = 1
B = 2

GENS = [parse_word("a^2"), parse_word("a b a^-1")]


def canonical_form(g: LabeledGraph) -> tuple:
    """Canonical value for folded connected basepointed graphs: vertices
    renumbered by BFS from the basepoint following letters in order.
    Two such graphs are isomorphic (as labelled basepointed graphs) iff
    their canonical forms are equal."""
    if g.basepoint is None:
        raise ValueError("canonical form needs a basepoint")
    t = transition_maps(g)
    number = {g.basepoint: 0}
    queue = [g.basepoint]
    while queue:
        v = queue.pop(0)
        for a in range(1, g.n_letters + 1):
            for x in (a, -a):
                w = t.get((v, x))
                if w is not None and w not in number:
                    number[w] = len(number)
                    queue.append(w)
    if len(number) != len(g.vertices):
        raise ValueError("graph is not connected")
    edges = frozenset((number[s], a, number[d]) for s, a, d in g.pos_edges)
    return (len(number), edges, g.alphabet)


def _cayley_as_graph(G):
    edges = {(g, a, G.step(g, a))
             for g in range(G.order()) for a in range(1, G.n_letters + 1)}
    return LabeledGraph(frozenset(range(G.order())), edges,
                        basepoint=0, alphabet=G.alphabet)


def _subgroup_size(G, gens):
    ids = {G.evaluate(w) for w in gens} | {0}
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in ids:
            for z in (G.mul_ids(x, y), G.mul_ids(x, G.inv_id(y))):
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
    return len(seen)


def test_labeled_graph_validation():
    with pytest.raises(ValueError, match="outside alphabet"):
        LabeledGraph({0}, {(0, 3, 0)})
    with pytest.raises(ValueError, match="endpoint outside vertex set"):
        LabeledGraph({0}, {(0, 1, 1)})
    with pytest.raises(ValueError, match="not a vertex"):
        LabeledGraph({0}, set(), basepoint=7)
    g = LabeledGraph({0, 1}, {(0, 1, 0), (0, 2, 1)}, basepoint=0)
    assert g.n_letters == 2
    assert g.degree(0) == 3 and g.degree(1) == 1


def test_predicates():
    raw = bouquet([parse_word("a b"), parse_word("a b^-1")])
    assert not is_folded(raw)
    assert is_folded(fold(raw))
    loops = LabeledGraph({0}, {(0, 1, 0), (0, 2, 0)}, basepoint=0)
    assert is_complete(loops)
    assert not is_complete(fold(raw))
    # every vertex has degree 2|A|, but two a-edges leave 0: not folded
    twin = LabeledGraph({0, 1}, {(0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 2, 1)},
                        basepoint=0)
    assert {twin.degree(v) for v in twin.vertices} == {2 * twin.n_letters}
    assert not is_folded(twin) and not is_complete(twin)
    assert is_connected(loops)
    assert not is_connected(LabeledGraph({0, 1}, {(0, 1, 0)}))
    assert is_connected(LabeledGraph(set(), set()))


def test_bouquet_shape():
    g = bouquet([parse_word("a b")])
    assert g.vertices == frozenset({0, 1})
    assert g.pos_edges == frozenset({(0, 1, 1), (1, 2, 0)})
    assert g.basepoint == 0
    # an inverse-letter loop is stored as its positive twin
    h = bouquet([parse_word("a^-1")])
    assert h.pos_edges == frozenset({(0, 1, 0)})
    assert h.alphabet == ("a", "b")
    wide = bouquet([parse_word("a b c", ("a", "b", "c"))])
    assert wide.alphabet == ("a", "b", "c")


def test_bouquet_errors():
    with pytest.raises(ValueError, match="at least one generator"):
        bouquet([])
    with pytest.raises(ValueError, match="empty generator word"):
        bouquet([()])
    with pytest.raises(ValueError, match="not reduced"):
        bouquet([(1, -1)])


def test_fold_frozen_subgroup_graph():
    g = stallings_graph(GENS)
    assert canonical_form(g) == (
        2, frozenset({(0, 1, 1), (1, 1, 0), (1, 2, 1)}), ("a", "b"))
    assert is_folded(g) and is_connected(g)
    assert g.basepoint == 0


def test_fold_merges_conjugate_generators():
    g = stallings_graph([parse_word("a b a^-1"), parse_word("a b^-1 a^-1")])
    assert canonical_form(g) == (
        2, frozenset({(0, 1, 1), (1, 2, 1)}), ("a", "b"))


def test_fold_fixpoint():
    for words in (["a^2", "a b a^-1"], ["a b", "b a"], ["a^3 b^-2"]):
        f = fold(bouquet([parse_word(w) for w in words]))
        assert is_folded(f)
        assert canonical_form(fold(f)) == canonical_form(f)


def test_fold_confluent_under_relabeling():
    rng = random.Random(7)
    for _ in range(50):
        gens = [random_reduced_word(rng, 2, rng.randint(1, 5))
                for _ in range(rng.randint(1, 3))]
        raw = bouquet(gens)
        verts = sorted(raw.vertices)
        image = verts[:]
        rng.shuffle(image)
        relabel = dict(zip(verts, image))
        moved = LabeledGraph(
            {relabel[v] for v in raw.vertices},
            {(relabel[s], a, relabel[d]) for s, a, d in raw.pos_edges},
            basepoint=relabel[0], alphabet=raw.alphabet)
        assert canonical_form(fold(raw)) == canonical_form(fold(moved))


def test_core_strips_hair():
    hairy = LabeledGraph({0, 1, 2}, {(0, 1, 0), (0, 2, 1), (1, 2, 2)},
                         basepoint=0)
    trimmed = core(hairy)
    assert trimmed.vertices == frozenset({0})
    assert trimmed.pos_edges == frozenset({(0, 1, 0)})
    assert canonical_form(core(trimmed)) == canonical_form(trimmed)
    with pytest.raises(ValueError, match="needs a basepoint"):
        core(LabeledGraph({0}, {(0, 1, 0)}))


def test_core_keeps_basepoint_spur():
    g = fold(bouquet([parse_word("a b a^-1")]))
    assert g.degree(g.basepoint) == 1
    assert canonical_form(core(g)) == canonical_form(g)


def test_member_examples():
    g = stallings_graph(GENS)
    assert member(g, parse_word("a^2"))
    assert member(g, parse_word("a b^2 a^-1"))
    assert member(g, parse_word("a^4"))
    assert member(g, ())
    assert not member(g, parse_word("a"))
    assert not member(g, parse_word("b"))
    assert not member(g, parse_word("a^3"))
    with pytest.raises(ValueError, match="must be reduced"):
        member(g, (1, -1))
    with pytest.raises(ValueError, match="needs a basepoint"):
        member(LabeledGraph({0}, {(0, 1, 0)}), (1,))


def test_member_against_short_products():
    # every product of few generators is accepted, and every rejected
    # word stays outside the enumerated product ball
    g = stallings_graph(GENS)
    factors = [w for w in GENS] + [tuple(-x for x in reversed(w)) for w in GENS]
    ball = {()}
    frontier = {()}
    for _ in range(4):
        frontier = {reduce_word(concat(w, f)) for w in frontier for f in factors}
        ball |= frontier
    for w in ball:
        assert member(g, w)
    rng = random.Random(11)
    for _ in range(400):
        w = random_reduced_word(rng, 2, rng.randint(1, 4))
        if not member(g, w):
            assert w not in ball


def test_member_accepts_random_products():
    rng = random.Random(3)
    g = stallings_graph(GENS)
    factors = [w for w in GENS] + [tuple(-x for x in reversed(w)) for w in GENS]
    for _ in range(200):
        w = ()
        for _ in range(rng.randint(1, 6)):
            w = reduce_word(concat(w, rng.choice(factors)))
        assert member(g, w)


def test_read_word():
    g = stallings_graph(GENS)
    other = next(iter(g.vertices - {g.basepoint}))
    assert read_word(g, g.basepoint, (1,)) == other
    assert read_word(g, g.basepoint, (2,)) is None
    assert read_word(g, g.basepoint, (1, 2, -1)) == g.basepoint


def test_schreier_trivial_subgroup_is_cayley():
    G = builtin("C2xC2")
    sch = schreier(G, [])
    assert canonical_form(sch) == canonical_form(_cayley_as_graph(G))


def test_schreier_whole_group_is_point():
    G = builtin("C2xC2")
    sch = schreier(G, [(1,), (2,)])
    assert sch.vertices == frozenset({0})
    assert sch.pos_edges == frozenset({(0, 1, 0), (0, 2, 0)})


def test_schreier_coset_counts():
    cases = [
        ("C2xC2", [parse_word("a")]),
        ("S3", [parse_word("a")]),
        ("S3", [parse_word("b")]),
        ("D4", [parse_word("a^2")]),
        ("A5", [parse_word("a"), parse_word("b a b^-1")]),
    ]
    for name, h_gens in cases:
        G = builtin(name)
        sch = schreier(G, h_gens)
        assert len(sch.vertices) == G.order() // _subgroup_size(G, h_gens)
        assert is_complete(sch) and is_folded(sch)
        for h in h_gens:
            assert read_word(sch, sch.basepoint, h) == sch.basepoint


def test_schreier_transition_group_is_quotient():
    for name, h_gens in [("S3", [parse_word("a")]), ("D4", [parse_word("a^2")])]:
        G = builtin(name)
        T = transition_group(schreier(G, h_gens))
        assert G.order() % T.order() == 0
        assert canonical_morphism(G, T) is not None


def test_complete_arbitrary_frozen():
    g = stallings_graph(GENS)
    full = complete_arbitrary(g)
    assert full.vertices == g.vertices
    assert full.pos_edges == g.pos_edges | {(g.basepoint, B, g.basepoint)}
    assert is_complete(full)
    # already complete graphs come back unchanged
    cay = _cayley_as_graph(builtin("C2xC2"))
    assert complete_arbitrary(cay).pos_edges == cay.pos_edges
    loop = LabeledGraph({0}, {(0, 1, 0)}, basepoint=0)
    assert complete_arbitrary(loop).pos_edges == frozenset(
        {(0, 1, 0), (0, 2, 0)})


def test_complete_arbitrary_invariants():
    rng = random.Random(19)
    for _ in range(40):
        gens = [random_reduced_word(rng, 2, rng.randint(1, 6))
                for _ in range(rng.randint(1, 3))]
        g = stallings_graph(gens)
        full = complete_arbitrary(g)
        assert is_complete(full)
        assert g.pos_edges <= full.pos_edges
        assert full.vertices == g.vertices
        assert full.basepoint == g.basepoint


def test_transition_group_examples():
    cay = _cayley_as_graph(builtin("C2xC2"))
    T = transition_group(cay)
    assert T.order() == 4 and T.exponent() == 2
    point = LabeledGraph({0}, {(0, 1, 0), (0, 2, 0)}, basepoint=0)
    assert transition_group(point).order() == 1
    full = complete_arbitrary(stallings_graph(GENS))
    assert transition_group(full).order() == 2
    with pytest.raises(ValueError, match="complete folded"):
        transition_group(stallings_graph(GENS))


def test_graph_json_round_trip():
    for g in (stallings_graph(GENS),
              schreier(builtin("S3"), [parse_word("a")]),
              fold(bouquet([parse_word("a b^-2")]))):
        data = graph_to_json(g)
        json.dumps(data)
        back = graph_from_json(data)
        assert canonical_form(back) == canonical_form(g)
        assert back.basepoint == g.basepoint
        assert back.alphabet == g.alphabet
    inferred = graph_from_json({
        "vertices": [0, 1],
        "edges": [{"src": 0, "label": "b", "dst": 1},
                  {"src": 1, "label": "a", "dst": 0}]})
    assert inferred.alphabet == ("a", "b")
    assert inferred.pos_edges == frozenset({(0, 2, 1), (1, 1, 0)})


def test_graph_json_errors():
    with pytest.raises(ValueError, match="expected an object"):
        graph_from_json([1, 2])
    with pytest.raises(ValueError, match="missing field"):
        graph_from_json({"edges": []})
    with pytest.raises(ValueError, match="'vertices': list required"):
        graph_from_json({"vertices": 0, "edges": []})
    with pytest.raises(ValueError, match="'edges': list required"):
        graph_from_json({"vertices": [0], "edges": {}})
    with pytest.raises(ValueError, match="edge 0: need src"):
        graph_from_json({"vertices": [0], "edges": [{"src": 0}]})
    with pytest.raises(ValueError, match="unknown label"):
        graph_from_json({"vertices": [0], "alphabet": ["a"],
                         "edges": [{"src": 0, "label": "z", "dst": 0}]})


def test_graph_to_dot_smoke():
    text = graph_to_dot(stallings_graph(GENS), name="H")
    assert text.startswith("digraph H {")
    assert "doublecircle" in text
    assert '[label="a"]' in text and '[label="b"]' in text
    assert text.rstrip().endswith("}")
