import random
import re

import pytest

from test_exchange import search_tree
from test_stallings import canonical_form
from treelike.cayley import path_span
from treelike.constellations import sample_constellations
from treelike.extension import dissolving_certificate, extension_group
from treelike.groups import FinGroup, builtin
from treelike.rewriting import (
    BasisWord,
    expand,
    exponent_sums,
    graph_subgroup_basis,
    nielsen_basis,
    rewrite,
    spanning_tree_avoiding,
)
from treelike.stallings import (
    LabeledGraph,
    fold,
    bouquet,
    member,
    stallings_graph,
)
from treelike.words import (
    concat,
    invert_word,
    parse_word,
    random_reduced_word,
    reduce_word,
)


def basis_index(basis):
    """Position of each basis word, keyed by its edge."""
    return {bw.edge: i for i, bw in enumerate(basis)}


def _trivial_group():
    return FinGroup.from_perms(("a", "b"), [(0,), (0,)], name="1")


def _check_tree(G, tree, avoid=()):
    assert len(tree.tree_edges) == G.order() - 1
    assert not (tree.tree_edges & set(avoid))
    assert tree.path_word(0) == ()
    for v in range(G.order()):
        assert G.evaluate(tree.path_word(v)) == v


def test_spanning_tree_plain():
    for name in ("C2xC2", "C3", "S3", "D4"):
        _check_tree(builtin(name), spanning_tree_avoiding(builtin(name)))


def test_spanning_tree_avoiding_pair():
    G = builtin("C2xC2")
    e, f = (0, 1), (0, 2)
    tree = spanning_tree_avoiding(G, e, f)
    _check_tree(G, tree, avoid=(e, f))
    C3 = builtin("C3")
    tree = spanning_tree_avoiding(C3, (0, 1), (0, 2))
    _check_tree(C3, tree, avoid=((0, 1), (0, 2)))


def test_spanning_tree_errors():
    G = builtin("C2xC2")
    with pytest.raises(ValueError, match="must be distinct"):
        spanning_tree_avoiding(G, (0, 1), (0, 1))
    for bad in ((0, 3), (0, 0), (-1, 1), (4, 1)):
        with pytest.raises(ValueError, match="^%s is not a positive "
                           "edge of the Cayley graph$"
                           % re.escape(repr(bad))):
            spanning_tree_avoiding(G, bad, (0, 1))
        with pytest.raises(ValueError, match="not a positive edge"):
            spanning_tree_avoiding(G, (0, 1), bad)
    line = FinGroup.from_perms(("a",), [(1, 0)], name="C2one")
    with pytest.raises(ValueError, match="disconnects"):
        spanning_tree_avoiding(line, (0, 1), (1, 1))


def test_certificates_of_one_pair_share_edges_and_tree():
    # e and f depend on S only through exponent(S), so the pair's
    # certificates against C3 and A5 avoid one edge pair: one tree
    G = extension_group(builtin("S3"), 2)
    for c, u, v in sample_constellations(G, random.Random(12), 4):
        certs = [dissolving_certificate(G, c, u, v, builtin(name))
                 for name in ("C3", "A5")]
        assert (certs[0].e, certs[0].f) == (certs[1].e, certs[1].f)
        assert certs[0].tree_edges == certs[1].tree_edges


def test_tree_index_lists_non_tree_edges_in_order():
    for G, e, f in ((builtin("D4"), (0, 1), (3, 2)),
                    (extension_group(builtin("C2xC2"), 2), (5, 1), (9, 2))):
        tree = spanning_tree_avoiding(G, e, f)
        edges = [(g, a) for g in range(G.order())
                 for a in range(1, G.n_letters + 1)
                 if (g, a) not in tree.tree_edges]
        assert list(tree.index.items()) == [(d, i)
                                            for i, d in enumerate(edges)]
        assert len(tree.index) == G.order() * (G.n_letters - 1) + 1


def test_nielsen_basis_counts():
    # |G|(|A|-1)+1 basis elements
    for G, want in ((builtin("C2xC2"), 5), (builtin("C3"), 4),
                    (_trivial_group(), 2)):
        basis = nielsen_basis(G, spanning_tree_avoiding(G))
        assert len(basis) == want
        assert [bw.edge for bw in basis] == sorted(bw.edge for bw in basis)
        for bw in basis:
            assert bw.word
            assert G.evaluate(bw.word) == 0


def test_basis_words_rewrite_to_themselves():
    G = builtin("D4")
    tree = spanning_tree_avoiding(G)
    basis = nielsen_basis(G, tree)
    for i, bw in enumerate(basis):
        assert rewrite(G, tree, bw.word) == [(i, 1)]
        assert rewrite(G, tree, invert_word(bw.word)) == [(i, -1)]


def test_rewrite_tree_loop_is_empty():
    G = builtin("S3")
    tree = spanning_tree_avoiding(G)
    for v in range(G.order()):
        w = concat(tree.path_word(v), invert_word(tree.path_word(v)))
        assert rewrite(G, tree, w) == []


def test_rewrite_requires_closed_path():
    G = builtin("C2xC2")
    tree = spanning_tree_avoiding(G)
    with pytest.raises(ValueError, match="closed path"):
        rewrite(G, tree, parse_word("a"))


def test_rewrite_exponents_equal_traversal_counts():
    rng = random.Random(31)
    for name in ("C2xC2", "S3"):
        G = builtin(name)
        tree = spanning_tree_avoiding(G)
        basis = nielsen_basis(G, tree)
        index = basis_index(basis)
        for _ in range(100):
            w = random_reduced_word(rng, 2, rng.randint(1, 10))
            closed = concat(w, invert_word(tree.path_word(G.evaluate(w))))
            _, end, counts = path_span(G, 0, closed)
            assert end == 0
            sums = exponent_sums(rewrite(G, tree, closed))
            for bw in basis:
                assert sums.get(index[bw.edge], 0) == counts.get(bw.edge, 0)


def test_expand_inverts_rewrite():
    rng = random.Random(37)
    for name in ("C2xC2", "C3", "D4"):
        G = builtin(name)
        tree = spanning_tree_avoiding(G)
        basis = nielsen_basis(G, tree)
        for _ in range(80):
            w = random_reduced_word(rng, 2, rng.randint(1, 8))
            closed = concat(w, invert_word(tree.path_word(G.evaluate(w))))
            assert expand(rewrite(G, tree, closed), basis) == reduce_word(closed)


def _trees(G, rng):
    """A plain, an edge-avoiding and two shuffled spanning trees of G."""
    edges = [(g, a) for g in range(G.order())
             for a in range(1, G.n_letters + 1)]
    e, f = rng.sample(edges, 2)
    return [spanning_tree_avoiding(G), spanning_tree_avoiding(G, e, f),
            search_tree(G, rng=rng), search_tree(G, e, f, rng)]


def _differential_groups():
    return ([builtin(name) for name in ("C2xC2", "C3", "S3", "D4")]
            + [extension_group(builtin("C2xC2"), 2),
               extension_group(builtin("S3"), 2)])


def _rewrite_reference(G, tree, w):
    """Word-building rewrite: indexes the full Nielsen basis."""
    index = basis_index(nielsen_basis(G, tree))
    out = []
    g = 0
    for x in w:
        h = G.step(g, x)
        edge = (g, x) if x > 0 else (h, -x)
        if edge not in tree.tree_edges:
            out.append((index[edge], 1 if x > 0 else -1))
        g = h
    if g != 0:
        raise ValueError("word is not a closed path at the identity")
    return out


def test_tree_index_matches_basis_words():
    rng = random.Random(41)
    for G in _differential_groups():
        for tree in _trees(G, rng):
            assert tree.index == basis_index(nielsen_basis(G, tree))
            assert len(tree.index) == G.order() * (G.n_letters - 1) + 1
            assert list(tree.index) == sorted(tree.index)


def test_rewrite_matches_word_building_reference():
    rng = random.Random(43)
    for G in _differential_groups():
        for tree in _trees(G, rng):
            for _ in range(25):
                w = random_reduced_word(rng, G.n_letters, rng.randint(0, 12))
                closed = concat(w, invert_word(tree.path_word(G.evaluate(w))))
                # an unreduced walk: a spur x x^-1 spliced in
                k = rng.randint(0, len(closed))
                x = rng.choice((1, -1)) * rng.randint(1, G.n_letters)
                spur = closed[:k] + (x, -x) + closed[k:]
                for word in (closed, spur):
                    assert (rewrite(G, tree, word)
                            == _rewrite_reference(G, tree, word))


def test_spanning_tree_hash_and_equality():
    G = builtin("S3")
    one = spanning_tree_avoiding(G, (0, 1), (1, 2))
    two = spanning_tree_avoiding(G, (0, 1), (1, 2))
    assert one.index == two.index
    assert one == two and hash(one) == hash(two)
    assert one != spanning_tree_avoiding(G)
    assert len({one, two}) == 1


def test_rewrite_rejects_letters_outside_alphabet():
    G = builtin("C3")
    tree = spanning_tree_avoiding(G)
    for x in (0, 3, -3):
        with pytest.raises(ValueError, match="letter %r outside alphabet" % x):
            rewrite(G, tree, (x,))


def test_exponent_sums():
    assert exponent_sums([]) == {}
    assert exponent_sums([(0, 1), (0, -1)]) == {}
    assert exponent_sums([(2, 1), (2, 1), (0, -1)]) == {2: 2, 0: -1}


def test_expand_concatenates_basis_words():
    basis = [BasisWord((0, 1), parse_word("a b")),
             BasisWord((0, 2), parse_word("b^-1 a"))]
    assert expand([(0, 1), (1, 1)], basis) == parse_word("a^2")
    assert expand([(0, 1), (0, -1)], basis) == ()


def test_graph_subgroup_basis():
    g = stallings_graph([parse_word("a^2"), parse_word("a b a^-1")])
    words = graph_subgroup_basis(g)
    # rank = edges - vertices + 1 for a connected core graph
    assert len(words) == len(g.pos_edges) - len(g.vertices) + 1
    for w in words:
        assert member(g, reduce_word(w))
    assert canonical_form(stallings_graph(words)) == canonical_form(g)
    spur = fold(bouquet([parse_word("a b a^-1")]))
    basis = graph_subgroup_basis(spur)
    assert [reduce_word(w) for w in basis] == [parse_word("a b a^-1")]
    with pytest.raises(ValueError, match="basepointed"):
        graph_subgroup_basis(stallings_graph([parse_word("a")]).__class__(
            {0}, {(0, 1, 0)}))
    with pytest.raises(ValueError, match="^graph is not connected$"):
        graph_subgroup_basis(LabeledGraph({0, 1}, {(0, 1, 0), (1, 2, 1)},
                                          basepoint=0))
