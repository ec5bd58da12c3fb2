"""The one breadth-first search and the searches that run on it.

`stallings.breadth_first` is checked against its contract.  Its callers'
results are compared with values frozen in tests/golden/derivations.json:
for seeded product automata, every epsilon-edge derivation of the
saturation and the factorizations of seeded words (both depend on the
order in which epsilon-paths and accepting runs are found), and the
covering subgraphs of seeded folded graphs.  To rewrite that file after
an intended change of content, run `PYTHONPATH=src python
tests/test_breadth_first.py` from the repository root.
"""

import json
import random
from pathlib import Path

from treelike.cayley import covering_subgraph
from treelike.groups import builtin
from treelike.rational import ProductAutomaton
from treelike.stallings import breadth_first, stallings_graph
from treelike.words import invert_word, random_reduced_word, reduce_word

GOLDEN = Path(__file__).resolve().parent / "golden" / "derivations.json"
AUTOMATON_SEEDS = range(50)
GRAPH_SEEDS = range(6)
COVER_GROUPS = ("C2xC2", "S3")


def _factor_gens(rng):
    """One to three reduced words of length 1 to 6 over {a, b}."""
    return [random_reduced_word(rng, 2, rng.randint(1, 6))
            for _ in range(rng.randint(1, 3))]


def _query(rng, factors):
    """A product of generator powers, one run per factor, or a random
    reduced word; the first is a member, the second mostly is not."""
    if rng.random() < 0.5:
        return random_reduced_word(rng, 2, rng.randint(0, 8))
    w = ()
    for gens in factors:
        for _ in range(rng.randint(0, 2)):
            g = rng.choice(gens)
            w = reduce_word(w + (g if rng.random() < 0.5 else invert_word(g)))
    return w


def _automaton_values(seed) -> dict:
    rng = random.Random(seed)
    factors = [_factor_gens(rng) for _ in range(rng.randint(2, 4))]
    aut = ProductAutomaton([stallings_graph(g) for g in factors]).saturate()
    words = [_query(rng, factors) for _ in range(5)]
    return json.loads(json.dumps({
        "factors": factors,
        "deriv": sorted(aut.deriv.items()),
        "factorize": [[w, aut.factorize(w)] for w in words]}))


def _cover_values(name, seed) -> dict:
    graph = stallings_graph(_factor_gens(random.Random(1000 + seed)))
    X = covering_subgraph(graph, builtin(name))
    return {"vertices": sorted(X.vertices),
            "edges": [list(e) for e in sorted(X.pos_edges)]}


def _frozen() -> dict:
    return {"automata": {str(seed): _automaton_values(seed)
                         for seed in AUTOMATON_SEEDS},
            "covers": {"%s/%d" % (name, seed): _cover_values(name, seed)
                       for name in COVER_GROUPS for seed in GRAPH_SEEDS}}


# a small digraph: u -> [(v, label), ...] in the order moves are tried
_GRAPH = {0: [(1, "a"), (2, "b")], 1: [(3, "c"), (0, "back"), (2, "x")],
          2: [(3, "d"), (4, "e")], 3: [(5, "f")], 4: [(1, "g")], 5: [],
          6: [(5, "h"), (7, "i")], 7: []}


def test_breadth_first_is_first_in_first_out():
    parent = breadth_first([0], _GRAPH.__getitem__)
    # one level after the other, each vertex's moves in their order: 3 is
    # found from 1, which is searched before 2 (a stack finds it from 2)
    assert list(parent.items()) == [
        (0, None), (1, (0, "a")), (2, (0, "b")), (3, (1, "c")),
        (4, (2, "e")), (5, (3, "f"))]


def test_breadth_first_roots_and_seen_vertices():
    tried = []

    def moves(u):
        tried.append(u)
        return _GRAPH[u]

    parent = breadth_first([6, 2, 6], moves)
    # each root once, mapped to None and searched first; the moves 3 -> 5,
    # 1 -> 3 and 1 -> 2 reach seen vertices and change nothing
    assert list(parent.items()) == [
        (6, None), (2, None), (5, (6, "h")), (7, (6, "i")), (3, (2, "d")),
        (4, (2, "e")), (1, (4, "g")), (0, (1, "back"))]
    assert tried == [6, 2, 5, 7, 3, 4, 1, 0]
    assert breadth_first([], moves) == {}


def test_derivations_and_covers_match_frozen_values():
    assert _frozen() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_frozen(), sort_keys=True) + "\n")
