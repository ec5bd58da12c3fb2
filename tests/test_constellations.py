import functools
import itertools
import random

import pytest

from treelike import constellations
from treelike.cayley import CayleySubgraph, cayley_graph, path_span
from treelike.cli import group_arg
from treelike.constellations import (
    Constellation,
    DissolveVerdict,
    Dissolver,
    constellation_defect,
    dissolves,
    dissolves_all,
    enumerate_constellations,
    is_constellation,
    sample_constellations,
)
from treelike.extension import ext_evaluate, extension_group
from treelike.groups import EnumerationBudgetError, FinGroup, builtin, subdirect
from treelike.words import (parse_word, random_reduced_word,
                           word_str)


def _trivial_group():
    return FinGroup.from_perms(("a", "b"), [(0,), (0,)], name="1")


def _brute_triples(G):
    """Independent scan: connected edge subsets spanning vertex 0, then
    all pairs with a vertex g separated from 0 in the intersection."""
    n = G.order()
    edges = sorted((g, a) for g in range(n) for a in range(1, G.n_letters + 1))
    dst = {e: G.step(e[0], e[1]) for e in edges}

    def connected(verts, sub):
        adj = {v: set() for v in verts}
        for e in sub:
            adj[e[0]].add(dst[e])
            adj[dst[e]].add(e[0])
        seen = {min(verts)}
        stack = [min(verts)]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(verts)

    cands = []
    for r in range(1, len(edges) + 1):
        for sub in itertools.combinations(edges, r):
            verts = set()
            for e in sub:
                verts.add(e[0])
                verts.add(dst[e])
            if 0 in verts and connected(verts, sub):
                cands.append((frozenset(sub), frozenset(verts)))
    triples = set()
    for ex, vx in cands:
        for et, vt in cands:
            common = vx & vt
            inter = ex & et
            adj = {v: set() for v in common}
            for e in inter:
                adj[e[0]].add(dst[e])
                adj[dst[e]].add(e[0])
            comp0 = {0}
            stack = [0]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in comp0:
                        comp0.add(w)
                        stack.append(w)
            for g in common:
                if g != 0 and g not in comp0:
                    triples.add((ex, g, et))
    return triples


def _span_example():
    G = builtin("C2xC2")
    X, _, _ = path_span(G, 0, parse_word("a b"))
    T, _, _ = path_span(G, 0, parse_word("b a"))
    return G, X, G.evaluate((1, 2)), T


def test_is_constellation_examples():
    G, X, g, T = _span_example()
    assert is_constellation(X, g, T)
    assert constellation_defect(X, g, T) is None
    c = Constellation(X, g, T)
    assert c.key() == (sorted(X.pos_edges), g, sorted(T.pos_edges))
    # the whole graph intersects itself in one component
    full = cayley_graph(G)
    assert not is_constellation(full, g, full)


def test_constellation_defect_reasons():
    G, X, g, T = _span_example()
    ga = G.evaluate((1,))
    assert "g is not a vertex of T" == constellation_defect(X, ga, T)
    no_one = CayleySubgraph(G, {ga, g}, {(ga, 2)})
    assert "1 is not a vertex of X" == constellation_defect(no_one, g, no_one)
    split = CayleySubgraph(G, {0, ga, G.evaluate((2,))}, {(0, 1)})
    assert "X is not connected" == constellation_defect(split, G.evaluate((2,)), T)
    full = cayley_graph(G)
    assert "share a component" in constellation_defect(full, g, full)
    other = cayley_graph(builtin("C3"))
    assert "different groups" in constellation_defect(other, g, T)
    with pytest.raises(ValueError, match="not a constellation"):
        Constellation(full, g, full)


def test_exhaustive_scan_matches_independent_oracle():
    for name, want in (("C2xC2", 50094), ("C3", 2032)):
        G = builtin(name)
        brute = _brute_triples(G)
        scanned = {(frozenset(c.X.pos_edges), c.g, frozenset(c.T.pos_edges))
                   for c in enumerate_constellations(G)}
        assert len(brute) == want
        assert scanned == brute


@functools.lru_cache(maxsize=None)
def _base_constellations(name):
    G = builtin(name)
    return G, tuple(enumerate_constellations(G))


def _object_model_entries(H, name):
    """G and the report entries of all its constellations in scan order:
    each a validated Constellation checked by `Dissolver.dissolves`."""
    G, constellations_of_g = _base_constellations(name)
    dis = Dissolver(H, G)
    entries = []
    for c in constellations_of_g:
        verdict = dis.dissolves(c)
        entry = {"g": c.g, "verdict": verdict.status,
                 "x_edges": sorted(list(e) for e in c.X.pos_edges),
                 "t_edges": sorted(list(e) for e in c.T.pos_edges)}
        if verdict.u is not None:
            entry["u"] = word_str(verdict.u, G.alphabet)
            entry["v"] = word_str(verdict.v, G.alphabet)
        entries.append(entry)
    return G, entries


# D4 ->> C2xC2 dissolves 18,954 of the 50,094 constellations; the other
# quotients dissolve all of them or none
@pytest.mark.parametrize("quotient,base", [
    ("C3^2", "C3"), ("C3", "C3"), ("C2xC2^2", "C2xC2"), ("D4", "C2xC2")])
def test_mask_scan_agrees_with_object_model(quotient, base):
    H = group_arg(quotient)
    G, entries = _object_model_entries(H, base)
    failures = [e for e in entries if e["verdict"] == "counterexample"]
    assert {e["verdict"] for e in entries} <= {"dissolved", "counterexample"}
    for limit in (None, 0, 7):
        got = dissolves_all(H, G, detail_limit=limit)
        cut = len(entries) if limit is None else limit
        assert got["total"] == len(entries)
        assert got["dissolved"] == len(entries) - len(failures)
        assert got["constellations"] == entries[:cut]
        assert got["failures"] == failures[:cut]
        assert got.get("failures_truncated", False) == (len(failures) > cut)


def test_pair_budget_limit_is_exact(monkeypatch):
    G = builtin("C2xC2")          # 222 candidates
    H = extension_group(G, 2)
    monkeypatch.setattr(constellations, "EXHAUSTIVE_PAIR_BUDGET", 222 ** 2)
    assert dissolves_all(H, G, detail_limit=0)["all_dissolved"]
    monkeypatch.setattr(constellations, "EXHAUSTIVE_PAIR_BUDGET", 222 ** 2 - 1)
    passes, lifts = [], []
    real_pass = constellations._candidate_pass
    monkeypatch.setattr(constellations, "_candidate_pass",
                        lambda *args: passes.append(real_pass(*args)))
    monkeypatch.setattr(Dissolver, "_component",
                        lambda self, mask: lifts.append(mask))
    refusal = ("^exhaustive constellation scan over 49284 candidate pairs "
               "exceeds budget of 49283 pairs$")
    with pytest.raises(EnumerationBudgetError, match=refusal):
        dissolves_all(H, G)
    with pytest.raises(EnumerationBudgetError, match=refusal):
        next(enumerate_constellations(G))
    # the candidate pass raised instead of returning: no pair, no lift
    assert passes == [] and lifts == []


def test_enumerate_trivial_group_is_empty():
    assert list(enumerate_constellations(_trivial_group())) == []


def test_enumerate_budget():
    with pytest.raises(EnumerationBudgetError):
        list(enumerate_constellations(builtin("A5")))
    with pytest.raises(EnumerationBudgetError):
        list(enumerate_constellations(builtin("C2xC2"), edge_budget=4))


def test_sample_constellations():
    G = builtin("C3")
    rng = random.Random(9)
    got = list(sample_constellations(G, rng, 25))
    assert len(got) == 25
    for c, u, v in got:
        assert G.evaluate(u) == G.evaluate(v) == c.g
        span_u, end_u, _ = path_span(G, 0, u)
        assert end_u == c.g
        assert span_u.pos_edges == c.X.pos_edges
        span_v, end_v, _ = path_span(G, 0, v)
        assert span_v.pos_edges == c.T.pos_edges
    again = list(sample_constellations(G, random.Random(9), 25))
    assert [c.key() for c, _, _ in again] == [c.key() for c, _, _ in got]


def test_sample_constellations_stalls_without_any():
    with pytest.raises(RuntimeError, match="sampling stalled"):
        list(sample_constellations(_trivial_group(), random.Random(0), 1))


def _sample_by_words(G, rng, count, max_len):
    """The word-level formulation of sample_constellations: every draw is
    a random_reduced_word evaluated by G.evaluate, then two path spans
    and a validated Constellation."""
    yielded = 0
    for _ in range(1000 * count):
        if yielded == count:
            return
        u = random_reduced_word(rng, G.n_letters, rng.randint(1, max_len))
        g = G.evaluate(u)
        v = None
        for _ in range(64):
            cand = random_reduced_word(rng, G.n_letters,
                                       rng.randint(1, max_len))
            if G.evaluate(cand) == g:
                v = cand
                break
        if v is None:
            continue
        X, _, _ = path_span(G, 0, u)
        T, _, _ = path_span(G, 0, v)
        try:
            c = Constellation(X, g, T)
        except ValueError:
            continue
        yielded += 1
        yield c, u, v
    raise RuntimeError("stalled")


def _drawn(sampler, G, seed, count, max_len):
    """(triples, stalled, next rng.random()) of one sampling run."""
    rng = random.Random(seed)
    out = []
    try:
        for c, u, v in sampler(G, rng, count, max_len):
            out.append((c.g, sorted(c.X.pos_edges), sorted(c.T.pos_edges),
                        u, v))
    except RuntimeError:
        return out, True, rng.random()
    return out, False, rng.random()


@pytest.mark.parametrize("name", ["C3^2", "C2xC2^2", "S3^2", "D4^2"])
def test_sampling_keeps_the_word_level_rng_stream(name):
    # max_len 1 stalls (a one-letter word has no second spelling), so it
    # pins the stream of a run that gives up; 3 and 8 yield every triple
    G = group_arg(name)
    for max_len, count in ((1, 1), (3, 2), (8, 3)):
        for seed in range(4):
            got = _drawn(sample_constellations, G, seed, count, max_len)
            want = _drawn(_sample_by_words, G, seed, count, max_len)
            assert got == want, (name, max_len, seed)


def test_identity_never_dissolves():
    G, X, g, T = _span_example()
    c = Constellation(X, g, T)
    verdict = dissolves(G, G, c)
    assert verdict.status == "counterexample"
    assert not verdict.dissolved
    assert verdict.fiber_x == verdict.fiber_t == 1
    # witnesses read 1 -> g inside the respective subgraphs
    span_u, end_u, _ = path_span(G, 0, verdict.u)
    assert end_u == g and span_u.pos_edges <= X.pos_edges
    span_v, end_v, _ = path_span(G, 0, verdict.v)
    assert end_v == g and span_v.pos_edges <= T.pos_edges


def test_extension_dissolves_example():
    G, X, g, T = _span_example()
    H = extension_group(G, 2)
    verdict = dissolves(H, G, Constellation(X, g, T))
    assert verdict.dissolved
    assert verdict.status == "dissolved"
    assert verdict.u is None and verdict.v is None


def test_dissolver_requires_morphism():
    with pytest.raises(ValueError, match="no canonical morphism"):
        Dissolver(builtin("C3"), builtin("C2xC2"))


def test_dissolver_memoizes_lifts():
    G, X, g, T = _span_example()
    dis = Dissolver(extension_group(G, 2), G)
    assert dis.lift(X) is dis.lift(X)


def test_dissolves_all_identity_report():
    G = builtin("C2xC2")
    report = dissolves_all(G, G, detail_limit=5)
    assert report["schema"] == 1
    assert report["quotient"] == report["group"] == G.name
    assert report["mode"] == "exhaustive"
    assert report["total"] == 50094
    assert report["dissolved"] == 0
    assert not report["all_dissolved"]
    assert len(report["failures"]) == 5
    assert len(report["constellations"]) == 5
    assert report["failures_truncated"]
    assert report["edge_budget"] == 16
    first = report["failures"][0]
    assert set(first) == {"g", "x_edges", "t_edges", "verdict", "u", "v"}


def test_dissolves_all_extension_exhaustive():
    G = builtin("C2xC2")
    H = extension_group(G, 2)
    report = dissolves_all(H, G)
    assert report["total"] == 50094
    assert report["dissolved"] == 50094
    assert report["all_dissolved"]
    assert report["failures"] == []


def test_dissolves_all_sampled():
    G = builtin("C3")
    H = extension_group(G, 2)
    report = dissolves_all(H, G, mode="sampled", samples=30, seed=5)
    assert report["mode"] == "sampled"
    assert report["seed"] == 5
    assert report["samples"] == 30
    assert report["total"] == 30
    assert report["all_dissolved"]
    with pytest.raises(ValueError, match="mode"):
        dissolves_all(H, G, mode="other")


def test_downward_persistence_of_extension():
    # the extension of D4 dissolves constellations of D4 and of the
    # further quotient C2xC2
    D4 = builtin("D4")
    J = extension_group(D4, 2)
    assert J.order() == 4096
    sampled = dissolves_all(J, D4, mode="sampled", samples=25, seed=11)
    assert sampled["all_dissolved"]
    below = dissolves_all(J, builtin("C2xC2"))
    assert below["all_dissolved"]
    assert below["total"] == 50094


def test_dissolved_verdict_matches_extension_values():
    # disjoint fibers force distinct extension images of the two
    # sampled witness words
    D4 = builtin("D4")
    J = extension_group(D4, 2)
    dis = Dissolver(J, D4)
    rng = random.Random(13)
    for c, u, v in sample_constellations(D4, rng, 30):
        verdict = dis.dissolves(c)
        assert verdict.dissolved
        assert ext_evaluate(D4, 2, u) != ext_evaluate(D4, 2, v)


def test_subdirect_with_dissolving_factor_dissolves():
    G = builtin("C2xC2")
    H = subdirect([extension_group(G, 2), builtin("D4")])
    rng = random.Random(17)
    for c, _, _ in sample_constellations(G, rng, 20):
        assert dissolves(H, G, c).dissolved
