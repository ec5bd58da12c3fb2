import collections
import functools
import itertools
import random
from fractions import Fraction
from pathlib import Path

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


def _record(report, dis, c, detail_limit):
    """Check c with `Dissolver.dissolves` and list its entry, built from
    the Constellation and its verdict, in each report list with room."""
    verdict = dis.dissolves(c)
    entry = {"g": c.g, "x_edges": sorted(list(e) for e in c.X.pos_edges),
             "t_edges": sorted(list(e) for e in c.T.pos_edges),
             "verdict": verdict.status}
    room = float("inf") if detail_limit is None else detail_limit
    if verdict.u is not None:
        entry["u"] = word_str(verdict.u, dis.G.alphabet)
        entry["v"] = word_str(verdict.v, dis.G.alphabet)
        if len(report["failures"]) < room:
            report["failures"].append(entry)
    if len(report["constellations"]) < room:
        report["constellations"].append(entry)


def _scan_by_ordered_pairs(dis, report, edge_budget, detail_limit):
    """The scan as one loop over the ordered candidate pairs (X, T) and
    the g of each pair ascending: it counts every ordered pair and lists
    each constellation in turn while the report lists have room."""
    G = dis.G
    candidates, comp0 = constellations._candidate_pass(G, edge_budget)
    lifts = [sum(1 << h for h in dis._component(m)) for m, _ in candidates]

    def span(m, v):
        return CayleySubgraph(G, constellations._bits(v),
                              constellations._edge_set(m, G.n_letters))

    fibers = [0]
    for g in range(G.order()):
        fg = sum(1 << h for h, x in enumerate(dis.phi) if x == g)
        fibers += [f | fg for f in fibers]
    limit = float("inf") if detail_limit is None else detail_limit
    listed, failures = report["constellations"], report["failures"]
    total = failed = 0
    for (mx, vx), lx in zip(candidates, lifts):
        for (mt, vt), lt in zip(candidates, lifts):
            gs = vx & vt & ~comp0[mx & mt]
            common = lx & lt & fibers[gs]
            for g in constellations._bits(gs):
                total += 1
                bad = common & fibers[1 << g]
                failed += bad != 0
                if len(listed) < limit or bad and len(failures) < limit:
                    c = Constellation(span(mx, vx), g, span(mt, vt))
                    _record(report, dis, c, detail_limit)
    report.update(total=total, dissolved=total - failed)


def _mid_pair_limit(entries):
    """A limit at which the constellation list fills inside one pair's
    g's, before a failure of that pair if the scan has such a place."""
    pair = [(e["x_edges"], e["t_edges"]) for e in entries]
    inside = [k for k in range(1, len(entries)) if pair[k - 1] == pair[k]]
    failing = [k for k in inside
               if entries[k]["verdict"] == "counterexample"]
    return (failing or inside)[0]


def _truncated(report, limit):
    """The report of a run at detail limit `limit`, derived from the
    unlimited `report`: both lists cut at max(limit, 0),
    `failures_truncated` present only when failures were cut, every
    other key unchanged."""
    if limit is None:
        return report
    cut = max(limit, 0)
    out = dict(report, constellations=report["constellations"][:cut],
               failures=report["failures"][:cut])
    if len(report["failures"]) > cut:
        out["failures_truncated"] = True
    return out


# D4 ->> C2xC2 dissolves 18,954 of the 50,094 constellations; the other
# quotients dissolve all of them or none
@pytest.mark.parametrize("quotient,base", [
    ("C3^2", "C3"), ("C3", "C3"), ("C2xC2^2", "C2xC2"), ("D4", "C2xC2")])
def test_mask_scan_agrees_with_object_model(quotient, base, monkeypatch):
    H = group_arg(quotient)
    G, entries = _object_model_entries(H, base)
    failures = [e for e in entries if e["verdict"] == "counterexample"]
    assert {e["verdict"] for e in entries} <= {"dissolved", "counterexample"}
    limits = (None, -1, 0, 1, 7, len(failures), _mid_pair_limit(entries))
    reports = []
    for limit in limits:
        got = dissolves_all(H, G, detail_limit=limit)
        cut = len(entries) if limit is None else max(limit, 0)
        assert got["total"] == len(entries)
        assert got["dissolved"] == len(entries) - len(failures)
        assert got["constellations"] == entries[:cut]
        assert got["failures"] == failures[:cut]
        assert got.get("failures_truncated", False) == (len(failures) > cut)
        reports.append(got)
    # the oracle runs once, unlimited; each limited report must be its
    # truncation, and the rule itself is checked against limited oracle
    # runs: at every limit on the small cases, at the mid-pair limit on
    # D4 ->> C2xC2
    monkeypatch.setattr(constellations, "_scan_exhaustive",
                        _scan_by_ordered_pairs)
    full = dissolves_all(H, G, detail_limit=None)
    for limit, got in zip(limits, reports):
        assert got == _truncated(full, limit), limit
    oracle_limits = {"C3^2": limits, "C3": limits, "D4": limits[-1:]}
    for limit in oracle_limits.get(quotient, ()):
        assert dissolves_all(H, G, detail_limit=limit) == _truncated(
            full, limit), limit


@pytest.mark.parametrize("name,edges", [("C5^5", 156250),
                                        ("C5^7", 1176490)])
def test_exhaustive_refusal_enumerates_only_the_base(name, edges,
                                                     monkeypatch):
    """H's order and G's edges are read from order formulas before H or
    the morphism is built, so refusing G^p ->> G^p enumerates the base
    C5 of each, not 78,125 or 588,245 elements twice."""
    enumerated = []
    enumerate_ = FinGroup._enumerate

    def counted(self):
        if self._elems is None:
            enumerated.append(self.name)
        enumerate_(self)

    monkeypatch.setattr(FinGroup, "_enumerate", counted)
    with pytest.raises(EnumerationBudgetError, match="^exhaustive "
                       "constellation scan over %d edges" % edges):
        dissolves_all(group_arg(name), group_arg(name))
    assert enumerated == ["C5", "C5"]


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


def _cut_cover(G):
    """G's candidates, comp0 and the members of its cut cover."""
    candidates, comp0 = constellations._candidate_pass(
        G, constellations.EXHAUSTIVE_EDGE_BUDGET)
    return candidates, comp0, list(
        constellations._cut_cover(G, candidates, comp0))


@pytest.mark.parametrize("name,size,with_g", [("C3", 48, 42),
                                              ("C2xC2", 96, 84)])
def test_cut_cover_dominates_every_constellation(name, size, with_g):
    """Each of the 2,032 constellations (X, g, T) of C3 and the 50,094
    of C2xC2 lies under a member (x, t, gs) of the cut cover: X in x, T
    in t and g in gs, and each member with g is a constellation.  The
    sizes are pinned, so a cover that loses its X** round shows."""
    G = builtin(name)
    candidates, comp0, members = _cut_cover(G)
    assert len({(x, t) for x, t, _ in members}) == len(members) == size
    assert sum(1 for *_, gs in members if gs) == with_g

    def holding(of):
        """Per candidate mask m, the members whose side `of` holds m,
        as bits over the member indices."""
        return {m: sum(1 << j for j, member in enumerate(members)
                       if m & ~member[of] == 0) for m, _ in candidates}

    under_x, under_t = holding(0), holding(1)
    over_g = [sum(1 << j for j, (*_, gs) in enumerate(members) if gs >> g & 1)
              for g in range(G.order())]
    found = missed = 0
    for mx, vx in candidates:
        for mt, vt in candidates:
            for g in constellations._bits(vx & vt & ~comp0[mx & mt]):
                found += 1
                missed += not under_x[mx] & under_t[mt] & over_g[g]
    assert (found, missed) == (len(_brute_triples(G)), 0)

    def span(m):
        return CayleySubgraph(G, constellations._bits(comp0[m]),
                              constellations._edge_set(m, G.n_letters))

    for x, t, gs in members:
        for g in constellations._bits(gs):
            assert is_constellation(span(x), g, span(t))


def _subdirect_d4_c4xc2():
    """subdirect(D4, C4xC2) (order 16) ->> C2xC2: 28,388 of the 50,094
    constellations are dissolved."""
    C4xC2 = FinGroup.from_perms(("a", "b"), [(1, 2, 3, 0, 4, 5),
                                             (0, 1, 2, 3, 5, 4)], name="C4xC2")
    return subdirect([builtin("D4"), C4xC2])


@pytest.mark.parametrize("quotient,base", [
    ("C3^2", "C3"), ("C3", "C3"), ("C2xC2^2", "C2xC2"), ("D4", "C2xC2"),
    ("C2xC2", "C2xC2"), ("subdirect", "C2xC2")])
def test_cut_cover_and_convolution_agree_with_the_pair_scan(quotient, base,
                                                            monkeypatch):
    """On the mask-scan cases, the identity quotients and a subdirect
    quotient with some failures: the convolution `total` is the pair
    scan's, and the cover dissolves iff every constellation does."""
    H = _subdirect_d4_c4xc2() if quotient == "subdirect" else group_arg(quotient)
    G = builtin(base)
    candidates, comp0, members = _cut_cover(G)
    dis = Dissolver(H, G)

    def fibers(gs):
        return functools.reduce(int.__or__, (
            dis.fiber[g] for g in constellations._bits(gs)), 0)

    covered = not any(dis.lift(x) & dis.lift(t) & fibers(gs)
                      for x, t, gs in members)
    total = constellations._pair_total(candidates, comp0,
                                       G.order() * G.n_letters)
    monkeypatch.setattr(constellations, "_scan_exhaustive",
                        _scan_by_ordered_pairs)
    pairs = dissolves_all(H, G, detail_limit=0)
    assert total == pairs["total"]
    assert covered == (pairs["dissolved"] == pairs["total"])
    if quotient == "subdirect":
        assert pairs["dissolved"] == 28388


def test_cost_rule_picks_the_pair_scan_for_c16(monkeypatch):
    """The cut cover runs only where its |E| 2^|E| transform costs less
    than the candidates^2 / 2 unordered pairs: C16 on one letter has 16
    edges and 136 candidates, so C16^2 ->> C16 takes the pair scan and
    lifts every candidate, while C3^2 ->> C3 (6 edges, 60 candidates)
    takes the cover."""
    covered, searched = [], []
    cut_cover, component = constellations._cut_cover, Dissolver._component
    monkeypatch.setattr(constellations, "_cut_cover", lambda G, *args: (
        covered.append(G.name) or cut_cover(G, *args)))
    monkeypatch.setattr(Dissolver, "_component", lambda self, mask: (
        searched.append(mask) or component(self, mask)))
    C16 = group_arg(str(Path(__file__).parent / "golden" / "c16.json"))
    H = extension_group(C16, 2)
    report = dissolves_all(H, C16, detail_limit=0)
    assert covered == [] and report["total"] == report["dissolved"] == 23256
    candidates, _ = constellations._candidate_pass(C16, 16)
    assert sorted(searched) == sorted(m for m, _ in candidates)
    assert len(candidates) == 136
    report = dissolves_all(group_arg("C3^2"), builtin("C3"), detail_limit=0)
    assert covered == ["C3"] and report["all_dissolved"]


@pytest.mark.parametrize("quotient,base,limit", [
    ("C3", "C3", 200), ("D4", "C2xC2", 13), ("C3^2", "C3", None)])
def test_exhaustive_listing_builds_no_objects(quotient, base, limit,
                                              monkeypatch):
    """An exhaustive report is read off the scan's masks: it builds no
    subgraph, constellation or verdict, and searches each lift that the
    cut cover or the pair scan reads once, and then each mask that a
    listed failure names once more, in ascending order.  A scan that
    fails lifts every candidate; an all-dissolved one only the cover's
    masks of the members with a g."""
    H, G = group_arg(quotient), builtin(base)
    candidates, comp0 = constellations._candidate_pass(
        G, constellations.EXHAUSTIVE_EDGE_BUDGET)

    def refuse(self, *args, **kwargs):
        raise AssertionError("%s built" % type(self).__name__)

    monkeypatch.setattr(Constellation, "__post_init__", refuse)
    monkeypatch.setattr(CayleySubgraph, "__post_init__", refuse)
    monkeypatch.setattr(DissolveVerdict, "__init__", refuse)
    searched = []
    component = Dissolver._component
    monkeypatch.setattr(Dissolver, "_component", lambda self, mask: (
        searched.append((self, mask)) or component(self, mask)))
    report = dissolves_all(H, G, detail_limit=limit)
    k = G.n_letters
    named = {sum(1 << g * k + a - 1 for g, a in entry[edges])
             for entry in report["failures"]
             for edges in ("x_edges", "t_edges")}
    dis = searched[0][0]
    lifted = [mask for _, mask in searched[:len(dis._lifts)]]
    assert sorted(lifted) == sorted(dis._lifts)
    assert [mask for _, mask in searched[len(lifted):]] == sorted(named)
    if report["all_dissolved"]:
        assert named == set()
        assert set(lifted) == {m for x, t, gs in constellations._cut_cover(
            G, candidates, comp0) if gs for m in (x, t)}
        assert len(lifted) < len(candidates)
    else:
        assert sorted(lifted) == sorted(m for m, _ in candidates)
    assert report["total"] - report["dissolved"] >= len(report["failures"])


def test_sampled_listing_validates_every_triple(monkeypatch):
    validated = []
    check = Constellation.__post_init__

    def checked(self):
        check(self)
        validated.append({"g": self.g,
                          "x_edges": sorted(map(list, self.X.pos_edges)),
                          "t_edges": sorted(map(list, self.T.pos_edges))})

    monkeypatch.setattr(Constellation, "__post_init__", checked)
    G = builtin("C2xC2")
    report = dissolves_all(G, G, mode="sampled", samples=30, seed=5)
    assert report["total"] == len(validated) == 30
    assert [{key: e[key] for key in ("g", "x_edges", "t_edges")}
            for e in report["constellations"]] == validated


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
    # every word reads 1: refused before the first draw
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="^constellation sampling stalled: "
                       "no reduced word of length 1..8 reads an element "
                       "other than 1 in 1$"):
        list(sample_constellations(_trivial_group(), rng, 1))
    assert rng.getstate() == state


def _sample_by_words(G, rng, count, max_len):
    """The rejection sampler that fixes the law of sample_constellations:
    u is a random_reduced_word of length uniform on 1..max_len, v the
    first of up to V_DRAWS such words that reads u's image in G, and the
    triple is kept when its path spans form a constellation."""
    yielded = 0
    for _ in range(1000 * count):
        if yielded == count:
            return
        u = random_reduced_word(rng, G.n_letters, rng.randint(1, max_len))
        g = G.evaluate(u)
        v = None
        for _ in range(constellations.V_DRAWS):
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
    raise ValueError("constellation sampling stalled")


def _drawn(sampler, G, seed, count, max_len):
    """(triples, stalled) of one sampling run."""
    out = []
    try:
        for c, u, v in sampler(G, random.Random(seed), count, max_len):
            out.append((c.g, sorted(c.X.pos_edges), sorted(c.T.pos_edges),
                        u, v))
    except ValueError as exc:
        assert "constellation sampling stalled" in str(exc)
        return out, True
    return out, False


def _word_probability(counts, w, g):
    """Probability that counts.draw_word(rng, g) returns w, from the
    weights it draws with: the length, then the letters backwards."""
    def share(weights, item):
        weights = dict(weights)
        return Fraction(weights.get(item, 0), sum(weights.values()))

    p = share(counts.length_weights(g), len(w))
    y, after = g, None
    for k in range(len(w), 0, -1):
        if not p:
            return p
        i = counts.letters.index(w[k - 1])
        p *= share(counts.letter_weights(y, k, after), i)
        y, after = counts.rows[i ^ 1][y], i
    assert not p or y == 0
    return p


@pytest.mark.parametrize("name", ["C3^2", "C2xC2^2", "S3^2", "D4^2"])
def test_sampling_keeps_the_word_level_rng_stream(name):
    # the word-level rejection sampler, which draws its words from the
    # RNG stream of random_reduced_word, and the table sampler stall on
    # the same runs (max_len 1: a one-letter word has no second
    # spelling) and draw triples inside each other's law: every triple
    # either yields is a constellation whose words read g in G and have
    # positive probability under the table weights
    G = group_arg(name)
    for max_len, count in ((1, 1), (3, 2), (8, 3)):
        counts = constellations.ReducedWordCounts(G, max_len)
        for seed in range(4):
            got = _drawn(sample_constellations, G, seed, count, max_len)
            want = _drawn(_sample_by_words, G, seed, count, max_len)
            assert got[1] == want[1] == (max_len == 1), (name, max_len, seed)
            for g, xs, ts, u, v in got[0] + want[0]:
                assert G.evaluate(u) == G.evaluate(v) == g
                assert counts.image_weights[g] > 0
                assert _word_probability(counts, u, g) > 0
                assert _word_probability(counts, v, g) > 0
                assert sorted(path_span(G, 0, u)[0].pos_edges) == xs
                assert sorted(path_span(G, 0, v)[0].pos_edges) == ts


def _reduced_words(n_letters, max_len):
    """Every reduced word of length 1..max_len."""
    letters = [x for b in range(1, n_letters + 1) for x in (b, -b)]
    words, layer = [], [()]
    for _ in range(max_len):
        layer = [w + (x,) for w in layer for x in letters
                 if not w or w[-1] != -x]
        words += layer
    return words


def _accepted_pairs(G, max_len):
    """{(u, v): g} over the word pairs whose spans form a constellation."""
    words = _reduced_words(G.n_letters, max_len)
    spans = {w: path_span(G, 0, w) for w in words}
    return {(u, v): spans[u][1] for u in words for v in words
            if spans[u][1] == spans[v][1]
            and is_constellation(spans[u][0], spans[u][1], spans[v][0])}


def _normalized(weights):
    total = sum(weights.values())
    return {key: Fraction(w) / total for key, w in weights.items()}


def _rejection_law(G, max_len, pairs):
    """Closed form of the rejection law on the accepted pairs: P(u) P(v)
    (1 - (1 - q_g)^V_DRAWS) / q_g, normalized; P(w) is 1/max_len over the
    number of reduced words of length |w|."""
    m = 2 * G.n_letters
    P = {w: Fraction(1, max_len * m * (m - 1) ** (len(w) - 1))
         for w in _reduced_words(G.n_letters, max_len)}
    q = collections.Counter()
    for w, p in P.items():
        q[G.evaluate(w)] += p
    n = constellations.V_DRAWS
    return _normalized({(u, v): P[u] * P[v] * (1 - (1 - q[g]) ** n) / q[g]
                        for (u, v), g in pairs.items()})


def _table_law(G, max_len, pairs):
    """The table sampler's law on the accepted pairs: g, then u and v
    from g, each by its own weights, normalized over the accepted pairs
    (a rejected triple starts a new draw of g)."""
    counts = constellations.ReducedWordCounts(G, max_len)
    images = _normalized(counts.image_weights)
    words = _reduced_words(G.n_letters, max_len)
    for g in images:
        # draw_word puts all its mass on the words that read g
        assert sum(_word_probability(counts, w, g) for w in words
                   if G.evaluate(w) == g) == 1
    return _normalized({(u, v): images.get(g, 0)
                        * _word_probability(counts, u, g)
                        * _word_probability(counts, v, g)
                        for (u, v), g in pairs.items()})


@pytest.mark.parametrize("name", ["C3", "C2xC2", "S3"])
@pytest.mark.parametrize("max_len", [1, 2, 3])
def test_table_law_equals_rejection_law(name, max_len):
    G = builtin(name)
    pairs = _accepted_pairs(G, max_len)
    assert pairs or max_len == 1
    assert _table_law(G, max_len, pairs) == _rejection_law(G, max_len, pairs)


def test_reduced_word_counts_match_enumeration():
    G = builtin("S3")
    counts = constellations.ReducedWordCounts(G, 4)
    for w in _reduced_words(2, 4):
        k, y, i = len(w), G.evaluate(w), counts.letters.index(w[-1])
        assert counts.E[k][i][y] == sum(
            1 for x in _reduced_words(2, k)
            if len(x) == k and x[-1] == w[-1] and G.evaluate(x) == y)
    assert sum(sum(c.values()) for c in counts.C[1:]) == 4 + 12 + 36 + 108


class _FixedDraw:
    """A stand-in rng whose randrange returns a preset value."""

    def __init__(self, r):
        self.r = r

    def randrange(self, total):
        assert 0 <= self.r < total
        return self.r


def test_locate_splits_the_ranks_by_weight():
    weights = [(7, 2), (8, 0), (9, 3)]
    got = [constellations._locate(r, weights) for r in range(5)]
    assert got == [(7, 0), (7, 1), (9, 0), (9, 1), (9, 2)]
    with pytest.raises(ValueError, match="rank beyond"):
        constellations._locate(5, weights)


@pytest.mark.parametrize("name,max_len", [("C3", 3), ("C2xC2", 4),
                                          ("S3", 3), ("C3^2", 2)])
def test_draw_word_unranks_every_word_by_its_weight(name, max_len):
    # over the n_g ranks, draw_word returns each word reading g exactly
    # (m - 1)^(max_len - |w|) times: the law of a word of uniform length
    # drawn uniformly, conditioned on reading g; and that is the law the
    # weight functions give
    G = group_arg(name)
    counts = constellations.ReducedWordCounts(G, max_len)
    m = 2 * G.n_letters
    words = _reduced_words(G.n_letters, max_len)
    for g, n_g in counts.n_words.items():
        drawn = collections.Counter(counts.draw_word(_FixedDraw(r), g)
                                    for r in range(n_g))
        assert drawn == {w: (m - 1) ** (max_len - len(w)) for w in words
                         if G.evaluate(w) == g}
        for w, times in drawn.items():
            assert _word_probability(counts, w, g) == Fraction(times, n_g)


def test_draw_image_splits_the_range_by_weight():
    counts = constellations.ReducedWordCounts(builtin("S3"), 3)
    low = 0
    for g, w in counts.image_weights.items():
        assert counts.draw_image(_FixedDraw(low)) == g
        assert counts.draw_image(_FixedDraw(low + w - 1)) == g
        low += w


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
    m = constellations._edge_mask(X)
    assert dis.lift(m) is dis.lift(m)


def test_edge_masks_decode_by_their_set_bits():
    """_bits reads each set bit once, ascending, on the narrow masks of
    a scan and on the wide sparse masks of a sampled check over a large
    group; _edge_set inverts _edge_mask on path spans of S3^2."""
    rng = random.Random(37)
    masks = [0, 1, 0b1011, (1 << 16) - 1] + [
        sum(1 << rng.randrange(w) for _ in range(8)) for w in (16, 6250, 156250)]
    for m in masks:
        assert list(constellations._bits(m)) == [
            i for i, b in enumerate(bin(m)[:1:-1]) if b == "1"]
    G = group_arg("S3^2")
    for _ in range(20):
        X, _, _ = path_span(G, 0, random_reduced_word(rng, G.n_letters, 8))
        mask = constellations._edge_mask(X)
        assert constellations._edge_set(mask, G.n_letters) == X.pos_edges


def test_dissolver_builds_the_fibers_it_reads(monkeypatch):
    """fiber[g] is built at first use, so no check builds |G| masks of
    |H| bits: a refused exhaustive scan builds no mask, and a sampled one
    a fiber per g it checks and a lift per subgraph."""
    G = group_arg("S3^2")               # 768 elements, 1536 edges
    n, samples = G.order(), 20
    built = []
    mask = constellations._mask
    monkeypatch.setattr(constellations, "_mask", lambda ids, size: (
        built.append(size) or mask(ids, size)))
    with pytest.raises(EnumerationBudgetError, match="1536 edges"):
        dissolves_all(G, G)
    assert built == []
    report = dissolves_all(G, G, mode="sampled", samples=samples, seed=3)
    assert report["total"] == samples and report["dissolved"] == 0
    assert 0 < built.count(n) <= 3 * samples
    dis = Dissolver(G, G)
    checked = [c.g for c, _, _ in
               sample_constellations(G, random.Random(3), samples)
               if not dis.dissolves(c).dissolved]
    assert sorted(dis.fiber) == sorted(set(checked))


@pytest.mark.parametrize("quotient,dissolved", [("S3", False),
                                                ("S3^2", True)])
def test_sampled_checks_search_each_lift_once(quotient, dissolved,
                                              monkeypatch):
    """A sampled check searches a new lift once: its parent map serves
    the lift mask and, if the check fails, the witness words.  A
    dissolved check searches only its new masks, and a failing one each
    of its masks once: a mask lifted before gets one extra search."""
    H, G = group_arg(quotient), builtin("S3")
    searched = []
    component = Dissolver._component
    monkeypatch.setattr(Dissolver, "_component", lambda self, mask: (
        searched.append(mask) or component(self, mask)))
    dis = Dissolver(H, G)
    for c, _, _ in sample_constellations(G, random.Random(7), 30):
        masks = {constellations._edge_mask(c.X), constellations._edge_mask(c.T)}
        before, new = len(searched), masks - set(dis._lifts)
        assert dis.dissolves(c).dissolved == dissolved
        assert sorted(searched[before:]) == sorted(new if dissolved else masks)
    assert sorted(set(searched)) == sorted(dis._lifts)


def test_sampled_report_witnesses_only_listed_failures(monkeypatch):
    """A sampled report reads witness words only for the failures it
    lists: of 200 failing checks over S3^2 ->> S3^2, the 3 listed ones
    name at most 6 masks, and each lift is searched once, then each
    named mask once more, in ascending order, after the checks."""
    G = group_arg("S3^2")
    searched = []
    component = Dissolver._component
    monkeypatch.setattr(Dissolver, "_component", lambda self, mask: (
        searched.append((self, mask)) or component(self, mask)))
    report = dissolves_all(G, G, mode="sampled", samples=200, seed=5,
                           detail_limit=3)
    assert report["total"] == 200 and report["dissolved"] == 0
    assert len(report["failures"]) == 3 and report["failures_truncated"]
    dis = searched[0][0]
    assert all(d is dis for d, _ in searched)
    k = G.n_letters
    named = {sum(1 << g * k + a - 1 for g, a in entry[edges])
             for entry in report["failures"]
             for edges in ("x_edges", "t_edges")}
    assert 0 < len(named) <= 6
    masks = [mask for _, mask in searched]
    assert sorted(masks[:len(dis._lifts)]) == sorted(dis._lifts)
    assert masks[len(dis._lifts):] == sorted(named)


@pytest.mark.parametrize("name,p", [
    ("C3", 2), ("C3", 3), ("C3", 5), ("C2xC2", 2), ("C2xC2", 3),
    ("S3", 2), ("S3", 3)])
def test_lift_sizes_match_homology(name, p):
    """The lift oracle, which enumerates nothing.  The kernel of
    G^p ->> G is H_1(Cayley graph of G; F_p), and a path over g is
    classed by its F_p-homology class, so the lift of a connected
    candidate X has |V(X)| * p^beta1(X) vertices, beta1(X) = |E(X)| -
    |V(X)| + 1.  A wrong cocycle that still maps onto G breaks it."""
    G = builtin(name)
    dis = Dissolver(extension_group(G, p), G)
    candidates, _ = constellations._candidate_pass(
        G, constellations.EXHAUSTIVE_EDGE_BUDGET)
    assert candidates
    wrong = [m for m, v in candidates if dis.lift(m).bit_count() !=
             v.bit_count() * p ** (m.bit_count() - v.bit_count() + 1)]
    assert wrong == []


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


def test_unknown_mode_is_refused_before_any_work(monkeypatch):
    """An unknown mode is refused before H (468,750 elements) or G is
    enumerated, in every mode's position of the argument list."""
    G = builtin("S3")
    H = extension_group(G, 5)

    def no_enumeration(self):
        raise AssertionError("%s enumerated" % self.name)

    monkeypatch.setattr(FinGroup, "_enumerate", no_enumeration)
    for mode in ("bogus", "", "Exhaustive"):
        with pytest.raises(ValueError, match="^mode must be 'exhaustive' "
                           "or 'sampled'$"):
            dissolves_all(H, G, mode=mode)


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
