"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
"criterion N: PASS/FAIL" line with the measured detail before
asserting, so a run with -s reads as a checklist:

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
import random
import time

from test_exchange import search_tree
from treelike.cayley import (borders, cayley_graph, connected_without_two_edges,
                             path_span)
from treelike.cli import main
from treelike.constellations import dissolves_all, sample_constellations
from treelike.extension import (CertificateError, dissolving_certificate,
                                ext_evaluate, extension_group,
                                free_object_pair_check, s_equal)
from treelike.groups import builtin, canonical_morphism
from treelike.rational import ProductAutomaton, member_product
from treelike.rewriting import exponent_sums, nielsen_basis, rewrite
from treelike.stallings import member, stallings_graph
from treelike.tower import Tower, TowerSpec, project, rz_experiment, tower_equal
from treelike.words import (concat, invert_word, parse_word,
                            random_reduced_word, reduce_word)


def _verdict(n, ok, detail):
    print("criterion %d: %s - %s" % (n, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_01_extension_order_formula():
    cases = [("C2xC2", 2, 128), ("C3", 2, 48), ("C3", 3, 243)]
    details = []
    ok = True
    for name, p, want in cases:
        t0 = time.perf_counter()
        got = extension_group(builtin(name), p).order()
        dt = time.perf_counter() - t0
        details.append("%s p=%d: %d in %.2fs" % (name, p, got, dt))
        ok = ok and got == want and dt < 5.0
    _verdict(1, ok, "; ".join(details))


def test_criterion_02_exhaustive_dissolving():
    G = builtin("C2xC2")
    t0 = time.perf_counter()
    report = dissolves_all(extension_group(G, 2), G, mode="exhaustive")
    dt = time.perf_counter() - t0
    ok = (report["total"] == 50094
          and report["dissolved"] == report["total"]
          and report["failures"] == []
          and dt < 60.0)
    _verdict(2, ok, "%d/%d dissolved in %.1fs"
             % (report["dissolved"], report["total"], dt))


def test_criterion_03_certificates_with_cross_checks():
    groups = ("C2xC2", "C3", "S3", "D4")
    A5 = builtin("A5")
    certs = misses = 0
    for gi, name in enumerate(groups):
        G = builtin(name)
        triples = list(sample_constellations(G, random.Random(900 + gi), 250))
        assert len(triples) == 250
        for ti, (con, u, v) in enumerate(triples):
            for s_name, p in (("C2", 2), ("C3", 3)):
                try:
                    dissolving_certificate(G, con, u, v, builtin(s_name))
                    certs += 1
                except CertificateError:
                    misses += 1
                if ext_evaluate(G, p, u) == ext_evaluate(G, p, v):
                    misses += 1
            try:
                dissolving_certificate(G, con, u, v, A5)
                certs += 1
            except CertificateError:
                misses += 1
            res = s_equal(G, A5, u, v, mode="witness", samples=4000,
                          seed=7000 + 10 * gi + ti)
            if res.status != "distinct":
                misses += 1
    ok = certs == 3000 and misses == 0
    _verdict(3, ok, "%d certificates, %d cross-check misses" % (certs, misses))


def test_criterion_04_border_flow_identity():
    rng = random.Random(41)
    names = ("C2xC2", "C3", "C5", "S3", "D4")
    checked = bad = 0
    while checked < 1000:
        G = builtin(names[checked % len(names)])
        w = random_reduced_word(rng, 2, rng.randint(1, 12))
        X, end, counts = path_span(G, 0, w)
        if end == 0:
            continue
        inner = [v for v in X.vertices if v not in (0, end)]
        Z = {0} | {v for v in inner if rng.random() < 0.5}
        D, C = borders(X, Z)
        flow = sum(counts[e] for e in D) - sum(counts[e] for e in C)
        checked += 1
        if flow != 1:
            bad += 1
    _verdict(4, bad == 0, "%d (path, Z) instances, %d flow violations"
             % (checked, bad))


def test_criterion_05_rewriting_exponent_sums():
    # a fresh randomly shuffled spanning tree for every closed word
    rng = random.Random(53)
    names = ("C2xC2", "C3", "S3", "D4")
    checked = bad = 0
    while checked < 500:
        G = builtin(names[checked % len(names)])
        tree = search_tree(G, rng=rng)
        index = {bw.edge: i for i, bw in enumerate(nielsen_basis(G, tree))}
        w = random_reduced_word(rng, 2, rng.randint(1, 10))
        closed = concat(w, invert_word(tree.path_word(G.evaluate(w))))
        _, end, counts = path_span(G, 0, closed)
        sums = exponent_sums(rewrite(G, tree, closed))
        checked += 1
        if end != 0 or any(sums.get(index[e], 0) != counts.get(e, 0)
                           for e in index):
            bad += 1
    _verdict(5, bad == 0, "%d closed words, %d mismatches" % (checked, bad))


def test_criterion_06_free_object_pair_check_exhaustive():
    checked = bad = 0
    details = []
    for name in ("C2", "C3", "C5", "A5"):
        S = builtin(name)
        o = S.exponent()
        details.append("%s exp=%d" % (name, o))
        for m in range(2 * o + 1):
            for n in range(2 * o + 1):
                want = (m % o == 0) and (n % o == 0)
                checked += 1
                if free_object_pair_check(S, m, n) != want:
                    bad += 1
    _verdict(6, bad == 0, "%s; %d pairs, %d disagreements"
             % (", ".join(details), checked, bad))


def test_criterion_07_connected_without_any_two_edges():
    pairs = bad = 0
    for name in ("C3", "C5", "C2xC2", "S3", "D4"):
        G = builtin(name)
        assert G.separated() and G.order() <= 24
        edges = sorted(cayley_graph(G).pos_edges)
        for e, f in itertools.combinations(edges, 2):
            pairs += 1
            if not connected_without_two_edges(G, e, f):
                bad += 1
    _verdict(7, bad == 0, "%d edge pairs over 5 groups, %d disconnections"
             % (pairs, bad))


def test_criterion_08_canonical_morphisms_compose():
    E = extension_group(builtin("C2xC2"), 2)
    D4 = builtin("D4")
    C = builtin("C2xC2")
    phi1 = canonical_morphism(E, D4)
    phi2 = canonical_morphism(D4, C)
    phi12 = canonical_morphism(E, C)
    ok = phi1 is not None and phi2 is not None and phi12 is not None
    if ok:
        ok = all(phi1[E.evaluate((a,))] == D4.evaluate((a,))
                 and phi2[D4.evaluate((a,))] == C.evaluate((a,))
                 for a in (1, 2))
        ok = ok and all(phi12[x] == phi2[phi1[x]] for x in range(E.order()))
        ok = ok and all(phi1[E.mul_ids(x, y)] == D4.mul_ids(phi1[x], phi1[y])
                        for x in range(E.order()) for y in range(E.order()))
        ok = ok and all(phi2[D4.mul_ids(x, y)] == C.mul_ids(phi2[x], phi2[y])
                        for x in range(D4.order()) for y in range(D4.order()))
    _verdict(8, ok, "maps exist %s/%s/%s, full multiplication tables agree"
             % (phi1 is not None, phi2 is not None, phi12 is not None))


def test_criterion_09_extension_of_larger_group_dissolves_smaller():
    J = extension_group(builtin("D4"), 2)
    report = dissolves_all(J, builtin("C2xC2"), mode="exhaustive")
    ok = (J.order() == 4096
          and report["total"] == 50094
          and report["dissolved"] == report["total"])
    _verdict(9, ok, "order %d, %d/%d dissolved"
             % (J.order(), report["dissolved"], report["total"]))


def test_criterion_10_separation_experiment_frozen_scenario():
    spec = TowerSpec(base=builtin("C2xC2"), primes=(2,))
    cores = [stallings_graph([parse_word("a")]),
             stallings_graph([parse_word("b")])]
    report = rz_experiment(spec, cores, parse_word("b a"))
    want_levels = [
        {"level": 0, "order": 4, "subgroup_orders": [2, 2],
         "product_size": 4, "contains": True},
        {"level": 1, "order": 128, "subgroup_orders": [4, 4],
         "product_size": 16, "contains": False},
    ]
    ok = (report["member"] is False
          and report["separated_at"] == 1
          and report["levels"] == want_levels
          and report["inconclusive"] is False)
    _verdict(10, ok, "member=%r separated_at=%r product sizes %r"
             % (report["member"], report["separated_at"],
                [lv.get("product_size") for lv in report["levels"]]))


def _all_reduced_words(max_len):
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for x in (1, 2, -1, -2):
                if w and w[-1] == -x:
                    continue
                nxt.append(w + (x,))
        out.extend(nxt)
        frontier = nxt
    return out


def _subgroup_ball(gens, max_len, cap):
    steps = list(gens) + [invert_word(g) for g in gens]
    ball = {()}
    frontier = [()]
    while frontier and len(ball) < cap:
        w = frontier.pop()
        for g in steps:
            nxt = reduce_word(concat(w, g))
            if len(nxt) <= max_len and nxt not in ball:
                ball.add(nxt)
                frontier.append(nxt)
    return ball


def test_criterion_11_oracle_agrees_with_bounded_brute_force():
    words = _all_reduced_words(6)
    assert len(words) == 1457
    rng = random.Random(110)
    instances = contradictions = positives = 0
    while instances < 50:
        k = rng.choice((2, 2, 3))
        gen_lists = [[random_reduced_word(rng, 2, rng.randint(1, 4))
                      for _ in range(rng.randint(1, 2))]
                     for _ in range(k)]
        try:
            cores = [stallings_graph(g) for g in gen_lists]
        except ValueError:
            continue
        instances += 1
        balls = [_subgroup_ball(g, 8, 150) for g in gen_lists]
        # partial products stay sound: the identity lies in every ball,
        # so any prefix product is contained in the full bounded product
        product = {()}
        for ball in balls:
            if len(product) * len(ball) > 600000:
                break
            product = {reduce_word(concat(x, h)) for x in product for h in ball}
        aut = ProductAutomaton(cores).saturate()
        for i, w in enumerate(words):
            factors = aut.factorize(w)
            if factors is not None:
                positives += 1
                acc = ()
                for core, h in zip(cores, factors):
                    if not member(core, h):
                        contradictions += 1
                    acc = concat(acc, h)
                if reduce_word(acc) != w:
                    contradictions += 1
            elif w in product:
                contradictions += 1
            if i % 121 == 0:
                got, _ = member_product(cores, w)
                if got != (factors is not None):
                    contradictions += 1
    ok = instances == 50 and positives > 0 and contradictions == 0
    _verdict(11, ok, "%d instances x %d words, %d verified positives, "
             "%d contradictions" % (instances, len(words), positives,
                                    contradictions))


def test_criterion_12_level_two_group_axioms():
    spec = TowerSpec(base=builtin("C2xC2"), primes=(2, 3))
    t = Tower(spec)
    rng = random.Random(67)
    one = t.identity(2)
    checked = bad = 0
    if t.evaluate(2, ()).cocycle != () or not tower_equal(t.evaluate(2, ()), one):
        bad += 1
    for _ in range(100):
        u, v, w = (random_reduced_word(rng, 2, rng.randint(1, 6))
                   for _ in range(3))
        x, y, z = (t.evaluate(2, s) for s in (u, v, w))
        checked += 1
        if not tower_equal(t.mul(t.mul(x, y), z), t.mul(x, t.mul(y, z))):
            bad += 1
        if not (tower_equal(t.mul(x, t.inv(x)), one)
                and tower_equal(t.mul(t.inv(x), x), one)):
            bad += 1
        if not tower_equal(project(t.mul(x, y)), t.mul(project(x), project(y))):
            bad += 1
        if not tower_equal(project(x), t.evaluate(1, u)):
            bad += 1
        if len(x.cocycle) > len(u):
            bad += 1
    _verdict(12, bad == 0, "%d random triples, %d axiom violations"
             % (checked, bad))


def test_criterion_13_exhaustive_scan_of_s3(capsys):
    t0 = time.perf_counter()
    code = main(["dissolve", "--H", "S3^2", "--G", "S3", "--detail-limit", "0"])
    dt = time.perf_counter() - t0
    report = json.loads(capsys.readouterr().out)
    ok = (code == 0 and report["total"] == 21222180
          and report["all_dissolved"] and dt < 60.0)
    _verdict(13, ok, "%d/%d dissolved in %.1fs"
             % (report["dissolved"], report["total"], dt))
