import json
import random

import pytest

import treelike.cli
import treelike.extension
import treelike.tower
from treelike.extension import ext_evaluate, extension_group
from treelike.groups import FinGroup, builtin
from treelike.rewriting import graph_subgroup_basis
from treelike.stallings import stallings_graph
from treelike.tower import (
    MAX_LEVEL,
    Tower,
    TowerSpec,
    _separation_level,
    project,
    rz_experiment,
    tower_equal,
    tower_evaluate,
    tower_spec_from_json,
    treelike_campaign,
)
from treelike.words import parse_word, random_reduced_word, reduce_word


def _spec(name="C2xC2", primes=(2,), **kw):
    return TowerSpec(builtin(name), primes, **kw)


def test_spec_validation():
    with pytest.raises(ValueError, match="must be prime"):
        _spec(primes=(4,))
    with pytest.raises(ValueError, match="must be prime"):
        _spec(primes=(2, 9))
    with pytest.raises(ValueError, match="at least one prime"):
        _spec(primes=())
    with pytest.raises(ValueError, match="distinct nonidentity"):
        _spec(name="C2")


def test_level_zero_is_base():
    spec = _spec()
    t = Tower(spec)
    G = spec.base
    rng = random.Random(61)
    for _ in range(50):
        w = random_reduced_word(rng, 2, rng.randint(0, 8))
        e = t.evaluate(0, w)
        assert e == G.evaluate(w)
    assert t.identity(0) == 0


def test_level_one_matches_single_step_model():
    spec = _spec()
    t = Tower(spec)
    G = spec.base
    rng = random.Random(67)
    for _ in range(500):
        w = random_reduced_word(rng, 2, rng.randint(0, 10))
        assert t.evaluate(1, w) == ext_evaluate(G, 2, w)


def test_tower_evaluate_reads_a_word_at_a_level():
    spec = _spec()
    G = spec.base
    rng = random.Random(71)
    for _ in range(50):
        w = random_reduced_word(rng, 2, rng.randint(0, 10))
        assert tower_evaluate(spec, 0, w) == G.evaluate(w)
        assert tower_evaluate(spec, 1, w) == ext_evaluate(G, 2, w)


def test_tower_equal():
    spec = _spec()
    t = Tower(spec)
    u, v = parse_word("a b"), parse_word("b a")
    assert tower_equal(t.evaluate(1, u), t.evaluate(1, u))
    assert not tower_equal(t.evaluate(1, u), t.evaluate(1, v))
    assert tower_equal(t.evaluate(0, u), t.evaluate(0, v))
    with pytest.raises(ValueError, match="different levels"):
        tower_equal(t.evaluate(0, u), t.evaluate(1, u))


def test_evaluate_invariant_under_reduction():
    spec = _spec(primes=(2, 3))
    t = Tower(spec)
    rng = random.Random(71)
    for _ in range(100):
        w = [rng.choice((1, 2, -1, -2)) for _ in range(rng.randint(0, 10))]
        for n in (0, 1, 2):
            assert tower_equal(t.evaluate(n, w), t.evaluate(n, reduce_word(w)))


def test_projection_compatibility():
    spec = _spec(primes=(2, 3))
    t = Tower(spec)
    rng = random.Random(73)
    for _ in range(300):
        w = random_reduced_word(rng, 2, rng.randint(0, 8))
        for n in (1, 2):
            assert project(t.evaluate(n, w)) == t.evaluate(n - 1, w)
    with pytest.raises(ValueError, match="no projection"):
        project(t.evaluate(0, (1,)))


def test_level_one_group_order():
    spec = _spec()
    t = Tower(spec)
    assert t.group(1).order() == 128
    assert t.group(0) is spec.base


def test_level_two_group_laws():
    """The group laws of Tower.mul and Tower.inv at levels 0 (base ids),
    1 and 2; elements of different levels do not multiply."""
    spec = _spec(primes=(2, 3))
    t = Tower(spec)
    rng = random.Random(79)
    words = [random_reduced_word(rng, 2, rng.randint(0, 6)) for _ in range(12)]
    for n in (0, 1, 2):
        elems = [t.evaluate(n, w) for w in words]
        e = t.identity(n)
        for x in elems:
            assert t.mul(e, x) == x
            assert t.mul(x, e) == x
            assert t.mul(x, t.inv(x)) == e
            assert t.mul(t.inv(x), x) == e
        for _ in range(100):
            x, y, z = (rng.choice(elems) for _ in range(3))
            assert t.mul(t.mul(x, y), z) == t.mul(x, t.mul(y, z))
    with pytest.raises(ValueError, match="different levels"):
        t.mul(t.evaluate(0, words[1]), t.evaluate(1, words[1]))


def test_support_bounded_by_word_length():
    spec = _spec(primes=(2, 3))
    t = Tower(spec)
    rng = random.Random(83)
    for _ in range(100):
        w = random_reduced_word(rng, 2, rng.randint(0, 12))
        for n in (1, 2):
            assert len(t.evaluate(n, w).cocycle) <= len(w)


def test_commutator_nontrivial_above_base():
    spec = _spec(primes=(2, 2))
    t = Tower(spec)
    comm = parse_word("a b a^-1 b^-1")
    assert t.evaluate(0, comm) == t.identity(0)
    assert t.evaluate(1, comm) != t.identity(1)
    lvl2 = t.evaluate(2, comm)
    assert lvl2 != t.identity(2)
    assert len(lvl2.cocycle) <= len(comm)


def test_level_guards():
    t = Tower(_spec(primes=(2, 2, 2), max_level=2))
    with pytest.raises(ValueError, match="exceeds the configured maximum"):
        t.evaluate(3, (1,))
    with pytest.raises(ValueError, match="negative level"):
        t.evaluate(-1, (1,))
    short = Tower(_spec(primes=(2,), max_level=MAX_LEVEL))
    with pytest.raises(ValueError, match="no prime configured"):
        short.evaluate(2, (1,))
    with pytest.raises(ValueError, match="outside alphabet"):
        Tower(_spec()).evaluate(1, (5,))


def test_campaign_extension_passes():
    spec = TowerSpec(builtin("C3"), (2,), seed=21)
    report = treelike_campaign(spec, levels=1)
    assert report["schema"] == 1
    assert report["base"] == "C3"
    assert report["primes"] == [2]
    assert report["seed"] == 21
    assert report["all_dissolved"]
    level = report["levels"][0]
    assert level["level"] == 0 and level["order"] == 3
    assert level["dissolves"]["all_dissolved"]
    assert level["dissolves"]["total"] == 2032


def test_campaign_identity_baseline_fails():
    spec = TowerSpec(builtin("C3"), (2,), seed=22)
    report = treelike_campaign(spec, levels=1, step="identity")
    assert not report["all_dissolved"]
    assert report["levels"][0]["dissolves"]["dissolved"] == 0


def test_campaign_guards():
    spec = _spec()
    with pytest.raises(ValueError, match="step"):
        treelike_campaign(spec, step="other")
    with pytest.raises(ValueError, match="one prime per level"):
        treelike_campaign(spec, levels=2)


@pytest.mark.parametrize("step, levels, message", [
    ("identity", 3, "^level 2 has no prime configured$"),
    ("identity", 5, "^level 2 has no prime configured$"),
    ("extension", 2, "^campaign over 2 levels needs one prime per level$"),
])
def test_campaign_refuses_a_level_without_prime_before_any_scan(
        monkeypatch, step, levels, message):
    """A campaign whose top level has no prime scans no level below it."""
    calls = []
    monkeypatch.setattr(treelike.tower, "dissolves_all",
                        lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError, match=message):
        treelike_campaign(TowerSpec(builtin("C3"), (2,)), levels=levels,
                          mode="sampled", samples=5, step=step)
    assert calls == []


def test_campaign_refuses_unknown_mode_before_any_work(monkeypatch):
    """An unknown mode is refused before level 0 or level 1 is read."""
    spec = TowerSpec(builtin("S3"), (2,))

    def no_enumeration(self):
        raise AssertionError("%s enumerated" % self.name)

    monkeypatch.setattr(FinGroup, "_enumerate", no_enumeration)
    with pytest.raises(ValueError, match="^mode must be 'exhaustive' or "
                       "'sampled'$"):
        treelike_campaign(spec, mode="bogus")


def test_campaign_certificate_fallback():
    # level 1 exceeds the enumeration budget, so sampled word pairs are
    # certified directly
    spec = TowerSpec(builtin("C2xC2"), (2, 2), enum_budget=50, seed=23)
    report = treelike_campaign(spec, levels=1, mode="sampled", samples=15)
    level = report["levels"][0]
    assert level["overflow"] == "next level not enumerable"
    assert level["certificates"]["total"] == 15
    assert level["certificates"]["succeeded"] == 15
    assert report["all_dissolved"]


def test_tower_fail_line_counts_failed_certificates(capsys, monkeypatch):
    """Level 1 of C2xC2 with primes 2, 2 falls back to certificates; when
    every third one fails, the run exits 1 and says how many failed."""
    calls = []
    certify = treelike.tower.dissolving_certificate

    def every_third_fails(*args):
        calls.append(args)
        if len(calls) % 3 == 0:
            raise treelike.extension.CertificateError("refused")
        return certify(*args)

    monkeypatch.setattr(treelike.tower, "dissolving_certificate",
                        every_third_fails)
    code = treelike.cli.main(["tower", "--base", "C2xC2", "--primes", "2,2",
                              "--levels", "2", "--mode", "sampled",
                              "--samples", "20"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 1 and not report["all_dissolved"]
    assert report["levels"][1]["certificates"] == {"succeeded": 14,
                                                   "total": 20}
    assert captured.err == "FAIL: level 1: 6 of 20 certificates failed\n"


def test_campaign_level_overflow():
    spec = TowerSpec(builtin("C2xC2"), (2, 2), enum_budget=50, seed=24)
    report = treelike_campaign(spec, levels=2, mode="sampled", samples=10)
    assert report["levels"][1] == {"level": 1, "overflow": "level"}
    assert not report["all_dissolved"]


def test_spec_from_json():
    spec = tower_spec_from_json({"base": "C3", "primes": [2, 3]})
    assert spec.base.name == "C3" and spec.primes == (2, 3)
    inline = tower_spec_from_json({
        "base": {"degree": 3, "gens": {"a": [1, 2, 0], "b": [2, 0, 1]}},
        "primes": [2], "max_level": 2, "seed": 4})
    assert inline.base.order() == 3
    assert inline.max_level == 2 and inline.seed == 4
    with pytest.raises(ValueError, match="expected an object"):
        tower_spec_from_json([1])
    with pytest.raises(ValueError, match="need fields"):
        tower_spec_from_json({"base": "C3"})
    with pytest.raises(ValueError, match="name or group object"):
        tower_spec_from_json({"base": 3, "primes": [2]})
    with pytest.raises(ValueError, match="nonempty list"):
        tower_spec_from_json({"base": "C3", "primes": []})


def _cores(*gen_lists):
    return [stallings_graph([parse_word(w) for w in gens])
            for gens in gen_lists]


def test_rz_member_with_factorization():
    spec = _spec()
    report = rz_experiment(spec, _cores(("a",), ("b",)), parse_word("a b"))
    assert report["member"]
    assert not report["inconclusive"]
    assert report["separated_at"] is None
    assert report["levels"] == []
    factors = [parse_word(h) for h in report["factorization"]]
    acc = ()
    for h in factors:
        acc = reduce_word(acc + h)
    assert acc == parse_word("a b")


def test_rz_power_inside_single_factor_product():
    spec = _spec()
    report = rz_experiment(spec, _cores(("a",), ("a",)), parse_word("a^3"))
    assert report["member"]
    assert len(report["factorization"]) == 2


def test_rz_separation_frozen():
    spec = _spec()
    report = rz_experiment(spec, _cores(("a",), ("b",)), parse_word("b a"))
    assert not report["member"]
    assert report["separated_at"] == 1
    assert not report["inconclusive"]
    zero, one = report["levels"]
    assert zero == {"level": 0, "order": 4, "subgroup_orders": [2, 2],
                    "product_size": 4, "contains": True}
    assert one["level"] == 1 and one["order"] == 128
    assert one["subgroup_orders"] == [4, 4]
    assert one["product_size"] == 16
    assert not one["contains"]


def test_rz_inconclusive_when_capped():
    report = rz_experiment(_spec(max_level=0), _cores(("a",), ("b",)),
                           parse_word("b a"))
    assert not report["member"]
    assert report["separated_at"] is None
    assert report["inconclusive"]
    assert len(report["levels"]) == 1


def test_rz_requires_reduced_word():
    with pytest.raises(ValueError, match="reduced"):
        rz_experiment(_spec(), _cores(("a",)), (1, -1))


def _enumerated_level(K, n, gens, w):
    """Reference for rz's entry at level n, over the enumerated group K
    of that level: subgroups closed by mul_ids, the product set as a
    union of left cosets x H_i, all by element ids."""
    def span(ids):
        seen, frontier = {0}, [0]
        while frontier:
            x = frontier.pop()
            for g in ids:
                y = K.mul_ids(x, g)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen

    subs = [span([K.evaluate(g) for g in words]) for words in gens]
    product = {0}
    for ids in subs:
        cosets = set()
        for x in product:
            if x not in cosets:
                cosets.update(K.mul_ids(x, h) for h in ids)
        product = cosets
    return {"level": n, "order": K.order(),
            "subgroup_orders": [len(ids) for ids in subs],
            "product_size": len(product),
            "contains": K.evaluate(w) in product}


@pytest.mark.parametrize("name,p", [("C2xC2", 2), ("C2xC2", 3), ("S3", 2),
                                    ("D4", 2)])
def test_separation_level_matches_enumerated_extension(name, p):
    """The lazy level walk of rz (closures over the signed walk, order by
    formula) agrees with the enumerated extension_group by ids."""
    base = builtin(name)
    K = extension_group(base, p)
    rng = random.Random(sum(map(ord, name)) * p)
    seen = set()
    for _ in range(6):
        factors = [[random_reduced_word(rng, 2, rng.randint(1, 4))
                    for _ in range(rng.randint(1, 2))]
                   for _ in range(rng.randint(2, 3))]
        gens = [graph_subgroup_basis(stallings_graph(f)) for f in factors]
        tower = Tower(TowerSpec(base, (p,)))
        for _ in range(4):
            w = random_reduced_word(rng, 2, rng.randint(0, 8))
            for n, ref in ((0, base), (1, K)):
                got = _separation_level(tower, n, gens, w)
                assert got == _enumerated_level(ref, n, gens, w)
                seen.add((n, got["contains"]))
    assert (1, True) in seen and (1, False) in seen


def test_separation_level_two_matches_multiplication():
    """Above level 1 the closures walk ExtElements; with a budget past
    |G_2| = 128 * 3^129 they agree with closing under Tower.mul."""
    tower = Tower(_spec(primes=(2, 3), enum_budget=10 ** 70))

    def span(start, elems):
        seen, frontier = set(start), list(start)
        while frontier:
            x = frontier.pop()
            for g in elems:
                y = tower.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen

    rng = random.Random(89)
    one = tower.identity(2)
    for _ in range(4):
        gens = [graph_subgroup_basis(stallings_graph(
            [random_reduced_word(rng, 2, rng.randint(1, 4))]))
            for _ in range(2)]
        elems = [[tower.evaluate(2, g) for g in words] for words in gens]
        product = {one}
        for hs in elems:
            product = span(product, hs)
        inside = reduce_word(sum((words[0] * rng.randint(1, 5)
                                  for words in gens), ()))
        for w in (inside, random_reduced_word(rng, 2, rng.randint(0, 8))):
            assert _separation_level(tower, 2, gens, w) == {
                "level": 2, "order": 128 * 3 ** 129,
                "subgroup_orders": [len(span({one}, hs)) for hs in elems],
                "product_size": len(product),
                "contains": tower.evaluate(2, w) in product}


def test_rz_budget_at_exact_level_order(capsys, monkeypatch):
    """|S3^2| = 6 * 2^7 = 768: that budget admits level 1 and 767 refuses
    it, from the formula alone; rz enumerates no level above the base."""
    def enumerated(*args, **kwargs):
        raise AssertionError("rz enumerated a tower level")

    enumerate_ = FinGroup._enumerate

    def enumerate_base(self):
        if self.name != "S3":
            enumerated()
        enumerate_(self)

    monkeypatch.setattr(Tower, "group", enumerated)
    monkeypatch.setattr(FinGroup, "_enumerate", enumerate_base)
    for module in (treelike.extension, treelike.cli):
        monkeypatch.setattr(module, "extension_group", enumerated)

    def rz(budget):
        code = treelike.cli.main(["rz", "--base", "S3", "--primes", "2",
                                  "--h1", "a", "--h2", "b", "--w", "b a",
                                  "--budget-enum", str(budget)])
        return code, json.loads(capsys.readouterr().out)

    code, report = rz(768)
    assert code == 0 and report["separated_at"] == 1
    assert report["levels"][1]["order"] == 768
    assert not report["levels"][1]["contains"]
    code, report = rz(767)
    assert code == 1 and report["inconclusive"]
    zero, one = report["levels"]
    assert zero["contains"] and one == {"level": 1, "overflow": True}
    code, report = rz(1)
    assert code == 1
    assert report["levels"][0] == {"level": 0, "order": 6,
                                   "subgroup_orders": [2, 3],
                                   "product_size": 6, "contains": True}
    assert report["levels"][1] == {"level": 1, "overflow": True}
