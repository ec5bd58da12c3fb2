import json
import random

import pytest

from treelike import extension
from treelike.cayley import path_span
from treelike.constellations import Constellation
from treelike.extension import (
    Certificate,
    CertificateError,
    ExtContext,
    ExtElement,
    certificate_to_json,
    dissolving_certificate,
    ext_evaluate,
    ext_order,
    extension_group,
    free_object_pair_check,
    s_equal,
)
from treelike.groups import EnumerationBudgetError, FinGroup, builtin
from treelike.rewriting import (
    exponent_sums,
    nielsen_basis,
    rewrite,
    spanning_tree_avoiding,
)
from treelike.words import (
    concat,
    invert_word,
    parse_word,
    random_reduced_word,
    reduce_word,
)


def _trivial_group():
    return FinGroup.from_perms(("a", "b"), [(0,), (0,)], name="1")


def _constellation_pair():
    G = builtin("C2xC2")
    u, v = parse_word("a b"), parse_word("b a")
    X, _, _ = path_span(G, 0, u)
    T, _, _ = path_span(G, 0, v)
    return G, Constellation(X, G.evaluate(u), T), u, v


def _random_element(ctx, rng):
    w = random_reduced_word(rng, ctx.G.n_letters, rng.randint(0, 10))
    return ctx.evaluate(w)


def test_context_validates_p():
    G = builtin("C2xC2")
    for bad in (0, 1, 4, 6):
        with pytest.raises(ValueError, match="must be prime"):
            ExtContext(G, bad)
    ExtContext(G, 2)
    ExtContext(G, 13)


def test_letter_image_frozen():
    G = builtin("C2xC2")
    ctx = ExtContext(G, 2)
    assert ctx.letter(1) == ExtElement(G.evaluate((1,)), (((0, 1), 1),))
    assert ctx.letter(2) == ExtElement(G.evaluate((2,)), (((0, 2), 1),))
    assert ctx.identity == ExtElement(0, ())


def test_group_laws():
    rng = random.Random(41)
    for p in (2, 3):
        ctx = ExtContext(builtin("C2xC2"), p)
        for _ in range(60):
            x = _random_element(ctx, rng)
            y = _random_element(ctx, rng)
            z = _random_element(ctx, rng)
            assert ctx.mul(ctx.identity, x) == x
            assert ctx.mul(x, ctx.identity) == x
            assert ctx.mul(x, ctx.inv(x)) == ctx.identity
            assert ctx.mul(ctx.inv(x), x) == ctx.identity
            assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))


def test_evaluate_frozen_examples():
    G = builtin("C2xC2")
    ga, gb, gab = (G.evaluate(w) for w in ((1,), (2,), (1, 2)))
    got_ab = ext_evaluate(G, 2, parse_word("a b"))
    assert got_ab == ExtElement(gab, tuple(sorted([((0, 1), 1), ((ga, 2), 1)])))
    got_ba = ext_evaluate(G, 2, parse_word("b a"))
    assert got_ba == ExtElement(gab, tuple(sorted([((0, 2), 1), ((gb, 1), 1)])))
    assert got_ab != got_ba
    assert got_ab.base == got_ba.base
    assert len(got_ab.cocycle) == 2


def test_evaluate_is_product_of_letter_images():
    rng = random.Random(43)
    for name, p in (("C2xC2", 2), ("C3", 3), ("S3", 2)):
        ctx = ExtContext(builtin(name), p)
        for _ in range(100):
            w = random_reduced_word(rng, 2, rng.randint(0, 12))
            acc = ctx.identity
            for x in w:
                img = ctx.letter(x) if x > 0 else ctx.inv(ctx.letter(-x))
                acc = ctx.mul(acc, img)
            assert acc == ctx.evaluate(w)


def test_cocycle_equals_traversal_counts_mod_p():
    # independent oracle: the cocycle is the signed edge-traversal count
    # vector of the Cayley walk, reduced mod p
    rng = random.Random(47)
    for name, p in (("C2xC2", 2), ("D4", 3)):
        G = builtin(name)
        for _ in range(150):
            w = [rng.choice((1, 2, -1, -2))
                 for _ in range(rng.randint(0, 14))]
            _, end, counts = path_span(G, 0, w)
            got = ext_evaluate(G, p, w)
            assert got.base == end == G.evaluate(w)
            want = {e: c % p for e, c in counts.items() if c % p}
            assert dict(got.cocycle) == want


def test_order_formula_and_enumeration():
    cases = [
        (builtin("C2xC2"), 2, 128),
        (builtin("C3"), 2, 48),
        (builtin("C3"), 3, 243),
        (_trivial_group(), 2, 4),
    ]
    for G, p, want in cases:
        assert ext_order(G.order(), G.n_letters, p) == want
        assert extension_group(G, p).order() == want


def test_projection_to_base_is_homomorphism():
    rng = random.Random(53)
    ctx = ExtContext(builtin("D4"), 2)
    G = ctx.G
    for _ in range(200):
        x = _random_element(ctx, rng)
        y = _random_element(ctx, rng)
        assert ctx.mul(x, y).base == G.mul_ids(x.base, y.base)


def test_kernel_is_cut_out_by_basis_exponents():
    # a closed word maps to the identity iff every Nielsen exponent sum
    # vanishes mod p
    rng = random.Random(59)
    G = builtin("C2xC2")
    tree = spanning_tree_avoiding(G)
    for p in (2, 3):
        ctx = ExtContext(G, p)
        for _ in range(150):
            w = random_reduced_word(rng, 2, rng.randint(0, 10))
            closed = concat(w, invert_word(tree.path_word(G.evaluate(w))))
            sums = exponent_sums(rewrite(G, tree, closed))
            trivial = all(s % p == 0 for s in sums.values())
            assert (ctx.evaluate(closed) == ctx.identity) == trivial


def _generated_subgroup(S, ids):
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in ids:
            z = S.mul_ids(x, y)
            if z not in seen:
                seen.add(z)
                stack.append(z)
    return seen


def test_s_equal_reflexive():
    G = builtin("C2xC2")
    res = s_equal(G, builtin("C2"), parse_word("a b a"), parse_word("a b a"))
    assert res.status == "equal"
    assert res.rank == 5


def test_s_equal_distinct_images_in_base():
    res = s_equal(builtin("C2xC2"), builtin("C2"),
                  parse_word("a"), parse_word("b"))
    assert res.status == "distinct"
    assert res.witness is None


def test_s_equal_separates_commuting_pair():
    G = builtin("C2xC2")
    S = builtin("C2")
    u, v = parse_word("a b"), parse_word("b a")
    res = s_equal(G, S, u, v)
    assert res.status == "distinct"
    assert res.witness is not None and len(res.witness) == res.rank == 5
    # witness values generate S and evaluate the rewritten difference
    # to a nonidentity element
    assert _generated_subgroup(S, set(res.witness)) == set(range(S.order()))
    tree = spanning_tree_avoiding(G)
    factors = rewrite(G, tree, reduce_word(concat(u, invert_word(v))))
    acc = 0
    for i, s in factors:
        val = res.witness[i] if s > 0 else S.inv_id(res.witness[i])
        acc = S.mul_ids(acc, val)
    assert acc != 0
    # the C_2-extension model agrees
    assert ext_evaluate(G, 2, u) != ext_evaluate(G, 2, v)


def test_s_equal_witness_mode_on_large_s():
    G = builtin("C2xC2")
    A5 = builtin("A5")
    res = s_equal(G, A5, parse_word("a b"), parse_word("b a"),
                  mode="witness", samples=4000, seed=1)
    assert res.status == "distinct"
    assert _generated_subgroup(A5, set(res.witness)) == set(range(60))
    with pytest.raises(EnumerationBudgetError):
        s_equal(G, A5, parse_word("a b"), parse_word("b a"), mode="exact")


def test_witness_completion_budget_is_exact(monkeypatch):
    # one spare basis index and two letter images of A5: the 60
    # completions of the spare index are searched
    S = builtin("A5")
    fill = extension._letter_image_ids(S)
    got = extension._materialize_witness(S, 2, {0: fill[0]}, fill, 60)
    assert got[0] == fill[0]
    assert _generated_subgroup(S, set(got)) == set(range(60))
    tried = []
    monkeypatch.setattr(extension, "_generates",
                        lambda S, ids: tried.append(ids))
    with pytest.raises(EnumerationBudgetError,
                       match="^witness completion search of 60\\^1 "
                             "assignments exceeds budget of 59 assignments$"):
        extension._materialize_witness(S, 2, {0: fill[0]}, fill, 59)
    assert tried == []


def test_s_equal_probably_equal():
    G = builtin("C2xC2")
    S = builtin("C2")
    u = parse_word("a b")
    tree = spanning_tree_avoiding(G)
    b0 = nielsen_basis(G, tree)[0].word
    v = reduce_word(concat(u, concat(b0, b0)))
    assert s_equal(G, S, u, v, mode="exact").status == "equal"
    res = s_equal(G, S, u, v, mode="witness", samples=50, seed=3)
    assert res.status == "probably-equal"
    assert res.samples_tried == 50


def test_s_equal_mode_validation_and_determinism():
    G = builtin("C2xC2")
    S = builtin("C3")
    with pytest.raises(ValueError, match="mode"):
        s_equal(G, S, parse_word("a b"), parse_word("b a"), mode="guess")
    # refused whether or not the images in G differ or a scan is needed
    S3_2, A5 = extension_group(builtin("S3"), 2), builtin("A5")
    for u, v in (("a a", ""), ("a b", "a b"), ("a b", "b a")):
        with pytest.raises(ValueError, match="^mode must be 'exact' or "
                           "'witness'$"):
            s_equal(S3_2, A5, parse_word(u), parse_word(v), mode="bogus")
    a = s_equal(G, S, parse_word("a b"), parse_word("b a"),
                mode="witness", seed=7)
    b = s_equal(G, S, parse_word("a b"), parse_word("b a"),
                mode="witness", seed=7)
    assert (a.status, a.witness, a.samples_tried) == \
        (b.status, b.witness, b.samples_tried)


def test_free_object_pair_check():
    for name in ("C2", "C3", "C5"):
        S = builtin(name)
        o = S.exponent()
        for m in range(2 * o + 1):
            for n in range(2 * o + 1):
                want = m % o == 0 and n % o == 0
                assert free_object_pair_check(S, m, n) == want
    assert not free_object_pair_check(builtin("C2"), 1, 1)
    assert free_object_pair_check(builtin("C2"), 2, 4)


def test_certificate_frozen_for_c2():
    G, c, u, v = _constellation_pair()
    cert = dissolving_certificate(G, c, u, v, builtin("C2"))
    assert cert.e == (0, 1) and cert.f == (0, 2)
    assert cert.u_exp == 1 and cert.v_exp == 1
    assert cert.o == 2
    assert cert.z == frozenset({0})
    assert cert.d_edges == frozenset({(0, 1)})
    assert cert.c_edges == frozenset()
    assert cert.dp_edges == frozenset({(0, 2)})
    assert cert.cp_edges == frozenset()
    assert cert.u_border_sum == cert.v_border_sum == 1
    assert cert.e not in cert.tree_edges and cert.f not in cert.tree_edges


def test_certificate_order_scales_with_s():
    G, c, u, v = _constellation_pair()
    for name, o in (("C3", 3), ("A5", 30)):
        cert = dissolving_certificate(G, c, u, v, builtin(name))
        assert cert.o == o
        assert cert.e == (0, 1) and cert.f == (0, 2)
        assert cert.u_exp == 1 % o and cert.v_exp == 1 % o


def test_certificate_rejects_bad_paths():
    G, c, u, v = _constellation_pair()
    with pytest.raises(ValueError, match="does not run inside"):
        dissolving_certificate(G, c, v, v, builtin("C2"))
    with pytest.raises(ValueError, match="does not read 1 -> g"):
        dissolving_certificate(G, c, parse_word("a"), v, builtin("C2"))


def test_certificate_requires_separated_group_and_nontrivial_s():
    C2 = builtin("C2")
    X, _, _ = path_span(C2, 0, parse_word("a"))
    T, _, _ = path_span(C2, 0, parse_word("b"))
    c = Constellation(X, 1, T)
    with pytest.raises(ValueError, match="separated generation"):
        dissolving_certificate(C2, c, parse_word("a"), parse_word("b"), C2)
    G, c, u, v = _constellation_pair()
    with pytest.raises(ValueError, match="nontrivial"):
        dissolving_certificate(G, c, u, v, _trivial_group())


def test_certificate_json():
    G, c, u, v = _constellation_pair()
    cert = dissolving_certificate(G, c, u, v, builtin("C2"))
    data = certificate_to_json(cert)
    json.dumps(data)
    assert data["schema"] == 1
    assert data["e"] == [0, 1] and data["f"] == [0, 2]
    assert data["z"] == [0]
    assert data["d_edges"] == [[0, 1]]
    assert data["dp_edges"] == [[0, 2]]
    assert data["u_exp"] == data["v_exp"] == 1
    assert data["o"] == 2
    assert len(data["tree_edges"]) == G.order() - 1
