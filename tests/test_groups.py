import math
import random

import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from treelike import groups, rewriting
from treelike.cli import group_arg
from treelike.groups import (
    BUILTIN_NAMES,
    EnumerationBudgetError,
    FinGroup,
    builtin,
    canonical_morphism,
    group_from_json,
    perm_inv,
    perm_mul,
    subdirect,
)
from treelike.rewriting import spanning_tree_avoiding
from treelike.words import parse_word, random_reduced_word

A = 1
B = 2


def _sympy_group(G):
    perms = [Permutation(list(G.element(G.evaluate((a,)))), size=G.degree)
             for a in range(1, G.n_letters + 1)]
    return PermutationGroup(perms)


def _sympy_exponent(G):
    sg = _sympy_group(G)
    return math.lcm(*(p.order() for p in sg.elements))


def test_perm_helpers():
    p, q = (1, 2, 0), (0, 2, 1)
    assert perm_mul(p, q) == tuple(q[p[i]] for i in range(3))
    assert perm_mul(p, perm_inv(p)) == (0, 1, 2)


def test_builtin_orders_against_sympy():
    want = {"C2": 2, "C3": 3, "C5": 5, "C2xC2": 4, "S3": 6, "D4": 8, "A5": 60}
    assert set(BUILTIN_NAMES) == set(want)
    for name in BUILTIN_NAMES:
        G = builtin(name)
        assert G.order() == want[name]
        assert _sympy_group(G).order() == want[name]


def test_builtin_exponents_against_sympy():
    for name in BUILTIN_NAMES:
        G = builtin(name)
        assert G.exponent() == _sympy_exponent(G)
    assert builtin("C2").exponent() == 2
    assert builtin("C2xC2").exponent() == 2
    assert builtin("A5").exponent() == 30


def test_separated_flags():
    assert not builtin("C2").separated()
    for name in ("C2xC2", "C3", "C5", "S3", "D4", "A5"):
        assert builtin(name).separated()


def test_unknown_builtin():
    with pytest.raises(ValueError, match="unknown"):
        builtin("C7")


def test_evaluate_examples():
    C3 = builtin("C3")
    assert C3.evaluate(parse_word("a b")) == 0
    G = builtin("C2xC2")
    ab = G.evaluate(parse_word("a b"))
    assert ab != 0
    assert G.element(ab) == perm_mul(G.element(G.evaluate((A,))),
                                     G.element(G.evaluate((B,))))
    assert G.evaluate(()) == 0


def test_evaluate_homomorphic_and_reduce_invariant():
    rng = random.Random(5)
    G = builtin("S3")
    for _ in range(200):
        u = tuple(rng.choice((A, -A, B, -B)) for _ in range(rng.randint(0, 10)))
        v = tuple(rng.choice((A, -A, B, -B)) for _ in range(rng.randint(0, 10)))
        assert G.evaluate(u + v) == G.mul_ids(G.evaluate(u), G.evaluate(v))
        from treelike.words import reduce_word
        assert G.evaluate(u) == G.evaluate(reduce_word(u))


def test_evaluate_unknown_letter():
    G = builtin("C2xC2")
    with pytest.raises(ValueError, match="letter"):
        G.evaluate((3,))


def test_evaluate_walks_the_step_tables():
    G = builtin("S3")
    rng = random.Random(31)
    for _ in range(50):
        w = random_reduced_word(rng, 2, rng.randint(0, 12))
        i = 0
        for x in w:
            i = G.step(i, x)
        assert G.evaluate(w) == i
    for w, bad in (((1, 0), 0), ((-3,), -3), ((2, 3, 1), 3)):
        with pytest.raises(ValueError, match=r"^letter %d outside alphabet "
                           r"of size 2$" % bad):
            G.evaluate(w)


def test_enumeration_table():
    G = builtin("S3")
    assert G.order() == 6
    for i in range(G.order()):
        w = G.witness(i)
        assert G.evaluate(w) == i
        for a in (A, B, -A, -B):
            assert G.step(i, a) == G.evaluate(tuple(w) + (a,))
    # identity gets id 0 and the empty witness
    assert G.witness(0) == ()


def _bfs_distances(G):
    """Distance from 1 of every id, by a breadth-first search over the
    step rows that keeps no tree."""
    rows, dist = G.rows(), {0: 0}
    queue = [0]
    for u in queue:
        for _, row in rows:
            if row[u] not in dist:
                dist[row[u]] = dist[u] + 1
                queue.append(row[u])
    return dist


@pytest.mark.parametrize("name", [
    "C3", "S3", "A5", "D4", "C2xC2^2", "S3^2", "subdirect"])
def test_enumeration_tree_is_a_shortest_path_tree(name):
    G = (subdirect([builtin("S3"), builtin("C2xC2")]) if name == "subdirect"
         else group_arg(name))
    parent, dist = G.parents(), _bfs_distances(G)
    assert len(parent) == G.order() == len(dist)
    assert parent[0] is None and G.witness(0) == ()
    for v in range(1, G.order()):
        u, x = parent[v]
        assert u < v and G.step(u, x) == v
        assert G.witness(v) == G.witness(u) + (x,)
        assert len(G.witness(v)) == dist[v]


def test_tree_readers_build_no_word(monkeypatch):
    """Enumerating, the canonical morphism and spanning trees read the
    parent tuple: none of them labels a path."""
    labelled = []

    def counting(real):
        return lambda parent, v: labelled.append(v) or real(parent, v)

    for module in (groups, rewriting):
        monkeypatch.setattr(module, "path_label", counting(module.path_label))
    H, G = group_arg("S3^2"), builtin("S3")
    H.order()
    assert H.canonical_morphism_to(G) is not None
    assert spanning_tree_avoiding(H, (0, 1), (1, 2)) != spanning_tree_avoiding(H)
    assert labelled == []
    H.witness(7)
    H.witness(7)
    assert labelled == [7]


def test_enumeration_budget():
    G = FinGroup.from_perms(("a", "b"), [(1, 0, 2), (1, 2, 0)],
                            name="S3small", enum_budget=3)
    with pytest.raises(EnumerationBudgetError):
        G.order()


def test_inverse_and_order_of():
    G = builtin("D4")
    for i in range(G.order()):
        assert G.mul_ids(i, G.inv_id(i)) == 0
        k = G.order_of(i)
        acc = 0
        for _ in range(k):
            acc = G.mul_ids(acc, i)
        assert acc == 0


def test_canonical_morphism_exists_d4_to_c2xc2():
    D4, G4 = builtin("D4"), builtin("C2xC2")
    phi = canonical_morphism(D4, G4)
    assert phi is not None
    rng = random.Random(6)
    for _ in range(200):
        w = random_reduced_word(rng, 2, rng.randint(0, 12))
        assert phi[D4.evaluate(w)] == G4.evaluate(w)
    # surjective and a homomorphism, checked independently of construction
    assert set(phi) == set(range(G4.order()))
    for x in range(D4.order()):
        for y in range(D4.order()):
            assert phi[D4.mul_ids(x, y)] == G4.mul_ids(phi[x], phi[y])


def _c4():
    return FinGroup.from_perms(("a", "b"), [(1, 2, 3, 0), (3, 0, 1, 2)],
                               name="C4")


def test_canonical_morphism_none_c2xc2_to_c4():
    C4 = _c4()
    G4 = builtin("C2xC2")
    assert canonical_morphism(G4, C4) is None
    # witness of the obstruction: a^2 closes in C2xC2 but not in C4
    w = parse_word("a a")
    assert G4.evaluate(w) == 0
    assert C4.evaluate(w) != 0


def test_canonical_morphism_identity():
    G = builtin("S3")
    phi = canonical_morphism(G, G)
    assert phi == list(range(G.order()))


def _morphism_by_witnesses(H, G):
    """The defining construction: phi(h) = [witness(h)]_G, a morphism iff
    it commutes with every generator step."""
    phi = [G.evaluate(H.witness(h)) for h in range(H.order())]
    for h in range(H.order()):
        for a in range(1, H.n_letters + 1):
            if phi[H.step(h, a)] != G.step(phi[h], a):
                return None
    return phi


# the quotients the tests dissolve, certify or compose, and pairs with no
# morphism (None)
@pytest.mark.parametrize("quotient,base,exists", [
    ("C3^2", "C3", True), ("C3^3", "C3", True), ("C3^5", "C3", True),
    ("C2xC2^2", "C2xC2", True), ("C2xC2^2", "D4", True),
    ("D4", "C2xC2", True), ("S3^2", "S3", True), ("D4^2", "D4", True),
    ("S3", "S3", True), ("S3", "C2", False), ("S3", "C3", False),
    ("C3", "C2xC2", False), ("C2xC2", "C4", False), ("D4", "S3", False)])
def test_canonical_morphism_matches_witness_evaluation(quotient, base, exists):
    H = group_arg(quotient)
    G = _c4() if base == "C4" else group_arg(base)
    want = _morphism_by_witnesses(H, G)
    assert (want is not None) == exists
    assert canonical_morphism(H, G) == want


def test_canonical_morphism_alphabet_mismatch():
    G = builtin("C2xC2")
    H = FinGroup.from_perms(("a",), [(1, 0)], name="C2a")
    with pytest.raises(ValueError, match="alphabet"):
        canonical_morphism(H, G)


def _isomorphic_as_generated(H, G):
    return (H.order() == G.order()
            and canonical_morphism(H, G) is not None
            and canonical_morphism(G, H) is not None)


def test_subdirect():
    C2, C3 = builtin("C2"), builtin("C3")
    S = subdirect([C2, C3])
    assert S.order() == 6
    G = builtin("D4")
    assert _isomorphic_as_generated(subdirect([G]), G)
    assert _isomorphic_as_generated(subdirect([G, G]), G)
    # projections are quotients of the subdirect product
    assert canonical_morphism(S, C2) is not None
    assert canonical_morphism(S, C3) is not None


def _group_json(G):
    """The group_from_json value of a permutation group."""
    return {"degree": G.degree,
            "gens": {name: list(G.gens[i])
                     for i, name in enumerate(G.alphabet)}}


def test_group_json_round_trip():
    for name in ("C2xC2", "S3", "D4"):
        G = builtin(name)
        data = _group_json(G)
        assert data["degree"] == G.degree
        assert sorted(data["gens"]) == list(G.alphabet)
        H = group_from_json(data, name=name)
        assert _isomorphic_as_generated(H, G)


def test_group_json_errors():
    with pytest.raises(ValueError, match="degree"):
        group_from_json({"gens": {"a": [0]}})
    with pytest.raises(ValueError, match="gens"):
        group_from_json({"degree": 2})
    with pytest.raises(ValueError, match="gens"):
        group_from_json({"degree": 2, "gens": {}})
    with pytest.raises(ValueError, match="permutation"):
        group_from_json({"degree": 3, "gens": {"a": [0, 0, 1]}})
    with pytest.raises(ValueError, match="permutation"):
        group_from_json({"degree": 3, "gens": {"a": [0, 1]}})
    with pytest.raises(ValueError, match="^group JSON: expected an object$"):
        group_from_json([2, {"a": [1, 0]}])


@pytest.mark.parametrize("make, message", [
    (lambda: FinGroup.from_perms(("a", "a"), [(1, 0), (1, 0)]),
     "alphabet names must be distinct"),
    (lambda: FinGroup.from_perms(("a", "b"), [(1, 0)]),
     "need one generator per letter"),
    (lambda: FinGroup.from_perms((), []), "need at least one generator"),
    (lambda: FinGroup.from_perms(("a",), [(1, 1)]),
     r"generator \(1, 1\) is not a permutation of 0..1"),
    (lambda: subdirect([]), "need at least one factor"),
    (lambda: subdirect([builtin("S3"), FinGroup.from_perms(("a",), [(1, 0)])]),
     "alphabets differ"),
], ids=["repeated-name", "generator-count", "no-generator",
        "non-permutation", "no-factor", "alphabets-differ"])
def test_group_construction_refuses_bad_input(make, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        make()


def test_element_of_refuses_letters_outside_the_alphabet():
    G = builtin("S3")
    assert G.element_of((1, -2)) == G.element(G.evaluate((1, -2)))
    for w, bad in (((1, 0), 0), ((3,), 3), ((2, -3), -3)):
        with pytest.raises(ValueError, match=r"^letter %d outside alphabet$"
                           % bad):
            G.element_of(w)
