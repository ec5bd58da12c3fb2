"""Extension groups enumerated by the signed Cayley walk, id arithmetic
through the step tables, and refusal of over-budget extension groups by
their exact order."""

import random

import pytest

from treelike.cli import group_arg, main
from treelike.extension import ExtContext, ext_order, extension_group
from treelike.groups import EnumerationBudgetError, FinGroup, builtin
from treelike.tower import Tower, TowerSpec
from treelike.words import random_reduced_word

WALK_CASES = [("C3", 2), ("S3", 2), ("C2xC2", 2), ("D4", 2),
              ("C3", 3), ("C2xC2", 3)]


def _multiplied(G, p):
    """The extension enumerated by multiplying letter images, no step."""
    ctx = ExtContext(G, p)
    gens = [ctx.letter(a) for a in range(1, G.n_letters + 1)]
    return FinGroup(G.alphabet, gens, ctx.identity, ctx.mul, ctx.inv,
                    name="old")


def _counting(group):
    """Wrap the element step of an unenumerated group with a call count."""
    calls = []
    step = group._elem_step

    def counted(x, letter):
        calls.append(letter)
        return step(x, letter)

    group._elem_step = counted
    return calls


# -- walk-step BFS against the multiplying BFS ---------------------------


@pytest.mark.parametrize("name,p", WALK_CASES,
                         ids=["%s-p%d" % c for c in WALK_CASES])
def test_walk_bfs_matches_multiplying_bfs(name, p):
    G = builtin(name)
    H = extension_group(G, p)
    old = _multiplied(G, p)
    assert H.order() == old.order() == ext_order(G, G.n_letters, p)
    for i in range(H.order()):
        assert H.element(i) == old.element(i)
        assert H.witness(i) == old.witness(i)
        for a in (1, 2):
            assert H.step(i, a) == old.step(i, a)
            assert H.step(i, -a) == old.step(i, -a)


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("name,primes", [("C2xC2", (2, 2)), ("C3", (3, 2)),
                                         ("S3", (2, 3))])
def test_step_is_product_with_letter_image(name, primes, level):
    ctx = Tower(TowerSpec(builtin(name), primes))._context(level)
    rng = random.Random(211 + level)
    for _ in range(40):
        x = ctx.evaluate(random_reduced_word(rng, 2, rng.randint(0, 12)))
        for a in (1, 2):
            img = ctx.letter(a)
            up, down = ctx.step(x, a), ctx.step(x, -a)
            assert up == ctx.mul(x, img)
            assert down == ctx.mul(x, ctx.inv(img))
            assert ctx.step(up, -a) == x == ctx.step(down, a)
            for y in (up, down):
                keys = [k for k, _ in y.cocycle]
                assert keys == sorted(keys)
                assert len(set(keys)) == len(keys)
                assert all(0 < v < ctx.p for _, v in y.cocycle)


def test_element_of_walks_letter_steps():
    H = extension_group(builtin("S3"), 2)
    rng = random.Random(223)
    for _ in range(50):
        w = random_reduced_word(rng, 2, rng.randint(0, 10))
        assert H.element_of(w) == H.element(H.evaluate(w))


# -- ids multiply through the step tables -------------------------------


def _check_ids(H, pairs):
    for i, j in pairs:
        assert H.mul_ids(i, j) == H.id_of(H.mul(H.element(i), H.element(j)))
    for i in range(H.order()):
        assert H.inv_id(i) == H.id_of(H.inv(H.element(i)))


@pytest.mark.parametrize("name", ["S3", "A5", "C2xC2^2"])
def test_table_arithmetic_on_all_pairs(name):
    H = group_arg(name)
    n = H.order()
    _check_ids(H, ((i, j) for i in range(n) for j in range(n)))


def test_table_arithmetic_on_random_pairs():
    H = group_arg("S3^2")
    n = H.order()
    rng = random.Random(227)
    _check_ids(H, [(rng.randrange(n), rng.randrange(n))
                   for _ in range(2000)])


# -- refusal by exact order ---------------------------------------------


def test_budget_limit_is_exact():
    assert extension_group(builtin("C3"), 2, enum_budget=48).order() == 48
    H = extension_group(builtin("C3"), 2, enum_budget=47)
    calls = _counting(H)
    with pytest.raises(EnumerationBudgetError,
                       match="^enumeration of C3\\^2 exceeds budget of 47 "
                             "elements$"):
        H.order()
    assert H._elems is None
    assert calls == []


def test_tower_level_two_refused_before_enumeration():
    t = Tower(TowerSpec(builtin("C2xC2"), (2, 2)))
    H = t.group(2)
    calls = _counting(H)
    with pytest.raises(EnumerationBudgetError):
        H.order()
    assert H._elems is None
    assert calls == []
    assert t.group(1).order() == 128


@pytest.mark.parametrize("argv", [
    ["extend", "C3^2", "--p", "2", "--budget-enum", "0"],
    ["dissolve", "--H", "C3^2", "--G", "C3", "--budget-enum", "0"],
], ids=["extend", "dissolve"])
def test_zero_budget_refuses(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget exceeded" in captured.err
