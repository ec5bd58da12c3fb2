"""The single cocycle-extension model: ExtContext over an enumerated group
and over the context one level down, tower levels built from it, input
validation, and the shared subgroup-closure and completion primitives."""

import random

import pytest

from treelike.cayley import path_span
from treelike.cli import group_arg
from treelike.extension import ExtContext, ext_evaluate
from treelike.groups import builtin
from treelike.stallings import complete_arbitrary, is_complete, stallings_graph
from treelike.tower import (
    Tower,
    TowerSpec,
    project,
    tower_equal,
    tower_spec_from_json,
)
from treelike.words import random_reduced_word

BAD_LETTERS = (0, 3, -3)


# -- letters outside the alphabet ---------------------------------------


@pytest.mark.parametrize("x", BAD_LETTERS)
def test_ext_evaluate_rejects_bad_letter(x):
    with pytest.raises(ValueError, match="letter %r outside alphabet" % x):
        ext_evaluate(builtin("C2xC2"), 2, (1, x))


@pytest.mark.parametrize("x", BAD_LETTERS)
def test_path_span_rejects_bad_letter(x):
    with pytest.raises(ValueError, match="letter %r outside alphabet" % x):
        path_span(builtin("C2xC2"), 0, (x,))


@pytest.mark.parametrize("x", BAD_LETTERS)
def test_tower_evaluate_rejects_bad_letter(x):
    t = Tower(TowerSpec(builtin("C2xC2"), (2, 3)))
    for n in (0, 1, 2):
        with pytest.raises(ValueError, match="letter %r outside alphabet" % x):
            t.evaluate(n, (2, x))


# -- non-integer primes and levels --------------------------------------


def test_spec_from_json_rejects_string_prime():
    with pytest.raises(ValueError, match="must be prime"):
        tower_spec_from_json({"base": "C2xC2", "primes": ["2"]})


def test_spec_rejects_float_prime():
    with pytest.raises(ValueError, match="must be prime"):
        TowerSpec(builtin("C2xC2"), (2.0,))


def test_spec_from_json_rejects_string_max_level():
    with pytest.raises(ValueError, match="max_level must be an integer"):
        tower_spec_from_json({"base": "C2xC2", "primes": [2],
                              "max_level": "x"})


def test_spec_rejects_float_enum_budget():
    with pytest.raises(ValueError, match="enum_budget must be an integer"):
        TowerSpec(builtin("C2xC2"), (2,), enum_budget=1e6)


@pytest.mark.parametrize("field", ["max_level", "enum_budget"])
def test_spec_from_json_rejects_boolean_integers(field):
    """JSON true is not the integer 1, as in group JSON."""
    with pytest.raises(ValueError, match="%s must be an integer" % field):
        tower_spec_from_json({"base": "C3", "primes": [2], field: True})


def test_context_rejects_float_prime():
    with pytest.raises(ValueError, match="must be prime"):
        ExtContext(builtin("C2xC2"), 2.0)


# -- one model: tower levels against the enumerated extension -----------


@pytest.mark.parametrize("name", ["C3", "S3", "C2xC2"])
def test_tower_level_one_is_cli_extension_group(name):
    G = builtin(name)
    level = Tower(TowerSpec(G, (2,))).group(1)
    cli = group_arg(name + "^2")
    assert level.name == cli.name == name + "^2"
    assert level.order() == cli.order()
    letters = [s * a for a in range(1, G.n_letters + 1) for s in (1, -1)]
    for i in range(level.order()):
        for a in letters:
            assert level.step(i, a) == cli.step(i, a)


@pytest.mark.parametrize("name", ["C3", "S3", "C2xC2"])
def test_sparse_and_enumerated_level_one_agree(name):
    t = Tower(TowerSpec(builtin(name), (2,)))
    H = t.group(1)
    rng = random.Random(101)
    for _ in range(150):
        u = random_reduced_word(rng, 2, rng.randint(0, 8))
        v = random_reduced_word(rng, 2, rng.randint(0, 8))
        assert (t.evaluate(1, u) == t.evaluate(1, v)) \
            == (H.evaluate(u) == H.evaluate(v))


def test_chained_context_is_tower_level_two():
    G = builtin("C2xC2")
    t = Tower(TowerSpec(G, (2, 3)))
    chained = ExtContext(ExtContext(G, 2), 3)
    rng = random.Random(103)
    for _ in range(60):
        w = random_reduced_word(rng, 2, rng.randint(0, 8))
        assert chained.evaluate(w) == t.evaluate(2, w)


def test_step_multiplies_by_letter_image():
    for ctx in (ExtContext(builtin("S3"), 3),
                ExtContext(ExtContext(builtin("S3"), 2), 3)):
        rng = random.Random(107)
        for _ in range(30):
            x = ctx.evaluate(random_reduced_word(rng, 2, rng.randint(0, 6)))
            for a in (1, 2):
                assert ctx.step(x, a) == ctx.mul(x, ctx.letter(a))
                assert ctx.step(x, -a) == ctx.mul(x, ctx.inv(ctx.letter(a)))


def test_level_three_group_laws_and_projection():
    t = Tower(TowerSpec(builtin("C2xC2"), (2, 3, 2)))
    rng = random.Random(109)
    words = [random_reduced_word(rng, 2, rng.randint(0, 7))
             for _ in range(12)]
    elems = [t.evaluate(3, w) for w in words]
    e = t.identity(3)
    for w, x in zip(words, elems):
        assert project(x) == t.evaluate(2, w)
        assert t.mul(e, x) == x == t.mul(x, e)
        assert tower_equal(t.mul(x, t.inv(x)), e)
        assert tower_equal(t.mul(t.inv(x), x), e)
    for _ in range(60):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert t.mul(t.mul(x, y), z) == t.mul(x, t.mul(y, z))
        assert project(t.mul(x, y)) == t.mul(project(x), project(y))
    comm = (1, 2, -1, -2)
    assert t.evaluate(3, comm) != e


# -- shared primitives --------------------------------------------------


def test_subgroup_matches_two_sided_closure():
    for name in ("S3", "D4", "A5"):
        G = builtin(name)
        rng = random.Random(113)
        for _ in range(10):
            gens = [rng.randrange(G.order()) for _ in range(rng.randint(0, 2))]
            seen, frontier = {0}, [0]
            while frontier:
                x = frontier.pop()
                for g in gens:
                    for y in (G.mul_ids(x, g), G.mul_ids(x, G.inv_id(g))):
                        if y not in seen:
                            seen.add(y)
                            frontier.append(y)
            assert G.subgroup(gens) == frozenset(seen)


def test_complete_arbitrary_adds_no_vertex():
    rng = random.Random(127)
    for _ in range(40):
        gens = [random_reduced_word(rng, 2, rng.randint(1, 6))
                for _ in range(rng.randint(1, 3))]
        g = stallings_graph(gens)
        full = complete_arbitrary(g)
        assert full.vertices == g.vertices
        assert g.pos_edges <= full.pos_edges
        assert is_complete(full)
