"""Extension groups enumerated by the signed Cayley walk over packed
integer codes, id arithmetic through the step tables, and refusal of
over-budget extension groups by their exact order."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from treelike.cli import group_arg, main
from treelike.extension import (ExtContext, ExtElement, _ExtGroup,
                                ext_order, extension_group)
from treelike.groups import EnumerationBudgetError, FinGroup, builtin
from treelike.tower import Tower, TowerSpec
from treelike.words import random_reduced_word

SRC = Path(__file__).resolve().parent.parent / "src"
WALK_CASES = [("C3", 2), ("S3", 2), ("C2xC2", 2), ("D4", 2),
              ("C3", 3), ("C2xC2", 3)]


def _multiplied(G, p):
    """The extension enumerated by multiplying letter images, no step."""
    ctx = ExtContext(G, p)
    gens = [ctx.letter(a) for a in range(1, G.n_letters + 1)]
    return FinGroup(G.alphabet, gens, ctx.identity, ctx.mul, ctx.inv,
                    name="old")


def _counting(group):
    """Wrap the key step of an unenumerated group with a call count."""
    calls = []
    key_step = group._key_step

    def counted_key_step():
        step = key_step()

        def counted(x, letter):
            calls.append(letter)
            return step(x, letter)

        return counted

    group._key_step = counted_key_step
    return calls


# -- walk-step BFS against the multiplying BFS ---------------------------


@pytest.mark.parametrize("name,p", WALK_CASES,
                         ids=["%s-p%d" % c for c in WALK_CASES])
def test_walk_bfs_matches_multiplying_bfs(name, p):
    G = builtin(name)
    H = extension_group(G, p)
    old = _multiplied(G, p)
    assert H.order() == old.order() == ext_order(G.order(), G.n_letters, p)
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


def test_element_of_a_refused_group_builds_no_code_layout():
    H = group_arg("D4^2^2")
    ctx = H.mul.__self__            # the ExtContext behind the group
    rng = random.Random(227)
    words = [(1, 2)] + [random_reduced_word(rng, 2, rng.randint(0, 10))
                        for _ in range(20)]
    for w in words:
        assert H.element_of(w) == ctx.evaluate(w)
    assert H._moves is None
    with pytest.raises(EnumerationBudgetError):
        H.order()
    assert H._moves is None


# -- packed codes ---------------------------------------------------------

CODE_CASES = [("C3", 2), ("S3", 2), ("C2xC2", 3), ("D4", 2)]


@pytest.mark.parametrize("name,p", CODE_CASES,
                         ids=["%s-p%d" % c for c in CODE_CASES])
def test_codes_round_trip(name, p):
    G = builtin(name)
    H = extension_group(G, p)
    old = _multiplied(G, p)
    assert H.order() == old.order()
    for i, x in enumerate(H._elems):
        e = old.element(i)
        assert H._encode(e) == x
        assert H._decode(x) == e
        assert H._encode(H._decode(x)) == x


@pytest.mark.parametrize("name,p", CODE_CASES,
                         ids=["%s-p%d" % c for c in CODE_CASES])
def test_walk_evaluation_finds_its_code(name, p):
    G = builtin(name)
    H = extension_group(G, p)
    ctx = ExtContext(G, p)
    rng = random.Random(229)
    for _ in range(60):
        w = random_reduced_word(rng, 2, rng.randint(0, 14))
        assert H.id_of(ctx.evaluate(w)) == H.evaluate(w)


def test_extension_of_an_extension_codes_over_code_ids():
    C3 = FinGroup.from_perms(("a",), [(1, 2, 0)], name="C3")
    H1 = extension_group(C3, 2)
    H2 = extension_group(H1, 2)
    assert (H1.order(), H2.order()) == (6, 12)
    old = _multiplied(H1, 2)
    assert old.order() == 12
    for i in range(12):
        assert H2.element(i) == old.element(i)
        assert H2.witness(i) == old.witness(i)
        assert H2.step(i, 1) == old.step(i, 1)
        assert H2.step(i, -1) == old.step(i, -1)
        assert H2.id_of(old.element(i)) == i


def test_enumeration_builds_no_elements(monkeypatch):
    steps, made = [], []
    step, init = ExtContext.step, ExtElement.__init__

    def counted_step(self, x, letter):
        steps.append(letter)
        return step(self, x, letter)

    def counted_init(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(ExtContext, "step", counted_step)
    monkeypatch.setattr(ExtElement, "__init__", counted_init)
    H = extension_group(builtin("D4"), 2)
    assert len(made) == 1        # the identity; letter images wait for gens
    assert H.order() == 4096
    assert H.step(17, -2) == H.mul_ids(17, H.inv_id(H.evaluate((2,))))
    assert len(H.subgroup([H.evaluate((1, 2))])) == H.order_of(
        H.evaluate((1, 2)))
    assert steps == []
    assert len(made) == 1


def test_refused_level_builds_no_code_layout(monkeypatch):
    built = []
    layout = _ExtGroup.code_walk

    def counted(self):
        if self._units is None:
            built.append(self._base)
        return layout(self)

    monkeypatch.setattr(_ExtGroup, "code_walk", counted)
    t = Tower(TowerSpec(builtin("S3"), (2, 2)))
    with pytest.raises(EnumerationBudgetError):
        t.group(2)
    # level 2 is refused by the order formula, building no code layout
    assert built == []
    assert t.group(1).order() == 768
    assert built == [t.group(0)]


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


class _Prime(int):
    """A prime that records the exponents it is raised to."""

    def __new__(cls, p, powers):
        self = super().__new__(cls, p)
        self.powers = powers
        return self

    def __pow__(self, r):
        self.powers.append(r)
        return int(self) ** r


@pytest.mark.parametrize("m,n_letters,p,order,shortcut", [
    (4, 2, 2, 128, True),       # 2^7: the limit 127 has too few bits
    (8, 3, 2, 8 * 2 ** 17, True),
    (3, 2, 2, 48, False),       # 47 and 48 both have 6 bits
    (5, 3, 3, 5 * 3 ** 11, False),
])
def test_ext_order_limit_is_exact(m, n_letters, p, order, shortcut):
    """limit = order admits and order - 1 refuses, on each branch: at one
    below an order that is a power of two the bit-length shortcut
    refuses before the power is computed, elsewhere the exact
    comparison refuses."""
    powers = []
    prime = _Prime(p, powers)
    assert ext_order(m, n_letters, prime) == order
    assert ext_order(m, n_letters, prime, order) == order
    assert len(powers) == 2
    assert ext_order(m, n_letters, prime, order - 1) is None
    assert len(powers) == (2 if shortcut else 3)


def test_tower_level_two_refused_before_enumeration(monkeypatch):
    """|G_2| = 128 * 2^129 over C2xC2: a budget one below it refuses
    level 2 by the order formula, building no FinGroup; that exact budget
    admits it as the extension of level 1's FinGroup, still unenumerated."""
    built = []
    fin_group = ExtContext.fin_group

    def counted(self, *args):
        built.append(self.G)
        return fin_group(self, *args)

    monkeypatch.setattr(ExtContext, "fin_group", counted)
    order = 128 * 2 ** 129
    t = Tower(TowerSpec(builtin("C2xC2"), (2, 2), enum_budget=order - 1))
    with pytest.raises(EnumerationBudgetError):
        t.group(2)
    assert built == []
    assert t.group(1).order() == 128
    assert built == [t.group(0)]
    t = Tower(TowerSpec(builtin("C2xC2"), (2, 2), enum_budget=order))
    H = t.group(2)
    assert built[1:] == [t.group(0), t.group(1)]
    assert H._elems is None and H.name == "C2xC2^2^2"
    assert t.group(2) is H and len(built) == 3


def _limited():
    """Cap the child's address space at 1 GiB."""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_tower_level_far_over_budget_refused_by_bit_length():
    """|G_3| over C2xC2 is a power with about 2^136 bits, which no
    budget admits; a budget admitting |G_2| refuses level 3 at once
    instead of computing it.  Run in a child process with a memory cap
    and a timeout, so a regression fails rather than hangs."""
    code = ("from treelike.groups import builtin\n"
            "from treelike.tower import Tower, TowerSpec\n"
            "t = Tower(TowerSpec(builtin('C2xC2'), (2, 2, 2), "
            "enum_budget=10**42))\n"
            "assert t.order(2) == 128 * 2 ** 129\n"
            "t.order(3)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=30,
                          preexec_fn=_limited if os.name == "posix" else None)
    assert proc.returncode == 1
    assert proc.stderr.rstrip().endswith(
        "EnumerationBudgetError: level 3 of the tower exceeds budget of %d "
        "elements" % 10 ** 42)


@pytest.mark.parametrize("argv", [
    ["extend", "C3^2", "--p", "2", "--budget-enum", "0"],
    ["dissolve", "--H", "C3^2", "--G", "C3", "--budget-enum", "0"],
], ids=["extend", "dissolve"])
def test_zero_budget_refuses(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget exceeded" in captured.err


def test_budget_bounds_a_builtin_group(capsys):
    """--budget-enum bounds a builtin group as it bounds an extension: a
    campaign over a base it refuses would check nothing and exits 2.
    rz enumerates a builtin base whatever the budget
    (test_rz_budget_at_exact_level_order), and a NAME^p base over it is
    its level 0 overflow."""
    refusal = "budget exceeded: enumeration of C2xC2 exceeds budget of 3 elements\n"
    assert main(["tower", "--base", "C2xC2", "--primes", "2",
                 "--budget-enum", "3"]) == 2
    assert capsys.readouterr() == ("", refusal)
    assert main(["dissolve", "--H", "C2xC2^2", "--G", "C2xC2",
                 "--budget-enum", "3"]) == 2
    assert capsys.readouterr() == ("", refusal)
    assert main(["rz", "--base", "C2xC2^2", "--primes", "2", "--h1", "a",
                 "--h2", "b", "--w", "b a", "--budget-enum", "127"]) == 1
    levels = json.loads(capsys.readouterr().out)["levels"]
    assert levels == [{"level": 0, "overflow": True}]


def test_extend_reads_the_order_formula(monkeypatch, capsys):
    """extend --p reports the order of the extension of G from G's own
    order formula, enumerating only the base below it."""
    enumerated = []
    enumerate_ = FinGroup._enumerate
    monkeypatch.setattr(FinGroup, "_enumerate", lambda self: (
        enumerated.append(self.name) or enumerate_(self)))
    assert main(["extend", "C5^5", "--p", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["ext_order"] == "78125*2^78126"
    assert set(enumerated) == {"C5"}
    assert main(["extend", "C2xC2^2", "--p", "2", "--budget-enum", "10"]) == 2
    assert capsys.readouterr() == (
        "", "budget exceeded: enumeration of C2xC2^2 exceeds budget of 10 "
        "elements\n")


def test_refusal_enumerates_only_the_base(monkeypatch, capsys):
    """Refusing C2xC2^3^2, a refusal job of the scan benchmark, reads the
    order formulas of both levels and enumerates only C2xC2 below them;
    the 972 elements of C2xC2^3 are not enumerated."""
    enumerated = []
    enumerate_ = FinGroup._enumerate

    def counted(self):
        fresh = self._elems is None
        enumerate_(self)
        if fresh:
            enumerated.append(self.name)

    monkeypatch.setattr(FinGroup, "_enumerate", counted)
    assert main(["dissolve", "--H", "C2xC2^3^2", "--G", "C2xC2",
                 "--budget-enum", "10000"]) == 2
    assert capsys.readouterr() == (
        "", "budget exceeded: enumeration of C2xC2^3^2 exceeds budget of "
        "10000 elements\n")
    assert enumerated == ["C2xC2"]


def _capped_cli(argv):
    """treelike's CLI on argv in a child process with a 1 GiB address
    space and a timeout, so a regression fails rather than hangs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "treelike.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=30,
                          preexec_fn=_limited if os.name == "posix" else None)


def test_extend_order_string_at_any_budget():
    """|C2xC2^2^2| = 2^136 is within a budget of 10^42, and the order of
    its extension is 2^136 * 2^(2^136 + 1), far over 4,300 digits: it is
    the formula string, without computing the power."""
    proc = _capped_cli(["extend", "C2xC2^2^2", "--p", "2",
                        "--budget-enum", str(10 ** 42)])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["ext_order"] == (
        "87112285931760246646623899502532662132736*2^"
        "87112285931760246646623899502532662132737")


@pytest.mark.parametrize("argv", [
    ["dissolve", "--H", "C2xC2^2^2^2", "--G", "C2xC2"],
    ["extend", "C2xC2^2^2^2", "--p", "2"],
    ["tower", "--base", "C2xC2^2^2^2", "--primes", "2"],
], ids=["dissolve", "extend", "tower"])
def test_three_level_refusal_enumerates_no_level(argv):
    """A budget of 10^42 admits C2xC2^2^2 and refuses C2xC2^2^2^2 by its
    formula, before the admitted level below is enumerated (by building
    the letter images of C2xC2^2^2^2, among others)."""
    proc = _capped_cli(argv + ["--budget-enum", str(10 ** 42)])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("budget exceeded: enumeration of C2xC2^2^2^2 "
                           "exceeds budget of %d elements\n" % 10 ** 42)


@pytest.mark.parametrize("name", ["C3^2", "C2^2", "C2xC2^2", "S3^3^2",
                                  "one-letter C3^2"])
def test_extension_is_separated_without_letter_images(name):
    """Each letter image of an extension carries a unit on its own edge
    (1, a): separated() holds iff |A| >= 2, and reads no image."""
    if name.startswith("one-letter"):
        C3 = FinGroup.from_perms(("a",), [(1, 2, 0)], name="C3")
        H = extension_group(C3, 2)
    else:
        H = group_arg(name, 10 ** 42)
    assert H.separated() == (H.n_letters >= 2)
    assert callable(H._gens)        # letter images not built
    images = H.gens
    assert H.separated() == (len(set(images)) == H.n_letters >= 2
                             and H.identity not in images)
