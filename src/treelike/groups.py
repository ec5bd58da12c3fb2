"""Finite A-generated groups: evaluation, BFS enumeration with its
breadth-first tree, witness words read off that tree, canonical
morphisms, exponent, subdirect products, and builtins.

A FinGroup is a group generated by one element per alphabet letter.  The
element domain is opaque: elements only need to be hashable and to come
with multiplication/inversion callables.  Permutation groups (tuples of
images, acting on the right) cover all builtins; the extension groups of
the extension module subclass FinGroup with their own enumeration keys
and key step.  Enumeration is a BFS over key steps; afterwards ids
multiply through its tables.

Edge keys.  The positive edge (g, a) of the Cayley graph has the key
g|A| + a - 1 (`_edge_key`, inverted by `_edge_of`): edge masks, spanning
tree keys and packed extension codes all use this one layout, and no
other module computes it.  `FinGroup.edge_rows()` is the crossed-edge
table of a group: per signed letter x, the key of the positive edge
that x crosses from each id, which searches, spanning trees and the
code layout of extension groups read in place of the rule.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence

from .words import Word, path_label

DEFAULT_ENUM_BUDGET = 10**6


class EnumerationBudgetError(RuntimeError):
    """Raised when a computation would exceed its budget."""

    def __init__(self, budget: int, context: str = "enumeration",
                 unit: str = "elements"):
        super().__init__("%s exceeds budget of %d %s" % (context, budget, unit))
        self.budget = budget


def _same(x):
    return x


def perm_identity(n: int) -> tuple:
    return tuple(range(n))


def perm_mul(p: tuple, q: tuple) -> tuple:
    """Composite permutation: apply p first, then q."""
    return tuple(q[i] for i in p)


def perm_inv(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _edge_key(k: int, g: int, a: int) -> int:
    """Key g|A| + a - 1 of the positive edge (g, a) over k = |A|
    letters: the one layout of edge keys, which edge masks, spanning
    tree keys and packed extension codes share.  Keys run over
    range(|G| |A|) in the order of the edges (g, a)."""
    return g * k + a - 1


def _edge_of(k: int, key: int) -> tuple:
    """The positive edge (g, a) of a key over k letters: the inverse of
    _edge_key."""
    return key // k, key % k + 1


def _edge_keys(k: int, edges: Iterable[tuple]) -> set:
    """The keys of the positive edges (g, a) in edges over k letters."""
    return {_edge_key(k, g, a) for g, a in edges}


class FinGroup:
    """A-generated finite group with a lazily built element table.

    Enumeration is a BFS from the identity over enumeration keys and the
    key step step(x, +-a) = key of x * (image of a)^(+-1), which
    _key_step returns once, before the BFS encodes the identity.  Here
    the keys are the elements themselves and the step multiplies by a
    letter image; a subclass may key elements otherwise through
    _encode/_decode, a bijection between elements and keys, and its own
    key step.  element() and id_of() convert at the boundary, so callers
    see elements either way; element_of() multiplies letter images and
    touches neither keys nor the enumeration.  Element ids are BFS
    discovery order (identity = 0), and the BFS tree is kept as its
    parent map, parents()[v] = (u, x) for the id u < v that discovered v
    by the letter x.  witness(v), the label of the tree path to v, is a
    shortest word for v, read off that map when first asked for.  Ids
    multiply through the step tables: i * j walks witness(j) from i.
    gens may be a callable that returns the letter images; it is called
    once, at the first use of gens.
    """

    _encode = _decode = staticmethod(_same)     # keys are the elements

    def __init__(self, alphabet: Sequence[str],
                 gens: Sequence | Callable[[], Sequence], identity,
                 mul: Callable, inv: Callable, name: str = "G",
                 degree: Optional[int] = None,
                 enum_budget: int = DEFAULT_ENUM_BUDGET):
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet names must be distinct")
        if not callable(gens) and len(gens) != len(alphabet):
            raise ValueError("need one generator per letter")
        self.alphabet = tuple(alphabet)
        self._gens = gens if callable(gens) else tuple(gens)
        self.identity = identity
        self.mul = mul
        self.inv = inv
        self.name = name
        self.degree = degree
        self.enum_budget = enum_budget
        self._elems: Optional[list] = None      # enumeration keys, by id
        self._index: Optional[dict] = None
        self._parent: Optional[tuple] = None    # the BFS tree, by id
        self._words: dict = {}                  # witness words asked for
        self._tables: Optional[dict] = None     # signed letter -> successor ids
        self._exponent: Optional[int] = None
        self._edge_rows: Optional[list] = None     # of edge_rows()

    @classmethod
    def from_perms(cls, alphabet: Sequence[str], perms: Sequence[tuple],
                   name: str = "G", enum_budget: int = DEFAULT_ENUM_BUDGET
                   ) -> "FinGroup":
        perms = [tuple(p) for p in perms]
        if not perms:
            raise ValueError("need at least one generator")
        n = len(perms[0])
        for p in perms:
            if sorted(p) != list(range(n)):
                raise ValueError("generator %r is not a permutation of 0..%d" % (p, n - 1))
        return cls(alphabet, perms, perm_identity(n), perm_mul, perm_inv,
                   name=name, degree=n, enum_budget=enum_budget)

    def __repr__(self):
        return "FinGroup(%s, |A|=%d)" % (self.name, len(self.alphabet))

    @property
    def n_letters(self) -> int:
        return len(self.alphabet)

    @property
    def gens(self) -> tuple:
        """Letter images, in alphabet order."""
        if callable(self._gens):
            self._gens = tuple(self._gens())
        return self._gens

    # -- element table -------------------------------------------------

    def _key_step(self) -> Callable:
        """The key step of the enumeration: x times a letter image."""
        mul, images = self.mul, {}
        for a, g in enumerate(self.gens, 1):
            images[a], images[-a] = g, self.inv(g)
        return lambda x, letter: mul(x, images[letter])

    def _enumerate(self) -> None:
        if self._elems is not None:
            return
        step = self._key_step()
        letters = [s for a in range(1, self.n_letters + 1) for s in (a, -a)]
        one = self._encode(self.identity)
        elems = [one]
        index = {one: 0}
        parent: list = [None]
        tables = {letter: [] for letter in letters}
        i = 0
        while i < len(elems):
            x = elems[i]
            for letter in letters:
                y = step(x, letter)
                j = index.get(y)
                if j is None:
                    j = len(elems)
                    if j >= self.enum_budget:
                        raise EnumerationBudgetError(
                            self.enum_budget, "enumeration of %s" % self.name)
                    elems.append(y)
                    index[y] = j
                    parent.append((i, letter))
                tables[letter].append(j)
            i += 1
        self._elems, self._index, self._tables = elems, index, tables
        self._parent = tuple(parent)

    def order(self) -> int:
        self._enumerate()
        return len(self._elems)

    def formula_order(self) -> int:
        """|G| from an exact order formula, enumerating nothing and
        refused over enum_budget as its enumeration would be; a group
        without a formula enumerates."""
        return self.order()

    def element(self, i: int):
        self._enumerate()
        return self._decode(self._elems[i])

    def id_of(self, elem) -> int:
        self._enumerate()
        return self._index[self._encode(elem)]

    def parents(self) -> tuple:
        """The enumeration's BFS tree: parents()[v] = (u, x) with
        step(u, x) == v and u < v, None at the identity."""
        self._enumerate()
        return self._parent

    def witness(self, i: int) -> Word:
        """A shortest word evaluating to element i: its path in the BFS
        tree, kept once asked for."""
        try:
            return self._words[i]
        except KeyError:
            self._enumerate()
            w = self._words[i] = path_label(self._parent, i)
            return w

    def step(self, i: int, letter: int) -> int:
        """Cayley neighbor: id of element(i) * letter image."""
        self._enumerate()
        return self._tables[letter][i]

    def rows(self) -> list:
        """(x, row) for x = 1, -1, 2, -2, ...; row[i] is step(i, x)."""
        self._enumerate()
        return list(self._tables.items())

    def edge_rows(self) -> list:
        """(x, row, keys) per row of rows(): keys[i] is the key of the
        positive edge that x crosses from i, (i, x) for x > 0 and
        (step(i, x), -x) for x < 0.  These are the rows of
        `cayley.search`, built at the first call and kept; a positive
        letter's keys are a range, which stores nothing."""
        if self._edge_rows is None:
            k, keys = self.n_letters, range(self.order() * self.n_letters)
            self._edge_rows = [
                (x, row, keys[_edge_key(k, 0, x)::k] if x > 0 else
                 list(map(keys[_edge_key(k, 0, -x)::k].__getitem__, row)))
                for x, row in self.rows()]
        return self._edge_rows

    def _walk(self, i: int, w: Iterable[int]) -> int:
        """Id reached from id i by walking w through the step tables,
        which the caller has built."""
        tables = self._tables
        for x in w:
            i = tables[x][i]
        return i

    def evaluate(self, w: Sequence[int]) -> int:
        """Element id of [w]_G: w walked from 0."""
        self._enumerate()       # so a KeyError below is a bad letter
        try:
            return self._walk(0, w)
        except KeyError as exc:
            raise ValueError("letter %r outside alphabet of size %d"
                             % (exc.args[0], self.n_letters)) from None

    def element_of(self, w: Sequence[int]):
        """Raw element of [w]_G, the product of its letter images: no
        enumeration and no enumeration key is built."""
        x = self.identity
        for s in w:
            if not s or abs(s) > self.n_letters:
                raise ValueError("letter %r outside alphabet" % (s,))
            g = self.gens[abs(s) - 1]
            x = self.mul(x, g if s > 0 else self.inv(g))
        return x

    def mul_ids(self, i: int, j: int) -> int:
        """Id of element(i) * element(j): witness(j) walked from i."""
        return self._walk(i, self.witness(j))

    def inv_id(self, i: int) -> int:
        """Id of element(i)^-1: witness(i) walked backwards from 0."""
        return self._walk(0, [-x for x in reversed(self.witness(i))])

    def keyed_walk(self) -> tuple:
        """(key, step) for closures over ids: an id is its own key, and
        step(i, x) reads the step rows, fetched once."""
        tables = dict(self.rows())
        return _same, lambda i, x: tables[x][i]

    def subgroup(self, ids: Iterable[int]) -> frozenset:
        """Ids of the subgroup generated by the given ids: the closure
        of 1 under their witness words."""
        _, step = self.keyed_walk()
        return frozenset(closure(step, (0,), [self.witness(g)
                                              for g in set(ids) if g]))

    def order_of(self, i: int) -> int:
        n, j = 1, i
        while j != 0:
            j = self.mul_ids(j, i)
            n += 1
        return n

    def exponent(self) -> int:
        """lcm of element orders; equals the order of a free generator of
        the 2-generated free object in the formation generated by self."""
        if self._exponent is None:
            self._enumerate()
            self._exponent = math.lcm(*(self.order_of(i)
                                        for i in range(len(self._elems))))
        return self._exponent

    def separated(self) -> bool:
        """Whether distinct letters have distinct, nonidentity images and
        |A| >= 2 (the standing hypothesis of the border construction)."""
        return (self.n_letters >= 2 and len(set(self.gens)) == self.n_letters
                and self.identity not in self.gens)

    # -- morphisms -----------------------------------------------------

    def canonical_morphism_to(self, other: "FinGroup") -> Optional[list]:
        """Table of the morphism extending letter |-> letter, or None.

        phi(h) := [witness(h)]_other; phi is a well-defined morphism iff
        it commutes with every generator step, which is checked over the
        whole table.  The BFS tree hangs h from u = parents()[h][0] < h
        by a letter x, so phi is filled in id order, phi(h) the step of
        phi(u) by x in other; no word is built.
        """
        if self.alphabet != other.alphabet:
            raise ValueError("alphabets differ")
        rows, target = dict(self.rows()), dict(other.rows())
        phi = [0] * self.order()
        for h, (u, x) in enumerate(self._parent[1:], 1):
            phi[h] = target[x][phi[u]]
        for x, row in rows.items():
            image = target[x]
            if x > 0 and any(phi[row[h]] != image[p] for h, p in enumerate(phi)):
                return None
        return phi


def closure(step: Callable, start: Iterable, words: Sequence[Word]) -> set:
    """start * <words>: start closed under right multiplication by the
    words, each walked through step(x, letter) of a keyed_walk.  In a
    finite group every inverse is a positive power."""
    seen = set(start)
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for w in words:
            y = x
            for letter in w:
                y = step(y, letter)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def canonical_morphism(H: FinGroup, G: FinGroup) -> Optional[list]:
    """Morphism table H ->> G extending letter |-> letter, or None."""
    return H.canonical_morphism_to(G)


def subdirect(groups: Sequence[FinGroup], name: Optional[str] = None) -> FinGroup:
    """A-generated subgroup of the direct product generated by the
    diagonal generator tuples."""
    if not groups:
        raise ValueError("need at least one factor")
    alphabet = groups[0].alphabet
    for g in groups[1:]:
        if g.alphabet != alphabet:
            raise ValueError("alphabets differ")
    gens = [tuple(g.gens[a] for g in groups) for a in range(len(alphabet))]
    identity = tuple(g.identity for g in groups)

    def mul(x, y):
        return tuple(g.mul(xi, yi) for g, xi, yi in zip(groups, x, y))

    def inv(x):
        return tuple(g.inv(xi) for g, xi in zip(groups, x))

    return FinGroup(alphabet, gens, identity, mul, inv,
                    name=name or "subdirect(%s)" % ",".join(g.name for g in groups),
                    enum_budget=min(g.enum_budget for g in groups))


def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass, but true is not 1 here."""
    return isinstance(value, int) and not isinstance(value, bool)


def group_from_json(data: dict, name: str = "G",
                    enum_budget: int = DEFAULT_ENUM_BUDGET) -> FinGroup:
    """Parse {degree, gens:{letter: [perm images], ...}}; letters are
    sorted by name to fix the alphabet order."""
    if not isinstance(data, dict):
        raise ValueError("group JSON: expected an object")
    if "degree" not in data or "gens" not in data:
        raise ValueError("group JSON: need fields 'degree' and 'gens'")
    degree = data["degree"]
    if not _is_int(degree) or degree < 1:
        raise ValueError("group JSON field 'degree': positive integer required")
    gens = data["gens"]
    if not isinstance(gens, dict) or not gens:
        raise ValueError("group JSON field 'gens': nonempty object required")
    alphabet = sorted(gens)
    perms = []
    for letter in alphabet:
        p = gens[letter]
        if (not isinstance(p, list) or len(p) != degree
                or not all(map(_is_int, p))
                or sorted(p) != list(range(degree))):
            raise ValueError("group JSON field 'gens.%s': not a permutation of 0..%d"
                             % (letter, degree - 1))
        perms.append(tuple(p))
    return FinGroup.from_perms(alphabet, perms, name=name,
                               enum_budget=enum_budget)


# -- builtins ----------------------------------------------------------
#
# Generator assignments (all on the alphabet a, b unless noted):
#   C2     a, b |-> the same transposition (not separated)
#   C3     a |-> g, b |-> g^2 for g a 3-cycle
#   C5     a |-> g, b |-> g^2 for g a 5-cycle
#   C2xC2  a |-> (0 1), b |-> (2 3)
#   S3     a |-> (0 1), b |-> (0 1 2)
#   D4     a, b |-> two adjacent reflections of the square
#   A5     a |-> (0 1 2 3 4), b |-> (0 1 2)


def _cycle(n: int) -> tuple:
    return tuple(list(range(1, n)) + [0])


def _builtin_factories() -> dict:
    def pg(name, perms):
        return lambda budget: FinGroup.from_perms(("a", "b"), perms, name=name,
                                                  enum_budget=budget)

    table = {
        "C2": pg("C2", [(1, 0), (1, 0)]),
        "C3": pg("C3", [_cycle(3), perm_mul(_cycle(3), _cycle(3))]),
        "C5": pg("C5", [_cycle(5), perm_mul(_cycle(5), _cycle(5))]),
        "C2xC2": pg("C2xC2", [(1, 0, 2, 3), (0, 1, 3, 2)]),
        "S3": pg("S3", [(1, 0, 2), (1, 2, 0)]),
        "D4": pg("D4", [(1, 0, 3, 2), (0, 3, 2, 1)]),
        "A5": pg("A5", [_cycle(5), (1, 2, 0, 3, 4)]),
    }
    return table


BUILTIN_NAMES = tuple(sorted(_builtin_factories()))


def builtin(name: str, enum_budget: int = DEFAULT_ENUM_BUDGET) -> FinGroup:
    """A fresh instance of a named builtin group."""
    try:
        factory = _builtin_factories()[name]
    except KeyError:
        raise ValueError("unknown builtin group %r (have: %s)"
                         % (name, ", ".join(BUILTIN_NAMES))) from None
    return factory(enum_budget)
