"""Universal extensions of a finite A-generated group and the
constructive separation certificate.

Fix an A-generated finite group G and let R be the kernel of the
evaluation F ->> G from the free group on A.  R is free of rank
r = |G|(|A|-1)+1, with a basis attached to any spanning tree of the
Cayley graph of G (one basis element per non-tree positive edge; see
the rewriting module).  For a finite simple group S, let R(S) be the
intersection of the kernels of all surjective homomorphisms R ->> S.
The quotient F/R(S) is the universal S-extension of G: the largest
A-generated extension of a direct power of S by G.

Concrete model for S = C_p.  Here R(C_p) = R^p [R, R], and F/R(C_p)
has a faithful arithmetic model: pairs (g, c) of a base element g of G
and a sparse cocycle c mapping Cayley-graph positive edges (vertex,
letter) to residues mod p, multiplied by (g1, c1)(g2, c2) =
(g1 g2, c1 + g1.c2) where the shift relabels (g1.c2)(g1 x, a) = c2(x, a).
A word w maps to the pair (base [w]_G, per-edge signed traversal counts
of its Cayley path mod p).  Faithfulness: an element with trivial image
projects to a closed path at 1, whose full edge-count vector is
determined linearly over Z by its counts on the non-tree edges of any
spanning tree (tree counts are forced by the flow conditions at
vertices); the non-tree counts are exactly the exponent sums of the
Nielsen basis in the rewritten word, so the cocycle vanishes mod p
precisely when the word lies in R^p [R, R].  Hence the model has order
|G| * p^r and realizes F/R(C_p).

Enumeration keys.  The enumerated extension, the _ExtGroup of
fin_group, runs its BFS over packed integer codes, not over
ExtElements; it is the one place that knows them, and ExtContext deals
only in ExtElements.  With n = |G| and the edge (v, a) at its key
k = v|A| + a - 1 (`groups._edge_key`, the one home of the edge-key
layout), which is the sorted order of cocycle keys, the pair
(b, c) has code b + n * sum_k c_k p^k.  Codes and canonical ExtElements
are in bijection, so ids, witnesses and step tables are those of an
ExtElement BFS; a walk step moves b through the step table of G and
adds +-1 mod p to one base-p digit, allocating nothing.  Callers still
see ExtElements: the group decodes a code when an element is asked for
and encodes one to look up its id.  An ExtContext over an enumerated G
closes sets over the codes and step of its fin_group(), which it never
enumerates.

Orders and letter images.  ext_order alone evaluates the order formula
|G| p^r, r = kernel_rank, and decides it against a limit: by bit length
first, so a power too large to compute is never computed.  The
_ExtGroup reads its order from ext_order over G's formula_order(),
refuses it over its budget when its enumeration asks for the key step,
before the first encode, and builds its letter images, which walk G's
step table, at the first use of gens; separated() holds iff |A| >= 2
and reads no image.  So building NAME^p^q, sizing it, refusing it by
its order or checking that it is separated enumerates no level above
the group at its bottom.

Order of free generators.  The certificate needs the order o of a free
generator of the relatively free group on two generators in the class
of direct powers of S.  For S = C_p that group is C_p x C_p and o = p =
exponent(S).  In general o = exponent(S): the free object embeds in a
direct power S^K with the generator pair (a, b) ranging over a set of
coordinate pairs that includes, for every x in S, a coordinate where a
evaluates to x -- for abelian S because (x, y) pairs exhaust S^2, and
for non-abelian simple S because every nonidentity x extends to a
generating pair (x, y) of S, so the coordinate (x, y) appears in the
defining family of surjections.  A coordinate-wise power a^m is then
trivial iff x^m = 1 for all x in S, i.e. iff exponent(S) divides m.
The helper free_object_pair_check verifies the two-generator instances
of this identification by brute force.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, product as iter_product
from typing import Dict, List, Optional, Sequence, Tuple

from .cayley import Edge, borders, component_of, intersect, path_span, walk
from .constellations import Constellation, require_choice, require_counts
from .groups import EnumerationBudgetError, FinGroup, _edge_key, _edge_of
from .rewriting import (SpanningTree, exponent_sums, rewrite,
                        spanning_tree_avoiding)
from .words import Word, concat, invert_word, reduce_word

S_EQUAL_BUDGET = 10**8


class CertificateError(RuntimeError):
    """A certificate step the theory guarantees failed; indicates a
    violated precondition or an implementation bug."""


def _is_prime(p) -> bool:
    return (isinstance(p, int) and p >= 2
            and all(p % q for q in range(2, int(p ** 0.5) + 1)))


@dataclass(frozen=True, order=True)
class ExtElement:
    """Element of the universal C_p-extension: base element of G plus a
    sparse cocycle, stored as a sorted tuple of ((vertex, letter),
    nonzero residue) pairs.  The base is an element id when G is
    enumerated and the ExtElement one level down when G is itself an
    extension; the field order makes the ordering canonical at every
    level, so it sorts cocycle keys.  An enumerated extension keys its
    elements by integer codes and builds ExtElements only on request."""

    base: object
    cocycle: tuple


def _pack(base, cocycle: Dict[tuple, int]) -> ExtElement:
    return ExtElement(base, tuple(sorted(
        (k, v) for k, v in cocycle.items() if v)))


class ExtContext:
    """Arithmetic for the universal C_p-extension of a fixed G.

    G is an enumerated FinGroup, whose elements are ids, or the
    ExtContext of the level below, whose ExtElements are never
    enumerated; the base arithmetic is bound once here, so mul does not
    branch on the kind of base."""

    def __init__(self, G, p: int):
        if not _is_prime(p):
            raise ValueError("p must be prime, got %r" % (p,))
        self.G = G
        self.p = p
        self.n_letters = G.n_letters
        if isinstance(G, FinGroup):
            self._mul, self._inv, self._one = G.mul_ids, G.inv_id, 0
        else:
            self._mul, self._inv, self._one = G.mul, G.inv, G.identity
        self._step = G.step
        self.identity = ExtElement(self._one, ())

    def letter(self, a: int) -> ExtElement:
        """Image of base letter a: ([a]_G, one unit on the edge (1, a))."""
        return ExtElement(self._step(self._one, a), (((self._one, a), 1),))

    def step(self, x: ExtElement, letter: int) -> ExtElement:
        """x times the image of a signed letter: one step of the signed
        Cayley walk.  Only the traversed edge changes, (x.base, a) by +1
        for a letter a and (x.base a^-1, a) by -1 for a^-1."""
        base = self._step(x.base, letter)
        key, d = ((x.base, letter), 1) if letter > 0 else ((base, -letter), -1)
        c = x.cocycle
        i = bisect_left(c, (key,))
        hit = i < len(c) and c[i][0] == key
        val = ((c[i][1] if hit else 0) + d) % self.p
        return ExtElement(base, c[:i] + (((key, val),) if val else ())
                          + c[i + hit:])

    def mul(self, x: ExtElement, y: ExtElement) -> ExtElement:
        mul, p = self._mul, self.p
        c = dict(x.cocycle)
        for (v, a), val in y.cocycle:
            key = (mul(x.base, v), a)
            c[key] = (c.get(key, 0) + val) % p
        return _pack(mul(x.base, y.base), c)

    def inv(self, x: ExtElement) -> ExtElement:
        mul, p = self._mul, self.p
        b = self._inv(x.base)
        c = {}
        for (v, a), val in x.cocycle:
            c[(mul(b, v), a)] = -val % p
        return _pack(b, c)

    def evaluate(self, w: Sequence[int]) -> ExtElement:
        """Walk the Cayley graph of G from 1 reading w, adding +1/-1 mod
        p on each traversed positive edge.  Agrees with the product of
        letter images (tested); base is [w]_G."""
        p = self.p
        cur = self._one
        c: Dict[tuple, int] = {}
        for e, sign, cur in walk(self.G, self._one, w):
            c[e] = (c.get(e, 0) + sign) % p
        return _pack(cur, c)

    def keyed_walk(self) -> tuple:
        """(key, step) for closures over ExtElements, enumerating
        nothing: over an enumerated G, the packed codes of fin_group(),
        whose own budget refuses nothing here; else the ExtElements
        themselves and step()."""
        if isinstance(self.G, FinGroup):
            return self.fin_group().code_walk()
        return (lambda x: x), self.step

    def fin_group(self, enum_budget: Optional[int] = None) -> FinGroup:
        """The extension as an A-generated FinGroup over an enumerable G,
        by default with G's enum_budget.  Building it enumerates
        nothing."""
        return _ExtGroup(self, self.G.enum_budget if enum_budget is None
                         else enum_budget)


class _ExtGroup(FinGroup):
    """The FinGroup of an ExtContext over an enumerable G.  Its
    enumeration keys are packed integer codes (see the module
    docstring); element(), id_of(), element_of(), gens and mul/inv deal
    in ExtElements.  Its order is ext_order of G's formula_order(),
    refused over enum_budget before the first encode, and its letter
    images are built at the first use of gens.  The image of letter a
    carries a unit on its own edge (1, a), so distinct letters have
    distinct, nonidentity images, and separated() needs no letter
    image."""

    def __init__(self, ctx: ExtContext, enum_budget: int):
        G, p = ctx.G, ctx.p
        letters = range(1, G.n_letters + 1)
        super().__init__(G.alphabet, lambda: [ctx.letter(a) for a in letters],
                         ctx.identity, ctx.mul, ctx.inv,
                         name="%s^%d" % (G.name, p), enum_budget=enum_budget)
        self._base, self._p = G, p
        self._n = self._units = self._moves = None    # code layout

    def separated(self) -> bool:
        return self.n_letters >= 2

    def formula_order(self) -> int:
        n = ext_order(self._base.formula_order(), self.n_letters, self._p,
                      self.enum_budget)
        if n is None:
            raise EnumerationBudgetError(
                self.enum_budget, "enumeration of %s" % self.name)
        return n

    def _key_step(self):
        self.formula_order()        # refuses an order over the budget
        return self.code_walk()[1]

    def code_walk(self) -> tuple:
        """(encode, step) over packed codes, refusing nothing and
        enumerating only G.  The code layout, built once here, holds the
        units n p^k of the edge keys k, and per signed letter the base
        shifts, the units of the edges crossed (read off G's
        `edge_rows()`) and the digit sign of a code step."""
        if self._units is None:
            G, p, n = self._base, self._p, self._base.order()
            units = [n * p ** i for i in range(n * self.n_letters)]
            moves = {x: ([row[b] - b for b in range(n)],
                         list(map(units.__getitem__, keys)),
                         1 if x > 0 else -1)
                     for x, row, keys in G.edge_rows()}
            self._n, self._units, self._moves = n, units, moves
        return self._encode, self._code_step

    # a code exists only after code_walk, so the methods below find the
    # layout built

    def _encode(self, x: ExtElement) -> int:
        units, k = self._units, self.n_letters
        return x.base + sum(val * units[_edge_key(k, v, a)]
                            for (v, a), val in x.cocycle)

    def _decode(self, code: int) -> ExtElement:
        k, p = self.n_letters, self._p
        r, base = divmod(code, self._n)
        c, i = [], 0
        while r:
            r, d = divmod(r, p)
            if d:
                c.append((_edge_of(k, i), d))
            i += 1
        return ExtElement(base, tuple(c))

    def _code_step(self, x: int, letter: int) -> int:
        """ExtContext.step() on codes: move the base, then add the sign
        to the digit of the traversed edge mod p."""
        shift, units, s = self._moves[letter]
        b = x % self._n
        u = units[b]
        d = x // u % self._p
        return x + shift[b] + ((d + s) % self._p - d) * u


def ext_evaluate(G: FinGroup, p: int, w: Sequence[int]) -> ExtElement:
    """Image of w in the universal C_p-extension of G."""
    return ExtContext(G, p).evaluate(w)


def kernel_rank(m: int, n_letters: int) -> int:
    """Rank m(|A|-1)+1 of the kernel of F ->> G for an order-m G."""
    return m * (n_letters - 1) + 1


def ext_order(m: int, n_letters: int, p: int,
              limit: Optional[int] = None) -> Optional[int]:
    """Order m * p^r of the C_p-extension of an order-m G, r its
    kernel_rank, or None when it exceeds limit; decided by bit length
    before the power is computed whenever that suffices, since the power
    may be too large to compute."""
    r = kernel_rank(m, n_letters)
    # the order is at least 2^(bit_length(m) - 1 + r (bit_length(p) - 1)),
    # more than any limit with no more bits than that exponent
    if limit is not None and (m.bit_length() - 1 + r * (p.bit_length() - 1)
                              >= limit.bit_length()):
        return None
    order = m * p ** r
    return order if limit is None or order <= limit else None


def extension_group(G: FinGroup, p: int,
                    enum_budget: Optional[int] = None) -> FinGroup:
    return ExtContext(G, p).fin_group(enum_budget)


# -- equality oracle for general simple S ------------------------------


@dataclass(frozen=True)
class SEqualResult:
    """Verdict of the S-extension equality oracle.

    status: 'equal' (exact scan exhausted), 'distinct' (witness
    assignment found, or images in G already differ), or
    'probably-equal' (witness search exhausted its samples).
    witness maps basis index -> S element id for the separating
    assignment, when one exists.
    """

    status: str
    witness: Optional[tuple] = None
    rank: int = 0
    samples_tried: int = 0


def _generates(S: FinGroup, ids: Sequence[int]) -> bool:
    """Whether the given element ids generate S."""
    return len(S.subgroup(ids)) == S.order()


def _letter_image_ids(S: FinGroup) -> List[int]:
    """Distinct nonidentity generator-image ids; they generate S."""
    out: List[int] = []
    for a in range(1, S.n_letters + 1):
        i = S.evaluate((a,))
        if i and i not in out:
            out.append(i)
    return out


def _materialize_witness(S: FinGroup, r: int, value_of: Dict[int, int],
                         fill: List[int], budget: int) -> Optional[tuple]:
    """Extend a partial assignment (basis index -> S id) to a full
    generating r-tuple, or None when no extension generates S.  Indices
    outside value_of never occur in the word, so any values work there;
    when enough of them are free the letter images go in and generation
    is automatic, otherwise all |S|^spare completions are searched,
    refused beforehand when over budget."""
    spare = [i for i in range(r) if i not in value_of]
    full = [value_of.get(i, 0) for i in range(r)]
    if len(spare) >= len(fill):
        for slot, x in zip(spare, fill):
            full[slot] = x
        return tuple(full)
    if S.order() ** len(spare) > budget:
        raise EnumerationBudgetError(budget, "witness completion search of "
                                     "%d^%d assignments"
                                     % (S.order(), len(spare)), "assignments")
    for completion in iter_product(range(S.order()), repeat=len(spare)):
        for slot, x in zip(spare, completion):
            full[slot] = x
        if _generates(S, full):
            return tuple(full)
    return None


def _eval_assignment(S: FinGroup, factors: Sequence[Tuple[int, int]],
                     value_of: Dict[int, int]) -> int:
    """Id of the factors' product under value_of: one walk from 1 over
    the words of the values, each word and its inverse read once."""
    word = {(i, 1): S.witness(v) for i, v in value_of.items()}
    word.update([((i, -1), invert_word(w)) for (i, _), w in word.items()])
    return S.evaluate(chain.from_iterable(map(word.__getitem__, factors)))


def s_equal(G: FinGroup, S: FinGroup, u: Sequence[int], v: Sequence[int],
            mode: str = "exact", samples: int = 4000,
            budget: int = S_EQUAL_BUDGET,
            seed: Optional[int] = None) -> SEqualResult:
    """Equality of [u] and [v] in the universal S-extension of G.

    Immediately distinct when the images in G differ.  Otherwise
    u v^-1 lies in the kernel R and is rewritten over the Nielsen basis
    (rank r); the images are equal iff every assignment of the basis
    into S whose values generate S evaluates the rewritten word to the
    identity.

    exact mode scans assignments (budget-limited by |S|^r); only the
    basis elements occurring in the rewritten word need values, since
    when at least two further basis elements remain free any separating
    partial assignment extends to a generating one (finite simple
    groups are 2-generated).  witness mode samples assignments,
    alternating uniform draws with sparse pairs (two random indices get
    random values, the rest the identity) and can certify only
    distinctness; it refuses fewer than one sample before any work, as
    every call refuses an unknown mode.
    """
    require_choice("mode", mode, ("exact", "witness"))
    if mode == "witness":
        require_counts(samples=samples)
    w = reduce_word(concat(tuple(u), invert_word(tuple(v))))
    if G.evaluate(w) != 0:
        return SEqualResult("distinct")
    r = kernel_rank(G.order(), G.n_letters)
    factors = rewrite(G, spanning_tree_avoiding(G), w)
    if not factors:
        return SEqualResult("equal", rank=r)
    used = sorted({i for i, _ in factors})
    n = S.order()
    fill = _letter_image_ids(S)
    if mode == "exact":
        if n ** r > budget:
            raise EnumerationBudgetError(budget,
                                         "exact scan of %d^%d assignments"
                                         % (n, r), "assignments")
        # values outside the used indices never change the evaluation,
        # so scanning S^used is complete as long as each nonzero hit is
        # checked for a generating extension
        for combo in iter_product(range(n), repeat=len(used)):
            value_of = dict(zip(used, combo))
            if _eval_assignment(S, factors, value_of) == 0:
                continue
            witness = _materialize_witness(S, r, value_of, fill, budget)
            if witness is not None:
                return SEqualResult("distinct", witness=witness, rank=r)
        return SEqualResult("equal", rank=r)
    rng = random.Random(seed)
    for k in range(samples):
        if k % 2 == 0 and len(used) >= 2:
            i, j = rng.sample(used, 2)
            value_of = {t: 0 for t in used}
            value_of[i] = rng.randrange(1, n)
            value_of[j] = rng.randrange(1, n)
        else:
            value_of = {t: rng.randrange(n) for t in used}
        if _eval_assignment(S, factors, value_of) == 0:
            continue
        witness = _materialize_witness(S, r, value_of, fill, budget)
        if witness is not None:
            return SEqualResult("distinct", witness=witness, rank=r,
                                samples_tried=k + 1)
    return SEqualResult("probably-equal", rank=r, samples_tried=samples)


# -- free object order check -------------------------------------------


def free_object_pair_check(S: FinGroup, m: int, n: int) -> bool:
    """Whether a^m b^n is trivial in the free object on (a, b) in the
    class of direct powers of S: evaluates x^m y^n coordinatewise over
    all pairs (x, y) in S^2.  Equals (exponent(S) | m and
    exponent(S) | n)."""
    size = S.order()
    pow_m = [_pow_id(S, x, m) for x in range(size)]
    pow_n = [_pow_id(S, y, n) for y in range(size)]
    return all(S.mul_ids(pm, pn) == 0 for pm in pow_m for pn in pow_n)


def _pow_id(S: FinGroup, x: int, m: int) -> int:
    m %= S.order_of(x)
    acc = 0
    for _ in range(m):
        acc = S.mul_ids(acc, x)
    return acc


# -- dissolving certificate --------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Constructive proof object that the universal S-extension of G
    separates the word pair (u, v) of a constellation.

    e is a border edge of X at the intersection component Z of 1 whose
    signed traversal count by u is nonzero mod o; f likewise for T and
    v; o = exponent(S).  Soundness: e never lies in T and f never in X
    (an intersection edge touching Z would sit inside Z), so over a
    spanning tree avoiding both edges the rewriting of u v^-1 splits
    into a u-part free of f's basis element and a v^-1-part free of
    e's.  Mapping e's basis element to a, f's to b and every other one
    to the identity therefore sends u v^-1 to a^u_exp * b^-v_exp in the
    two-generator free object over the direct powers of S, which is
    nontrivial because o divides neither exponent
    (free_object_pair_check).

    tree is the tree of that cross-check: G's base tree with e and f
    exchanged out of it (spanning_tree_avoiding), one of many trees
    that would serve; no other field depends on it.  Its edge set,
    tree_edges, is derived on demand.
    """

    e: Edge
    f: Edge
    u_exp: int
    v_exp: int
    o: int
    z: frozenset
    d_edges: frozenset
    c_edges: frozenset
    dp_edges: frozenset
    cp_edges: frozenset
    u_border_sum: int
    v_border_sum: int
    tree: SpanningTree

    @property
    def tree_edges(self) -> frozenset:
        return self.tree.tree_edges


def _check_path_inside(G: FinGroup, X, w: Sequence[int], end: int,
                       name: str) -> Dict[Edge, int]:
    span, got_end, counts = path_span(G, 0, w)
    if not span.pos_edges <= X.pos_edges or not span.vertices <= X.vertices:
        raise ValueError("%s does not run inside its subgraph" % name)
    if got_end != end:
        raise ValueError("%s does not read 1 -> g" % name)
    return counts


def dissolving_certificate(G: FinGroup, c: Constellation, u: Word, v: Word,
                           S: FinGroup) -> Certificate:
    """Build the separation certificate for a constellation word pair.

    Computes Z (intersection component of 1), the borders (D, C) of X
    and (D', C') of T at Z, checks both flow identities (u crosses the
    border of Z one time more outward than inward, and so does v), picks
    the smallest border edges with traversal count nonzero mod
    o = exponent(S), verifies the two border families are disjoint, and
    cross-checks the exponent sums against the rewriting module over a
    spanning tree avoiding both edges.  Raises CertificateError if a
    step the theory guarantees fails.
    """
    if not G.separated():
        raise ValueError("group does not satisfy the separated generation "
                         "property")
    u_counts = _check_path_inside(G, c.X, u, c.g, "u")
    v_counts = _check_path_inside(G, c.T, v, c.g, "v")
    z = component_of(intersect(c.X, c.T), 0)
    d_edges, c_edges = borders(c.X, z)
    dp_edges, cp_edges = borders(c.T, z)
    u_sum = (sum(u_counts.get(e, 0) for e in d_edges)
             - sum(u_counts.get(e, 0) for e in c_edges))
    v_sum = (sum(v_counts.get(e, 0) for e in dp_edges)
             - sum(v_counts.get(e, 0) for e in cp_edges))
    if u_sum != 1 or v_sum != 1:
        raise CertificateError("border flow identity failed: got %d and %d"
                               % (u_sum, v_sum))
    if (d_edges | c_edges) & (dp_edges | cp_edges):
        raise CertificateError("border families are not disjoint; the "
                               "intersection component of 1 leaked")
    o = S.exponent()
    if o < 2:
        raise ValueError("S must be a nontrivial group")
    e = min((x for x in d_edges | c_edges if u_counts.get(x, 0) % o),
            default=None)
    f = min((x for x in dp_edges | cp_edges if v_counts.get(x, 0) % o),
            default=None)
    if e is None or f is None:
        raise CertificateError("no border edge with nonzero traversal mod %d"
                               % o)
    if f in u_counts or e in v_counts:
        raise CertificateError("chosen border edge traversed by the other "
                               "path; the borders leaked across X and T")
    tree = spanning_tree_avoiding(G, e, f)
    sums = exponent_sums(rewrite(G, tree, reduce_word(
        concat(tuple(u), invert_word(tuple(v))))))
    if sums.get(tree.index_of(e), 0) != u_counts.get(e, 0):
        raise CertificateError("rewriting disagrees with traversal count "
                               "at e")
    if sums.get(tree.index_of(f), 0) != -v_counts.get(f, 0):
        raise CertificateError("rewriting disagrees with traversal count "
                               "at f")
    return Certificate(e=e, f=f,
                       u_exp=u_counts[e] % o, v_exp=v_counts[f] % o, o=o,
                       z=z, d_edges=d_edges, c_edges=c_edges,
                       dp_edges=dp_edges, cp_edges=cp_edges,
                       u_border_sum=u_sum, v_border_sum=v_sum,
                       tree=tree)


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "schema": 1,
        "e": list(cert.e),
        "f": list(cert.f),
        "u_exp": cert.u_exp,
        "v_exp": cert.v_exp,
        "o": cert.o,
        "z": sorted(cert.z),
        "d_edges": sorted(list(x) for x in cert.d_edges),
        "c_edges": sorted(list(x) for x in cert.c_edges),
        "dp_edges": sorted(list(x) for x in cert.dp_edges),
        "cp_edges": sorted(list(x) for x in cert.cp_edges),
        "u_border_sum": cert.u_border_sum,
        "v_border_sum": cert.v_border_sum,
        "tree_edges": sorted(list(x) for x in cert.tree_edges),
    }
