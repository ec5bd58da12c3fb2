"""Iterated universal C_p-extensions as a chain of extension contexts.

A tower starts from a separated finite A-generated base group G_0 and
sets G_n = the universal C_{p_n}-extension of G_{n-1}.  Orders grow as
|G_n| = m * p^(m(|A|-1)+1) for m = |G_{n-1}|, so levels beyond 1 cannot
be enumerated.
Level n's arithmetic is an ExtContext whose base is the ExtContext of
level n-1 (the base group itself at level 1): a level-n element is an
ExtElement holding its level-(n-1) projection and a sparse cocycle
over level-(n-1) Cayley edges (element, letter) with residues mod p_n.
Multiplication shifts the right cocycle by the left base element, one
level down, and never touches elements outside the operands' supports.
Equality of elements is group equality, level by level, by the
faithfulness argument of the single-step model; ExtElement ordering
keeps each cocycle's keys in canonical order.  For the campaigns,
`Tower.group` enumerates a level as the fin_group of an ExtContext over
the enumerated level below, a FinGroup subclass keyed by packed codes,
exactly as the CLI's NAME^p^q does; the order formula refuses a level
whose order exceeds the enumeration budget before any work.

The campaign runner gathers finite-level evidence for tree-likeness of
the inverse limit: at each enumerable level it checks that the next
level dissolves all (or sampled) constellations; when the next level is
too large to enumerate, it falls back to per-word-pair border
certificates.  The separation experiment follows a reduced word that
lies outside a product of finitely generated subgroups and reports the
first level whose finite quotient separates it from the product; it
closes subgroups and product sets over each level's signed walk and
enumerates no level above the base.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .constellations import (EXHAUSTIVE_EDGE_BUDGET, MODES, dissolves_all,
                             require_choice, require_counts,
                             sample_constellations)
from .extension import (CertificateError, ExtContext, ExtElement, _is_prime,
                        dissolving_certificate, ext_order)
from .groups import (DEFAULT_ENUM_BUDGET, EnumerationBudgetError, FinGroup,
                     _cycle, _is_int, builtin, closure, group_from_json)
from .rational import member_product
from .rewriting import graph_subgroup_basis
from .stallings import LabeledGraph
from .words import Word, is_reduced, word_str

MAX_LEVEL = 3


@dataclass(frozen=True)
class TowerSpec:
    """Configuration of a tower: separated base group, one prime per
    extension level, and budgets."""

    base: FinGroup
    primes: tuple
    max_level: int = MAX_LEVEL
    enum_budget: int = DEFAULT_ENUM_BUDGET
    seed: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "primes", tuple(self.primes))
        if not self.primes:
            raise ValueError("tower needs at least one prime")
        for p in self.primes:
            if not _is_prime(p):
                raise ValueError("tower level primes must be prime, got %r"
                                 % (p,))
        for field in ("max_level", "enum_budget"):
            if not _is_int(getattr(self, field)):
                raise ValueError("tower %s must be an integer, got %r"
                                 % (field, getattr(self, field)))
        if self.max_level < 0:
            raise ValueError("tower max_level must be at least 0, got %d"
                             % self.max_level)
        if not self.base.separated():
            raise ValueError("base group must have distinct nonidentity "
                             "letter images (>= 2 letters)")


def _level(e) -> int:
    """Level of a tower element: the number of ExtElement layers above
    its base-group id."""
    n = 0
    while isinstance(e, ExtElement):
        e, n = e.base, n + 1
    return n


def tower_equal(e1, e2) -> bool:
    """Exact group equality of two elements of one level."""
    if _level(e1) != _level(e2):
        raise ValueError("elements live at different levels")
    return e1 == e2


def project(e: ExtElement):
    """Canonical projection one level down."""
    if not isinstance(e, ExtElement):
        raise ValueError("level-0 elements have no projection")
    return e.base


class Tower:
    """Lazy chain of per-level arithmetic over a TowerSpec: the base
    FinGroup (element ids) at level 0 and an ExtContext over the level
    below at each level n >= 1; and, for the campaigns, enumerable
    FinGroups over the ids of the level below."""

    def __init__(self, spec: TowerSpec):
        self.spec = spec
        self._contexts: List = [spec.base]
        self._groups: List[FinGroup] = [spec.base]

    def _check_level(self, n: int) -> None:
        if n < 0:
            raise ValueError("negative level")
        if n > self.spec.max_level:
            raise ValueError("level %d exceeds the configured maximum %d"
                             % (n, self.spec.max_level))
        if n > len(self.spec.primes):
            raise ValueError("level %d has no prime configured" % n)

    def prime(self, n: int) -> int:
        """Prime of the step G_{n-1} -> G_n."""
        return self.spec.primes[n - 1]

    def _context(self, n: int):
        """Arithmetic of G_n: the base FinGroup at level 0, else the
        ExtContext over level n-1."""
        while len(self._contexts) <= n:
            k = len(self._contexts)
            self._contexts.append(ExtContext(self._contexts[-1],
                                             self.prime(k)))
        return self._contexts[n]

    def identity(self, n: int):
        self._check_level(n)
        return self._context(n).identity if n else 0

    def mul(self, x, y):
        n = _level(x)
        if n != _level(y):
            raise ValueError("elements live at different levels")
        if n == 0:
            return self.spec.base.mul_ids(x, y)
        return self._context(n).mul(x, y)

    def inv(self, x):
        n = _level(x)
        if n == 0:
            return self.spec.base.inv_id(x)
        return self._context(n).inv(x)

    def evaluate(self, n: int, w: Sequence[int]):
        """Image of w in G_n: an id at level 0, else an ExtElement."""
        self._check_level(n)
        return self._context(n).evaluate(w)

    def order(self, n: int) -> int:
        """|G_n|, enumerating nothing above the base: ext_order of
        |G_{n-1}|.  A level above the base whose order exceeds the spec's
        enum_budget is refused."""
        self._check_level(n)
        if n == 0:
            return self.spec.base.order()
        budget = self.spec.enum_budget
        order = ext_order(self.order(n - 1), self.spec.base.n_letters,
                          self.prime(n), budget)
        if order is None:
            raise EnumerationBudgetError(budget, "level %d of the tower" % n)
        return order

    def group(self, n: int) -> FinGroup:
        """G_n as an enumerable FinGroup, for the campaigns: the base at
        level 0, else the fin_group of an ExtContext over the FinGroup of
        level n-1, built once.  A level is refused as in order(), from
        the formula alone, when its order exceeds the spec's
        enum_budget."""
        self.order(n)
        while len(self._groups) <= n:
            k = len(self._groups)
            self._groups.append(ExtContext(self._groups[-1], self.prime(k))
                                .fin_group(self.spec.enum_budget))
        return self._groups[n]


def tower_evaluate(spec: TowerSpec, n: int, w: Sequence[int]):
    return Tower(spec).evaluate(n, w)


def tower_spec_from_json(data: dict) -> TowerSpec:
    """Parse {base, primes, max_level?, enum_budget?, seed?}; base is a
    builtin group name or an inline group JSON object."""
    if not isinstance(data, dict):
        raise ValueError("tower config: expected an object")
    if "base" not in data or "primes" not in data:
        raise ValueError("tower config: need fields 'base' and 'primes'")
    raw = data["base"]
    if isinstance(raw, str):
        base = builtin(raw)
    elif isinstance(raw, dict):
        base = group_from_json(raw, name=str(data.get("name", "G")))
    else:
        raise ValueError("tower config field 'base': name or group object "
                         "required")
    primes = data["primes"]
    if not isinstance(primes, list) or not primes:
        raise ValueError("tower config field 'primes': nonempty list required")
    return TowerSpec(base, tuple(primes),
                     max_level=data.get("max_level", MAX_LEVEL),
                     enum_budget=data.get("enum_budget", DEFAULT_ENUM_BUDGET),
                     seed=data.get("seed"))


def _cyclic_group(p: int) -> FinGroup:
    return FinGroup.from_perms(("a",), [_cycle(p)], name="C%d" % p)


def treelike_campaign(spec: TowerSpec, levels: int = 1,
                      mode: str = "exhaustive", step: str = "extension",
                      edge_budget: int = EXHAUSTIVE_EDGE_BUDGET,
                      samples: int = 200,
                      max_len: int = 8,
                      detail_limit: Optional[int] = 50) -> dict:
    """Evidence report for tree-likeness of the tower limit.

    For each level n < levels, checks that the next tower level (or G_n
    itself under step='identity', the failing baseline) dissolves the
    constellations of G_n.  When the next level cannot be enumerated,
    border certificates for sampled constellation word pairs stand in:
    each certificate alone proves its pair separated in G_{n+1}.  A base
    that its own enum_budget refuses raises EnumerationBudgetError: such
    a campaign would check nothing.  Counts, mode and step, and the top
    level read against the primes and max_level, are checked before any
    level is read.
    """
    require_counts(levels=levels, samples=samples, max_len=max_len)
    require_choice("mode", mode, MODES)
    require_choice("step", step, ("extension", "identity"))
    # the extension step reads level `levels`, the identity step stops below
    top = levels if step == "extension" else levels - 1
    if top > len(spec.primes):
        raise ValueError(
            "campaign over %d levels needs one prime per level" % levels
            if step == "extension" else
            "level %d has no prime configured" % (len(spec.primes) + 1))
    if top > spec.max_level:
        raise ValueError("campaign over %d levels reaches level %d, above "
                         "max_level %d" % (levels, top, spec.max_level))
    tower = Tower(spec)
    tower.group(0)
    rng = random.Random(spec.seed)
    report = {
        "schema": 1,
        "base": spec.base.name,
        "primes": list(spec.primes),
        "mode": mode,
        "step": step,
        "seed": spec.seed,
        "levels": [],
    }
    all_ok = True
    for n in range(levels):
        try:
            G = tower.group(n)
            order = G.order()
        except EnumerationBudgetError:
            report["levels"].append({"level": n, "overflow": "level"})
            all_ok = False
            break
        entry = {"level": n, "order": order}
        if step == "identity":
            H = G
        else:
            try:
                H = tower.group(n + 1)
            except EnumerationBudgetError:
                H = None
        if H is not None:
            sub = dissolves_all(H, G, mode=mode, edge_budget=edge_budget,
                                samples=samples, max_len=max_len,
                                seed=rng.randrange(2 ** 30),
                                detail_limit=detail_limit)
            entry["dissolves"] = sub
            all_ok &= sub["all_dissolved"]
        else:
            # next level not enumerable: certify sampled word pairs directly
            S = _cyclic_group(tower.prime(n + 1))
            certs = {"total": 0, "succeeded": 0}
            for c, u, v in sample_constellations(G, rng, samples, max_len):
                certs["total"] += 1
                try:
                    dissolving_certificate(G, c, u, v, S)
                    certs["succeeded"] += 1
                except CertificateError:
                    pass
            entry["overflow"] = "next level not enumerable"
            entry["certificates"] = certs
            all_ok &= certs["total"] == certs["succeeded"]
        report["levels"].append(entry)
    report["all_dissolved"] = all_ok
    return report


def _separation_level(tower: Tower, n: int, gens: List[List[Word]],
                      w: Word) -> dict:
    """rz's entry for G_n: its order, the subgroup orders, the size of
    the product set and whether [w] lies in it, each set a closure over
    the keyed walk of G_n (ids at level 0, the packed codes of the
    unenumerated extension group at level 1, ExtElements above).  A
    refused level raises EnumerationBudgetError."""
    order = tower.order(n)
    key, step = tower._context(n).keyed_walk()
    one = key(tower.identity(n))
    product = {one}
    for words in gens:
        if len(product) < order:        # P H = P once P is all of G_n
            product = closure(step, product, words)
    return {
        "level": n,
        "order": order,
        "subgroup_orders": [len(closure(step, (one,), words))
                            for words in gens],
        "product_size": len(product),
        "contains": key(tower.evaluate(n, w)) in product,
    }


def rz_experiment(spec: TowerSpec, cores: Sequence[LabeledGraph], w: Word
                  ) -> dict:
    """Separation experiment for w against the product H_1 ... H_k.

    Ground truth comes from the saturation oracle.  When w is outside
    the product, the experiment walks up the tower looking for the first
    level whose quotient separates [w] from the product of the subgroup
    images and reports it, or reports the first level whose exact order
    exceeds the enumeration budget.  P H_1 ... H_k is {1} closed under
    each factor's Nielsen basis words in turn."""
    w = tuple(w)
    if not is_reduced(w):
        raise ValueError("word must be reduced")
    names = spec.base.alphabet
    truth, factors = member_product(cores, w)
    report = {
        "schema": 1,
        "base": spec.base.name,
        "primes": list(spec.primes),
        "word": word_str(w, names),
        "member": truth,
        "separated_at": None,
        "levels": [],
        "inconclusive": False,
    }
    if truth:
        report["factorization"] = [word_str(h, names) for h in factors]
        return report
    gens = [graph_subgroup_basis(g) for g in cores]
    tower = Tower(spec)
    for n in range(min(spec.max_level, len(spec.primes)) + 1):
        try:
            entry = _separation_level(tower, n, gens, w)
        except EnumerationBudgetError:
            report["levels"].append({"level": n, "overflow": True})
            break
        report["levels"].append(entry)
        if not entry["contains"]:
            report["separated_at"] = n
            break
    report["inconclusive"] = report["separated_at"] is None
    return report
