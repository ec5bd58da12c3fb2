"""Membership in products of finitely generated subgroups of a free
group, decided by automata saturation over reduced words.

The product automaton chains the Stallings graphs of the factors: each
folded core graph is an automaton reading both directions of its edges,
the basepoint of factor i is linked by a separator epsilon-edge to the
basepoint of factor i+1, the initial state is the first basepoint and
the final state the last.  Saturation closes the automaton under free
cancellation: whenever q reads x to r, an epsilon-path leads from r to
r', and r' reads x^-1 to s, a new epsilon-edge q -> s is recorded.  At
the fixpoint, a reduced word lies in the product H_1 ... H_k iff it is
accepted with epsilon-moves allowed.

Every epsilon-edge carries its derivation (the letter x and the
epsilon-path it shortcuts, all strictly older), so an accepting run
expands into an actual letter path through the automaton whose label
freely reduces to the input; cutting that path at the separators yields
a factorization h_1, ..., h_k with red(h_1 ... h_k) = w and each h_i a
closed walk at the basepoint of its factor.

Every search here is `stallings.breadth_first`: the epsilon-reach of a
state in a saturation round, the epsilon-closures of `accepts`, and the
accepting run over (letters consumed, state) that `factorize` expands;
paths are read off the parent maps with `words.path_label`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .stallings import LabeledGraph, breadth_first, member, transition_maps
from .words import Word, concat, is_reduced, path_label, reduce_word


class ProductAutomaton:
    """Automaton over the concatenation of factor core graphs."""

    def __init__(self, cores: Sequence[LabeledGraph]):
        if not cores:
            raise ValueError("need at least one factor")
        for i, g in enumerate(cores):
            if g.basepoint is None:
                raise ValueError("factor %d has no basepoint" % i)
        self.cores = list(cores)
        self.trans: Dict[Tuple[int, int], int] = {}
        self.base_state: List[int] = []
        n = 0
        for g in cores:
            order = {v: n + j for j, v in enumerate(sorted(g.vertices, key=repr))}
            for (v, x), u in transition_maps(g).items():
                self.trans[(order[v], x)] = order[u]
            self.base_state.append(order[g.basepoint])
            n += len(g.vertices)
        self.initial = self.base_state[0]
        self.final = self.base_state[-1]
        # epsilon edges: target sets per source, plus derivations
        self.eps: Dict[int, Set[int]] = {}
        self.deriv: Dict[Tuple[int, int], tuple] = {}
        for i in range(len(cores) - 1):
            self._add_eps(self.base_state[i], self.base_state[i + 1],
                          ("sep", i))
        self._saturated = False

    def _add_eps(self, q: int, s: int, derivation: tuple) -> None:
        self.eps.setdefault(q, set()).add(s)
        self.deriv[(q, s)] = derivation

    def saturate(self) -> "ProductAutomaton":
        """Close under free cancellation.  Each round only consumes
        epsilon-edges created in earlier rounds, so every derivation
        refers to strictly older edges and witness expansion is
        well-founded.  At most |states|^2 edges exist, so this stops.
        Within a round the edges are fixed, so the epsilon-reach of a
        state (its breadth-first parent map) is searched once, at the
        first transition into it, and reused by the others."""
        if self._saturated:
            return self
        while True:
            # moves tried in a frozenset's order: derivations depend on it
            snapshot = {q: [(s, (q, s)) for s in frozenset(t)]
                        for q, t in self.eps.items()}
            reach: Dict[int, dict] = {}
            added = False
            for (q, x), r in self.trans.items():
                if r not in reach:
                    reach[r] = breadth_first(
                        [r], lambda u: snapshot.get(u, ()))
                for r2 in reach[r]:
                    s = self.trans.get((r2, -x))
                    if s is not None and s not in self.eps.get(q, ()):
                        self._add_eps(
                            q, s, ("cancel", x, path_label(reach[r], r2)))
                        added = True
            if not added:
                break
        self._saturated = True
        return self

    def _closure(self, states: Set[int]) -> Set[int]:
        return set(breadth_first(
            states, lambda q: [(s, None) for s in self.eps.get(q, ())]))

    def accepts(self, w: Sequence[int]) -> bool:
        self.saturate()
        states = self._closure({self.initial})
        for x in w:
            states = self._closure({self.trans[(q, x)] for q in states
                                    if (q, x) in self.trans})
            if not states:
                return False
        return self.final in states

    def _run(self, w: Sequence[int]) -> Optional[Tuple[tuple, ...]]:
        """Accepting run as a move tuple: ('eps', q, s) and ('letter', x)
        entries; BFS over (letters consumed, state)."""
        self.saturate()

        def moves(node):
            k, q = node
            if k < len(w) and (q, w[k]) in self.trans:
                yield (k + 1, self.trans[(q, w[k])]), ("letter", w[k])
            for s in self.eps.get(q, ()):
                yield (k, s), ("eps", q, s)

        parent = breadth_first([(0, self.initial)], moves)
        goal = (len(w), self.final)
        return path_label(parent, goal) if goal in parent else None

    def _expand_eps(self, q: int, s: int, sink: List[object]) -> None:
        """Append the letter-level events of an epsilon-edge: letters and
        'sep' markers.  Derivations reference only strictly older edges,
        so the explicit stack always shrinks toward separators."""
        stack: List[tuple] = [("edge", q, s)]
        while stack:
            item = stack.pop()
            if item[0] == "emit":
                sink.append(item[1])
                continue
            d = self.deriv[(item[1], item[2])]
            if d[0] == "sep":
                sink.append("sep")
                continue
            _, x, path = d
            stack.append(("emit", -x))
            for a, b in reversed(path):
                stack.append(("edge", a, b))
            stack.append(("emit", x))

    def factorize(self, w: Sequence[int]) -> Optional[List[Word]]:
        """Words h_1, ..., h_k with red(h_1 ... h_k) = w, each h_i in its
        factor subgroup; None when w is not in the product."""
        run = self._run(w)
        if run is None:
            return None
        events: List[object] = []
        for move in run:
            if move[0] == "letter":
                events.append(move[1])
            else:
                self._expand_eps(move[1], move[2], events)
        pieces: List[List[int]] = [[]]
        for ev in events:
            if ev == "sep":
                pieces.append([])
            else:
                pieces[-1].append(ev)
        if len(pieces) != len(self.cores):
            raise RuntimeError("internal: the accepting run crosses %d "
                               "separators" % (len(pieces) - 1))
        factors = [reduce_word(tuple(p)) for p in pieces]
        check: Word = ()
        for i, h in enumerate(factors):
            if not member(self.cores[i], h):
                raise RuntimeError("internal: factor %d of the extracted "
                                   "witness fails membership" % i)
            check = concat(check, h)
        if check != reduce_word(tuple(w)):
            raise RuntimeError("internal: extracted witness does not "
                               "reduce to the query word")
        return factors


def product_automaton(cores: Sequence[LabeledGraph]) -> ProductAutomaton:
    """The chained factor automaton, not yet saturated."""
    return ProductAutomaton(cores)


def member_product(cores: Sequence[LabeledGraph], w: Sequence[int]
                   ) -> Tuple[bool, Optional[List[Word]]]:
    """Whether reduced w lies in H_1 ... H_k, with a verified
    factorization on success."""
    w = tuple(w)
    if not is_reduced(w):
        raise ValueError("word must be reduced")
    aut = ProductAutomaton(cores).saturate()
    factors = aut.factorize(w)
    return (factors is not None), factors
