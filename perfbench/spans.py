"""Spans around the public functions of the treelike modules, recorded
from outside the program for the traced run.

`Tracer.install()` replaces each public function and public method of the
ten modules with a wrapper that records a span: name, start, end, parent
span and job id.  Where a module imported a function with
``from .x import f``, that binding is replaced too, so calls between
modules are seen.  `uninstall()` puts every original back.

Aggregates (calls, inclusive time, self time, raised exceptions) are kept
per function; self time is a span's duration minus the time of its child
spans.  Generator functions get one span per item drawn, so their time is
the time spent inside the generator.  Raw spans are held in memory up to
`SPAN_CAP` and written out by `write()` when the run ends.

Functions of `words` get a call counter and no span: timing a 1 us call
costs more than the call.  The trivial accessors in `UNWRAPPED` get
nothing, for the same reason; their time stays in their caller's self
time.  A name that a later version of the program drops is skipped, and
the metrics that read it report 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from typing import Dict, List

MODULES = ("words", "stallings", "groups", "cayley", "rewriting",
           "constellations", "extension", "tower", "rational", "cli")
COUNT_ONLY = ("words",)
UNWRAPPED = frozenset({
    "groups.perm_identity", "groups.perm_mul", "groups.perm_inv",
    "groups.FinGroup.step", "groups.FinGroup.element",
    "groups.FinGroup.id_of", "groups.FinGroup.witness",
    "groups.FinGroup.evaluate", "groups.FinGroup.element_of",
    "cayley.CayleySubgraph.dst", "cayley.CayleySubgraph.__contains__",
})
# private functions traced because a per-layer metric needs them
EXTRA = ("groups.FinGroup._enumerate",)
# raw spans kept in memory; later ones are counted as dropped
SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.agg: Dict[str, list] = {}     # name -> [calls, total_s, self_s, raised, items]
        self.counts: Dict[str, int] = {}
        self.spans: List[tuple] = []       # (id, parent, name, start, end, job)
        self.dropped = 0
        self.next_id = 0
        self.stack: List[list] = []        # open spans: [id, child_s]
        self.job = None
        self._undo: List[tuple] = []

    def reset(self) -> None:
        for a in self.agg.values():
            a[:] = [0, 0.0, 0.0, 0, 0]
        self.counts.clear()
        self.spans.clear()
        self.dropped = 0

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers --------------------------------------------------------

    def _agg(self, name: str) -> list:
        return self.agg.setdefault(name, [0, 0.0, 0.0, 0, 0])

    def _span(self, name: str, fn, hook=None):
        a = self._agg(name)
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][0] if stack else None
            rec = [sid, 0.0]
            stack.append(rec)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                a[0] += 1
                a[1] += dur
                a[2] += dur - rec[1]
                a[3] += raised
                if len(spans) < SPAN_CAP:
                    spans.append((sid, parent, name, start, end, tracer.job))
                else:
                    tracer.dropped += 1
            return result

        if hook is None:
            return wrapper

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            return hook(wrapper, *args, **kwargs)
        return hooked

    def _span_generator(self, name: str, fn):
        a = self._agg(name)
        step = self._span(name, next)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)

            def items():
                while True:
                    try:
                        item = step(it)
                    except StopIteration:
                        return
                    a[4] += 1
                    yield item
            return items()
        return wrapper

    def _counter(self, name: str, fn):
        a = self._agg(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            a[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- hooks that read work counts at layer boundaries -----------------

    def _hook_enumerate(self, call, group, *args, **kwargs):
        fresh = getattr(group, "_elems", None) is None
        try:
            result = call(group, *args, **kwargs)
        except Exception as exc:
            if fresh and hasattr(exc, "budget"):
                self.count("groups.elements_enumerated", exc.budget)
            raise
        elems = getattr(group, "_elems", None)
        if fresh and elems is not None:
            self.count("groups.elements_enumerated", len(elems))
        return result

    def _hook_lift(self, call, dissolver, *args, **kwargs):
        cache = getattr(dissolver, "_lifts", None)
        before = len(cache) if cache is not None else 0
        result = call(dissolver, *args, **kwargs)
        if cache is None or len(cache) > before:
            self.count("constellations.lifts_built")
        return result

    def _hook_dissolves(self, call, *args, **kwargs):
        verdict = call(*args, **kwargs)
        if getattr(verdict, "status", None) == "counterexample":
            self.count("constellations.counterexamples")
        return verdict

    def _hook_saturate(self, call, automaton, *args, **kwargs):
        done = getattr(automaton, "_saturated", False)
        result = call(automaton, *args, **kwargs)
        if not done:
            eps = getattr(automaton, "eps", {})
            self.count("rational.eps_edges", sum(len(s) for s in eps.values()))
        return result

    def _hook_core(self, call, *args, **kwargs):
        graph = call(*args, **kwargs)
        self.count("stallings.core_vertices", len(graph.vertices))
        return graph

    HOOKS = {
        "groups.FinGroup._enumerate": _hook_enumerate,
        "constellations.Dissolver.lift": _hook_lift,
        "constellations.Dissolver.dissolves": _hook_dissolves,
        "rational.ProductAutomaton.saturate": _hook_saturate,
        "stallings.core": _hook_core,
    }

    # -- patching --------------------------------------------------------

    def _targets(self):
        """(name, owner, attribute, function) for every function traced."""
        for short in MODULES:
            mod = importlib.import_module("treelike." + short)
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield "%s.%s" % (short, attr), mod, attr, obj
                elif inspect.isclass(obj):
                    for m_attr, m_obj in sorted(vars(obj).items()):
                        public = not m_attr.startswith("_") or (
                            "%s.%s.%s" % (short, attr, m_attr) in EXTRA)
                        if public and inspect.isfunction(m_obj):
                            yield "%s.%s.%s" % (short, attr, m_attr), obj, m_attr, m_obj

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for name, owner, attr, fn in self._targets():
            if name in UNWRAPPED:
                continue
            short = name.split(".", 1)[0]
            if short in COUNT_ONLY:
                new = self._counter(name, fn)
            elif inspect.isgeneratorfunction(fn):
                new = self._span_generator(name, fn)
            else:
                hook = self.HOOKS.get(name)
                new = self._span(name, fn, None if hook is None
                                 else functools.partial(hook, self))
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, new)
            replaced[id(fn)] = (fn, new)
        # bindings made by `from .x import f` and by the package namespace
        for short in ("",) + MODULES:
            mod = importlib.import_module("treelike" + ("." + short if short else ""))
            for attr, obj in list(vars(mod).items()):
                got = replaced.get(id(obj))
                if got is not None and got[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, got[1])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)
        self.stack.clear()

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.agg.get(name, [0] * 5)[0]

    def self_s(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[2]

    def total_s(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0])[1]

    def raised(self, name: str) -> int:
        return self.agg.get(name, [0] * 5)[3]

    def items(self, name: str) -> int:
        return self.agg.get(name, [0] * 5)[4]

    def module_self_s(self, short: str) -> float:
        prefix = short + "."
        return sum(a[2] for name, a in self.agg.items()
                   if name.startswith(prefix))

    def write(self, path) -> None:
        """Spans as JSON lines, after one header line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.spans),
                                 "dropped": self.dropped,
                                 "fields": ["id", "parent", "name", "start",
                                            "end", "job"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
