"""Per-layer metrics of the traced run, read from a Tracer and the job list's
work counts.  Times are self times in seconds unless the name says
otherwise; `enumerate_s` and `sample_s` are the time spent inside the
constellation generators, children included."""

from __future__ import annotations

from typing import Callable, Dict

from spans import MODULES, Tracer

Getter = Callable[[Tracer, Dict[str, int]], float]


def _calls(name: str) -> Getter:
    return lambda t, c: t.calls(name)


def _self(*names: str) -> Getter:
    return lambda t, c: sum(t.self_s(n) for n in names)


def _count(key: str) -> Getter:
    return lambda t, c: t.counts.get(key, c.get(key, 0))


def _ratio(num: Getter, den: Getter) -> Getter:
    def get(t, c):
        d = den(t, c)
        return num(t, c) / d if d else 0.0
    return get


def _module(short: str) -> Getter:
    return lambda t, c: t.module_self_s(short)


_lift_calls = _calls("constellations.Dissolver.lift")
_lifts_built = _count("constellations.lifts_built")
_attempts = _calls("constellations.is_constellation")
_certs = _calls("extension.dissolving_certificate")

# name -> getter; units are in BENCHMARK.json
LAYER_METRICS: Dict[str, Getter] = {
    "groups.elements_enumerated": _count("groups.elements_enumerated"),
    "groups.order_s": _self("groups.FinGroup._enumerate", "groups.FinGroup.order"),
    "groups.mul_ids_calls": _calls("groups.FinGroup.mul_ids"),
    "groups.mul_ids_s": _self("groups.FinGroup.mul_ids"),
    "groups.canonical_morphism_s":
        _self("groups.FinGroup.canonical_morphism_to", "groups.canonical_morphism"),
    "cayley.components_calls": _calls("cayley.components"),
    "cayley.components_s": _self("cayley.components"),
    "cayley.path_span_calls": _calls("cayley.path_span"),
    "cayley.path_span_s": _self("cayley.path_span"),
    "cayley.borders_s": _self("cayley.borders"),
    "constellations.scanned":
        lambda t, c: t.items("constellations.enumerate_constellations"),
    "constellations.enumerate_s":
        lambda t, c: t.total_s("constellations.enumerate_constellations"),
    "constellations.counterexamples": _count("constellations.counterexamples"),
    "constellations.lift_calls": _lift_calls,
    "constellations.lifts_built": _lifts_built,
    "constellations.lift_hit_ratio":
        _ratio(lambda t, c: _lift_calls(t, c) - _lifts_built(t, c), _lift_calls),
    "constellations.lift_s": _self("constellations.Dissolver.lift"),
    "constellations.sample_attempts": _attempts,
    "constellations.sample_accept_ratio":
        _ratio(lambda t, c: t.items("constellations.sample_constellations"), _attempts),
    "constellations.sample_s":
        lambda t, c: t.total_s("constellations.sample_constellations"),
    "rewriting.nielsen_basis_calls": _calls("rewriting.nielsen_basis"),
    "rewriting.nielsen_basis_s": _self("rewriting.nielsen_basis"),
    "rewriting.rewrite_s": _self("rewriting.rewrite"),
    "rewriting.spanning_tree_s": _self("rewriting.spanning_tree_avoiding"),
    "extension.certificates": _certs,
    "extension.certificates_ok":
        lambda t, c: _certs(t, c) - t.raised("extension.dissolving_certificate"),
    "extension.certificate_s": _self("extension.dissolving_certificate"),
    "extension.ext_mul_calls": _calls("extension.ExtContext.mul"),
    "tower.mul_calls": _calls("tower.Tower.mul"),
    "tower.mul_s": _self("tower.Tower.mul"),
    "tower.levels_walked": _count("levels_walked"),
    "tower.overflows": _count("overflows"),
    "tower.encode_cache_entries": _count("encode_cache_entries"),
    "rational.saturate_calls": _calls("rational.ProductAutomaton.saturate"),
    "rational.saturate_s": _self("rational.ProductAutomaton.saturate"),
    "rational.eps_edges": _count("rational.eps_edges"),
    "rational.factorize_s": _self("rational.ProductAutomaton.factorize"),
    "stallings.fold_s": _self("stallings.fold"),
    "stallings.core_s": _self("stallings.core"),
    "stallings.core_vertices": _count("stallings.core_vertices"),
    "words.reduce_word_calls": _calls("words.reduce_word"),
    "cli.main_s": _self("cli.main"),
    "cli.report_bytes": _count("report_bytes"),
}
LAYER_METRICS.update(("%s.self_s" % m, _module(m)) for m in MODULES if m != "words")
LAYER_METRICS["trace.spans"] = lambda t, c: len(t.spans) + t.dropped

# traced over untraced wall time, computed by the run
OVERHEAD = "trace.overhead_ratio"


def layer_values(tracer: Tracer, counts: Dict[str, int]) -> Dict[str, float]:
    return {name: float(get(tracer, counts)) for name, get in LAYER_METRICS.items()}
