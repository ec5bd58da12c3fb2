"""Finite-quotient geometry of subgroup graphs: folding, Cayley
subgraphs, constellations and their dissolution in universal extensions,
iterated extension towers, and a rational-subset product oracle."""

from .words import (
    DEFAULT_ALPHABET,
    Word,
    concat,
    invert_word,
    is_reduced,
    parse_word,
    random_reduced_word,
    reduced_word_sampler,
    reduce_word,
    word_str,
)
from .groups import (
    DEFAULT_ENUM_BUDGET,
    EnumerationBudgetError,
    FinGroup,
    builtin,
    BUILTIN_NAMES,
    canonical_morphism,
    group_from_json,
    subdirect,
)
from .stallings import (
    LabeledGraph,
    bouquet,
    complete_arbitrary,
    core,
    fold,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    is_complete,
    is_connected,
    is_folded,
    member,
    read_word,
    schreier,
    stallings_graph,
    transition_group,
)
from .cayley import (
    CayleySubgraph,
    borders,
    cayley_graph,
    component_of,
    components,
    connected_without_two_edges,
    covering_subgraph,
    intersect,
    path_span,
    subgraph_to_dot,
    translate,
    union,
)
from .rewriting import (
    BasisWord,
    SpanningTree,
    exponent_sums,
    expand,
    graph_subgroup_basis,
    nielsen_basis,
    rewrite,
    spanning_tree_avoiding,
)
from .constellations import (
    Constellation,
    DissolveVerdict,
    Dissolver,
    dissolves,
    dissolves_all,
    enumerate_constellations,
    is_constellation,
    sample_constellations,
)
from .extension import (
    Certificate,
    CertificateError,
    ExtContext,
    ExtElement,
    SEqualResult,
    certificate_to_json,
    dissolving_certificate,
    ext_evaluate,
    ext_order,
    extension_group,
    free_object_pair_check,
    s_equal,
)
from .tower import (
    Tower,
    TowerSpec,
    project,
    rz_experiment,
    tower_equal,
    tower_evaluate,
    tower_spec_from_json,
    treelike_campaign,
)
from .rational import ProductAutomaton, member_product, product_automaton

__version__ = "0.1.0"
