"""Exact combinatorics of interior and exterior polynomials.

The package computes the interior polynomial I(x) and exterior polynomial
X(y) of connected bipartite graphs (equivalently, hypergraphs), enumerates
their hypertrees with independent cross-checking oracles, generates named
graph families with closed-form polynomials, applies the surgeries behind
the deletion/contraction recursions, and ships an executable check suite
that re-proves the supported identities on a desk-scale corpus.
"""

from .errors import (
    CapacityError,
    ClosedFormUnavailable,
    DisconnectedGraphError,
    GraphError,
)
from .graph import (
    BipGraph,
    Hypergraph,
    abstract_dual,
    build_bipartite,
    component_count,
    from_hypergraph,
    graph_from_json,
    graph_to_json,
    mu_table,
    normalize_edge_order,
    nullity,
    subgraph_components,
)
from .hypertrees import (
    HypertreeSet,
    enumerate_hypertrees,
    find_realizing_tree,
    greedy_exterior_hypertree,
    hypertrees_by_brute_force,
    is_hypertree_by_polymatroid,
    is_hypertree_by_tree_search,
    transfer,
)
from .activity import external_active_flags, internal_active_flags
from .poly import (
    IntPoly,
    IntPoly2,
    MultiGraph,
    exterior_from_tutte,
    exterior_polynomial,
    interior_from_tutte,
    interior_polynomial,
    is_interpolating,
    subdivision,
    tutte_polynomial,
)
from .families import FamilySpec
from .transforms import DecompositionTerm, balanced_decomposition
from .verify import CheckReport, default_corpus, replay_counterexample, run_all_checks
from . import families, transforms, verify

__version__ = "0.1.0"
