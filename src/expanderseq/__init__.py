"""Deterministic incremental expander multigraphs.

Grows an infinite sequence of d-regular expander multigraphs one vertex at a
time by interpolating between successive doubled 2-lifts, verifies the
construction's combinatorial and spectral properties at desk scale, and
simulates the matching self-healing overlay protocol in a synchronous
message-passing network.
"""

from .names import VertexName, format_name, parse_name, strip_identity
from .multigraph import (
    WeightedMultigraph,
    adjacency_matrix,
    edge_key,
    expansion_cost,
    graph_from_text,
    graph_to_text,
    graphs_equal,
    weighted_degree,
)
from .lifts import (
    SigningSearchError,
    SpectralReport,
    default_lambda_budget,
    find_good_signing,
    next_bl_expander,
    spectral_report,
    two_lift,
)
from .grower import (
    ChangeLog,
    ConstructionError,
    CycleComplete,
    GrowthState,
    begin_cycle,
    bl_expander,
    changelog_at,
    finalize_cycle,
    graph_at,
    initial_graph,
    split_next,
    state_at,
)
from .analysis import (
    CheegerResult,
    CutDecomposition,
    ExpansionReport,
    cheeger_check,
    cut_decomposition,
    edge_expansion_exact,
    expansion_of_set,
    future_cut_floor,
    future_cut_suite,
    half_lemma_check,
    mixing_check,
    mixing_suite,
    rayleigh_lower_bound_check,
)
from .selfheal import (
    AdversaryEvent,
    DeleteEvent,
    InsertEvent,
    Message,
    NodeState,
    ProtocolError,
    ScriptError,
    SimNetwork,
    SimReport,
    parse_script,
    report_to_json,
    run_script,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
