"""Graph products of groups: piling normal form, alternating random walks,
and effective drift lower bounds."""

from .drift import (
    DriftBound,
    PivotIncrementDistribution,
    SmallCliquesError,
    chernoff_tail_bound,
    drift_lower_bound,
)
from .experiments import (
    CheckReport,
    DriftEstimate,
    SweepRow,
    TrialBatch,
    TrialMetrics,
    check_domination,
    check_pivot_step_probability,
    check_lower_tail,
    derive_seed,
    estimate_drift,
    log_spaced_ints,
    run_batch,
    sweep_cycles,
)
from .graphs import (
    Graph,
    GraphStats,
    complete_graph,
    complete_stats,
    cycle_graph,
    cycle_stats,
    edgeless_graph,
    edgeless_stats,
    graph_stats,
    make_graph,
    maximal_cliques,
    parse_graph,
)
from .groups import CyclicGroup, IntegerGroup, VertexGroup, groups_from_spec, uniform_groups
from .piling import (
    CorruptPilingError,
    Piling,
    append,
    concat,
    empty_piling,
    from_strings,
    init,
    invert,
    is_prefix,
    linearize,
    piling_of_word,
    render,
    term,
    validate,
)
from .walk import (
    FixedWord,
    ParetoLetter,
    WalkTrace,
    WordChoice,
    is_local_geodesic,
    pivot_replace,
    pivotal_times_bruteforce,
    run_walk,
    sample_mu,
    strong_choice_vertices,
    walk_record,
)

__version__ = "0.1.0"
