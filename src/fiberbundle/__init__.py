"""Fiber bundle strength toolkit.

Monotone load-sharing rules from absorbing Markov chains, Phase I/II failure
cascades and chain-of-bundles sampling, exact state (Gibbs) measures for small
bundles, gamma-mixture threshold densities, and censored strength statistics.
"""

__version__ = "0.1.0"

from .distributions import StrengthModel, unit_exponential
from .loadshare import (
    AbsorbingRule,
    ComponentGraph,
    Configuration,
    EqualRule,
    LoadShareVector,
    NonMonotoneRuleError,
    TransitionMatrix,
    UnitRule,
    absorbing_load_share,
    absorption_probabilities,
    build_grid_graph,
    complete_graph_transition,
    equal_load_share,
    share_table,
    transition_matrix,
    verify_monotone,
)
from .cascade import (
    BreakingPattern,
    CascadeResult,
    ChainSpec,
    ComponentStrengths,
    PatternCycle,
    StructureFunction,
    chain_strength,
    cycles_to_failure,
    cycles_to_failure_samples,
    enumerate_patterns,
    format_pattern,
    parse_pattern,
    replay_pattern,
    sample_bundle_strengths,
    simulate_cascade,
)
