"""Fiber bundle strength toolkit.

Monotone load-sharing rules from absorbing Markov chains, Phase I/II failure
cascades and chain-of-bundles sampling, exact state (Gibbs) measures for small
bundles, gamma-mixture threshold densities, and censored strength statistics.

Submodules and the names below are imported on first access (PEP 562), so
``import fiberbundle`` alone loads none of them and a command-line run loads
only the modules its command uses.
"""

import importlib

__version__ = "0.1.0"

# the re-exported names and the submodule each comes from
_EXPORTS = {
    **dict.fromkeys(("StrengthModel", "unit_exponential"), "distributions"),
    **dict.fromkeys((
        "AbsorbingRule",
        "ComponentGraph",
        "Configuration",
        "EqualRule",
        "NonMonotoneRuleError",
        "TransitionMatrix",
        "UnitRule",
        "absorption_probabilities",
        "build_grid_graph",
        "complete_graph_transition",
        "share_table",
        "transition_matrix",
        "verify_monotone",
    ), "loadshare"),
    **dict.fromkeys((
        "BreakingPattern",
        "CascadeResult",
        "PatternCycle",
        "StructureFunction",
        "chain_strength",
        "cycles_to_failure",
        "cycles_to_failure_samples",
        "enumerate_patterns",
        "format_pattern",
        "parse_pattern",
        "replay_pattern",
        "sample_bundle_strengths",
        "simulate_cascade",
    ), "cascade"),
}
_SUBMODULES = ("cascade", "cli", "csvtext", "distributions", "gibbs", "loadshare", "stats",
               "threshold")

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
