"""The package namespace: names and submodules resolve on first access."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fiberbundle

# every name the package re-exported when it imported its submodules eagerly,
# but LoadShareVector, which went when rules came to return share rows, and
# absorbing_load_share and equal_load_share, which went when rules came to map
# batches of working sets
_EXPORTED = {
    "distributions": ["StrengthModel", "unit_exponential"],
    "loadshare": [
        "AbsorbingRule", "ComponentGraph", "Configuration", "EqualRule",
        "NonMonotoneRuleError", "TransitionMatrix", "UnitRule", "absorption_probabilities",
        "build_grid_graph", "complete_graph_transition", "share_table", "transition_matrix",
        "verify_monotone",
    ],
    "cascade": [
        "BreakingPattern", "CascadeResult", "ChainSpec", "ComponentStrengths", "PatternCycle",
        "StructureFunction", "chain_strength", "cycles_to_failure", "cycles_to_failure_samples",
        "enumerate_patterns", "format_pattern", "parse_pattern", "replay_pattern",
        "sample_bundle_strengths", "simulate_cascade",
    ],
}
_SUBMODULES = ["cascade", "cli", "csvtext", "distributions", "gibbs", "loadshare", "stats",
               "threshold"]


@pytest.mark.parametrize("module, name", [(m, n) for m, ns in _EXPORTED.items() for n in ns])
def test_exported_name_is_the_modules_object(module, name):
    owner = importlib.import_module(f"fiberbundle.{module}")
    assert getattr(fiberbundle, name) is getattr(owner, name)
    namespace = {}
    exec(f"from fiberbundle import {name}", namespace)
    assert namespace[name] is getattr(owner, name)


def test_dir_lists_names_and_submodules():
    listed = set(dir(fiberbundle))
    assert {n for ns in _EXPORTED.values() for n in ns} <= listed
    assert set(_SUBMODULES) <= listed
    assert "__version__" in listed


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fiberbundle.no_such_name


def test_bare_import_loads_no_submodule_and_resolves_them_on_access():
    code = (
        "import sys, fiberbundle\n"
        "assert not [k for k in sys.modules if k.startswith('fiberbundle.')], sys.modules\n"
        "assert fiberbundle.cascade is sys.modules['fiberbundle.cascade']\n"
        "assert fiberbundle.EqualRule is sys.modules['fiberbundle.loadshare'].EqualRule\n"
    )
    src = str(Path(fiberbundle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
