"""Fast paths against slow paths on generated inputs.

The vectorized cascade kernel against the scalar cascade (whose pattern
``replay_pattern`` must accept), and the scalar cycle count against the
sampler's, on strengths that sit on the rounding boundaries where a second,
separately written decision would disagree.  Hypothesis runs derandomized and
keeps no example database, so the suite stays reproducible.
"""

import functools
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from fiberbundle import cascade
from fiberbundle.cascade import (
    PowerScaledRule,
    StructureFunction,
    cycles_to_failure,
    cycles_to_failure_samples,
    replay_pattern,
    simulate_cascade,
)
from fiberbundle.distributions import unit_exponential
from fiberbundle.loadshare import (
    AbsorbingRule,
    EqualRule,
    build_grid_graph,
    share_table,
    transition_matrix,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def grid_rule(rows, cols):
    return AbsorbingRule(transition_matrix(build_grid_graph(rows, cols)))


GRID33 = grid_rule(3, 3)
BUNDLES = {
    "equal-3": (EqualRule(3), StructureFunction.parallel(3)),
    "equal-5": (EqualRule(5), StructureFunction.parallel(5)),
    "absorbing-2x2": (grid_rule(2, 2), StructureFunction.column_paths(2, 2)),
    "absorbing-2x3": (grid_rule(2, 3), StructureFunction.column_paths(2, 3)),
    "absorbing-3x3": (GRID33, StructureFunction.column_paths(3, 3)),
    "absorbing-3x3-parallel": (GRID33, StructureFunction.parallel(9)),
    "power-scaled-2x3": (PowerScaledRule(grid_rule(2, 3), [1.0, 1.5, 0.8, 1.2, 1.0, 0.9], 2.5),
                         StructureFunction.column_paths(2, 3)),
    "power-scaled-equal-3": (PowerScaledRule(EqualRule(3), [0.7, 1.0, 1.3], 0.5),
                             StructureFunction.parallel(3)),
}


@functools.cache
def table_of(name):
    rule, structure = BUNDLES[name]
    return share_table(rule, structure.n)


def step(v, ulps):
    """``v`` moved by ``ulps`` units in the last place, up or down."""
    for _ in range(abs(ulps)):
        v = np.nextafter(v, np.inf if ulps > 0 else -np.inf)
    return v


@st.composite
def boundary_strengths(draw, table):
    """n strengths >= 0 with ties and zeros, some of them moved onto (or an ulp
    or two beside) a share times another component's Phase-I stress: the
    product against which the cascade decides whether a burst goes on."""
    n = table.shape[1]
    full = (1 << n) - 1
    value = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), st.floats(0.0, 4.0))
    x = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    for _ in range(draw(st.integers(0, n))):
        j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        # k fails first at the full set, j is asked at the set without k,
        # or either at any other working set
        at_k = draw(st.one_of(st.just(full), st.integers(1, full))) | 1 << k
        at_j = draw(st.one_of(st.just(full & ~(1 << k)), st.integers(1, full))) | 1 << j
        stress = x[k] / table[at_k, k]
        x[j] = max(step(table[at_j, j] * stress, draw(st.integers(-2, 2))), 0.0)
    return x


@PROPERTY
@given(data=st.data(), name=st.sampled_from(sorted(BUNDLES)))
def test_kernel_equals_scalar_cascade_and_replay_accepts_its_pattern(data, name):
    rule, structure = BUNDLES[name]
    table = table_of(name)
    x = data.draw(boundary_strengths(table))
    res = simulate_cascade(x, rule, structure)
    fast = cascade._cascade_strengths_block(x[None, :], table, structure)
    assert fast.tobytes() == np.float64(res.strength).tobytes()
    assert replay_pattern(res.pattern, x, rule, structure)


@settings(PROPERTY, max_examples=100)
@given(s_star=st.floats(1e-3, 1e3), a=st.floats(0.05, 0.999))
def test_cycle_count_is_the_samplers_at_every_boundary(s_star, a):
    # S = s_star / a**j, a few ulps either side, for j = 0..29
    strengths = np.array([step(s_star / a ** j, ulps) for j in range(30) for ulps in range(-3, 4)])
    rule, structure = EqualRule(1), StructureFunction.parallel(1)
    scalar = [cycles_to_failure([s], rule, structure, s_star, a) for s in strengths]
    with mock.patch.object(cascade, "sample_bundle_strengths", return_value=strengths.copy()):
        sampled = cycles_to_failure_samples(unit_exponential(), rule, structure, s_star, a,
                                            replicas=strengths.size)
    assert scalar == sampled.tolist()
    # and the count is the first k with a**(k-1) * S <= s_star
    ks = np.arange(1, 40)
    below = a ** (ks - 1) * strengths[:, None] <= s_star
    assert np.array_equal(sampled, ks[below.argmax(axis=1)])
