"""Fast paths against slow paths on generated inputs.

The vectorized cascade kernel against the scalar cascade (whose pattern
``replay_pattern`` must accept), and the scalar cycle count against the
sampler's, on strengths that sit on the rounding boundaries where a second,
separately written decision would disagree.  The kernel also against the
max-min identity, and the works table against ``works``, on the fixed
bundles and on random rules over random partitions into paths.  Then the invariants every rule
and writer keeps: share rows that conserve the load, CSV text that is
``repr`` byte for byte, and a share error that names the mask it came from.
Hypothesis runs derandomized and keeps no example database, so the suite
stays reproducible.
"""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fiberbundle import cascade, csvtext
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
    Configuration,
    EqualRule,
    InvalidShareError,
    TransitionMatrix,
    UnitRule,
    build_grid_graph,
    share_rows,
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
    "unit-3": (UnitRule(3), StructureFunction.parallel(3)),
    "unit-2x3": (UnitRule(6), StructureFunction.column_paths(2, 3)),
}


@functools.cache
def fixed_bundle(name):
    """(rule, structure, share table) of a named bundle, the table built once."""
    rule, structure = BUNDLES[name]
    return rule, structure, share_table(rule, structure.n)


@st.composite
def path_structures(draw, n):
    """A random partition of the n components into paths, in random order."""
    paths: dict = {}
    for i, label in enumerate(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))):
        paths[label] = paths.get(label, 0) | 1 << i
    return StructureFunction(n, draw(st.permutations(list(paths.values()))))


@st.composite
def random_bundles(draw):
    """(rule, structure, share table) on n <= 9 components: an absorbing rule
    on a random connected graph, the equal rule or the unit rule, power-scaled
    or not, and a random partition of the components into paths."""
    if draw(st.booleans()):
        p = draw(connected_chains())
        n, rule = p.n, AbsorbingRule(p)
    else:
        n = draw(st.integers(1, 9))
        rule = draw(st.sampled_from([EqualRule, UnitRule]))(n)
    if draw(st.booleans()):
        scales = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
        rule = PowerScaledRule(rule, scales, draw(st.floats(0.25, 4.0)))
    return rule, draw(path_structures(n)), share_table(rule, n)


BUNDLE_DRAWS = st.one_of(st.sampled_from(sorted(BUNDLES)).map(fixed_bundle), random_bundles())


def step(v, ulps):
    """``v`` moved by ``ulps`` units in the last place, up or down."""
    for _ in range(abs(ulps)):
        v = np.nextafter(v, np.inf if ulps > 0 else -np.inf)
    return v


# powers of two that scale strengths into the subnormals or up to the
# largest finite floats, where the sampler's overflow check begins
SCALES = st.sampled_from([0, 0, 0, 0, -1074, -1064, -1040, -1022, 1000, 1016, 1021])


@st.composite
def boundary_strengths(draw, table, scales=st.just(0)):
    """n strengths >= 0 with ties and zeros, scaled by 2 to a power drawn from
    ``scales``, some of them moved onto (or an ulp or two beside) a share
    times another component's Phase-I stress: the product against which the
    cascade decides whether a burst goes on."""
    n = table.shape[1]
    full = (1 << n) - 1
    value = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), st.floats(0.0, 4.0))
    x = np.ldexp(draw(st.lists(value, min_size=n, max_size=n)), draw(scales))
    for _ in range(draw(st.integers(0, n))):
        j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        # k fails first at the full set, j is asked at the set without k,
        # or either at any other working set
        at_k = draw(st.one_of(st.just(full), st.integers(1, full))) | 1 << k
        at_j = draw(st.one_of(st.just(full & ~(1 << k)), st.integers(1, full))) | 1 << j
        with np.errstate(over="ignore"):  # past the largest float the stress is inf
            stress = x[k] / table[at_k, k]
            near = step(table[at_j, j] * stress, draw(st.integers(-2, 2)))
        x[j] = min(max(near, 0.0), np.finfo(float).max)  # finite, as the sampler's draws
    return x


@st.composite
def burst_ties(draw, bundle, scales=st.just(0)):
    """Boundary strengths with, where their scalar cascade allows, one
    survivor j of a non-terminal cycle put exactly on its burst bound
    x_j = share_j * s at the set the cycle left, for a product that
    x_j / share_j does not round back to s.  The burst test fails j in that
    cycle at stress s; a kernel that missed the tie would fail j by its
    Phase-I ratio in a new cycle, at another stress."""
    rule, structure, table = bundle
    x = draw(boundary_strengths(table, scales))
    res = simulate_cascade(x, rule, structure)
    ties = []
    for s, left in zip(res.phase1_stresses[:-1], res.survivor_sets[1:-1]):
        share = table[sum(1 << i for i in left)]
        ties += [(j, share[j] * s) for j in sorted(left) if share[j] * s / share[j] != s]
    if ties:
        j, x[j] = draw(st.sampled_from(ties))
    return x


@PROPERTY
@given(data=st.data(), bundle=BUNDLE_DRAWS)
def test_kernel_equals_scalar_cascade_and_replay_accepts_its_pattern(data, bundle):
    rule, structure, table = bundle
    x = data.draw(burst_ties(bundle, SCALES))
    res = simulate_cascade(x, rule, structure)
    fast = cascade._cascade_strengths_block(x[None, :], table, structure)
    assert fast.tobytes() == np.float64(res.strength).tobytes()
    assert replay_pattern(res.pattern, x, rule, structure)


@PROPERTY
@given(data=st.data(), bundle=BUNDLE_DRAWS)
def test_strength_is_the_max_over_working_sets_of_the_least_load_ratio(data, bundle):
    # S = max over working sets A that hold a path of min over i in A of x_i / share_i(A)
    rule, structure, table = bundle
    x = data.draw(burst_ties(bundle))
    n = structure.n
    alive = [a for a in range(1, 1 << n) if structure.works(Configuration.from_mask(n, a).working)]
    member = (np.array(alive)[:, None] >> np.arange(n) & 1).astype(bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = np.where(member, x / table[alive], np.inf).min(axis=1).max()
    fast = cascade._cascade_strengths_block(x[None, :], table, structure)[0]
    assert abs(fast - want) <= 1e-12 * want


def fixed_structures(test):
    """Run ``test`` on every parallel and column-paths structure of n <= 12
    components, as explicit examples, before the generated ones."""
    shapes = [(r, c) for r in range(1, 13) for c in range(1, 13) if r * c <= 12]
    for structure in ([StructureFunction.parallel(n) for n in range(1, 13)]
                      + [StructureFunction.column_paths(r, c) for r, c in shapes]):
        test = example(structure=structure)(test)
    return test


@settings(PROPERTY, max_examples=100)
@fixed_structures
@given(structure=st.integers(1, 9).flatmap(path_structures))
def test_works_table_equals_works_on_every_mask(structure):
    table = cascade._works_table(structure)
    assert table.dtype == bool and table.shape == (1 << structure.n,)
    want = [structure.works(Configuration.from_mask(structure.n, m).working)
            for m in range(1 << structure.n)]
    assert table.tolist() == want, structure


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


@st.composite
def connected_chains(draw):
    """A random connected graph on 2-8 nodes, a spanning tree plus extra
    edges, as its one-step chain p[i, j] = 1/degree(i)."""
    n = draw(st.integers(2, 8))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(i, j) for j in range(n) for i in range(j)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    adj = np.zeros((n, n))
    for i, j in edges:
        adj[i, j] = adj[j, i] = 1.0
    return TransitionMatrix(adj / adj.sum(axis=1, keepdims=True))


@PROPERTY
@given(data=st.data(), absorbing=st.booleans())
def test_share_rows_carry_the_whole_load(data, absorbing):
    # n components carry load n, however many have failed
    if absorbing:
        p = data.draw(connected_chains())
        n, rule = p.n, AbsorbingRule(p)
    else:
        n = data.draw(st.integers(1, 12))
        rule = EqualRule(n)
    masks = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=16))
    rows = share_rows(rule, n, masks)
    assert np.all(np.abs(rows.sum(axis=1) - n) <= 1e-12 * n)


SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                  2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308]


@PROPERTY
@given(bits=st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=64),
       specials=st.lists(st.sampled_from(SPECIAL_FLOATS), max_size=8),
       ints=st.lists(st.integers(-(1 << 63), (1 << 63) - 1), min_size=72, max_size=72))
def test_csv_rows_are_repr_byte_for_byte(bits, specials, ints):
    # any bit pattern: subnormals, both zeros, both infinities, NaN payloads
    floats = np.concatenate([np.array(bits, dtype=np.uint64).view(np.float64), specials])
    whole = np.array(ints[:floats.size], dtype=np.int64)
    want = "".join(f"{float(x)!r},{int(k)}\n" for x, k in zip(floats, whole))
    assert csvtext._csv_rows([floats, whole]) == want.encode()


@st.composite
def batch_rules(draw):
    """(rule, n): the equal or unit rule on 1-9 or 70 components, or an
    absorbing rule on a random connected graph, power-scaled or not."""
    if draw(st.booleans()):
        p = draw(connected_chains())
        n, rule = p.n, AbsorbingRule(p)
    else:
        n = draw(st.one_of(st.integers(1, 9), st.just(70)))
        rule = draw(st.sampled_from([EqualRule, UnitRule]))(n)
    if draw(st.booleans()):
        scales = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
        rule = PowerScaledRule(rule, scales, draw(st.floats(0.25, 4.0)))
    return rule, n


@PROPERTY
@given(data=st.data(), bundle=batch_rules())
def test_a_batch_of_working_sets_gives_its_rows(data, bundle):
    # one call on k working sets gives the bytes of k one-set calls, whatever
    # the other sets of the batch
    rule, n = bundle
    masks = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=12))
    member = np.array([[m >> i & 1 == 1 for i in range(n)] for m in masks])
    rows = rule(member)
    assert rows.shape == member.shape and rows.dtype == np.float64
    one_by_one = np.concatenate([rule(member[r:r + 1]) for r in range(len(member))])
    assert rows.tobytes() == one_by_one.tobytes()


def _put(rows, r, i, value):
    rows[r, i] = value
    return rows


# each takes the rows, the bad row's index r, a member and a failed component
# of its working set, and returns bad rows
DEFECTS = {
    "zero": lambda rows, r, member, failed: _put(rows, r, member, 0.0),
    "nan": lambda rows, r, member, failed: _put(rows, r, member, math.nan),
    "inf": lambda rows, r, member, failed: _put(rows, r, member, math.inf),
    "negative": lambda rows, r, member, failed: _put(rows, r, member, -rows[r, member]),
    "failed-share": lambda rows, r, member, failed: _put(rows, r, failed, 1.0),
    "short": lambda rows, r, member, failed: rows[:, :-1],
    "long": lambda rows, r, member, failed: np.insert(rows, rows.shape[1], 0.0, axis=1),
}


@PROPERTY
@given(data=st.data(), defect=st.sampled_from(sorted(DEFECTS)), n=st.integers(2, 7))
def test_share_error_names_the_corrupted_mask(data, defect, n):
    full = (1 << n) - 1
    bad = data.draw(st.integers(1, full - 1 if defect == "failed-share" else full))
    working = [i for i in range(n) if bad >> i & 1]
    member = data.draw(st.sampled_from(working))
    failed = data.draw(st.sampled_from([i for i in range(n) if not bad >> i & 1] or [member]))
    equal = EqualRule(n)

    def rule(members):
        at = np.flatnonzero(members @ (1 << np.arange(n)) == bad)
        return DEFECTS[defect](equal(members), at, member, failed) if at.size else equal(members)

    others = data.draw(st.lists(st.integers(0, full).filter(lambda m: m != bad), max_size=8))
    at = data.draw(st.integers(0, len(others)))
    with pytest.raises(ValueError) as exc:
        share_rows(rule, n, [*others[:at], bad, *others[at:]])
    if defect in ("short", "long"):
        # the one batch holds every nonempty mask
        shape = (1 + sum(1 for m in others if m), n - 1 if defect == "short" else n + 1)
        assert type(exc.value) is ValueError and f"shares of shape {shape}" in str(exc.value)
    else:
        assert f"at working set {working};" in str(exc.value)
        assert type(exc.value) is InvalidShareError and exc.value.mask == bad
