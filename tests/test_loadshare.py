"""Grid graphs, transition matrices, absorption solves, and rule properties."""

import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from fiberbundle import cascade
from fiberbundle import gibbs
from fiberbundle import loadshare
from fiberbundle import threshold
from fiberbundle.distributions import unit_exponential
from fiberbundle.loadshare import (
    AbsorbingRule,
    Configuration,
    EqualRule,
    InvalidShareError,
    MonotoneCheck,
    NonMonotoneRuleError,
    SingularAbsorptionError,
    TransitionMatrix,
    UnitRule,
    absorption_probabilities,
    build_grid_graph,
    complete_graph_transition,
    share_rows,
    share_table,
    transition_matrix,
    verify_monotone,
)


def grid_rule(rows, cols):
    return AbsorbingRule(transition_matrix(build_grid_graph(rows, cols)))


def members(n, working):
    """The length-n membership row of a working set."""
    return np.array([i in working for i in range(n)])


def bits(n, mask):
    """The length-n membership row of a working-set mask."""
    return np.array([mask >> i & 1 == 1 for i in range(n)])


def masks_of(member):
    """The working-set mask of each row of a membership array."""
    return np.array([sum(1 << int(i) for i in np.flatnonzero(row)) for row in member])


def size_rule(member):
    """Non-monotone: every survivor's share is the size of the working set."""
    return np.where(member, member.sum(axis=1, keepdims=True), 0.0)


def with_share(i, value):
    """A defect: component i's share replaced by ``value`` in the rows ``at``."""
    def defect(rows, at):
        rows = rows.copy()
        rows[at, i] = value
        return rows

    return defect


def with_extra_share(key):
    """A defect: one more share in every row of a batch that has a row ``at``,
    for a component ``key`` outside 0..n-1 (before component 0 when
    negative, after the last one otherwise)."""
    return lambda rows, at: (np.insert(rows, 0 if key < 0 else rows.shape[1], 0.0, axis=1)
                             if at.any() else rows)


# each breaks the rule-output contract for one component at working set {0, 2};
# extra-key gives the failed component 1 a share, missing-key leaves member 0's
# share out, at the row's 0.0
DEFECTS = [
    pytest.param(with_share(0, 0.0), 0, id="zero"),
    pytest.param(with_share(2, math.nan), 2, id="nan"),
    pytest.param(with_share(1, 1.5), 1, id="extra-key"),
    pytest.param(with_share(0, 0.0), 0, id="missing-key"),
    pytest.param(with_share(2, math.inf), 2, id="inf"),
    pytest.param(with_share(0, -1.0), 0, id="negative"),
]


def defective_rule(defect):
    """The equal rule on 3 components with ``defect`` applied at {0, 2}."""
    def rule(member):
        return defect(EqualRule(3)(member), masks_of(member) == 0b101)

    return rule


class TestGridGraph:
    def test_interior_node_has_six_neighbors(self):
        g = build_grid_graph(4, 4)
        expected = {g.node_index(r, c) for r, c in [(1, 0), (1, 2), (0, 0), (0, 2), (2, 0), (2, 2)]}
        assert set(g.neighbors(g.node_index(1, 1))) == expected

    def test_one_row_grid_is_a_path(self):
        g = build_grid_graph(1, 3)
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_two_by_two_corners(self):
        g = build_grid_graph(2, 2)
        assert all(len(nbrs) == 2 for nbrs in g.adjacency)
        assert set(g.neighbors(g.node_index(0, 0))) == {g.node_index(0, 1), g.node_index(1, 1)}

    def test_no_vertical_adjacency(self):
        g = build_grid_graph(3, 3)
        for r in range(2):
            for c in range(3):
                assert g.node_index(r + 1, c) not in g.neighbors(g.node_index(r, c))

    def test_adjacency_symmetric(self):
        g = build_grid_graph(3, 4)
        for i, nbrs in enumerate(g.adjacency):
            for j in nbrs:
                assert i in g.adjacency[j]

    @pytest.mark.parametrize("rows,cols", [(0, 3), (1, 1), (2, 0), (-1, 2)])
    def test_degenerate_grids_rejected(self, rows, cols):
        with pytest.raises(ValueError):
            build_grid_graph(rows, cols)


class TestTransitionMatrix:
    def test_one_row_values(self):
        tm = transition_matrix(build_grid_graph(1, 3))
        assert tm.p[1, 0] == tm.p[1, 2] == 0.5
        assert tm.p[0, 1] == 1.0 and tm.p[2, 1] == 1.0

    def test_two_by_two_all_halves(self):
        tm = transition_matrix(build_grid_graph(2, 2))
        assert set(np.unique(tm.p)) == {0.0, 0.5}

    def test_interior_row_six_sixths(self):
        g = build_grid_graph(4, 4)
        tm = transition_matrix(g)
        row = tm.p[g.node_index(1, 1)]
        assert np.count_nonzero(row) == 6
        assert np.allclose(row[row > 0], 1 / 6)

    def test_rows_sum_to_one(self):
        tm = transition_matrix(build_grid_graph(3, 5))
        assert np.all(np.abs(tm.p.sum(axis=1) - 1.0) <= 1e-12)

    def test_invalid_matrices_rejected(self):
        from fiberbundle.loadshare import TransitionMatrix

        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[0.5, 0.5], [1.0, 0.1]]))
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[0.5, 0.5], [0.0, 1.0]]))  # self-loop


class TestAbsorption:
    def test_one_row_single_failure(self):
        tm = transition_matrix(build_grid_graph(1, 3))
        res = absorption_probabilities(tm, members(3, {0, 2}))
        assert res.failed == (1,) and res.working == (0, 2)
        assert np.allclose(res.u, [[0.5, 0.5]])

    def test_single_absorbing_state(self):
        tm = transition_matrix(build_grid_graph(1, 3))
        res = absorption_probabilities(tm, members(3, {0}))
        assert np.allclose(res.u, 1.0)

    def test_two_by_two_corner(self):
        g = build_grid_graph(2, 2)
        tm = transition_matrix(g)
        working = frozenset(range(4)) - {g.node_index(0, 0)}
        res = absorption_probabilities(tm, members(4, working))
        assert res.prob(g.node_index(0, 0), g.node_index(0, 1)) == pytest.approx(0.5)
        assert res.prob(g.node_index(0, 0), g.node_index(1, 1)) == pytest.approx(0.5)
        assert res.prob(g.node_index(0, 0), g.node_index(1, 0)) == pytest.approx(0.0)

    def test_rows_stochastic_random_configs(self):
        tm = transition_matrix(build_grid_graph(3, 3))
        rng = np.random.default_rng(0)
        for _ in range(50):
            mask = int(rng.integers(1, 1 << 9))
            res = absorption_probabilities(tm, bits(9, mask))
            if res.u.size:
                assert np.all(np.abs(res.u.sum(axis=1) - 1.0) <= 1e-9)

    def test_empty_working_set_rejected(self):
        tm = transition_matrix(build_grid_graph(1, 3))
        with pytest.raises(ValueError):
            absorption_probabilities(tm, members(3, ()))
        with pytest.raises(ValueError, match="nonempty"):
            absorption_probabilities(tm, bits(3, 0))

    def test_membership_row_of_another_length_rejected(self):
        tm = transition_matrix(build_grid_graph(1, 3))
        for member in (members(4, {0, 2}), members(2, {0}), members(3, {0, 2})[None]):
            with pytest.raises(ValueError, match="membership row size does not match"):
                absorption_probabilities(tm, member)

    def test_full_working_set_has_no_failed_rows(self):
        tm = transition_matrix(build_grid_graph(2, 3))
        res = absorption_probabilities(tm, members(6, range(6)))
        assert res.failed == () and res.working == tuple(range(6))
        assert res.u.shape == (0, 6)

    def test_disconnected_chain_is_singular(self):
        # two 2-node components: failed nodes 2 and 3 only reach each other
        tm = TransitionMatrix(np.array([[0, 1, 0, 0], [1, 0, 0, 0],
                                        [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float))
        with pytest.raises(SingularAbsorptionError, match=r"working set \(0,\)"):
            absorption_probabilities(tm, members(4, {0}))
        with pytest.raises(SingularAbsorptionError):
            share_table(AbsorbingRule(tm), 4)

    def test_ill_conditioned_rows_report_the_condition_number_alone(self):
        # failed node 1 leaks 1e-9 of its walk to the working node 0: cond(I - Q) is
        # 4e9 and the rows miss 1 by 3e-8; no condition-number limit is enforced
        tm = TransitionMatrix(np.array([[0, 1, 0], [1e-9, 0, 1 - 1e-9], [0, 1, 0]]))
        with pytest.raises(SingularAbsorptionError) as err:
            absorption_probabilities(tm, members(3, {0}))
        msg = str(err.value)
        assert re.fullmatch(r"absorption rows do not sum to 1 \(max dev \S+, cond 4\.\d{3}e\+09\)",
                            msg), msg


class TestAbsorbingLoadShare:
    def test_one_row_split(self):
        tm = transition_matrix(build_grid_graph(1, 3))
        lam = AbsorbingRule(tm)(members(3, {0, 2})[None])[0]
        assert lam[0] == pytest.approx(1.5) and lam[2] == pytest.approx(1.5)

    def test_full_working_set_is_unit(self):
        tm = transition_matrix(build_grid_graph(3, 3))
        lam = AbsorbingRule(tm)(members(9, range(9))[None])
        assert lam.shape == (1, 9) and lam.dtype == np.float64
        assert all(v == pytest.approx(1.0) for v in lam[0])

    def test_two_by_two_corner_failure(self):
        g = build_grid_graph(2, 2)
        tm = transition_matrix(g)
        lam = AbsorbingRule(tm)(members(4, {1, 2, 3})[None])[0]
        assert lam[g.node_index(0, 1)] == pytest.approx(1.5)
        assert lam[g.node_index(1, 1)] == pytest.approx(1.5)
        assert lam[g.node_index(1, 0)] == pytest.approx(1.0)
        assert lam[0] == 0.0 and lam.sum() == pytest.approx(4.0)

    def test_conservation_exhaustive_small_grids(self):
        for rows, cols in [(1, 3), (2, 2), (2, 3)]:
            n = rows * cols
            rule = AbsorbingRule(transition_matrix(build_grid_graph(rows, cols)))
            for mask in range(1, 1 << n):
                lam = rule(bits(n, mask)[None])[0]
                assert lam.sum() == pytest.approx(n, abs=1e-9)

    def test_survivor_share_at_least_one(self):
        rule = grid_rule(2, 3)
        rng = np.random.default_rng(1)
        for _ in range(30):
            member = bits(6, int(rng.integers(1, 1 << 6)))
            lam = rule(member[None])[0]
            assert all(lam[i] >= 1.0 - 1e-12 for i in np.flatnonzero(member))

    def test_mirror_symmetry(self):
        rows, cols = 2, 3
        rule = grid_rule(rows, cols)

        def mirror(i):
            r, c = divmod(i, cols)
            return r * cols + (cols - 1 - c)

        rng = np.random.default_rng(2)
        for _ in range(25):
            mask = int(rng.integers(1, 1 << 6))
            working = frozenset(i for i in range(6) if mask >> i & 1)
            lam = rule(members(6, working)[None])[0]
            lam_m = rule(members(6, set(map(mirror, working)))[None])[0]
            for j in working:
                assert lam[j] == pytest.approx(lam_m[mirror(j)], abs=1e-12)


class TestEqualRule:
    @pytest.mark.parametrize("n,size,expected", [(4, 4, 1.0), (4, 2, 2.0), (3, 1, 3.0)])
    def test_values(self, n, size, expected):
        lam = EqualRule(n)(members(n, range(size))[None])[0]
        assert lam.tolist() == [expected] * size + [0.0] * (n - size)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EqualRule(3)(members(3, ())[None])

    def test_matches_absorbing_on_complete_graph(self):
        for n in range(2, 7):
            rule = AbsorbingRule(complete_graph_transition(n))
            for mask in range(1, 1 << n):
                working = np.flatnonzero(bits(n, mask))
                lam = rule(bits(n, mask)[None])[0]
                expected = n / working.size
                assert all(lam[i] == pytest.approx(expected, abs=1e-9) for i in working)


class TestVerifyMonotone:
    def test_absorbing_rule_monotone_exhaustive(self):
        assert verify_monotone(grid_rule(2, 3), 6) == MonotoneCheck(True, None)

    def test_equal_rule_monotone(self):
        assert verify_monotone(EqualRule(5), 5).ok

    def test_adversarial_rule_caught(self):
        rule = size_rule
        check = verify_monotone(rule, 4)
        assert not check.ok
        a, b, j = check.counterexample
        assert a < b and j in a
        assert len(b - a) == 1
        assert rule(members(4, a)[None])[0, j] < rule(members(4, b)[None])[0, j]

    def test_nonpositive_total_caught(self):
        def rule(member):
            return np.where(member, np.where(masks_of(member) == 0b10, 0.0, 1.0)[:, None], 0.0)

        assert verify_monotone(rule, 3) == MonotoneCheck(False, (frozenset({1}), frozenset({1}), -1))

    @pytest.mark.parametrize("defect,i", DEFECTS)
    def test_invalid_shares_caught(self, defect, i):
        b = frozenset({0, 2})
        assert verify_monotone(defective_rule(defect), 3) == MonotoneCheck(False, (b, b, -1))

    def test_randomized_branch(self):
        check = verify_monotone(EqualRule(14), 14)
        assert check.ok

    def test_exhaustive_beyond_twelve_components(self):
        # one drop at one single removal, which random pairs of nested sets miss
        full = frozenset(range(14))

        def rule(member):
            lam = EqualRule(14)(member)
            lam[masks_of(member) == (1 << 13) - 1, 0] = 0.5
            return lam

        assert verify_monotone(rule, 14) == MonotoneCheck(False, (full - {13}, full, 0))

    def test_bound_checked_before_any_rule_call(self):
        def rule(member):
            raise AssertionError("rule called for a table over the bound")

        with pytest.raises(ValueError, match="bytes"):
            verify_monotone(rule, 21)

    def test_monotonicity_exhaustive_pairs(self):
        # direct lattice sweep, independent of verify_monotone internals
        rule = grid_rule(2, 3)
        shares = dict(zip(range(1, 1 << 6), rule(np.array([bits(6, m) for m in range(1, 1 << 6)]))))
        for bmask in range(1, 1 << 6):
            sub = (bmask - 1) & bmask
            while sub:
                for j in np.flatnonzero(bits(6, sub)):
                    assert shares[bmask][j] <= shares[sub][j] + 1e-12
                sub = (sub - 1) & bmask


class TestShareTable:
    def test_rule_values_inside_zero_outside(self):
        rule = grid_rule(2, 3)
        table = share_table(rule, 6)
        assert table.shape == (64, 6) and table.dtype == np.float64
        assert not table[0].any()
        for mask in range(1, 64):
            lam = rule(bits(6, mask)[None])[0]
            for i in range(6):
                assert table[mask, i] == (lam[i] if mask >> i & 1 else 0.0)

    def test_latest_table_is_reused_for_the_same_rule_only(self):
        rule = EqualRule(4)
        table = share_table(rule, 4)
        assert share_table(rule, 4) is table
        assert not table.flags.writeable
        other = share_table(EqualRule(4), 4)
        assert other is not table and np.array_equal(other, table)

    def test_non_monotone_rule_rejected(self):
        with pytest.raises(NonMonotoneRuleError, match="dropped"):
            share_table(size_rule, 3)
        assert cascade.NonMonotoneRuleError is NonMonotoneRuleError

    def test_counterexample_is_verify_monotones(self):
        full = frozenset(range(14))

        def one_drop(member):
            return with_share(0, 0.5)(EqualRule(14)(member), masks_of(member) == (1 << 13) - 1)

        for rule, n, want in [(size_rule, 4, (frozenset({1}), frozenset({0, 1}), 1)),
                              (one_drop, 14, (full - {13}, full, 0))]:
            with pytest.raises(NonMonotoneRuleError) as exc:
                share_table(rule, n)
            assert exc.value.counterexample == verify_monotone(rule, n).counterexample == want
        # the share walk's: its working set, the previous one, and the member
        with pytest.raises(NonMonotoneRuleError) as exc:
            cascade.simulate_cascade([0.5, 0.9, 1.4], size_rule, cascade.StructureFunction.parallel(3))
        assert exc.value.counterexample == (frozenset({1, 2}), frozenset(range(3)), 1)
        back = pickle.loads(pickle.dumps(exc.value))
        assert str(back) == str(exc.value) and back.counterexample == exc.value.counterexample

    def test_verify_monotone_shares_the_memo(self):
        rule = EqualRule(4)
        assert verify_monotone(rule, 4).ok
        table = share_table(rule, 4)
        calls = []

        def counting(member):
            calls.extend(masks_of(member))
            return rule(member)

        assert verify_monotone(rule, 4).ok and share_table(rule, 4) is table
        assert verify_monotone(counting, 4).ok and len(calls) == 15
        assert verify_monotone(counting, 4).ok and len(calls) == 15

    @pytest.mark.parametrize("defect,i", DEFECTS)
    def test_invalid_shares_rejected(self, defect, i):
        with pytest.raises(ValueError, match=rf"component {i} the share .* at working set \[0, 2\]"):
            share_table(defective_rule(defect), 3)

    @pytest.mark.parametrize("key", [3, -1])
    def test_key_outside_bundle_rejected(self, key):
        # a share for a component before 0 or after n - 1 makes rows of length 4
        rule = defective_rule(with_extra_share(key))
        message = r"shares of shape \(7, 4\) for a membership array of shape \(7, 3\); .* n = 3"
        with pytest.raises(ValueError, match=message) as exc:
            share_table(rule, 3)
        assert type(exc.value) is ValueError
        with pytest.raises(ValueError, match=message):
            verify_monotone(rule, 3)

    def test_table_bound_checked_before_any_work(self):
        # a 2^21 x 21 float64 table would take 352 MB
        def rule(member):
            raise AssertionError("rule called for a table over the bound")

        with pytest.raises(ValueError, match="bytes"):
            share_table(EqualRule(21), 21)
        with pytest.raises(ValueError, match="bytes"):
            share_table(rule, 30)

    def test_build_peak_is_the_table_and_the_monotonicity_check(self):
        # the rows come in batches of 4,096 masks, so no temporary of the
        # build grows with 2^n; the monotonicity check alone peaks at 1.63x
        tracemalloc.start()
        try:
            table = share_table(EqualRule(18), 18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.7 * table.nbytes


class TestTableOracle:
    @pytest.mark.parametrize("rows, cols", [(3, 3), (2, 5)])
    def test_every_mask_matches_the_dense_inverse(self, rows, cols):
        # shares 1 + colsum(inv(I - Q) @ R), built here from the matrix alone
        n = rows * cols
        tm = transition_matrix(build_grid_graph(rows, cols))
        table = share_table(AbsorbingRule(tm), n)
        for mask in range(1, 1 << n):
            member = (mask >> np.arange(n)) & 1 == 1
            failed, working = np.flatnonzero(~member), np.flatnonzero(member)
            q = tm.p[failed][:, failed]
            r = tm.p[failed][:, working]
            want = np.zeros(n)
            want[working] = 1.0 + (np.linalg.inv(np.eye(failed.size) - q) @ r).sum(axis=0)
            np.testing.assert_allclose(table[mask], want, rtol=1e-13, atol=0)

    def test_the_3x4_table_solves_once_per_mask(self, monkeypatch):
        calls = []
        solve = loadshare.absorption_probabilities

        def counting(p, member):
            calls.append(masks_of([member])[0])
            return solve(p, member)

        monkeypatch.setattr(loadshare, "absorption_probabilities", counting)
        share_table(grid_rule(3, 4), 12)
        assert len(calls) == 4095 and sorted(calls) == list(range(1, 4096))


class TestShareRows:
    @pytest.mark.parametrize("rule, n", [
        (grid_rule(3, 4), 12),
        (EqualRule(7), 7),
        (UnitRule(5), 5),
        (cascade.PowerScaledRule(grid_rule(2, 3), [1.0, 1.5, 0.8, 1.2, 1.0, 0.9], 2.5), 6),
    ], ids=["absorbing-3x4", "equal-7", "unit-5", "power-scaled"])
    def test_rows_equal_the_table(self, rule, n):
        table = share_table(rule, n)
        rng = np.random.default_rng(n)
        masks = np.concatenate([[0], rng.integers(0, 1 << n, 40), [(1 << n) - 1, 0]])
        got = share_rows(rule, n, masks)
        assert got.shape == (masks.size, n) and got.dtype == np.float64
        assert np.array_equal(got, table[masks])
        assert np.array_equal(share_rows(rule, n, masks.tolist()), table[masks])

    def test_one_call_per_batch_of_nonempty_masks(self):
        calls = []

        def rule(member):
            calls.append(masks_of(member).tolist())
            return EqualRule(member.shape[1])(member)

        rows = share_rows(rule, 4, [0, 5, 0, 5, 15])
        assert calls == [[5, 5, 15]]
        assert not rows[0].any() and not rows[2].any()
        assert share_rows(rule, 4, []).shape == (0, 4) and len(calls) == 1
        # at most 4,096 masks a call; mask 0 is never asked for
        calls.clear()
        rows = share_rows(rule, 13, range(1 << 13))
        assert [len(c) for c in calls] == [4095, 4096]
        assert sum(calls, []) == list(range(1, 1 << 13))
        assert rows.tobytes() == share_table(EqualRule(13), 13).tobytes()

    @pytest.mark.parametrize("mask", [-1, 16])
    def test_mask_outside_the_bundle_rejected(self, mask):
        with pytest.raises(ValueError, match=rf"mask {mask} is outside 0..15"):
            share_rows(EqualRule(4), 4, [3, mask])

    def test_first_defect_stops_the_rows(self):
        # masks 5 and 3 are both bad: the batch is asked for whole, and the
        # rows stop with the error of the first bad one in the given order
        calls = []

        def counting(member):
            masks = masks_of(member)
            calls.append(masks.tolist())
            rows = EqualRule(member.shape[1])(member)
            return with_share(0, 0.0)(rows, (masks == 3) | (masks == 5))

        with pytest.raises(InvalidShareError) as exc:
            share_rows(counting, 3, [7, 5, 3])
        assert exc.value.mask == 5 and calls == [[7, 5, 3]]
        with pytest.raises(InvalidShareError) as exc:
            share_rows(counting, 3, [7, 3, 5])
        assert exc.value.mask == 3
        # a bad share in the first batch stops before the second is asked for
        calls.clear()
        with pytest.raises(InvalidShareError) as exc:
            share_rows(counting, 13, range(1, 1 << 13))
        assert exc.value.mask == 3 and len(calls) == 1

    @pytest.mark.parametrize("length", [0, 1, 2, 4])
    def test_row_of_the_wrong_length_rejected_at_once(self, length):
        # a length-1 row would broadcast over the table's row
        calls = []

        def rule(member):
            calls.append(masks_of(member).tolist())
            return np.ones((len(member), length)) if 5 in masks_of(member) else EqualRule(3)(member)

        message = rf"shares of shape \(3, {length}\) for a membership array of shape \(3, 3\)"
        with pytest.raises(ValueError, match=message):
            share_rows(rule, 3, [7, 5, 3])
        assert calls == [[7, 5, 3]]

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (3, 3), (2, 3, 1)])
    def test_batch_of_the_wrong_shape_rejected(self, shape):
        # one row for the batch, a row too few or too many, or one more axis
        given = ", ".join(map(str, shape))
        message = rf"shares of shape \({given},?\) for a membership array of shape \(2, 3\)"
        with pytest.raises(ValueError, match=message):
            share_rows(lambda member: np.ones(shape), 3, [7, 5])

    def test_any_sequence_of_floats_is_a_row(self):
        rows = share_rows(lambda member: member.astype(float).tolist(), 3, [0, 5, 7])
        assert rows.tolist() == [[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]

    def test_masks_past_63_bits(self):
        # the membership arrays and the check read every mask's bits, whatever n
        n = 70
        mask = 1 << 69 | 1
        rows = share_rows(EqualRule(n), n, [mask])
        assert rows[0, 0] == rows[0, 69] == 35.0 and np.count_nonzero(rows) == 2
        with pytest.raises(InvalidShareError) as exc:
            share_rows(lambda member: with_share(69, 0.0)(EqualRule(n)(member), 0), n, [mask])
        assert exc.value.mask == mask

    def test_share_error_pickles(self):
        # a worker process hands its error back pickled
        err = InvalidShareError(3, 0b101, 0, 0.0)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is InvalidShareError
        assert str(back) == str(err) and back.mask == err.mask == 5


class TestAbsorbingRows:
    """share_rows of an AbsorbingRule against its absorption solves."""

    @pytest.mark.parametrize("rows, cols, masks", [
        (2, 3, range(1 << 6)), (3, 3, range(1 << 9)), (3, 4, range(1 << 12)),
        (4, 4, np.random.default_rng(44).integers(0, 1 << 16, 200)),
    ], ids=["2x3", "3x3", "3x4", "4x4-random-200"])
    def test_rows_are_one_plus_the_absorbed_loads(self, rows, cols, masks):
        # each member carries 1 plus the column sum of u, byte for byte
        n = rows * cols
        rule = grid_rule(rows, cols)
        want = np.zeros((len(masks), n))
        for r, mask in enumerate(masks):
            if mask:
                res = absorption_probabilities(rule.transition, bits(n, int(mask)))
                want[r, list(res.working)] = 1 + res.u.sum(axis=0)
        assert share_rows(rule, n, masks).tobytes() == want.tobytes()

    def test_subclass_call_is_checked(self):
        class ZeroAtFive(AbsorbingRule):
            def __call__(self, member):
                return with_share(0, 0.0)(super().__call__(member), masks_of(member) == 5)

        with pytest.raises(InvalidShareError, match=r"component 0 the share 0.0") as exc:
            share_rows(ZeroAtFive(transition_matrix(build_grid_graph(1, 3))), 3, [7, 5, 3])
        assert exc.value.mask == 5

    @pytest.mark.parametrize("bad", [-1.5, -1.0, math.nan, math.inf])
    def test_share_checked_after_the_last_solve(self, monkeypatch, bad):
        # the column sums at masks 5 and 6 make shares 1 + bad; every mask is solved
        solve = loadshare.absorption_probabilities
        calls = []

        def corrupt(p, member):
            mask = masks_of([member])[0]
            calls.append(mask)
            res = solve(p, member)
            if mask in (5, 6):
                u = res.u.copy()
                u[0, 0] = bad
                return res._replace(u=u)
            return res

        monkeypatch.setattr(loadshare, "absorption_probabilities", corrupt)
        rule = grid_rule(1, 3)
        with pytest.raises(InvalidShareError) as exc:
            share_rows(rule, 3, [7, 3, 5, 6, 1])
        assert exc.value.mask == 5 and calls == [7, 3, 5, 6, 1]
        assert f"component 0 the share {1.0 + bad} at working set [0, 2]" in str(exc.value)
        with pytest.raises(InvalidShareError) as exc:
            share_table(rule, 3)
        assert exc.value.mask == 5

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_solution_is_singular(self, monkeypatch, value):
        monkeypatch.setattr(loadshare.np.linalg, "solve", lambda m, r: np.full(r.shape, value))
        rule = grid_rule(2, 3)
        with pytest.raises(SingularAbsorptionError, match=rf"max dev {value}"):
            absorption_probabilities(rule.transition, members(6, {0, 5}))
        with pytest.raises(SingularAbsorptionError, match="do not sum to 1"):
            share_rows(rule, 6, [63, 33])


# every path that reads a rule, asked for the shares at {0, 2} of 3 components;
# the pattern "2 1 3" fails component 1 first, so its walk reaches {0, 2}
CONTRACT_PATHS = {
    "share_table": lambda rule: share_table(rule, 3),
    "verify_monotone": lambda rule: verify_monotone(rule, 3),
    "simulate_cascade": lambda rule: cascade.simulate_cascade(
        [2.0, 1.0, 3.0], rule, cascade.StructureFunction.parallel(3)),
    "replay_pattern": lambda rule: cascade.replay_pattern(
        cascade.parse_pattern("2 1 3"), [2.0, 1.0, 3.0], rule, cascade.StructureFunction.parallel(3)),
    "pattern_density_input": lambda rule: threshold.pattern_density_input(
        cascade.parse_pattern("2 1 3"), rule, 3, unit_exponential()),
    "tail_constant": lambda rule: threshold.parallel_exponential_tail_constant(rule, 3),
    "log_odds": lambda rule: gibbs.log_odds(
        Configuration(3, frozenset({0, 2})), 0, 1.0, rule, unit_exponential()),
    "share_rows": lambda rule: share_rows(rule, 3, [7, 5, 3]),
}

# k is the batch's size: 1 on the share walk, 7 in share_table, 3 in share_rows
_LONG = (r"shares of shape \((\d+), 4\) for a membership array of shape \(\1, 3\); it needs one "
         r"row of n = 3 shares per working set")


class TestOneContract:
    # missing-member leaves member 0's share at the row's 0.0; key-3 and
    # key-minus-1 add a share for a component outside the bundle
    @pytest.mark.parametrize("defect, message", [
        (with_share(0, 0.0), r"component 0 the share 0.0 at working set \[0, 2\]"),
        (with_share(2, math.nan), r"component 2 the share nan at working set \[0, 2\]"),
        (with_share(0, 0.0), r"component 0 the share 0.0 at working set \[0, 2\]"),
        (with_share(1, 1.5), r"component 1 the share 1.5 at working set \[0, 2\]"),
        (with_share(0, -1.0), r"component 0 the share -1.0 at working set \[0, 2\]"),
        (with_extra_share(3), _LONG),
        (with_extra_share(-1), _LONG),
        (with_share(2, math.inf), r"component 2 the share inf at working set \[0, 2\]"),
        (lambda rows, at: rows[:, :2] if at.any() else rows,
         r"shares of shape \((\d+), 2\) for a membership array of shape \(\1, 3\); .* n = 3"),
    ], ids=["zero", "nan", "missing-member", "failed-component", "negative", "key-3", "key-minus-1",
            "inf", "short-row"])
    @pytest.mark.parametrize("path", list(CONTRACT_PATHS))
    def test_every_path_raises_the_same_error(self, path, defect, message):
        rule = defective_rule(defect)
        value_defect = "the share" in message
        if path == "verify_monotone" and value_defect:
            b = frozenset({0, 2})
            assert verify_monotone(rule, 3) == MonotoneCheck(False, (b, b, -1))
            return
        with pytest.raises(ValueError, match=message) as exc:
            CONTRACT_PATHS[path](rule)
        assert type(exc.value) is (InvalidShareError if value_defect else ValueError)
        if value_defect:
            assert exc.value.mask == 0b101


class TestTransitionBound:
    def test_grid_over_the_bound_rejected_before_allocating(self):
        # 160,000 nodes: a dense matrix would take 205 GB
        with pytest.raises(ValueError, match="transition matrix for n = 160000 takes "
                                             "204800000000 bytes"):
            transition_matrix(build_grid_graph(400, 400))

    def test_complete_graph_over_the_bound_rejected(self):
        with pytest.raises(ValueError, match="transition matrix for n = 100000 takes"):
            complete_graph_transition(100_000)


class TestConfiguration:
    def test_mask_roundtrip(self):
        cfg = Configuration.from_mask(6, 0b101001)
        assert cfg.working == frozenset({0, 3, 5})
        assert cfg.mask == 0b101001

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Configuration(3, frozenset({3}))

    def test_from_mask_reads_the_low_bits_only(self):
        cfg = Configuration.from_mask(3, 0b11010)
        assert cfg == Configuration(3, frozenset({1})) and hash(cfg) == hash(Configuration(3, {1}))
        with pytest.raises(ValueError, match="positive"):
            Configuration.from_mask(0, 1)

    def test_unit_rule_is_one_everywhere(self):
        lam = UnitRule(4)(members(4, {1, 3})[None])
        assert lam.tolist() == [[0.0, 1.0, 0.0, 1.0]]

    def test_unit_rule_checks_n_and_the_configuration_size(self):
        # as the equal rule does
        for rule in (UnitRule, EqualRule):
            with pytest.raises(ValueError, match="n must be positive"):
                rule(0)
            with pytest.raises(ValueError, match="configuration size does not match n"):
                share_table(rule(3), 4)
            with pytest.raises(ValueError, match="configuration size does not match n"):
                rule(3)(members(2, {0, 1})[None])
