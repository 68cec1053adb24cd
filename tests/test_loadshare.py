"""Grid graphs, transition matrices, absorption solves, and rule properties."""

import math
import pickle
import re

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
    LoadShareVector,
    MonotoneCheck,
    NonMonotoneRuleError,
    SingularAbsorptionError,
    TransitionMatrix,
    UnitRule,
    absorbing_load_share,
    absorption_probabilities,
    build_grid_graph,
    complete_graph_transition,
    equal_load_share,
    share_rows,
    share_table,
    transition_matrix,
    verify_monotone,
)


def grid_rule(rows, cols):
    return AbsorbingRule(transition_matrix(build_grid_graph(rows, cols)))


# each breaks the rule-output contract for one component at working set {0, 2}
DEFECTS = [
    pytest.param(lambda v: v.update({0: 0.0}), 0, id="zero"),
    pytest.param(lambda v: v.update({2: math.nan}), 2, id="nan"),
    pytest.param(lambda v: v.update({1: 1.5}), 1, id="extra-key"),
    pytest.param(lambda v: v.pop(0), 0, id="missing-key"),
]


def defective_rule(defect):
    """The equal rule on 3 components with ``defect`` applied at {0, 2}."""
    def rule(cfg):
        values = dict(EqualRule(3)(cfg).values)
        if cfg.working == {0, 2}:
            defect(values)
        return LoadShareVector(values)

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
        res = absorption_probabilities(tm, Configuration(3, frozenset({0, 2})))
        assert res.failed == (1,) and res.working == (0, 2)
        assert np.allclose(res.u, [[0.5, 0.5]])

    def test_single_absorbing_state(self):
        tm = transition_matrix(build_grid_graph(1, 3))
        res = absorption_probabilities(tm, Configuration(3, frozenset({0})))
        assert np.allclose(res.u, 1.0)

    def test_two_by_two_corner(self):
        g = build_grid_graph(2, 2)
        tm = transition_matrix(g)
        working = frozenset(range(4)) - {g.node_index(0, 0)}
        res = absorption_probabilities(tm, Configuration(4, working))
        assert res.prob(g.node_index(0, 0), g.node_index(0, 1)) == pytest.approx(0.5)
        assert res.prob(g.node_index(0, 0), g.node_index(1, 1)) == pytest.approx(0.5)
        assert res.prob(g.node_index(0, 0), g.node_index(1, 0)) == pytest.approx(0.0)

    def test_rows_stochastic_random_configs(self):
        tm = transition_matrix(build_grid_graph(3, 3))
        rng = np.random.default_rng(0)
        for _ in range(50):
            mask = int(rng.integers(1, 1 << 9))
            res = absorption_probabilities(tm, Configuration.from_mask(9, mask))
            if res.u.size:
                assert np.all(np.abs(res.u.sum(axis=1) - 1.0) <= 1e-9)

    def test_empty_working_set_rejected(self):
        tm = transition_matrix(build_grid_graph(1, 3))
        with pytest.raises(ValueError):
            absorption_probabilities(tm, Configuration(3, frozenset()))
        with pytest.raises(ValueError, match="nonempty"):
            absorption_probabilities(tm, Configuration.from_mask(3, 0))

    def test_full_working_set_has_no_failed_rows(self):
        tm = transition_matrix(build_grid_graph(2, 3))
        res = absorption_probabilities(tm, Configuration.full(6))
        assert res.failed == () and res.working == tuple(range(6))
        assert res.u.shape == (0, 6)

    def test_disconnected_chain_is_singular(self):
        # two 2-node components: failed nodes 2 and 3 only reach each other
        tm = TransitionMatrix(np.array([[0, 1, 0, 0], [1, 0, 0, 0],
                                        [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float))
        with pytest.raises(SingularAbsorptionError, match=r"working set \(0,\)"):
            absorption_probabilities(tm, Configuration(4, frozenset({0})))
        with pytest.raises(SingularAbsorptionError):
            share_table(AbsorbingRule(tm), 4)

    def test_ill_conditioned_rows_report_the_condition_number_alone(self):
        # failed node 1 leaks 1e-9 of its walk to the working node 0: cond(I - Q) is
        # 4e9 and the rows miss 1 by 3e-8; no condition-number limit is enforced
        tm = TransitionMatrix(np.array([[0, 1, 0], [1e-9, 0, 1 - 1e-9], [0, 1, 0]]))
        with pytest.raises(SingularAbsorptionError) as err:
            absorption_probabilities(tm, Configuration(3, frozenset({0})))
        msg = str(err.value)
        assert re.fullmatch(r"absorption rows do not sum to 1 \(max dev \S+, cond 4\.\d{3}e\+09\)",
                            msg), msg


class TestAbsorbingLoadShare:
    def test_one_row_split(self):
        tm = transition_matrix(build_grid_graph(1, 3))
        lam = absorbing_load_share(tm, Configuration(3, frozenset({0, 2})))
        assert lam[0] == pytest.approx(1.5) and lam[2] == pytest.approx(1.5)

    def test_full_working_set_is_unit(self):
        tm = transition_matrix(build_grid_graph(3, 3))
        lam = absorbing_load_share(tm, Configuration.full(9))
        assert all(v == pytest.approx(1.0) for v in lam.values.values())

    def test_two_by_two_corner_failure(self):
        g = build_grid_graph(2, 2)
        tm = transition_matrix(g)
        lam = absorbing_load_share(tm, Configuration(4, frozenset(range(4)) - {0}))
        assert lam[g.node_index(0, 1)] == pytest.approx(1.5)
        assert lam[g.node_index(1, 1)] == pytest.approx(1.5)
        assert lam[g.node_index(1, 0)] == pytest.approx(1.0)
        assert lam.total() == pytest.approx(4.0)

    def test_failed_component_lookup_raises(self):
        tm = transition_matrix(build_grid_graph(1, 3))
        lam = absorbing_load_share(tm, Configuration(3, frozenset({0, 2})))
        with pytest.raises(KeyError, match="survivors"):
            lam[1]

    def test_conservation_exhaustive_small_grids(self):
        for rows, cols in [(1, 3), (2, 2), (2, 3)]:
            n = rows * cols
            tm = transition_matrix(build_grid_graph(rows, cols))
            for mask in range(1, 1 << n):
                lam = absorbing_load_share(tm, Configuration.from_mask(n, mask))
                assert lam.total() == pytest.approx(n, abs=1e-9)

    def test_survivor_share_at_least_one(self):
        tm = transition_matrix(build_grid_graph(2, 3))
        rng = np.random.default_rng(1)
        for _ in range(30):
            mask = int(rng.integers(1, 1 << 6))
            lam = absorbing_load_share(tm, Configuration.from_mask(6, mask))
            assert all(v >= 1.0 - 1e-12 for v in lam.values.values())

    def test_mirror_symmetry(self):
        rows, cols = 2, 3
        g = build_grid_graph(rows, cols)
        tm = transition_matrix(g)

        def mirror(i):
            r, c = divmod(i, cols)
            return r * cols + (cols - 1 - c)

        rng = np.random.default_rng(2)
        for _ in range(25):
            mask = int(rng.integers(1, 1 << 6))
            working = frozenset(i for i in range(6) if mask >> i & 1)
            lam = absorbing_load_share(tm, Configuration(6, working))
            lam_m = absorbing_load_share(tm, Configuration(6, frozenset(map(mirror, working))))
            for j in working:
                assert lam[j] == pytest.approx(lam_m[mirror(j)], abs=1e-12)


class TestEqualRule:
    @pytest.mark.parametrize("n,size,expected", [(4, 4, 1.0), (4, 2, 2.0), (3, 1, 3.0)])
    def test_values(self, n, size, expected):
        lam = equal_load_share(n, Configuration(n, frozenset(range(size))))
        assert all(v == pytest.approx(expected) for v in lam.values.values())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            equal_load_share(3, Configuration(3, frozenset()))

    def test_matches_absorbing_on_complete_graph(self):
        for n in range(2, 7):
            tm = complete_graph_transition(n)
            for mask in range(1, 1 << n):
                cfg = Configuration.from_mask(n, mask)
                lam = absorbing_load_share(tm, cfg)
                expected = n / len(cfg.working)
                assert all(v == pytest.approx(expected, abs=1e-9) for v in lam.values.values())


class TestVerifyMonotone:
    def test_absorbing_rule_monotone_exhaustive(self):
        assert verify_monotone(grid_rule(2, 3), 6) == MonotoneCheck(True, None)

    def test_equal_rule_monotone(self):
        assert verify_monotone(EqualRule(5), 5).ok

    def test_adversarial_rule_caught(self):
        def rule(cfg):
            return LoadShareVector({i: float(len(cfg.working)) for i in cfg.working})

        check = verify_monotone(rule, 4)
        assert not check.ok
        a, b, j = check.counterexample
        assert a < b and j in a
        assert len(b - a) == 1
        assert rule(Configuration(4, a))[j] < rule(Configuration(4, b))[j]

    def test_nonpositive_total_caught(self):
        def rule(cfg):
            return LoadShareVector({i: 0.0 if cfg.working == {1} else 1.0 for i in cfg.working})

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

        def rule(cfg):
            lam = EqualRule(14)(cfg).values
            if cfg.working == full - {13}:
                lam = {**lam, 0: 0.5}
            return LoadShareVector(lam)

        assert verify_monotone(rule, 14) == MonotoneCheck(False, (full - {13}, full, 0))

    def test_bound_checked_before_any_rule_call(self):
        def rule(cfg):
            raise AssertionError("rule called for a table over the bound")

        with pytest.raises(ValueError, match="bytes"):
            verify_monotone(rule, 21)

    def test_monotonicity_exhaustive_pairs(self):
        # direct lattice sweep, independent of verify_monotone internals
        rule = grid_rule(2, 3)
        shares = {
            mask: dict(rule(Configuration.from_mask(6, mask)).values)
            for mask in range(1, 1 << 6)
        }
        for bmask in range(1, 1 << 6):
            sub = (bmask - 1) & bmask
            while sub:
                for j, val in shares[sub].items():
                    assert shares[bmask][j] <= val + 1e-12
                sub = (sub - 1) & bmask


class TestShareTable:
    def test_rule_values_inside_zero_outside(self):
        rule = grid_rule(2, 3)
        table = share_table(rule, 6)
        assert table.shape == (64, 6) and table.dtype == np.float64
        assert not table[0].any()
        for mask in range(1, 64):
            lam = rule(Configuration.from_mask(6, mask))
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
        def rule(cfg):
            return LoadShareVector({i: float(len(cfg.working)) for i in cfg.working})

        with pytest.raises(NonMonotoneRuleError, match="dropped"):
            share_table(rule, 3)
        assert cascade.NonMonotoneRuleError is NonMonotoneRuleError

    def test_counterexample_is_verify_monotones(self):
        def size_rule(cfg):
            return LoadShareVector({i: float(len(cfg.working)) for i in cfg.working})

        full = frozenset(range(14))

        def one_drop(cfg):
            lam = EqualRule(14)(cfg).values
            return LoadShareVector({**lam, 0: 0.5} if cfg.working == full - {13} else lam)

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

        def counting(cfg):
            calls.append(cfg.mask)
            return rule(cfg)

        assert verify_monotone(rule, 4).ok and share_table(rule, 4) is table
        assert verify_monotone(counting, 4).ok and len(calls) == 15
        assert verify_monotone(counting, 4).ok and len(calls) == 15

    @pytest.mark.parametrize("defect,i", DEFECTS)
    def test_invalid_shares_rejected(self, defect, i):
        with pytest.raises(ValueError, match=rf"component {i} the share .* at working set \[0, 2\]"):
            share_table(defective_rule(defect), 3)

    @pytest.mark.parametrize("key", [3, -1])
    def test_key_outside_bundle_rejected(self, key):
        # -1 would index component 2's slot, and 3 the end of the row
        rule = defective_rule(lambda v: v.update({key: 0.0}))
        with pytest.raises(ValueError, match=rf"component {key} at working set \[0, 2\]"):
            share_table(rule, 3)
        with pytest.raises(ValueError, match=rf"component {key} at working set \[0, 2\]"):
            verify_monotone(rule, 3)

    def test_table_bound_checked_before_any_work(self):
        # a 2^21 x 21 float64 table would take 352 MB
        def rule(cfg):
            raise AssertionError("rule called for a table over the bound")

        with pytest.raises(ValueError, match="bytes"):
            share_table(EqualRule(21), 21)
        with pytest.raises(ValueError, match="bytes"):
            share_table(rule, 30)


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

        def counting(p, a):
            calls.append(a.mask)
            return solve(p, a)

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

    def test_one_call_per_nonempty_mask(self):
        calls = []

        def rule(cfg):
            calls.append(cfg.mask)
            return EqualRule(4)(cfg)

        rows = share_rows(rule, 4, [0, 5, 0, 5, 15])
        assert calls == [5, 5, 15]
        assert not rows[0].any() and not rows[2].any()
        assert share_rows(rule, 4, []).shape == (0, 4)

    @pytest.mark.parametrize("mask", [-1, 16])
    def test_mask_outside_the_bundle_rejected(self, mask):
        with pytest.raises(ValueError, match=rf"mask {mask} is outside 0..15"):
            share_rows(EqualRule(4), 4, [3, mask])

    def test_first_defect_stops_the_rows(self):
        # mask 5 is {0, 2}: nothing after it is asked for
        calls = []
        rule = defective_rule(lambda v: v.update({0: 0.0}))

        def counting(cfg):
            calls.append(cfg.mask)
            return rule(cfg)

        with pytest.raises(InvalidShareError) as exc:
            share_rows(counting, 3, [7, 5, 3])
        assert exc.value.mask == 5 and calls == [7, 5]

    def test_share_error_pickles(self):
        # a worker process hands its error back pickled
        err = InvalidShareError(Configuration(3, frozenset({0, 2})), 0, 0.0)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is InvalidShareError
        assert str(back) == str(err) and back.mask == err.mask == 5


class TestAbsorbingRows:
    """share_rows' AbsorbingRule branch against the checked rule-call path."""

    @pytest.mark.parametrize("rows, cols, masks", [
        (2, 3, range(1 << 6)), (3, 3, range(1 << 9)), (3, 4, range(1 << 12)),
        (4, 4, np.random.default_rng(44).integers(0, 1 << 16, 200)),
    ], ids=["2x3", "3x3", "3x4", "4x4-random-200"])
    def test_rows_equal_the_rule_call_path(self, rows, cols, masks):
        # a wrapper is not an AbsorbingRule, so it takes the per-mask rule call
        n = rows * cols
        rule = grid_rule(rows, cols)
        fast = share_rows(rule, n, masks)
        assert fast.tobytes() == share_rows(lambda c: rule(c), n, masks).tobytes()

    def test_subclass_call_is_checked(self):
        class ZeroAtFive(AbsorbingRule):
            def __call__(self, config):
                values = dict(super().__call__(config).values)
                if config.mask == 5:
                    values[0] = 0.0
                return LoadShareVector(values)

        with pytest.raises(InvalidShareError, match=r"component 0 the share 0.0") as exc:
            share_rows(ZeroAtFive(transition_matrix(build_grid_graph(1, 3))), 3, [7, 5, 3])
        assert exc.value.mask == 5

    @pytest.mark.parametrize("bad", [-1.5, -1.0, math.nan, math.inf])
    def test_share_checked_after_the_last_solve(self, monkeypatch, bad):
        # the column sums at masks 5 and 6 make shares 1 + bad; every mask is solved
        solve = loadshare.absorption_probabilities
        calls = []

        def corrupt(p, a):
            calls.append(a.mask)
            res = solve(p, a)
            if a.mask in (5, 6):
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
            absorption_probabilities(rule.transition, Configuration(6, frozenset({0, 5})))
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
}


class TestOneContract:
    @pytest.mark.parametrize("defect, message", [
        (lambda v: v.update({0: 0.0}), r"component 0 the share 0.0 at working set \[0, 2\]"),
        (lambda v: v.update({2: math.nan}), r"component 2 the share nan at working set \[0, 2\]"),
        (lambda v: v.pop(0), r"component 0 the share 0.0 at working set \[0, 2\]"),
        (lambda v: v.update({1: 1.5}), r"component 1 the share 1.5 at working set \[0, 2\]"),
        (lambda v: v.update({0: -1.0}), r"component 0 the share -1.0 at working set \[0, 2\]"),
        (lambda v: v.update({3: 0.0}), r"share to component 3 at working set \[0, 2\]"),
        (lambda v: v.update({-1: 0.0}), r"share to component -1 at working set \[0, 2\]"),
    ], ids=["zero", "nan", "missing-member", "failed-component", "negative", "key-3", "key-minus-1"])
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
        lam = UnitRule(4)(Configuration(4, frozenset({1, 3})))
        assert lam.values == {1: 1.0, 3: 1.0}
