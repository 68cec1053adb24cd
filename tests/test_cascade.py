"""Cascade mechanics: hand traces, pattern replay, sampling, chains, cycles."""

import concurrent.futures
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, stats as sps

from fiberbundle import cascade
from fiberbundle import threshold as th
from fiberbundle.cascade import (
    BreakingPattern,
    NonMonotoneRuleError,
    PatternCycle,
    PowerScaledRule,
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
from fiberbundle.distributions import StrengthModel, unit_exponential
from fiberbundle.loadshare import (
    AbsorbingRule,
    EqualRule,
    UnitRule,
    build_grid_graph,
    share_table,
    transition_matrix,
)


def grid_rule(rows, cols):
    return AbsorbingRule(transition_matrix(build_grid_graph(rows, cols)))


def members(n, working):
    """The (1, n) membership array of one working set."""
    return np.array([[i in working for i in range(n)]])


def size_rule(member):
    """Non-monotone: every survivor's share is the size of the working set."""
    return np.where(member, member.sum(axis=1, keepdims=True), 0.0)


class TestHandTraces:
    def test_two_sequential_failures(self):
        res = simulate_cascade([0.4, 1.2], EqualRule(2), StructureFunction.parallel(2))
        assert res.strength == pytest.approx(0.6)
        assert res.phase1_stresses == pytest.approx((0.4, 0.6))
        assert str(res.pattern) == "1 2"
        assert res.survivor_sets == (frozenset({0, 1}), frozenset({1}), frozenset())

    def test_burst_after_first_failure(self):
        res = simulate_cascade([0.4, 0.7], EqualRule(2), StructureFunction.parallel(2))
        assert res.strength == pytest.approx(0.4)
        assert str(res.pattern) == "1(2)"
        assert res.survivor_sets == (frozenset({0, 1}), frozenset())

    def test_near_tie_burst_group(self):
        res = simulate_cascade([1.0, 1.01, 1.02, 1.03], EqualRule(4), StructureFunction.parallel(4))
        assert str(res.pattern) == "1(2,3,4)"
        assert res.strength == pytest.approx(1.0)

    def test_stresses_strictly_increase(self):
        rng = np.random.default_rng(0)
        rule = grid_rule(3, 3)
        st = StructureFunction.column_paths(3, 3)
        for _ in range(20):
            res = simulate_cascade(rng.standard_exponential(9) + 0.05, rule, st)
            assert all(b > a for a, b in zip(res.phase1_stresses, res.phase1_stresses[1:]))
            assert all(s2 < s1 for s1, s2 in zip(res.survivor_sets, res.survivor_sets[1:]))

    def test_equal_consecutive_stresses_accepted(self):
        # 0.8850948042728252 survives the burst at share 1.5, but its own
        # stress 0.8850948042728252 / 1.5 rounds to the first cycle's
        x = [0.5900632028485501, 0.8850948042728252, 0.8850948042728252]
        rule, st = EqualRule(3), StructureFunction.parallel(3)
        res = simulate_cascade(x, rule, st)
        fast = cascade._cascade_strengths_block(np.array([x]), share_table(rule, 3), st)
        assert res.strength == fast[0] == 0.5900632028485501
        assert res.phase1_stresses == (0.5900632028485501, 0.5900632028485501)
        assert replay_pattern(res.pattern, x, rule, st)

    def test_column_structure_matches_parallel_for_one_row(self):
        x = [0.8, 0.5]
        a = simulate_cascade(x, EqualRule(2), StructureFunction.column_paths(1, 2))
        b = simulate_cascade(x, EqualRule(2), StructureFunction.parallel(2))
        assert a.strength == b.strength and str(a.pattern) == str(b.pattern)

    def test_invalid_strengths_rejected(self):
        with pytest.raises(ValueError):
            simulate_cascade([1.0, -0.5], EqualRule(2), StructureFunction.parallel(2))

    def test_non_monotone_rule_detected(self):
        with pytest.raises(NonMonotoneRuleError):
            simulate_cascade([0.5, 0.9, 1.4], size_rule, StructureFunction.parallel(3))

    # extra-key gives the failed component 1 a share; missing-key leaves member
    # 0's share out, at the row's 0.0
    @pytest.mark.parametrize("i,value", [
        (0, 0.0), (2, math.nan), (1, 1.5), (0, 0.0), (2, math.inf),
    ], ids=["zero", "nan", "extra-key", "missing-key", "inf"])
    def test_invalid_shares_rejected(self, i, value):
        # component 1 fails first, so the cascade asks for the shares at {0, 2}
        def rule(member):
            rows = EqualRule(3)(member)
            rows[(member == [True, False, True]).all(axis=1), i] = value
            return rows

        with pytest.raises(ValueError, match=rf"component {i} the share .* at working set \[0, 2\]"):
            simulate_cascade([2.0, 1.0, 3.0], rule, StructureFunction.parallel(3))

    @pytest.mark.parametrize("key", [3, -1])
    def test_key_outside_bundle_rejected(self, key):
        # a zero share for a component before 0 or after n - 1 passes the value
        # check, so only the row's length can be wrong
        def rule(member):
            return np.insert(EqualRule(3)(member), 0 if key < 0 else 3, 0.0, axis=1)

        with pytest.raises(ValueError, match=r"shares of shape \(1, 4\) for a membership array of "
                                             r"shape \(1, 3\)"):
            simulate_cascade([2.0, 1.0, 3.0], rule, StructureFunction.parallel(3))

    def test_nan_strength_rejected(self):
        # NaN <= 0 is false, so a sign test alone lets it through
        with pytest.raises(ValueError, match="strictly positive"):
            simulate_cascade([math.nan, 1.0], EqualRule(2), StructureFunction.parallel(2))
        with pytest.raises(ValueError, match="strictly positive"):
            replay_pattern(parse_pattern("1 2"), [math.nan, 1.0], EqualRule(2),
                           StructureFunction.parallel(2))

    def test_ratio_past_the_largest_float_is_inf_without_a_warning(self):
        # shares of 1/16 put x / share past the largest float on every path
        x = np.array([1e308, 1.5e308])
        rule, st = PowerScaledRule(EqualRule(2), 2.0, 4.0), StructureFunction.parallel(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = simulate_cascade(x, rule, st)
            replayed = replay_pattern(res.pattern, x, rule, st)
            fast = cascade._cascade_strengths_block(x[None, :], share_table(rule, 2), st)
        assert res.strength == math.inf and str(res.pattern) == "1(2)" and replayed
        assert fast.tolist() == [math.inf]


class TestStructureFunction:
    def test_parallel_sets(self):
        st = StructureFunction.parallel(3)
        assert st.paths == (0b001, 0b010, 0b100)
        assert st.smallest_cut_size() == 3
        assert st.works(frozenset({2})) and not st.works(frozenset())

    def test_column_paths_sets(self):
        st = StructureFunction.column_paths(2, 3)
        assert st.paths == (0b001001, 0b010010, 0b100100)
        assert st.smallest_cut_size() == 3
        assert st.works(frozenset({1, 4, 0}))
        assert not st.works(frozenset({0, 1, 5}))  # every column broken

    def test_mask_vectorization_agrees(self):
        st = StructureFunction.column_paths(2, 3)
        masks = np.arange(1 << 6, dtype=np.int64)
        vec = st._works_masks(masks)
        for m in range(1 << 6):
            assert vec[m] == st.works(frozenset(i for i in range(6) if m >> i & 1))

    @pytest.mark.parametrize("n, paths, message", [
        (3, (), r"components 0b111 of n = 3 are in no path"),
        (3, (0b011, 0, 0b100), r"path 0b0 is empty"),
        (3, (0b111, 0b1000), r"path 0b1000 is empty or names a component >= n = 3"),
        (3, (0b011, 0b110), r"path 0b110 overlaps an earlier path in 0b10"),
        (3, (0b001, 0b100), r"components 0b10 of n = 3 are in no path"),
        (0, (), r"n must be positive, got 0"),
        (3, (0b0101, 0b1010), r"path 0b1010 is empty or names a component >= n = 3"),
    ], ids=["no-paths", "zero-mask", "mask-past-n", "overlap", "uncovered", "n-zero",
            "2x2-columns-on-n-3"])
    def test_bad_structure_rejected_when_built(self, n, paths, message):
        with pytest.raises(ValueError, match=message):
            StructureFunction(n, paths)

    def test_masks_past_63_bits(self):
        st = StructureFunction.parallel(100)
        assert st.paths[-1] == 1 << 99
        assert st.works(frozenset({99})) and not st.works(frozenset())
        assert not StructureFunction(100, ((1 << 100) - 1,)).works(frozenset(range(99)))
        x = np.linspace(1.0, 2.0, 100)
        assert simulate_cascade(x, EqualRule(100), st).strength == pytest.approx(1.0)


class TestPatternNotation:
    def test_roundtrip(self):
        for text in ["1 2", "1(2)", "1(2,3(4)) 5", "3(1(2)) 4", "2(1,3)"]:
            assert format_pattern(parse_pattern(text)) == text

    def test_duplicate_components_rejected(self):
        with pytest.raises(ValueError):
            BreakingPattern((PatternCycle(0), PatternCycle(0)))
        with pytest.raises(ValueError):
            PatternCycle(0, (frozenset({1}), frozenset({1})))

    def test_every_enumerated_pattern_round_trips(self):
        for n in range(1, 6):
            for p in enumerate_patterns(n):
                assert parse_pattern(format_pattern(p)) == p

    def test_cycles_part_at_spaces_or_after_a_closing_parenthesis(self):
        assert parse_pattern("1(2)3") == BreakingPattern(
            (PatternCycle(0, (frozenset({1}),)), PatternCycle(2)))
        assert parse_pattern("  1   2 ") == BreakingPattern((PatternCycle(0), PatternCycle(1)))

    def test_bad_text_rejected(self):
        with pytest.raises(ValueError, match="empty pattern"):
            parse_pattern("")
        # the position where reading stopped
        for text, pos in [("1(2", 3), ("1(2))", 4), ("1(2)(3)", 4), ("1( 2)", 2), ("1 (2)", 2),
                          ("(1)", 0), ("1,2", 1), ("1\t2", 1), ("x", 0)]:
            with pytest.raises(ValueError, match=rf"^bad pattern at position {pos}: "):
                parse_pattern(text)

    def test_labels_start_at_one(self):
        for text, pos, label in [("0 1", 0, "0"), ("1(0)", 2, "0"), ("1(2,00) 3", 4, "00"),
                                 ("1(2)0", 4, "0")]:
            want = rf"^bad pattern at position {pos}: expected component label >= 1, got {label} "
            with pytest.raises(ValueError, match=want):
                parse_pattern(text)
        assert parse_pattern("01 10") == BreakingPattern((PatternCycle(0), PatternCycle(9)))

    def test_negative_component_rejected(self):
        for phase1, groups in [(-1, ()), (-3, (frozenset({-1}),)), (0, (frozenset({1, -2}),))]:
            with pytest.raises(ValueError, match="components must be >= 0"):
                PatternCycle(phase1, groups)

    def test_enumeration_counts(self):
        # n=2: {1 2, 2 1, 1(2), 2(1)}
        assert len(enumerate_patterns(2)) == 4
        pats = {str(p) for p in enumerate_patterns(2)}
        assert pats == {"1 2", "2 1", "1(2)", "2(1)"}
        for p in enumerate_patterns(3):
            assert p.components() == frozenset(range(3))


class TestReplay:
    def test_replays_own_patterns_on_grid(self):
        rule = grid_rule(3, 3)
        st = StructureFunction.column_paths(3, 3)
        rng = np.random.default_rng(42)
        for _ in range(300):
            x = rng.standard_exponential(9) + 0.02
            res = simulate_cascade(x, rule, st)
            assert replay_pattern(res.pattern, x, rule, st)

    def test_swapped_cycles_fail(self):
        assert not replay_pattern(
            parse_pattern("2 1"), [0.4, 1.2], EqualRule(2), StructureFunction.parallel(2)
        )

    def test_hand_burst_pattern(self):
        assert replay_pattern(
            parse_pattern("1(2)"), [0.4, 0.7], EqualRule(2), StructureFunction.parallel(2)
        )

    def test_wrong_burst_grouping_fails(self):
        # true pattern is 1(2): claiming a second phase-I cycle must fail
        assert not replay_pattern(
            parse_pattern("1 2"), [0.4, 0.7], EqualRule(2), StructureFunction.parallel(2)
        )

    @pytest.mark.parametrize("x", [[0.4, 1.2, 99.0], [0.4]], ids=["long", "short"])
    def test_strength_count_checked(self, x):
        rule, st = EqualRule(2), StructureFunction.parallel(2)
        expected = f"expected 2 strengths, got {len(x)}"
        with pytest.raises(ValueError, match=expected):
            replay_pattern(parse_pattern("1 2"), x, rule, st)
        with pytest.raises(ValueError, match=expected):
            simulate_cascade(x, rule, st)


class CountingRule:
    def __init__(self, base):
        self.base, self.calls = base, []

    def __call__(self, member):
        self.calls += [frozenset(np.flatnonzero(row).tolist()) for row in member]
        return self.base(member)


def pattern_working_sets(pattern, n):
    """Every nonempty working set a pattern passes through, survivors included."""
    working, sets = frozenset(range(n)), set()
    for cyc in pattern.cycles:
        sets.add(working)
        working = working - {cyc.phase1}
        for grp in cyc.groups:
            sets.add(working)
            working = working - grp
    sets.add(working)
    return sets - {frozenset()}


class TestPatternWalk:
    def test_one_rule_call_per_working_set(self):
        base, st = grid_rule(3, 3), StructureFunction.column_paths(3, 3)
        model = StrengthModel("weibull", 5.0, 2.0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = model.sample(rng, 9, 1)[0]
            sim = CountingRule(base)
            res = simulate_cascade(x, sim, st)
            want = pattern_working_sets(res.pattern, 9)
            replay, density = CountingRule(base), CountingRule(base)
            assert replay_pattern(res.pattern, x, replay, st)
            th.pattern_density_input(res.pattern, density, 9, model)
            for rule in (sim, replay, density):
                assert len(rule.calls) == len(set(rule.calls))
                assert set(rule.calls) == want

    @pytest.mark.parametrize("run", [
        lambda: simulate_cascade([0.5, 0.9, 1.4], size_rule, StructureFunction.parallel(3)),
        lambda: replay_pattern(parse_pattern("1 2 3"), [0.5, 0.9, 1.4], size_rule,
                               StructureFunction.parallel(3)),
        lambda: replay_pattern(parse_pattern("1(2) 3"), [0.5, 0.9, 1.4], size_rule,
                               StructureFunction.parallel(3)),
        lambda: th.pattern_density_input(parse_pattern("1 2 3"), size_rule, 3,
                                         unit_exponential()),
        lambda: th.parallel_exponential_tail_constant(size_rule, 3),
    ], ids=["cascade", "replay", "replay-burst", "density-input", "tail-constant"])
    def test_one_monotonicity_check(self, run):
        with pytest.raises(NonMonotoneRuleError, match="dropped"):
            run()

    def test_label_outside_bundle_named(self):
        pattern, st = parse_pattern("3"), StructureFunction.parallel(2)
        with pytest.raises(ValueError, match="component 3, but the bundle has n = 2"):
            replay_pattern(pattern, [0.5, 0.9], EqualRule(2), st)
        with pytest.raises(ValueError, match="component 3, but the bundle has n = 2"):
            th.pattern_density_input(pattern, EqualRule(2), 2, unit_exponential())


class TestInvariants:
    def test_scale_equivariance(self):
        rule = grid_rule(2, 3)
        st = StructureFunction.column_paths(2, 3)
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.standard_exponential(6) + 0.05
            base = simulate_cascade(x, rule, st)
            for c in (0.25, 7.0):
                scaled = simulate_cascade(c * x, rule, st)
                assert scaled.strength == pytest.approx(c * base.strength, rel=1e-12)
                assert str(scaled.pattern) == str(base.pattern)
                assert scaled.phase1_stresses == pytest.approx(
                    tuple(c * s for s in base.phase1_stresses), rel=1e-12
                )

    def test_monotone_coupling(self):
        rule = grid_rule(2, 2)
        st = StructureFunction.column_paths(2, 2)
        rng = np.random.default_rng(4)
        for _ in range(40):
            x = rng.standard_exponential(4) + 0.05
            s0 = simulate_cascade(x, rule, st).strength
            j = int(rng.integers(4))
            x2 = x.copy()
            x2[j] += rng.uniform(0.1, 2.0)
            assert simulate_cascade(x2, rule, st).strength >= s0 - 1e-12

    def test_phase2_groups_bounded(self):
        rng = np.random.default_rng(5)
        rule = EqualRule(6)
        st = StructureFunction.parallel(6)
        for _ in range(50):
            res = simulate_cascade(rng.standard_exponential(6) + 0.02, rule, st)
            removed = sum(1 + sum(len(g) for g in c.groups) for c in res.pattern.cycles)
            assert removed <= 6

    def test_weibull_transform_pathwise(self):
        # exact per-draw equality between the Weibull cascade and the
        # transformed-rule exponential cascade
        rho, scales = 3.0, np.array([1.5, 2.0, 0.8, 1.2])
        base = grid_rule(2, 2)
        power = PowerScaledRule(base, scales, rho)
        st = StructureFunction.column_paths(2, 2)
        rng = np.random.default_rng(6)
        for _ in range(100):
            z = rng.standard_exponential(4) + 1e-3
            x = scales * z ** (1.0 / rho)
            s_weib = simulate_cascade(x, base, st).strength
            s_exp = simulate_cascade(z, power, st).strength
            assert s_weib == pytest.approx(s_exp ** (1.0 / rho), rel=1e-10)

    def test_scale_vector_of_the_wrong_length_named(self):
        rule = PowerScaledRule(EqualRule(3), [1.0, 2.0], 2.0)
        message = "scale vector has length 2, but the bundle has n = 3 components"
        with pytest.raises(ValueError, match=message):
            rule(members(3, {0, 1, 2}))
        with pytest.raises(ValueError, match=message):
            share_table(rule, 3)
        # one scale broadcasts, as a scalar does
        member = members(3, {0, 2})
        one = PowerScaledRule(EqualRule(3), [2.0], 2.0)(member)
        assert one.tolist() == PowerScaledRule(EqualRule(3), 2.0, 2.0)(member).tolist()
        assert one.tolist() == [[0.5625, 0.0, 0.5625]]

    def test_weibull_transform_distributional(self):
        rho, sigma = 5.0, 2.0
        base = EqualRule(3)
        st = StructureFunction.parallel(3)
        direct = sample_bundle_strengths(
            StrengthModel("weibull", rho, sigma), base, st, 100_000, seed=11
        )
        transformed = sample_bundle_strengths(
            unit_exponential(), PowerScaledRule(base, sigma, rho), st, 100_000, seed=12
        ) ** (1.0 / rho)
        d = sps.ks_2samp(direct, transformed).statistic
        assert d < 0.01


class TestSampling:
    def test_single_component_exponential_cdf(self):
        s = sample_bundle_strengths(
            unit_exponential(), EqualRule(1), StructureFunction.parallel(1), 100_000, seed=0
        )
        assert sps.kstest(s, "expon").statistic < 0.01

    def test_three_component_brute_force_oracle(self):
        # order-statistic enumeration: the bundle survives load x iff
        # Y1 <= x, Y2 <= 1.5 x, Y3 <= 3 x all fail ... i.e. F(x) is the
        # probability all three order statistics fall under those caps
        def oracle(x):
            def inner(y2, y1):
                return math.exp(-y1 - y2) * (math.exp(-y2) - math.exp(-3 * x))

            val, _ = integrate.dblquad(inner, 0, x, lambda y1: y1, 1.5 * x, epsabs=1e-11)
            return 6.0 * val

        s = sample_bundle_strengths(
            unit_exponential(), EqualRule(3), StructureFunction.parallel(3), 1_000_000, seed=1
        )
        grid = np.quantile(s, np.linspace(0.02, 0.98, 25))
        ecdf = np.searchsorted(np.sort(s), grid, side="right") / s.size
        exact = np.array([oracle(x) for x in grid])
        assert np.max(np.abs(ecdf - exact)) < 0.01

    def test_deterministic_across_workers(self):
        w = StrengthModel("weibull", 5.0, 2.0)
        rule = grid_rule(2, 2)
        st = StructureFunction.column_paths(2, 2)
        serial = sample_bundle_strengths(w, rule, st, 150_000, seed=9, workers=1)
        pooled = sample_bundle_strengths(w, rule, st, 150_000, seed=9, workers=3)
        assert np.array_equal(serial, pooled)

    def test_replicas_validated(self):
        with pytest.raises(ValueError):
            sample_bundle_strengths(
                unit_exponential(), EqualRule(1), StructureFunction.parallel(1), 0
            )

    def test_engine_matches_scalar_path(self):
        rule = grid_rule(2, 3)
        st = StructureFunction.column_paths(2, 3)
        model = StrengthModel("weibull", 2.0, 1.0)
        fast = sample_bundle_strengths(model, rule, st, 500, seed=21)
        from fiberbundle.cascade import _chunk_rng

        x = model.sample(_chunk_rng(21, 0), 6, 500)
        slow = np.array([simulate_cascade(row, rule, st).strength for row in x])
        assert np.allclose(fast, slow, rtol=1e-12)


    @pytest.mark.parametrize("rule, structure, model", [
        (grid_rule(3, 3), StructureFunction.column_paths(3, 3), StrengthModel("weibull", 5.0, 2.0)),
        (EqualRule(5), StructureFunction.parallel(5), unit_exponential()),
        (PowerScaledRule(grid_rule(2, 3), [1.0, 1.5, 0.8, 1.2, 1.0, 0.9], 2.5),
         StructureFunction.column_paths(2, 3), unit_exponential()),
        # no sharing: every share is 1, so no burst ever removes a component
        (UnitRule(9), StructureFunction.column_paths(3, 3), unit_exponential()),
        (UnitRule(9), StructureFunction.parallel(9), unit_exponential()),
        (EqualRule(1), StructureFunction.parallel(1), unit_exponential()),
    ], ids=["absorbing-3x3", "equal-parallel", "power-scaled", "unit-column-paths",
            "unit-parallel", "one-component"])
    def test_kernel_equals_scalar_cascade_exactly(self, rule, structure, model):
        n = structure.n
        x = model.sample(np.random.default_rng(3), n, 2000)
        fast = cascade._cascade_strengths_block(x, share_table(rule, n), structure)
        slow = np.array([simulate_cascade(row, rule, structure).strength for row in x])
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("rule, structure, model", [
        (grid_rule(3, 3), StructureFunction.column_paths(3, 3),
         StrengthModel("weibull", 3.0, (1.0, 1.4, 0.7, 1.1, 0.9, 1.3, 0.8, 1.2, 1.05))),
        (EqualRule(5), StructureFunction.parallel(5), unit_exponential()),
        (EqualRule(21), StructureFunction.parallel(21), unit_exponential()),
    ], ids=["absorbing-3x3-scale-vector", "exponential", "scalar-path-n21"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_blocks_join_into_the_whole_chunk(self, monkeypatch, rule, structure, model, workers):
        # 50-replica chunks run in 7-row blocks, the last one short; each chunk
        # must equal one whole draw from its generator run in one piece
        monkeypatch.setattr(cascade, "_BLOCK", 7)
        monkeypatch.setattr(cascade, "_CHUNK", 50)
        n, replicas = structure.n, 120
        got = sample_bundle_strengths(model, rule, structure, replicas, seed=5, workers=workers)
        parts = []
        for ci, size in enumerate([50, 50, 20]):
            x = model.sample(cascade._chunk_rng(5, ci), n, size)
            if n > 20:  # no table: the scalar cascade is the chunk's reference
                parts.append([simulate_cascade(row, rule, structure).strength for row in x])
            else:
                parts.append(cascade._cascade_strengths_block(x, share_table(rule, n), structure))
        assert np.array_equal(got, np.concatenate(parts))

    def test_sampler_memory_does_not_grow_with_the_chunk(self):
        # a whole 65,536 x 12 chunk takes 6.3 MB per temporary (27 MiB peak);
        # 4,096-row blocks keep the peak near 2.2 MiB (4.0 MiB at 8,192 rows)
        rule, structure = grid_rule(3, 4), StructureFunction.column_paths(3, 4)
        share_table(rule, 12)
        tracemalloc.start()
        try:
            sample_bundle_strengths(StrengthModel("weibull", 5.0, 1.0), rule, structure,
                                    1 << 16, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 << 20

    def test_kernel_handles_zero_strengths(self):
        # a zero strength fails at load 0; the bundle then carries on with the rest
        x = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [2.0, 3.0]])
        got = cascade._cascade_strengths_block(
            x, share_table(EqualRule(2), 2), StructureFunction.parallel(2))
        assert got.tolist() == [0.5, 0.5, 0.0, 2.0]
        assert x[0].tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("mask", [0b111, 0b011], ids=["first-cycle", "second-cycle"])
    def test_kernel_stops_on_a_nan_stress(self, mask):
        # a NaN share row gives a NaN Phase-I stress, at which no component
        # fails: the replica never retires, and the loop would never end
        table = share_table(EqualRule(3), 3).copy()
        table[mask] = np.nan
        x = np.array([[1.0, 2.0, 0.5], [0.7, 0.9, 0.3]])
        with pytest.raises(ArithmeticError, match="NaN stress"):
            cascade._cascade_strengths_block(x, table, StructureFunction.parallel(3))

    def test_kernel_returns_an_empty_block(self):
        got = cascade._cascade_strengths_block(
            np.empty((0, 3)), share_table(EqualRule(3), 3), StructureFunction.parallel(3))
        assert got.shape == (0,)

    @pytest.mark.parametrize("structure", [StructureFunction.column_paths(3, 3),
                                           StructureFunction.parallel(9)],
                             ids=["column-paths", "parallel"])
    def test_scalar_cascade_equals_kernel_on_zero_strengths(self, structure):
        # underflowed draws: 5% of the strengths are exactly 0.0
        rule = grid_rule(3, 3)
        rng = np.random.default_rng(11)
        x = StrengthModel("weibull", 2.0, 1.0).sample(rng, 9, 2000)
        x[rng.random(x.shape) < 0.05] = 0.0
        assert 0 < np.count_nonzero(x == 0.0) and (x == 0.0).all(axis=1).sum() == 0
        fast = cascade._cascade_strengths_block(x, share_table(rule, 9), structure)
        results = [simulate_cascade(row, rule, structure) for row in x]
        assert np.array_equal(fast, [r.strength for r in results])
        assert any(r.phase1_stresses[0] == 0.0 for r in results)
        for row, res in zip(x, results):
            assert replay_pattern(res.pattern, row, rule, structure)

    @pytest.mark.parametrize("rows, cols", [pytest.param(4, 4, marks=pytest.mark.slow, id="4x4"),
                                            pytest.param(2, 5, id="2x5")])
    def test_kernel_equals_scalar_cascade_on_wide_grids(self, rows, cols):
        # one absorbing table (65,536 rows on 4x4), both structures
        n, rule = rows * cols, grid_rule(rows, cols)
        table = share_table(rule, n)
        x = StrengthModel("weibull", 5.0, 2.0).sample(np.random.default_rng(13), n, 300)
        for structure in (StructureFunction.column_paths(rows, cols), StructureFunction.parallel(n)):
            fast = cascade._cascade_strengths_block(x, table, structure)
            slow = [simulate_cascade(row, rule, structure).strength for row in x]
            assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("rule", [grid_rule(3, 3), EqualRule(9)], ids=["absorbing", "equal"])
    @pytest.mark.parametrize("structure", [StructureFunction.column_paths(3, 3),
                                           StructureFunction.parallel(9)],
                             ids=["column-paths", "parallel"])
    def test_kernel_equals_scalar_cascade_on_ties(self, rule, structure):
        # all-equal rows, then rows whose minimum is shared by two or three
        # components: the first in component order fails in Phase I
        rng = np.random.default_rng(23)
        x = StrengthModel("weibull", 5.0, 2.0).sample(rng, 9, 600)
        x[:100] = rng.choice([0.5, 1.0, 2.0], size=(100, 1))
        low = x.min(axis=1)
        for k, cols in enumerate(([0, 8], [4, 5], [2, 6, 7], [1, 3])):
            x[100 * (k + 1):100 * (k + 2), cols] = low[100 * (k + 1):100 * (k + 2), None]
        x[500:] = np.round(x[500:], 1)  # ties anywhere in the row
        fast = cascade._cascade_strengths_block(x, share_table(rule, 9), structure)
        results = [simulate_cascade(row, rule, structure) for row in x]
        assert np.array_equal(fast, [r.strength for r in results])
        assert any(len(r.pattern.cycles[0].groups) for r in results[:100])

    @pytest.mark.parametrize("rule", [grid_rule(3, 3), EqualRule(9)], ids=["absorbing", "equal"])
    @pytest.mark.parametrize("structure", [StructureFunction.column_paths(3, 3),
                                           StructureFunction.parallel(9)],
                             ids=["column-paths", "parallel"])
    def test_kernel_equals_scalar_cascade_with_one_nonzero_strength(self, rule, structure):
        # every strength but one is 0.0: the zeros fail at load 0 in the first
        # cycle, so the 0 / 0 ratios of later cycles must not be taken as minima
        x = np.zeros((9 * 20, 9))
        x[np.arange(x.shape[0]), np.arange(x.shape[0]) % 9] = np.linspace(0.1, 5.0, x.shape[0])
        x_in = x.copy()
        fast = cascade._cascade_strengths_block(x, share_table(rule, 9), structure)
        assert np.array_equal(fast, [simulate_cascade(row, rule, structure).strength for row in x])
        assert np.array_equal(x, x_in)

    def test_zero_strengths_over_twenty_components_match_daniels(self):
        # at shape 0.01 a draw below about 1e-3.08 underflows to 0.0 (a few
        # percent of the rows); the equal rule's strength is Daniels' max over k
        # of x_(k) (n - k + 1) / n, on the scalar path
        n, model = 21, StrengthModel("weibull", 0.01, 1.0)
        got = sample_bundle_strengths(model, EqualRule(n), StructureFunction.parallel(n), 1000, seed=2)
        x = np.sort(model.sample(cascade._chunk_rng(2, 0), n, 1000), axis=1)
        assert (x[:, 0] == 0.0).sum() >= 5
        want = (x * (n - np.arange(n)) / n).max(axis=1)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_negative_and_nan_strengths_still_rejected(self):
        for bad in (-1e-300, math.nan):
            with pytest.raises(ValueError, match="strictly positive or zero"):
                simulate_cascade([bad, 1.0], EqualRule(2), StructureFunction.parallel(2))

    def test_sampler_output_is_the_only_large_array(self):
        # 2^21 replicas: 16 MiB of strengths, written chunk by chunk in place
        replicas = 1 << 21
        rule, structure = EqualRule(2), StructureFunction.parallel(2)
        share_table(rule, 2)
        tracemalloc.start()
        try:
            out = sample_bundle_strengths(unit_exponential(), rule, structure, replicas, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.size == replicas
        assert peak < 1.25 * out.nbytes

    def test_sampler_rejects_non_monotone_rule(self):
        with pytest.raises(NonMonotoneRuleError, match="dropped"):
            sample_bundle_strengths(unit_exponential(), size_rule, StructureFunction.parallel(3), 10)

    def test_sampler_rejects_all_zero_shares(self):
        # every ratio x / 0.0 is +inf, so the kernel never finds a failure
        def zero_rule(member):
            return np.zeros(member.shape)

        with pytest.raises(ValueError, match="finite share > 0"):
            sample_bundle_strengths(unit_exponential(), zero_rule, StructureFunction.parallel(3), 3)

    def test_bundle_too_large_for_a_table_uses_scalar_path(self, monkeypatch):
        # a 2^21 x 21 float64 table would take 352 MB
        def no_table(rule, n):
            raise AssertionError(f"dense share table requested for n = {n}")

        monkeypatch.setattr(cascade, "share_table", no_table)
        rule, st = EqualRule(21), StructureFunction.parallel(21)
        got = sample_bundle_strengths(unit_exponential(), rule, st, 3, seed=4)
        x = unit_exponential().sample(cascade._chunk_rng(4, 0), 21, 3)
        assert np.array_equal(got, [simulate_cascade(row, rule, st).strength for row in x])

    def test_bundle_too_large_for_a_table_runs_on_the_pool(self, monkeypatch):
        pools = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cascade, "_CHUNK", 50)
        # the sampler imports the pool class from concurrent.futures when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        model, rule, st = unit_exponential(), EqualRule(21), StructureFunction.parallel(21)
        serial = sample_bundle_strengths(model, rule, st, 200, seed=6, workers=1)
        pooled = sample_bundle_strengths(model, rule, st, 200, seed=6, workers=2)
        assert pools == [2]
        assert np.array_equal(serial, pooled)
        x = np.concatenate([model.sample(cascade._chunk_rng(6, ci), 21, 50) for ci in range(4)])
        assert np.array_equal(serial, [simulate_cascade(row, rule, st).strength for row in x])

    @pytest.mark.parametrize("workers, chunks, processes", [(64, 3, 3), (2, 3, 2), (6, 2, 2)])
    def test_pool_starts_a_process_per_chunk_at_most(self, monkeypatch, workers, chunks,
                                                     processes):
        pools, tasks = [], []

        class InlinePool:
            """Records its size and runs ``map`` in this process, one task per item."""

            def __init__(self, max_workers, initializer, initargs):
                pools.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                items = list(items)
                tasks.append((len(items), chunksize))
                return map(fn, items)

        monkeypatch.setattr(cascade, "_CHUNK", 50)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        model, rule, st = unit_exponential(), EqualRule(3), StructureFunction.parallel(3)
        replicas = 50 * chunks - 7
        pooled = sample_bundle_strengths(model, rule, st, replicas, seed=2, workers=workers)
        assert pools == [processes]
        assert tasks == [(chunks, 1)]
        serial = sample_bundle_strengths(model, rule, st, replicas, seed=2, workers=1)
        assert np.array_equal(pooled, serial)


class TestChain:
    def test_length_one_keeps_distribution(self):
        pool = np.random.default_rng(0).uniform(size=20_000)
        out = chain_strength(pool, 1, seed=1)
        assert sps.ks_2samp(pool, out).statistic < 0.02

    def test_chain_of_two_uniform_closed_form(self):
        pool = np.random.default_rng(1).uniform(size=400_000)
        out = chain_strength(pool, 2, seed=2)
        assert sps.kstest(out, lambda x: 1 - (1 - x) ** 2).statistic < 0.01

    @pytest.mark.parametrize("m", [3, 5, 22])
    def test_blocks_equal_one_draw_of_every_row(self, monkeypatch, m):
        # 7-row blocks of m indices: odd counts of 32-bit draws per block, the last block short
        monkeypatch.setattr(cascade, "_BLOCK", 7)
        pool = np.random.default_rng(4).uniform(size=1001)
        idx = np.random.default_rng([9]).integers(0, pool.size, size=(101, m))
        assert np.array_equal(chain_strength(pool, m, seed=9, draws=101),
                              pool[idx].min(axis=1))

    def test_chain_validation(self):
        with pytest.raises(ValueError, match="chain length must be >= 1"):
            chain_strength(np.array([1.0]), 0)
        with pytest.raises(ValueError):
            chain_strength(np.array([]), 2)

    def test_chain_tail_scaling(self):
        # deep in the tail the chain CDF is m times the bundle CDF, so the
        # chain inherits the bundle's Weibull shape
        rule = grid_rule(2, 2)
        pool = sample_bundle_strengths(
            StrengthModel("weibull", 2.0, 1.0), rule,
            StructureFunction.column_paths(2, 2), 2_000_000, seed=5,
        )
        pool_sorted = np.sort(pool)
        x0 = np.quantile(pool, 2e-4)
        f1 = np.searchsorted(pool_sorted, x0) / pool.size
        for m in (4, 22):
            chain = chain_strength(pool, m, seed=6, draws=2_000_000)
            ratio = np.mean(chain <= x0) / f1
            assert 0.85 * m <= ratio <= 1.15 * m

    def test_parallel_lower_tail_exponent(self):
        # parallel bundle of n Weibull(rho) components: tail exponent n * rho
        s = sample_bundle_strengths(
            StrengthModel("weibull", 2.0, 1.0), EqualRule(2),
            StructureFunction.parallel(2), 2_000_000, seed=7,
        )
        from fiberbundle.stats import lower_tail_slope

        fit = lower_tail_slope(s, window=(1e-4, 1e-2))
        assert 3.5 <= fit.slope <= 4.5


class TestCycles:
    def test_single_component_closed_form(self):
        k = cycles_to_failure([1.0], EqualRule(1), StructureFunction.parallel(1),
                              s_star=0.5, a=0.8)
        assert k == 5

    def test_immediate_failure(self):
        k = cycles_to_failure([0.3, 0.4], EqualRule(2), StructureFunction.parallel(2),
                              s_star=1.0, a=0.9)
        assert k == 1

    @pytest.mark.parametrize("a", [1.0, 1.3])
    def test_no_degradation_rejected(self, a):
        with pytest.raises(ValueError, match="first cycle"):
            cycles_to_failure([1.0], EqualRule(1), StructureFunction.parallel(1),
                              s_star=0.5, a=a)

    @pytest.mark.parametrize("s_star", [0.0, -1.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_peak_rejected(self, s_star):
        with pytest.raises(ValueError, match="s_star must be positive and finite"):
            cycles_to_failure([1.0], EqualRule(1), StructureFunction.parallel(1),
                              s_star=s_star, a=0.8)
        with pytest.raises(ValueError, match="s_star must be positive and finite"):
            cycles_to_failure_samples(unit_exponential(), EqualRule(1),
                                      StructureFunction.parallel(1), s_star=s_star, a=0.8,
                                      replicas=10)

    def test_explicit_cycle_replay_oracle(self):
        # independent slow path: actually run the per-cycle cascades against
        # degraded strengths, keeping failed components failed across cycles
        def slow(x, rule, st, s_star, a):
            n = st.n
            working = frozenset(range(n))
            k = 1
            while True:
                xs = np.asarray(x) * a ** (k - 1)
                while True:
                    lam = rule(members(n, working))[0]
                    ratios = {i: xs[i] / lam[i] for i in working}
                    i0 = min(ratios, key=lambda i: (ratios[i], i))
                    s = ratios[i0]
                    if s > s_star:
                        break
                    working = working - {i0}
                    while working:
                        lam2 = rule(members(n, working))[0]
                        grp = {i for i in working if xs[i] <= lam2[i] * s}
                        if not grp:
                            break
                        working = working - grp
                    if not st.works(working):
                        return k
                k += 1

        rule = grid_rule(2, 2)
        st = StructureFunction.column_paths(2, 2)
        rng = np.random.default_rng(7)
        for _ in range(60):
            x = rng.standard_exponential(4) + 0.1
            a = rng.uniform(0.5, 0.95)
            s_star = rng.uniform(0.2, 1.5)
            assert cycles_to_failure(x, rule, st, s_star, a) == slow(x, rule, st, s_star, a)

    def test_vectorized_matches_scalar(self):
        rule = EqualRule(3)
        st = StructureFunction.parallel(3)
        model = unit_exponential()
        ks = cycles_to_failure_samples(model, rule, st, s_star=0.4, a=0.7,
                                       replicas=400, seed=13)
        from fiberbundle.cascade import _chunk_rng

        x = model.sample(_chunk_rng(13, 0), 3, 400)
        slow = np.array([cycles_to_failure(row, rule, st, 0.4, 0.7) for row in x])
        assert np.array_equal(ks, slow)

    def test_counts_across_a_block_boundary(self):
        # the counts overwrite the strengths block by block, in the same int64 array
        rule, st = EqualRule(2), StructureFunction.parallel(2)
        model = unit_exponential()
        replicas = cascade._BLOCK + 300
        ks = cycles_to_failure_samples(model, rule, st, s_star=0.3, a=0.8,
                                       replicas=replicas, seed=21)
        assert ks.dtype == np.int64 and ks.size == replicas
        rng = cascade._chunk_rng(21, 0)
        x = np.concatenate([model.sample(rng, 2, cascade._BLOCK), model.sample(rng, 2, 300)])
        slow = np.array([cycles_to_failure(row, rule, st, 0.3, 0.8) for row in x])
        assert np.array_equal(ks, slow)
        assert np.ptp(ks[cascade._BLOCK - 50:]) > 0

    def test_count_is_the_samplers_at_a_rounding_boundary(self, monkeypatch):
        # a**10 * S is s_star exactly, but ten multiplications of S by a stay above it
        S, s_star, a = 15.222729838750425, 1.2697400543594541, 0.7800496170575828
        assert a ** 10 * S <= s_star < a ** 9 * S
        rule, st = EqualRule(1), StructureFunction.parallel(1)
        assert cycles_to_failure([S], rule, st, s_star, a) == 11
        monkeypatch.setattr(cascade, "sample_bundle_strengths", lambda *args: np.array([S]))
        ks = cycles_to_failure_samples(unit_exponential(), rule, st, s_star, a, replicas=1)
        assert ks.tolist() == [11]

    def test_median_cycles_monotone_in_a(self):
        medians = []
        for a in (0.5, 0.7, 0.9):
            ks = cycles_to_failure_samples(
                unit_exponential(), EqualRule(2), StructureFunction.parallel(2),
                s_star=0.3, a=a, replicas=20_000, seed=17,
            )
            medians.append(np.median(ks))
        assert medians[0] <= medians[1] <= medians[2]
