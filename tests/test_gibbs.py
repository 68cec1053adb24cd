"""Subset-lattice transforms, exact state measures, and the LMF reduction."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from fiberbundle import gibbs as gb
from fiberbundle.cascade import StructureFunction, sample_bundle_strengths
from fiberbundle.distributions import StrengthModel, unit_exponential
from fiberbundle.loadshare import (
    AbsorbingRule,
    Configuration,
    EqualRule,
    UnitRule,
    build_grid_graph,
    transition_matrix,
)

WEIBULL = StrengthModel("weibull", 5.0, 2.0)


def popcounts(n):
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(int)


class TestLogOdds:
    def test_unit_exponential_closed_form(self):
        # log(e^-1 / (1 - e^-1)) = -1 - log(1 - e^-1)
        expected = -1.0 - math.log(1.0 - math.exp(-1.0))
        val = gb.log_odds(Configuration(1, frozenset({0})), 0, 1.0, UnitRule(1), unit_exponential())
        assert val == pytest.approx(expected, abs=1e-12)
        assert val == pytest.approx(-0.5413248546, abs=1e-9)

    def test_weibull_same_closed_form(self):
        # lambda = 1, shape 5, scale 2 at s = 2: survival e^-1 again
        val = gb.log_odds(Configuration(3, frozenset(range(3))), 1, 2.0, UnitRule(3), WEIBULL)
        assert val == pytest.approx(-1.0 - math.log(1.0 - math.exp(-1.0)), abs=1e-12)

    def test_strictly_decreasing_in_load(self):
        vals = [
            gb.log_odds(Configuration(2, frozenset({0, 1})), 0, s, EqualRule(2), WEIBULL)
            for s in (0.5, 1.0, 1.5, 2.5)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_positivity_violation_reported(self):
        class Bounded:
            def cdf(self, x):
                return np.clip(x, 0.0, 1.0)

            def sf(self, x):
                return 1.0 - self.cdf(x)

        with pytest.raises(gb.PositivityError, match="positivity"):
            gb.log_odds(Configuration(1, frozenset({0})), 0, 2.0, UnitRule(1), Bounded())

    @pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
    def test_bad_load_rejected(self, s):
        with pytest.raises(ValueError, match=f"load must be positive and finite, got {s}") as exc:
            gb.log_odds(Configuration(3, frozenset(range(3))), 0, s, EqualRule(3), WEIBULL)
        assert not isinstance(exc.value, gb.PositivityError)

    def test_per_component_laws(self):
        # component 2 of the scale vector is the scalar-scale law
        a, want = Configuration(3, frozenset(range(3))), 6.018648775592192
        assert gb.log_odds(a, 2, 0.6, EqualRule(3), WEIBULL) == want
        scales = (1.0, 1.5, 2.0)
        assert gb.log_odds(a, 2, 0.6, EqualRule(3), StrengthModel("weibull", 5.0, scales)) == want
        laws = [StrengthModel("weibull", 5.0, sc) for sc in scales]
        assert gb.log_odds(a, 2, 0.6, EqualRule(3), laws) == want
        assert gb.log_odds(a, 0, 0.6, EqualRule(3), laws) == gb.log_odds(
            a, 0, 0.6, EqualRule(3), laws[0])

    def test_log_odds_are_build_gibbs_site_terms(self):
        rule = AbsorbingRule(transition_matrix(build_grid_graph(2, 2)))
        model = StrengthModel("weibull", 3.0, (1.0, 1.5, 2.0, 0.8))
        sigma = gb.build_gibbs(4, 0.7, rule, model).sigma.values
        for mask in range(1, 16):
            # summed in component order from 0.0, as build_gibbs aggregates them
            a = Configuration.from_mask(4, mask)
            assert sum(gb.log_odds(a, i, 0.7, rule, model) for i in sorted(a.working)) == sigma[mask]

    def test_positivity_message_names_the_mask(self):
        with pytest.raises(gb.PositivityError, match=r"component 2, configuration mask 5, "
                           r"load 1\.4999999999999998e-80: survival probability is 1\.0$"):
            gb.log_odds(Configuration(3, frozenset({0, 2})), 2, 1e-80, EqualRule(3), WEIBULL)

    def test_deep_load_stays_finite(self):
        # survival underflows in plain arithmetic; log-space value must stay finite
        val = gb.log_odds(Configuration(1, frozenset({0})), 0, 12.8, UnitRule(1), WEIBULL)
        assert np.isfinite(val)
        assert val == pytest.approx(-((12.8 / 2.0) ** 5), rel=1e-12)


class TestMobius:
    def test_constant_site_odds_give_singleton_potentials(self):
        rng = np.random.default_rng(0)
        n = 6
        consts = rng.normal(size=n)
        sigma = np.zeros(1 << n)
        for mask in range(1, 1 << n):
            sigma[mask] = sum(consts[i] for i in range(n) if mask >> i & 1)
        v = gb.mobius_potentials(gb.SubsetTable(n, sigma))
        assert np.allclose([v.values[1 << i] for i in range(n)], consts)
        assert np.max(np.abs(v.values[popcounts(n) >= 2])) < 1e-12

    def test_cardinality_energy(self):
        # V = -1 on singletons, 0 elsewhere -> U(B) = |B|
        n = 5
        v = np.zeros(1 << n)
        for i in range(n):
            v[1 << i] = -1.0
        u = gb.mobius_energy(gb.SubsetTable(n, v))
        assert np.array_equal(u.values, popcounts(n).astype(float))

    def test_roundtrip_random_tables(self):
        rng = np.random.default_rng(1)
        for n in (4, 8, 12):
            u = rng.normal(size=1 << n)
            u[0] = 0.0
            table = gb.SubsetTable(n, u)
            back = gb.mobius_energy(gb.potentials_from_energy(table))
            assert np.max(np.abs(back.values - u)) < 1e-9

    def test_zero_potentials_give_uniform_measure(self):
        n = 4
        u = gb.mobius_energy(gb.SubsetTable(n, np.zeros(1 << n)))
        model = gb.GibbsModel(n=n, s=1.0, sigma=gb.SubsetTable(n, np.zeros(1 << n)),
                              potentials=gb.SubsetTable(n, np.zeros(1 << n)),
                              energy=u, logz=float(n) * math.log(2.0))
        assert np.allclose(model.probabilities(), 1.0 / (1 << n))

    def test_sum_of_potentials_identity(self):
        # sum of V over subsets of A containing i equals U(A \ i) - U(A)
        rng = np.random.default_rng(2)
        n = 8
        v = rng.normal(size=1 << n)
        v[0] = 0.0
        vt = gb.SubsetTable(n, v)
        u = gb.mobius_energy(vt)
        for mask in rng.integers(1, 1 << n, size=40):
            mask = int(mask)
            members = [i for i in range(n) if mask >> i & 1]
            i = members[0]
            total = sum(
                v[k] for k in range(1 << n) if (k & mask) == k and k >> i & 1
            )
            assert total == pytest.approx(u.values[mask ^ (1 << i)] - u.values[mask], abs=1e-9)

    def test_value_reads_the_mask(self):
        table = gb.SubsetTable(3, np.arange(8.0))
        assert table.value(frozenset({0, 2})) == 5.0
        with pytest.raises(ValueError, match="out-of-range"):
            table.value(frozenset({3}))

    def test_nonzero_empty_set_rejected(self):
        bad = np.ones(1 << 3)
        with pytest.raises(ValueError):
            gb.mobius_potentials(gb.SubsetTable(3, bad))


class TestBuildGibbs:
    def test_single_component(self):
        model = gb.build_gibbs(1, 1.0, UnitRule(1), WEIBULL)
        assert model.prob(frozenset({0})) == pytest.approx(float(WEIBULL.sf(1.0)), abs=1e-12)
        assert model.prob(frozenset()) == pytest.approx(float(WEIBULL.cdf(1.0)), abs=1e-12)

    def test_independence_oracle(self):
        n = 10
        model = gb.build_gibbs(n, 1.0, UnitRule(n), WEIBULL)
        pop = popcounts(n)
        fbar = float(WEIBULL.sf(1.0))
        product = fbar**pop * (1.0 - fbar) ** (n - pop)
        assert gb.total_variation(model.probabilities(), product) < 1e-10

    def test_probabilities_sum_to_one(self):
        rule = AbsorbingRule(transition_matrix(build_grid_graph(2, 3)))
        model = gb.build_gibbs(6, 0.9, rule, WEIBULL)
        assert model.probabilities().sum() == pytest.approx(1.0, abs=1e-9)

    def test_local_structure_recovery_independent(self):
        n = 6
        model = gb.build_gibbs(n, 1.2, UnitRule(n), WEIBULL)
        sigma_i = gb.log_odds(Configuration(n, frozenset(range(n))), 0, 1.2, UnitRule(n), WEIBULL)
        logp = model.log_probs
        for mask in range(1, 1 << n):
            for i in range(n):
                if mask >> i & 1:
                    assert logp[mask] - logp[mask ^ (1 << i)] == pytest.approx(
                        sigma_i, abs=1e-9
                    )

    @pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
    def test_bad_load_rejected(self, s):
        with pytest.raises(ValueError, match=f"load must be positive and finite, got {s}") as exc:
            gb.build_gibbs(3, s, EqualRule(3), WEIBULL)
        assert not isinstance(exc.value, gb.PositivityError)

    def test_enumeration_bound(self):
        with pytest.raises(ValueError, match="sampling"):
            gb.build_gibbs(21, 1.0, UnitRule(21), WEIBULL)

    def test_per_component_distributions(self):
        n = 3
        dists = [StrengthModel("weibull", 5.0, sc) for sc in (1.5, 2.0, 2.5)]
        model = gb.build_gibbs(n, 1.0, UnitRule(n), dists)
        expected = 1.0
        for d in dists:
            expected *= float(d.sf(1.0))
        assert model.prob(frozenset(range(n))) == pytest.approx(expected, rel=1e-10)

    def test_per_component_scale_vector(self):
        scales = (1.0, 1.5, 2.0)
        vector = gb.build_gibbs(3, 0.5, EqualRule(3), StrengthModel("weibull", 5.0, scales))
        listed = gb.build_gibbs(3, 0.5, EqualRule(3),
                                [StrengthModel("weibull", 5.0, sc) for sc in scales])
        assert np.array_equal(vector.sigma.values, listed.sigma.values)
        assert np.array_equal(vector.energy.values, listed.energy.values)
        assert vector.logz == listed.logz

    def test_scale_vector_length_checked(self):
        with pytest.raises(ValueError, match="length 2"):
            gb.build_gibbs(3, 0.5, EqualRule(3), StrengthModel("weibull", 5.0, (1.0, 2.0)))

    def test_grid_potentials_finite(self):
        rule = AbsorbingRule(transition_matrix(build_grid_graph(2, 2)))
        model = gb.build_gibbs(4, 0.2, rule, WEIBULL)
        assert np.all(np.isfinite(model.potentials.values))
        assert np.all(np.isfinite(model.energy.values))


@dataclass
class HalfEqualRule:
    """Non-frozen dataclass rule: it defines __eq__, so it is unhashable."""

    n: int

    def __call__(self, member):
        return np.where(member, 0.5 * self.n / member.sum(axis=1, keepdims=True), 0.0)


class TestOneTablePerRule:
    def test_rule_called_once_per_mask(self):
        n = 4
        calls = []

        def counting(member):
            calls.extend(int(m) for m in member @ (1 << np.arange(n)))
            return EqualRule(n)(member)

        samples = sample_bundle_strengths(unit_exponential(), counting,
                                          StructureFunction.parallel(n), 1000, seed=2)
        for p in (10, 50):
            gb.build_gibbs(n, gb.strength_percentile(samples, p), counting, WEIBULL)
        assert sorted(calls) == list(range(1, 1 << n))

    def test_unhashable_rule(self):
        rule = HalfEqualRule(3)
        with pytest.raises(TypeError):
            hash(rule)
        samples = sample_bundle_strengths(unit_exponential(), rule,
                                          StructureFunction.parallel(3), 500, seed=1)
        level = float(np.median(samples))
        model = gb.build_gibbs(3, level, rule, WEIBULL)
        expected = gb.build_gibbs(3, level, lambda member: rule(member), WEIBULL)
        assert np.array_equal(model.energy.values, expected.energy.values)


class TestLMF:
    def test_self_fit_exact(self):
        rule = AbsorbingRule(transition_matrix(build_grid_graph(2, 3)))
        model = gb.build_gibbs(6, 0.8, rule, WEIBULL)
        fit = gb.lmf_fit(model, model)
        assert fit.slope == pytest.approx(1.0, abs=1e-9)
        assert fit.intercept == pytest.approx(0.0, abs=1e-9)
        assert fit.tv_error <= 1e-9
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_independent_case_reduces_to_singletons(self):
        n = 5
        m1 = gb.build_gibbs(n, 0.8, UnitRule(n), WEIBULL)
        m2 = gb.build_gibbs(n, 1.1, UnitRule(n), WEIBULL)
        pop = popcounts(n)
        assert np.max(np.abs(m1.potentials.values[pop >= 2])) < 1e-12
        fit = gb.lmf_fit(m1, m2)
        # potentials live on n singleton points; identical components make
        # them equal, so the fit matches those points exactly
        v1 = m1.potentials.values[1]
        v2 = m2.potentials.values[1]
        assert fit.slope * v1 + fit.intercept == pytest.approx(v2, abs=1e-9)

    def test_median_potentials_by_size(self):
        rule = AbsorbingRule(transition_matrix(build_grid_graph(2, 2)))
        m1 = gb.build_gibbs(4, 0.5, rule, WEIBULL)
        fit = gb.lmf_fit(m1, m1)
        pop = popcounts(4)
        for k in range(1, 5):
            assert fit.median_potentials[k - 1] == pytest.approx(
                float(np.median(m1.potentials.values[pop == k]))
            )

    def test_degenerate_fit_rejected(self):
        m1 = gb.build_gibbs(1, 1.0, UnitRule(1), WEIBULL)
        with pytest.raises(ValueError, match="degenerate"):
            gb.lmf_fit(m1, m1)

    def test_mismatched_models_rejected(self):
        m1 = gb.build_gibbs(2, 1.0, UnitRule(2), WEIBULL)
        m2 = gb.build_gibbs(3, 1.0, UnitRule(3), WEIBULL)
        with pytest.raises(ValueError):
            gb.lmf_fit(m1, m2)


class TestStrengthPercentile:
    def test_midpoint_convention(self):
        assert gb.strength_percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)

    def test_small_p_approaches_min(self):
        data = [5.0, 1.0, 9.0, 3.0]
        assert gb.strength_percentile(data, 0.001) == pytest.approx(1.0, abs=1e-3)

    def test_sequence_equals_one_call_per_p(self):
        data = np.random.default_rng(5).weibull(5.0, 10_001)
        ps = [0.001, 1.0, 10.0, 50.0, 99.9]
        got = gb.strength_percentile(data, ps)
        assert got == [gb.strength_percentile(data, p) for p in ps]
        assert all(type(v) is float for v in got)

    def test_sample_is_left_in_its_order(self):
        data = np.random.default_rng(6).weibull(5.0, 1001)
        kept = data.copy()
        level = gb.strength_percentile(data, 37.5)
        assert type(level) is float
        assert level == float(np.quantile(kept, 0.375))
        assert np.array_equal(data, kept)

    def test_validation(self):
        with pytest.raises(ValueError):
            gb.strength_percentile([], 50)
        with pytest.raises(ValueError):
            gb.strength_percentile([1.0], [50.0, 100.0])
        with pytest.raises(ValueError):
            gb.strength_percentile([1.0], 0.0)
        with pytest.raises(ValueError):
            gb.strength_percentile([1.0], 100.0)


class TestLogSumExp:
    def test_bit_identical_to_scipy(self):
        from scipy.special import logsumexp

        rng = np.random.default_rng(0)
        for trial in range(600):
            scale = float(rng.choice([1e-3, 1.0, 30.0, 1e3]))
            a = rng.normal(scale=scale, size=int(rng.integers(1, 3000)))
            if trial % 3 == 0:
                a = np.round(a, 1)  # ties, at the maximum too
            if trial % 5 == 0:
                a[: a.size // 2] = a.max()
            assert gb._logsumexp(a) == float(logsumexp(a))

    def test_energies_of_a_built_model(self):
        from scipy.special import logsumexp

        model = gb.build_gibbs(6, 1.2, AbsorbingRule(transition_matrix(build_grid_graph(2, 3))),
                               WEIBULL)
        assert model.logz == float(logsumexp(-model.energy.values))
