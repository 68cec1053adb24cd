"""Censored-data estimators and the partition-based Dirichlet posterior."""

import logging
import math
import tracemalloc

import numpy as np
import pytest

from fiberbundle import stats as st
from fiberbundle.distributions import StrengthModel


def _kaplan_meier_loop(values, events):
    """The per-time rescan the estimator used to run: at-risk and death counts
    of each event time from the whole sample; (times, survival, variance)."""
    values, events = np.asarray(values, dtype=float), np.asarray(events, dtype=bool)
    times, surv, var = [], [], []
    s, greenwood = 1.0, 0.0
    for t in np.unique(values[events]):
        at_risk = int(np.sum(values >= t))
        deaths = int(np.sum((values == t) & events))
        s *= 1.0 - deaths / at_risk
        if at_risk > deaths:
            greenwood += deaths / (at_risk * (at_risk - deaths))
            var_t = s * s * greenwood
        else:
            var_t = 0.0
        times.append(t)
        surv.append(s)
        var.append(var_t)
    return np.array(times), np.array(surv), np.array(var)


class TestKaplanMeier:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_per_time_loop_exactly(self, seed):
        # rounded draws give ties; censoring at 0-60%; odd seeds end on deaths
        rng = np.random.default_rng(seed)
        size = int(rng.integers(5, 400))
        values = np.round(rng.weibull(2.0, size) * 3, int(rng.integers(1, 3))) + 0.05
        events = rng.random(size) >= rng.uniform(0.0, 0.6)
        events[values == values.max()] = seed % 2 == 1
        km = st.kaplan_meier(list(zip(values, ~events)))
        times, surv, var = _kaplan_meier_loop(values, events)
        assert np.array_equal(km.times, times)
        assert np.array_equal(km.survival, surv)
        assert np.array_equal(km.variance, var)
        assert (km.survival[-1] == 0.0) == (seed % 2 == 1)

    def test_hand_product_limit(self):
        km = st.kaplan_meier([(1.0, False), (2.0, True), (3.0, False)])
        assert km.times == pytest.approx([1.0, 3.0])
        assert km.survival == pytest.approx([2 / 3, 0.0])

    def test_no_censoring_equals_one_minus_ecdf(self):
        rng = np.random.default_rng(0)
        xs = rng.exponential(size=200)
        km = st.kaplan_meier([(v, False) for v in xs])
        expected = 1.0 - np.arange(1, 201) / 200
        assert np.allclose(km.survival, expected)

    def test_all_censored_constant_one(self, caplog):
        with caplog.at_level(logging.WARNING, logger="fiberbundle.stats"):
            km = st.kaplan_meier([(1.0, True), (2.0, True)])
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("fiberbundle.stats", logging.WARNING,
             "all observations are censored; survival curve is constant 1")]
        assert km.times.size == 0
        assert km.survival_at(5.0) == 1.0

    def test_ties_deaths_before_censorings(self):
        # censored at 2.0 still counts as at risk for the death at 2.0
        km = st.kaplan_meier([(1.0, False), (2.0, False), (2.0, True), (3.0, False)])
        assert km.survival == pytest.approx([3 / 4, 3 / 4 * 2 / 3, 0.0])

    def test_bands_contain_estimate_and_are_clipped(self):
        rng = np.random.default_rng(1)
        data = [(v, bool(c)) for v, c in zip(rng.exponential(size=60), rng.random(60) < 0.3)]
        km = st.kaplan_meier(data)
        assert np.all(km.lower <= km.survival + 1e-12)
        assert np.all(km.survival <= km.upper + 1e-12)
        assert np.all((km.lower >= 0) & (km.upper <= 1))

    def test_greenwood_value(self):
        km = st.kaplan_meier([(1.0, False), (2.0, False), (3.0, False)])
        # at t=1: S=2/3, var = S^2 * (1 / (3*2))
        assert km.variance[0] == pytest.approx((2 / 3) ** 2 / 6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            st.kaplan_meier([])

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ValueError, match="positive and finite, got 0.0$"):
            st.kaplan_meier([(0.0, False), (1.0, False), (2.0, True)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("estimator", [st.kaplan_meier, st.weibull_mle_censored])
    def test_non_finite_value_rejected(self, bad, estimator):
        # NaN <= 0 is false, so a sign test alone lets it through
        with pytest.raises(ValueError, match="positive and finite"):
            estimator([(bad, 0), (1.0, 0), (2.0, 0)])


class TestCensoredInput:
    @pytest.mark.parametrize("rows, message", [
        ([(1.0, False), (-2, True), (math.nan, False)], "positive and finite, got -2.0$"),
        ([(1.0, False), (0.0, True)], "positive and finite, got 0.0$"),
        ([(1.0, False), (math.inf, False)], "positive and finite, got inf$"),
        ([], "^empty sample$"),
    ], ids=["negative-first", "zero", "inf", "empty"])
    def test_both_estimators_reject_a_bad_row_alike(self, rows, message):
        errors = []
        for estimator in (st.kaplan_meier, st.weibull_mle_censored):
            with pytest.raises(ValueError, match=message) as info:
                estimator(rows)
            errors.append(str(info.value))
        assert errors[0] == errors[1]


def _brentq_rho_sigma(data):
    """The shape and scale of a censored Weibull fit, with the profile score's
    root found by ``scipy.optimize.brentq`` on the bracket [1e-3, 8 * 2**k]."""
    from scipy.optimize import brentq

    x = np.array([v for v, _ in data])
    event = ~np.array([c for _, c in data])
    logx = np.log(x)
    lmax, mean_unc = logx.max(), logx[event].mean()

    def profile(rho):
        w = np.exp(rho * (logx - lmax))
        return 1.0 / rho + mean_unc - np.sum(w * logx) / np.sum(w)

    hi = 8.0
    while profile(hi) > 0:
        hi *= 2.0
    rho = brentq(profile, 1e-3, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200)
    return rho, math.exp(lmax + math.log(np.sum(np.exp(rho * (logx - lmax))) / event.sum()) / rho)


def _criterion_11_sets():
    """Criterion 11's 200 data sets: 500 Weibull(22.04, 117.69) strengths each,
    censored at their 0.9 quantile."""
    model = StrengthModel("weibull", 22.04, 117.69)
    for seed in range(200):
        x = model.sample(np.random.default_rng([11, seed]), 1, 500).ravel()
        cut = np.quantile(x, 0.9)
        yield [(min(v, cut), v > cut) for v in x]


def _two_uncensored_sets():
    """One data set: 60 Weibull(5, 2) values, all but the two smallest censored."""
    xs = np.random.default_rng(5).weibull(5.0, size=60) * 2.0
    rank = np.argsort(np.argsort(xs))
    return [[(v, r >= 2) for v, r in zip(xs, rank)]]


class TestWeibullMLE:
    @pytest.mark.parametrize("sets", [_criterion_11_sets, _two_uncensored_sets],
                             ids=["criterion-11", "two-uncensored"])
    def test_newton_root_matches_brentq(self, sets):
        for data in sets():
            fit = st.weibull_mle_censored(data)
            rho, sigma = _brentq_rho_sigma(data)
            assert fit.converged
            assert abs(fit.rho - rho) <= 1e-13 * rho
            assert abs(fit.sigma - sigma) <= 1e-13 * sigma

    def test_no_finite_mle_rejected(self):
        # every uncensored value sits at the sample maximum: the likelihood grows without bound
        # in rho, where a root finder would return the end of its bracket, rho = 3.6e16
        with pytest.raises(ValueError, match="no finite MLE: the mean uncensored log value is "
                                             "not below the largest log value"):
            st.weibull_mle_censored([(2.0, False), (2.0, False), (1.0, True)])

    def test_recovers_generator_parameters(self):
        model = StrengthModel("weibull", 22.04, 117.69)
        x = model.sample(np.random.default_rng(7), 1, 500).ravel()
        cut = np.quantile(x, 0.9)
        data = [(min(v, cut), v > cut) for v in x]
        fit = st.weibull_mle_censored(data)
        assert fit.converged
        assert fit.rho == pytest.approx(22.04, rel=0.15)
        assert fit.sigma == pytest.approx(117.69, rel=0.15)

    def test_exponential_nesting(self):
        xs = np.random.default_rng(1).exponential(size=5000)
        fit = st.weibull_mle_censored([(v, False) for v in xs])
        assert fit.rho == pytest.approx(1.0, rel=0.05)

    def test_scale_equivariance(self):
        xs = np.random.default_rng(2).weibull(3.0, size=200) * 2.0
        data = [(v, i % 7 == 0) for i, v in enumerate(xs)]
        f1 = st.weibull_mle_censored(data)
        f2 = st.weibull_mle_censored([(v * 11.0, c) for v, c in data])
        assert f2.rho == pytest.approx(f1.rho, abs=1e-8)
        assert f2.sigma == pytest.approx(11.0 * f1.sigma, rel=1e-8)

    def test_loglik_is_maximum(self):
        xs = np.random.default_rng(3).weibull(4.0, size=300) * 1.5
        data = [(v, False) for v in xs]
        fit = st.weibull_mle_censored(data)

        def loglik(rho, sigma):
            z = xs / sigma
            return float(np.sum(np.log(rho / sigma) + (rho - 1) * np.log(z) - z**rho))

        best = loglik(fit.rho, fit.sigma)
        assert best == pytest.approx(fit.loglik, rel=1e-10)
        for drho, dsig in [(1.05, 1.0), (0.95, 1.0), (1.0, 1.05), (1.0, 0.95)]:
            assert loglik(fit.rho * drho, fit.sigma * dsig) < best

    def test_degenerate_data_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            st.weibull_mle_censored([(1.0, False), (2.0, True)])
        with pytest.raises(ValueError, match="degenerate"):
            st.weibull_mle_censored([(2.0, False)] * 5)


class TestWeibullPlot:
    def test_exact_weibull_is_linear(self):
        model = StrengthModel("weibull", 5.0, 2.0)
        grid = np.linspace(0.4, 5.0, 80)
        lx, ly = st.weibull_plot_points(grid, model.sf(grid))
        slope, intercept = np.polyfit(lx, ly, 1)
        assert slope == pytest.approx(5.0, abs=1e-9)
        assert intercept == pytest.approx(-5.0 * math.log(2.0), abs=1e-9)

    def test_exponential_slope_one(self):
        grid = np.linspace(0.1, 4.0, 50)
        lx, ly = st.weibull_plot_points(grid, np.exp(-grid))
        slope, _ = np.polyfit(lx, ly, 1)
        assert slope == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_survival_dropped(self):
        lx, ly = st.weibull_plot_points([0.5, 1.0, 2.0], [1.0, 0.5, 0.0])
        assert lx.size == 1 and ly.size == 1

    def test_from_samples_drops_last_point(self):
        xs = np.random.default_rng(0).weibull(2.0, size=1000)
        lx, ly = st.weibull_plot_from_samples(xs)
        assert lx.size == 999  # the maximum has empirical survival 0

    def test_blocks_equal_the_whole_plot(self, caplog):
        # three blocks; zero strengths (dropped) and a run of ties across the first bound
        rng = np.random.default_rng(6)
        block = st._PLOT_BLOCK
        xs = np.sort(rng.weibull(2.0, size=2 * block + 500))
        xs[:40] = 0.0
        xs[block - 100:block + 100] = xs[block - 100]
        rng.shuffle(xs)
        ranks = np.arange(1, xs.size + 1) / xs.size
        want = st.weibull_plot_points(np.sort(xs), 1.0 - ranks)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fiberbundle.stats"):
            blocks = list(st.weibull_plot_blocks(xs))
        assert len(blocks) == 3
        got = [np.concatenate(b) for b in zip(*blocks)]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert [r.getMessage() for r in caplog.records] == [
            "weibull_plot_points: dropped 41 points with survival 0 or 1"]
        whole = st.weibull_plot_from_samples(xs)
        assert all(np.array_equal(g, w) for g, w in zip(whole, want))
        assert [a.size for a in st.weibull_plot_from_samples([])] == [0, 0]

    def test_a_sorted_sample_is_read_in_place(self):
        # a sort would copy the sample; the order check takes one byte a point
        xs = np.sort(np.random.default_rng(7).weibull(2.0, size=400_000))
        tracemalloc.start()
        try:
            for _ in st.weibull_plot_blocks(xs):
                pass
            st.lower_tail_slope(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < xs.nbytes / 2


class TestLowerTailSlope:
    def test_sorted_and_shuffled_input_give_the_same_fit(self):
        rng = np.random.default_rng(8)
        xs = np.sort(rng.weibull(3.0, size=50_000))
        shuffled = rng.permutation(xs)
        assert st.lower_tail_slope(shuffled, (1e-3, 1e-1)) == st.lower_tail_slope(xs, (1e-3, 1e-1))

    def test_exact_weibull_samples(self):
        model = StrengthModel("weibull", 5.0, 2.0)
        xs = model.sample(np.random.default_rng(3), 1, 2_000_000).ravel()
        fit = st.lower_tail_slope(xs)
        assert fit.slope == pytest.approx(5.0, abs=0.25)
        assert fit.n_points >= 100

    def test_minimum_preserves_shape(self):
        # minimum of 16 Weibull(5, 2): shape unchanged, scale shrinks
        model = StrengthModel("weibull", 5.0, 2.0)
        xs = model.sample(np.random.default_rng(4), 16, 400_000).min(axis=1)
        fit = st.lower_tail_slope(xs, window=(1e-4, 1e-2))
        assert fit.slope == pytest.approx(5.0, abs=0.3)

    def test_rescaling_shifts_intercept_only(self):
        xs = StrengthModel("weibull", 3.0, 1.0).sample(
            np.random.default_rng(5), 1, 500_000
        ).ravel()
        f1 = st.lower_tail_slope(xs, window=(1e-4, 1e-2))
        c = 4.0
        f2 = st.lower_tail_slope(c * xs, window=(1e-4, 1e-2))
        assert f2.slope == pytest.approx(f1.slope, abs=1e-9)
        assert f2.intercept == pytest.approx(f1.intercept - f1.slope * math.log(c), abs=1e-9)

    def test_insufficient_tail_mass(self):
        with pytest.raises(ValueError, match="replica"):
            st.lower_tail_slope(np.linspace(1, 2, 1000))

    @pytest.mark.parametrize("bad, window, count", [
        (0.0, (0.0, 0.5), "30 of the 500"),
        (math.inf, (0.5, 1.0), "29 of the 500"),
        (math.nan, (0.5, 1.0), "29 of the 500"),
    ], ids=["zero", "inf", "nan"])
    def test_strengths_without_a_logarithm_in_the_window(self, bad, window, count):
        # 30 bad strengths among 1,000; the window's last position is the 999th
        xs = np.concatenate([np.full(30, bad), np.linspace(1.0, 2.0, 970)])
        with pytest.raises(ArithmeticError, match=f"{count} strengths in quantile window"):
            st.lower_tail_slope(xs, window=window)

    @pytest.mark.parametrize("nobs, window", [
        (100_000, (1e-5, 1e-3)), (1000, (0.0, 1.0)), (1000, (-1.0, 2.0)), (999, (0.1, 0.3)),
        (3000, (1 / 3, 2 / 3)), (1000, (0.5, 0.1)), (1000, (math.nan, 0.5)),
        (1000, (0.0, math.nan)), (5000, (1e-5, 1e-3)),
    ])
    def test_window_is_the_rank_mask(self, nobs, window):
        # the empirical probabilities i / nobs, i = 1..nobs, inside the window and below 1
        ranks = np.arange(1, nobs + 1) / nobs
        lo, hi = window
        want = np.flatnonzero((ranks >= lo) & (ranks <= hi) & (ranks < 1.0))
        if want.size < 100:
            with pytest.raises(ValueError, match=f"only {want.size} points"):
                st.tail_window(nobs, window)
        else:
            assert list(st.tail_window(nobs, window)) == want.tolist()

    @pytest.mark.parametrize("window", [(0.5, 0.1), (math.nan, 0.5), (0.0, math.nan)])
    def test_window_without_ordered_bounds_is_named(self, window):
        # no replica count helps a NaN or inverted window
        with pytest.raises(ValueError, match=r"quantile window \(.*lo <= hi") as err:
            st.tail_window(100_000, window)
        assert "replica count" not in str(err.value)


class TestInflationFactor:
    @pytest.mark.parametrize("rho_g,rho,k", [(20.0, 5.0, 4.0), (5.0, 5.0, 1.0), (15.0, 5.0, 3.0)])
    def test_values(self, rho_g, rho, k):
        assert st.inflation_factor(rho_g, rho) == pytest.approx(k)

    def test_validation(self):
        with pytest.raises(ValueError):
            st.inflation_factor(10.0, 0.0)


class TestPBD:
    def setup_method(self):
        self.partition = st.IntervalPartition((0.0, 1.0, 2.0, 3.0))
        self.base = StrengthModel("weibull", 6.5, 1.5)

    def test_prior_weights_sum_to_mass(self):
        alpha = st.pbd_prior_weights(self.partition, self.base, 50.0)
        assert alpha.sum() == pytest.approx(50.0)
        assert np.all(alpha > 0)

    def test_fine_22_cell_partition(self):
        part = st.IntervalPartition(tuple(np.linspace(0.0, 4.2, 22)))
        assert part.n_cells == 22
        alpha = st.pbd_prior_weights(part, self.base, 50.0)
        assert alpha.shape == (22,) and alpha.sum() == pytest.approx(50.0)

    def test_uncensored_is_classical_dirichlet_update(self):
        alpha = st.pbd_prior_weights(self.partition, self.base, 50.0)
        post = st.pbd_posterior(self.partition, self.base, 50.0, [0, 2, 2, 1])
        assert post.weights == (1.0,)
        vec = post.parameter_vectors()[0]
        assert np.allclose(vec, alpha + np.array([1, 1, 2, 0]))

    def test_two_cell_mixture_weights(self):
        alpha = st.pbd_prior_weights(self.partition, self.base, 50.0)
        post = st.pbd_posterior(self.partition, self.base, 50.0, [{0, 1}])
        by_counts = {c: w for w, c in zip(post.weights, post.counts)}
        total = alpha[0] + alpha[1]
        assert by_counts[(1, 0, 0, 0)] == pytest.approx(alpha[0] / total)
        assert by_counts[(0, 1, 0, 0)] == pytest.approx(alpha[1] / total)

    def test_weights_sum_to_one_and_counts_total(self):
        obs = [{0, 1}, {1, 2, 3}, 2, {0, 3}]
        post = st.pbd_posterior(self.partition, self.base, 50.0, obs)
        assert sum(post.weights) == pytest.approx(1.0)
        assert all(sum(c) == len(obs) for c in post.counts)

    def test_monte_carlo_fallback_close_to_exact(self):
        obs = [{0, 1}, {1, 2}, {0, 3}]
        exact = st.pbd_posterior(self.partition, self.base, 50.0, obs)
        approx = st.pbd_posterior(self.partition, self.base, 50.0, obs,
                                  max_exact=1, mc_draws=40_000, seed=5)
        ex = {c: w for w, c in zip(exact.weights, exact.counts)}
        ap = {c: w for w, c in zip(approx.weights, approx.counts)}
        for counts, w in ex.items():
            assert ap.get(counts, 0.0) == pytest.approx(w, abs=0.02)

    def test_empty_cell_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            st.pbd_posterior(self.partition, self.base, 50.0, [set()])

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            st.IntervalPartition((1.0, 2.0))
        with pytest.raises(ValueError):
            st.IntervalPartition((0.0, 2.0, 2.0))
        assert self.partition.cell_of(2.5) == 2
        assert self.partition.cell_bounds(3) == (3.0, math.inf)

    def test_mean_cell_probabilities_normalized(self):
        post = st.pbd_posterior(self.partition, self.base, 50.0, [{0, 1}, 2])
        assert post.mean_cell_probabilities().sum() == pytest.approx(1.0)


class _Thirds:
    """Base measure with probability 1/3 in each cell of (0, 1, 2)."""

    def sf(self, e):
        return {1.0: 2 / 3, 2.0: 1 / 3}[e]


def _dirichlet_rejection(alpha, cell_sets, draws, seed):
    """Posterior count frequencies by brute force: p ~ Dir(alpha), one latent
    cell per observation drawn from p, kept when every latent cell lies in its
    observation's set."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(alpha, size=draws)
    cum = np.cumsum(p, axis=1)
    keep = np.ones(draws, dtype=bool)
    counts = np.zeros((draws, len(alpha)), dtype=int)
    for cells in cell_sets:
        latent = np.minimum((rng.random((draws, 1)) > cum).sum(axis=1), len(alpha) - 1)
        keep &= np.isin(latent, cells)
        counts[np.arange(draws), latent] += 1
    keys, freq = np.unique(counts[keep], axis=0, return_counts=True)
    return {tuple(k.tolist()): f for k, f in zip(keys, freq)}, int(keep.sum())


def _proposal_paths(alpha, cell_sets):
    """Every assignment path with its sequential proposal probability q and
    its Polya urn weight."""
    paths = [((), 1.0, 1.0, np.zeros(len(alpha)))]
    for cells in cell_sets:
        grown = []
        for path, q, w, counts in paths:
            masses = np.array([alpha[c] + counts[c] for c in cells])
            for c, mass in zip(cells, masses):
                nxt = counts.copy()
                nxt[c] += 1
                grown.append((path + (c,), q * mass / masses.sum(), w * mass, nxt))
        paths = grown
    return [(tuple(counts.astype(int).tolist()), q, w) for _, q, w, counts in paths]


class _NoMiddle:
    """Base measure with probability 1/2 in cells 0 and 2 of (0, 1, 2), none in 1."""

    def sf(self, e):
        return 0.5


class TestPBDWeights:
    partition = st.IntervalPartition((0.0, 1.0, 2.0))
    obs = [{0, 1}, {1, 2}]

    def test_urn_weights_hand_example(self):
        # alpha = (1, 1, 1): urn weights 1, 1, 1*2, 1 over (1,1,0), (1,0,1), (0,2,0), (0,1,1)
        post = st.pbd_posterior(self.partition, _Thirds(), 3.0, self.obs)
        assert post.prior == pytest.approx((1.0, 1.0, 1.0), rel=1e-15)
        got = dict(zip(post.counts, post.weights))
        want = {(1, 1, 0): 0.2, (1, 0, 1): 0.2, (0, 2, 0): 0.4, (0, 1, 1): 0.2}
        assert got.keys() == want.keys()
        for key, w in want.items():
            assert got[key] == pytest.approx(w, rel=1e-12)

    def test_exact_weights_match_dirichlet_rejection(self):
        part = st.IntervalPartition((0.0, 1.0, 2.0, 3.0))
        base = StrengthModel("weibull", 2.0, 2.0)
        obs = [{0, 1}, {1, 2, 3}, 2, {0, 3}]
        post = st.pbd_posterior(part, base, 4.0, obs)
        cell_sets = [(o,) if isinstance(o, int) else tuple(sorted(o)) for o in obs]
        freq, kept = _dirichlet_rejection(np.asarray(post.prior), cell_sets, 400_000, seed=7)
        assert kept > 5_000
        got = dict(zip(post.counts, post.weights))
        assert set(freq) <= set(got)
        for key, w in got.items():
            se = math.sqrt(w * (1 - w) / kept)
            assert freq.get(key, 0) / kept == pytest.approx(w, abs=4 * se)

    def test_monte_carlo_branch_within_three_standard_errors(self):
        draws = 20_000
        mc = st.pbd_posterior(self.partition, _Thirds(), 3.0, self.obs, max_exact=0,
                              mc_draws=draws, seed=3)
        got = dict(zip(mc.counts, mc.weights))
        paths = _proposal_paths(np.asarray(mc.prior), [(0, 1), (1, 2)])
        z = sum(w for _, _, w in paths)
        for key in {k for k, _, _ in paths}:
            target = sum(w for k, _, w in paths if k == key) / z
            # delta-method variance of the self-normalised importance estimate
            var = sum(q * (w / z / q) ** 2 * ((k == key) - target) ** 2 for k, q, w in paths)
            assert got[key] == pytest.approx(target, abs=3 * math.sqrt(var / draws))


    def test_zero_mass_cell_gets_no_observation(self):
        # alpha = (1.5, 0, 1.5): only (1, 0, 1) avoids the empty middle cell
        for max_exact in (100_000, 0):
            post = st.pbd_posterior(self.partition, _NoMiddle(), 3.0, self.obs,
                                    max_exact=max_exact, mc_draws=200)
            assert post.prior == (1.5, 0.0, 1.5)
            assert post.counts == ((1, 0, 1),)
            assert post.weights == (1.0,)

    def test_no_positive_weight_assignment_raises(self):
        with pytest.raises(ValueError, match="zero prior mass"):
            st.pbd_posterior(self.partition, _NoMiddle(), 3.0, [1, {1, 2}])
        with pytest.raises(ValueError, match="mc_draws"):
            st.pbd_posterior(self.partition, _Thirds(), 3.0, self.obs, max_exact=0, mc_draws=0)
