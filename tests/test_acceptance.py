"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured quantities.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats as sps

from fiberbundle import gibbs as gb
from fiberbundle import stats as st
from fiberbundle import threshold as th
from fiberbundle.cascade import (
    StructureFunction,
    cycles_to_failure,
    cycles_to_failure_samples,
    enumerate_patterns,
    sample_bundle_strengths,
    simulate_cascade,
)
from fiberbundle.cli import main as cli_main
from fiberbundle.distributions import StrengthModel, unit_exponential
from fiberbundle.loadshare import (
    AbsorbingRule,
    EqualRule,
    UnitRule,
    build_grid_graph,
    complete_graph_transition,
    share_rows,
    transition_matrix,
    verify_monotone,
)

WEIBULL52 = StrengthModel("weibull", 5.0, 2.0)
WORKERS = min(8, os.cpu_count() or 1)


@contextmanager
def criterion(num: int, label: str):
    t0 = time.perf_counter()
    info: dict = {}
    try:
        yield info
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    detail = ", ".join(f"{k}={v}" for k, v in info.items())
    print(f"ACCEPTANCE {num:02d} {label}: PASS ({time.perf_counter() - t0:.1f}s) {detail}")


def grid_rule(rows, cols):
    return AbsorbingRule(transition_matrix(build_grid_graph(rows, cols)))


@pytest.fixture(scope="module")
def grid44_samples():
    """10^7 bundle strengths for the 4x4 absorbing-rule grid (shared by the
    inflation-factor and LMF criteria)."""
    rule = grid_rule(4, 4)
    structure = StructureFunction.column_paths(4, 4)
    t0 = time.perf_counter()
    samples = sample_bundle_strengths(
        WEIBULL52, rule, structure, 10_000_000, seed=2024, workers=WORKERS
    )
    elapsed = time.perf_counter() - t0
    return samples, rule, elapsed


def test_criterion_01_load_conservation():
    with criterion(1, "load conservation") as info:
        t0 = time.perf_counter()
        worst = 0.0
        for rows, cols in [(1, 3), (2, 2), (2, 3), (3, 3)]:
            n = rows * cols
            lam = share_rows(grid_rule(rows, cols), n, range(1, 1 << n))
            worst = max(worst, np.abs(lam.sum(axis=1) - n).max())
        rng = np.random.default_rng(0)
        lam = share_rows(grid_rule(4, 4), 16, rng.integers(1, 1 << 16, size=10_000))
        worst = max(worst, np.abs(lam.sum(axis=1) - 16).max())
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-9
        assert elapsed < 10.0
        info["max_deviation"] = f"{worst:.2e}"
        info["runtime"] = f"{elapsed:.1f}s"


def test_criterion_02_monotonicity_exhaustive():
    with criterion(2, "absorbing rule monotone on 2x3") as info:
        t0 = time.perf_counter()
        check = verify_monotone(grid_rule(2, 3), 6)
        elapsed = time.perf_counter() - t0
        assert check.ok and check.counterexample is None
        assert elapsed < 10.0
        info["violations"] = 0
        info["runtime"] = f"{elapsed:.2f}s"


def test_criterion_03_equal_rule_on_complete_graph():
    with criterion(3, "complete graph reduces to equal rule") as info:
        worst = 0.0
        for n in range(2, 9):
            masks = np.arange(1, 1 << n)
            lam = share_rows(AbsorbingRule(complete_graph_transition(n)), n, masks)
            member = (masks[:, None] >> np.arange(n) & 1) == 1
            expected = n / member.sum(axis=1, keepdims=True)
            worst = max(worst, np.abs(lam - expected)[member].max())
        assert worst <= 1e-9
        info["max_deviation"] = f"{worst:.2e}"


def test_criterion_04_mobius_round_trip():
    with criterion(4, "Moebius round trip n=12") as info:
        t0 = time.perf_counter()
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(5):
            u = rng.normal(size=1 << 12)
            u[0] = 0.0
            table = gb.SubsetTable(12, u)
            back = gb.mobius_energy(gb.potentials_from_energy(table))
            worst = max(worst, float(np.max(np.abs(back.values - u))))
        elapsed = time.perf_counter() - t0
        assert worst < 1e-9
        assert elapsed < 5.0
        info["max_error"] = f"{worst:.2e}"
        info["runtime"] = f"{elapsed:.2f}s"


def test_criterion_05_gibbs_independence_oracle():
    with criterion(5, "Gibbs independence oracle n=10") as info:
        n = 10
        model = gb.build_gibbs(n, 1.0, UnitRule(n), WEIBULL52)
        pop = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(int)
        fbar = float(WEIBULL52.sf(1.0))
        product = fbar**pop * (1.0 - fbar) ** (n - pop)
        tv = gb.total_variation(model.probabilities(), product)
        assert tv < 1e-10
        info["tv"] = f"{tv:.2e}"


def test_criterion_06_threshold_dual_path():
    with criterion(6, "order-statistic dual-path agreement") as info:
        t0 = time.perf_counter()
        worst = 0.0
        for k, l, n in [(1, 2, 3), (2, 4, 6), (3, 5, 8)]:
            joint = th.OrderStatJointDensity(k, l, n)
            for x in np.linspace(0.2, 1.0, 5):
                for dy in np.linspace(0.2, 1.0, 5):
                    a = joint.direct(x, x + dy)
                    b = joint.mixture(x, x + dy)
                    worst = max(worst, abs(a - b) / a)
        elapsed = time.perf_counter() - t0
        assert worst < 1e-6
        assert elapsed < 60.0
        info["max_rel_err"] = f"{worst:.2e}"
        info["runtime"] = f"{elapsed:.1f}s"


@pytest.mark.slow
def test_criterion_07_pattern_density_oracle():
    with criterion(7, "pattern density vs Monte Carlo") as info:
        er = EqualRule(2)
        ue = unit_exponential()
        patterns = enumerate_patterns(2)
        probs = {str(p): th.pattern_probability(p, er, 2, ue) for p in patterns}
        total = sum(probs.values())
        assert abs(total - 1.0) <= 1e-3

        n_rep = 1_000_000
        rng = np.random.default_rng(7)
        counts: dict[str, int] = {}
        structure = StructureFunction.parallel(2)
        x = rng.standard_exponential((n_rep, 2))
        for row in x:
            key = str(simulate_cascade(row, er, structure).pattern)
            counts[key] = counts.get(key, 0) + 1
        worst_se = 0.0
        for key, p in probs.items():
            freq = counts.get(key, 0) / n_rep
            se = (p * (1 - p) / n_rep) ** 0.5
            worst_se = max(worst_se, abs(freq - p) / se)
            assert abs(freq - p) <= 3.0 * se, f"pattern {key}: freq {freq} vs prob {p}"
        info["total_probability"] = f"{total:.6f}"
        info["max_deviation_se"] = f"{worst_se:.2f}"


def test_criterion_08_minimum_scaling():
    with criterion(8, "uniform minimum scaling to Exp(1)") as info:
        draws = 100_000

        def ks_for(r: int, seed: int) -> float:
            rng = np.random.default_rng(seed)
            mins = np.empty(draws)
            pos = 0
            chunk = max(1, 4_000_000 // r)
            while pos < draws:
                size = min(chunk, draws - pos)
                mins[pos:pos + size] = rng.random((size, r)).min(axis=1)
                pos += size
            return float(sps.kstest(r * mins, "expon").statistic)

        ks10 = ks_for(10, 80)
        ks1000 = ks_for(1000, 81)
        assert ks1000 < 0.01
        assert ks1000 < ks10
        info["ks_r10"] = f"{ks10:.4f}"
        info["ks_r1000"] = f"{ks1000:.4f}"


@pytest.mark.slow
def test_criterion_09_inflation_factor(grid44_samples):
    with criterion(9, "inflation factor from grid tails") as info:
        samples, _, sim_elapsed = grid44_samples
        t0 = time.perf_counter()
        fit44 = st.lower_tail_slope(samples)
        assert 16.0 <= fit44.slope <= 24.0
        # 22.04 is the censored-Weibull mle shape of the specimen strength
        # data this grid models; a long chain of bundles inherits the grid's
        # tail slope as its shape, so the slope must land within 20% of it
        assert abs(fit44.slope - 22.04) / 22.04 <= 0.20
        small = {}
        for rows, cols in [(2, 3), (3, 3)]:
            s = sample_bundle_strengths(
                WEIBULL52, grid_rule(rows, cols),
                StructureFunction.column_paths(rows, cols),
                2_000_000, seed=99 + rows, workers=WORKERS,
            )
            fit = st.lower_tail_slope(s)
            assert 12.0 <= fit.slope <= 18.0
            small[f"{rows}x{cols}"] = fit.slope
        elapsed = sim_elapsed + time.perf_counter() - t0
        info["slope_4x4"] = f"{fit44.slope:.2f}"
        info["k_4x4"] = f"{st.inflation_factor(fit44.slope, 5.0):.2f}"
        for name, slope in small.items():
            info[f"slope_{name}"] = f"{slope:.2f}"
        info["runtime"] = f"{elapsed:.0f}s (target 600s on 8 cores)"


@pytest.mark.slow
def test_criterion_10_lmf_linearity(grid44_samples):
    with criterion(10, "LMF linearity for the 4x4 grid") as info:
        samples, rule, _ = grid44_samples
        s_ref = gb.strength_percentile(samples, 0.001)
        model_ref = gb.build_gibbs(16, s_ref, rule, WEIBULL52)
        assert np.all(np.isfinite(model_ref.potentials.values))

        self_fit = gb.lmf_fit(model_ref, model_ref)
        assert abs(self_fit.slope - 1.0) <= 1e-9
        assert abs(self_fit.intercept) <= 1e-9
        assert self_fit.tv_error <= 1e-9

        for p_target in (1.0, 10.0, 50.0):
            s_t = gb.strength_percentile(samples, p_target)
            model_t = gb.build_gibbs(16, s_t, rule, WEIBULL52)
            fit = gb.lmf_fit(model_ref, model_t, p_ref=0.001, p_target=p_target)
            assert fit.r2 >= 0.9
            info[f"r2_p{p_target:g}"] = f"{fit.r2:.4f}"
            info[f"tv_p{p_target:g}"] = f"{fit.tv_error:.3e}"
        info["s_ref"] = f"{s_ref:.4f}"


def test_criterion_11_censored_mle_recovery():
    with criterion(11, "censored Weibull MLE recovery") as info:
        model = StrengthModel("weibull", 22.04, 117.69)
        hits = 0
        seeds = 200
        for seed in range(seeds):
            x = model.sample(np.random.default_rng([11, seed]), 1, 500).ravel()
            cut = np.quantile(x, 0.9)
            data = [(min(v, cut), v > cut) for v in x]
            fit = st.weibull_mle_censored(data)
            if abs(fit.rho - 22.04) / 22.04 <= 0.15 and abs(fit.sigma - 117.69) / 117.69 <= 0.15:
                hits += 1
        assert hits >= 0.9 * seeds

        xs = np.random.default_rng(12).weibull(5.0, size=400) * 2.0
        km = st.kaplan_meier([(v, False) for v in xs])
        ecdf_sf = 1.0 - np.arange(1, 401) / 400
        assert np.max(np.abs(km.survival - ecdf_sf)) < 1e-12
        info["recovered"] = f"{hits}/{seeds}"


def test_criterion_12_pbd_conjugacy():
    with criterion(12, "PBD conjugacy") as info:
        partition = st.IntervalPartition((0.0, 1.0, 2.0, 3.0))
        base = StrengthModel("weibull", 6.5, 1.5)
        alpha = st.pbd_prior_weights(partition, base, 50.0)

        post = st.pbd_posterior(partition, base, 50.0, [0, 2, 2, 1, 3])
        assert post.weights == (1.0,)
        assert np.array_equal(
            np.asarray(post.counts[0]), np.array([1, 1, 2, 1])
        )
        assert np.allclose(post.parameter_vectors()[0], alpha + np.array([1, 1, 2, 1]))

        post2 = st.pbd_posterior(partition, base, 50.0, [{0, 1}])
        by_counts = {c: w for w, c in zip(post2.weights, post2.counts)}
        total = alpha[0] + alpha[1]
        assert by_counts[(1, 0, 0, 0)] == pytest.approx(alpha[0] / total, rel=1e-14)
        assert by_counts[(0, 1, 0, 0)] == pytest.approx(alpha[1] / total, rel=1e-14)
        info["mixture_weights"] = f"({alpha[0]/total:.4f}, {alpha[1]/total:.4f})"


def test_criterion_13_cycles_boundaries():
    with criterion(13, "cycles-to-failure boundaries") as info:
        rule = grid_rule(2, 2)
        structure = StructureFunction.column_paths(2, 2)
        for a in (1.0, 1.5):
            with pytest.raises(ValueError):
                cycles_to_failure([1.0, 1.0, 1.0, 1.0], rule, structure, s_star=0.5, a=a)

        medians = []
        for a in (0.5, 0.7, 0.9):
            ks = cycles_to_failure_samples(
                WEIBULL52, rule, structure, s_star=0.6, a=a,
                replicas=50_000, seed=13, workers=WORKERS,
            )
            medians.append(float(np.median(ks)))
        assert medians[0] <= medians[1] <= medians[2]

        rng = np.random.default_rng(14)
        for _ in range(50):
            x = rng.standard_exponential(4) + 0.05
            s_star = simulate_cascade(x, rule, structure).strength
            assert cycles_to_failure(x, rule, structure, s_star=s_star, a=0.9) == 1
            assert cycles_to_failure(x, rule, structure, s_star=s_star * 1.5, a=0.9) == 1
        info["medians_a"] = str(medians)


def test_criterion_14_cli_determinism(tmp_path):
    with criterion(14, "simulate determinism across workers") as info:
        blobs = []
        for w in (1, 4, 8):
            out = tmp_path / f"w{w}"
            rc = cli_main([
                "simulate", "--rows", "2", "--cols", "2", "--rule", "absorbing",
                "--structure", "column-paths", "--family", "weibull",
                "--shape", "5", "--scale", "2", "--replicas", "200000",
                "--seed", "31", "--tail-lo", "1e-3", "--tail-hi", "1e-1",
                "--workers", str(w), "--out", str(out),
            ])
            assert rc == 0
            blobs.append((out / "samples.csv").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
        info["bytes"] = len(blobs[0])
