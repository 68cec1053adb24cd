"""Mixture densities, dual-path agreement, pattern densities, tail constants."""

import logging
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from fiberbundle import stats as st
from fiberbundle import threshold as th
from fiberbundle.cascade import StructureFunction, enumerate_patterns, parse_pattern, \
    sample_bundle_strengths, simulate_cascade
from fiberbundle.distributions import StrengthModel, unit_exponential
from fiberbundle.loadshare import AbsorbingRule, EqualRule, UnitRule, build_grid_graph, \
    share_table, transition_matrix


def _irwin_hall_rational(m, tv):
    """Alternating binomial series for b_m, summed in exact rational arithmetic."""
    if not 0.0 <= tv <= m:
        return 0.0
    acc = Fraction(0)
    ft = Fraction(tv)
    for j in range(int(tv) + 1):
        term = Fraction(math.comb(m, j)) * (ft - j) ** (m - 1)
        acc += -term if j % 2 else term
    return float(acc / math.factorial(m - 1))


def _integrate_panels_recursive(f, lo, hi, knots=()):
    """Depth-first adaptive Gauss-Legendre, one 16-node call of ``f`` per
    interval: the slow path the level-batched integrator must equal bit for bit."""
    points = sorted({lo, hi, *(k for k in knots if lo < k < hi)})

    def gl(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return half * float(np.sum(th._GL_WEIGHTS * f(mid + half * th._GL_NODES)))

    def adapt(a, b, whole, budget, depth):
        mid = 0.5 * (a + b)
        left, right = gl(a, mid), gl(mid, b)
        residual = abs(left + right - whole)
        if residual < budget:
            return left + right
        if depth > th._MAX_DEPTH:
            th._log.warning("panel [%r, %r] hit the depth cap %d with residual %.3g > %.3g",
                            a, b, th._MAX_DEPTH, residual, budget)
            return left + right
        return adapt(a, mid, left, budget / 2, depth + 1) + adapt(mid, b, right, budget / 2, depth + 1)

    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        total += adapt(a, b, gl(a, b), th._PANEL_TOL, 0)
    return total


def _integrate_each_recursive(f, lo, hi, knots=(), size=None):
    """``_integrate_panels``' interface on the recursion: a batch of ``size``
    integrands runs as one recursion per integrand."""
    if size is None:
        return _integrate_panels_recursive(f, lo, hi, knots)
    return np.array([_integrate_panels_recursive(lambda t, j=j: f(t, np.full(t.shape, j)),
                                                 lo, hi, knots) for j in range(size)])


class TestIntegratePanels:
    """The level-batched integrator against the depth-first recursion, with ==."""

    @staticmethod
    def _both(monkeypatch, value):
        """``value()`` through the batched integrator, then through the recursion."""
        fast = value()
        monkeypatch.setattr(th, "_integrate_panels", _integrate_each_recursive)
        slow = value()
        monkeypatch.undo()
        return fast, slow

    @pytest.mark.parametrize("m", range(1, 31))
    def test_irwin_hall_normalization(self, m):
        def f(t):
            return th.irwin_hall_pdf(m, t)

        args = (f, 0.0, float(m), list(range(1, m)))
        assert th._integrate_panels(*args) == _integrate_panels_recursive(*args)

    @pytest.mark.parametrize("law", [
        lambda: th.order_stat_mixing(2, 5),
        lambda: th.order_stat_mixing(4, 12),
        lambda: th.order_stat_mixing(9, 12),
        lambda: th.order_stat_mixing(12, 30),
        lambda: th._spacing_mixing(4, 9, 12),
        lambda: th.TiltedConditional(3, 7, 9, 0.3, 1.7).law1,
        lambda: th.TiltedConditional(3, 7, 9, 0.3, 1.7).law2,
    ], ids=["k2n5", "k4n12", "k9n12", "k12n30", "spacing", "tilted1", "tilted2"])
    def test_mixing_law_integrals(self, monkeypatch, law):
        def values():
            mix = law()  # fresh, so the cached normalizer is recomputed
            return ([mix.normalizer] + [mix.moment(r) for r in (1, 2, 3)]
                    + [mix.gamma_mixture_pdf(shape, z) for shape in (1, 4) for z in (0.13, 0.9, 2.5)])

        fast, slow = self._both(monkeypatch, values)
        assert fast == slow

    def test_order_stat_joint_mixture(self, monkeypatch):
        def values():
            osj = th.OrderStatJointDensity(4, 9, 12)
            x = np.repeat([0.13, 0.73, 1.3], 4)
            return ([osj.mixture(x, y) for x in (0.13, 0.73) for y in (0.97, 1.77)]
                    + osj.mixture(x, x + np.tile([0.2, 0.6, 0.84, 1.64], 3)).tolist())

        fast, slow = self._both(monkeypatch, values)
        assert fast == slow

    def test_depth_cap_same_value_and_warnings(self, caplog):
        def step(t):
            return (t > 0.3).astype(float)

        with caplog.at_level(logging.WARNING, logger="fiberbundle.threshold"):
            fast = th._integrate_panels(step, 0.0, 1.0)
            n_fast = len(caplog.records)
            slow = _integrate_panels_recursive(step, 0.0, 1.0)
        assert fast == slow
        assert n_fast >= 1 and len(caplog.records) == 2 * n_fast
        assert sorted(r.getMessage() for r in caplog.records[:n_fast]) == \
            sorted(r.getMessage() for r in caplog.records[n_fast:])

    def test_empty_interval_calls_nothing(self):
        def f(t):
            raise AssertionError("integrand called on an empty interval")

        assert th._integrate_panels(f, 0.7, 0.7, [0.7]) == 0.0

    def test_one_integrand_call_per_level(self):
        # every panel of a smooth integrand converges at level 0: one call
        calls = []

        def f(t):
            calls.append(t.size)
            return th.irwin_hall_pdf(6, t)

        th._integrate_panels(f, 0.0, 6.0, [1, 2, 3, 4, 5])
        assert calls == [6 * 3 * 16]

    def test_gauss_legendre_literals_are_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(16)
        assert th._GL_NODES.tobytes() == nodes.tobytes()
        assert th._GL_WEIGHTS.tobytes() == weights.tobytes()

    def test_batch_equals_one_integrand_at_a_time(self):
        # one panel tree per integrand: a batch returns each lone integral
        shapes = np.array([0.5, 2.0, 7.0, 30.0])

        def f(t, j):
            return np.exp(-shapes[j] * t) * th.irwin_hall_pdf(3, t)

        batch = th._integrate_panels(f, 0.0, 3.0, [1, 2], shapes.size)
        each = [th._integrate_panels(lambda t, c=c: np.exp(-c * t) * th.irwin_hall_pdf(3, t),
                                     0.0, 3.0, [1, 2]) for c in shapes.tolist()]
        assert batch.tolist() == each
        assert batch.tolist() == _integrate_each_recursive(f, 0.0, 3.0, [1, 2], shapes.size).tolist()

    def test_batch_depth_cap_gives_each_integrands_warnings(self, caplog):
        cuts = np.array([0.3, 0.55, 0.8])
        with caplog.at_level(logging.WARNING, logger="fiberbundle.threshold"):
            batch = th._integrate_panels(lambda t, j: (t > cuts[j]).astype(float), 0.0, 1.0,
                                         (), cuts.size)
            n_batch = len(caplog.records)
            each = [th._integrate_panels(lambda t, c=c: (t > c).astype(float), 0.0, 1.0)
                    for c in cuts.tolist()]
        assert batch.tolist() == each
        assert n_batch >= 3 and len(caplog.records) == 2 * n_batch
        assert [r.getMessage() for r in caplog.records[:n_batch]] == \
            [r.getMessage() for r in caplog.records[n_batch:]]

    def test_batch_calls_stay_bounded(self):
        # 3 panels: 144 level-0 nodes per integrand, so 56 integrands a group;
        # each panel of this smooth integrand closes at level 0
        sizes = []

        def f(t, j):
            sizes.append(t.size)
            return np.exp(-(j + 1.0) * t / 500)

        vals = th._integrate_panels(f, 0.0, 3.0, [1, 2], 400)
        assert sizes == [56 * 144] * 7 + [8 * 144]
        assert vals[7] == th._integrate_panels(lambda t: np.exp(-8.0 * t / 500), 0.0, 3.0, [1, 2])
        # an integrand whose level alone is wider than a call keeps it whole
        sizes.clear()
        th._integrate_panels(f, 0.0, 200.0, range(1, 200), 3)
        assert sizes == [200 * 48] * 3

    def test_runaway_batch_stops_where_a_lone_integrand_does(self):
        # a NaN z would give a NaN integrand, which never converges: it is
        # rejected before any quadrature, alone or in a batch
        mix = th.order_stat_mixing(3, 7)
        with pytest.raises(ValueError, match="z = nan is not finite") as lone:
            mix.gamma_mixture_pdf(2, np.nan)
        with pytest.raises(ValueError, match="z = nan is not finite") as batch:
            mix.gamma_mixture_pdf(2, np.array([0.5, np.nan, 2.0, 4.0]))
        assert str(batch.value) == str(lone.value)
        with pytest.raises(ValueError, match="z = inf is not finite"):
            mix.gamma_mixture_pdf(2, [1.0, np.inf])
        # the quadrature itself stops at the first NaN, alone or in a batch
        with pytest.raises(ArithmeticError, match=r"in the panel \[0.0, 1.0\]") as lone:
            th._integrate_panels(lambda t: t * np.nan, 0.0, 1.0)
        with pytest.raises(ArithmeticError, match=r"in the panel \[0.0, 1.0\]") as batch:
            th._integrate_panels(lambda t, j: np.where(j == 2, np.nan, t), 0.0, 1.0, (), 4)
        assert str(batch.value) == str(lone.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_integrand_stops_at_its_first_level(self, bad):
        # a panel holding a NaN never closes, so unchecked its open panels
        # would double at every level; the first level's values end it
        calls = []

        def f(t):
            calls.append(t.size)
            if len(calls) > 3:
                raise AssertionError(f"integrand still called after {calls}")
            return np.where(t > 0.7, bad, t)

        with pytest.raises(ArithmeticError, match=rf"integrand is {bad} at t = 0\.7"):
            th._integrate_panels(f, 0.0, 1.0, [0.5])
        assert calls == [2 * 3 * 16]

    def test_empty_batch_calls_nothing(self):
        def f(t, j):
            raise AssertionError("integrand called for an empty batch")

        assert th._integrate_panels(f, 0.0, 1.0, (), 0).shape == (0,)
        assert th._integrate_panels(f, 0.7, 0.7, (), 2).tolist() == [0.0, 0.0]


class TestIrwinHall:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 12, 20, 30])
    def test_matches_rational_series(self, m):
        rng = np.random.default_rng(m)
        t = np.concatenate([rng.uniform(0.0, m, 64), np.arange(m + 1.0)])
        got = th.irwin_hall_pdf(m, t)
        want = np.array([_irwin_hall_rational(m, v) for v in t])
        nonzero = want != 0.0
        assert np.all(got[~nonzero] == 0.0)
        assert np.max(np.abs(got[nonzero] - want[nonzero]) / want[nonzero]) <= 1e-14
        for v in t[:8]:
            assert th.irwin_hall_pdf(m, float(v)) == pytest.approx(
                _irwin_hall_rational(m, float(v)), rel=1e-14)
        outside = np.array([-1e-12, -0.5, np.nextafter(m, np.inf), m + 0.5])
        assert np.all(th.irwin_hall_pdf(m, outside) == 0.0)

    def test_keeps_input_shape(self):
        t = np.array([[0.5, 1.0], [3.0, -1.0]])
        got = th.irwin_hall_pdf(2, t)
        assert got.shape == (2, 2)
        assert got.tolist() == [[0.5, 1.0], [0.0, 0.0]]
        assert isinstance(th.irwin_hall_pdf(2, np.float64(0.5)), float)

    @pytest.mark.parametrize("m,t,expected", [
        (1, 0.5, 1.0),
        (2, 1.0, 1.0),
        (3, 1.5, 0.75),
        (2, 0.25, 0.25),
    ])
    def test_known_values(self, m, t, expected):
        assert th.irwin_hall_pdf(m, t) == pytest.approx(expected)

    def test_outside_support_is_zero(self):
        assert th.irwin_hall_pdf(2, -0.3) == 0.0
        assert th.irwin_hall_pdf(2, 2.0001) == 0.0

    def test_scratch_bounded_before_allocating(self):
        # only points inside the support [0, m] take scratch space
        t = np.arange(-4.0, 3001.0)
        with pytest.raises(ValueError, match=r"m = 3000 at 3001 points .* 9003000 values"):
            th.irwin_hall_pdf(3000, t)
        assert th.irwin_hall_pdf(2, np.linspace(-1e6, 1e6, 3_000_001)).sum() > 0.0

    def test_m_zero_symbolic(self):
        with pytest.raises(ValueError, match="point mass"):
            th.irwin_hall_pdf(0, 0.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 12, 30])
    def test_normalizes_to_one(self, m):
        knots = list(range(1, m))
        val = th._integrate_panels(lambda t: th.irwin_hall_pdf(m, t), 0.0, float(m), knots)
        assert val == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("m", [2, 3, 6])
    def test_self_convolution(self, m):
        # b_m(t) = integral of b_{m-1}(t-u) du over [0, 1]
        for t in (0.4, 1.3, m / 2, m - 0.7):
            direct = th.irwin_hall_pdf(m, t)
            if m - 1 == 0:
                conv = 1.0 if 0 <= t <= 1 else 0.0
            else:
                conv, _ = integrate.quad(
                    lambda u: th.irwin_hall_pdf(m - 1, t - u), 0, 1,
                    points=[t - k for k in range(m)], limit=100,
                )
            assert direct == pytest.approx(conv, abs=1e-9)

    def test_depth_cap_logs_a_warning(self, caplog):
        # a jump off the knots never converges; bisection stops at the cap
        with caplog.at_level(logging.WARNING, logger="fiberbundle.threshold"):
            val = th._integrate_panels(lambda t: (t > 0.3).astype(float), 0.0, 1.0)
        assert val == pytest.approx(0.7, abs=1e-9)
        capped = [r for r in caplog.records if r.name == "fiberbundle.threshold"]
        assert capped and "depth cap" in capped[0].getMessage()

    def test_smooth_integrand_logs_nothing(self, caplog):
        with caplog.at_level(logging.WARNING, logger="fiberbundle.threshold"):
            th._integrate_panels(lambda t: th.irwin_hall_pdf(5, t), 0.0, 5.0, [1, 2, 3, 4])
        assert not caplog.records

    def test_deep_shape_stays_stable(self):
        # near the mode, b_m is within the CLT kurtosis correction (~0.5% at
        # m = 30) of the normal density with variance m/12
        m = 30
        approx = 1.0 / math.sqrt(2 * math.pi * m / 12.0)
        assert th.irwin_hall_pdf(m, m / 2) == pytest.approx(approx, rel=1e-2)


class TestMixingDensity:
    def test_minimum_case_is_atom(self):
        mix = th.order_stat_mixing(1, 7)
        assert mix.is_atom and mix.support == (7.0, 7.0)
        with pytest.raises(ValueError, match="point mass at theta = 7.0"):
            th.order_stat_mixing_density(1, 7, 7.0)

    def test_k2_n5_closed_form(self):
        # density proportional to 1/theta^2 on [4, 5]; normalizer 20
        mix = th.order_stat_mixing(2, 5)
        assert 1.0 / mix.normalizer == pytest.approx(20.0, abs=1e-8)
        assert th.order_stat_mixing_density(2, 5, 4.5) == pytest.approx(20 / 4.5**2)
        assert th.order_stat_mixing_density(2, 5, 3.99) == 0.0

    @pytest.mark.parametrize("k,n", [(2, 4), (3, 6), (4, 8)])
    def test_integrates_to_one(self, k, n):
        mix = th.order_stat_mixing(k, n)
        lo, hi = mix.support
        val = th._integrate_panels(mix.pdf, lo, hi, [lo + j for j in range(1, k)])
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_nonnegative_everywhere(self):
        mix = th.order_stat_mixing(3, 6)
        grid = np.linspace(3.5, 6.5, 200)
        assert np.all(mix.pdf(grid) >= 0.0)


class TestOrderStatJoint:
    def test_n2_closed_form(self):
        joint = th.OrderStatJointDensity(1, 2, 2)
        for x, y in [(0.5, 1.0), (0.2, 2.0)]:
            assert joint.direct(x, y) == pytest.approx(2 * math.exp(-x - y))
            assert joint.mixture(x, y) == pytest.approx(2 * math.exp(-x - y), rel=1e-8)

    @pytest.mark.parametrize("k,l,n", [(1, 2, 3), (2, 4, 6), (3, 5, 8)])
    def test_paths_agree_on_lattice(self, k, l, n):
        joint = th.OrderStatJointDensity(k, l, n)
        for x in np.linspace(0.2, 1.0, 5):
            for dy in np.linspace(0.2, 1.0, 5):
                a = joint.direct(x, x + dy)
                b = joint.mixture(x, x + dy)
                assert abs(a - b) / a < 1e-6

    def test_paths_agree_for_all_small_orders(self):
        # every (k, l, n) with n <= 8, reduced lattice
        for n in range(2, 9):
            for k in range(1, n):
                for l in range(k + 1, n + 1):
                    joint = th.OrderStatJointDensity(k, l, n)
                    for x in (0.3, 0.9):
                        for dy in (0.4, 1.1):
                            a = joint.direct(x, x + dy)
                            b = joint.mixture(x, x + dy)
                            assert abs(a - b) / a < 1e-6, (k, l, n, x, dy)

    def test_marginal_recovered_by_quadrature(self):
        joint = th.OrderStatJointDensity(2, 4, 6)
        for x in (0.3, 0.8):
            val, _ = integrate.quad(lambda y: joint.direct(x, y), x, np.inf,
                                    epsabs=1e-12, limit=200)
            assert val == pytest.approx(joint.marginal_k(x), abs=1e-5)

    def test_direct_normalizes(self):
        joint = th.OrderStatJointDensity(2, 3, 4)
        val, _ = integrate.dblquad(
            lambda y, x: joint.direct(x, y), 0, 30, lambda x: x, 30, epsabs=1e-10,
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("k,l,n", [(4, 9, 12), (1, 3, 5), (3, 4, 6), (1, 2, 2)],
                             ids=["k4l9n12", "atom1", "atom2", "both-atoms"])
    def test_batched_mixture_equals_scalar_calls(self, k, l, n):
        # x <= 0, y <= x and repeated values beside the inside points
        joint = th.OrderStatJointDensity(k, l, n)
        xv = [-0.5, -0.0, 0.0, 1e-3, 0.13, 0.4, 0.4, 0.9, 1.7]
        yv = [-0.2, 0.0, 0.13, 0.4, 0.5, 1.1, 1.7, 2.3]
        x, y = np.meshgrid(xv, yv, indexing="ij")
        batch = joint.mixture(x, y)
        assert batch.shape == x.shape
        assert batch.tolist() == [[joint.mixture(a, b) for b in yv] for a in xv]
        assert (batch > 0).sum() == 23 and (batch[x >= y] == 0).all()
        assert type(joint.mixture(0.4, 1.1)) is float and type(joint.mixture(1.0, 0.5)) is float

    def test_batched_gamma_mixture_equals_scalar_calls(self):
        for mix in (th.order_stat_mixing(3, 7), th.order_stat_mixing(1, 4)):
            z = np.array([[0.9, -1.0, 0.0], [0.2, 0.9, 3.5]])
            got = mix.gamma_mixture_pdf(3, z)
            assert got.tolist() == [[mix.gamma_mixture_pdf(3, v) for v in row] for row in z.tolist()]
            assert type(mix.gamma_mixture_pdf(3, 0.9)) is float

    def test_batch_over_several_groups_at_large_k(self):
        # k = 40: 39 panels, 1,872 level-0 nodes per integrand, so 16 groups of 4
        joint = th.OrderStatJointDensity(40, 42, 45)
        x = np.linspace(0.5, 3.0, 64)
        y = x + 0.4
        batch = joint.mixture(x, y)
        assert batch.tolist() == [joint.mixture(a, b) for a, b in zip(x.tolist(), y.tolist())]
        assert np.allclose(batch, [joint.direct(a, b) for a, b in zip(x, y)], rtol=1e-8, atol=0)

    def test_ordering_enforced(self):
        joint = th.OrderStatJointDensity(2, 4, 6)
        assert joint.direct(1.0, 0.5) == 0.0
        assert joint.mixture(1.0, 1.0) == 0.0
        with pytest.raises(ValueError):
            th.OrderStatJointDensity(3, 3, 6)


class TestTilted:
    def test_factors_normalize(self):
        tc = th.TiltedConditional(2, 4, 6, 0.5, 1.0)
        v1, _ = integrate.quad(tc.factor1, 5, 6)
        v2, _ = integrate.quad(tc.factor2, 3, 4)
        assert v1 == pytest.approx(1.0, abs=1e-8)
        assert v2 == pytest.approx(1.0, abs=1e-8)

    def test_joint_factorizes_exactly(self):
        tc = th.TiltedConditional(2, 4, 6, 0.5, 1.0)
        assert tc.pdf(5.3, 3.7) == float(tc.factor1(5.3)) * float(tc.factor2(3.7))

    def test_vanishing_tilt_recovers_shifted_convolution(self):
        k, l, n = 3, 6, 8
        tc = th.TiltedConditional(k, l, n, 1e-12, 1.0 + 1e-12)
        shift = n - k + 1
        for theta in (6.3, 7.0, 7.9):
            assert float(tc.factor1(theta)) == pytest.approx(
                th.irwin_hall_pdf(k - 1, theta - shift), rel=1e-6
            )

    @pytest.mark.parametrize("k,l,n,x,y", [(2, 4, 6, 0.5, 1.0), (3, 7, 9, 0.3, 1.7),
                                           (4, 8, 8, 2.5, 4.0)])
    def test_posterior_identity(self, k, l, n, x, y):
        # Bayes: each factor is gamma likelihood x untilted mixing prior / evidence
        tc = th.TiltedConditional(k, l, n, x, y)
        for factor, law, shape, z in ((tc.factor1, th.order_stat_mixing(k, n), k, x),
                                      (tc.factor2, th._spacing_mixing(k, l, n), l - k, y - x)):
            lo, hi = law.support
            evidence = law.gamma_mixture_pdf(shape, z)
            for theta in np.linspace(lo, hi, 9):
                want = float(th._gamma_pdf(z, shape, theta)) * law.pdf(theta) / evidence
                assert factor(theta) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_laws_are_tilted_mixing_laws(self):
        tc = th.TiltedConditional(3, 7, 9, 0.3, 1.7)
        assert tc.law1 == th.MixingDensity(m=2, shift=7.0, power=0, tilt=0.3)
        assert tc.law2 == th.MixingDensity(m=3, shift=3.0, power=0, tilt=1.7 - 0.3)

    def test_unsupported_theta_is_zero(self):
        tc = th.TiltedConditional(2, 4, 6, 0.5, 1.0)
        assert tc.pdf(4.5, 3.5) == 0.0

    def test_degenerate_cases_rejected(self):
        with pytest.raises(ValueError, match="point mass"):
            th.TiltedConditional(1, 3, 5, 0.5, 1.0)
        with pytest.raises(ValueError, match="point mass"):
            th.TiltedConditional(2, 3, 5, 0.5, 1.0)


class TestPatternDensity:
    def test_two_component_hand_values(self):
        er = EqualRule(2)
        ue = unit_exponential()
        inp = th.pattern_density_input(parse_pattern("1(2)"), er, 2, ue, [0.3])
        expected = (math.exp(-0.3) - math.exp(-0.6)) * math.exp(-0.3)
        assert th.phase1_pattern_density(inp) == pytest.approx(expected)
        inp2 = th.pattern_density_input(parse_pattern("1 2"), er, 2, ue, [0.3, 0.5])
        assert th.phase1_pattern_density(inp2) == pytest.approx(
            math.exp(-0.3) * 2 * math.exp(-1.0)
        )

    def test_single_cycle_reduces_to_phase1_factor(self):
        # empty burst: density is a * f(a s) alone
        inp = th.pattern_density_input(parse_pattern("1"), EqualRule(1), 1,
                                       unit_exponential(), [0.7])
        assert th.phase1_pattern_density(inp) == pytest.approx(math.exp(-0.7))

    def test_decreasing_stresses_rejected(self):
        inp = th.pattern_density_input(parse_pattern("1 2"), EqualRule(2), 2,
                                       unit_exponential(), [0.5, 0.3])
        with pytest.raises(ValueError, match="increasing"):
            th.phase1_pattern_density(inp)

    def test_per_component_scale_vector(self):
        scales = (1.0, 1.5, 2.0)
        parts = [StrengthModel("weibull", 5.0, sc) for sc in scales]
        s = [0.4, 0.9]
        inp = th.pattern_density_input(parse_pattern("2(1) 3"), EqualRule(3), 3,
                                       StrengthModel("weibull", 5.0, scales), s)
        # equal rule: 1 f_2(s1) (F_1(1.5 s1) - F_1(s1)) * 3 f_3(3 s2)
        expected = 1.0 * float(parts[1].pdf(1.0 * s[0]))
        expected *= float(parts[0].cdf(1.5 * s[0])) - float(parts[0].cdf(1.0 * s[0]))
        expected *= 3.0 * float(parts[2].pdf(3.0 * s[1]))
        assert th.phase1_pattern_density(inp) == expected

    def test_absorbing_bounds_read_the_share_table(self):
        # oracle: the dense table indexed by the pattern's working-set masks
        rule = AbsorbingRule(transition_matrix(build_grid_graph(2, 3)))
        table = share_table(rule, 6)
        st = StructureFunction.column_paths(2, 3)
        rng = np.random.default_rng(8)
        bursts = 0
        for _ in range(60):
            x = rng.standard_exponential(6) + 0.01
            pattern = simulate_cascade(x, rule, st).pattern
            inp = th.pattern_density_input(pattern, rule, 6, unit_exponential(),
                                           [1.0] * len(pattern.cycles))
            mask = (1 << 6) - 1
            for u, cyc in enumerate(pattern.cycles):
                assert inp.phase1_shares[u] == table[mask, cyc.phase1]
                lower, cur, rows = mask, mask & ~(1 << cyc.phase1), []
                for grp in cyc.groups:
                    rows += [(j, table[lower, j], table[cur, j]) for j in sorted(grp)]
                    lower, cur = cur, cur & ~sum(1 << j for j in grp)
                assert inp.bounds[u] == tuple(rows)
                bursts += len(rows)
                mask = cur
        assert bursts > 20

    def test_two_component_probabilities(self):
        er = EqualRule(2)
        ue = unit_exponential()
        assert th.pattern_probability(parse_pattern("1 2"), er, 2, ue) == pytest.approx(1 / 3, abs=1e-8)
        assert th.pattern_probability(parse_pattern("1(2)"), er, 2, ue) == pytest.approx(1 / 6, abs=1e-8)

    @pytest.mark.slow
    def test_total_probability_n3(self):
        er = EqualRule(3)
        ue = unit_exponential()
        total = sum(
            th.pattern_probability(p, er, 3, ue, epsabs=1e-8, epsrel=1e-7)
            for p in enumerate_patterns(3)
        )
        assert total == pytest.approx(1.0, abs=1e-3)


class TestLowerTailConstant:
    def test_single_exponential_k_is_one(self):
        xs = np.random.default_rng(0).standard_exponential(300_000)
        k = th.lower_tail_constant(1, samples=xs, window=(1e-4, 1e-2))
        assert k == pytest.approx(1.0, rel=0.05)

    def test_minimum_of_three_exponentials(self):
        xs = np.random.default_rng(1).standard_exponential((300_000, 3)).min(axis=1)
        k = th.lower_tail_constant(1, samples=xs, window=(1e-4, 1e-2))
        assert k == pytest.approx(3.0, rel=0.05)

    def test_mixing_moment_path(self):
        # strength of the max of n exponentials mixes over a_{n;n}: K = 1
        for n in (2, 3, 4):
            k = th.lower_tail_constant(n, mixing=th.order_stat_mixing(n, n))
            assert k == pytest.approx(1.0, abs=1e-8)

    def test_atom_moment_path(self):
        # minimum of n exponentials: point-mass mixing at n gives K = n
        assert th.lower_tail_constant(1, mixing=th.order_stat_mixing(1, 5)) == pytest.approx(5.0)

    def test_overflowing_moment_raises_without_a_warning(self):
        # t**1000 overflows on the support [5, 7]; the quadrature names where
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match=r"^integrand is inf at t = 5\.0\d+, "
                               r"in the panel \[5\.0, 6\.0\] of \[5\.0, 7\.0\]$"):
                th.lower_tail_constant(1000, mixing=th.order_stat_mixing(3, 7))

    def test_requires_enough_points(self):
        with pytest.raises(ValueError, match="replica"):
            th.lower_tail_constant(1, samples=np.arange(1, 500.0))

    def test_window_is_the_tail_slope_window(self):
        # a window reaching 1 would take log(ECDF) = 0 at the largest point,
        # which the tail slope cannot use; both fits read tail_window's points
        xs = np.random.default_rng(2).standard_exponential(1_000)
        pos = st.tail_window(xs.size, (0.8, 1.0))
        ranks = np.arange(pos.start + 1, pos.stop + 1) / xs.size
        want = np.exp(np.mean(np.log(ranks) - np.log(np.sort(xs)[pos.start:pos.stop])))
        assert th.lower_tail_constant(1, samples=xs, window=(0.8, 1.0)) == want
        assert st.lower_tail_slope(xs, (0.8, 1.0)).n_points == pos.stop - pos.start

    def test_exactly_one_source(self):
        with pytest.raises(ValueError):
            th.lower_tail_constant(1)
        with pytest.raises(ValueError):
            th.lower_tail_constant(1, samples=[1.0], mixing=th.order_stat_mixing(2, 2))


class TestParallelTailConstant:
    def test_no_sharing_gives_one(self):
        for n in (1, 2, 3):
            assert th.parallel_exponential_tail_constant(UnitRule(n), n) == pytest.approx(1.0)

    def test_equal_rule_two_components(self):
        # F(x) = (1-e^{-2x})^2 - (e^{-x}-e^{-2x})^2 = 3x^2 + O(x^3)
        assert th.parallel_exponential_tail_constant(EqualRule(2), 2) == pytest.approx(3.0)

    def test_equal_rule_three_components(self):
        # hand integral of 6 vol{y1<y2<y3, y1<=x, y2<=1.5x, y3<=3x} = 12.25 x^3
        assert th.parallel_exponential_tail_constant(EqualRule(3), 3) == pytest.approx(12.25)

    def test_dual_path_equal_rule_bundle(self):
        samples = sample_bundle_strengths(
            unit_exponential(), EqualRule(2), StructureFunction.parallel(2),
            1_000_000, seed=23,
        )
        k_reg = th.lower_tail_constant(2, samples=samples)
        k_quad = th.parallel_exponential_tail_constant(EqualRule(2), 2)
        assert abs(k_reg - k_quad) / k_quad < 0.10

    def test_tail_ratio_converges_toward_constant(self):
        samples = sample_bundle_strengths(
            unit_exponential(), EqualRule(2), StructureFunction.parallel(2),
            4_000_000, seed=29,
        )
        xs = np.sort(samples)
        k_quad = 3.0
        ratios = [np.searchsorted(xs, x) / xs.size / x**2 for x in (0.05, 0.02, 0.01)]
        assert ratios[0] < ratios[1]
        assert abs(ratios[-1] - k_quad) < abs(ratios[0] - k_quad)
