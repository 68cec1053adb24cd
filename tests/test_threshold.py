"""Mixture densities, dual-path agreement, pattern densities, tail constants."""

import decimal
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from fiberbundle import stats as st
from fiberbundle import threshold as th
from fiberbundle.cascade import PowerScaledRule, StructureFunction, enumerate_patterns, \
    parse_pattern, sample_bundle_strengths, simulate_cascade
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


def _gamma_pdf(z, shape, rate):
    """Density at z of the gamma law of integer ``shape`` and rate ``rate``."""
    z = np.asarray(z, dtype=float)
    rate = np.asarray(rate, dtype=float)
    return np.exp(shape * np.log(rate) + (shape - 1) * np.log(z) - rate * z - math.lgamma(shape))


def _integrate_panels(f, lo, hi, knots=()):
    """Integral of the scalar function ``f`` over [lo, hi] by ``scipy.integrate.quad``,
    pre-split at the Irwin-Hall ``knots``: the oracle for the closed forms."""
    val, _ = integrate.quad(f, lo, hi, points=[k for k in knots if lo < k < hi] or None)
    return val


def _raw_mixing(law):
    """The law's unnormalized density b_m(theta - shift) e^{-tilt theta} / theta**power."""
    def raw(t):
        return th.irwin_hall_pdf(law.m, t - law.shift) * math.exp(-law.tilt * t) / t**law.power

    return raw


class TestIntegratePanels:
    """The quadrature oracle, and the closed normalizers against it."""

    @pytest.mark.parametrize("m", range(1, 31))
    def test_irwin_hall_normalization(self, m):
        def f(t):
            return th.irwin_hall_pdf(m, t)

        assert _integrate_panels(f, 0.0, float(m), range(1, m)) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("law", [
        lambda: th.order_stat_mixing(2, 5),
        lambda: th.order_stat_mixing(4, 12),
        lambda: th.order_stat_mixing(9, 12),
        lambda: th.order_stat_mixing(12, 30),
        lambda: th._spacing_mixing(4, 9, 12),
        lambda: th.TiltedConditional(3, 7, 9, 0.3, 1.7).law1,
        lambda: th.TiltedConditional(3, 7, 9, 0.3, 1.7).law2,
        lambda: th.TiltedConditional(12, 30, 30, 0.5, 2.0).law1,
        lambda: th.TiltedConditional(12, 30, 30, 0.5, 2.0).law2,
        lambda: th.MixingDensity(m=5, shift=2.0, power=0, tilt=6.0),
        lambda: th.MixingDensity(m=4, shift=3.0, power=0, tilt=1e-9),
        lambda: th.MixingDensity(m=4, shift=3.0, power=0),
    ], ids=["k2n5", "k4n12", "k9n12", "k12n30", "spacing", "tilted1", "tilted2",
            "tilted1-k12", "tilted2-l30", "tilted-steep", "tilted-tiny", "tilted-zero"])
    def test_mixing_law_integrals(self, law):
        # every closed normalizer, the tilted e^{-c t} ((1 - e^{-t}) / t)**m among them
        law = law()
        lo, hi = law.support
        want = _integrate_panels(_raw_mixing(law), lo, hi, [law.shift + j for j in range(1, law.m)])
        assert law.log_normalizer == pytest.approx(math.log(want), rel=0.0, abs=1e-14)


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
        val = _integrate_panels(lambda t: th.irwin_hall_pdf(m, t), 0.0, float(m), knots)
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
            mix.pdf(7.0)

    def test_k2_n5_closed_form(self):
        # density proportional to 1/theta^2 on [4, 5]; normalizer 1/20
        mix = th.order_stat_mixing(2, 5)
        assert -mix.log_normalizer == pytest.approx(math.log(20.0), rel=0.0, abs=1e-15)
        assert mix.pdf(4.5) == pytest.approx(20 / 4.5**2)
        assert mix.pdf(3.99) == 0.0

    @pytest.mark.parametrize("k,n", [(2, 4), (3, 6), (4, 8)])
    def test_integrates_to_one(self, k, n):
        mix = th.order_stat_mixing(k, n)
        lo, hi = mix.support
        val = _integrate_panels(mix.pdf, lo, hi, [lo + j for j in range(1, k)])
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_nonnegative_everywhere(self):
        mix = th.order_stat_mixing(3, 6)
        grid = np.linspace(3.5, 6.5, 200)
        assert np.all(mix.pdf(grid) >= 0.0)

    @pytest.mark.parametrize("k,l,n", [(2, 3, 5), (2, 4, 6), (4, 9, 12), (1, 7, 12), (9, 12, 12),
                                       (12, 30, 30), (20, 25, 40)])
    def test_normalizer_is_exact(self, k, l, n):
        # integral of b_{k-1}(theta - (n-k+1)) / theta**k is (n-k)!/n!, and the
        # spacing law's (n-l)!/(n-k)!: log N against the log of the exact integer
        for law, perm in ((th.order_stat_mixing(k, n), math.perm(n, k)),
                          (th._spacing_mixing(k, l, n), math.perm(n - k, l - k))):
            assert law.log_normalizer == pytest.approx(-math.log(perm), rel=0.0, abs=1e-14), law

    @pytest.mark.parametrize("law", [
        th.order_stat_mixing(170, 400),
        th.TiltedConditional(170, 173, 400, 5.0, 6.0).law1,
    ], ids=["size-biased", "tilted"])
    def test_underflowed_normalizer_leaves_pdf_finite(self, law):
        # N = 1 / (231 * 232 * ... * 400) underflows a float64, and so does
        # e^{-5 theta} on [231, 400]; the pdf reads log N and still integrates to 1
        lo, hi = law.support
        theta = np.linspace(lo, hi, 20_001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pdf = law.pdf(theta)
        assert np.isfinite(law.log_normalizer) and np.all(np.isfinite(pdf))
        assert pdf[0] == pdf[-1] == 0.0 and pdf.max() > 0.01
        assert np.sum(pdf) * (theta[1] - theta[0]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("law", [
        th.order_stat_mixing(2, 5),
        th.order_stat_mixing(4, 12),
        th.order_stat_mixing(12, 30),
        th.order_stat_mixing(60, 100),
        th._spacing_mixing(4, 9, 12),
        th.TiltedConditional(3, 7, 9, 0.3, 1.7).law1,
        th.TiltedConditional(12, 30, 30, 0.5, 2.0).law2,
        th.MixingDensity(m=5, shift=2.0, power=0, tilt=6.0),
    ], ids=["k2n5", "k4n12", "k12n30", "k60n100", "spacing", "tilted1", "tilted2-l30",
            "tilted-steep"])
    def test_pdf_against_decimal_log_space(self, law):
        # b_m(theta - c) e^{-t theta} / theta**p / N in 40-digit decimals, from the
        # same float b_m(theta - c) (correctly rounded) and the exact N
        theta = np.linspace(*law.support, 41)[1:-1]
        got = law.pdf(theta)
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            dec, tilt = decimal.Decimal, decimal.Decimal(law.tilt)
            if law.power:
                log_n = -sum(dec(law.shift + j).ln() for j in range(law.m + 1))
            else:
                log_n = -dec(law.shift) * tilt + law.m * ((1 - (-tilt).exp()) / tilt).ln()
            for t, g in zip(theta.tolist(), got.tolist()):
                b = dec(_irwin_hall_rational(law.m, t - law.shift))
                want = (b.ln() - law.power * dec(t).ln() - tilt * dec(t) - log_n).exp()
                assert g == pytest.approx(float(want), rel=1e-13, abs=0.0), t

    @pytest.mark.parametrize("law", [
        th.order_stat_mixing(1, 7),
        th.order_stat_mixing(2, 5),
        th.order_stat_mixing(4, 12),
        th.order_stat_mixing(12, 30),
        th._spacing_mixing(2, 3, 6),
        th._spacing_mixing(4, 9, 12),
        th._spacing_mixing(12, 30, 30),
    ], ids=["atom", "k2n5", "k4n12", "k12n30", "spacing-atom", "spacing", "spacing-k12l30"])
    def test_gamma_mixture_closed_form_equals_quadrature(self, law):
        # the mixture integral, gamma(power, rate=theta) pdf x mixing pdf, one z at a time
        z = np.array([1e-3, 0.05, 0.13, 0.9, 2.5, 6.0])
        if law.is_atom:
            want = _gamma_pdf(z, law.power, law.shift)
        else:
            lo, hi = law.support
            knots = [law.shift + j for j in range(1, law.m)]
            want = np.array([_integrate_panels(lambda t, v=v: _gamma_pdf(v, law.power, t)
                                               * law.pdf(t), lo, hi, knots) for v in z])
        got = law.gamma_mixture_pdf(z)
        assert np.all(want > 0.0)
        assert np.max(np.abs(got - want) / want) <= 1e-13

    @pytest.mark.parametrize("m, power, tilt", [(3, 2, 0.7), (3, 4, 0.7), (3, 2, 0.0), (0, 2, 0.0)])
    def test_law_outside_both_families_rejected(self, m, power, tilt):
        # only power = m + 1 with no tilt, or power 0, has a closed normalizer
        with pytest.raises(ValueError, match=rf"^mixing law \(m = {m}, power = {power}, "
                                             rf"tilt = {tilt}\) is neither size-biased"):
            th.MixingDensity(m=m, shift=2.0, power=power, tilt=tilt)

    def test_non_finite_z_rejected(self):
        # a NaN z has no density: it is rejected, alone or in an array of z
        mix = th.order_stat_mixing(3, 7)
        with pytest.raises(ValueError, match="z = nan is not finite") as lone:
            mix.gamma_mixture_pdf(np.nan)
        with pytest.raises(ValueError, match="z = nan is not finite") as batch:
            mix.gamma_mixture_pdf(np.array([0.5, np.nan, 2.0, 4.0]))
        assert str(batch.value) == str(lone.value)
        with pytest.raises(ValueError, match="z = inf is not finite"):
            mix.gamma_mixture_pdf([1.0, np.inf])

    def test_gamma_mixture_needs_a_gamma_shape(self):
        # power 0 leaves no gamma kernel to cancel the size bias
        for law in (th.MixingDensity(m=2, shift=1.0, power=0),
                    th.TiltedConditional(3, 7, 9, 0.3, 1.7).law1):
            with pytest.raises(ValueError, match="needs power >= 1, the gamma shape; "
                                                 "this law has power 0"):
                law.gamma_mixture_pdf(0.5)


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
            got = mix.gamma_mixture_pdf(z)
            assert got.tolist() == [[mix.gamma_mixture_pdf(v) for v in row] for row in z.tolist()]
            assert type(mix.gamma_mixture_pdf(0.9)) is float

    def test_batch_over_several_groups_at_large_k(self):
        # k = 40: mixing laws of order 39 and 1
        joint = th.OrderStatJointDensity(40, 42, 45)
        x = np.linspace(0.5, 3.0, 64)
        y = x + 0.4
        batch = joint.mixture(x, y)
        assert batch.tolist() == [joint.mixture(a, b) for a, b in zip(x.tolist(), y.tolist())]
        assert np.allclose(batch, [joint.direct(a, b) for a, b in zip(x, y)], rtol=1e-8, atol=0)

    def test_large_n_builds_no_huge_factorial(self):
        # n! has 5.6 million digits at n = 10^6; n!/(n-l)! has 54
        k, l, n, x, y = 4, 9, 10**6, 1e-5, 3e-5
        start = time.perf_counter()
        joint = th.OrderStatJointDensity(k, l, n)
        direct, marginal = joint.direct(x, y), joint.marginal_k(x)
        assert time.perf_counter() - start < 1.0

        def log_perm(j):  # log n!/(n-j)!, term by term: lgamma(n + 1) alone is 1e-9 off
            return math.fsum(math.log(n - i) for i in range(j))

        want = math.exp(log_perm(l) - math.lgamma(k) - math.lgamma(l - k)
                        + (k - 1) * math.log(-math.expm1(-x)) - (l - k) * x
                        + (l - k - 1) * math.log(-math.expm1(-(y - x))) - (n - l + 1) * y)
        assert direct == pytest.approx(want, rel=1e-12, abs=0.0)
        want = math.exp(log_perm(k) - math.lgamma(k)) * (-math.expm1(-x)) ** (k - 1) \
            * math.exp(-(n - k + 1) * x)
        assert marginal == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_direct_against_decimal_textbook_form(self):
        # n!/((k-1)! (l-k-1)! (n-l)!) F(x)^(k-1) f(x) (F(y) - F(x))^(l-k-1) f(y) S(y)^(n-l)
        # in 40-digit decimals over 2,000 points, at orders whose float product
        # under- or overflows
        rng = np.random.default_rng(3)
        for (k, l, n), scale in (((4, 9, 12), 2.0), ((4, 200, 1000), 0.5), ((250, 500, 1000), 2.0)):
            x = rng.uniform(0.0, scale, 2000)
            y = x + rng.uniform(0.0, scale, 2000)
            got = th.OrderStatJointDensity(k, l, n).direct(x, y)
            const = math.perm(n, l) // (math.factorial(k - 1) * math.factorial(l - k - 1))
            with decimal.localcontext() as ctx:
                ctx.prec = 40
                for xv, yv, g in zip(x.tolist(), y.tolist(), got.tolist()):
                    dx, dy = decimal.Decimal(xv), decimal.Decimal(yv)
                    sx, sy = (-dx).exp(), (-dy).exp()
                    want = (const * (1 - sx) ** (k - 1) * sx * (sx - sy) ** (l - k - 1) * sy
                            * sy ** (n - l))
                    assert g > 0.0 or want < decimal.Decimal("1e-320"), (k, l, n, xv, yv)
                    if want > decimal.Decimal("1e-300"):
                        assert g == pytest.approx(float(want), rel=1e-12, abs=0.0), (k, l, n)

    def test_batched_direct_equals_scalar_calls(self):
        joint = th.OrderStatJointDensity(4, 9, 12)
        xv = [-0.5, -0.0, 0.0, 1e-3, 0.13, 0.4, 0.4, 0.9, 1.7, np.nan]
        yv = [-0.2, 0.0, 0.13, 0.4, 0.5, 1.1, 1.7, 2.3, np.inf]
        x, y = np.meshgrid(xv, yv, indexing="ij")
        batch = joint.direct(x, y)
        assert batch.shape == x.shape
        assert batch.tolist() == [[joint.direct(a, b) for b in yv] for a in xv]
        assert (batch > 0).sum() == 23 and (batch[~(x < y)] == 0).all()
        assert type(joint.direct(0.4, 1.1)) is float and type(joint.marginal_k(0.4)) is float
        assert joint.marginal_k(np.array([-1.0, 0.0, 0.5, np.inf])).tolist() == \
            [0.0, 0.0, joint.marginal_k(0.5), 0.0]

    def test_ordering_enforced(self):
        joint = th.OrderStatJointDensity(2, 4, 6)
        assert joint.direct(1.0, 0.5) == 0.0
        assert joint.mixture(1.0, 1.0) == 0.0
        with pytest.raises(ValueError):
            th.OrderStatJointDensity(3, 3, 6)


class TestTilted:
    def test_factors_normalize(self):
        tc = th.TiltedConditional(2, 4, 6, 0.5, 1.0)
        v1, _ = integrate.quad(tc.law1.pdf, 5, 6)
        v2, _ = integrate.quad(tc.law2.pdf, 3, 4)
        assert v1 == pytest.approx(1.0, abs=1e-8)
        assert v2 == pytest.approx(1.0, abs=1e-8)

    def test_vanishing_tilt_recovers_shifted_convolution(self):
        k, l, n = 3, 6, 8
        tc = th.TiltedConditional(k, l, n, 1e-12, 1.0 + 1e-12)
        shift = n - k + 1
        for theta in (6.3, 7.0, 7.9):
            assert tc.law1.pdf(theta) == pytest.approx(
                th.irwin_hall_pdf(k - 1, theta - shift), rel=1e-6
            )

    @pytest.mark.parametrize("k,l,n,x,y", [(2, 4, 6, 0.5, 1.0), (3, 7, 9, 0.3, 1.7),
                                           (4, 8, 8, 2.5, 4.0)])
    def test_posterior_identity(self, k, l, n, x, y):
        # Bayes: each factor is gamma likelihood x untilted mixing prior / evidence
        tc = th.TiltedConditional(k, l, n, x, y)
        for factor, law, shape, z in ((tc.law1.pdf, th.order_stat_mixing(k, n), k, x),
                                      (tc.law2.pdf, th._spacing_mixing(k, l, n), l - k, y - x)):
            lo, hi = law.support
            assert law.power == shape
            evidence = law.gamma_mixture_pdf(z)
            for theta in np.linspace(lo, hi, 9):
                want = float(_gamma_pdf(z, shape, theta)) * law.pdf(theta) / evidence
                assert factor(theta) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_laws_are_tilted_mixing_laws(self):
        tc = th.TiltedConditional(3, 7, 9, 0.3, 1.7)
        assert tc.law1 == th.MixingDensity(m=2, shift=7.0, power=0, tilt=0.3)
        assert tc.law2 == th.MixingDensity(m=3, shift=3.0, power=0, tilt=1.7 - 0.3)

    def test_unsupported_theta_is_zero(self):
        tc = th.TiltedConditional(2, 4, 6, 0.5, 1.0)
        assert tc.law1.pdf(4.5) == 0.0 and tc.law2.pdf(4.5) == 0.0

    def test_degenerate_cases_rejected(self):
        with pytest.raises(ValueError, match="point mass"):
            th.TiltedConditional(1, 3, 5, 0.5, 1.0)
        with pytest.raises(ValueError, match="point mass"):
            th.TiltedConditional(2, 3, 5, 0.5, 1.0)


class TestPatternDensity:
    def test_two_component_hand_values(self):
        er = EqualRule(2)
        ue = unit_exponential()
        inp = th.pattern_density_input(parse_pattern("1(2)"), er, 2, ue)
        expected = (math.exp(-0.3) - math.exp(-0.6)) * math.exp(-0.3)
        assert th.phase1_pattern_density(inp, [0.3]) == pytest.approx(expected)
        inp2 = th.pattern_density_input(parse_pattern("1 2"), er, 2, ue)
        assert th.phase1_pattern_density(inp2, [0.3, 0.5]) == pytest.approx(
            math.exp(-0.3) * 2 * math.exp(-1.0)
        )

    def test_single_cycle_reduces_to_phase1_factor(self):
        # empty burst: density is a * f(a s) alone
        inp = th.pattern_density_input(parse_pattern("1"), EqualRule(1), 1, unit_exponential())
        assert th.phase1_pattern_density(inp, [0.7]) == pytest.approx(math.exp(-0.7))

    def test_one_input_evaluates_every_stress_vector(self):
        er, ue = EqualRule(2), unit_exponential()
        inp = th.pattern_density_input(parse_pattern("1(2)"), er, 2, ue)
        for s in (0.1, 0.3, 1.7):
            want = (math.exp(-s) - math.exp(-2 * s)) * math.exp(-s)
            assert th.phase1_pattern_density(inp, [s]) == pytest.approx(want, rel=1e-14)
        with pytest.raises(ValueError, match="length"):
            th.phase1_pattern_density(inp, [0.1, 0.2])

    def test_decreasing_stresses_rejected(self):
        inp = th.pattern_density_input(parse_pattern("1 2"), EqualRule(2), 2, unit_exponential())
        with pytest.raises(ValueError, match="increasing"):
            th.phase1_pattern_density(inp, [0.5, 0.3])

    def test_scipy_frozen_law_accepted(self):
        from scipy import stats as sps

        rule = AbsorbingRule(transition_matrix(build_grid_graph(1, 3)))
        pattern = parse_pattern("1(2) 3")
        frozen = th.pattern_density_input(pattern, rule, 3, sps.weibull_min(5.0, scale=2.0))
        model = th.pattern_density_input(pattern, rule, 3, StrengthModel("weibull", 5.0, 2.0))
        for s in ([0.3, 0.5], [0.2, 0.9], [1.1, 1.9]):
            want = th.phase1_pattern_density(model, s)
            assert want > 0.0
            assert th.phase1_pattern_density(frozen, s) == pytest.approx(want, rel=1e-12)

    def test_incomplete_law_rejected(self):
        class CdfOnly:
            def cdf(self, x):
                return -np.expm1(-np.asarray(x, dtype=float))

        with pytest.raises(TypeError, match="lacks sf, logsf, pdf;"):
            th.pattern_density_input(parse_pattern("1 2"), EqualRule(2), 2, CdfOnly())

    def test_per_component_scale_vector(self):
        scales = (1.0, 1.5, 2.0)
        parts = [StrengthModel("weibull", 5.0, sc) for sc in scales]
        s = [0.4, 0.9]
        inp = th.pattern_density_input(parse_pattern("2(1) 3"), EqualRule(3), 3,
                                       StrengthModel("weibull", 5.0, scales))
        # equal rule: 1 f_2(s1) (F_1(1.5 s1) - F_1(s1)) * 3 f_3(3 s2)
        expected = 1.0 * float(parts[1].pdf(1.0 * s[0]))
        expected *= float(parts[0].cdf(1.5 * s[0])) - float(parts[0].cdf(1.0 * s[0]))
        expected *= 3.0 * float(parts[2].pdf(3.0 * s[1]))
        assert th.phase1_pattern_density(inp, s) == expected

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
            inp = th.pattern_density_input(pattern, rule, 6, unit_exponential())
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
        assert th.pattern_probability(parse_pattern("1 2"), er, 2, ue) == pytest.approx(1 / 3, abs=1e-15)
        assert th.pattern_probability(parse_pattern("1(2)"), er, 2, ue) == pytest.approx(1 / 6, abs=1e-15)

    def test_total_probability_n3(self):
        er = EqualRule(3)
        ue = unit_exponential()
        total = math.fsum(th.pattern_probability(p, er, 3, ue) for p in enumerate_patterns(3))
        assert total == pytest.approx(1.0, abs=1e-13)


_ABSORBING_1X3 = AbsorbingRule(transition_matrix(build_grid_graph(1, 3)))
_ABSORBING_2X2 = AbsorbingRule(transition_matrix(build_grid_graph(2, 2)))
_WEIBULL_SCALES = (1.0, 2.0, 1.5, 0.7)


def _bundles(n):
    """(name, rule, law) of the bundles whose pattern sums are checked at size n."""
    ue = unit_exponential()
    weibull = StrengthModel("weibull", 5.0, _WEIBULL_SCALES[:n])
    out = [("equal", EqualRule(n), ue), ("unit", UnitRule(n), ue),
           ("equal-weibull", EqualRule(n), weibull)]
    if n == 4:
        out += [("absorbing-2x2", _ABSORBING_2X2, ue),
                ("absorbing-2x2-weibull", _ABSORBING_2X2, weibull)]
    return out


def _quad_pattern_probability(pattern, rule, n, dist):
    """The pattern's stress density integrated over 0 < s_1 < ... < s_f by
    nested quadrature, one ``quad`` per cycle from the previous stress to inf."""
    inp = th.pattern_density_input(pattern, rule, n, dist)

    def nested(s):
        if len(s) == len(pattern.cycles):
            return th.phase1_pattern_density(inp, s)
        val, _ = integrate.quad(lambda t: nested([*s, t]), s[-1] if s else 0.0, np.inf,
                                epsabs=1e-10, epsrel=1e-10, limit=200)
        return val

    return nested([])


def _decimal_pattern_probability(pattern, rule, n, dist):
    """The exponential sum of :func:`pattern_probability` in 60-digit decimal
    arithmetic, from the same float rates (share / scale)**shape."""
    rho = dist.shape
    sigma = [dist.component(i).scale for i in range(n)]
    shares, bounds = th._pattern_terms(pattern, rule, n)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        terms = [(decimal.Decimal(1), decimal.Decimal(0))]
        for u in reversed(range(len(shares))):
            a = decimal.Decimal((shares[u] / sigma[pattern.cycles[u].phase1]) ** rho)
            terms = [(c * a, r + a) for c, r in terms]
            for j, lo, hi in bounds[u]:
                low = decimal.Decimal((lo / sigma[j]) ** rho)
                high = decimal.Decimal((hi / sigma[j]) ** rho)
                terms = [(c, r + low) for c, r in terms] + [(-c, r + high) for c, r in terms]
            terms = [(c / r, r) for c, r in terms]
        return sum(c for c, _ in terms)


class TestPatternProbability:
    @pytest.mark.parametrize("rule, dist, texts", [
        (EqualRule(3), unit_exponential(), ("1(2(3))", "2(1,3)", "1 2(3)", "3(1) 2")),
        (_ABSORBING_1X3, unit_exponential(), ("1(2(3))", "2 1(3)", "1(2) 3", "1(3) 2")),
        (_ABSORBING_1X3, StrengthModel("weibull", 5.0, (1.0, 2.0, 1.5)),
         ("1(2(3))", "2(1,3)", "1 2(3)")),
    ], ids=["equal", "absorbing-1x3", "absorbing-1x3-weibull"])
    def test_equals_nested_quadrature(self, rule, dist, texts):
        for text in texts:
            pattern = parse_pattern(text)
            want = _quad_pattern_probability(pattern, rule, 3, dist)
            assert th.pattern_probability(pattern, rule, 3, dist) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_patterns_sum_to_one(self, n):
        patterns = enumerate_patterns(n)
        for name, rule, dist in _bundles(n):
            total = math.fsum(th.pattern_probability(p, rule, n, dist) for p in patterns)
            assert total == pytest.approx(1.0, abs=1e-13), name

    @pytest.mark.parametrize("base", [EqualRule(4), _ABSORBING_2X2], ids=["equal", "absorbing-2x2"])
    def test_weibull_is_the_power_map_bit_for_bit(self, base):
        weibull = StrengthModel("weibull", 5.0, _WEIBULL_SCALES)
        mapped = PowerScaledRule(base, _WEIBULL_SCALES, 5.0)
        for p in enumerate_patterns(4):
            assert th.pattern_probability(p, base, 4, weibull) == \
                th.pattern_probability(p, mapped, 4, unit_exponential()), str(p)

    def test_precision_against_60_digit_decimals(self):
        bundles = [(n, rule, dist) for n in (1, 2, 3, 4) for _, rule, dist in _bundles(n)]
        bundles.append((5, EqualRule(5), unit_exponential()))
        worst_abs = worst_rel = 0.0
        for n, rule, dist in bundles:
            for p in enumerate_patterns(n):
                exact = _decimal_pattern_probability(p, rule, n, dist)
                err = float(abs(decimal.Decimal(th.pattern_probability(p, rule, n, dist)) - exact))
                worst_abs = max(worst_abs, err)
                if exact >= decimal.Decimal("1e-6"):
                    worst_rel = max(worst_rel, err / float(exact))
        assert worst_abs <= 1e-15
        assert worst_rel <= 1e-10

    def test_burst_term_count_guarded(self):
        # 21 Phase-II components would expand into 2^21 terms
        pattern = parse_pattern("1(" + ",".join(str(i) for i in range(2, 23)) + ")")
        with pytest.raises(ValueError, match="21 Phase-II components"):
            th.pattern_probability(pattern, EqualRule(22), 22, unit_exponential())

    def test_frozen_scipy_law_rejected(self):
        from scipy import stats as sps

        with pytest.raises(TypeError, match="needs a StrengthModel.*rv_continuous_frozen"):
            th.pattern_probability(parse_pattern("1 2"), EqualRule(2), 2,
                                   sps.weibull_min(5.0, scale=2.0))


class TestLowerTailConstant:
    def test_single_exponential_k_is_one(self):
        xs = np.random.default_rng(0).standard_exponential(300_000)
        k = th.lower_tail_constant(1, samples=xs, window=(1e-4, 1e-2))
        assert k == pytest.approx(1.0, rel=0.05)

    def test_minimum_of_three_exponentials(self):
        xs = np.random.default_rng(1).standard_exponential((300_000, 3)).min(axis=1)
        k = th.lower_tail_constant(1, samples=xs, window=(1e-4, 1e-2))
        assert k == pytest.approx(3.0, rel=0.05)

    def test_order_statistic_constant_is_binomial(self):
        # the k-th of n unit exponentials has F(x) ~ C(n, k) x**k: the max of two, K = 1;
        # over seeds 0-9 the estimate spans 0.93-1.03
        xs = np.random.default_rng(0).standard_exponential((2_000_000, 2)).max(axis=1)
        k = th.lower_tail_constant(2, samples=xs, window=(1e-5, 1e-3))
        assert k == pytest.approx(math.comb(2, 2), rel=0.1)

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

    def test_zero_strengths_in_the_window_rejected(self):
        # no log of a zero strength: both fits name the bad points
        xs = np.random.default_rng(5).weibull(2.0, 200_000)
        xs[:50] = 0.0
        msg = r"^49 of the 199 strengths in quantile window \(1e-05, 0\.001\) are zero or not"
        with pytest.raises(ArithmeticError, match=msg):
            st.lower_tail_slope(xs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match=msg):
                th.lower_tail_constant(2, samples=xs)


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
