"""Gamma-mixture threshold densities for order statistics and bundle stresses.

The k-th order statistic of n unit exponentials is a scale mixture of
gamma(k) laws whose mixing density is a size-biased, shifted convolution of
uniforms (an Irwin-Hall density); the size bias cancels the gamma kernel's
rate power, so the mixture is the closed Irwin-Hall Laplace transform.  Every
mixing law's normalizer is closed too, so the module holds no quadrature, and
the mixing and order-statistic densities are evaluated in log space.  The
same machinery yields the joint density of the Phase-I breaking stresses and
the breaking pattern of a monotone load-sharing bundle, and the constant of
its power-law lower tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .distributions import StrengthModel, component_laws

if TYPE_CHECKING:
    from .cascade import BreakingPattern
    from .loadshare import Rule

# The order-statistic densities need NumPy only; the pattern functions and
# lower_tail_constant import the modules they read when called, except the
# strength laws, which the CLI loads on import anyway.

__all__ = [
    "irwin_hall_pdf",
    "MixingDensity",
    "order_stat_mixing",
    "OrderStatJointDensity",
    "TiltedConditional",
    "PatternDensityInput",
    "pattern_density_input",
    "phase1_pattern_density",
    "pattern_probability",
    "lower_tail_constant",
    "parallel_exponential_tail_constant",
]

_IRWIN_HALL_MAX_CELLS = 1 << 22  # m x points per scratch array: 32 MiB of float64
_MAX_BURST_COMPONENTS = 20  # 2^20 terms of a pattern's exponential sum: 8 MiB per array


def irwin_hall_pdf(m: int, t) -> float | np.ndarray:
    """Density b_m of the sum of m independent U[0,1] variables.

    Built up from b_1 = 1 on [0, 1) by the recurrence
    (k-1) b_k(t) = t b_{k-1}(t) + (k-t) b_{k-1}(t-1), carried on the shifted
    values b_k(t - j), j < m.  Inside the support both terms are non-negative,
    so nothing cancels and the relative error stays near machine precision
    even at m = 30.  m = 0 is a point mass at 0 and has no density; it is
    handled symbolically by :class:`MixingDensity`.  The scratch arrays hold
    m values per point in the support, at most 2^22 (32 MiB) each; a larger
    request raises ``ValueError`` before allocating.
    """
    if m < 1:
        raise ValueError("m must be >= 1; b_0 is a point mass handled symbolically")
    t_arr = np.asarray(t, dtype=float)
    out = np.zeros_like(t_arr, dtype=float)
    inside = (t_arr >= 0.0) & (t_arr <= m)
    points = int(np.count_nonzero(inside))
    if m * points > _IRWIN_HALL_MAX_CELLS:
        raise ValueError(f"m = {m} at {points} points in the support needs m x points = "
                         f"{m * points} values per scratch array; at most {_IRWIN_HALL_MAX_CELLS}")
    x = t_arr[inside] - np.arange(m, dtype=float)[:, None]
    b = ((x >= 0.0) & (x < 1.0)).astype(float)
    for k in range(2, m + 1):
        # b_k(x - j) needs b_{k-1}(x - j) and b_{k-1}(x - j - 1): one row fewer each step
        r = m - k + 1
        b = (x[:r] * b[:r] + (k - x[:r]) * b[1:r + 1]) / (k - 1)
    out[inside] = b[0]
    return out if t_arr.ndim else float(out)


@dataclass(frozen=True)
class MixingDensity:
    """Shifted Irwin-Hall density b_m(theta - shift) e^{-tilt theta} / theta**power.

    Supported on [shift, shift + m]; m = 0 degenerates to an atom at ``shift``
    (kept symbolic: ``is_atom``).  The laws come in two families, each with
    a closed normalizer N; any other (power, tilt) is a ValueError.  The
    order-statistic laws are size-biased (power = m + 1, tilt 0), and N is
    the m-th divided difference of 1/theta over the B-spline knots shift,
    ..., shift + m (Curry & Schoenberg 1966): 1 / (c (c+1) ... (c+m)) with
    c = shift.  The thresholds' conditional laws given the stresses are
    tilted instead (power 0), and N is the Irwin-Hall Laplace transform
    e^{-c t} ((1 - e^{-t}) / t)**m at t = tilt (1 at t = 0).  A gamma(power)
    mixture over a size-biased law is closed too (:meth:`gamma_mixture_pdf`).
    Densities are evaluated in log space with log N, so they stay
    finite where N leaves the float range; ``pdf`` is within 5.5e-14,
    relatively, of 40-digit decimals over the laws tried (m <= 59).
    """

    m: int
    shift: float
    power: int
    tilt: float = 0.0

    def __post_init__(self):
        if not ((self.power == self.m + 1 and self.tilt == 0) or self.power == 0):
            raise ValueError(f"mixing law (m = {self.m}, power = {self.power}, tilt = {self.tilt})"
                             f" is neither size-biased (power = m + 1, tilt = 0) nor tilted "
                             f"(power = 0): it has no closed normalizer")

    @property
    def is_atom(self) -> bool:
        return self.m == 0

    @property
    def support(self) -> tuple[float, float]:
        return (self.shift, self.shift + self.m)

    @cached_property
    def _log_shifted_normalizer(self) -> float:
        """log(N e^{shift tilt}): the integral over u of b_m(u) e^{-tilt u} / (u + shift)**power."""
        c, t = self.shift, self.tilt
        if self.power:
            return -math.fsum(math.log(c + j) for j in range(self.m + 1))
        return self.m * math.log(-math.expm1(-t) / t) if t else 0.0

    @property
    def log_normalizer(self) -> float:
        """log N (atom: log of its weight), finite where N under- or overflows a float64."""
        return self._log_shifted_normalizer - self.shift * self.tilt

    def pdf(self, theta) -> float | np.ndarray:
        """exp(log b_m(u) - power log theta - tilt u - log(N e^{shift tilt})), u = theta - shift:
        no large tilt theta cancels against log N.  Elementwise, and 0 off the support."""
        if self.is_atom:
            raise ValueError(f"point mass at theta = {self.shift}; no density to evaluate")
        theta_arr = np.asarray(theta, dtype=float)
        out = np.zeros(theta_arr.shape)
        lo, hi = self.support
        inside = (theta_arr >= lo) & (theta_arr <= hi)
        t = theta_arr[inside]
        u = t - self.shift
        with np.errstate(divide="ignore", over="ignore"):  # log b_m(0) = -inf; tilt u past floats
            log_f = np.log(irwin_hall_pdf(self.m, u)) - self.tilt * u
        if self.power:
            log_f -= self.power * np.log(t)
        out[inside] = np.exp(log_f - self._log_shifted_normalizer)
        return out if theta_arr.ndim else float(out)

    def gamma_mixture_pdf(self, z) -> float | np.ndarray:
        """Density at z of the gamma(power, rate=theta) law mixed over this law.

        The size bias theta**-power cancels the gamma kernel's theta**power,
        which leaves the Laplace transform of the Irwin-Hall law,
        integral of b_m(u) e^{-z u} du = ((1 - e^{-z}) / z)**m.  With p = power,

            f(z) = z**(p-1) / Gamma(p) * e^{-shift z} ((1 - e^{-z}) / z)**m / N,

        evaluated in log space with log N, so it needs no float N, elementwise
        in z, and 0 where z <= 0; an atom (m = 0) gives the gamma(1,
        rate=shift) density.  A tilted law (power 0) has no gamma kernel, and
        a NaN or infinite z has no density: both are ValueError.
        """
        if self.power < 1:
            raise ValueError(f"gamma mixture density needs power >= 1, the gamma shape; "
                             f"this law has power {self.power}")
        z_arr = np.asarray(z, dtype=float)
        bad = z_arr[~np.isfinite(z_arr)]
        if bad.size:
            raise ValueError(f"gamma mixture density: z = {bad[0]} is not finite")
        out = np.zeros(z_arr.shape)
        pos = z_arr > 0
        z_pos = z_arr[pos]
        with np.errstate(over="ignore"):  # shift * z past the float range: the density is 0
            decay = self.shift * z_pos
        log_f = ((self.power - 1) * np.log(z_pos) - math.lgamma(self.power) - decay
                 + self.m * (np.log(-np.expm1(-z_pos)) - np.log(z_pos)) - self.log_normalizer)
        out[pos] = np.exp(log_f)
        return out if z_arr.ndim else float(out)


def order_stat_mixing(k: int, n: int) -> MixingDensity:
    """Mixing density of the k-th order statistic of n unit exponentials.

    b_{k-1}(theta - (n-k+1)) / theta**k on [n-k+1, n]; k = 1 is the point
    mass at n (minimum case).
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return MixingDensity(m=k - 1, shift=float(n - k + 1), power=k)


def _spacing_mixing(k: int, l: int, n: int) -> MixingDensity:
    # mixing law of the (l-k)-spacing factor; the convolution order is l-k-1,
    # matching the uniform-integral identity for (1-e^{-u})^{l-k-1}
    return MixingDensity(m=l - k - 1, shift=float(n - l + 1), power=l - k)


def _on_support(x, y, density) -> float | np.ndarray:
    """density(x, y) elementwise over broadcast x and y, and 0 unless 0 < x < y."""
    x_arr, y_arr = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = np.zeros(x_arr.shape)
    inside = (0 < x_arr) & (x_arr < y_arr)
    with np.errstate(over="ignore"):  # a rate times a stress past the float range: e^-inf = 0
        out[inside] = density(x_arr[inside], y_arr[inside])
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class OrderStatJointDensity:
    """Joint density of the (k, l) order statistics of n unit exponentials.

    Two independent evaluation paths: ``direct`` is the normalized closed
    form; ``mixture`` re-assembles the density from gamma kernels against the
    two uniform-convolution mixing laws.  They must agree, which is the main
    numerical check on the whole construction.  Both are elementwise in log
    space and 0 unless 0 < x < y.  ``direct``, with the log of the exact integer
    n!/((k-1)! (l-k-1)! (n-l)!), is within 3e-13 of the textbook form in decimals.
    """

    k: int
    l: int
    n: int

    def __post_init__(self):
        if not 1 <= self.k < self.l <= self.n:
            raise ValueError("need 1 <= k < l <= n")

    @cached_property
    def _mix1(self) -> MixingDensity:
        return order_stat_mixing(self.k, self.n)

    @cached_property
    def _mix2(self) -> MixingDensity:
        return _spacing_mixing(self.k, self.l, self.n)

    def direct(self, x, y) -> float | np.ndarray:
        k, l, n = self.k, self.l, self.n
        log_c = math.log(math.perm(n, l) // (math.factorial(k - 1) * math.factorial(l - k - 1)))
        return _on_support(x, y, lambda x, y: np.exp(
            log_c + (k - 1) * np.log(-np.expm1(-x)) - (l - k) * x
            + (l - k - 1) * np.log(-np.expm1(-(y - x))) - (n - l + 1) * y))

    def mixture(self, x, y) -> float | np.ndarray:
        return _on_support(x, y, lambda x, y: (self._mix1.gamma_mixture_pdf(x)
                                               * self._mix2.gamma_mixture_pdf(y - x)))

    def marginal_k(self, x) -> float | np.ndarray:
        """Closed-form marginal of the k-th order statistic (for checks), as ``direct``."""
        k, n = self.k, self.n
        log_c = math.log(math.perm(n, k) // math.factorial(k - 1))
        return _on_support(x, np.inf, lambda x, _: np.exp(
            log_c + (k - 1) * np.log(-np.expm1(-x)) - (n - k + 1) * x))


@dataclass(frozen=True)
class TiltedConditional:
    """Conditional law of the mixing thresholds given (X, Y) = (x, y).

    Each factor is the corresponding order-statistic mixing law with the size
    bias replaced by an exponential tilt, e^{-x theta} b_m(theta - shift); the
    joint is the product of the two factors (conditional independence is
    structural).
    """

    k: int
    l: int
    n: int
    x: float
    y: float

    def __post_init__(self):
        if not 1 <= self.k < self.l <= self.n:
            raise ValueError("need 1 <= k < l <= n")
        if not 0 < self.x < self.y:
            raise ValueError("need 0 < x < y")
        if self.k == 1 or self.l == self.k + 1:
            raise ValueError(
                "degenerate tilt: the corresponding mixing law is a point mass "
                "(k = 1 or l = k + 1); handle symbolically"
            )

    @cached_property
    def law1(self) -> MixingDensity:
        """Law of Theta_1 given X = x."""
        return replace(order_stat_mixing(self.k, self.n), power=0, tilt=self.x)

    @cached_property
    def law2(self) -> MixingDensity:
        """Law of Theta_2 given (X, Y) = (x, y)."""
        return replace(_spacing_mixing(self.k, self.l, self.n), power=0, tilt=self.y - self.x)


# ---------------------------------------------------------------------------
# Phase-I pattern density


@dataclass(frozen=True)
class PatternDensityInput:
    """Everything needed to evaluate the joint stress/pattern density at any s.

    ``laws`` holds each component's strength law; ``phase1_shares`` the share
    a_u of each cycle's Phase-I component at its working set; ``bounds``, per
    cycle, the (component, L, U) share bounds bracketing each Phase-II failure.
    """

    pattern: BreakingPattern
    laws: tuple
    phase1_shares: tuple[float, ...]
    bounds: tuple[tuple[tuple[int, float, float], ...], ...]


def _pattern_terms(pattern: BreakingPattern, rule: Rule, n: int) -> tuple[tuple, tuple]:
    """One pattern walk: each cycle's Phase-I share and (component, L, U) burst bounds."""
    from .cascade import _pattern_steps

    shares, bounds = [], []
    for cyc, _, lam, bursts, _, _ in _pattern_steps(pattern, rule, n):
        shares.append(lam[cyc.phase1])
        bounds.append(tuple((j, lo[j], hi[j]) for grp, lo, hi in bursts for j in sorted(grp)))
    return tuple(shares), tuple(bounds)


def pattern_density_input(pattern: BreakingPattern, rule: Rule, n: int,
                          dist) -> PatternDensityInput:
    """Compute the share bounds of a pattern from the rule and package them
    with the component laws; evaluate with :func:`phase1_pattern_density`."""
    return PatternDensityInput(pattern, tuple(component_laws(dist, n)),
                               *_pattern_terms(pattern, rule, n))


def phase1_pattern_density(inp: PatternDensityInput, s: Sequence[float]) -> float:
    """Joint density of the Phase-I stresses ``s`` and the breaking pattern.

    Product over cycles of the Phase-I factor a_u f(a_u s_u) and, for each
    Phase-II component, the probability F(U s_u) - F(L s_u) of its strength
    landing in the bracketed band.  Empty-burst cycles contribute only their
    Phase-I factor.
    """
    s = [float(v) for v in s]
    if len(s) != len(inp.pattern.cycles):
        raise ValueError("stress vector length must match the number of cycles")
    if any(b <= a for a, b in zip(s[:-1], s[1:])):
        raise ValueError("phase-I stresses must be strictly increasing")
    if any(v <= 0 for v in s):
        return 0.0
    out = 1.0
    for u, s_u in enumerate(s):
        a_u = inp.phase1_shares[u]
        out *= a_u * float(inp.laws[inp.pattern.cycles[u].phase1].pdf(a_u * s_u))
        for (i2, lo, hi) in inp.bounds[u]:
            out *= float(inp.laws[i2].cdf(hi * s_u)) - float(inp.laws[i2].cdf(lo * s_u))
    return max(out, 0.0)


def pattern_probability(pattern: BreakingPattern, rule: Rule, n: int,
                        dist: StrengthModel) -> float:
    """Probability of a breaking pattern, as an exact sum of exponentials.

    ``dist`` is a :class:`StrengthModel`: Weibull laws of one shape rho, with
    a scalar or per-component scale sigma_i (exponential is rho = 1).  The
    substitution t = s**rho makes every component a unit-rate exponential
    under the shares (lambda_i / sigma_i)**rho, as ``PowerScaledRule``
    states, so cycle u's stress density is phi_u(t) = a e^{-a t} times, per
    Phase-II component, its band e^{-L t} - e^{-U t}.  From G_f(t) = 1 after
    the last cycle back to the first, G_u(t) = integral from t to inf of
    phi_u(tau) G_{u+1}(tau) dtau is a list of terms c e^{-r t}, each the
    integral c / r e^{-r t} of one product term; the probability is the
    ``math.fsum`` of G_0(0)'s coefficients.  A pattern with m Phase-II
    components has 2^m terms, so m > 20 is a ``ValueError``; any other law
    is a ``TypeError``.

    Precision, against the same sum evaluated in 60-digit decimals from the
    same float rates, over every pattern of n <= 4 under the equal, unit and
    absorbing 2x2 rules (unit exponentials, and Weibull(5) with scales
    (1, 2, 1.5, 0.7)) and of the equal n = 5 rule: absolute error at most
    2.5e-16, and relative error at most 5e-12 wherever p >= 1e-6.  The
    bands subtract nearly equal terms, so tiny probabilities lose relative
    digits: the Weibull pattern ``1(2,3) 4`` under the equal rule, of
    probability 3.8e-13, is 1.3e-8 off, relatively, where a quadrature's
    usual absolute tolerance of 1e-10 would exceed the value itself.
    """
    if not isinstance(dist, StrengthModel):
        raise TypeError(f"pattern_probability needs a StrengthModel (Weibull laws of one shape), "
                        f"got {dist!r}")
    m = sum(len(grp) for cyc in pattern.cycles for grp in cyc.groups)
    if m > _MAX_BURST_COMPONENTS:
        raise ValueError(f"pattern has {m} Phase-II components: its exponential sum needs 2^{m} "
                         f"terms, at most 2^{_MAX_BURST_COMPONENTS}")
    rho = dist.shape
    sigma = [law.scale for law in component_laws(dist, n)]
    shares, bounds = _pattern_terms(pattern, rule, n)
    coef, rate = np.ones(1), np.zeros(1)  # G_f(t) = 1
    for u in reversed(range(len(shares))):
        a = (shares[u] / sigma[pattern.cycles[u].phase1]) ** rho
        coef, rate = coef * a, rate + a
        for j, lo, hi in bounds[u]:
            coef = np.concatenate([coef, -coef])
            rate = np.concatenate([rate + (lo / sigma[j]) ** rho, rate + (hi / sigma[j]) ** rho])
        coef = coef / rate
    return math.fsum(coef.tolist())


# ---------------------------------------------------------------------------
# lower-tail constant


def lower_tail_constant(m: int, samples, window: tuple[float, float] = (1e-5, 1e-3)) -> float:
    """Constant K of the power-law lower tail F(x) ~ K x**m, estimated from
    ``samples`` as the intercept of log(ECDF) - m log(x) over the tail-window
    points, taken and checked as the tail slope takes them (the slope m is
    known from the structure).  Exact K for checks: the k-th order statistic
    of n unit exponentials has F(x) ~ C(n, k) x**k.  A sorted sample is read in place."""
    from .stats import _tail_points

    ecdf, tail = _tail_points(samples, window)
    logk = np.log(ecdf) - m * np.log(tail)
    return float(np.exp(logk.mean()))


def parallel_exponential_tail_constant(rule: Rule, n: int) -> float:
    """Exact K for a parallel bundle of unit exponentials under ``rule``.

    Sums, over every breaking pattern, the leading term of its integrated
    stress density: the Phase-I share product times the Phase-II band widths,
    divided by the ordered-simplex moment of the per-cycle stress powers.
    """
    from .cascade import enumerate_patterns

    if n > 5:
        raise ValueError("pattern enumeration is exponential; n <= 5 only")
    total = 0.0
    for pattern in enumerate_patterns(n):
        coeff, denom, cum = 1.0, 1.0, 0
        for u, (a_u, cycle_bounds) in enumerate(zip(*_pattern_terms(pattern, rule, n))):
            coeff *= a_u
            for _, lo, hi in cycle_bounds:
                coeff *= hi - lo
            cum += len(cycle_bounds)
            denom *= (u + 1) + cum
        total += coeff / denom
    return total
