"""Censored strength statistics: product-limit curves, censored Weibull fits,
Weibull plots with lower-tail slopes, and partition-based Dirichlet posteriors."""

from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Iterator

import numpy as np

from .distributions import _ascending

__all__ = [
    "KMCurve",
    "WeibullFit",
    "TailFit",
    "IntervalPartition",
    "PBDPosterior",
    "kaplan_meier",
    "weibull_mle_censored",
    "weibull_plot_points",
    "weibull_plot_blocks",
    "weibull_plot_from_samples",
    "tail_window",
    "lower_tail_slope",
    "inflation_factor",
    "pbd_prior_weights",
    "pbd_posterior",
]

logger = logging.getLogger(__name__)

_Z95 = 1.959963984540054  # central 95% normal quantile
_MLE_TOL = 1e-10  # the largest |profile score| at a converged Weibull fit's root


@dataclass(frozen=True)
class KMCurve:
    """Product-limit survival estimate with Greenwood 95% bands."""

    times: np.ndarray
    survival: np.ndarray
    variance: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def survival_at(self, t: float) -> float:
        """Step-function value S(t); 1 before the first event."""
        idx = np.searchsorted(self.times, t, side="right") - 1
        return 1.0 if idx < 0 else float(self.survival[idx])


def _as_censored(samples) -> tuple[np.ndarray, np.ndarray]:
    """Values and event flags (True where not censored) of ``(value, censored)``
    pairs, ``censored`` meaning right-censored at ``value``; every value must
    be positive and finite."""
    pairs = list(samples)
    if not pairs:
        raise ValueError("empty sample")
    values = np.array([v for v, _ in pairs], dtype=float)
    events = ~np.array([c for _, c in pairs], dtype=bool)
    bad = np.flatnonzero(~((values > 0) & (values < math.inf)))  # NaN fails too
    if bad.size:
        raise ValueError(
            f"strength observations must be positive and finite, got {float(values[bad[0]])}")
    return values, events


def kaplan_meier(samples) -> KMCurve:
    """Kaplan-Meier estimate; at tied times deaths are processed before
    censorings, so same-time censored items still count as at risk."""
    values, events = _as_censored(samples)
    if not events.any():
        logger.warning("all observations are censored; survival curve is constant 1")
        empty = np.empty(0)
        return KMCurve(empty, empty, empty, empty, empty)
    times, deaths = np.unique(values[events], return_counts=True)
    at_risk = values.size - np.searchsorted(np.sort(values), times)
    # running product and sum, one term per event time in time order
    surv = np.cumprod(1.0 - deaths / at_risk)
    alive = at_risk > deaths
    steps = np.zeros(times.size)
    steps[alive] = deaths[alive] / (at_risk[alive] * (at_risk[alive] - deaths[alive]))
    # where the curve hits zero, Greenwood is degenerate: variance 0
    var = np.where(alive, surv * surv * np.cumsum(steps), 0.0)
    half = _Z95 * np.sqrt(var)
    return KMCurve(
        times=times,
        survival=surv,
        variance=var,
        lower=np.clip(surv - half, 0.0, 1.0),
        upper=np.clip(surv + half, 0.0, 1.0),
    )


@dataclass(frozen=True)
class WeibullFit:
    rho: float
    sigma: float
    loglik: float
    converged: bool

    def __post_init__(self):
        if self.rho <= 0 or self.sigma <= 0:
            raise ValueError("fitted shape and scale must be positive")


def weibull_mle_censored(samples) -> WeibullFit:
    """Maximum likelihood Weibull fit under right censoring.

    Profiles the shape: given rho, the scale is closed form, and the shape
    solves 1/rho + mean(log x | events) = weighted mean of log x with weights
    x**rho over all observations.  This profile score is strictly decreasing:
    its derivative is -1/rho**2 minus the weighted variance of log x.  A
    bracket grown geometrically holds the root, and Newton steps on the score
    find it; a step that would leave the bracket is a bisection instead, and
    the score's sign at each step shrinks the bracket.  It stops once a step
    or the bracket is below 1e-13 + 8.9e-16 rho; converged if |score| <= 1e-10
    there.  If every uncensored value sits at the sample maximum, the
    likelihood grows without bound in rho and no finite fit exists: a
    ValueError.
    """
    x, event = _as_censored(samples)
    d = int(event.sum())
    if d < 2:
        raise ValueError("need at least 2 uncensored observations")
    logx = np.log(x)
    mean_unc = float(logx[event].mean())
    if np.ptp(logx) < 1e-13:
        raise ValueError("degenerate data: all observations equal")

    lmax = logx.max()
    if not mean_unc < lmax:
        raise ValueError("no finite MLE: the mean uncensored log value is not below the "
                         "largest log value, so the likelihood grows without bound in the shape")

    def score(rho: float) -> tuple[float, float]:
        """The profile score at rho and its derivative in rho."""
        w = np.exp(rho * (logx - lmax))
        total = np.sum(w)
        mean = float(np.sum(w * logx) / total)
        dev = logx - mean  # centred: m2 - m1**2 would cancel
        return 1.0 / rho + mean_unc - mean, -1.0 / rho**2 - float(np.sum(w * dev * dev) / total)

    lo, hi = 1e-3, 8.0
    while score(lo)[0] < 0 and lo > 1e-12:
        lo /= 8.0
    expansions = 0
    while score(hi)[0] > 0:
        hi *= 2.0
        expansions += 1
        if expansions > 60:
            raise ValueError(
                f"profile root bracket failed to close: value at rho={hi:.3e} "
                f"is {score(hi)[0]:.3e} (degenerate or pathological data)"
            )
    rho = hi
    for _ in range(200):
        f, slope = score(rho)
        if f > 0:
            lo = rho
        elif f < 0:
            hi = rho
        else:
            break
        step = f / slope
        tol = 1e-13 + 8.9e-16 * rho
        rho -= step
        if abs(step) < tol:
            break
        if not lo < rho < hi:
            rho = 0.5 * (lo + hi)
        if hi - lo < tol:
            break
    converged = abs(score(rho)[0]) <= _MLE_TOL
    log_sigma = lmax + math.log(np.sum(np.exp(rho * (logx - lmax))) / d) / rho
    sigma = math.exp(log_sigma)
    loglik = float(d * math.log(rho) - d * rho * log_sigma + (rho - 1.0) * logx[event].sum() - d)
    return WeibullFit(rho=rho, sigma=sigma, loglik=loglik, converged=converged)


def _plot_points(x: np.ndarray, sf: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The Weibull-plot points of (x, S(x)) pairs and how many were dropped."""
    keep = (sf > 0.0) & (sf < 1.0) & (x > 0.0)
    return np.log(x[keep]), np.log(-np.log(sf[keep])), keep.size - int(np.count_nonzero(keep))


def _log_dropped(dropped: int) -> None:
    if dropped:
        logger.info("weibull_plot_points: dropped %d points with survival 0 or 1", dropped)


def weibull_plot_points(x, survival) -> tuple[np.ndarray, np.ndarray]:
    """Transform (x, S(x)) pairs to (ln x, ln(-ln S)); a Weibull is linear
    with slope equal to its shape.  Points with S in {0, 1} or x <= 0 are
    dropped."""
    lx, ly, dropped = _plot_points(np.asarray(x, dtype=float), np.asarray(survival, dtype=float))
    _log_dropped(dropped)
    return lx, ly


_PLOT_BLOCK = 1 << 13  # sample points per plot block: its temporaries stay a few hundred KB


def weibull_plot_blocks(samples) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The empirical Weibull plot of :func:`weibull_plot_from_samples`, as
    (ln x, ln(-ln S)) blocks of at most 8,192 sample points each.

    A sample already in non-decreasing order is read in place, so a caller
    holding the sorted sample allocates nothing that grows with it.  The
    dropped points are logged once, after the last block.
    """
    xs = _ascending(samples)
    dropped = 0
    for lo in range(0, max(xs.size, 1), _PLOT_BLOCK):  # an empty sample: one empty block
        x = xs[lo:lo + _PLOT_BLOCK]
        sf = 1.0 - np.arange(lo + 1, lo + x.size + 1) / xs.size
        lx, ly, d = _plot_points(x, sf)
        dropped += d
        yield lx, ly
    _log_dropped(dropped)


def weibull_plot_from_samples(samples) -> tuple[np.ndarray, np.ndarray]:
    """Empirical Weibull plot: sorted sample against 1 - i/n survival."""
    lx, ly = zip(*weibull_plot_blocks(samples))
    return np.concatenate(lx), np.concatenate(ly)


@dataclass(frozen=True)
class TailFit:
    slope: float
    intercept: float
    stderr: float
    n_points: int
    window: tuple[float, float]


def tail_window(nobs: int, window: tuple[float, float]) -> range:
    """Positions in a sorted sample of size ``nobs`` that the lower-tail fit
    uses: those whose empirical probability (position + 1) / nobs lies in
    ``window`` and below 1.  Fewer than 100 raise ``ValueError``.

    A window with a NaN bound or with ``lo > hi`` holds no point and raises
    ``ValueError`` naming the window.  Depends on the sample size only, so a
    run can be checked before sampling.
    """
    lo, hi = window
    if not lo <= hi:  # a NaN bound fails too
        raise ValueError(f"only 0 points in quantile window {window}: "
                         "it needs lo <= hi and no NaN bound")
    ranks = range(1, nobs)  # nobs / nobs = 1 is never in the window
    first = bisect_left(ranks, lo, key=lambda k: k / nobs)
    stop = bisect_right(ranks, hi, key=lambda k: k / nobs)
    if stop - first < 100:
        raise ValueError(
            f"only {stop - first} points in quantile window {window}; "
            "increase the replica count"
        )
    return range(first, stop)


def _tail_points(samples, window: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """ECDF values (position + 1) / n at the :func:`tail_window` positions of the
    sorted sample (read in place if already sorted) and its strengths there, each
    finite and > 0, else ``ArithmeticError``."""
    xs = _ascending(samples)
    pos = tail_window(xs.size, window)
    tail = xs[pos.start:pos.stop]
    bad = np.count_nonzero(~((tail > 0) & (tail < math.inf)))  # NaN counts too
    if bad:
        raise ArithmeticError(f"{bad} of the {tail.size} strengths in quantile window {window} "
                              "are zero or not finite; the tail fit needs positive ones")
    return np.arange(pos.start + 1, pos.stop + 1) / xs.size, tail


def lower_tail_slope(samples, window: tuple[float, float] = (1e-5, 1e-3)) -> TailFit:
    """OLS slope of the Weibull plot restricted to an empirical-quantile window.

    The slope is the effective Weibull shape of the lower tail; dividing by the
    component shape gives the inflation factor.  A window holding a strength
    that is not finite and > 0 has no Weibull-plot point there and raises
    ``ArithmeticError`` naming how many.  A sample already in non-decreasing
    order is read in place, not sorted again.
    """
    ecdf, tail = _tail_points(samples, window)
    lx = np.log(tail)
    ly = np.log(-np.log(1.0 - ecdf))
    lo, hi = window
    n = lx.size
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    stderr = float(np.sqrt(np.sum(resid**2) / (n - 2) / sxx))
    return TailFit(slope=slope, intercept=intercept, stderr=stderr, n_points=n,
                   window=(float(lo), float(hi)))


def inflation_factor(rho_g: float, rho: float) -> float:
    """Ratio of the bundle tail shape to the component shape; equals the size
    of the structure's smallest cut set in the small-load limit."""
    if rho <= 0:
        raise ValueError("component shape must be positive")
    return rho_g / rho


# ---------------------------------------------------------------------------
# partition-based Dirichlet posterior


@dataclass(frozen=True)
class IntervalPartition:
    """Ordered interval cells of [0, inf): [e0, e1), ..., [e_{J-1}, inf)."""

    edges: tuple[float, ...]

    def __post_init__(self):
        edges = tuple(float(e) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        if not edges or edges[0] != 0.0:
            raise ValueError("partition must start at 0")
        if any(b <= a for a, b in zip(edges[:-1], edges[1:])):
            raise ValueError("partition edges must be strictly increasing")

    @property
    def n_cells(self) -> int:
        return len(self.edges)

    def cell_bounds(self, j: int) -> tuple[float, float]:
        hi = self.edges[j + 1] if j + 1 < len(self.edges) else math.inf
        return (self.edges[j], hi)

    def cell_of(self, value: float) -> int:
        if value < 0:
            raise ValueError("values live on [0, inf)")
        return int(np.searchsorted(np.asarray(self.edges), value, side="right") - 1)


@dataclass(frozen=True)
class PBDPosterior:
    """Mixture of Dirichlet laws over the partition cells.

    Every component's parameter vector is the prior weights alpha plus the
    cell counts n of an assignment of the observations to cells.  Its weight
    is the posterior probability of those counts: proportional to the Polya
    urn weight prod_j alpha_j (alpha_j + 1) ... (alpha_j + n_j - 1), times
    the number of assignments giving those counts.  Weights sum to 1.
    """

    partition: IntervalPartition
    prior: tuple[float, ...]
    weights: tuple[float, ...]
    counts: tuple[tuple[int, ...], ...]

    def parameter_vectors(self) -> list[np.ndarray]:
        alpha = np.asarray(self.prior)
        return [alpha + np.asarray(c) for c in self.counts]

    def mean_cell_probabilities(self) -> np.ndarray:
        out = np.zeros(self.partition.n_cells)
        for w, vec in zip(self.weights, self.parameter_vectors()):
            out += w * vec / vec.sum()
        return out


def pbd_prior_weights(partition: IntervalPartition, base, total_mass: float) -> np.ndarray:
    """Prior cell weights: total mass times the base-measure cell probabilities.

    Uses survival differences of the strength law ``base`` so far-tail cells
    keep their (tiny) mass instead of underflowing through 1 - cdf."""
    if total_mass <= 0:
        raise ValueError("total mass must be positive")
    sf_vals = [1.0] + [float(base.sf(e)) for e in partition.edges[1:]] + [0.0]
    return total_mass * -np.diff(sf_vals)


def pbd_posterior(partition: IntervalPartition, base, total_mass: float,
                  observations, max_exact: int = 100_000,
                  mc_draws: int = 20_000, seed: int = 0) -> PBDPosterior:
    """Posterior over cell probabilities given censored observations.

    Each observation is a set of candidate cells (a singleton when
    uncensored).  Every way of assigning observations to cells yields a
    Dirichlet component, weighted by its Polya urn weight (see
    :class:`PBDPosterior`).  Exact enumeration while the assignment space is
    at most ``max_exact``; beyond that, assignment paths are drawn from the
    sequential urn-predictive proposal and importance-weighted by
    target / proposal.
    """
    alpha = pbd_prior_weights(partition, base, total_mass)
    ncells = partition.n_cells
    cell_sets: list[tuple[int, ...]] = []
    for obs in observations:
        cells = (obs,) if isinstance(obs, (int, np.integer)) else tuple(sorted(set(obs)))
        if not cells:
            raise ValueError("observation with empty cell-set")
        if any(not 0 <= c < ncells for c in cells):
            raise ValueError(f"cell index out of range in {cells}")
        cell_sets.append(cells)

    space = math.prod(len(cells) for cells in cell_sets)

    # (counts, log weight) pairs; products over many observations overflow a float
    log_weights: list[tuple[tuple[int, ...], float]] = []
    if space <= max_exact:
        multiplicity = Counter(
            tuple(np.bincount(assignment, minlength=ncells).tolist())
            for assignment in product(*cell_sets)
        )
        for key, mult in multiplicity.items():
            if any(c and a <= 0 for a, c in zip(alpha, key)):
                continue  # an observation in a cell of zero prior mass: urn weight 0
            rising = sum(math.log(a + t) for a, c in zip(alpha, key) for t in range(c))
            log_weights.append((key, math.log(mult) + rising))
    else:
        if mc_draws < 1:
            raise ValueError("mc_draws must be >= 1")
        rng = np.random.default_rng(seed)
        for _ in range(mc_draws):
            counts = np.zeros(ncells)
            path = []
            log_ratio = 0.0
            for cells in cell_sets:
                masses = np.array([alpha[c] + counts[c] for c in cells])
                total = masses.sum()
                j = cells[rng.choice(len(cells), p=masses / total)]
                # urn factor alpha_j + counts_j over its proposal probability
                log_ratio += math.log(total)
                path.append(j)
                counts[j] += 1
            log_weights.append((tuple(np.bincount(path, minlength=ncells).tolist()), log_ratio))

    if not log_weights:
        raise ValueError("every assignment puts an observation in a cell of zero prior mass")
    top = max(w for _, w in log_weights)
    acc: dict[tuple[int, ...], float] = {}
    for key, w in log_weights:
        acc[key] = acc.get(key, 0.0) + math.exp(w - top)
    items = sorted(acc.items(), key=lambda kv: -kv[1])
    total = sum(w for _, w in items)
    return PBDPosterior(
        partition=partition,
        prior=tuple(float(a) for a in alpha),
        weights=tuple(w / total for _, w in items),
        counts=tuple(k for k, _ in items),
    )
