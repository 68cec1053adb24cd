"""Exact state measure of a loaded bundle over all 2^n configurations.

At a load per component s, the log odds of each component surviving its share
determine an energy via Moebius inversion on the subset lattice; normalizing
exp(-U) gives the probability of every working-set configuration.  For small
bundles the measure is enumerated exactly, and the family of potentials at one
load can be regressed onto another load's potentials (the linear median-field
reduction).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import _linear_quantiles, _median, component_laws
from .loadshare import Configuration, Rule, share_rows, share_table

__all__ = [
    "SubsetTable",
    "GibbsModel",
    "LMFFit",
    "PositivityError",
    "log_odds",
    "mobius_potentials",
    "mobius_energy",
    "potentials_from_energy",
    "build_gibbs",
    "lmf_fit",
    "strength_percentile",
    "total_variation",
]

class PositivityError(ValueError, ArithmeticError):
    """A component CDF hit 0 or 1 at its shared load, so the log odds are
    undefined (the positivity condition fails).  Also an ArithmeticError, so
    the command line reports it as a numerical failure."""


@dataclass(frozen=True)
class SubsetTable:
    """One real value per subset of {0..n-1}, indexed by bit mask."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} entries, got {vals.shape}")

    def value(self, subset: frozenset[int]) -> float:
        return float(self.values[Configuration(self.n, subset).mask])

    @property
    def sizes(self) -> np.ndarray:
        return np.bitwise_count(np.arange(1 << self.n, dtype=np.uint64)).astype(np.int64)


def _layered(values: np.ndarray, n: int, op: np.ufunc) -> np.ndarray:
    # in-place butterfly over the subset lattice, one bit layer at a time:
    # each set containing the bit takes op(itself, the set without it)
    out = values.copy()
    for b in range(n):
        shaped = out.reshape(-1, 2, 1 << b)
        op(shaped[:, 1, :], shaped[:, 0, :], out=shaped[:, 1, :])
    return out


def _zeta(values: np.ndarray, n: int) -> np.ndarray:
    """g(B) = sum over A subset of B of f(A)."""
    return _layered(values, n, np.add)


def _mobius(values: np.ndarray, n: int) -> np.ndarray:
    """g(K) = alternating sum over A subset of K of (-1)^{|K \\ A|} f(A)."""
    return _layered(values, n, np.subtract)


def mobius_potentials(sigma: SubsetTable) -> SubsetTable:
    """Potentials from aggregated log odds: alternating subset sum over each
    K divided by |K|; the empty set carries no potential."""
    if sigma.values[0] != 0.0:
        raise ValueError("sigma at the empty set must be 0")
    raw = _mobius(sigma.values, sigma.n)
    sizes = sigma.sizes
    out = np.zeros_like(raw)
    nz = sizes > 0
    out[nz] = raw[nz] / sizes[nz]
    return SubsetTable(sigma.n, out)


def mobius_energy(potentials: SubsetTable) -> SubsetTable:
    """Energy U(B) = -sum of V over subsets of B (fast zeta transform)."""
    if potentials.values[0] != 0.0:
        raise ValueError("potential at the empty set must be 0")
    return SubsetTable(potentials.n, -_zeta(potentials.values, potentials.n))


def potentials_from_energy(energy: SubsetTable) -> SubsetTable:
    """Inverse of :func:`mobius_energy`: V(A) = -alternating subset sum of U."""
    if energy.values[0] != 0.0:
        raise ValueError("energy at the empty set must be 0")
    return SubsetTable(energy.n, -_mobius(energy.values, energy.n))


def _site_odds(law, loads: np.ndarray, i: int, masks) -> np.ndarray:
    """Survival log odds log sf - log(1 - sf) of component i under ``law`` at
    its ``loads``, one per working-set mask in ``masks``; from ``law.logsf``,
    which stays finite at deep loads where sf underflows."""
    ls = np.asarray(law.logsf(loads), dtype=float)
    bad = ~(np.isfinite(ls) & (ls < 0.0))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise PositivityError(f"positivity condition fails at component {i}, configuration mask "
                              f"{int(masks[k])}, load {float(loads[k])}: survival probability "
                              f"is {np.exp(ls[k])}")
    return ls - np.log(-np.expm1(ls))  # exact at both ends of the support


def _check_load(s: float):
    if not 0 < s < np.inf:  # NaN fails too
        raise ValueError(f"load must be positive and finite, got {s}")


def log_odds(a: Configuration, i: int, s: float, rule: Rule, dist) -> float:
    """log of survival odds of component i at its shared load lambda_i(A) * s,
    the share read through :func:`~fiberbundle.loadshare.share_rows`; 0 < s < inf.
    The term of ``build_gibbs``, with the component's law from ``component_laws``."""
    _check_load(s)
    if i not in a.working:
        raise ValueError(f"component {i} is not in the working set")
    load = share_rows(rule, a.n, (a.mask,))[0, i:i + 1] * s
    return float(_site_odds(component_laws(dist, a.n)[i], load, i, (a.mask,))[0])


@dataclass(frozen=True)
class GibbsModel:
    """Exact configuration measure at load s: P(A) = exp(-U(A)) / Z."""

    n: int
    s: float
    sigma: SubsetTable
    potentials: SubsetTable
    energy: SubsetTable
    logz: float

    @cached_property
    def log_probs(self) -> np.ndarray:
        return -self.energy.values - self.logz

    def probabilities(self) -> np.ndarray:
        return np.exp(self.log_probs)

    def prob(self, working: frozenset[int]) -> float:
        return float(np.exp(self.log_probs[Configuration(self.n, working).mask]))


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a finite real vector, by SciPy's algorithm.

    Every entry equal to the maximum is split out of the shifted sum, which
    keeps the result bit-identical to ``scipy.special.logsumexp`` without
    importing SciPy.
    """
    amax = a.max()
    top = a == amax
    shifted = np.exp(a - amax)
    shifted[top] = 0.0
    m = float(np.count_nonzero(top))
    rest = shifted.sum()
    return float(np.log1p(rest / m) + np.log(m) + amax)


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def build_gibbs(n: int, s: float, rule: Rule, dist) -> GibbsModel:
    """Enumerate the exact measure of working sets at load per component s.

    Computes the per-component log odds at every configuration from the
    rule's share table, aggregates them, converts to potentials and energy by
    the subset-lattice transforms, and normalizes in log space.  The table's
    byte bound limits n (n <= 20); s must be positive and finite.
    """
    _check_load(s)
    dists = component_laws(dist, n)
    table = share_table(rule, n)
    masks = np.arange(1 << n)
    sigma_sum = np.zeros(masks.size)
    for i in range(n):
        held = np.flatnonzero(masks >> i & 1)  # the masks of the working sets holding i
        sigma_sum[held] += _site_odds(dists[i], table[held, i] * s, i, held)
    sigma = SubsetTable(n, sigma_sum)
    potentials = mobius_potentials(sigma)
    energy = mobius_energy(potentials)
    logz = _logsumexp(-energy.values)
    return GibbsModel(n=n, s=s, sigma=sigma, potentials=potentials, energy=energy, logz=logz)


@dataclass(frozen=True)
class LMFFit:
    """Linear reduction of the potentials at one load onto another load's.

    ``median_potentials[k-1]`` is the median potential over subsets of size k
    at the reference load; ``tv_error`` is the total-variation distance between
    the reduced measure and the exact one at the target load.
    """

    slope: float
    intercept: float
    r2: float
    median_potentials: tuple[float, ...]
    tv_error: float


def lmf_fit(model_ref: GibbsModel, model_target: GibbsModel) -> LMFFit:
    """Least-squares fit of target potentials against reference potentials.

    The reduced energy takes -U(A) ~= slope * sum_{K in A} V_ref(K) +
    intercept * 2^(|A|-1); its measure is compared to the exact target model.
    """
    if model_ref.n != model_target.n:
        raise ValueError("models must share the component count")
    n = model_ref.n
    v_ref = model_ref.potentials.values[1:]
    v_tgt = model_target.potentials.values[1:]
    if np.ptp(v_ref) == 0.0:
        raise ValueError("reference potentials are degenerate (zero variance); fit rejected")
    design = np.column_stack([v_ref, np.ones_like(v_ref)])
    (slope, intercept), *_ = np.linalg.lstsq(design, v_tgt, rcond=None)
    resid = v_tgt - (slope * v_ref + intercept)
    ss_tot = float(np.sum((v_tgt - v_tgt.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0

    sizes = model_ref.potentials.sizes
    medians = tuple(
        float(_median(model_ref.potentials.values[sizes == k])) for k in range(1, n + 1)
    )

    # reduced energy: zeta of the reference potentials is -U_ref
    u_lmf = slope * model_ref.energy.values - intercept * np.exp2(sizes - 1.0)
    u_lmf[0] = 0.0
    log_probs = -u_lmf - _logsumexp(-u_lmf)
    tv = total_variation(np.exp(log_probs), model_target.probabilities())
    return LMFFit(
        slope=float(slope),
        intercept=float(intercept),
        r2=r2,
        median_potentials=medians,
        tv_error=tv,
    )


def strength_percentile(samples, p: float | Sequence[float]) -> float | list[float]:
    """p-th percentile (0 < p < 100) with linear order-statistic interpolation.

    A sequence of p gives the list of their percentiles from one selection
    on a copy of the sample, each equal to the call for that p alone and,
    byte for byte, to ``np.quantile(samples, p / 100, method="linear")``.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("sample vector is empty")
    ps = np.asarray(p, dtype=float)
    if not np.all((0.0 < ps) & (ps < 100.0)):
        raise ValueError("percentile must lie in (0, 100)")
    return _linear_quantiles(arr, ps / 100.0).tolist()
