"""Component strength distributions shared by the simulation and inference code."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FAMILIES = ("weibull", "exponential")


@dataclass(frozen=True)
class StrengthModel:
    """Parametric strength distribution for bundle components.

    ``weibull`` uses the survival form exp(-(x/scale)**shape); ``exponential``
    is the shape-1 special case, kept as a named family for configuration
    clarity. ``scale`` is either a scalar (iid components) or a per-component
    vector.
    """

    family: str = "weibull"
    shape: float = 1.0
    scale: float | tuple[float, ...] = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        # 0 < v < inf rejects NaN too
        if isinstance(self.scale, (list, tuple, np.ndarray)):
            object.__setattr__(self, "scale", tuple(float(s) for s in self.scale))
            if not all(0 < s < math.inf for s in self.scale):
                raise ValueError("all scale parameters must be positive and finite")
        elif not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if not 0 < self.shape < math.inf:
            raise ValueError(f"shape must be positive and finite, got {self.shape}")
        if self.family == "exponential" and self.shape != 1.0:
            raise ValueError("exponential family has fixed shape 1")

    def component(self, i: int) -> "StrengthModel":
        """Marginal law of component i: the same family and shape with the
        scalar scale of that component (the model itself if its scale is
        already a scalar)."""
        if not isinstance(self.scale, tuple):
            return self
        return StrengthModel(self.family, self.shape, self.scale[i])

    def _scale_array(self, n: int | None = None) -> np.ndarray:
        sig = np.asarray(self.scale, dtype=float)
        if n is not None and sig.ndim == 1 and sig.size != n:
            raise ValueError(f"scale vector has length {sig.size}, expected {n}")
        return sig

    def _hazard(self, x) -> np.ndarray:
        """Cumulative hazard (x / scale)**shape, 0 for x <= 0, inf past the float range."""
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            return np.where(x > 0, x / self._scale_array(), 0.0) ** self.shape

    def cdf(self, x):
        return -np.expm1(-self._hazard(x))

    def sf(self, x):
        return np.exp(-self._hazard(x))

    def logsf(self, x):
        # survival log stays finite far beyond where sf itself underflows
        return -self._hazard(x)

    def pdf(self, x):
        """Density; 0 unless 0 < x < inf, and 0 where the hazard overflows.  Masked
        entries are evaluated too, silently, so a 0-d x keeps NumPy's scalar power,
        whose last bit can differ from the array loop's."""
        x = np.asarray(x, dtype=float)
        sig = self._scale_array()
        rho = self.shape
        with np.errstate(all="ignore"):  # x <= 0, NaN or inf, or a hazard past the float range
            hazard = (x / sig) ** rho
            dens = (rho / sig) * (x / sig) ** (rho - 1.0) * np.exp(-hazard)
        return np.where((0 < x) & (hazard < np.inf), dens, 0.0)

    def sample(self, rng: np.random.Generator, n: int, size: int) -> np.ndarray:
        """Draw a (size, n) matrix of component strengths by inverse transform.

        A draw that overflows is +inf, silently: the sampler counts and reports them.
        """
        e = rng.standard_exponential((size, n))
        with np.errstate(over="ignore"):
            e **= 1.0 / self.shape  # in place, through the same power loop as e ** (1 / shape)
            return np.multiply(self._scale_array(n), e, out=e)


def _linear_quantiles(a, q, overwrite: bool = False):
    """Quantiles of the flattened sample ``a`` at the fractions ``q`` in [0, 1]
    by linear interpolation between order statistics (Hyndman & Fan's 1996
    method 7).

    For a float64 or integer sample and float ``q`` the result has the bytes
    of ``np.quantile(a, q, method="linear")``: the same virtual index
    (n - 1) q, the same clamped neighbours, the same two-sided interpolation,
    NaN when the sample holds one, and a scalar for a 0-d ``q``. The order
    statistics come from one ``partition`` on a kth list sorted here;
    ``np.quantile`` sorts it with ``np.unique``, which imports ``numpy.ma``.
    ``a`` must be nonempty; ``overwrite=True`` partitions ``a`` itself, an
    ndarray, in place.
    """
    a = np.asarray(a)
    arr = a.ravel() if overwrite else a.flatten()
    n = arr.size
    q = np.asarray(q, dtype=float)
    virtual = (n - 1) * q.ravel()
    below = np.floor(virtual)
    top, bottom = virtual >= n - 1, virtual < 0
    prev = np.where(bottom, 0, np.where(top, -1, below)).astype(np.intp)
    nxt = np.where(bottom, 0, np.where(top, -1, below + 1)).astype(np.intp)
    arr.partition(sorted({0, n - 1, *(prev % n).tolist(), *(nxt % n).tolist()}))
    lo, hi = arr[prev], arr[nxt]
    gamma = virtual - prev
    diff = hi - lo
    result = lo + diff * gamma
    # from above where gamma >= 0.5, as np.quantile's _lerp does
    np.subtract(hi, diff * (1 - gamma), out=result, where=gamma >= 0.5)
    if arr.dtype.kind == "f" and np.isnan(arr[-1]):
        result[:] = arr[-1]
    return result.reshape(q.shape)[()]


def _median(a):
    """``np.median`` of the nonempty flattened sample ``a``, with its bytes:
    the mean of the one or two middle order statistics, or the sample's NaN.
    One ``partition`` of a copy selects them, so ``numpy.ma``, which
    ``np.median``'s NaN check imports, stays unloaded."""
    arr = np.asarray(a).flatten()
    half = arr.size // 2
    lo = half - 1 + arr.size % 2
    arr.partition(sorted({lo, half, arr.size - 1}))
    if arr.dtype.kind == "f" and np.isnan(arr[-1]):
        return arr[-1]
    return arr[lo:half + 1].mean()


_LAW_METHODS = ("cdf", "sf", "logsf", "pdf")


def component_laws(dist, n: int) -> list:
    """One strength law per component: a list or tuple must hold n laws, a
    :class:`StrengthModel` is split into its component marginals, and any
    other law is shared by all n components.

    A strength law has the methods ``cdf``, ``sf``, ``logsf`` and ``pdf``,
    each evaluated elementwise on an array of loads; :class:`StrengthModel`
    and SciPy's frozen continuous laws have them.  A law that lacks one
    raises ``TypeError`` naming the law and what it lacks.
    """
    if isinstance(dist, StrengthModel):
        dist._scale_array(n)  # a scale vector must have one entry per component
        return [dist.component(i) for i in range(n)]
    laws = list(dist) if isinstance(dist, (list, tuple)) else [dist] * n
    if len(laws) != n:
        raise ValueError(f"need {n} component distributions, got {len(laws)}")
    for law in laws:
        missing = [m for m in _LAW_METHODS if not callable(getattr(law, m, None))]
        if missing:
            raise TypeError(f"strength law {law!r} lacks {', '.join(missing)}; a law needs "
                            f"{', '.join(_LAW_METHODS)}")
    return laws


def unit_exponential() -> StrengthModel:
    return StrengthModel(family="exponential", shape=1.0, scale=1.0)
