"""Strength laws and the order-statistic helpers the commands take percentiles with."""

import math
import tracemalloc

import numpy as np
import pytest

from fiberbundle.distributions import StrengthModel, _linear_quantiles, _median


def _same(got, want):
    """Equal type, dtype, shape and bytes: NaN payloads and the sign of zero count."""
    return (type(got) is type(want) and np.asarray(got).dtype == np.asarray(want).dtype
            and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


def _samples():
    """Float and int samples of 1 to 40 points: ties, signed zeros, infinities and NaN."""
    rng = np.random.default_rng(19)
    for _ in range(300):
        n = int(rng.integers(1, 41))
        yield rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        yield rng.integers(-4, 5, n)
        yield rng.choice(np.array([0.0, -0.0, 1.5, np.inf, -np.inf, np.nan]), n)
        yield rng.choice(np.array([0.0, 1e308, 1.7e308]), n)  # neighbours' gaps overflow
    yield np.array([7.0])
    yield np.array([7])
    yield np.full(9, 2.5)


_QS = [0.0, 1.0, 0.5, 0.05, 0.999, np.float64(0.25), [0.3], [0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0],
       np.array([0.95, 0.05, 0.5]), [[0.1], [0.9]]]


def test_linear_quantiles_are_np_quantiles_bytes():
    for a in _samples():
        for q in _QS:
            with np.errstate(all="ignore"):
                want = np.quantile(a, q, method="linear")
                got = _linear_quantiles(a, q)
                owned = a.copy()
                got_in_place = _linear_quantiles(owned, q, overwrite=True)
            assert _same(got, want), (a, q, got, want)
            assert _same(got_in_place, want), (a, q, got_in_place, want)


def test_linear_quantiles_partition_only_when_told():
    a = np.random.default_rng(3).permutation(1000).astype(float)
    kept = a.copy()
    assert _same(_linear_quantiles(a, [0.05, 0.5]), np.quantile(kept, [0.05, 0.5]))
    assert np.array_equal(a, kept)
    _linear_quantiles(a, [0.05, 0.5], overwrite=True)
    assert not np.array_equal(a, kept)
    assert a[49] == 49.0 and a[500] == 500.0 and a[-1] == 999.0  # selected in place


def test_median_is_np_median_bytes():
    for a in _samples():
        kept = a.copy()
        with np.errstate(all="ignore"):
            assert _same(_median(a), np.median(a)), a
        assert _same(a, kept)


@pytest.mark.parametrize("model", [
    StrengthModel("exponential", 1.0, 1.0),
    StrengthModel("weibull", 2.0, 3.0),
    StrengthModel("weibull", 0.5, 1.0),
    StrengthModel("weibull", 5.0, (1.0, 0.5, 2.0)),
    StrengthModel("weibull", 0.004, 1e-300),
], ids=["exponential", "sqrt", "square", "scale-vector", "overflowing"])
def test_sample_in_place_is_the_expression_bit_for_bit(model):
    # the expression the sampler computed before it worked in place is the oracle
    e = np.random.default_rng(8).standard_exponential((500, 3))
    with np.errstate(over="ignore"):
        want = model._scale_array(3) * e ** (1.0 / model.shape)
    got = model.sample(np.random.default_rng(8), 3, 500)
    assert got.tobytes() == want.tobytes()


def test_sample_holds_one_array():
    model = StrengthModel("weibull", 5.0, 2.0)
    rng = np.random.default_rng(1)
    model.sample(rng, 4, 10)  # warm: first calls allocate caches of their own
    tracemalloc.start()
    try:
        x = model.sample(rng, 4, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * x.nbytes, peak / x.nbytes


@pytest.mark.parametrize("shape, scale, named", [
    (math.nan, 1.0, "shape"), (math.inf, 1.0, "shape"), (0.0, 1.0, "shape"),
    (5.0, math.nan, "scale"), (5.0, math.inf, "scale"), (5.0, -1.0, "scale"),
    (5.0, (1.0, math.nan), "scale parameters"), (5.0, (math.inf, 1.0), "scale parameters"),
], ids=["shape-nan", "shape-inf", "shape-zero", "scale-nan", "scale-inf", "scale-negative",
        "vector-nan", "vector-inf"])
def test_parameters_must_be_positive_and_finite(shape, scale, named):
    with pytest.raises(ValueError, match=f"{named} must be positive and finite"):
        StrengthModel("weibull", shape, scale)


@pytest.mark.parametrize("model", [
    StrengthModel("exponential", 1.0, 1.0),
    StrengthModel("weibull", 0.5, 2.0),
    StrengthModel("weibull", 5.0, 2.0),
    StrengthModel("weibull", 5.0, (1.0, 0.5, 2.0)),
], ids=["exponential", "sqrt", "weibull5", "scale-vector"])
def test_pdf_at_extreme_loads(model):
    # 0 at x <= 0, at inf and where the hazard overflows, without a warning (the
    # suite errors on RuntimeWarning); elsewhere the bytes of the textbook expression
    x = np.array([[-1.0], [0.0], [1e-300], [1e-3], [0.7], [1.0], [3.0], [1e300], [np.inf],
                  [np.nan]]) * np.ones(3)
    got = model.pdf(x)
    sig, rho = model._scale_array(), model.shape
    with np.errstate(all="ignore"):
        want = (rho / sig) * (x / sig) ** (rho - 1.0) * np.exp(-((x / sig) ** rho))
    finite = (x > 0) & np.isfinite(want)
    assert got.shape == x.shape
    assert got[finite].tobytes() == want[finite].tobytes()
    assert np.all(got[~finite] == 0.0)
    # one load at a time, NumPy's scalar power, as the pattern densities call it
    for v in np.random.default_rng(2).uniform(0.01, 3.0, 200).tolist():
        xv = np.asarray(v)
        want = (rho / sig) * (xv / sig) ** (rho - 1.0) * np.exp(-((xv / sig) ** rho))
        assert np.asarray(model.pdf(v)).tobytes() == np.asarray(want).tobytes(), v
    # the hazard at 1e300 overflows unless the shape is <= 1: cdf 1, sf 0, logsf -hazard
    assert np.all(model.cdf(1e300) == 1.0) and np.all(model.sf(1e300) == 0.0)
    with np.errstate(over="ignore"):
        hazard = (1e300 / sig) ** rho
    assert np.array_equal(model.logsf(1e300), -hazard)
