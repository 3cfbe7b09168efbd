import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tmcmc.chain import chain_rng
from tmcmc.diagnostics import (
    acceptance_rate,
    autocorrelation,
    expected_acceptance_rate,
    iact_and_ess,
    split_rhat,
)


def test_acceptance_rate_trivials():
    assert acceptance_rate(np.ones(10, dtype=bool)) == 1.0
    flags = np.tile([True, False], 50)
    assert acceptance_rate(flags) == 0.5
    with pytest.raises(ValueError):
        acceptance_rate(np.zeros(0, dtype=bool))


def test_acceptance_rate_subsampling_invariance():
    rng = chain_rng(0)
    flags = rng.random(100_000) < 0.3
    base = acceptance_rate(flags)
    for offset in (1, 57, 1234):
        assert abs(acceptance_rate(flags[offset:]) - base) < 0.01


def test_expected_acceptance_rate_matches_mean_probability():
    log_alpha = np.log(np.array([0.2, 0.6, 1.0]))
    assert_allclose(expected_acceptance_rate(log_alpha), np.mean([0.2, 0.6, 1.0]))
    # thresholds above 1 clip to 1
    assert expected_acceptance_rate(np.array([5.0, 5.0])) == 1.0


def test_iact_white_noise_is_one():
    x = chain_rng(1).standard_normal(20_000)
    iact, ess = iact_and_ess(x)
    assert abs(iact - 1.0) < 0.1
    assert abs(ess / x.size - 1.0) < 0.1


def test_iact_ar1_oracle():
    # AR(1) with rho = 0.9 has integrated autocorrelation time (1+rho)/(1-rho) = 19
    rho, n = 0.9, 200_000
    rng = chain_rng(2)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    innov = rng.standard_normal(n) * math.sqrt(1 - rho**2)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + innov[i]
    iact, _ = iact_and_ess(x)
    assert abs(iact - 19.0) / 19.0 < 0.15


def test_iact_batch_means_cross_check():
    rho, n = 0.9, 200_000
    rng = chain_rng(2)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    innov = rng.standard_normal(n) * math.sqrt(1 - rho**2)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + innov[i]
    # square-root batch means: b times the variance of the batch means over the series' variance
    b = math.isqrt(n)
    means = x[: b * (n // b)].reshape(n // b, b).mean(axis=1)
    bm = b * float(np.var(means, ddof=1)) / float(np.var(x, ddof=1))
    ips, _ = iact_and_ess(x)
    assert abs(bm - 19.0) / 19.0 < 0.2
    assert abs(bm - ips) / ips < 0.2


def test_iact_degenerate_chain_hits_guard():
    x = np.full(5_000, 3.14)
    iact, ess = iact_and_ess(x)
    assert ess == 1.0
    assert iact == x.size


def test_iact_antithetic_series_can_dip_below_one():
    rng = chain_rng(3)
    z = rng.standard_normal(50_001)
    x = z[1:] - 0.7 * z[:-1]  # negatively autocorrelated MA(1)
    iact, ess = iact_and_ess(x)
    assert 0.0 < iact < 1.0
    assert ess > x.size


def test_iact_short_series_rejected():
    with pytest.raises(ValueError):
        iact_and_ess(np.arange(50, dtype=float))


def test_autocorrelation_normalization():
    x = chain_rng(4).standard_normal(4_096)
    rho = autocorrelation(x, 64)
    assert rho[0] == 1.0
    assert np.all(np.abs(rho[1:]) < 0.2)


def test_rwmh_acceptance_at_reference_scale_high_dimension():
    # random walk at proposal scale 2.38/sqrt(k) on a 100-D standard normal
    # sits at the classic optimal acceptance rate
    import numpy as np

    from tmcmc.baseline_kernels import make_rwmh_kernel
    from tmcmc.chain import run_chain
    from tmcmc.targets import make_iid_gaussian

    k = 100
    target = make_iid_gaussian(k)
    kernel = make_rwmh_kernel(target, 2.38 / np.sqrt(k))
    rng = chain_rng(404)
    trace = run_chain(kernel, rng.standard_normal(k), 200_000, rng, record_coords=[0])
    ar = acceptance_rate(trace.tail(5_000))
    assert abs(ar - 0.234) < 0.03


def test_split_rhat_near_one_for_iid_chains():
    rng = chain_rng(5)
    chains = [rng.standard_normal(20_000) for _ in range(4)]
    assert abs(split_rhat(chains) - 1.0) < 0.01


def test_split_rhat_flags_disagreement():
    rng = chain_rng(6)
    chains = [rng.standard_normal(5_000), rng.standard_normal(5_000) + 3.0]
    assert split_rhat(chains) > 1.5
    with pytest.raises(ValueError):
        split_rhat([np.arange(2.0)])
