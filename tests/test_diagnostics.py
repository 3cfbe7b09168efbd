import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tmcmc.chain import chain_rng
from tmcmc.diagnostics import (
    acceptance_rate,
    autocorrelation,
    expected_acceptance_rate,
    ess_block_rows,
    iact_and_ess,
    iact_and_ess_rows,
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


def test_iact_rejects_a_series_that_is_not_1d():
    with pytest.raises(ValueError, match=r"\(500, 3\)"):
        iact_and_ess(chain_rng(11).standard_normal((500, 3)))
    with pytest.raises(ValueError, match=r"\(500,\)"):
        iact_and_ess_rows(np.ones(500))
    with pytest.raises(ValueError, match=r"\(400,\), \(500,\)"):
        iact_and_ess_rows([np.ones(500), np.ones(400)])


def ar1_rows(m, n, seed, rho=0.9):
    """``m`` AR(1) series of length ``n`` as the rows of an ``(m, n)`` array."""
    rng = chain_rng(seed)
    x = np.empty((m, n))
    x[:, 0] = rng.standard_normal(m)
    innov = rng.standard_normal((n, m)) * math.sqrt(1 - rho**2)
    for i in range(1, n):
        x[:, i] = rho * x[:, i - 1] + innov[i]
    return x


def one_series_reference(x):
    """The one-series estimator, written out step by step on the series as given (no copy)."""
    n = x.size
    if np.var(x) < 1e-300 * max(1.0, float(np.abs(x).max()) ** 2):
        return float(n), 1.0
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x - x.mean(), nfft)
    acov = np.fft.irfft(f * np.conjugate(f), nfft)[:n] / n
    rho = acov / acov[0]
    gamma = rho[0 : 2 * (n // 2) : 2] + rho[1 : 2 * (n // 2) : 2]
    nonpos = np.nonzero(gamma <= 0.0)[0]
    iact = max(2.0 * float(np.sum(gamma[: int(nonpos[0]) if nonpos.size else n // 2])) - 1.0, 1e-2)
    return iact, n / iact


def assert_rows_match_one_series_calls(series):
    iact, ess = iact_and_ess_rows(series)
    assert iact.shape == ess.shape == (len(series),)
    for i, x in enumerate(series):
        assert (iact[i], ess[i]) == iact_and_ess(x) == one_series_reference(x), i


def test_iact_rows_cross_an_eight_row_block_bit_for_bit():
    x = ar1_rows(20, 1_800, seed=7) + 2.5
    assert ess_block_rows(1_800) == 8  # FFT length 4,096
    assert_rows_match_one_series_calls(x)
    assert_rows_match_one_series_calls(list(x))


def test_iact_rows_of_strided_columns_bit_for_bit():
    states = ar1_rows(10, 10_000, seed=8).T.copy()  # (n, 10), C order
    assert ess_block_rows(10_000) == 1  # FFT length 32,768: one row at a time
    assert_rows_match_one_series_calls([states[:, j] for j in range(10)])


def test_iact_rows_of_a_transposed_view_bit_for_bit():
    # states.T is in Fortran order; its rows must be summed as contiguous rows are
    states = ar1_rows(12, 1_500, seed=9).T.copy() - 40.0
    assert_rows_match_one_series_calls(states.T)


def test_iact_rows_flat_row_inside_a_block_gets_the_guard_values():
    x = ar1_rows(8, 1_800, seed=10)
    x[3] = 3.14
    iact, ess = iact_and_ess_rows(x)
    assert iact[3] == x.shape[1] and ess[3] == 1.0
    assert np.all(ess[[0, 1, 2, 4, 5, 6, 7]] > 1.0)
    assert_rows_match_one_series_calls(x)


def test_iact_rows_of_no_series():
    iact, ess = iact_and_ess_rows(np.empty((0, 500)))
    assert iact.shape == ess.shape == (0,)


def test_autocorrelation_normalization():
    x = chain_rng(4).standard_normal(4_096)
    rho = autocorrelation(x, 64)
    assert rho[0] == 1.0
    assert np.all(np.abs(rho[1:]) < 0.2)
    f = np.fft.rfft(x - x.mean(), 8_192)  # the one-row case of the block transform, bit for bit
    acov = np.fft.irfft(f * np.conjugate(f), 8_192)[:65] / x.size
    assert np.array_equal(rho, acov / acov[0])


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
