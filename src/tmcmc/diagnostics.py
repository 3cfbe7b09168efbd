"""Chain-quality diagnostics: acceptance rates, autocorrelation time, ESS.

The integrated autocorrelation time uses the initial-positive-sequence rule:
empirical autocorrelations are summed in adjacent pairs until the first
nonpositive pair.  That estimator is simple, deterministic, and adequate for
the reversible kernels in this package.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .chain import Trace

__all__ = [
    "acceptance_rate",
    "expected_acceptance_rate",
    "autocorrelation",
    "iact_and_ess",
    "iact_and_ess_rows",
    "split_rhat",
]

IACT_FLOOR = 1e-2
ESS_FLOOR = 1.0
MIN_SAMPLES = 100  # the shortest series iact_and_ess accepts
ESS_BLOCK = 2**15  # iact_and_ess_rows transforms ESS_BLOCK // nfft series at once, if that is 4 or more


def acceptance_rate(trace: Union[Trace, np.ndarray]) -> float:
    """Fraction of accepted proposals."""
    flags = trace.accepted if isinstance(trace, Trace) else np.asarray(trace)
    if flags.size == 0:
        raise ValueError("acceptance_rate needs a nonempty trace")
    return float(np.mean(flags))


def expected_acceptance_rate(trace: Union[Trace, np.ndarray]) -> float:
    """Mean acceptance probability ``E[min(1, exp(log_alpha))]``.

    A variance-reduced acceptance-rate estimator computed from the recorded
    acceptance thresholds; unlike the indicator average it stays positive even
    when no proposal was accepted, which keeps log-scale decay comparisons
    well defined in regimes where acceptance is astronomically rare.
    """
    log_alpha = trace.log_alpha if isinstance(trace, Trace) else np.asarray(trace, dtype=float)
    if log_alpha.size == 0:
        raise ValueError("expected_acceptance_rate needs a nonempty trace")
    return float(np.mean(np.exp(np.minimum(log_alpha, 0.0))))


def _autocovariance_rows(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Autocovariances at lags ``0..max_lag`` of each row of the C-order float block ``x``.

    Centres ``x`` in place, then takes one ``rfft``/``irfft`` pair over the
    rows at the power-of-two length ``nfft >= 2n - 1``.  Each row's result is
    bit-identical to the same steps on that row alone.
    """
    n = x.shape[1]
    x -= x.mean(axis=1, keepdims=True)
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft, axis=1)
    for row in f:  # row by row: a 2-D product, or one with out=, rounds some rows differently
        row[...] = row * np.conjugate(row)
    return np.fft.irfft(f, nfft, axis=1)[:, : max_lag + 1] / n


def _one_d(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"need a 1-D series, got shape {x.shape}")
    return x


def autocorrelation(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Empirical autocorrelations ``rho_0..rho_max_lag`` of a 1-D series via FFT."""
    acov = _autocovariance_rows(np.array(_one_d(x)[None], order="C"), max_lag)[0]
    if acov[0] <= 0.0:
        raise ValueError("series has zero variance")
    return acov / acov[0]


def ess_block_rows(n: int) -> int:
    """How many series of length ``n`` :func:`iact_and_ess_rows` transforms at once.

    ``ESS_BLOCK // nfft`` rows, or one when that is below 4: at FFT lengths
    of 16,384 and more a block of 2 rows was slower than one row at a time.
    """
    rows = ESS_BLOCK // (1 << (2 * n - 1).bit_length())
    return rows if rows >= 4 else 1


def iact_and_ess_rows(series: Union[np.ndarray, Sequence[np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Integrated autocorrelation times and effective sample sizes of ``m`` series.

    ``series`` is a 2-D array whose rows are the series, or a sequence of
    equal-length 1-D arrays.  Returns two ``(m,)`` arrays, ``iact`` and
    ``ess``; row ``i`` is ``iact_and_ess(series[i])`` bit for bit.  The rows
    are copied and transformed ``ess_block_rows(n)`` at a time, so no more
    than one block's copy and spectra are held at once.
    """
    if isinstance(series, np.ndarray):
        if series.ndim != 2:
            raise ValueError(f"need a 2-D array whose rows are the series, got shape {series.shape}")
        m, n = series.shape
    else:
        shapes = {np.shape(s) for s in series}
        if any(len(shape) != 1 for shape in shapes) or len(shapes) > 1:
            raise ValueError(f"need 1-D series of equal length, got shapes {sorted(shapes)}")
        m, n = len(series), (shapes.pop()[0] if shapes else 0)
    iact, ess = np.empty(m), np.empty(m)
    if m and n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples to estimate the autocorrelation time, got {n}")
    pair_count = n // 2
    block = ess_block_rows(n)
    for lo in range(0, m, block):
        x = np.array(series[lo : lo + block], dtype=float, order="C")  # C order: row sums as on one row
        var, peak = np.var(x, axis=1), np.abs(x).max(axis=1)
        for i, row, v, top in zip(range(lo, m), _autocovariance_rows(x, n - 1), var, peak):
            if v < 1e-300 * max(1.0, float(top) ** 2):  # flat: the guard values
                iact[i], ess[i] = n, ESS_FLOOR
                continue
            if row[0] <= 0.0:
                raise ValueError("series has zero variance")
            rho = row / row[0]
            gamma = rho[0 : 2 * pair_count : 2] + rho[1 : 2 * pair_count : 2]
            nonpos = np.nonzero(gamma <= 0.0)[0]
            m_stop = int(nonpos[0]) if nonpos.size else pair_count
            tau = max(2.0 * float(np.sum(gamma[:m_stop])) - 1.0, IACT_FLOOR)
            iact[i], ess[i] = tau, n / tau
    return iact, ess


def iact_and_ess(samples: Union[Trace, np.ndarray], coordinate: int = 0) -> tuple[float, float]:
    """Integrated autocorrelation time and effective sample size of one series.

    Accepts a :class:`Trace` (with a coordinate index into the recorded
    columns) or a raw 1-D array; the one-row case of
    :func:`iact_and_ess_rows`.  Chains with (numerically) zero variance are
    reported at the guard values ``ess = 1`` and ``iact = n``.  Antithetic
    chains may legitimately have ``iact < 1``; estimates are floored at a
    small positive value, never at 1.
    """
    x = samples.states[:, coordinate] if isinstance(samples, Trace) else _one_d(samples)
    iact, ess = iact_and_ess_rows(x[None])
    return float(iact[0]), float(ess[0])


def split_rhat(chains: Sequence[np.ndarray]) -> float:
    """Split-chain potential scale reduction factor.

    Each chain is split in half; the statistic compares between-half and
    within-half variances.  Values near 1 indicate the halves agree.
    """
    halves = []
    for c in chains:
        c = np.asarray(c, dtype=float)
        h = c.size // 2
        if h < 2:
            raise ValueError("each chain needs at least 4 samples")
        halves.append(c[:h])
        halves.append(c[h : 2 * h])
    n = min(h.size for h in halves)
    data = np.stack([h[:n] for h in halves])
    within = float(np.mean(np.var(data, axis=1, ddof=1)))
    between = n * float(np.var(np.mean(data, axis=1), ddof=1))
    if within == 0.0:
        return float("inf")
    var_plus = (n - 1) / n * within + between / n
    return float(np.sqrt(var_plus / within))
