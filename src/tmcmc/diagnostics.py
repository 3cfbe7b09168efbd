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
    "split_rhat",
]

IACT_FLOOR = 1e-2
ESS_FLOOR = 1.0
MIN_SAMPLES = 100  # the shortest series iact_and_ess accepts


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


def autocorrelation(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Empirical autocorrelations ``rho_0..rho_max_lag`` via FFT."""
    x = np.asarray(x, dtype=float)
    n = x.size
    xc = x - x.mean()
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, nfft)
    acov = np.fft.irfft(f * np.conjugate(f), nfft)[: max_lag + 1] / n
    if acov[0] <= 0.0:
        raise ValueError("series has zero variance")
    return acov / acov[0]


def iact_and_ess(samples: Union[Trace, np.ndarray], coordinate: int = 0) -> tuple[float, float]:
    """Integrated autocorrelation time and effective sample size of one series.

    Accepts a :class:`Trace` (with a coordinate index into the recorded
    columns) or a raw 1-D array.  Chains with (numerically) zero variance are
    reported at the guard values ``ess = 1`` and ``iact = n``.  Antithetic
    chains may legitimately have ``iact < 1``; estimates are floored at a
    small positive value, never at 1.
    """
    x = samples.states[:, coordinate] if isinstance(samples, Trace) else np.asarray(samples, dtype=float)
    n = x.size
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples to estimate the autocorrelation time, got {n}")
    if np.var(x) < 1e-300 * max(1.0, float(np.abs(x).max()) ** 2):
        return float(n), ESS_FLOOR
    rho = autocorrelation(x, n - 1)
    pair_count = n // 2
    gamma = rho[0 : 2 * pair_count : 2] + rho[1 : 2 * pair_count : 2]
    nonpos = np.nonzero(gamma <= 0.0)[0]
    m_stop = int(nonpos[0]) if nonpos.size else pair_count
    iact = max(2.0 * float(np.sum(gamma[:m_stop])) - 1.0, IACT_FLOOR)
    return iact, n / iact


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
