"""Numeric evaluators for the acceptance-rate bounds of the three kernels.

Each evaluator computes a displayed bound pair for strongly log-concave
targets with curvature sandwich ``m_k I <= -Hess log pi <= M_k I``, mode
density ``pi(x*)``, and truncation window ``(psi1, 1 - psi2)``.  Everything is
evaluated in log space: the prefactors ``(2 pi)^{k/2} / M_k^k * pi(x*)`` wildly
over- or underflow for the dimensions of interest, and the Gaussian tails are
computed through ``log_ndtr`` so they stay accurate far beyond double range.

These are evaluators of the printed expressions, not probabilities; nothing
constrains them to [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain import _check_count, _check_positive

__all__ = [
    "AcceptanceBoundInputs",
    "LogBoundPair",
    "HmcLogBounds",
    "rwmh_ar_bounds",
    "rwmh_ar_asymp",
    "tmcmc_ar_bounds",
    "hmc_ar_bounds",
]

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class AcceptanceBoundInputs:
    """Inputs shared by the bound evaluators.

    ``dt`` (leapfrog step) and ``lam`` (trajectory non-centrality
    ``(dt^2/4) * ||grad log pi||^2``) only matter for the HMC variant.
    """

    k: int
    m_k: float
    M_k: float
    psi1: float = 0.01
    psi2: float = 0.01
    pi_mode: float = 1.0
    dt: Optional[float] = None
    lam: float = 0.0

    def __post_init__(self):
        _check_count("k", self.k, 1)
        if not (0.0 < self.m_k <= self.M_k):
            raise ValueError(f"need 0 < m_k <= M_k, got ({self.m_k}, {self.M_k})")
        if not (0.0 < self.psi1 < 1.0 and 0.0 < self.psi2 < 1.0 and self.psi1 < 1.0 - self.psi2):
            raise ValueError(f"psi window invalid: psi1={self.psi1}, psi2={self.psi2}")
        _check_positive("pi_mode", self.pi_mode)
        if self.dt is not None:
            _check_positive("dt", self.dt)
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):  # NaN fails both tests
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam}")


@dataclass(frozen=True)
class LogBoundPair:
    """A (lower, upper) bound pair held as log-values."""

    log_lower: float
    log_upper: float
    lower_clamped: bool = False
    upper_clamped: bool = False

    @property
    def lower(self) -> float:
        return math.exp(self.log_lower)

    @property
    def upper(self) -> float:
        return math.exp(self.log_upper)


@dataclass(frozen=True)
class HmcLogBounds(LogBoundPair):
    """HMC bound pair plus both asymptotic regimes (small and large lam/k)."""

    log_asymp_small_lambda: float = math.nan
    log_asymp_large_lambda: float = math.nan


def _log_prefactor(k: int, curvature: float, pi_mode: float) -> float:
    return 0.5 * k * LOG_2PI - k * math.log(curvature) + math.log(pi_mode)


def _log_upper_tail(t: float) -> float:
    """``log(1 - Phi(t))``, accurate in the far tail."""
    from scipy.special import log_ndtr  # deferred: ``import tmcmc`` needs only numpy

    return float(log_ndtr(-t))


def _log_central_band(t: float) -> float:
    """``log(2 Phi(t) - 1)`` for ``t >= 0``; ``-inf`` at ``t = 0``."""
    from scipy.special import erf  # deferred: ``import tmcmc`` needs only numpy

    if t <= 0.0:
        return -math.inf
    return float(np.log(erf(t / math.sqrt(2.0))))


def _gaussianized_tail_arg(log_edge: float, k: int, drift: float, spread_sq: float) -> float:
    """Argument ``(log_edge + (k/2) drift) / sqrt((k/2) spread_sq)``."""
    return (log_edge + 0.5 * k * drift) / math.sqrt(0.5 * k * spread_sq)


def _tail_bounds(inp: AcceptanceBoundInputs, c1: float, c2: float) -> LogBoundPair:
    """Gaussianised-tail pair whose displacement terms carry the mean and variance factors ``c1``, ``c2``."""
    k, m, M = inp.k, inp.m_k, inp.M_k
    gap_M = (M - m) / M
    gap_m = (M - m) / m
    arg_lower = _gaussianized_tail_arg(
        math.log(1.0 - inp.psi2), k, gap_M + M * c1, gap_M**2 + 2.0 * M * c1 + M * M * c2
    )
    arg_upper = _gaussianized_tail_arg(
        math.log(inp.psi1), k, -(gap_m - m * c1), gap_m**2 + 2.0 * m * c1 + m * m * c2
    )
    return LogBoundPair(
        log_lower=_log_prefactor(k, M, inp.pi_mode) + _log_upper_tail(arg_lower),
        log_upper=_log_prefactor(k, m, inp.pi_mode) + _log_upper_tail(arg_upper),
    )


def rwmh_ar_bounds(inp: AcceptanceBoundInputs) -> LogBoundPair:
    """Bound pair for the random-walk kernel with unit proposal covariance: HMC's at ``dt = 1``, ``lam = 0``."""
    return _tail_bounds(inp, 1.0, 1.0)


def rwmh_ar_asymp(k: int, M_k: float, pi_mode: float = 1.0) -> float:
    """Log of the large-k random-walk form ``(2pi)^{k/2}/M_k^k {1 - Phi(sqrt(k/2))}``."""
    _check_count("k", k, 1)
    _check_positive("M_k", M_k)
    _check_positive("pi_mode", pi_mode)
    return _log_prefactor(k, M_k, pi_mode) + _log_upper_tail(math.sqrt(0.5 * k))


def tmcmc_ar_bounds(inp: AcceptanceBoundInputs) -> LogBoundPair:
    """Bound pair for the additive single-innovation kernel.

    The square-root arguments carry the curvature-gap term
    ``(M_k - m_k)/M_k^2``; when it exceeds the log term (possible at small k,
    outside the asymptotic regime the display assumes) the argument is clamped
    to zero and flagged, which turns the lower bound into log(0) = -inf.
    """
    k, m, M = inp.k, inp.m_k, inp.M_k
    sq_lower = -2.0 / (k * M) * math.log(1.0 - inp.psi2) - (M - m) / (M * M)
    sq_upper = -2.0 / (k * m) * math.log(inp.psi1) + (M - m) / (m * m)
    lower_clamped = sq_lower < 0.0
    return LogBoundPair(
        log_lower=_log_prefactor(k, M, inp.pi_mode)
        + _log_central_band(math.sqrt(max(sq_lower, 0.0))),
        log_upper=_log_prefactor(k, m, inp.pi_mode) + _log_central_band(math.sqrt(sq_upper)),
        lower_clamped=lower_clamped,
    )


def hmc_ar_bounds(inp: AcceptanceBoundInputs) -> HmcLogBounds:
    """Bound pair for single-trajectory HMC, plus both asymptotic regimes.

    ``dt`` is the leapfrog step; ``lam`` enters through the displacement law
    ``||x' - x||^2 / dt^2 ~ chi2_k(lam)``, whose mean and variance supply the
    ``dt^2 (1 + lam/k)`` and ``dt^4 (1 + 2 lam/k)`` terms.
    """
    if inp.dt is None:
        raise ValueError("hmc_ar_bounds requires dt")
    k, M, dt, lam = inp.k, inp.M_k, inp.dt, inp.lam
    pair = _tail_bounds(inp, dt * dt * (1.0 + lam / k), dt**4 * (1.0 + 2.0 * lam / k))
    asymp_large_arg = math.sqrt(0.5 * k * (1.0 + lam / k)) / (
        math.sqrt(2.0) * math.sqrt(1.0 / (M * dt * dt) + 1.0)
    )
    return HmcLogBounds(
        log_lower=pair.log_lower,
        log_upper=pair.log_upper,
        log_asymp_small_lambda=rwmh_ar_asymp(k, M),
        log_asymp_large_lambda=_log_prefactor(k, M, 1.0) + _log_upper_tail(asymp_large_arg),
    )
