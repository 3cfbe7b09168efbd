"""Target distributions used by the sampler kernels and experiments.

A :class:`Target` bundles a log-density over ``R^k`` (or a discrete space)
with its dimension, an optional closed-form gradient, and optional curvature
metadata for strongly log-concave families.  All kernels consume targets only
through log-density differences, so most families are unnormalized; the
Gaussian families are normalized because their constants are free.
"""

from __future__ import annotations

import csv
import importlib.resources
from dataclasses import dataclass, field
from typing import Callable, Literal, Optional, Sequence

import numpy as np

from .chain import _check_count, _check_positive

__all__ = [
    "SupportKind",
    "LogConcaveMeta",
    "ChallengerRecord",
    "Target",
    "load_challenger_data",
    "make_iid_gaussian",
    "make_anisotropic_gaussian",
    "make_challenger_logistic",
    "make_ising_chain",
    "make_lattice_target",
]

SupportKind = Literal["continuous", "binary_spins", "integer_lattice"]

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class LogConcaveMeta:
    """Curvature sandwich for strongly log-concave targets.

    ``m_k`` and ``M_k`` bound the negated Hessian of the log-density
    (``m_k I <= -Hess log pi <= M_k I``) and ``mode`` is the maximizer.
    """

    m_k: float
    M_k: float
    mode: np.ndarray

    def __post_init__(self):
        if not (0.0 < self.m_k <= self.M_k):
            raise ValueError(f"need 0 < m_k <= M_k, got m_k={self.m_k}, M_k={self.M_k}")


@dataclass(frozen=True)
class ChallengerRecord:
    flight_no: int
    failure: int
    temp_f: float


@dataclass(frozen=True)
class Target:
    """A (possibly unnormalized) target distribution.

    Attributes
    ----------
    dim : int
        Number of coordinates of the state vector.
    log_density : callable
        Maps a state vector of shape ``(dim,)`` to a float (``-inf`` allowed
        off-support).
    grad_log_density : callable, optional
        Closed-form gradient, present for the continuous families.
    support_kind : str
        One of ``continuous``, ``binary_spins``, ``integer_lattice``.
    meta : LogConcaveMeta, optional
        Curvature metadata for log-concave families.
    info : dict
        Family-specific extras (dataset arrays, centering constants, ...).
    """

    dim: int
    log_density: Callable[[np.ndarray], float]
    grad_log_density: Optional[Callable[[np.ndarray], np.ndarray]] = None
    support_kind: SupportKind = "continuous"
    meta: Optional[LogConcaveMeta] = None
    name: str = ""
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_count("dim", self.dim, 1)


def make_iid_gaussian(k: int) -> Target:
    """Product of ``k`` standard normals, normalized.

    ``log pi(x) = -k/2 log(2 pi) - x'x/2`` with gradient ``-x``; the curvature
    metadata is exact (``m_k = M_k = 1``, mode at the origin).  The
    log-density also takes a ``(C, k)`` batch of states and returns ``(C,)``
    values, each bit-identical to the single-state call on that row.
    """
    _check_count("k", k, 1)
    const = -0.5 * k * LOG_2PI

    def log_density(x: np.ndarray):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return const - 0.5 * float(x.dot(x))
        # vecdot runs the same dot kernel as ``x.dot(x)`` on each row.
        return const - 0.5 * np.vecdot(x, x)

    def grad_log_density(x: np.ndarray) -> np.ndarray:
        return np.negative(x, dtype=float)

    return Target(
        dim=k,
        log_density=log_density,
        grad_log_density=grad_log_density,
        meta=LogConcaveMeta(m_k=1.0, M_k=1.0, mode=np.zeros(k)),
        name=f"iid-gaussian-{k}d",
    )


def make_anisotropic_gaussian(precisions: Sequence[float]) -> Target:
    """Zero-mean Gaussian with diagonal precision matrix ``diag(precisions)``.

    Normalized, so ``precisions = (1, ..., 1)`` reproduces
    :func:`make_iid_gaussian` exactly.  The curvature metadata is
    ``m_k = min(precisions)``, ``M_k = max(precisions)``.
    """
    lam = np.asarray(precisions, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise ValueError("precisions must be a nonempty 1-D sequence")
    _check_positive("precisions", lam)
    k = lam.size
    const = 0.5 * float(np.sum(np.log(lam))) - 0.5 * k * LOG_2PI
    neg_lam = -lam

    def log_density(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return const - 0.5 * float(lam.dot(x * x))

    def grad_log_density(x: np.ndarray) -> np.ndarray:
        return neg_lam * x  # a list or an integer array is multiplied as float64

    return Target(
        dim=k,
        log_density=log_density,
        grad_log_density=grad_log_density,
        meta=LogConcaveMeta(m_k=float(lam.min()), M_k=float(lam.max()), mode=np.zeros(k)),
        name=f"anisotropic-gaussian-{k}d",
        info={"precisions": lam},
    )


def load_challenger_data(path: Optional[str] = None) -> list[ChallengerRecord]:
    """Load the embedded O-ring dataset, or an external CSV with the same schema.

    The schema is ``flight_no,failure,temp_f`` with exactly 23 data rows.
    """
    if path is None:
        ref = importlib.resources.files("tmcmc").joinpath("data/challenger.csv")
        text = ref.read_text(encoding="utf-8")
        lines = text.splitlines()
    else:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    reader = csv.DictReader(lines)
    expected = ["flight_no", "failure", "temp_f"]
    if reader.fieldnames != expected:
        raise ValueError(f"challenger CSV header must be {','.join(expected)}, got {reader.fieldnames}")
    records = [
        ChallengerRecord(int(row["flight_no"]), int(row["failure"]), float(row["temp_f"]))
        for row in reader
    ]
    if len(records) != 23:
        raise ValueError(f"challenger dataset must have 23 rows, got {len(records)}")
    return records


def make_challenger_logistic(prior_sd: float = 10.0, center: bool = False) -> Target:
    """Bayesian logistic regression posterior for the O-ring failure data.

    The model is ``failure_i ~ Bernoulli(sigmoid(b0 + b1 * temp_i))`` with
    independent ``N(0, prior_sd^2)`` priors on the raw intercept and slope.
    The log-density drops the constant prior normalization.

    With ``center=True`` the sampler coordinates are ``(g0, b1)`` where
    ``g0 = b0 + b1 * mean(temp)``; this is an exact volume-preserving
    reparameterization (the prior is still evaluated on the raw intercept), so
    the posterior over ``(b0, b1)`` is unchanged while the sampling geometry
    improves dramatically.  ``info['t_bar']`` holds the centering constant.
    The log-density also takes a ``(C, 2)`` batch and returns ``(C,)``
    values, each bit-identical to the single-state call on that row.

    Parameters
    ----------
    prior_sd : float
        Prior standard deviation for both coefficients, must be positive.
    center : bool
        Sample in mean-centered-covariate coordinates (default raw).
    """
    _check_positive("prior_sd", prior_sd)
    records = load_challenger_data()
    y = np.array([r.failure for r in records], dtype=float)
    temps = np.array([r.temp_f for r in records], dtype=float)
    t_bar = float(temps.mean()) if center else 0.0
    t_cov = temps - t_bar
    inv_two_var = 0.5 / (prior_sd * prior_sd)

    def log_density(beta: np.ndarray):
        beta = np.asarray(beta, dtype=float)
        if beta.ndim == 1:
            b0, b1 = float(beta[0]), float(beta[1])
            eta = b0 + b1 * t_cov
            loglik = float(y.dot(eta) - np.sum(np.logaddexp(0.0, eta)))
        else:
            # Row by row the same operations: vecdot runs ``y.dot(eta)``'s dot kernel.
            b0, b1 = beta[:, 0], beta[:, 1]
            eta = b0[:, None] + b1[:, None] * t_cov
            loglik = np.vecdot(eta, y) - np.logaddexp(0.0, eta).sum(axis=1)
        raw0 = b0 - b1 * t_bar
        return loglik - inv_two_var * (raw0 * raw0 + b1 * b1)

    def grad_log_density(beta: np.ndarray) -> np.ndarray:
        b0, b1 = float(beta[0]), float(beta[1])
        eta = b0 + b1 * t_cov
        resid = y - 1.0 / (1.0 + np.exp(-eta))
        raw0 = b0 - b1 * t_bar
        g0 = float(np.sum(resid)) - 2.0 * inv_two_var * raw0
        g1 = float(t_cov.dot(resid)) - 2.0 * inv_two_var * (b1 - raw0 * t_bar)
        return np.array([g0, g1])

    return Target(
        dim=2,
        log_density=log_density,
        grad_log_density=grad_log_density,
        name="challenger-logistic" + ("-centered" if center else ""),
        info={
            "y": y,
            "temps": temps,
            "prior_sd": float(prior_sd),
            "center": center,
            "t_bar": t_bar,
        },
    )


def make_ising_chain(k: int, coupling: float) -> Target:
    """One-dimensional Ising chain on spins in ``{-1,+1}^k``, unnormalized.

    ``log pi(x) = coupling * sum_i x_i x_{i+1}`` over nearest-neighbor bonds.
    """
    _check_count("k", k, 1)
    if not np.isfinite(coupling):
        raise ValueError(f"coupling must be finite, got {coupling}")

    def log_density(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if k == 1:
            return 0.0
        return coupling * float(x[:-1].dot(x[1:]))

    return Target(
        dim=k,
        log_density=log_density,
        support_kind="binary_spins",
        name=f"ising-chain-{k}",
        info={"coupling": float(coupling)},
    )


def make_lattice_target(k: int, rate: float) -> Target:
    """Product of discrete Laplace weights on ``Z^k``, unnormalized.

    ``log pi(x) = -rate * sum_i |x_i|``; heavy enough tails that integer jumps
    of several units still see appreciable mass.
    """
    _check_count("k", k, 1)
    _check_positive("rate", rate)

    def log_density(x: np.ndarray) -> float:
        return -rate * float(np.sum(np.abs(np.asarray(x, dtype=float))))

    return Target(
        dim=k,
        log_density=log_density,
        support_kind="integer_lattice",
        name=f"lattice-laplace-{k}d",
        info={"rate": float(rate)},
    )
