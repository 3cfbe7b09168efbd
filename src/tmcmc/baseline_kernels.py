"""Baseline kernels: random-walk Metropolis and Hamiltonian Monte Carlo.

The leapfrog integrator is implemented in the combined-update form

    x(t+dt) = x(t) + dt M^{-1} {p(t) - (dt/2) grad U(x(t))}
    p(t+dt) = p(t) - (dt/2) {grad U(x(t)) + grad U(x(t+dt))}

which is algebraically the usual half-kick / drift / half-kick scheme, so it
is time-reversible and volume preserving.  The Hamiltonian uses the kinetic
energy ``p' M^{-1} p / 2`` matching the ``N(0, M)`` momentum refresh.

An HMC transition costs one log-density call and ``L`` gradient calls: the
kernel carries ``log pi`` and ``grad U`` of its current state.  A divergent
trajectory, one whose end point is non-finite, is a rejected transition
counted in ``Trace.meta["n_nonfinite_proposals"]``; only the public
``leapfrog()`` raises ``LeapfrogError`` for it.

Note on parameterization: for a single leapfrog step of size ``dt`` the
position proposal is exactly Gaussian with mean
``x + (dt^2/2) M^{-1} grad log pi(x)`` and variance ``dt^2 M^{-1}``; that is,
the familiar Langevin-proposal step parameter equals the *squared* leapfrog
step here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .chain import Kernel, StepResult, accept_step
from .targets import Target

__all__ = [
    "HmcConfig",
    "PhasePoint",
    "LeapfrogError",
    "rwmh_step",
    "make_rwmh_kernel",
    "potential",
    "grad_potential",
    "leapfrog",
    "hmc_step",
    "make_hmc_kernel",
    "hmc_one_step_proposal_params",
]


@dataclass(frozen=True)
class HmcConfig:
    """Leapfrog trajectory settings: L steps of size dt with diagonal mass."""

    L: int
    dt: float
    mass: Union[float, Sequence[float], np.ndarray] = 1.0

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"L must be a positive integer, got {self.L}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if np.any(np.atleast_1d(np.asarray(self.mass, dtype=float)) <= 0.0):
            raise ValueError("mass entries must be positive")

    def mass_vector(self, k: int) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.mass, dtype=float), (k,))


def _finite(x: np.ndarray, p: np.ndarray) -> bool:
    return bool(np.isfinite(x).all() and np.isfinite(p).all())


@dataclass(frozen=True)
class PhasePoint:
    """Position/momentum pair on the phase space."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        if not _finite(self.x, self.p):
            raise ValueError("phase point components must be finite")


class LeapfrogError(RuntimeError):
    """Raised by ``leapfrog()`` when a trajectory ends at a non-finite phase point."""


def rwmh_step(
    x: np.ndarray,
    target: Target,
    sigma: float,
    rng: np.random.Generator,
    lp_current: Optional[float] = None,
) -> StepResult:
    """Propose ``x + sigma * N(0, I)`` and accept by the density ratio."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = np.asarray(x, dtype=float)
    y = x + sigma * rng.standard_normal(x.size)
    lp_x = target.log_density(x) if lp_current is None else lp_current
    lp_y = target.log_density(y)
    return accept_step(x, y, lp_y - lp_x, lp_x, lp_y, rng)


def make_rwmh_kernel(target: Target, sigma: float) -> Kernel:
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    log_density = target.log_density
    cache = {"x": None, "lp": None}

    def kernel(x: np.ndarray, rng: np.random.Generator) -> StepResult:
        x = np.asarray(x, dtype=float)
        lp_x = cache["lp"] if cache["x"] is not None and x is cache["x"] else log_density(x)
        y = x + sigma * rng.standard_normal(x.size)
        lp_y = log_density(y)
        step = accept_step(x, y, lp_y - lp_x, lp_x, lp_y, rng)
        cache["x"], cache["lp"] = step.x_next, step.log_density
        return step

    return kernel


def potential(target: Target, x: np.ndarray) -> float:
    """``U(x) = -log pi(x)``."""
    return -target.log_density(np.asarray(x, dtype=float))


def _potential_gradient(target: Target):
    """``x -> grad U(x)`` for a float array ``x``; raises if the target has no gradient."""
    grad_log_density = target.grad_log_density
    if grad_log_density is None:
        raise ValueError(f"target {target.name!r} has no gradient; HMC needs one")
    return lambda x: -np.asarray(grad_log_density(x), dtype=float)


def grad_potential(target: Target, x: np.ndarray) -> np.ndarray:
    """``grad U(x) = -grad log pi(x)``; requires the target gradient."""
    return _potential_gradient(target)(np.asarray(x, dtype=float))


def _leapfrog(x, p, grad, L, drift, half_dt, grad_u):
    """``(x, p, grad U(x))`` -> ``(x_L, p_L, grad U(x_L))`` with ``drift = dt M^{-1}``.

    Unchecked: a non-finite gradient makes every later ``x`` and ``p``
    non-finite, so callers test the end point once.
    """
    for _ in range(L):
        x = x + drift * (p - half_dt * grad)
        grad_new = grad_u(x)
        p = p - half_dt * (grad + grad_new)
        grad = grad_new
    return x, p, grad


def leapfrog(start: PhasePoint, cfg: HmcConfig, target: Target) -> PhasePoint:
    """Apply the leapfrog update ``cfg.L`` times from ``start``.

    Raises ``LeapfrogError`` if the trajectory diverges (a non-finite end point).
    """
    grad_u = _potential_gradient(target)
    x = np.asarray(start.x, dtype=float)
    inv_m = 1.0 / cfg.mass_vector(x.size)
    p = np.asarray(start.p, dtype=float)
    x, p, _ = _leapfrog(x, p, grad_u(x), cfg.L, cfg.dt * inv_m, 0.5 * cfg.dt, grad_u)
    if not _finite(x, p):
        raise LeapfrogError(f"non-finite phase point after leapfrog step {cfg.L}")
    return PhasePoint(x, p)


def hmc_step(
    x: np.ndarray,
    target: Target,
    cfg: HmcConfig,
    rng: np.random.Generator,
) -> StepResult:
    """One HMC transition from ``x``: ``make_hmc_kernel(target, cfg)(x, rng)``."""
    return make_hmc_kernel(target, cfg)(x, rng)


def make_hmc_kernel(target: Target, cfg: HmcConfig) -> Kernel:
    """HMC transitions: fresh ``N(0, M)`` momentum, leapfrog, energy test.

    Accepts with probability ``min{1, exp(-H(x'', p'') + H(x, p'))}``; the
    momentum is discarded afterwards.  Carries ``(x, log pi(x), grad U(x))``
    of the state it returned last; a divergent trajectory is a rejection.
    """
    grad_u = _potential_gradient(target)
    log_density = target.log_density
    mass = cfg.mass_vector(target.dim)
    inv_m = 1.0 / mass
    sqrt_m = np.sqrt(mass)
    drift = cfg.dt * inv_m
    half_dt = 0.5 * cfg.dt
    cache = {"x": None, "lp": None, "grad": None}

    def kernel(x: np.ndarray, rng: np.random.Generator) -> StepResult:
        x = np.asarray(x, dtype=float)
        if x is cache["x"]:
            lp_x, grad = cache["lp"], cache["grad"]
        else:
            lp_x, grad = log_density(x), grad_u(x)
        p0 = sqrt_m * rng.standard_normal(x.size)
        y, p, grad_y = _leapfrog(x, p0, grad, cfg.L, drift, half_dt, grad_u)
        if _finite(y, p):
            lp_y = log_density(y)
            h0 = -lp_x + 0.5 * float(p0 @ (inv_m * p0))
            h1 = -lp_y + 0.5 * float(p @ (inv_m * p))
            log_alpha = h0 - h1
        else:
            lp_y = log_alpha = -math.inf
        step = accept_step(x, y, log_alpha, lp_x, lp_y, rng)
        cache["x"], cache["lp"] = step.x_next, step.log_density
        cache["grad"] = grad_y if step.accepted else grad
        return step

    return kernel


def hmc_one_step_proposal_params(
    x: np.ndarray,
    target: Target,
    cfg: HmcConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact Gaussian law of the L = 1 position proposal from ``x``.

    Returns ``(mean, var)`` with ``mean = x + (dt^2/2) M^{-1} grad log pi(x)``
    and ``var = dt^2 M^{-1}`` (diagonal), the push-forward of the ``N(0, M)``
    momentum through a single leapfrog step of size ``dt``.
    """
    if cfg.L != 1:
        raise ValueError(f"proposal characterization requires L = 1, got L = {cfg.L}")
    x = np.asarray(x, dtype=float)
    inv_m = 1.0 / cfg.mass_vector(x.size)
    score = -grad_potential(target, x)
    mean = x + 0.5 * cfg.dt**2 * inv_m * score
    var = cfg.dt**2 * inv_m
    return mean, var
