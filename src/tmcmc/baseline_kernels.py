"""Baseline kernels: random-walk Metropolis and Hamiltonian Monte Carlo.

The leapfrog integrator is the kick-drift-kick scheme on the score
``s = grad log pi = -grad U`` with the inner half-kicks merged (Neal,
*MCMC using Hamiltonian dynamics*, arXiv:1206.1901, section 5.2.3.3)

    p += (dt/2) s(x);  L - 1 times: x += dt M^{-1} p, p += dt s(x);
    x += dt M^{-1} p, p += (dt/2) s(x)

so it is time-reversible and volume preserving.  It is the same map as the
combined-update form ``x' = x + dt M^{-1} {p + (dt/2) s(x)}``,
``p' = p + (dt/2) {s(x) + s(x')}`` in four array operations per step, not
seven.  It is not bit-identical to that form: it carries the half-step
momentum from one drift to the next, where the combined form rebuilds it
from the full-step one, so the two round differently and agree to a few
parts in 1e15 of each vector's size.  The map is the same, so the one-step
proposal law below is unchanged (at ``L = 1`` even the position is computed
by the same operations).  The Hamiltonian uses the kinetic energy
``p' M^{-1} p / 2`` matching the ``N(0, M)`` momentum refresh.

An HMC transition costs one log-density call and ``L`` gradient calls: the
chain state carries ``log pi`` and ``grad log pi`` of the current position.  A
divergent trajectory, one whose end point is non-finite, is a rejected
transition counted in ``Trace.meta["n_nonfinite_proposals"]``; the kernel's
whole proposal, end energy and end log-density included, runs with numpy's
overflow and invalid-value warnings off, and only the public ``leapfrog()``
raises ``LeapfrogError`` for a divergence.

Note on parameterization: for a single leapfrog step of size ``dt`` the
position proposal is exactly Gaussian with mean
``x + (dt^2/2) M^{-1} grad log pi(x)`` and variance ``dt^2 M^{-1}``; that is,
the familiar Langevin-proposal step parameter equals the *squared* leapfrog
step here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .chain import (
    ChainState, Kernel, _check_count, _check_positive, _per_coordinate, _shift_draw, _shift_propose, init_state,
)
from .targets import Target

__all__ = [
    "HmcConfig",
    "PhasePoint",
    "LeapfrogError",
    "make_rwmh_kernel",
    "leapfrog",
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
        _check_count("L", self.L, 1)
        _check_positive("dt", self.dt)
        _check_positive("mass", self.mass)

    def mass_vector(self, k: int) -> np.ndarray:
        """The diagonal mass in dimension ``k``; ``mass`` must hold one value or ``k``."""
        return _per_coordinate("mass", self.mass, k)


def _finite(x: np.ndarray, p: np.ndarray) -> bool:
    return bool(np.isfinite(x).all() and np.isfinite(p).all())


@dataclass(frozen=True)
class PhasePoint:
    """Position/momentum pair on the phase space."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        if np.shape(self.x) != np.shape(self.p):
            raise ValueError(f"x has shape {np.shape(self.x)} but p has shape {np.shape(self.p)}; they must match")
        if not _finite(self.x, self.p):
            raise ValueError("phase point components must be finite")


class LeapfrogError(RuntimeError):
    """Raised by ``leapfrog()`` when a trajectory ends at a non-finite phase point."""


def make_rwmh_kernel(target: Target, sigma: float) -> Kernel:
    """Propose ``x + sigma * d`` and accept by the density ratio.

    ``kernel.direction(rng, out)`` fills a ``(b, k)`` ``out`` with normals
    ``d`` and returns the ``(b,)`` innovations ``r = 1``; ``kernel.draw(rng,
    b)`` returns the rows ``sigma * d``.
    """
    _check_positive("sigma", sigma)
    log_density = target.log_density

    def direction(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        rng.standard_normal(out=out)
        return np.ones(len(out))

    draw = _shift_draw(direction, sigma, target.dim)
    return Kernel(init_state(log_density), draw, _shift_propose(log_density), direction)


def _score(target: Target):
    """``target.grad_log_density``; raises if the target has no gradient."""
    if target.grad_log_density is None:
        raise ValueError(f"target {target.name!r} has no gradient; HMC needs one")
    return target.grad_log_density


def _kicks(cfg: HmcConfig, k: int) -> tuple:
    """The ``L`` kicks ``(dt, ..., dt, dt/2)`` and the first half kick, as float64 ``(k,)`` vectors.

    A vector times the score is numpy's cheapest multiply (a float64 scalar
    costs more to dispatch), and it kicks a float32 score in float64.
    """
    dt, half_dt = np.full(k, cfg.dt, dtype=float), np.full(k, 0.5 * cfg.dt, dtype=float)
    return (dt,) * (cfg.L - 1) + (half_dt,), half_dt


def _leapfrog(x, p, s, kicks, drift, half_dt, score):
    """``(x, p, grad log pi(x))`` -> ``(x_L, p_L, grad log pi(x_L))`` with ``drift = dt M^{-1}``.

    ``kicks, half_dt = _kicks(cfg, k)``; ``score`` may return a list or an
    integer array, and only the end score is coerced to float64.  Unchecked:
    a non-finite gradient makes every later ``x`` and ``p`` non-finite, so
    callers test the end point once.  Both callers, the kernel's ``propose``
    and the public ``leapfrog()``, run it under ``np.errstate(over="ignore",
    invalid="ignore")``, so overflow and invalid values on the way there
    raise no numpy warnings.
    """
    p = p + np.multiply(half_dt, s)  # a new array, so the kicks below may update it in place
    for kick in kicks:
        x = x + drift * p
        s = score(x)
        p += np.multiply(kick, s)
    return x, p, np.asarray(s, dtype=float)


def leapfrog(start: PhasePoint, cfg: HmcConfig, target: Target) -> PhasePoint:
    """Apply the leapfrog update ``cfg.L`` times from ``start``.

    Raises ``LeapfrogError`` if the trajectory diverges (a non-finite end point).
    """
    score = _score(target)
    x, p = np.asarray(start.x, dtype=float), np.asarray(start.p, dtype=float)
    inv_m = 1.0 / cfg.mass_vector(x.size)
    kicks, half_dt = _kicks(cfg, x.size)
    with np.errstate(over="ignore", invalid="ignore"):
        x, p, _ = _leapfrog(x, p, np.asarray(score(x), dtype=float), kicks, cfg.dt * inv_m, half_dt, score)
    if not _finite(x, p):
        raise LeapfrogError(f"non-finite phase point after leapfrog step {cfg.L}")
    return PhasePoint(x, p)


def make_hmc_kernel(target: Target, cfg: HmcConfig) -> Kernel:
    """HMC transitions: fresh ``N(0, M)`` momentum, leapfrog, energy test.

    Accepts with probability ``min{1, exp(-H(x'', p'') + H(x, p'))}``; the
    momentum is discarded afterwards.  The state carries
    ``(x, log pi(x), grad log pi(x))``; a divergent trajectory is a rejection.
    ``kernel.draw(rng, b)`` draws ``b`` ``N(0, M)`` momenta ``p`` and returns
    the ``(b, k + 1)`` rows ``(p, p' M^{-1} p / 2)``, the kinetic energies
    taken for the whole block at once; ``kernel.propose(state, row)`` runs the
    trajectory from the row's momentum.  Its finite test is one test of the
    end position, then the end kinetic energy; only a non-finite energy tests
    the end momentum, which tells a divergence from an energy that overflowed.
    The whole of ``propose``, the trajectory, its finite tests, the end
    energy and the end log-density, runs under ``np.errstate(over="ignore",
    invalid="ignore")``: a divergent or overflowing trajectory is a quiet
    rejection.
    """
    score = _score(target)
    log_density = target.log_density
    k = target.dim
    mass = cfg.mass_vector(k)
    inv_m = 1.0 / mass
    sqrt_m = np.sqrt(mass)
    drift = cfg.dt * inv_m
    kicks, half_dt = _kicks(cfg, k)

    def draw(rng: np.random.Generator, b: int) -> np.ndarray:
        p = rng.standard_normal((b, k))
        p *= sqrt_m
        # vecdot runs the same dot kernel as ``p.dot(inv_m * p)`` on each row
        return np.column_stack((p, 0.5 * np.vecdot(p, inv_m * p)))

    @np.errstate(over="ignore", invalid="ignore")
    def propose(state: ChainState, row: np.ndarray):
        y, p, s_y = _leapfrog(state.x, row[:k], state.grad, kicks, drift, half_dt, score)
        # An inf or NaN makes y'y non-finite; a finite y whose y'y overflows takes the full test.
        if not (math.isfinite(y.dot(y)) or np.isfinite(y).all()):
            return ChainState(y, -math.inf, s_y), -math.inf
        k1 = float(p.dot(inv_m * p))
        if not math.isfinite(k1) and not np.isfinite(p).all():
            return ChainState(y, -math.inf, s_y), -math.inf
        lp_y = log_density(y)
        h0 = -state.lp + float(row[k])
        h1 = -lp_y + 0.5 * k1
        return ChainState(y, lp_y, s_y), h0 - h1

    def init(x) -> ChainState:
        x = np.asarray(x, dtype=float)
        return ChainState(x, log_density(x), np.asarray(score(x), dtype=float))

    return Kernel(init, draw, propose)


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
    score = np.asarray(_score(target)(x), dtype=float)
    mean = x + 0.5 * cfg.dt**2 * inv_m * score
    var = cfg.dt**2 * inv_m
    return mean, var
