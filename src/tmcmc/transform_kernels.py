"""Transformation-driven kernels: one shared innovation, signed per-coordinate moves.

The family proposes ``y = T_z(x, eps)`` where ``eps >= 0`` is a single scalar
innovation and ``z`` picks forward/backward/no-change per coordinate; the
conjugate move ``-z`` inverts the transformation, which is what makes the
acceptance ratio a plain move-probability ratio times a density ratio times a
Jacobian.  The additive family ``y_i = x_i + z_i a_i eps`` has unit Jacobian.
The general and dependent-z kernels draw one row layout, ``(z, eps,
log_ratio)`` with the move's log P(-z) - log P(z), and share one ``propose``
(``_transform_propose``), which takes the ratio from the row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence, Union

import numpy as np

from .chain import (
    ChainState, Kernel, _check_positive, _check_shape, _per_coordinate, _shift_draw, _shift_propose, init_state,
)
from .targets import Target

__all__ = [
    "Transformation",
    "additive_transformation",
    "TmcmcConfig",
    "DependentZConfig",
    "make_additive_tmcmc_kernel",
    "make_general_tmcmc_kernel",
    "make_dependent_z_kernel",
]

ArrayLike = Union[float, Sequence[float], np.ndarray]


def _move_log_ratio(z: np.ndarray, log_p: np.ndarray, log_q: np.ndarray):
    # log P(-z) - log P(z) from per-coordinate log move probabilities; zero
    # coordinates contribute nothing.  The drawn move always has positive
    # probability; a zero reverse probability (log -inf) gives -inf.  Tables
    # of shape (k, n), one column per draw of (p, q), give n ratios.
    pos, neg = z > 0, z < 0
    reverse = np.concatenate([log_q[pos], log_p[neg]])
    forward = np.concatenate([log_p[pos], log_q[neg]])
    return np.sum(reverse, axis=0) - np.sum(forward, axis=0)


def _softmax_moves(draws, noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The dependent-z law: the ``(b, k)`` ``(p, q)`` of ``(b, 3, k)`` ``noise``, ``(p, q, 1 - p - q) ~ exp(w)``.

    ``w_j = mu_j + L_j noise_j`` for the ``(mu_j, L_j)`` pairs of ``draws``, ``L_j`` a 1-D
    diagonal or a 2-D left factor, applied as each row's ``L @ v`` (``noise_j @ L.T`` differs).
    """
    w = np.empty(noise.shape)
    for j, (mu, L) in enumerate(draws):
        w[:, j] = mu + (L * noise[:, j] if L.ndim == 1 else (L @ noise[:, j, :, None])[..., 0])
    w -= w.max(axis=1, keepdims=True)
    e = np.exp(w)
    e /= e.sum(axis=1, keepdims=True)
    return e[:, 0], e[:, 1]


def _move_types(u: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # Forward where u < p, backward where p <= u < p + q, no change elsewhere.
    return np.where(u < p, 1.0, np.where(u < p + q, -1.0, 0.0))


def _log_tables(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Per-coordinate log move probabilities; a zero probability logs to -inf
    # without a warning.
    with np.errstate(divide="ignore"):
        return np.log(p), np.log(q)


@dataclass(frozen=True)
class Transformation:
    """Forward map and log-Jacobian of a move-type transformation family.

    ``forward(x, eps, z)`` applies the move; ``log_jacobian(x, eps, z)`` is
    ``log |d(T_z(x,eps),eps)/d(x,eps)|``.  Conjugate application must invert
    the forward map, and the Jacobians of a move and its conjugate must cancel.
    """

    forward: Callable[[np.ndarray, float, np.ndarray], np.ndarray]
    log_jacobian: Callable[[np.ndarray, float, np.ndarray], float]
    name: str = ""


def additive_transformation(a: ArrayLike = 1.0) -> Transformation:
    """The additive family ``y_i = x_i + z_i a_i eps``, for a scalar or 1-D ``a > 0``; its log-Jacobian is zero."""
    _check_positive("a", a)
    a = np.asarray(a, dtype=float)
    if a.ndim > 1:
        raise ValueError(f"a must be a scalar or 1-D, got shape {a.shape}")

    def forward(x: np.ndarray, eps: float, z: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = np.asarray(z)
        if z.shape != x.shape:
            raise ValueError(f"z shape {z.shape} does not match x shape {x.shape}")
        if a.shape not in ((), (1,), x.shape[-1:]):
            raise ValueError(f"a has shape {a.shape}, which does not match x shape {x.shape}")
        return x + (z * a) * eps

    return Transformation(forward=forward, log_jacobian=lambda x, eps, z: 0.0, name="additive")


def _transform_propose(transform: Transformation, log_density: Callable[[np.ndarray], float]) -> Callable:
    """The family's one ``propose``: ``y = T_z(x, eps)`` for a ``(z, eps, log_ratio)`` row."""

    def propose(state: ChainState, row: tuple):
        z, eps, log_ratio = row
        x = state.x
        y = np.asarray(transform.forward(x, eps, z), dtype=float)
        log_jac = float(transform.log_jacobian(x, eps, z))
        lp_y = log_density(y) if math.isfinite(log_jac) else -math.inf
        return ChainState(y, lp_y), log_ratio + log_jac + lp_y - state.lp

    return propose


@dataclass(frozen=True)
class TmcmcConfig:
    """Tuning for the single-innovation kernels.

    ``scales`` are the per-coordinate multipliers ``a_i > 0``, ``eps_scale``
    the half-normal innovation scale, and ``(p, q)`` the per-coordinate
    forward/backward probabilities (remainder is the no-change probability).
    Scalars broadcast across coordinates.
    """

    scales: ArrayLike = 1.0
    eps_scale: float = 1.0
    p: ArrayLike = 0.5
    q: ArrayLike = 0.5

    def __post_init__(self):
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        try:
            np.broadcast_shapes(p.shape, q.shape)
        except ValueError:
            shapes = f"{np.shape(self.p)} and {np.shape(self.q)}"
            raise ValueError(f"p and q must broadcast together, got shapes {shapes}") from None
        _check_positive("scales", self.scales)
        _check_positive("eps_scale", self.eps_scale)
        if not (np.all(p >= 0.0) and np.all(q >= 0.0) and np.all(p + q <= 1.0 + 1e-12)):
            raise ValueError("need p_i, q_i >= 0 and p_i + q_i <= 1")
        if np.all(p + q == 0.0):
            raise ValueError("at least one coordinate needs p_i + q_i > 0")

    def broadcast(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(a, p, q)`` for a target of dimension ``k``; each setting must hold one value or ``k``."""
        return tuple(_per_coordinate(name, getattr(self, name), k) for name in ("scales", "p", "q"))


@dataclass(frozen=True)
class DependentZConfig:
    """Tuning for the kernel whose move probabilities are drawn per iteration.

    Each ``sigma_j`` is a covariance descriptor for the Gaussian ``w_j``:
    a 1-D array of diagonal variances or a 2-D positive-definite matrix.
    Every entry of each ``mu_j`` and ``sigma_j`` must be finite.
    """

    mu_1: np.ndarray
    mu_2: np.ndarray
    mu_3: np.ndarray
    sigma_1: np.ndarray
    sigma_2: np.ndarray
    sigma_3: np.ndarray
    eps_scale: float = 1.0
    scales: ArrayLike = 1.0

    def __post_init__(self):
        _check_positive("eps_scale", self.eps_scale)
        _check_positive("scales", self.scales)
        for name in ("mu_1", "mu_2", "mu_3", "sigma_1", "sigma_2", "sigma_3"):
            if not np.all(np.isfinite(np.asarray(getattr(self, name), dtype=float))):
                raise ValueError(f"{name}: entries must be finite")
        self.factors()

    @staticmethod
    def _factor(sigma, name: str) -> np.ndarray:
        """Left factor L with L L' = Sigma (sqrt of diagonal, else Cholesky)."""
        s = np.asarray(sigma, dtype=float)
        if s.ndim == 1:
            if np.any(s <= 0.0):
                raise ValueError(f"{name}: diagonal variances must be positive")
            return np.sqrt(s)
        try:
            return np.linalg.cholesky(s)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"{name}: covariance must be positive definite") from exc

    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(self._factor(getattr(self, f"sigma_{j}"), f"sigma_{j}") for j in "123")


def make_additive_tmcmc_kernel(target: Target, cfg: TmcmcConfig) -> Kernel:
    """Additive kernel with sign-only moves ``y_i = x_i + z_i a_i eps``.

    Requires ``p_i + q_i = 1`` (no zero coordinates); acceptance is
    ``min{1, prod_i ratio_i * pi(y)/pi(x)}`` with ``ratio_i = q_i/p_i`` for a
    forward coordinate and ``p_i/q_i`` for a backward one.  With ``p != q``
    it is :func:`make_general_tmcmc_kernel` on ``additive_transformation(a)``.
    With ``p = q`` it is the symmetric shift kernel: ``direction(rng, out)
    -> r`` turns ``b * k`` uniforms into the ``(b, k)`` ``out = d = z * a``
    (``+a_i`` exactly when ``u_i < p_i``) and returns the ``(b,)``
    innovations ``r = |N(0, 1)|``; ``draw`` rows are ``d * (eps_scale * r)``.
    """
    a, p, q = cfg.broadcast(target.dim)
    if not np.allclose(p + q, 1.0):
        raise ValueError("additive kernel requires p_i + q_i = 1 for every coordinate")
    if not np.all(p == q):
        return make_general_tmcmc_kernel(target, additive_transformation(cfg.scales), replace(cfg, scales=1.0))
    below_p = np.nextafter(p, -1.0)  # below_p - u >= +0.0 exactly when u < p, for p in [0, 1]
    log_density = target.log_density

    def direction(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        rng.random(out=out)
        np.copysign(a, np.subtract(below_p, out, out=out), out=out)
        return np.abs(rng.standard_normal(len(out)))

    draw = _shift_draw(direction, cfg.eps_scale, a.size)
    return Kernel(init_state(log_density), draw, _shift_propose(log_density), direction, a)


def make_general_tmcmc_kernel(target: Target, transform: Transformation, cfg: TmcmcConfig) -> Kernel:
    """The general single-innovation kernel.

    Move types are drawn coordinatewise over {forward, backward, no-change};
    acceptance multiplies the move-probability ratio, the density ratio, and
    the transformation Jacobian.  A non-finite log-Jacobian (a broken user
    transformation) makes a non-finite proposal, which is rejected and
    counted.  ``kernel.draw(rng, b)`` draws ``b * k`` uniforms for the move
    types, redraws the all-zero rows (in row order, until none is left: that
    renormalizes ``P(z)`` by a constant that cancels in ``P(-z)/P(z)``), then
    ``b`` half-normal innovations ``eps = eps_scale * |N(0, 1)|``; a row is
    ``(z, eps, log_ratio)`` for ``_transform_propose``, the ratio taken per
    row.  The transformation carries its own scales, so
    ``cfg.scales`` must be 1.  :func:`make_additive_tmcmc_kernel` with
    ``p != q`` is this kernel on ``additive_transformation(a)``.
    """
    scales, p, q = cfg.broadcast(target.dim)
    if not np.all(scales == 1.0):
        raise ValueError(f"scales must be 1, got {cfg.scales}: the transformation carries its own")
    log_p, log_q = _log_tables(p, q)
    s = cfg.eps_scale
    log_density = target.log_density

    def draw(rng: np.random.Generator, b: int) -> list:
        z = _move_types(rng.random((b, p.size)), p, q)
        zero = np.flatnonzero(~z.any(axis=1))
        while zero.size:
            z[zero] = _move_types(rng.random((zero.size, p.size)), p, q)
            zero = zero[~z[zero].any(axis=1)]
        eps = s * np.abs(rng.standard_normal(b))
        return [(zi, e, _move_log_ratio(zi, log_p, log_q)) for zi, e in zip(z, eps.tolist())]

    return Kernel(init_state(log_density), draw, _transform_propose(transform, log_density))


def make_dependent_z_kernel(target: Target, cfg: DependentZConfig) -> Kernel:
    """Additive kernel whose move probabilities are softmax draws per iteration.

    Draws ``w_j ~ N(mu_j, Sigma_j)`` for j = 1, 2, 3, sets per coordinate
    ``p_i, q_i, 1 - p_i - q_i`` proportional to ``exp(w_ji)`` (max-subtracted),
    then proceeds as the additive kernel; the all-zero move proposes the
    current point and is accepted as a self-transition.  ``kernel.draw(rng,
    b)`` draws ``b * 3k`` normals for the ``w_j``, ``b * k`` uniforms for
    the move types and ``b`` normals for the innovations, and takes the
    block's ``(p, q)`` and each row's ratio; a row is ``(z, eps, log_ratio)``
    for ``_transform_propose`` on ``additive_transformation(a)``.  Each
    ``mu_j`` must have shape ``(k,)``, each ``sigma_j`` ``(k,)`` or ``(k, k)``
    and ``scales`` one value or ``k``: any other shape raises ``ValueError``
    naming it.
    """
    k = target.dim
    shapes = {f"mu_{j}": ((k,),) for j in "123"} | {f"sigma_{j}": ((k,), (k, k)) for j in "123"}
    for name, fits in shapes.items():
        _check_shape(name, getattr(cfg, name), k, fits)
    a = _per_coordinate("scales", cfg.scales, k)
    mus = (np.asarray(cfg.mu_1, float), np.asarray(cfg.mu_2, float), np.asarray(cfg.mu_3, float))
    draws = tuple(zip(mus, cfg.factors()))
    s = cfg.eps_scale
    log_density = target.log_density

    def draw(rng: np.random.Generator, b: int) -> list:
        p, q = _softmax_moves(draws, rng.standard_normal((b, 3, k)))
        z = _move_types(rng.random((b, k)), p, q)
        eps = s * np.abs(rng.standard_normal(b))
        tables = zip(*_log_tables(p, q))
        return [(zi, e, _move_log_ratio(zi, *t)) for zi, e, t in zip(z, eps.tolist(), tables)]

    return Kernel(init_state(log_density), draw, _transform_propose(additive_transformation(a), log_density))
