"""Cross-kernel benchmark on the O-ring logistic posterior.

Runs the additive single-innovation kernel and the random-walk baseline on
the same posterior (multiple chains each), maps samples back to the raw
(intercept, slope) coordinates, and checks that the two kernels agree: same
posterior means within a few combined standard errors, negative slope, and
split-chain statistics near 1.

Sampling defaults to the mean-centered covariate parameterization, which is
model-identical (the prior is applied to the raw intercept through the exact
change of variables) but orders of magnitude better conditioned; raw
coordinates put the posterior on a correlation-0.995 ridge that an isotropic
random walk cannot traverse in any reasonable run length.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .chain import accept_batch, chain_rng
from .diagnostics import acceptance_rate, iact_and_ess, split_rhat
from .targets import make_challenger_logistic
from .transform_kernels import TmcmcConfig

__all__ = ["ChallengerConfig", "run_challenger_benchmark"]

BENCH_KERNELS = ("additive-tmcmc", "rwmh")
PARAM_NAMES = ("beta0", "beta1")


@dataclass(frozen=True)
class ChallengerConfig:
    n_iter: int = 200_000
    n_chains: int = 4
    burn_frac: float = 0.1
    seed: int = 20260810
    prior_sd: float = 10.0
    center: bool = True
    rwmh_sigma: float = 0.24
    tmcmc_scales: tuple = (1.0, 0.18)
    tmcmc_eps_scale: float = 0.8
    agreement_band_se: float = 3.0
    rhat_threshold: float = 1.05

    def __post_init__(self):
        if self.n_iter < 100:
            raise ValueError("n_iter too small for a meaningful benchmark")
        if self.n_chains < 2:
            raise ValueError("need at least 2 chains for split-chain diagnostics")
        if not 0.0 <= self.burn_frac < 1.0:
            raise ValueError("burn_frac must lie in [0, 1)")
        if self.rwmh_sigma <= 0.0:
            raise ValueError(f"rwmh_sigma must be positive, got {self.rwmh_sigma}")


def _lockstep_chains(kernel_name: str, cfg: ChallengerConfig, log_density) -> tuple[np.ndarray, np.ndarray]:
    """Advance one kernel's ``cfg.n_chains`` chains together, each on its own stream.

    Chain ``c`` draws from ``chain_rng(cfg.seed, c + j * cfg.n_chains)``,
    ``j`` the kernel's index in ``BENCH_KERNELS``, exactly what ``run_chain``
    of ``make_additive_tmcmc_kernel`` or ``make_rwmh_kernel`` from the same
    start would: its start, then per step the proposal's draws and one
    acceptance uniform.  The chains' proposals share one batched log-density
    call and one ``accept_batch`` decision.  Returns the ``(n_iter, C, 2)``
    states and the ``(n_iter, C)`` accept flags.
    """
    n_chains, n_iter = cfg.n_chains, cfg.n_iter
    offset = BENCH_KERNELS.index(kernel_name) * n_chains
    rngs = [chain_rng(cfg.seed, c + offset) for c in range(n_chains)]
    # Overdispersed starts relative to the posterior spread.
    x = np.array([np.array([0.0, 0.0]) + rng.standard_normal(2) * np.array([1.5, 0.25]) for rng in rngs])
    lp_x = log_density(x)
    additive = kernel_name == "additive-tmcmc"
    if additive:
        a, p, _ = TmcmcConfig(scales=cfg.tmcmc_scales, eps_scale=cfg.tmcmc_eps_scale).broadcast(2)
        s = cfg.tmcmc_eps_scale
    draws = np.empty((n_chains, 2))  # additive: sign uniforms; rwmh: normals
    eps = np.empty(n_chains)
    log_u = np.empty(n_chains)
    n_nonfinite = np.zeros(n_chains, dtype=int)
    states = np.empty((n_iter, n_chains, 2))
    accepted = np.empty((n_iter, n_chains), dtype=bool)
    with np.errstate(invalid="ignore"):  # inf - inf: replaced by accept_batch's rule
        for i in range(n_iter):
            for c, rng in enumerate(rngs):
                if additive:
                    draws[c] = rng.random(2)
                    eps[c] = s * abs(float(rng.standard_normal()))
                else:
                    draws[c] = rng.standard_normal(2)
                u = float(rng.random())
                log_u[c] = math.log(u) if u > 0.0 else -math.inf
            if additive:
                y = x + (np.where(draws < p, 1.0, -1.0) * a) * eps[:, None]
            else:
                y = x + cfg.rwmh_sigma * draws
            accepted[i] = accept_batch(x, lp_x, y, log_density(y), log_u, n_nonfinite)
            states[i] = x
    return states, accepted


def _kernel_report(kernel_name: str, cfg: ChallengerConfig) -> dict:
    target = make_challenger_logistic(cfg.prior_sd, center=cfg.center)
    states, accepted = _lockstep_chains(kernel_name, cfg, target.log_density)
    burn = int(cfg.burn_frac * cfg.n_iter)
    t_bar = target.info["t_bar"]
    tail, flags = states[burn:], accepted[burn:]
    raw = [np.column_stack([tail[:, c, 0] - tail[:, c, 1] * t_bar, tail[:, c, 1]]) for c in range(cfg.n_chains)]
    pooled = np.concatenate(raw, axis=0)
    report: dict = {
        "accept_rate": float(np.mean([acceptance_rate(flags[:, c]) for c in range(cfg.n_chains)])),
        "mean": {},
        "sd": {},
        "se": {},
        "ess": {},
        "rhat": {},
    }
    for j, name in enumerate(PARAM_NAMES):
        series = [r[:, j] for r in raw]
        ess_total = float(sum(iact_and_ess(s)[1] for s in series))
        sd = float(pooled[:, j].std(ddof=1))
        report["mean"][name] = float(pooled[:, j].mean())
        report["sd"][name] = sd
        report["se"][name] = sd / np.sqrt(ess_total)
        report["ess"][name] = ess_total
        report["rhat"][name] = split_rhat(series)
    return report


def run_challenger_benchmark(
    cfg: Optional[ChallengerConfig] = None, n_workers: Optional[int] = None
) -> dict:
    """Run both kernels and assemble the cross-kernel agreement report.

    Each kernel runs its chains in lockstep (``_lockstep_chains``).  The two
    kernels are independent and can run on a bounded process pool
    (``n_workers``); the report is the same either way.
    """
    cfg = cfg or ChallengerConfig()
    t0 = time.perf_counter()
    workers = n_workers if n_workers is not None else (os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(BENCH_KERNELS))) as pool:
            reports = list(pool.map(_kernel_report, BENCH_KERNELS, [cfg] * len(BENCH_KERNELS)))
    else:
        reports = [_kernel_report(name, cfg) for name in BENCH_KERNELS]
    kernels = dict(zip(BENCH_KERNELS, reports))

    cross = {}
    agree_all = True
    a, b = (kernels[name] for name in BENCH_KERNELS)
    for name in PARAM_NAMES:
        diff = a["mean"][name] - b["mean"][name]
        combined_se = float(np.hypot(a["se"][name], b["se"][name]))
        n_se = abs(diff) / combined_se if combined_se > 0 else float("inf")
        agree = bool(n_se <= cfg.agreement_band_se)
        agree_all &= agree
        cross[name] = {
            "mean_difference": float(diff),
            "combined_se": combined_se,
            "n_se": float(n_se),
            "agree": agree,
        }

    max_rhat = max(k["rhat"][p] for k in kernels.values() for p in PARAM_NAMES)
    report = {
        "config": asdict(cfg),
        "kernels": kernels,
        "cross_kernel": cross,
        "beta1_negative": bool(all(k["mean"]["beta1"] < 0.0 for k in kernels.values())),
        "max_split_rhat": float(max_rhat),
        "converged": bool(max_rhat < cfg.rhat_threshold),
        "agreement": bool(agree_all),
        "wall_time_s": time.perf_counter() - t0,
    }
    report["ok"] = bool(report["agreement"] and report["beta1_negative"] and report["converged"])
    return report
