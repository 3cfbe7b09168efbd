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

import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Optional

import numpy as np

from .baseline_kernels import make_rwmh_kernel
from .chain import chain_rng, lockstep_path, map_tasks, run_lockstep
from .diagnostics import MIN_SAMPLES, acceptance_rate, iact_and_ess, split_rhat
from .targets import make_challenger_logistic
from .transform_kernels import TmcmcConfig, make_additive_tmcmc_kernel

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
        if self.n_chains < 2:
            raise ValueError("need at least 2 chains for split-chain diagnostics")
        if not 0.0 <= self.burn_frac < 1.0:
            raise ValueError("burn_frac must lie in [0, 1)")
        if self.rwmh_sigma <= 0.0:
            raise ValueError(f"rwmh_sigma must be positive, got {self.rwmh_sigma}")
        TmcmcConfig(scales=self.tmcmc_scales, eps_scale=self.tmcmc_eps_scale)  # raises on bad additive tuning
        kept = self.n_iter - int(self.burn_frac * self.n_iter)
        if kept < MIN_SAMPLES:
            raise ValueError(f"need n_iter - int(burn_frac * n_iter) >= {MIN_SAMPLES} for the ESS, got {kept}")


def _kernel_report(kernel_name: str, cfg: ChallengerConfig) -> dict:
    """One kernel's report from its ``cfg.n_chains`` chains, run in lockstep.

    Chain ``c`` is one ``run_lockstep`` stream on its own generator,
    ``chain_rng(cfg.seed, c + j * cfg.n_chains)`` with ``j`` the kernel's
    index in ``BENCH_KERNELS``: its start, then per step the draws of the
    kernel built from ``cfg``, at that kernel's own scale.
    """
    target = make_challenger_logistic(cfg.prior_sd, center=cfg.center)
    if kernel_name == "additive-tmcmc":
        scale = cfg.tmcmc_eps_scale
        kernel = make_additive_tmcmc_kernel(target, TmcmcConfig(scales=cfg.tmcmc_scales, eps_scale=scale))
    else:
        kernel, scale = make_rwmh_kernel(target, cfg.rwmh_sigma), cfg.rwmh_sigma
    offset = BENCH_KERNELS.index(kernel_name) * cfg.n_chains
    rngs = [chain_rng(cfg.seed, c + offset) for c in range(cfg.n_chains)]
    # Overdispersed starts relative to the posterior spread.
    x0 = np.array([np.array([0.0, 0.0]) + rng.standard_normal(2) * np.array([1.5, 0.25]) for rng in rngs])
    run = run_lockstep([kernel] * cfg.n_chains, target.log_density, x0, [scale], cfg.n_iter, rngs, 2)
    burn = int(cfg.burn_frac * cfg.n_iter)
    t_bar = target.info["t_bar"]
    flags = run.accepted[burn:]
    raw = []
    for c in range(cfg.n_chains):
        tail = lockstep_path(run, c)[burn:]
        tail[:, 0] -= tail[:, 1] * t_bar  # raw intercept
        raw.append(tail)
    del run  # the draws are spent: free them before the pooled copy
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

    Each kernel runs its chains in lockstep (``_kernel_report``).  The two
    kernels are independent and ``map_tasks`` runs them on up to
    ``n_workers`` processes; the report is the same either way.
    """
    cfg = cfg or ChallengerConfig()
    t0 = time.perf_counter()
    reports = map_tasks(partial(_kernel_report, cfg=cfg), BENCH_KERNELS, n_workers)
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
