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

Every chain is one stream of ``chain.run_lockstep``, which draws it in
blocks of 256 steps (all the block's directions and innovations, then its
acceptance uniforms), as ``run_chain`` draws a symmetric kernel's chain.
So the report is the one separate ``run_chain`` chains would give.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .baseline_kernels import make_rwmh_kernel
from .chain import (
    Lockstep, _check_count, _check_positive, chain_rng, lockstep_path, map_tasks, pool_workers, run_lockstep,
)
from .diagnostics import MIN_SAMPLES, acceptance_rate, iact_and_ess_rows, split_rhat
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
        _check_count("n_iter", self.n_iter, 1)
        _check_count("n_chains", self.n_chains, 2)  # split-chain diagnostics need two
        _check_count("seed", self.seed, 0)
        if not 0.0 <= self.burn_frac < 1.0:
            raise ValueError("burn_frac must lie in [0, 1)")
        # A NaN or a negative band, or a NaN threshold, could never pass.
        for name in ("rwmh_sigma", "agreement_band_se", "rhat_threshold"):
            _check_positive(name, getattr(self, name))
        TmcmcConfig(scales=self.tmcmc_scales, eps_scale=self.tmcmc_eps_scale)  # raises on bad additive tuning
        kept = self.n_iter - int(self.burn_frac * self.n_iter)
        if kept < MIN_SAMPLES:
            raise ValueError(f"need n_iter - int(burn_frac * n_iter) >= {MIN_SAMPLES} for the ESS, got {kept}")


def _raw_tails(run: Lockstep, burn: int, t_bar: float) -> list:
    """The kept tail of each one-chain stream's chain, in raw (intercept, slope) coordinates.

    Each stream's record is freed once its tail is built.
    """
    tails = []
    for s in range(len(run.streams)):
        tail = lockstep_path(run, s)[burn:].copy()  # the copy lets the full path go
        run.streams[s] = None
        tail[:, 0] -= tail[:, 1] * t_bar  # raw intercept
        tails.append(tail)
    return tails


def _summary(raw: list, accept: list) -> dict:
    """One kernel's report from its chains' raw tails and acceptance rates."""
    report: dict = {"accept_rate": float(np.mean(accept)), "mean": {}, "sd": {}, "se": {}, "ess": {}, "rhat": {}}
    for j, name in enumerate(PARAM_NAMES):
        series = [r[:, j] for r in raw]
        ess_total = float(sum(iact_and_ess_rows(series)[1]))  # the column views, not a stacked copy
        pooled = np.concatenate(series)  # one column at a time: no (n, 2) pooled copy
        report["mean"][name], sd = float(pooled.mean()), float(pooled.std(ddof=1))
        del pooled  # freed before the next column's FFTs
        report["sd"][name] = sd
        report["se"][name] = sd / np.sqrt(ess_total)
        report["ess"][name] = ess_total
        report["rhat"][name] = split_rhat(series)
    return report


def _kernel_reports(kernel_names: Sequence[str], cfg: ChallengerConfig) -> list:
    """The named kernels' reports, in order, each from its ``cfg.n_chains`` chains, all run in one lockstep call.

    Chain ``c`` of the kernel at index ``j`` of ``BENCH_KERNELS`` is one
    stream on its own generator, ``chain_rng(cfg.seed, c + j * cfg.n_chains)``:
    its start, then the engine's 256-step blocks of draws of the kernel built
    from ``cfg``, at that kernel's own scale.
    """
    target = make_challenger_logistic(cfg.prior_sd, center=cfg.center)
    n = cfg.n_chains
    kernels, scales, rngs = [], [], []
    for name in kernel_names:
        if name == "additive-tmcmc":
            scale = cfg.tmcmc_eps_scale
            kernel = make_additive_tmcmc_kernel(target, TmcmcConfig(scales=cfg.tmcmc_scales, eps_scale=scale))
        else:
            kernel, scale = make_rwmh_kernel(target, cfg.rwmh_sigma), cfg.rwmh_sigma
        offset = BENCH_KERNELS.index(name) * n
        kernels += [kernel] * n
        scales += [[scale]] * n
        rngs += [chain_rng(cfg.seed, c + offset) for c in range(n)]
    # Overdispersed starts relative to the posterior spread.
    x0 = np.array([np.array([0.0, 0.0]) + rng.standard_normal(2) * np.array([1.5, 0.25]) for rng in rngs])
    run = run_lockstep(kernels, target.log_density, x0, scales, cfg.n_iter, rngs, 2)
    burn = int(cfg.burn_frac * cfg.n_iter)
    t_bar = target.info["t_bar"]
    accept = [acceptance_rate(run.accepted[burn:, s]) for s in range(len(rngs))]
    raw = _raw_tails(run, burn, t_bar)
    del run  # the draws are spent: free them before the summaries
    return [_summary(raw[j * n:(j + 1) * n], accept[j * n:(j + 1) * n]) for j in range(len(kernel_names))]


def run_challenger_benchmark(
    cfg: Optional[ChallengerConfig] = None, n_workers: Optional[int] = None
) -> dict:
    """Run both kernels and assemble the cross-kernel agreement report.

    The chains run in lockstep (``_kernel_reports``).  With one worker
    (``pool_workers(n_workers) <= 1``) both kernels' chains step together
    in one engine call; with more, ``map_tasks`` runs the two kernels in
    parallel, one task each: the additive one in this process and the
    random walk in one child process.  On two cores that takes about 30%
    less time than the one call.  The report is the same either way.
    """
    cfg = cfg or ChallengerConfig()
    t0 = time.perf_counter()
    tasks = [BENCH_KERNELS] if pool_workers(n_workers) <= 1 else [(name,) for name in BENCH_KERNELS]
    reports = [r for task in map_tasks(partial(_kernel_reports, cfg=cfg), tasks, n_workers) for r in task]
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
