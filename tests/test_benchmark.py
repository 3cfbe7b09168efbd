"""The challenger benchmark's lockstep chains against single chains through ``run_chain``."""

import copy
import json
from functools import partial

import numpy as np
import pytest

from tmcmc import benchmark
from tmcmc.baseline_kernels import make_rwmh_kernel
from tmcmc.benchmark import BENCH_KERNELS, ChallengerConfig, run_challenger_benchmark
from tmcmc.chain import chain_rng, run_chain, run_lockstep
from tmcmc.diagnostics import acceptance_rate, iact_and_ess, split_rhat
from tmcmc.targets import make_challenger_logistic
from tmcmc.transform_kernels import TmcmcConfig, make_additive_tmcmc_kernel


def _reference_kernel_report(kernel_name, cfg, assert_block_steps, layouts):
    """One kernel's report from ``cfg.n_chains`` separate ``run_chain`` runs on their own streams.

    Each ``run_chain`` is also checked against the kernel's single transitions
    in the block layout (``assert_block_steps``, the layouts of ``block_layouts``).
    """
    target = make_challenger_logistic(cfg.prior_sd, center=cfg.center)
    if kernel_name == "additive-tmcmc":
        kernel = make_additive_tmcmc_kernel(
            target, TmcmcConfig(scales=cfg.tmcmc_scales, eps_scale=cfg.tmcmc_eps_scale)
        )
        layout = layouts.sign_moves(2)
    else:
        kernel = make_rwmh_kernel(target, cfg.rwmh_sigma)
        layout = layouts.normals(2)
    offset = BENCH_KERNELS.index(kernel_name) * cfg.n_chains
    chains = []
    for c in range(cfg.n_chains):
        rng = chain_rng(cfg.seed, c + offset)
        x0 = np.array([0.0, 0.0]) + rng.standard_normal(2) * np.array([1.5, 0.25])
        stream = copy.deepcopy(rng)
        trace = run_chain(kernel, x0, cfg.n_iter, rng)
        assert_block_steps(trace, kernel, x0, stream, layout)
        burn = int(cfg.burn_frac * cfg.n_iter)
        tail = trace.tail(burn) if burn else trace
        t_bar = target.info["t_bar"]
        raw = np.column_stack([tail.states[:, 0] - tail.states[:, 1] * t_bar, tail.states[:, 1]])
        chains.append({"raw": raw, "accept_rate": acceptance_rate(tail)})
    pooled = np.concatenate([c["raw"] for c in chains], axis=0)
    report = {"accept_rate": float(np.mean([c["accept_rate"] for c in chains]))}
    for key in ("mean", "sd", "se", "ess", "rhat"):
        report[key] = {}
    for j, name in enumerate(benchmark.PARAM_NAMES):
        series = [c["raw"][:, j] for c in chains]
        ess_total = float(sum(iact_and_ess(s)[1] for s in series))
        sd = float(pooled[:, j].std(ddof=1))
        report["mean"][name] = float(pooled[:, j].mean())
        report["sd"][name] = sd
        report["se"][name] = sd / np.sqrt(ess_total)
        report["ess"][name] = ess_total
        report["rhat"][name] = split_rhat(series)
    return report


def _reference_kernel_reports(kernel_names, cfg, assert_block_steps, layouts):
    """``_kernel_reports`` from separate ``run_chain`` runs, one kernel at a time."""
    return [_reference_kernel_report(name, cfg, assert_block_steps, layouts) for name in kernel_names]


def _use_references(monkeypatch, assert_block_steps, block_layouts):
    """Make ``_kernel_reports`` the ``run_chain`` reference."""
    reference = partial(_reference_kernel_reports, assert_block_steps=assert_block_steps, layouts=block_layouts)
    monkeypatch.setattr(benchmark, "_kernel_reports", reference)


def _json(report):
    return json.dumps({k: v for k, v in report.items() if k != "wall_time_s"}, sort_keys=True)


@pytest.mark.parametrize("n_chains", [2, 4])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lockstep_report_equals_single_chain_runs(seed, n_chains, monkeypatch, assert_block_steps, block_layouts):
    cfg = ChallengerConfig(n_iter=3000, n_chains=n_chains, seed=seed)
    report = run_challenger_benchmark(cfg, n_workers=1)
    _use_references(monkeypatch, assert_block_steps, block_layouts)
    reference = run_challenger_benchmark(cfg, n_workers=1)
    assert _json(report) == _json(reference)


def test_lockstep_without_burn_in_and_raw_coordinates(monkeypatch, assert_block_steps, block_layouts):
    cfg = ChallengerConfig(n_iter=1000, n_chains=3, seed=7, burn_frac=0.0, center=False, rwmh_sigma=0.05)
    report = run_challenger_benchmark(cfg, n_workers=1)
    _use_references(monkeypatch, assert_block_steps, block_layouts)
    assert _json(report) == _json(run_challenger_benchmark(cfg, n_workers=1))


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("n_chains", [2, 3])
def test_report_is_independent_of_worker_count(n_chains, n_workers, monkeypatch, assert_block_steps, block_layouts):
    cfg = ChallengerConfig(n_iter=2000, n_chains=n_chains, seed=5)
    engine_streams = []

    def counted(kernels, *args):
        engine_streams.append(len(kernels))
        return run_lockstep(kernels, *args)

    monkeypatch.setattr(benchmark, "run_lockstep", counted)
    report = _json(run_challenger_benchmark(cfg, n_workers=n_workers))
    # one worker: both kernels' chains in one engine call; two: one call a kernel, the additive
    # one in this process (worker 0) and the random-walk one in a child
    assert engine_streams == ([2 * n_chains] if n_workers == 1 else [n_chains])
    assert report == _json(run_challenger_benchmark(cfg, n_workers=3 - n_workers))
    _use_references(monkeypatch, assert_block_steps, block_layouts)
    assert report == _json(run_challenger_benchmark(cfg, n_workers=1))


@pytest.mark.parametrize(
    "field, value",
    [("agreement_band_se", float("nan")), ("agreement_band_se", -1.0), ("rhat_threshold", float("nan")),
     ("n_chains", 2.5), ("n_chains", True), ("n_iter", 2000.5)],
)
def test_config_names_a_field_that_could_never_pass_or_run(field, value):
    # A NaN or negative band and a NaN threshold fail every report; a fractional count fails in range().
    with pytest.raises(ValueError, match=field):
        ChallengerConfig(**{field: value})


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_config_refuses_a_seed_that_is_not_a_count(seed):
    # -1 and 1.5 failed in chain_rng with numpy's bare errors, and True ran as seed 1
    with pytest.raises(ValueError, match="^seed must be"):
        ChallengerConfig(seed=seed)


def test_config_validation():
    with pytest.raises(ValueError, match="rwmh_sigma"):
        ChallengerConfig(rwmh_sigma=0.0)
    with pytest.raises(ValueError, match="int\\(burn_frac \\* n_iter\\) >= 100"):
        ChallengerConfig(n_iter=105)  # 95 kept after the burn-in of 10
    assert ChallengerConfig(n_iter=112).n_iter == 112  # 101 kept
    assert ChallengerConfig(n_iter=100, burn_frac=0.0).n_iter == 100
    with pytest.raises(ValueError, match="eps_scale"):
        run_challenger_benchmark(ChallengerConfig(n_iter=100, tmcmc_eps_scale=-1.0), n_workers=1)
