"""The four benchmark workloads: set-up code, one timed pass, and output checks.

Every workload drives the library through a public entry point only
(``run_scaling_study``, ``run_challenger_benchmark`` or ``cli.main``) and
derives all of its inputs from one seed, so a pass is reproducible and two
passes with the same seed must produce identical outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from reference import clock, since

# Run lengths of the untimed full-length passes: long enough for the study and
# challenger checks, which are statistical, to hold on every seed tried (see
# README.md).  Their ESS per iteration, averaged over CHECK_SEEDS passes with
# seeds derived from the run's seed, enters ess_per_s; the minimum ESS over
# coordinates varies by seed, so the workloads with few chains run several.
STUDY_ITERS = 16000
CHALLENGER_ITERS = 20000
SAMPLE_ITERS = 10000
HMC_ITERS = 8000
STUDY_CHECK_SEEDS = 1
CHALLENGER_CHECK_SEEDS = 3
SAMPLE_CHECK_SEEDS = 12
HMC_CHECK_SEEDS = 4
# Run lengths of the timed passes: short (about half a second), so that many
# fit in a run and most run wholly in one speed state of the CPU (reference.py).
STUDY_TIMED_ITERS = 2000
CHALLENGER_TIMED_ITERS = 2000
SAMPLE_TIMED_ITERS = 5000
HMC_TIMED_ITERS = 1500
SAMPLE_DIM = 10


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""
    statistical: bool = False  # may fail on correct code at short run lengths: judged on the full-length pass only


@dataclass
class Pass:
    """One timed call into the library and what it produced."""

    wall_s: float
    ess: float
    checks: list
    output: object  # deterministic outputs; wall-clock fields removed
    chain_wall_s: float = 0.0  # largest per-chain wall time the program reported
    stolen_s: float = 0.0  # seconds per CPU the host stole during the call (reference.stolen_s)


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[int, Path, int], Pass]  # (seed, work dir, iterations) -> Pass
    iters: int  # each full-length pass
    timed_iters: int  # each timed pass
    check_seeds: int  # full-length passes per run
    setup_code: str  # imports and constructs what one pass needs, in a fresh interpreter

    def check_seed(self, seed: int, j: int) -> int:
        """Seed of the ``j``-th full-length pass of a run with ``seed``; the first is ``seed`` itself."""
        return seed + 1_000_003 * j


def digest(output) -> str:
    """Stable hash of a pass's outputs (NaN-safe, key-order independent)."""
    text = json.dumps(output, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def fail_frac(checks) -> float:
    return sum(not c.ok for c in checks) / len(checks)


# --- study-k100 --------------------------------------------------------------

def run_study(seed: int, workdir: Path, iters: int) -> Pass:
    from tmcmc import scaling

    spec = scaling.ScalingStudySpec(dims=(100,), n_iter=iters, burn_in=iters // 10, seeds=(seed,))
    start = clock()
    report = scaling.run_scaling_study(spec, n_workers=1)
    wall, stolen = since(start)
    rows = [{k: v for k, v in asdict(r).items() if k != "wall_ms"} for r in report.rows]
    output = {"rows": rows, "optima": [asdict(o) for o in report.optima]}
    kept = spec.n_iter - spec.burn_in
    ess = sum(r["ess_per_iter"] for r in rows) * kept
    return Pass(wall, ess, study_checks(output), output, stolen_s=stolen)


def study_checks(output: dict) -> list:
    """Every cell has a finite acceptance rate in (0, 1) and positive ESS, and
    the additive optimum accepts more often than the random-walk one.

    The criterion-1 bands (0.439 +- 0.05) are not checked: at this run length a
    single seed can fall outside them without any defect.
    """
    checks = []
    for r in output["rows"]:
        ar, ess = r["accept_rate"], r["ess_per_iter"]
        ok = math.isfinite(ar) and 0.0 < ar < 1.0 and math.isfinite(ess) and ess > 0.0
        checks.append(Check(f"cell {r['kernel']} ell={r['ell']}", ok, f"accept={ar!r} ess/iter={ess!r}"))
    optimum = {o["kernel"]: o["accept_rate"] for o in output["optima"]}
    ok = optimum.get("additive-tmcmc", 0.0) > optimum.get("rwmh", math.inf)
    checks.append(Check("additive optimum acceptance above rwmh", ok, repr(optimum), statistical=True))
    return checks


STUDY_SETUP = f"""
from tmcmc.scaling import ScalingStudySpec
from tmcmc import TmcmcConfig, make_additive_tmcmc_kernel, make_iid_gaussian, make_rwmh_kernel
spec = ScalingStudySpec(dims=(100,), n_iter={STUDY_ITERS}, burn_in={STUDY_ITERS // 10}, seeds=(0,))
target = make_iid_gaussian(100)
for ell in spec.ell_grid:
    make_additive_tmcmc_kernel(target, TmcmcConfig(eps_scale=ell / 10.0))
    make_rwmh_kernel(target, ell / 10.0)
"""


# --- challenger-k2 -----------------------------------------------------------

def run_challenger(seed: int, workdir: Path, iters: int) -> Pass:
    from tmcmc import benchmark

    cfg = benchmark.ChallengerConfig(n_iter=iters, seed=seed)
    start = clock()
    report = benchmark.run_challenger_benchmark(cfg, n_workers=1)
    wall, stolen = since(start)
    output = {k: v for k, v in report.items() if k != "wall_time_s"}
    ess = sum(min(k["ess"].values()) for k in report["kernels"].values())
    return Pass(wall, ess, challenger_checks(output), output, stolen_s=stolen)


def challenger_checks(report: dict) -> list:
    """Each kernel's acceptance rate is in (0, 1) and its ESS finite and
    positive; ``report["ok"]`` holds (a statistical test, see README.md)."""
    checks = []
    for name, k in report.get("kernels", {}).items():
        ar, ess = k.get("accept_rate", math.nan), list(k.get("ess", {}).values())
        ok = 0.0 < ar < 1.0 and bool(ess) and all(math.isfinite(e) and e > 0.0 for e in ess)
        checks.append(Check(f"kernel {name}", ok, f"accept={ar!r} ess={ess!r}"))
    detail = ", ".join(f"{k}={report.get(k)}" for k in ("agreement", "beta1_negative", "converged"))
    checks.append(Check("challenger report ok", report.get("ok") is True, detail, statistical=True))
    return checks


CHALLENGER_SETUP = f"""
from tmcmc.benchmark import ChallengerConfig
from tmcmc import TmcmcConfig, make_additive_tmcmc_kernel, make_challenger_logistic, make_rwmh_kernel
cfg = ChallengerConfig(n_iter={CHALLENGER_ITERS}, seed=0)
target = make_challenger_logistic(cfg.prior_sd, center=cfg.center)
make_additive_tmcmc_kernel(target, TmcmcConfig(scales=cfg.tmcmc_scales, eps_scale=cfg.tmcmc_eps_scale))
make_rwmh_kernel(target, cfg.rwmh_sigma)
"""


# --- sample-csv and hmc-aniso: the CLI -----------------------------------------

def sample_chains() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def sample_argv(kernel_args: list, chains: int, seed: int, iters: int, out: Path) -> list:
    return ["sample", *kernel_args, "--dim", str(SAMPLE_DIM), "--iters", str(iters),
            "--chains", str(chains), "--workers", str(chains), "--seed", str(seed), "--out", str(out)]


SAMPLE_KERNEL = ["--kernel", "additive-tmcmc", "--target", "iid-gaussian"]
HMC_KERNEL = ["--kernel", "hmc", "--target", "anisotropic-gaussian"]


def run_cli_sample(kernel_args: list, chains: int, seed: int, workdir: Path, iters: int) -> Pass:
    from tmcmc import cli

    out = workdir / "sample"
    shutil.rmtree(out, ignore_errors=True)
    argv = sample_argv(kernel_args, chains, seed, iters, out)
    with contextlib.redirect_stdout(io.StringIO()):
        start = clock()
        code = cli.main(argv)
        wall, stolen = since(start)
    checks = sample_checks(out, code, chains, iters)
    try:
        summary = json.loads((out / "summary.json").read_text())
        chain_walls = [c.pop("wall_time_s") for c in summary["chains"]]
        ess = sum(min(c["ess_per_coordinate"].values()) for c in summary["chains"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        summary, chain_walls, ess = repr(exc), [0.0], 0.0
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}
    output = {"exit": code, "files": files, "summary": summary}
    return Pass(wall, ess, checks, output, chain_wall_s=max(chain_walls), stolen_s=stolen)


def sample_checks(out: Path, code: int, chains: int, iters: int) -> list:
    """Exit code 0; each trace CSV has the documented header; the row count is
    chains x iters; the acceptance rate re-read from each CSV equals the one in
    ``summary.json``."""
    checks = [Check("exit code 0", code == 0, f"exit={code}")]
    header = "iter,accepted,log_density," + ",".join(f"x_{i}" for i in range(SAMPLE_DIM))
    try:
        summary = json.loads((out / "summary.json").read_text())["chains"]
    except (OSError, ValueError, KeyError) as exc:
        summary = []
        checks.append(Check("summary.json readable", False, repr(exc)))
    rows = 0
    for c in range(chains):
        path = out / f"trace_chain{c}.csv"
        try:
            lines = path.read_text().splitlines()
        except OSError as exc:
            checks.append(Check(f"chain {c} trace readable", False, repr(exc)))
            continue
        checks.append(Check(f"chain {c} header", bool(lines) and lines[0] == header, lines[0] if lines else ""))
        body = lines[1:]
        rows += len(body)
        accepted = sum(int(line.split(",", 2)[1]) for line in body)
        reported = summary[c]["accept_rate"] if c < len(summary) else None
        rate = accepted / len(body) if body else math.nan
        checks.append(Check(f"chain {c} accept rate matches summary", rate == reported, f"csv={rate!r} summary={reported!r}"))
    checks.append(Check("row count", rows == chains * iters, f"rows={rows} expected={chains * iters}"))
    return checks


def run_sample_csv(seed: int, workdir: Path, iters: int) -> Pass:
    return run_cli_sample(SAMPLE_KERNEL, sample_chains(), seed, workdir, iters)


def run_hmc_aniso(seed: int, workdir: Path, iters: int) -> Pass:
    return run_cli_sample(HMC_KERNEL, 1, seed, workdir, iters)


def cli_setup(kernel_args: list, construct: str) -> str:
    argv = sample_argv(kernel_args, 1, 0, 1, Path("unused"))
    return f"""
import numpy as np
from tmcmc import cli
args = cli.build_parser().parse_args({argv!r})
{construct}
"""


SAMPLE_SETUP = cli_setup(
    SAMPLE_KERNEL,
    "from tmcmc import TmcmcConfig, make_additive_tmcmc_kernel, make_iid_gaussian\n"
    "make_additive_tmcmc_kernel(make_iid_gaussian(args.dim), TmcmcConfig(scales=args.scale_a, eps_scale=args.eps_scale))",
)
HMC_SETUP = cli_setup(
    HMC_KERNEL,
    "from tmcmc import HmcConfig, make_anisotropic_gaussian, make_hmc_kernel\n"
    "make_hmc_kernel(make_anisotropic_gaussian(np.linspace(1.0, args.condition, args.dim)), "
    "HmcConfig(L=args.hmc_L, dt=args.hmc_dt, mass=args.hmc_mass))",
)


# Why each workload was chosen is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("study-k100", run_study, STUDY_ITERS, STUDY_TIMED_ITERS, STUDY_CHECK_SEEDS, STUDY_SETUP),
        Workload("challenger-k2", run_challenger, CHALLENGER_ITERS, CHALLENGER_TIMED_ITERS, CHALLENGER_CHECK_SEEDS,
                 CHALLENGER_SETUP),
        Workload("sample-csv", run_sample_csv, SAMPLE_ITERS, SAMPLE_TIMED_ITERS, SAMPLE_CHECK_SEEDS, SAMPLE_SETUP),
        Workload("hmc-aniso", run_hmc_aniso, HMC_ITERS, HMC_TIMED_ITERS, HMC_CHECK_SEEDS, HMC_SETUP),
    )
}
