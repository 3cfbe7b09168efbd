"""Dimension-scaling study: acceptance rate vs proposal scale for two kernels.

For every (kernel, dimension, scale multiplier, seed) cell the engine runs a
chain with proposal scale ``ell / sqrt(k)``, records the acceptance rate and
the ESS per iteration averaged over up to ``ESS_COORD_BLOCK`` coordinates, and
then locates the efficiency-maximizing multiplier per (kernel, dimension).

Within a (kernel, dimension, seed) triple every ``ell`` cell reuses the same
generator stream (common random numbers), so efficiency comparisons across
neighboring scales share their noise.  The per-scale ESS profile is still a
noisy function of ``ell``; the reported optimum is the vertex of a quadratic
fitted to the log-ESS profile near its peak (the raw argmax cell is reported
alongside), with the acceptance rate interpolated at that vertex.

Both study kernels consume their stream the same way whatever the scale and
whatever was accepted, so the cells of one dimension run in lockstep
through ``chain.run_lockstep``, in the groups ``study_groups`` cuts its
(seed, kernel) streams into.  Each stream draws in blocks of
``b = min(256, steps left)`` steps: the kernel's own ``direction`` for the
block (additive: ``b * k`` sign uniforms, then ``b`` values ``|N(0, 1)|``;
rwmh: ``b * k`` standard normals), then ``b`` acceptance uniforms.  So every
cell is the same however the streams are grouped, and equals a single-chain
``run_chain`` of the kernel at the cell's scale on the same stream, which
draws in the same blocks (``tests/test_scaling.py`` checks each).  A cell's
``wall_ms`` is its group's loop time divided by the group's (stream, ell)
chains, so the cells of a group that holds both kernels show the same
``wall_ms``.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .baseline_kernels import make_rwmh_kernel
from .chain import _check_count, _check_positive, lockstep_path, map_tasks, pool_workers, run_chain, run_lockstep
from .diagnostics import MIN_SAMPLES, acceptance_rate, ess_block_rows, expected_acceptance_rate, iact_and_ess_rows
from .targets import make_iid_gaussian
from .transform_kernels import TmcmcConfig, make_additive_tmcmc_kernel

__all__ = [
    "STUDY_KERNELS",
    "ScalingStudySpec",
    "CellResult",
    "OptimalRow",
    "StudyReport",
    "study_groups",
    "run_scaling_study",
    "write_study_csv",
    "write_aggregate_csv",
    "fixed_scale_ar_curve",
]

STUDY_KERNELS = ("additive-tmcmc", "rwmh")
_KERNEL_IDS = {name: i for i, name in enumerate(STUDY_KERNELS)}


@dataclass(frozen=True)
class ScalingStudySpec:
    """Grid description for the study."""

    dims: tuple = (10, 30, 100)
    ell_grid: tuple = (1.6, 1.9, 2.2, 2.5, 2.8, 3.1, 3.4)
    n_iter: int = 200_000
    burn_in: int = 10_000
    target_family: str = "iid-gaussian"
    seeds: tuple = (1, 2, 3, 4)
    kernels: tuple = STUDY_KERNELS

    def __post_init__(self):
        if not self.dims or not self.ell_grid or not self.seeds:
            raise ValueError("dims, ell_grid, and seeds must be nonempty")
        for name in ("dims", "ell_grid", "seeds", "kernels"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat a value, got {values}")
        for k in self.dims:
            _check_count("dims", k, 1)
        _check_positive("ell_grid", self.ell_grid)
        _check_count("n_iter", self.n_iter, 1)
        _check_count("burn_in", self.burn_in, 0)
        for seed in self.seeds:
            _check_count("seeds", seed, 0)
        if not 0 <= self.burn_in < self.n_iter:
            raise ValueError("need 0 <= burn_in < n_iter")
        if self.n_iter - self.burn_in < MIN_SAMPLES:
            raise ValueError(f"need n_iter - burn_in >= {MIN_SAMPLES} for the ESS, got {self.n_iter - self.burn_in}")
        if self.target_family != "iid-gaussian":
            raise ValueError(f"unknown target_family {self.target_family!r}")
        unknown = set(self.kernels) - set(STUDY_KERNELS)
        if unknown:
            raise ValueError(f"unknown kernels {sorted(unknown)}")


@dataclass(frozen=True)
class CellResult:
    kernel: str
    k: int
    ell: float
    seed: int
    accept_rate: float
    ess_per_iter: float
    wall_ms: float


@dataclass(frozen=True)
class OptimalRow:
    """Per-(kernel, k) optimum: fitted vertex plus the raw argmax cell."""

    kernel: str
    k: int
    ell_star: float
    accept_rate: float
    accept_se: float
    ess_per_iter: float
    ell_argmax: float
    accept_rate_argmax: float


@dataclass
class StudyReport:
    spec: ScalingStudySpec
    rows: list
    optima: list
    partial: bool = False

    def summary_dict(self) -> dict:
        return {
            "spec": asdict(self.spec),
            "partial": self.partial,
            "optima": [asdict(o) for o in self.optima],
        }

    def write_summary_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _cell_rng(seed: int, kernel: str, k: int) -> np.random.Generator:
    # One stream per (kernel, k, seed), shared across the ell grid.
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_KERNEL_IDS[kernel], k)))


def _study_kernel(name: str, target, scale: float):
    if name == "additive-tmcmc":
        return make_additive_tmcmc_kernel(target, TmcmcConfig(eps_scale=scale))
    return make_rwmh_kernel(target, scale)


ESS_COORD_BLOCK = 16
GROUP_STREAMS = 4  # a group holds at most this many streams; its record grows with them


def study_groups(spec: ScalingStudySpec, n_workers: Optional[int] = None) -> list:
    """The ``(k, streams)`` groups of the study, dimension by dimension.

    A dimension's streams are its ``(seed, kernel)`` pairs, kernel-major, the
    additive ones first as ``run_lockstep`` needs.  They are cut into
    ``max(n_workers, ceil(streams / GROUP_STREAMS))`` contiguous runs of
    near-equal length (``n_workers`` None: the cpu count), at most one a
    stream.  So every dimension alone, the costliest one too, can keep all
    the workers busy, and no group holds more than ``GROUP_STREAMS``
    streams.
    """
    kernels = sorted(spec.kernels, key=STUDY_KERNELS.index)
    streams = [(seed, kernel) for kernel in kernels for seed in spec.seeds]
    n_runs = min(len(streams), max(pool_workers(n_workers), -(-len(streams) // GROUP_STREAMS)))
    cuts = [i * len(streams) // n_runs for i in range(n_runs + 1)]
    return [(k, tuple(streams[lo:hi])) for k in spec.dims for lo, hi in zip(cuts, cuts[1:])]


def run_study_group(group: tuple, spec: ScalingStudySpec) -> list:
    """Run every (ell, stream) cell of one ``(k, streams)`` group, in that order.

    The efficiency metric is the per-iteration ESS averaged over a block of
    coordinates (all of them for small k).  The study targets are exchangeable
    across coordinates, so this estimates the same quantity as a single
    coordinate with several times less estimator noise, which is what makes
    the optimum localizable at the per-cell run lengths used here.
    """
    k, streams = group
    target = make_iid_gaussian(k)  # the one target_family the spec admits
    scales = [ell / np.sqrt(k) for ell in spec.ell_grid]
    kernels = [_study_kernel(kernel, target, 1.0) for _, kernel in streams]  # run at each chain's scale
    rngs = [_cell_rng(seed, kernel, k) for seed, kernel in streams]
    x0 = np.array([rng.standard_normal(k) for rng in rngs])
    n_coords = min(ESS_COORD_BLOCK, k)
    t0 = time.perf_counter()
    run = run_lockstep(kernels, target.log_density, x0, scales, spec.n_iter, rngs, n_coords)
    wall_ms = 1e3 * (time.perf_counter() - t0) / run.accepted.shape[1]
    n_kept = spec.n_iter - spec.burn_in
    block = ess_block_rows(n_kept)
    rows = []
    for c, ell in enumerate(spec.ell_grid):
        for g, (seed, kernel) in enumerate(streams):
            chain = g * len(scales) + c
            # one ESS block of coordinates at a time, so no (n, n_coords) path is held
            ess = np.concatenate([
                iact_and_ess_rows(lockstep_path(run, chain, slice(lo, lo + block))[spec.burn_in:].T)[1]
                for lo in range(0, n_coords, block)
            ])
            accept_rate = acceptance_rate(run.accepted[spec.burn_in:, chain])
            ess_per_iter = float(np.mean(ess)) / n_kept
            rows.append(CellResult(kernel, k, float(ell), int(seed), accept_rate, ess_per_iter, wall_ms))
    return rows


def _fit_optimum(ells: np.ndarray, mean_ess: np.ndarray, mean_ar: np.ndarray, ar_se: np.ndarray):
    """Vertex of a quadratic in log(ell) fitted to log mean ESS near the peak."""
    order = np.argsort(ells)
    ells, mean_ess, mean_ar, ar_se = (a[order] for a in (ells, mean_ess, mean_ar, ar_se))
    i_max = int(np.argmax(mean_ess))
    keep = mean_ess >= 0.8 * mean_ess[i_max]
    log_ell_star = np.log(ells[i_max])
    if keep.sum() >= 3:
        le = np.log(ells[keep])
        coef = np.polyfit(le, np.log(mean_ess[keep]), 2)
        if coef[0] < 0.0:
            vertex = -coef[1] / (2.0 * coef[0])
            log_ell_star = float(np.clip(vertex, le.min(), le.max()))
    ell_star = float(np.exp(log_ell_star))
    ar_star = float(np.interp(log_ell_star, np.log(ells), mean_ar))
    se_star = float(np.interp(log_ell_star, np.log(ells), ar_se))
    ess_star = float(np.interp(log_ell_star, np.log(ells), mean_ess))
    return ell_star, ar_star, se_star, ess_star, float(ells[i_max]), float(mean_ar[i_max])


def run_scaling_study(spec: ScalingStudySpec, n_workers: Optional[int] = None) -> StudyReport:
    """Execute the full grid and derive the per-(kernel, k) optima.

    The ``study_groups`` are independent; ``map_tasks`` runs them on up to
    ``n_workers`` workers, this process one of them, and their rows are put
    back in grid order (kernel, k, ell, seed), so the report is identical
    however many workers ran.  If a group fails, its task raising or its
    worker dying before it finished, the raised ``RuntimeError`` carries
    ``partial_report``: the rows of the groups before it, in grid order.
    """

    def grid_order(r: CellResult) -> tuple:
        return (spec.kernels.index(r.kernel), spec.dims.index(r.k), spec.ell_grid.index(r.ell),
                spec.seeds.index(r.seed))

    groups = study_groups(spec, n_workers)
    rows: list = []
    try:
        for cells in map_tasks(partial(run_study_group, spec=spec), groups, n_workers):
            rows += cells
    except Exception as exc:
        err = RuntimeError(f"scaling-study group failed: {exc}")
        err.partial_report = StudyReport(spec, sorted(rows, key=grid_order), [], partial=True)
        raise err from exc
    rows.sort(key=grid_order)

    optima = []
    for kernel in spec.kernels:
        for k in spec.dims:
            sub = [r for r in rows if r.kernel == kernel and r.k == k]
            ells = np.array(sorted({r.ell for r in sub}))
            mean_ess = np.array([np.mean([r.ess_per_iter for r in sub if r.ell == e]) for e in ells])
            ars = [[r.accept_rate for r in sub if r.ell == e] for e in ells]
            mean_ar = np.array([np.mean(a) for a in ars])
            ar_se = np.array([np.std(a, ddof=1) / np.sqrt(len(a)) if len(a) > 1 else 0.0 for a in ars])
            ell_star, ar_star, se_star, ess_star, ell_raw, ar_raw = _fit_optimum(
                ells, mean_ess, mean_ar, ar_se
            )
            optima.append(
                OptimalRow(kernel, k, ell_star, ar_star, se_star, ess_star, ell_raw, ar_raw)
            )
    return StudyReport(spec, rows, optima)


def write_study_csv(rows: Sequence[CellResult], path) -> None:
    """Long-format grid CSV: ``kernel,k,ell,seed,accept_rate,ess_per_iter,wall_ms``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kernel", "k", "ell", "seed", "accept_rate", "ess_per_iter", "wall_ms"])
        for r in rows:
            writer.writerow(
                [r.kernel, r.k, repr(r.ell), r.seed, repr(r.accept_rate), repr(r.ess_per_iter), repr(r.wall_ms)]
            )


def write_aggregate_csv(rows: Sequence[CellResult], path) -> None:
    """Seed-averaged long-format data, one row per (kernel, k, ell)."""
    keys = sorted({(r.kernel, r.k, r.ell) for r in rows})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kernel", "k", "ell", "mean_accept_rate", "mean_ess_per_iter", "n_seeds"])
        for kernel, k, ell in keys:
            sub = [r for r in rows if (r.kernel, r.k, r.ell) == (kernel, k, ell)]
            writer.writerow(
                [
                    kernel,
                    k,
                    repr(ell),
                    repr(float(np.mean([r.accept_rate for r in sub]))),
                    repr(float(np.mean([r.ess_per_iter for r in sub]))),
                    len(sub),
                ]
            )


def fixed_scale_ar_curve(
    dims: Sequence[int],
    n_iter: int,
    seed: int,
    scale: float = 1.0,
    burn_in: int = 0,
) -> dict:
    """Measured acceptance-vs-dimension curves at a fixed proposal scale.

    No ``1/sqrt(k)`` shrinkage: this is the regime where the random-walk
    acceptance collapses exponentially in ``k`` while the single-innovation
    kernel decays only polynomially.  Uses the mean-acceptance-probability
    estimator so the log-scale comparison stays finite even when no proposal
    was accepted during the run.
    """
    curves = {name: [] for name in STUDY_KERNELS}
    for kernel_name in STUDY_KERNELS:
        for k in dims:
            target = make_iid_gaussian(k)
            rng = _cell_rng(seed, kernel_name, k)
            x0 = rng.standard_normal(k)
            trace = run_chain(_study_kernel(kernel_name, target, scale), x0, n_iter, rng, record_coords=[0])
            if burn_in:
                trace = trace.tail(burn_in)
            curves[kernel_name].append(expected_acceptance_rate(trace))
    return {name: np.array(vals) for name, vals in curves.items()}
