"""Dimension-scaling study: acceptance rate vs proposal scale for two kernels.

For every (kernel, dimension, scale multiplier, seed) cell the engine runs a
chain with proposal scale ``ell / sqrt(k)``, records the acceptance rate and
the first-coordinate ESS per iteration, and then locates the
efficiency-maximizing multiplier per (kernel, dimension).

Within a (kernel, dimension, seed) slice every ``ell`` cell reuses the same
generator stream (common random numbers), so efficiency comparisons across
neighboring scales share their noise.  The per-scale ESS profile is still a
noisy function of ``ell``; the reported optimum is the vertex of a quadratic
fitted to the log-ESS profile near its peak (the raw argmax cell is reported
alongside), with the acceptance rate interpolated at that vertex.

Both study kernels consume their stream the same way whatever the scale and
whatever was accepted: per step a direction ``d`` (additive: ``k`` sign
uniforms, then one ``|N(0, 1)|``; rwmh: ``k`` standard normals), then one
acceptance uniform.  The cells of a slice therefore run in lockstep: each
step draws ``d`` once, proposes ``x_c + (ell_c / sqrt(k)) d`` for every cell
``c`` and evaluates all proposals in one batched log-density call.  The
stream layout is the one a single-chain ``run_chain`` of the same kernel
uses, and every cell is bit-identical to that chain (``tests/test_scaling.py``
checks this).  A cell's ``wall_ms`` is its slice's loop time divided by the
number of cells in the slice.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .baseline_kernels import make_rwmh_kernel
from .chain import accept_batch, run_chain
from .diagnostics import acceptance_rate, expected_acceptance_rate, iact_and_ess
from .targets import Target, make_iid_gaussian
from .transform_kernels import TmcmcConfig, make_additive_tmcmc_kernel

__all__ = [
    "STUDY_KERNELS",
    "ScalingStudySpec",
    "CellResult",
    "OptimalRow",
    "StudyReport",
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
        if any(k < 1 for k in self.dims):
            raise ValueError("dims must be positive integers")
        if any(e <= 0 for e in self.ell_grid):
            raise ValueError("ell_grid entries must be positive")
        if not 0 <= self.burn_in < self.n_iter:
            raise ValueError("need 0 <= burn_in < n_iter")
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


def _make_target(family: str, k: int) -> Target:
    if family == "iid-gaussian":
        return make_iid_gaussian(k)
    raise ValueError(f"unknown target_family {family!r}")


def _cell_rng(seed: int, kernel: str, k: int) -> np.random.Generator:
    # One stream per (kernel, k, seed) slice, shared across the ell grid.
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_KERNEL_IDS[kernel], k)))


ESS_COORD_BLOCK = 16


def _lockstep(
    kernel_name: str,
    target: Target,
    scales: Sequence[float],
    x0: np.ndarray,
    n_iter: int,
    rng: np.random.Generator,
    n_coords: int,
):
    """Advance one chain per proposal scale from ``x0`` on a shared stream.

    Returns the ``(n_iter, C)`` accept flags, the ``(n_iter, n_coords)``
    leading coordinates of each step's shared direction and the ``(C,)``
    counts of non-finite proposals.  Every step decides all cells through
    ``accept_batch`` with the step's one acceptance uniform.
    """
    k, n_cells = x0.size, len(scales)
    scales = np.asarray(scales, dtype=float)[:, None]
    x = np.tile(x0, (n_cells, 1))
    y = np.empty_like(x)
    lp_x = np.full(n_cells, target.log_density(x0))
    accepted = np.empty((n_iter, n_cells), dtype=bool)
    directions = np.empty((n_iter, n_coords))
    n_nonfinite = np.zeros(n_cells, dtype=int)
    additive = kernel_name == "additive-tmcmc"
    log_density = target.log_density
    with np.errstate(invalid="ignore"):  # inf - inf: replaced by accept_batch's rule
        for i in range(n_iter):
            if additive:
                signs = rng.random(k) < 0.5
                r = abs(float(rng.standard_normal()))
                d = np.where(signs, r, -r)
            else:
                d = rng.standard_normal(k)
            np.multiply(scales, d, out=y)
            y += x
            lp_y = log_density(y)
            u = float(rng.random())
            accepted[i] = accept_batch(x, lp_x, y, lp_y, math.log(u) if u > 0.0 else -math.inf, n_nonfinite)
            directions[i] = d[:n_coords]
    return accepted, directions, n_nonfinite


def _cell_path(x0_head: np.ndarray, directions: np.ndarray, accepted: np.ndarray, scale: float) -> np.ndarray:
    """One cell's recorded coordinates after each step, rebuilt from the shared record.

    ``directions`` holds one row per step (all recorded coordinates, or one
    column of them).  The running sum adds ``scale * d`` on accepted steps
    and ``0`` otherwise, in step order: the same floating-point additions the
    chain made.
    """
    path = np.empty((directions.shape[0] + 1,) + directions.shape[1:])
    path[0] = x0_head
    np.multiply(scale, directions, out=path[1:])
    path[1:][~accepted] = 0.0
    return np.cumsum(path, axis=0, out=path)[1:]


def run_study_slice(kernel_name: str, k: int, seed: int, spec: ScalingStudySpec) -> list:
    """Run the cells of one (kernel, k, seed) slice, one per ``spec.ell_grid`` entry.

    The efficiency metric is the per-iteration ESS averaged over a block of
    coordinates (all of them for small k).  The study targets are exchangeable
    across coordinates, so this estimates the same quantity as a single
    coordinate with several times less estimator noise, which is what makes
    the optimum localizable at the per-cell run lengths used here.
    """
    target = _make_target(spec.target_family, k)
    scales = [ell / np.sqrt(k) for ell in spec.ell_grid]
    rng = _cell_rng(seed, kernel_name, k)
    x0 = rng.standard_normal(k)
    n_coords = min(ESS_COORD_BLOCK, k)
    t0 = time.perf_counter()
    accepted, directions, _ = _lockstep(kernel_name, target, scales, x0, spec.n_iter, rng, n_coords)
    wall_ms = 1e3 * (time.perf_counter() - t0) / len(scales)
    n_kept = spec.n_iter - spec.burn_in
    rows = []
    for c, (ell, scale) in enumerate(zip(spec.ell_grid, scales)):
        flags = accepted[:, c]
        ess = []
        for j in range(n_coords):  # one coordinate at a time, so no (n, n_coords) path is held
            tail = _cell_path(x0[j], directions[:, j], flags, scale)[spec.burn_in:]
            ess.append(iact_and_ess(tail)[1])
        rows.append(
            CellResult(
                kernel=kernel_name,
                k=k,
                ell=float(ell),
                seed=int(seed),
                accept_rate=acceptance_rate(flags[spec.burn_in:]),
                ess_per_iter=float(np.mean(ess)) / n_kept,
                wall_ms=wall_ms,
            )
        )
    return rows


def run_study_cell(kernel_name: str, k: int, ell: float, seed: int, spec: ScalingStudySpec) -> CellResult:
    """Run one grid cell; deterministic given its arguments (a one-cell slice)."""
    return run_study_slice(kernel_name, k, seed, replace(spec, ell_grid=(ell,)))[0]


def _grid_rows(spec: ScalingStudySpec, done: dict) -> list:
    """Rows of the finished slices in grid order (kernel, k, ell, seed)."""
    return [
        done[kernel, k, seed][c]
        for kernel in spec.kernels
        for k in spec.dims
        for c in range(len(spec.ell_grid))
        for seed in spec.seeds
        if (kernel, k, seed) in done
    ]


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

    Slices are independent; they are distributed over a process pool and
    reduced in grid order (kernel, k, ell, seed), so the report is identical
    however many workers ran.  If a slice fails, the raised ``RuntimeError``
    carries ``partial_report``: the rows of the slices finished before it.
    """
    slices = [(kernel, k, seed) for kernel in spec.kernels for k in spec.dims for seed in spec.seeds]
    workers = min(n_workers if n_workers is not None else (os.cpu_count() or 1), len(slices))
    done: dict = {}
    try:
        if workers <= 1:
            for key in slices:
                done[key] = run_study_slice(*key, spec)
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                kernels, dims, seeds = zip(*slices)
                results = pool.map(run_study_slice, kernels, dims, seeds, [spec] * len(slices), chunksize=1)
                for key, cells in zip(slices, results):
                    done[key] = cells
    except Exception as exc:
        err = RuntimeError(f"scaling-study slice failed: {exc}")
        err.partial_report = StudyReport(spec, _grid_rows(spec, done), [], partial=True)
        raise err from exc
    rows = _grid_rows(spec, done)

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
            target = _make_target("iid-gaussian", k)
            rng = _cell_rng(seed, kernel_name, k)
            x0 = rng.standard_normal(k)
            if kernel_name == "additive-tmcmc":
                kernel = make_additive_tmcmc_kernel(target, TmcmcConfig(eps_scale=scale))
            else:
                kernel = make_rwmh_kernel(target, scale)
            trace = run_chain(kernel, x0, n_iter, rng, record_coords=[0])
            if burn_in:
                trace = trace.tail(burn_in)
            curves[kernel_name].append(expected_acceptance_rate(trace))
    return {name: np.array(vals) for name, vals in curves.items()}
