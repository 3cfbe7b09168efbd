"""Command-line front end: run chains, studies, benchmarks, and verifications.

Subcommands
-----------
- ``sample``         run one kernel on one target, write trace CSVs + summary
- ``scaling-study``  acceptance/ESS grid over (kernel, dimension, scale)
- ``db-check``       balance and structure verification suites
- ``discrete-check`` exact discrete-kernel certificates
- ``challenger``     cross-kernel benchmark on the O-ring posterior

Configuration precedence: command-line flags override the JSON config file
given by ``--config`` (keys are flag names with dashes as underscores; a key
that is no subcommand's flag is an error), which overrides built-in defaults.
Every run is deterministic given ``--seed`` except for wall-clock fields,
which are reported but excluded from the byte-reproducibility contract.  ``TMCMC_OUTPUT_DIR`` sets the default output
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .baseline_kernels import HmcConfig, make_hmc_kernel, make_rwmh_kernel
from .benchmark import ChallengerConfig, run_challenger_benchmark
from .chain import chain_rng, map_tasks, run_chain
from .discrete_kernels import make_ising_kernel, make_zk_kernel
from .scaling import ScalingStudySpec, run_scaling_study, write_aggregate_csv, write_study_csv
from .targets import (
    Target,
    make_anisotropic_gaussian,
    make_challenger_logistic,
    make_iid_gaussian,
    make_ising_chain,
    make_lattice_target,
)
from .transform_kernels import (
    DependentZConfig,
    TmcmcConfig,
    make_additive_tmcmc_kernel,
    make_dependent_z_kernel,
)
from .verify import (
    format_verdict_table,
    run_continuous_db_suite,
    run_discrete_suite,
    run_structure_suite,
    suite_ok,
    verdicts_to_json,
)

# kernel -> the target support kind it samples; its keys are the --kernel choices
KERNEL_SUPPORT = {
    "additive-tmcmc": "continuous",
    "dependent-z-tmcmc": "continuous",
    "rwmh": "continuous",
    "hmc": "continuous",
    "ising-tmcmc": "binary_spins",
    "zk-tmcmc": "integer_lattice",
}

TARGET_CHOICES = ("iid-gaussian", "anisotropic-gaussian", "challenger", "ising", "lattice")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite real, got {value}")
    return value


def _unit_interval(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {value}")
    return value


def _int_list(text: str) -> list[int]:
    return [_positive_int(tok) for tok in text.split(",") if tok]


def _float_list(text: str) -> list[float]:
    return [_positive_float(tok) for tok in text.split(",") if tok]


def _out_dir(args) -> Path:
    root = args.out or os.environ.get("TMCMC_OUTPUT_DIR") or "tmcmc_output"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _build_target(args) -> Target:
    if args.target == "iid-gaussian":
        return make_iid_gaussian(args.dim)
    if args.target == "anisotropic-gaussian":
        lam = np.linspace(1.0, args.condition, args.dim)
        return make_anisotropic_gaussian(lam)
    if args.target == "challenger":
        return make_challenger_logistic(args.prior_sd, center=args.center)
    if args.target == "ising":
        return make_ising_chain(args.dim, args.coupling)
    if args.target == "lattice":
        return make_lattice_target(args.dim, args.rate)
    raise argparse.ArgumentTypeError(f"unknown target {args.target!r}")


def _build_kernel(args, target: Target):
    if args.kernel == "additive-tmcmc":
        return make_additive_tmcmc_kernel(target, TmcmcConfig(scales=args.scale_a, eps_scale=args.eps_scale))
    if args.kernel == "dependent-z-tmcmc":
        k = target.dim
        cfg = DependentZConfig(
            mu_1=np.zeros(k), mu_2=np.zeros(k), mu_3=np.zeros(k),
            sigma_1=np.ones(k), sigma_2=np.ones(k), sigma_3=np.ones(k),
            eps_scale=args.eps_scale, scales=args.scale_a,
        )
        return make_dependent_z_kernel(target, cfg)
    if args.kernel == "rwmh":
        return make_rwmh_kernel(target, args.sigma)
    if args.kernel == "hmc":
        return make_hmc_kernel(target, HmcConfig(L=args.hmc_L, dt=args.hmc_dt, mass=args.hmc_mass))
    if args.kernel == "ising-tmcmc":
        return make_ising_kernel(target, args.p_forward)
    if args.kernel == "zk-tmcmc":
        return make_zk_kernel(target, args.r, args.jump_scale)
    raise argparse.ArgumentTypeError(f"unknown kernel {args.kernel!r}")


def _initial_state(args, target: Target, rng: np.random.Generator) -> np.ndarray:
    if target.support_kind == "binary_spins":
        return np.where(rng.random(target.dim) < 0.5, 1.0, -1.0)
    if target.support_kind == "integer_lattice":
        return np.zeros(target.dim)
    return rng.standard_normal(target.dim)


def _sample_one_chain(payload) -> dict:
    """Run chain ``c``, write its trace CSV under ``out`` and return its summary.

    ``map_tasks`` runs this whole task in one worker, so the CSV writer
    (float ``repr`` bound) runs in parallel too and no ``Trace`` crosses
    processes.
    """
    args, c, out = payload
    target = _build_target(args)
    kernel = _build_kernel(args, target)
    rng = chain_rng(args.seed, c)
    x0 = _initial_state(args, target, rng)
    config_echo = {k: v for k, v in vars(args).items() if k not in ("func", "out", "config")}
    trace = run_chain(
        kernel, x0, args.iters, rng, meta={"seed": args.seed, "chain": c, "config": config_echo}
    )
    if args.burn_in:
        trace = trace.tail(args.burn_in)
    trace.write_csv(out / f"trace_chain{c}.csv")
    return trace.summary()


def cmd_sample(args) -> int:
    """Run ``--chains`` chains on ``--workers`` workers and write their CSVs and ``summary.json``.

    This process is worker 0 of ``W = min(pool_workers(args.workers), args.chains)``: it runs chains
    ``0, W, 2W, ...`` itself while ``W - 1`` child processes run the rest.
    """
    target = _build_target(args)
    needed = KERNEL_SUPPORT[args.kernel]
    if target.support_kind != needed:
        raise ValueError(
            f"kernel {args.kernel} needs a {needed} target, but --target {args.target} "
            f"is {target.support_kind}"
        )
    out = _out_dir(args)
    summaries = list(map_tasks(_sample_one_chain, [(args, c, out) for c in range(args.chains)], args.workers))
    payload = {"chains": summaries, "kernel": args.kernel, "target": target.name, "seed": args.seed}
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.chains} trace file(s) and summary.json under {out}")
    return 0


def cmd_scaling_study(args) -> int:
    spec = ScalingStudySpec(
        dims=tuple(args.dims),
        ell_grid=tuple(args.ell_grid),
        n_iter=args.iters,
        burn_in=args.burn_in,
        seeds=tuple(range(args.seed, args.seed + args.n_seeds)),
    )
    error = None
    try:
        report = run_scaling_study(spec, n_workers=args.workers)
    except RuntimeError as exc:  # a failed group: keep the groups finished before it
        report, error = exc.partial_report, exc
    out = _out_dir(args)
    write_study_csv(report.rows, out / "study_grid.csv")
    write_aggregate_csv(report.rows, out / "study_aggregate.csv")
    report.write_summary_json(out / "study_summary.json")
    for row in report.optima:
        print(
            f"{row.kernel:16s} k={row.k:<4d} ell*={row.ell_star:5.2f} "
            f"accept={row.accept_rate:.3f} +- {row.accept_se:.3f}"
        )
    print(f"wrote study_grid.csv, study_aggregate.csv, study_summary.json under {out}")
    if error is not None:
        print(f"tmcmc scaling-study: error: {error}; partial results kept", file=sys.stderr)
        return 1
    return 0


def _report_verdicts(verdicts: list, path: Path) -> int:
    """Write ``verdicts`` to ``path``, print their table and the suite line; 0 if the suite is ok, else 1."""
    verdicts_to_json(verdicts, path)
    print(format_verdict_table(verdicts))
    ok = suite_ok(verdicts)
    print(f"suite {'ok' if ok else 'FAILED'}; verdicts written to {path}")
    return 0 if ok else 1


def cmd_db_check(args) -> int:
    verdicts = []
    if args.suite in ("continuous", "all"):
        verdicts += run_continuous_db_suite(args.seed, corrupt_acceptance=args.corrupt_acceptance)
    if args.suite in ("structure", "all"):
        verdicts += run_structure_suite(args.seed)
    return _report_verdicts(verdicts, _out_dir(args) / "db_check_verdicts.json")


def cmd_discrete_check(args) -> int:
    verdicts = run_discrete_suite(
        args.seed,
        lattice_r=args.r,
        jump_scale=args.jump_scale,
        corrupt_acceptance=args.corrupt_acceptance,
    )
    out = _out_dir(args)
    if args.export_matrices:
        from .discrete_kernels import ising_transition_matrix, lattice_transition_matrix, write_matrix_csv

        spin_states, spin_K = ising_transition_matrix(make_ising_chain(3, 0.5), 0.5)
        write_matrix_csv(spin_states, spin_K, out / "ising_k3_kernel.csv")
        lat_states, lat_K = lattice_transition_matrix(
            make_lattice_target(1, 1.0), r=args.r, jump_scale=args.jump_scale, box_radius=5
        )
        write_matrix_csv(lat_states, lat_K, out / "lattice_k1_kernel.csv")
    return _report_verdicts(verdicts, out / "discrete_check_verdicts.json")


def cmd_challenger(args) -> int:
    cfg = ChallengerConfig(
        n_iter=args.iters,
        n_chains=args.chains,
        seed=args.seed,
        prior_sd=args.prior_sd,
        center=args.center,
        rwmh_sigma=args.sigma,
        tmcmc_eps_scale=args.eps_scale,
    )
    report = run_challenger_benchmark(cfg, n_workers=args.workers)
    out = _out_dir(args)
    with open(out / "challenger_report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, k in report["kernels"].items():
        print(
            f"{name:16s} accept={k['accept_rate']:.3f} "
            f"beta0={k['mean']['beta0']:.3f}+-{k['sd']['beta0']:.3f} "
            f"beta1={k['mean']['beta1']:.4f}+-{k['sd']['beta1']:.4f} "
            f"rhat_max={max(k['rhat'].values()):.4f}"
        )
    print(
        f"agreement={report['agreement']} beta1_negative={report['beta1_negative']} "
        f"converged={report['converged']} -> {'ok' if report['ok'] else 'DISAGREEMENT'}"
    )
    print(f"report written to {out / 'challenger_report.json'}")
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmcmc",
        description="Transformation-based MCMC sampler library and experiment harness",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=_nonneg_int, default=0, help="run seed (nonnegative integer)")
        p.add_argument("--out", default=None, help="output directory (default: $TMCMC_OUTPUT_DIR or ./tmcmc_output)")
        p.add_argument("--config", default=None, help="JSON config file; flags override its values")

    p = sub.add_parser("sample", help="run chains of one kernel on one target")
    p.add_argument("--kernel", choices=tuple(KERNEL_SUPPORT), default="additive-tmcmc")
    p.add_argument("--target", choices=TARGET_CHOICES, default="iid-gaussian")
    p.add_argument("--dim", type=_positive_int, default=10, help="state dimension (positive integer)")
    p.add_argument("--iters", type=_positive_int, default=50_000, help="iterations per chain (positive integer)")
    p.add_argument("--burn-in", type=_nonneg_int, default=0, help="iterations dropped from outputs (>= 0, < iters)")
    p.add_argument("--chains", type=_positive_int, default=1, help="number of chains (positive integer)")
    p.add_argument("--eps-scale", type=_positive_float, default=1.0, help="innovation scale s > 0 (tmcmc kernels)")
    p.add_argument("--scale-a", type=_positive_float, default=1.0, help="per-coordinate move scale a > 0")
    p.add_argument("--sigma", type=_positive_float, default=1.0, help="random-walk proposal scale > 0")
    p.add_argument("--hmc-L", type=_positive_int, default=10, help="leapfrog steps per trajectory (>= 1)")
    p.add_argument("--hmc-dt", type=_positive_float, default=0.1, help="leapfrog step size > 0")
    p.add_argument("--hmc-mass", type=_positive_float, default=1.0, help="diagonal mass > 0")
    p.add_argument("--p-forward", type=_unit_interval, default=0.5, help="spin forward probability in (0,1)")
    p.add_argument("--r", type=_unit_interval, default=0.3, help="lattice coordinate-move probability in [0,1]")
    p.add_argument("--jump-scale", type=_positive_float, default=1.5, help="lattice jump scale > 0")
    p.add_argument("--coupling", type=float, default=0.5, help="spin-chain coupling (any real)")
    p.add_argument("--rate", type=_positive_float, default=1.0, help="lattice tail rate > 0")
    p.add_argument("--condition", type=_positive_float, default=10.0,
                   help="anisotropic-gaussian precisions run evenly from 1 to this value (> 0)")
    p.add_argument("--prior-sd", type=_positive_float, default=10.0, help="logistic prior sd > 0")
    p.add_argument("--center", action=argparse.BooleanOptionalAction, default=False,
                   help="sample the logistic posterior in centered-covariate coordinates")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="worker processes for multi-chain runs (default: cpu count)")
    add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("scaling-study", help="acceptance-rate scaling study over dimensions")
    p.add_argument("--dims", type=_int_list, default=[10, 30, 100], help="comma-separated dimensions (positive)")
    p.add_argument("--ell-grid", type=_float_list, default=[1.6, 1.9, 2.2, 2.5, 2.8, 3.1, 3.4],
                   help="comma-separated scale multipliers (positive); proposal scale is ell/sqrt(k)")
    p.add_argument("--iters", type=_positive_int, default=200_000, help="iterations per cell (positive integer)")
    p.add_argument("--burn-in", type=_nonneg_int, default=10_000, help="burn-in per cell (>= 0, < iters)")
    p.add_argument("--n-seeds", type=_positive_int, default=4, help="replicate seeds per cell (positive integer)")
    p.add_argument("--workers", type=_positive_int, default=None, help="worker processes (default: cpu count)")
    add_common(p)
    p.set_defaults(func=cmd_scaling_study)

    p = sub.add_parser("db-check", help="balance/structure verification suites")
    p.add_argument("--suite", choices=("continuous", "structure", "all"), default="all")
    p.add_argument("--corrupt-acceptance", action="store_true",
                   help="debug: drop the move-ratio term (suite must fail)")
    add_common(p)
    p.set_defaults(func=cmd_db_check)

    p = sub.add_parser("discrete-check", help="exact discrete-kernel certificates")
    p.add_argument("--r", type=_unit_interval, default=0.3, help="lattice coordinate-move probability in [0,1]")
    p.add_argument("--jump-scale", type=_positive_float, default=1.5, help="lattice jump scale > 0")
    p.add_argument("--corrupt-acceptance", action="store_true",
                   help="debug: perturb the kernel matrices (suite must fail)")
    p.add_argument("--export-matrices", action="store_true",
                   help="write the exact kernel matrices as dense CSV")
    add_common(p)
    p.set_defaults(func=cmd_discrete_check)

    p = sub.add_parser("challenger", help="cross-kernel benchmark on the O-ring posterior")
    p.add_argument("--iters", type=_positive_int, default=200_000, help="iterations per chain (positive integer)")
    p.add_argument("--chains", type=_positive_int, default=4, help="chains per kernel (>= 2)")
    p.add_argument("--prior-sd", type=_positive_float, default=10.0, help="prior sd > 0")
    p.add_argument("--center", action=argparse.BooleanOptionalAction, default=True,
                   help="sample in centered-covariate coordinates (model-identical; --no-center mixes poorly)")
    p.add_argument("--sigma", type=_positive_float, default=0.24, help="random-walk proposal scale > 0")
    p.add_argument("--eps-scale", type=_positive_float, default=0.8, help="tmcmc innovation scale > 0")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="worker processes for the chain pool (default: cpu count)")
    add_common(p)
    p.set_defaults(func=cmd_challenger)

    return parser


def _apply_config_file(parser: argparse.ArgumentParser, path: str) -> None:
    """Set the JSON config file's values as subparser defaults (flags still win).

    A key that is no subcommand's flag is a parser error naming it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"argument --config: cannot read {path}: {exc}")
    if not isinstance(values, dict):
        parser.error("argument --config: file must hold a JSON object")
    entries = {key.replace("-", "_"): (key, val) for key, val in values.items()}
    actions = parser._subparsers._group_actions  # noqa: SLF001 - argparse offers no public hook
    subparsers = [sp for action in actions for sp in action.choices.values()]
    unknown = entries.keys() - {a.dest for sp in subparsers for a in sp._actions}
    if unknown:
        parser.error(f"argument --config: unknown key {entries[min(unknown)][0]!r}: it is no subcommand's flag")
    for sp in subparsers:
        given = [a for a in sp._actions if a.dest in entries]
        sp.set_defaults(**{a.dest: _config_value(parser, a, *entries[a.dest]) for a in given})


def _config_value(parser: argparse.ArgumentParser, action: argparse.Action, key: str, value):
    """A config-file value checked and converted as its flag's text would be.

    The text is the value's ``str``, a JSON list's items joined by commas; a
    switch (a flag with a boolean default) takes a JSON boolean.  A rejected
    value is a parser error naming ``key``.  ``null`` stands for a flag's
    default only where that default is None.
    """
    if value is None and action.default is None:
        return None
    try:
        if isinstance(action.default, bool) and not isinstance(value, bool):
            raise ValueError(f"must be true or false, got {value!r}")
        if action.type is not None:
            value = action.type(",".join(map(str, value)) if isinstance(value, list) else str(value))
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"invalid choice {value!r} (choose from {', '.join(map(repr, action.choices))})")
    except (argparse.ArgumentTypeError, TypeError, ValueError) as exc:
        parser.error(f"argument --config: key {key!r}: {exc}")
    return value


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:  # argparse found the path, whichever form --config took
        _apply_config_file(parser, args.config)
        args = parser.parse_args(argv)
    if getattr(args, "burn_in", 0) and args.burn_in >= getattr(args, "iters", float("inf")):
        parser.error(f"argument --burn-in: must be smaller than --iters, got {args.burn_in}")
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"tmcmc {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
