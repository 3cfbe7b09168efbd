"""tmcmc benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload study-k100 --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics (wall_s, ess_per_s, setup_s,
peak_rss_mb) untraced; ``--trace 1`` measures the per-layer metrics with the
span tracer installed, plus the tracing overhead.  The library is imported from
``src/`` of the checkout.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a fuller report with
provenance is written under ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))  # not on the path already under python -I or -P

import tracing  # noqa: E402
from tracing import LAYER_METRICS, median, tail_percentile, percentile  # noqa: E402
from reference import INTERPRETER_S, SAMPLER_S, in_reference_seconds, sampler_loop  # noqa: E402
from workloads import WORKLOADS, Check, digest, fail_frac  # noqa: E402

SETUP_SAMPLES = 4
IMPORT_SAMPLES = 3
TRACED_PASSES = 2  # spans are kept in memory; two passes bound their number
END_TO_END = {"wall_s": "s", "ess_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

SETUP_HARNESS = """import sys
sys.path.append({here!r})
from reference import clock, interpreter_loop, since
before = interpreter_loop()
sys.path.insert(0, {src!r})
start = clock()
{code}
wall, stolen = since(start)
print(repr(wall), repr(stolen), repr(before), repr(interpreter_loop()))
"""


def fresh_python(args: list, code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new isolated interpreter inside the checkout."""
    return subprocess.run(
        [sys.executable, "-I", *args, "-c", code],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )


def measure_setup(code: str) -> tuple:
    """Reference seconds (and wall seconds) to import tmcmc and build one pass's
    targets, kernels and configs, less the time the host stole meanwhile; the
    interpreter loop is timed in the same interpreter right before and after."""
    harness = SETUP_HARNESS.format(src=str(SRC), here=str(HERE), code=code)
    samples = [[float(v) for v in fresh_python([], harness).stdout.split()[-4:]] for _ in range(SETUP_SAMPLES)]
    return [in_reference_seconds(w - st, a, b, INTERPRETER_S) for w, st, a, b in samples], [s[0] for s in samples]


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds of ``import tmcmc`` and of the outermost scipy imports.

    ``-X importtime`` prints one line per module after it finishes (children
    before parents), indented two spaces per nesting level.
    """
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2][1:]
        name = field.lstrip(" ")
        entries.append(((len(field) - len(name)) // 2, name, int(parts[1]) * 1e-6))
    tmcmc_s, scipy_s, ancestors = 0.0, 0.0, []
    for depth, name, cumulative in reversed(entries):  # parents now precede children
        del ancestors[depth:]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for a in ancestors):
            scipy_s += cumulative
        if depth == 0 and name == "tmcmc":
            tmcmc_s = cumulative
        ancestors.append(name)
    return {"tmcmc.import_s": tmcmc_s, "scipy.import_s": scipy_s}


def measure_imports() -> dict:
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import tmcmc"
    samples = [parse_importtime(fresh_python(["-X", "importtime"], code).stderr) for _ in range(IMPORT_SAMPLES)]
    return {k: median(s[k] for s in samples) for k in samples[0]}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def provenance(workload: str, seed: int) -> dict:
    sources = sorted((SRC / "tmcmc").rglob("*.py"))
    blob = hashlib.sha256()
    loc = 0
    for path in sources:
        data = path.read_bytes()
        blob.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        loc += data.count(b"\n")
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": blob.hexdigest(),
        "src_loc": loc,
    }


def run_passes(seconds: float, run, limit=None) -> tuple:
    """Call ``run(i)`` while another call still fits in ``seconds`` (at least once, at most ``limit`` times).

    The sampler reference loop is timed before the first call and after every call.
    Returns the passes, each pass's wall time less the time the host stole
    meanwhile in reference seconds, and the reference loop's times.
    """
    refs = [sampler_loop()]
    passes, scaled = [], []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not passes or (time.perf_counter() + last < deadline and len(passes) != limit):
        t0 = time.perf_counter()
        passes.append(run(len(passes)))
        refs.append(sampler_loop())
        scaled.append(in_reference_seconds(passes[-1].wall_s - passes[-1].stolen_s, refs[-2], refs[-1]))
        last = time.perf_counter() - t0
    return passes, scaled, refs


def full_passes(workload, seed: int, workdir: Path) -> list:
    """The untimed full-length passes: statistical checks and ESS per iteration."""
    return [workload.run(workload.check_seed(seed, j), workdir, workload.iters) for j in range(workload.check_seeds)]


def run_checks(timed, full, reference: str) -> list:
    """The full-length passes' checks, the timed passes' checks that hold at any
    length, and that every timed pass reproduced the first one's outputs."""
    checks = [c for p in full for c in p.checks] + [c for p in timed for c in p.checks if not c.statistical]
    checks += [Check("pass repeats the first pass's outputs", digest(p.output) == reference) for p in timed[1:]]
    return checks


def pass_stats(walls) -> dict:
    stats = {"n": len(walls), "median": median(walls), "min": min(walls), "max": max(walls)}
    q = tail_percentile(len(walls))
    if q is not None:
        stats[f"p{q:g}"] = percentile(walls, q)
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "tmcmc" / "__init__.py").is_file():
        print(f"perfbench: no tmcmc sources at {SRC / 'tmcmc'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tmcmc

    if Path(tmcmc.__file__).resolve().parent != (SRC / "tmcmc").resolve():
        print(f"perfbench: imported tmcmc from {tmcmc.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, args, workdir: Path) -> int:
    # A short untimed pass first fills lazy imports and caches.
    workload.run(args.seed, workdir, max(workload.timed_iters // 10, 200))
    timed_run = lambda i: workload.run(args.seed, workdir, workload.timed_iters)  # noqa: E731
    report = {"trace": args.trace, "timed_iters": workload.timed_iters, "full_iters": workload.iters,
              "sampler_loop_nominal_s": SAMPLER_S, "interpreter_loop_nominal_s": INTERPRETER_S}

    if args.trace == 0:
        passes, scaled, refs = run_passes(args.seconds, timed_run)
        full = full_passes(workload, args.seed, workdir)
        checks = run_checks(passes, full, digest(passes[0].output))
        rss = peak_rss_mb()  # before the set-up interpreters below are reaped
        setup, setup_wall = measure_setup(workload.setup_code)
        wall = median(scaled)
        metrics = {
            "wall_s": wall,
            "ess_per_s": sum(p.ess for p in full) / len(full) / workload.iters * workload.timed_iters / wall,
            "setup_s": median(setup),
            "peak_rss_mb": rss,
        }
        units = END_TO_END
        report.update(
            passes_reference_s=pass_stats(scaled), passes_wall_s=pass_stats([p.wall_s for p in passes]),
            passes_stolen_s=pass_stats([p.stolen_s for p in passes]),
            sampler_loop_s=pass_stats(refs), full_passes_wall_s=[p.wall_s for p in full],
            full_passes_ess=[p.ess for p in full],
            setup_samples_reference_s=setup, setup_samples_wall_s=setup_wall,
        )
    else:
        untraced, _, _ = run_passes(args.seconds / 2, timed_run)
        tracer = tracing.Tracer(workdir / "spool")
        tracer.install()
        try:
            traced_run = lambda i: tracer.pass_span(i, workload.run, args.seed, workdir, workload.timed_iters)  # noqa: E731
            traced, _, _ = run_passes(args.seconds / 2, traced_run, TRACED_PASSES)
        finally:
            tracer.uninstall()
        full = full_passes(workload, args.seed, workdir)
        checks = run_checks(untraced + traced, full, digest(untraced[0].output))
        tracer.collect()
        spans = tracer.table()
        replay = tracing.replay_results(spans)
        checks.extend(Check("replay invariant accepted == (log u < log_alpha)", ok) for ok in replay)
        chain_walls = {i: p.chain_wall_s for i, p in enumerate(traced)}
        metrics = tracing.layer_metrics(spans, chain_walls)
        metrics.update(measure_imports())
        metrics["tracing.overhead_s"] = median(p.wall_s for p in traced) - median(p.wall_s for p in untraced)
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        report.update(
            untraced_passes_wall_s=pass_stats([p.wall_s for p in untraced]),
            traced_passes_wall_s=pass_stats([p.wall_s for p in traced]),
            spans=len(spans), replay_checked=len(replay), patch_points_missing=tracer.missing,
            kinds={name: kind for name, (_, kind) in LAYER_METRICS.items()},
        )
        tracing.write_spans(spans, OUT / f"{workload.name}.spans.npz")

    report["provenance"] = provenance(workload.name, args.seed)
    failed = [c for c in checks if not c.ok]
    report["checks"] = {"attempted": len(checks), "failed": len(failed),
                        "fail_frac": fail_frac(checks),
                        "failures": [f"{c.name}: {c.detail}" for c in failed[:20]]}
    report["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{workload.name}.trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    for name, m in report["metrics"].items():
        print(f"{workload.name:14s} {name:42s} {m['value']:>16.6g} {m['unit']}")
    print(f"{workload.name:14s} {'fail_frac':42s} {report['checks']['fail_frac']:>16.6g} "
          f"({len(failed)} of {len(checks)} checks)")
    for line in report["checks"]["failures"]:
        print(f"FAILED {line}")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed),
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
