"""Tests of the benchmark itself: arithmetic, determinism, checks, tracing.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, digest, fail_frac  # noqa: E402

TINY = {"study-k100": 300, "challenger-k2": 200, "sample-csv": 200, "hmc-aniso": 200}


def table(rows) -> tracing.SpanTable:
    """Spans from ``(name, start, end, parent, run, value)`` rows; a bool value is the accepted flag."""
    names = sorted({r[0] for r in rows})
    cols = [np.array(c, dtype=np.int64) for c in zip(*[(names.index(r[0]), *r[1:5]) for r in rows])]
    flags = np.array([int(r[5]) if isinstance(r[5], bool) else -1 for r in rows])
    values = {i: r[5] for i, r in enumerate(rows) if r[5] is not None and not isinstance(r[5], bool)}
    return tracing.SpanTable(names, *cols, flags, values)


def test_self_time_subtracts_the_union_of_children():
    spans = table([
        ("root", 0, 100, -1, 0, None),
        ("a", 10, 30, 0, 0, None),
        ("b", 20, 50, 0, 0, None),  # overlaps a, as two pool workers would
        ("leaf", 12, 18, 1, 0, None),
        ("c", 90, 150, 0, 0, None),  # clipped to its parent's end
        ("d", -5, 2, 0, 0, None),  # clipped to its parent's start
        ("lone", 200, 260, -1, 0, None),
        ("e", 210, 220, 6, 0, None),
        ("f", 205, 250, 6, 0, None),  # covers e entirely
    ])
    assert tracing.self_times(spans).tolist() == [100 - (40 + 10 + 2), 20 - 6, 30, 6, 60, 7, 60 - 45, 10, 45]


def test_percentiles():
    assert tracing.median([3, 1, 2]) == 2
    assert tracing.median([4, 1, 3, 2]) == 2.5
    assert tracing.percentile([1, 2, 3, 4, 5], 50) == 3
    assert tracing.percentile(list(range(11)), 90) == pytest.approx(9.0)
    values = list(np.random.default_rng(0).random(37))
    for q in (0, 25, 50, 90, 100):
        assert tracing.percentile(values, q) == pytest.approx(np.percentile(values, q))
    assert tracing.tail_percentile(19) is None
    assert tracing.tail_percentile(20) == 50.0
    assert tracing.tail_percentile(100) == 90.0
    assert tracing.tail_percentile(999) == 90.0
    assert tracing.tail_percentile(1000) == 99.0


def test_layer_metrics_from_synthetic_spans():
    spans = table([
        ("workload.pass", 0, 1000, -1, 0, None),
        ("chain.run_chain", 100, 900, 0, 0, (True, 400, 2)),
        ("transform_kernels.additive", 200, 400, 1, 0, True),
        ("targets.log_density", 250, 300, 2, 0, None),
        ("transform_kernels.additive", 500, 700, 1, 0, False),
        ("targets.log_density", 550, 650, 4, 0, None),
        ("diagnostics.iact_and_ess", 900, 950, 0, 0, None),
    ])
    m = tracing.layer_metrics(spans, {})
    assert m["targets.log_density.calls_per_step"] == 1.0
    assert m["transform_kernels.additive.step_us"] == pytest.approx(0.2)
    assert m["transform_kernels.additive.self_us"] == pytest.approx((150 + 100) / 2 * 1e-3)
    assert m["transform_kernels.additive.accept_rate"] == 0.5
    assert m["chain.run_chain.self_us"] == pytest.approx((800 - 400) / 2 * 1e-3)
    assert m["chain.trace.bytes_per_step"] == 200
    assert m["diagnostics.iact_and_ess.calls"] == 1
    assert m["diagnostics.share"] == pytest.approx(0.05)
    assert m["baseline_kernels.hmc.step_us"] == 0.0  # layer not entered
    assert set(m) | {"tmcmc.import_s", "scipy.import_s", "tracing.overhead_s"} == set(tracing.LAYER_METRICS)


def test_reference_seconds_scale_by_the_loop_time_around_a_pass():
    r = reference.SAMPLER_S
    assert reference.in_reference_seconds(2.0, r, r) == pytest.approx(2.0)
    assert reference.in_reference_seconds(2.0, 2 * r, 2 * r) == pytest.approx(1.0)  # CPU ran at half speed
    assert reference.in_reference_seconds(3.0, r, 2 * r) == pytest.approx(2.0)
    assert reference.in_reference_seconds(3.0, 0.1, 0.2, nominal_s=0.15) == pytest.approx(3.0)
    assert reference.sampler_loop(200) > 0.0 and reference.interpreter_loop(1000) > 0.0
    wall, stolen = reference.since(reference.clock())
    assert wall >= 0.0 and stolen >= 0.0


def test_statistical_checks_count_on_the_full_pass_only():
    def p(checks, output):
        return workloads.Pass(1.0, 1.0, checks, output)

    stat = workloads.Check("ordering", False, statistical=True)
    timed = [p([workloads.Check("cell", True), stat], "a"), p([stat], "a"), p([], "b")]
    full = p([workloads.Check("cell", True), workloads.Check("ordering", True, statistical=True)], "c")
    checks = bench.run_checks(timed, [full], digest("a"))
    assert [c.ok for c in checks] == [True, True, True, True, False]  # full x2, timed cell, repeats x2
    failing_full = p([stat], "c")
    assert fail_frac(bench.run_checks(timed[:1], [full, failing_full], digest("a"))) == 0.25


def test_importtime_parse_takes_outermost_scipy_imports():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:       400 |        400 |       scipy.special",
        "import time:        10 |        500 |     scipy.stats",
        "import time:        20 |       1000 |   tmcmc.discrete_kernels",
        "import time:         5 |       1200 | tmcmc",
    ])
    parsed = bench.parse_importtime(stderr)
    assert parsed["tmcmc.import_s"] == pytest.approx(1200e-6)
    assert parsed["scipy.import_s"] == pytest.approx(800e-6)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_outputs(name, tmp_path):
    w = WORKLOADS[name]
    first = w.run(3, tmp_path, TINY[name])
    second = w.run(3, tmp_path, TINY[name])
    other = w.run(4, tmp_path, TINY[name])
    assert digest(first.output) == digest(second.output)
    assert digest(first.output) != digest(other.output)
    assert first.ess == second.ess > 0
    if name in ("sample-csv", "hmc-aniso"):
        assert fail_frac(first.checks) == 0.0  # the CSV checks hold at any length


def test_tampered_challenger_report_raises_fail_frac():
    kernels = {k: {"accept_rate": 0.3, "ess": {"beta0": 400.0, "beta1": 380.0}} for k in ("additive-tmcmc", "rwmh")}
    report = {"ok": True, "agreement": True, "beta1_negative": True, "converged": True, "kernels": kernels}
    assert fail_frac(workloads.challenger_checks(report)) == 0.0
    assert fail_frac(workloads.challenger_checks(dict(report, ok=False))) > 0.0
    kernels["rwmh"]["ess"]["beta1"] = float("nan")
    assert fail_frac(workloads.challenger_checks(report)) > 0.0


def test_tampered_study_cell_raises_fail_frac():
    rows = [{"kernel": k, "ell": 2.2, "accept_rate": 0.3, "ess_per_iter": 0.01} for k in ("additive-tmcmc", "rwmh")]
    optima = [{"kernel": "additive-tmcmc", "accept_rate": 0.44}, {"kernel": "rwmh", "accept_rate": 0.23}]
    assert fail_frac(workloads.study_checks({"rows": rows, "optima": optima})) == 0.0
    rows[0]["accept_rate"] = 1.0
    assert fail_frac(workloads.study_checks({"rows": rows, "optima": optima})) > 0.0
    swapped = [dict(optima[0], accept_rate=0.2), optima[1]]
    assert fail_frac(workloads.study_checks({"rows": rows[1:], "optima": swapped})) > 0.0


def test_dropped_csv_row_raises_fail_frac(tmp_path):
    p = workloads.run_sample_csv(5, tmp_path, 200)
    out = tmp_path / "sample"
    chains = workloads.sample_chains()
    assert fail_frac(workloads.sample_checks(out, 0, chains, 200)) == 0.0
    path = out / "trace_chain0.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    checks = workloads.sample_checks(out, 0, chains, 200)
    assert fail_frac(checks) > 0.0
    assert {c.name for c in checks if not c.ok} >= {"row count"}
    assert fail_frac(workloads.sample_checks(out, 1, chains, 200)) > fail_frac(checks)
    assert p.chain_wall_s > 0.0


def test_replay_invariant_detects_a_flipped_flag():
    from tmcmc import TmcmcConfig, make_additive_tmcmc_kernel, make_iid_gaussian, run_chain

    trace = run_chain(make_additive_tmcmc_kernel(make_iid_gaussian(3), TmcmcConfig()), np.zeros(3), 500, 1)
    assert tracing.replay_holds(trace)
    trace.accepted[7] = not trace.accepted[7]
    assert not tracing.replay_holds(trace)


def test_tracer_records_layers_and_restores_the_library(tmp_path):
    import tmcmc.scaling as scaling
    from tmcmc.chain import Trace

    original = (scaling.run_chain, scaling.run_study_cell, Trace.write_csv)
    tracer = tracing.Tracer(tmp_path / "spool")
    tracer.install()
    try:
        tracer.pass_span(0, WORKLOADS["study-k100"].run, 1, tmp_path, 300)
        tracer.pass_span(1, WORKLOADS["sample-csv"].run, 1, tmp_path, 200)
    finally:
        tracer.uninstall()
    tracer.collect()
    spans = tracer.table()
    assert (scaling.run_chain, scaling.run_study_cell, Trace.write_csv) == original
    assert tracer.missing == []
    names = {spans.names[i] for i in set(spans.name.tolist())}
    assert {"scaling.run_study_cell", "chain.run_chain", "transform_kernels.additive", "baseline_kernels.rwmh",
            "chain.accept_step", "targets.log_density", "diagnostics.iact_and_ess", "cli.main",
            "chain.write_csv", "chain.summary"} <= names
    replay = tracing.replay_results(spans)
    assert len(replay) == 14 + workloads.sample_chains() and all(replay)
    m = tracing.layer_metrics(spans, {1: 0.0})
    # Both kernels cache lp(x): one density call per step plus one per chain start.
    steps = 14 * 300 + workloads.sample_chains() * 200
    assert m["targets.log_density.calls_per_step"] == pytest.approx(1 + (14 + workloads.sample_chains()) / steps)
    assert m["diagnostics.iact_and_ess.calls"] == (14 * 16 + workloads.sample_chains() * 10) / 2
    assert m["cli.write_s"] > 0.0 and m["chain.write_csv.us_per_row"] > 0.0


def test_benchmark_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study-k100", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
