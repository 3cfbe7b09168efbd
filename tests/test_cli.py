import json
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from tmcmc.cli import main
from tmcmc.diagnostics import iact_and_ess

SUMMARY_SCHEMA = {
    "type": "object",
    "required": ["chains", "kernel", "target", "seed"],
    "properties": {
        "chains": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["seed", "config", "n_iter", "accept_rate", "ess_per_coordinate"],
                "properties": {
                    "accept_rate": {"type": "number", "minimum": 0, "maximum": 1},
                    "n_iter": {"type": "integer", "minimum": 1},
                },
            },
        },
    },
}

VERDICTS_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["check_name", "passed", "max_violation", "tolerance", "seed"],
        "properties": {
            "check_name": {"type": "string"},
            "passed": {"type": "boolean"},
            "max_violation": {"type": "number"},
            "tolerance": {"type": "number"},
        },
    },
}

STUDY_SCHEMA = {
    "type": "object",
    "required": ["spec", "optima", "partial"],
    "properties": {
        "optima": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kernel", "k", "ell_star", "accept_rate", "accept_se"],
            },
        },
    },
}


def run_cli(args):
    return main(list(args))


def test_help_lists_every_subcommand_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "tmcmc.cli", "sample", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for flag in ("--kernel", "--target", "--dim", "--iters", "--seed", "--out", "--config",
                 "--eps-scale", "--sigma", "--hmc-L", "--burn-in", "--chains"):
        assert flag in proc.stdout
    assert "positive integer" in proc.stdout


def test_sample_smoke_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["sample", "--kernel", "additive-tmcmc", "--target", "iid-gaussian",
            "--dim", "10", "--iters", "2000", "--seed", "7"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert (out1 / "trace_chain0.csv").read_bytes() == (out2 / "trace_chain0.csv").read_bytes()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    jsonschema.validate(s1, SUMMARY_SCHEMA)
    for s in (s1, s2):
        for c in s["chains"]:
            c.pop("wall_time_s")
    assert s1 == s2


def _summary_without_wall_and_workers(path):
    """The summary minus wall clock and the ``--workers`` echo in each config."""
    payload = json.loads(path.read_text())
    for chain in payload["chains"]:
        chain.pop("wall_time_s")
        chain["config"].pop("workers")
    return payload


@pytest.mark.parametrize("burn_in", [[], ["--burn-in", "100"]], ids=["no-burn-in", "burn-in"])
@pytest.mark.parametrize(
    "kernel_args",
    [["--kernel", "additive-tmcmc"], ["--kernel", "hmc", "--hmc-L", "3", "--hmc-dt", "0.2"]],
    ids=["additive-tmcmc", "hmc"],
)
def test_pooled_chains_write_the_same_bytes_as_serial_ones(tmp_path, kernel_args, burn_in):
    args = ["sample", *kernel_args, "--dim", "4", "--iters", "600", "--chains", "3",
            "--seed", "5", *burn_in]
    outs = {}
    for workers in ("2", "1"):
        outs[workers] = tmp_path / f"w{workers}"
        assert run_cli(args + ["--workers", workers, "--out", str(outs[workers])]) == 0
    for c in range(3):
        name = f"trace_chain{c}.csv"
        assert (outs["2"] / name).read_bytes() == (outs["1"] / name).read_bytes()
    pooled = _summary_without_wall_and_workers(outs["2"] / "summary.json")
    assert pooled == _summary_without_wall_and_workers(outs["1"] / "summary.json")
    # chains are listed in index order: entry c summarises trace_chain{c}.csv
    # (float repr round-trips, so the ESS recomputed from the CSV is exact)
    kept = 600 - (100 if burn_in else 0)
    for c, chain in enumerate(pooled["chains"]):
        table = np.loadtxt(outs["2"] / f"trace_chain{c}.csv", delimiter=",", skiprows=1, ndmin=2)
        assert chain["n_iter"] == len(table) == kept
        assert chain["accept_rate"] == table[:, 1].mean()
        ess = {f"x_{j}": iact_and_ess(table[:, 3 + j])[1] for j in range(4)}
        assert chain["ess_per_coordinate"] == ess
    assert len({json.dumps(chain["ess_per_coordinate"]) for chain in pooled["chains"]}) == 3


def test_sample_pool_is_capped_at_the_chain_count(tmp_path, pool_sizes, monkeypatch):
    from tmcmc import cli

    args = ["sample", "--dim", "2", "--iters", "200", "--seed", "1"]
    assert run_cli(args + ["--chains", "2", "--workers", "64", "--out", str(tmp_path / "a")]) == 0
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert run_cli(args + ["--chains", "3", "--out", str(tmp_path / "b")]) == 0
    assert run_cli(args + ["--chains", "1", "--out", str(tmp_path / "c")]) == 0
    assert pool_sizes == [2, 3]


def test_sample_rejects_zero_dim():
    proc = subprocess.run(
        [sys.executable, "-m", "tmcmc.cli", "sample", "--dim", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "--dim" in proc.stderr


def test_sample_rejects_burn_in_not_below_iters():
    proc = subprocess.run(
        [sys.executable, "-m", "tmcmc.cli", "sample", "--iters", "100", "--burn-in", "100"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "--burn-in" in proc.stderr


@pytest.mark.parametrize(
    "kernel,target,extra",
    [
        ("rwmh", "iid-gaussian", ["--sigma", "0.5"]),
        ("hmc", "iid-gaussian", ["--hmc-L", "3", "--hmc-dt", "0.2"]),
        ("dependent-z-tmcmc", "anisotropic-gaussian", []),
        ("ising-tmcmc", "ising", ["--coupling", "0.4"]),
        ("zk-tmcmc", "lattice", ["--r", "0.3"]),
        ("additive-tmcmc", "challenger", ["--dim", "2", "--center"]),
        # Precisions linspace(1, c, dim) form a valid (falling) ladder for c < 1 too.
        ("hmc", "anisotropic-gaussian", ["--condition", "0.5"]),
    ],
)
def test_sample_runs_every_kernel_target_pair(tmp_path, kernel, target, extra):
    out = tmp_path / kernel
    args = ["sample", "--kernel", kernel, "--target", target, "--dim", "6",
            "--iters", "500", "--seed", "3", "--out", str(out)] + extra
    assert run_cli(args) == 0
    assert (out / "trace_chain0.csv").exists()


def test_kernel_target_mismatch_is_rejected(tmp_path):
    code = run_cli(["sample", "--kernel", "zk-tmcmc", "--target", "iid-gaussian",
                    "--out", str(tmp_path)])
    assert code == 2
    code = run_cli(["sample", "--kernel", "hmc", "--target", "ising",
                    "--out", str(tmp_path)])
    assert code == 2


def test_db_check_exit_codes(tmp_path):
    assert run_cli(["db-check", "--suite", "all", "--out", str(tmp_path / "ok")]) == 0
    payload = json.loads((tmp_path / "ok" / "db_check_verdicts.json").read_text())
    jsonschema.validate(payload, VERDICTS_SCHEMA)
    assert run_cli(
        ["db-check", "--suite", "continuous", "--corrupt-acceptance", "--out", str(tmp_path / "bad")]
    ) == 1


def test_discrete_check_reducible_lattice_is_expected(tmp_path):
    out = tmp_path / "r0"
    assert run_cli(["discrete-check", "--r", "0", "--out", str(out)]) == 0
    payload = json.loads((out / "discrete_check_verdicts.json").read_text())
    jsonschema.validate(payload, VERDICTS_SCHEMA)
    marked = [p for p in payload if p.get("expected_failure")]
    assert len(marked) == 1
    assert marked[0]["check_name"] == "irreducibility-lattice-k2-r0"
    assert not marked[0]["passed"]
    assert run_cli(["discrete-check", "--corrupt-acceptance", "--out", str(tmp_path / "bad")]) == 1


def test_scaling_study_cli_tiny(tmp_path):
    out = tmp_path / "study"
    args = ["scaling-study", "--dims", "4", "--ell-grid", "1.5,2.5", "--iters", "3000",
            "--burn-in", "300", "--n-seeds", "2", "--workers", "1", "--seed", "1",
            "--out", str(out)]
    assert run_cli(args) == 0
    payload = json.loads((out / "study_summary.json").read_text())
    jsonschema.validate(payload, STUDY_SCHEMA)
    grid = (out / "study_grid.csv").read_text().splitlines()
    assert grid[0] == "kernel,k,ell,seed,accept_rate,ess_per_iter,wall_ms"
    assert len(grid) == 1 + 2 * 1 * 2 * 2


def test_scaling_study_cli_deterministic_modulo_wall(tmp_path):
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        run_cli(["scaling-study", "--dims", "3", "--ell-grid", "2.0", "--iters", "2000",
                 "--burn-in", "200", "--n-seeds", "1", "--workers", "1", "--seed", "5",
                 "--out", str(out)])
        rows = [line.split(",") for line in (out / "study_grid.csv").read_text().splitlines()[1:]]
        outs.append([r[:-1] for r in rows])  # drop wall_ms
    assert outs[0] == outs[1]


def test_scaling_study_cli_keeps_partial_work_when_a_group_fails(tmp_path, monkeypatch, capsys):
    from tmcmc import scaling

    run_group = scaling.run_study_group

    def fail_on_second_group(group, spec):
        if group[0] != 4:
            raise MemoryError("worker lost")
        return run_group(group, spec)

    monkeypatch.setattr(scaling, "run_study_group", fail_on_second_group)
    out = tmp_path / "study"
    args = ["scaling-study", "--dims", "4,8", "--ell-grid", "1.5,2.5", "--iters", "2000",
            "--burn-in", "200", "--n-seeds", "2", "--workers", "1", "--seed", "1", "--out", str(out)]
    assert run_cli(args) == 1
    assert "worker lost" in capsys.readouterr().err
    payload = json.loads((out / "study_summary.json").read_text())
    jsonschema.validate(payload, STUDY_SCHEMA)
    assert payload["partial"] is True and payload["optima"] == []
    grid = [line.split(",") for line in (out / "study_grid.csv").read_text().splitlines()]
    assert grid[0] == ["kernel", "k", "ell", "seed", "accept_rate", "ess_per_iter", "wall_ms"]
    # one worker: one group a dimension, so k = 4 finished with both kernels
    assert [row[:4] for row in grid[1:]] == [
        [kernel, "4", ell, seed]
        for kernel in ("additive-tmcmc", "rwmh")
        for ell in ("1.5", "2.5")
        for seed in ("1", "2")
    ]
    aggregate = (out / "study_aggregate.csv").read_text().splitlines()
    assert aggregate[0] == "kernel,k,ell,mean_accept_rate,mean_ess_per_iter,n_seeds"
    assert len(aggregate) == 1 + 2 * 2


@pytest.mark.parametrize("args", [
    ["scaling-study", "--dims", "4,4", "--ell-grid", "2,2,3", "--n-seeds", "2", "--workers", "1"],
    ["scaling-study", "--dims", "4", "--iters", "150", "--burn-in", "100", "--workers", "1"],
    ["challenger", "--iters", "100", "--workers", "1"],
], ids=["study-repeated-values", "study-too-short-for-ess", "challenger-too-short-for-ess"])
def test_bad_runs_exit_2_before_any_chain_runs(args, tmp_path, monkeypatch, capsys):
    from tmcmc import benchmark, scaling

    def no_chains(*args, **kwargs):
        raise AssertionError("a chain ran")

    for module in (scaling, benchmark):
        monkeypatch.setattr(module, "run_lockstep", no_chains)
    assert run_cli([*args, "--out", str(tmp_path / "out")]) == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_challenger_cli_short_run(tmp_path):
    out = tmp_path / "chall"
    args = ["challenger", "--iters", "6000", "--chains", "2", "--seed", "11",
            "--out", str(out)]
    assert run_cli(args) == 0
    payload = json.loads((out / "challenger_report.json").read_text())
    assert payload["beta1_negative"] is True
    assert payload["agreement"] is True
    for kernel in payload["kernels"].values():
        assert kernel["mean"]["beta1"] < 0


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"iters": 1234, "dim": 3, "seed": 9}))
    out1 = tmp_path / "from-config"
    assert run_cli(["sample", "--config", str(cfg), "--out", str(out1)]) == 0
    s = json.loads((out1 / "summary.json").read_text())
    assert s["chains"][0]["n_iter"] == 1234
    assert s["seed"] == 9
    out2 = tmp_path / "flag-wins"
    assert run_cli(["sample", "--config", str(cfg), "--iters", "777", "--out", str(out2)]) == 0
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s2["chains"][0]["n_iter"] == 777


@pytest.mark.parametrize("form", ["--config={}", "--conf {}"])
def test_config_file_in_every_form_the_parser_takes(tmp_path, form):
    # "--config=PATH" and the abbreviation "--conf PATH" name the file as "--config PATH" does
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"iters": 300, "dim": 3}))
    out = tmp_path / "inline"
    assert run_cli(["sample", *form.format(cfg).split(" "), "--chains", "1", "--out", str(out)]) == 0
    with open(out / "trace_chain0.csv") as fh:
        header, *rows = fh.read().splitlines()
    assert header == "iter,accepted,log_density,x_0,x_1,x_2" and len(rows) == 300
    assert json.loads((out / "summary.json").read_text())["chains"][0]["n_iter"] == 300
    with pytest.raises(SystemExit) as info:
        run_cli(["sample", f"--config={tmp_path / 'nope.json'}", "--out", str(tmp_path / "missing")])
    assert info.value.code == 2


def test_config_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    proc = subprocess.run(
        [sys.executable, "-m", "tmcmc.cli", "sample", "--config", str(missing)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "--config" in proc.stderr


@pytest.mark.parametrize(
    "key,value",
    [("chains", 0), ("iters", -5), ("eps-scale", 0.0), ("dim", 2.5), ("kernel", "nuts"), ("center", "no")],
)
def test_config_values_are_validated_like_flags(tmp_path, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "tmcmc.cli", "sample", "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "--config" in proc.stderr and key in proc.stderr
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--sigma", "--eps-scale", "--hmc-dt", "--ell-grid"])
def test_non_finite_numbers_are_rejected(flag, value, tmp_path, capsys):
    # nan <= 0 is false, so a check for <= 0 alone lets NaN through to a chain that never moves
    command, text = ("scaling-study", f"1.5,{value}") if flag == "--ell-grid" else ("sample", value)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        run_cli([command, f"{flag}={text}", "--iters", "300", "--out", str(out)])
    assert info.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["NaN", "Infinity"])
def test_non_finite_config_values_are_rejected(text, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(f'{{"eps_scale": {text}}}')
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        run_cli(["sample", "--config", str(cfg), "--iters", "300", "--out", str(out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "--config" in err and "eps_scale" in err
    assert not out.exists()


def test_config_keys_must_be_flags(tmp_path, capsys):
    # a misspelled key used to be dropped without a word: {"sigm": 0.5} ran at sigma 1.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigm": 0.5}))
    out = tmp_path / "typo"
    with pytest.raises(SystemExit) as info:
        run_cli(["sample", "--kernel", "rwmh", "--config", str(cfg), "--iters", "300", "--out", str(out)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "--config" in err and "'sigm'" in err
    assert not out.exists()
    # a key of another subcommand stays accepted, so one file can serve several
    cfg.write_text(json.dumps({"dims": [3], "dim": 2, "iters": 300}))
    out = tmp_path / "shared"
    assert run_cli(["sample", "--config", str(cfg), "--chains", "1", "--workers", "1", "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["chains"][0]["n_iter"] == 300


def test_config_lists_are_validated_and_parsed_like_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dims": [3, 0]}))
    with pytest.raises(SystemExit) as info:
        run_cli(["scaling-study", "--config", str(cfg), "--out", str(tmp_path / "bad")])
    assert info.value.code == 2
    cfg.write_text(json.dumps({"dims": [3], "ell_grid": [2, 2.5], "iters": 600, "burn_in": 100, "n_seeds": 1}))
    out = tmp_path / "ok"
    assert run_cli(["scaling-study", "--config", str(cfg), "--workers", "1", "--out", str(out)]) == 0
    spec = json.loads((out / "study_summary.json").read_text())["spec"]
    assert (spec["dims"], spec["ell_grid"], spec["n_iter"]) == ([3], [2.0, 2.5], 600)


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("TMCMC_OUTPUT_DIR", str(tmp_path / "envout"))
    assert run_cli(["sample", "--iters", "200", "--dim", "2", "--seed", "1"]) == 0
    assert (tmp_path / "envout" / "summary.json").exists()
