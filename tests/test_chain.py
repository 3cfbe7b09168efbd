"""The batched accept rule and the CSV writer of ``tmcmc.chain``."""

import itertools
import math

import numpy as np
import pytest

from tmcmc import chain
from tmcmc.chain import ChainState, Trace, accept_batch, accept_step

LOG_DENSITIES = [-1.5, 0.25, -math.inf, math.inf, math.nan]


def _rows():
    """Every (lp_x, lp_y) pair of ``LOG_DENSITIES``, each with a small and a large uniform."""
    pairs = list(itertools.product(LOG_DENSITIES, repeat=2))
    lp_x = np.array([a for a, _ in pairs] * 2)
    lp_y = np.array([b for _, b in pairs] * 2)
    u = np.array([0.0] * len(pairs) + [0.9] * len(pairs))
    return lp_x, lp_y, u


@pytest.mark.parametrize("shared_uniform", [False, True])
def test_accept_batch_follows_accept_step_row_by_row(shared_uniform, scripted_rng):
    lp_x, lp_y, u = _rows()
    if shared_uniform:
        u = np.full(u.size, 0.3)
    n = lp_x.size
    x = np.arange(2.0 * n).reshape(n, 2)
    y = -x - 1.0
    log_u = np.array([math.log(v) if v > 0.0 else -math.inf for v in u])
    bx, blp, counts = x.copy(), lp_x.copy(), np.zeros(n, dtype=int)
    with np.errstate(invalid="ignore"):
        flags = accept_batch(bx, blp, y, lp_y, log_u[0] if shared_uniform else log_u, counts)
    for c in range(n):
        log_alpha = float(lp_y[c]) - float(lp_x[c])
        step = accept_step(
            ChainState(x[c], float(lp_x[c])), ChainState(y[c], float(lp_y[c])), log_alpha, scripted_rng([u[c]])
        )
        assert flags[c] == step.accepted, (lp_x[c], lp_y[c], u[c])
        assert counts[c] == step.nonfinite
        assert np.array_equal(bx[c], step.state.x)
        assert np.array_equal(blp[c], step.state.lp, equal_nan=True)
    assert flags.any() and not flags.all()
    assert counts.any()


def test_accept_batch_with_finite_densities_counts_nothing():
    x, lp_x = np.zeros((3, 2)), np.array([-1.0, -2.0, -3.0])
    y, lp_y = np.ones((3, 2)), np.array([-1.5, -1.0, -9.0])
    counts = np.zeros(3, dtype=int)
    flags = accept_batch(x, lp_x, y, lp_y, np.log([0.5, 0.5, 0.5]), counts)
    assert flags.tolist() == [True, True, False]
    assert x.tolist() == [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]
    assert lp_x.tolist() == [-1.5, -1.0, -3.0]
    assert counts.tolist() == [0, 0, 0]


def _reference_write_csv(trace, path):
    """The row-at-a-time writer the block writer replaced, kept as the byte reference."""
    cols = ",".join(f"x_{i}" for i in trace.recorded_coords)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"iter,accepted,log_density,{cols}\n")
        for i in range(len(trace)):
            xs = ",".join(repr(float(v)) for v in trace.states[i])
            fh.write(f"{i},{int(trace.accepted[i])},{float(trace.log_density[i])!r},{xs}\n")


SPECIAL = [-math.inf, math.inf, math.nan, 5e-324, -5e-324, 1e300, -1e300, 0.0, -0.0, 0.1, 1 / 3]


@pytest.mark.parametrize("n_rows", [2, chain.CSV_BLOCK_ROWS, 2 * chain.CSV_BLOCK_ROWS + 3])
def test_write_csv_bytes_equal_the_row_writer(n_rows, tmp_path):
    rng = np.random.default_rng(n_rows)
    states = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-300, 300, (n_rows, 3))
    log_density = rng.standard_normal(n_rows)
    picks = rng.integers(0, len(SPECIAL), (n_rows, 4))
    special = np.array(SPECIAL)[picks]
    mask = rng.random((n_rows, 4)) < 0.3
    states[mask[:, :3]] = special[:, :3][mask[:, :3]]
    log_density[mask[:, 3]] = special[:, 3][mask[:, 3]]
    states[:2] = [[-math.inf, math.inf, math.nan], [5e-324, 1e300, -0.0]]
    log_density[:2] = [-0.0, math.nan]
    zeros = np.zeros(n_rows)
    trace = Trace(states, rng.random(n_rows) < 0.5, log_density, zeros, zeros, [0, 4, 7])
    trace.write_csv(tmp_path / "blocks.csv")
    _reference_write_csv(trace, tmp_path / "rows.csv")
    written = (tmp_path / "blocks.csv").read_bytes()
    assert written == (tmp_path / "rows.csv").read_bytes()
    assert written.count(b"\n") == n_rows + 1
    for token in (b"-inf", b"nan", b"5e-324", b"-0.0"):
        assert token in written


def test_write_csv_of_float32_and_integer_columns(tmp_path):
    n = 5
    trace = Trace(
        np.arange(2 * n, dtype=np.float32).reshape(n, 2) / 3,
        np.array([1, 0, 1, 1, 0]),
        np.arange(n, dtype=np.int64),
        np.zeros(n),
        np.zeros(n),
        [0, 1],
    )
    trace.write_csv(tmp_path / "blocks.csv")
    _reference_write_csv(trace, tmp_path / "rows.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("n_workers", [0, 1])
def test_map_tasks_runs_in_process_below_two_workers(n_workers, pool_sizes):
    assert list(chain.map_tasks(abs, [-3, 1, -2], n_workers)) == [3, 1, 2]
    assert pool_sizes == []


def test_map_tasks_caps_its_pool_at_the_task_count(pool_sizes, monkeypatch):
    monkeypatch.setattr(chain.os, "cpu_count", lambda: 64)
    assert list(chain.map_tasks(abs, [-3, 1, -2])) == [3, 1, 2]
    assert list(chain.map_tasks(abs, [-3, 1, -2], 2)) == [3, 1, 2]
    assert pool_sizes == [3, 2]
