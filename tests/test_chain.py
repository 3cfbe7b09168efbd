"""The batched accept rule, the CSV writer and the process pool of ``tmcmc.chain``."""

import itertools
import math
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from tmcmc import (
    HmcConfig,
    TmcmcConfig,
    chain,
    make_additive_tmcmc_kernel,
    make_hmc_kernel,
    make_iid_gaussian,
    make_rwmh_kernel,
)
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


def _written_bytes(trace, tmp_path):
    """The bytes ``write_csv`` writes for ``trace``, checked against the row writer's."""
    trace.write_csv(tmp_path / "blocks.csv")
    _reference_write_csv(trace, tmp_path / "rows.csv")
    written = (tmp_path / "blocks.csv").read_bytes()
    assert written == (tmp_path / "rows.csv").read_bytes()
    return written


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
    written = _written_bytes(trace, tmp_path)
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
    _written_bytes(trace, tmp_path)


def _repeating_trace(states, log_density, recorded_coords=None):
    """A trace of ``states`` whose accept flags do not follow its repeats: the writer reads the values."""
    n = len(states)
    zeros = np.zeros(n)
    coords = list(range(states.shape[1])) if recorded_coords is None else recorded_coords
    return Trace(states, np.arange(n) % 3 == 0, log_density, zeros, zeros, coords)


def _nan(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


def test_write_csv_of_long_runs_of_identical_rows(tmp_path):
    n = 2 * chain.CSV_BLOCK_ROWS + 5
    run = np.arange(n) // 1000  # runs of 1,000 identical rows, crossing both block boundaries
    states = np.column_stack([run / 7.0, -run * 1e-300])
    written = _written_bytes(_repeating_trace(states, -run / 3.0), tmp_path)
    assert written.count(b"\n") == n + 1


@pytest.mark.parametrize("row_4096", ["repeats", "signed-zero", "differs"])
def test_write_csv_of_a_repeat_across_the_block_boundary(row_4096, tmp_path):
    b = chain.CSV_BLOCK_ROWS
    n = b + 3
    states = np.random.default_rng(0).standard_normal((n, 3))
    states[b - 1, 1] = 0.0
    states[b] = states[b - 1]
    if row_4096 == "signed-zero":
        states[b, 1] = -0.0
    elif row_4096 == "differs":
        states[b, 2] += 1.0
    log_density = np.full(n, -2.5)
    lines = _written_bytes(_repeating_trace(states, log_density), tmp_path).split(b"\n")
    same_text = lines[b].split(b",", 2)[2] == lines[b + 1].split(b",", 2)[2]
    assert same_text == (row_4096 == "repeats")


@pytest.mark.parametrize("column", ["state", "log_density"])
def test_write_csv_tells_zero_from_negative_zero(column, tmp_path):
    n = 6
    states = np.ones((n, 2))
    log_density = np.full(n, -1.0)
    signs = np.array([0.0, -0.0, -0.0, 0.0, 0.0, -0.0])
    if column == "state":
        states[:, 1] = signs
    else:
        log_density = signs
    written = _written_bytes(_repeating_trace(states, log_density), tmp_path)
    assert written.count(b"-0.0") == 3


def test_write_csv_of_repeated_nan_rows_with_different_payloads(tmp_path):
    payloads = [0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001]
    nans = [_nan(bits) for bits in payloads for _ in range(3)]
    states = np.column_stack([nans, np.ones(len(nans))])
    written = _written_bytes(_repeating_trace(states, np.array(nans)), tmp_path)
    assert written.count(b"nan") == 2 * len(nans)


@pytest.mark.parametrize("dtypes", ["float32-states", "integer-states"])
def test_write_csv_of_repeated_float32_and_integer_columns(dtypes, tmp_path):
    run = np.arange(30) // 4
    if dtypes == "float32-states":
        trace = _repeating_trace(np.column_stack([run / 3, -run / 7]).astype(np.float32), run * 10**17)
    else:
        trace = _repeating_trace(np.column_stack([run, -run * 10**17]), (run / 3).astype(np.float32))
    assert _written_bytes(trace, tmp_path).count(b"\n") == len(run) + 1


def test_write_csv_without_recorded_coordinates_keeps_the_trailing_commas(tmp_path):
    n = chain.CSV_BLOCK_ROWS + 2
    trace = _repeating_trace(np.empty((n, 0)), np.zeros(n), recorded_coords=[])
    lines = _written_bytes(trace, tmp_path).splitlines()
    assert lines[0] == b"iter,accepted,log_density,"
    assert lines[1] == b"0,1,0.0,"
    assert all(line.endswith(b",0.0,") for line in lines[1:])


CHAIN_STEPS = 9_000  # crosses the block boundaries at rows 4,096 and 8,192


def _sampling_kernel(name):
    if name == "rwmh":  # sigma = 3 on k = 2 accepts about one step in six
        return make_rwmh_kernel(make_iid_gaussian(2), 3.0), 2
    if name == "additive":
        return make_additive_tmcmc_kernel(make_iid_gaussian(10), TmcmcConfig(scales=1.0, eps_scale=1.0)), 10
    return make_hmc_kernel(make_iid_gaussian(10), HmcConfig(L=10, dt=0.1)), 10


@pytest.mark.parametrize("name, burn_in", [("rwmh", 0), ("additive", 0), ("hmc", 0), ("rwmh", 1_000)])
def test_write_csv_of_sampled_chains_bytes_equal_the_row_writer(name, burn_in, tmp_path):
    kernel, k = _sampling_kernel(name)
    trace = chain.run_chain(kernel, np.zeros(k), CHAIN_STEPS, 7)
    if burn_in:
        trace = trace.tail(burn_in)
    written = _written_bytes(trace, tmp_path)
    assert written.count(b"\n") == len(trace) + 1
    if name == "rwmh":
        assert 0.0 < trace.accepted.mean() < 0.3  # most rows repeat the one above


@pytest.mark.parametrize("n_workers", [0, 1])
def test_map_tasks_runs_in_process_below_two_workers(n_workers, pool_sizes):
    assert list(chain.map_tasks(abs, [-3, 1, -2], n_workers)) == [3, 1, 2]
    assert pool_sizes == []


def test_map_tasks_caps_its_pool_at_the_task_count(pool_sizes, monkeypatch):
    monkeypatch.setattr(chain.os, "cpu_count", lambda: 64)
    assert list(chain.map_tasks(abs, [-3, 1, -2])) == [3, 1, 2]
    assert list(chain.map_tasks(abs, [-3, 1, -2], 2)) == [3, 1, 2]
    assert pool_sizes == [3, 2]


def _worker_task(task):
    """``(task, pid)``, or the failure a task names: raise, exit, an unpicklable result, a long sleep."""
    if task == "raise":
        raise ValueError("task failed in its worker")
    if task == "exit":
        os._exit(3)
    if task == "lock":
        return threading.Lock()
    if task == "sleep":
        threading.Event().wait(60)
    return task, os.getpid()


def test_map_tasks_caller_runs_every_second_task_of_two_workers():
    results = list(chain.map_tasks(_worker_task, range(5), 2))
    assert [task for task, _ in results] == [0, 1, 2, 3, 4]
    pids = [pid for _, pid in results]
    assert pids[0::2] == [os.getpid()] * 3
    assert pids[1] == pids[3] != os.getpid()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("tasks, error, match", [
    ([0, 1, 2, "raise"], ValueError, "task failed in its worker"),
    ([0, 1, 2, "exit"], RuntimeError, "task 3: its worker exited with code 3"),
    ([0, "lock"], RuntimeError, "task 1: its outcome could not be sent back"),
])
def test_map_tasks_raises_a_child_failure_at_its_turn(tasks, error, match):
    results = chain.map_tasks(_worker_task, tasks, 2)
    for task in tasks[:-1]:
        assert next(results)[0] == task  # the results before it, the child's own ones too
    with pytest.raises(error, match=match) as info:
        next(results)
    if error is ValueError:  # the child's traceback comes along
        assert 'raise ValueError("task failed in its worker")' in str(info.value.__cause__)
    assert multiprocessing.active_children() == []


def test_map_tasks_closed_early_stops_its_child():
    results = chain.map_tasks(_worker_task, [0, "sleep"], 2)
    assert next(results) == (0, os.getpid())
    t0 = time.perf_counter()
    results.close()  # the child is still asleep in task 1: terminated, not waited for
    assert time.perf_counter() - t0 < 30
    assert multiprocessing.active_children() == []
