"""The batched accept rule, the chain runner's record, the CSV writer and the process pool of ``tmcmc.chain``."""

import itertools
import math
import multiprocessing
import os
import re
import threading
import time
import tracemalloc
import warnings

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
from tmcmc.chain import Trace, _accept, accept_batch
from tmcmc.targets import Target

LOG_DENSITIES = [-1.5, 0.25, -math.inf, math.inf, math.nan]


def _rows():
    """Every (lp_x, lp_y) pair of ``LOG_DENSITIES``, each with a small and a large uniform."""
    pairs = list(itertools.product(LOG_DENSITIES, repeat=2))
    lp_x = np.array([a for a, _ in pairs] * 2)
    lp_y = np.array([b for _, b in pairs] * 2)
    u = np.array([0.0] * len(pairs) + [0.9] * len(pairs))
    return lp_x, lp_y, u


@pytest.mark.parametrize("shared_uniform", [False, True])
def test_accept_batch_follows_the_scalar_decision_row_by_row(shared_uniform):
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
        accepted, _, nonfinite = _accept(float(lp_x[c]), float(lp_y[c]), log_alpha, float(log_u[c]))
        assert flags[c] == accepted, (lp_x[c], lp_y[c], u[c])
        assert counts[c] == nonfinite
        assert np.array_equal(bx[c], y[c] if accepted else x[c])
        assert np.array_equal(blp[c], lp_y[c] if accepted else lp_x[c], equal_nan=True)
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


@pytest.mark.parametrize("name", ["additive", "hmc"])
def test_run_chain_records_a_subset_as_the_columns_of_the_whole_record(name):
    # 300 steps: a full block of 256, then a partial one of 44
    kernel, k = _sampling_kernel(name)
    whole = chain.run_chain(kernel, np.linspace(-1.0, 1.0, k), 300, 5)
    subset = chain.run_chain(kernel, np.linspace(-1.0, 1.0, k), 300, 5, record_coords=[3, 0])
    assert subset.recorded_coords == [3, 0] and 0.0 < subset.accepted.mean() < 1.0
    assert np.array_equal(subset.states, whole.states[:, [3, 0]])
    for field in ("accepted", "log_density", "log_alpha", "uniforms"):
        assert np.array_equal(getattr(subset, field), getattr(whole, field))


@pytest.mark.parametrize("record_coords", [[0], None])
def test_run_chain_holds_one_block_of_draws_beside_its_trace(record_coords):
    # At acceptance ~0.8 a record that held each accepted state, or built its block's rows in a
    # temporary beside the draws, would peak near two 256 x k blocks above the trace; so would
    # one that kept a block's draws alive while drawing the next.
    k = 20_000
    kernel = make_additive_tmcmc_kernel(make_iid_gaussian(k), TmcmcConfig(scales=0.005))
    block = chain._BLOCK_STEPS * k * 8
    tracemalloc.start()
    try:
        trace = chain.run_chain(kernel, np.zeros(k), 600, 1, record_coords=record_coords)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.accepted.mean() > 0.7
    assert peak < trace.states.nbytes + 1.5 * block


class ZeroUniformRNG(np.random.Generator):
    """A generator whose first call of ``random(b)`` hands out ``0.0`` at position ``index``."""

    def __init__(self, seed, index):
        super().__init__(np.random.PCG64(seed))
        self.index = index

    def random(self, size=None, dtype=np.float64, out=None):
        u = super().random(size, dtype, out)
        if self.index is not None:
            u[self.index], self.index = 0.0, None
        return u


def test_run_chain_decides_a_zero_uniform_as_the_scalar_decision():
    # sigma = 3 on k = 2 rejects most steps; on u = 0 (log u = -inf) a finite proposal is accepted
    kernel = make_rwmh_kernel(make_iid_gaussian(2), 3.0)
    x0 = np.array([2.5, -2.5])
    trace = chain.run_chain(kernel, x0, 200, ZeroUniformRNG(9, 100))
    assert trace.uniforms[100] == 0.0 and trace.accepted[100]
    assert trace.accepted.mean() < 0.5
    rng = ZeroUniformRNG(9, 100)
    rows, uniforms = kernel.draw(rng, 200), rng.random(200)
    state = kernel.init(x0)
    for i, (row, u) in enumerate(zip(rows, uniforms.tolist())):
        proposal, log_alpha = kernel.propose(state, row)
        log_u = math.log(u) if u > 0.0 else -math.inf
        accepted, log_alpha, _ = _accept(state.lp, proposal.lp, log_alpha, log_u)
        state = proposal if accepted else state
        assert trace.states[i].tolist() == state.x.tolist()
        assert (trace.accepted[i], trace.log_density[i], trace.log_alpha[i], trace.uniforms[i]) == (
            accepted, state.lp, log_alpha, u)


def test_run_lockstep_decides_a_zero_uniform_as_run_chain():
    # one stream of one chain at the random walk's scale: run_chain's trace, bit for bit
    target, x0 = make_iid_gaussian(2), np.array([2.5, -2.5])
    trace = chain.run_chain(make_rwmh_kernel(target, 3.0), x0, 200, ZeroUniformRNG(9, 100))
    batch = lambda xs: np.array([target.log_density(x) for x in xs])  # noqa: E731
    run = chain.run_lockstep([make_rwmh_kernel(target, 1.0)], batch, x0[None], [3.0], 200, [ZeroUniformRNG(9, 100)], 2)
    assert run.accepted[100, 0]
    assert np.array_equal(run.accepted[:, 0], trace.accepted)
    assert np.array_equal(chain.lockstep_path(run, 0), trace.states)


def test_accept_batch_with_huge_finite_ratios_takes_the_plain_decision():
    # Finite log-densities about 1e200 apart: the finite test's log_alpha' log_alpha overflows, so
    # the batch goes through the non-finite rule, which must leave every ratio as it is and count
    # nothing.  Under the scope the docstring names, the overflow raises no warning.
    lp_x = np.array([1e200, -1e200, 0.5, -2.0, 3e199, -7e199])
    lp_y = np.array([-1e200, 1e200, 0.25, -1.0, -4e199, 8e199])
    log_u = np.log(np.full(6, 0.5))
    x, y, lp = np.zeros((6, 2)), np.ones((6, 2)), lp_x.copy()
    counts = np.zeros(6, dtype=int)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            flags = accept_batch(x, lp, y, lp_y, log_u, counts)
    assert flags.tolist() == (log_u < lp_y - lp_x).tolist() == [False, True, True, True, False, True]
    assert counts.tolist() == [0] * 6
    assert np.array_equal(lp, np.where(flags, lp_y, lp_x))


def test_run_lockstep_decides_huge_finite_ratios_as_run_chain_without_warnings():
    # A log-density of slope 1e200: every ratio is finite and huge, so each step's finite test
    # overflows inside run_lockstep's own errstate scope.  The flags are run_chain's.
    def log_density(x):
        x = np.asarray(x)
        return 1e200 * x[..., 0] if x.ndim > 1 else 1e200 * float(x[0])

    target = Target(dim=2, log_density=log_density, name="steep")
    x0 = np.array([2.5, -2.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = chain.run_chain(make_rwmh_kernel(target, 3.0), x0, 300, 4)
        run = chain.run_lockstep([make_rwmh_kernel(target, 1.0)], log_density, x0[None], [3.0], 300, [chain.chain_rng(4)], 2)
    assert 0.0 < trace.accepted.mean() < 1.0
    assert np.array_equal(run.accepted[:, 0], trace.accepted)
    assert run.n_nonfinite.tolist() == [0] == [trace.n_nonfinite_proposals]
    assert np.array_equal(chain.lockstep_path(run, 0), trace.states)


@pytest.mark.parametrize(
    "n_iter, message", [(2.5, "n_iter must be an integer, got 2.5"), (True, "n_iter must be an integer, got True"),
                        (0, "n_iter must be >= 1, got 0")]
)
def test_run_chain_names_an_n_iter_that_is_not_a_positive_integer(n_iter, message):
    kernel = make_rwmh_kernel(make_iid_gaussian(2), 1.0)
    with pytest.raises(ValueError, match=re.escape(message)):
        chain.run_chain(kernel, np.zeros(2), n_iter, 1)


def test_check_positive_takes_only_numbers_in_the_open_half_line():
    for good in (0.5, 3, np.float32(1e-30), np.int64(2), [1, 2.5], np.full((2, 3), 1e300)):
        chain._check_positive("scale", good)
    # NaN fails every comparison; "1.0" would pass a float conversion and fail only when the chain runs
    for bad in (0.0, -1.0, math.nan, math.inf, [1.0, math.nan], np.array([2.0, 0.0]), True, "1.0", None, 1j):
        with pytest.raises(ValueError, match="^scale must be positive and finite, got "):
            chain._check_positive("scale", bad)


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
