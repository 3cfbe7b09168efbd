import csv
import math
import multiprocessing
import os
import re
from dataclasses import asdict, replace

import numpy as np
import pytest

from tmcmc.baseline_kernels import HmcConfig, make_hmc_kernel, make_rwmh_kernel
from tmcmc.chain import lockstep_path, run_chain, run_lockstep
from tmcmc.diagnostics import acceptance_rate, iact_and_ess
from tmcmc.scaling import (
    ESS_COORD_BLOCK,
    STUDY_KERNELS,
    ScalingStudySpec,
    _cell_rng,
    fixed_scale_ar_curve,
    run_scaling_study,
    run_study_group,
    study_groups,
    write_aggregate_csv,
    write_study_csv,
)
from tmcmc.targets import Target, make_iid_gaussian
from tmcmc.transform_kernels import TmcmcConfig, make_additive_tmcmc_kernel

TINY = ScalingStudySpec(
    dims=(4,), ell_grid=(1.2, 2.0, 2.8), n_iter=4_000, burn_in=500, seeds=(1, 2)
)


def test_spec_validation():
    with pytest.raises(ValueError):
        ScalingStudySpec(dims=())
    with pytest.raises(ValueError):
        ScalingStudySpec(ell_grid=(0.0,))
    with pytest.raises(ValueError):
        ScalingStudySpec(n_iter=100, burn_in=100)
    with pytest.raises(ValueError):
        ScalingStudySpec(target_family="cauchy")
    with pytest.raises(ValueError):
        ScalingStudySpec(kernels=("nuts",))
    # a repeat would run the same cells twice and count them as more seeds
    for field, values in [("dims", (4, 4)), ("ell_grid", (2.0, 2.0, 3.0)), ("seeds", (1, 2, 1)),
                          ("kernels", ("rwmh", "rwmh"))]:
        with pytest.raises(ValueError, match=f"{field} must not repeat"):
            replace(TINY, **{field: values})
    # fewer kept iterations than the ESS needs: refused before any chain runs
    with pytest.raises(ValueError, match="n_iter - burn_in >= 100"):
        replace(TINY, n_iter=150, burn_in=100)
    assert replace(TINY, n_iter=200, burn_in=100).n_iter == 200


@pytest.mark.parametrize(
    "field, value, message",
    [("dims", (2.5,), "dims must be an integer, got 2.5"), ("dims", (True,), "dims must be an integer, got True"),
     ("dims", (4, 0), "dims must be >= 1, got 0"), ("n_iter", 300.5, "n_iter must be an integer, got 300.5"),
     ("burn_in", 50.0, "burn_in must be an integer, got 50.0"), ("seeds", (1.5,), "seeds must be an integer, got 1.5"),
     ("seeds", (-1,), "seeds must be >= 0, got -1"), ("ell_grid", (2.0, math.nan), "ell_grid must be positive")],
)
def test_spec_names_a_field_that_no_group_could_run(field, value, message):
    # Refused when the spec is made, before any group runs.
    with pytest.raises(ValueError, match=re.escape(message)):
        replace(TINY, **{field: value})
    assert replace(TINY, dims=(np.int64(4),), seeds=(np.int64(0),)).dims == (4,)


def test_study_cells_and_report_are_deterministic():
    r1 = run_scaling_study(TINY, n_workers=1)
    r2 = run_scaling_study(TINY, n_workers=1)
    for a, b in zip(r1.rows, r2.rows):
        da, db = asdict(a), asdict(b)
        da.pop("wall_ms"), db.pop("wall_ms")
        assert da == db
    assert [asdict(o) for o in r1.optima] == [asdict(o) for o in r2.optima]


def run_study_cell(kernel_name, k, ell, seed, spec):
    """One grid cell, run as a one-cell group; deterministic given its arguments."""
    return run_study_group((k, ((seed, kernel_name),)), replace(spec, ell_grid=(ell,)))[0]


def test_cell_uses_common_streams_across_scales():
    a = run_study_cell("rwmh", 4, 1.2, 7, TINY)
    b = run_study_cell("rwmh", 4, 2.8, 7, TINY)
    # same seed slice, different scale: results differ but both deterministic
    assert a.accept_rate != b.accept_rate
    again = run_study_cell("rwmh", 4, 1.2, 7, TINY)
    assert again.accept_rate == a.accept_rate
    assert again.ess_per_iter == a.ess_per_iter


def _reference_kernel(kernel, target, scale):
    """The study kernel ``kernel`` at its own ``scale``."""
    if kernel == "additive-tmcmc":
        return make_additive_tmcmc_kernel(target, TmcmcConfig(eps_scale=scale))
    return make_rwmh_kernel(target, scale)


def _reference_chain(kernel, target, scale, x0, n_iter, rng, n_coords):
    """``run_chain`` of the kernel at ``scale`` on ``rng``: the engine's chain, in the same block layout."""
    return run_chain(_reference_kernel(kernel, target, scale), x0, n_iter, rng, record_coords=range(n_coords))


def _lockstep_kernels(names, target):
    """The kernel objects ``run_lockstep`` takes: each chain runs at its own scale."""
    return [make_additive_tmcmc_kernel(target, TmcmcConfig()) if name == "additive-tmcmc"
            else make_rwmh_kernel(target, 1.0) for name in names]


def _assert_chains_equal_references(kernels, target, scales, x0, n_iter, run, reference_start, assert_block_steps,
                                    layouts):
    """Every (stream, scale) chain of ``run`` against its own ``run_chain``.

    ``kernels[g]`` is stream ``g``'s kernel and ``scales`` the ``(C,)`` or
    ``(G, C)`` scales ``run`` was given; ``reference_start(g)`` gives its
    start and a fresh generator at the state the lockstep stream began
    stepping from.  Each ``run_chain`` is in turn checked against the
    kernel's single transitions in block order (``assert_block_steps``, the
    layouts of ``block_layouts``).
    """
    n_coords = run.x0.shape[1]
    rows = np.broadcast_to(scales, (len(kernels), np.shape(scales)[-1]))
    assert run.accepted.shape == (n_iter, rows.size)
    for g, kernel in enumerate(kernels):
        for c, scale in enumerate(rows[g]):
            start, rng = reference_start(g)
            trace = _reference_chain(kernel, target, scale, start, n_iter, rng, n_coords)
            col = g * rows.shape[1] + c
            assert np.array_equal(run.accepted[:, col], trace.accepted)
            assert np.array_equal(lockstep_path(run, col), trace.states)
            for j in range(n_coords):
                assert np.array_equal(lockstep_path(run, col, j), trace.states[:, j])
            for lo, hi in ((0, n_coords), (1, n_coords), (0, (n_coords + 1) // 2)):
                assert np.array_equal(lockstep_path(run, col, slice(lo, hi)), trace.states[:, lo:hi])
            assert run.n_nonfinite[col] == trace.n_nonfinite_proposals
            start, rng = reference_start(g)
            layout = layouts.sign_moves(start.size) if kernel == "additive-tmcmc" else layouts.normals(start.size)
            assert_block_steps(trace, _reference_kernel(kernel, target, scale), start, rng, layout)


MIXED_STREAMS = [(11, "additive-tmcmc"), (12, "additive-tmcmc"), (11, "rwmh"), (12, "rwmh"), (13, "rwmh")]
LOCKSTEP_STREAMS = [
    *(pytest.param([(seed, kernel) for seed in (11, 12, 13)], None, id=kernel) for kernel in STUDY_KERNELS),
    # both kernels in one group, the additive streams first
    pytest.param(MIXED_STREAMS, None, id="mixed"),
    # the same streams, each at its own row of (G, C) scales: the row is the shared one times its factor
    pytest.param(MIXED_STREAMS, (1.0, 0.6, 1.3, 0.8, 1.7), id="mixed-own-scales"),
]


@pytest.mark.parametrize("streams, stream_factors", LOCKSTEP_STREAMS)
@pytest.mark.parametrize("k", [1, 4, 100])
def test_lockstep_cells_equal_single_chain_runs(streams, stream_factors, k, assert_block_steps, block_layouts):
    n_iter, ells = 1_500, (0.4, 1.6, 2.8, 6.0)
    n_coords = min(ESS_COORD_BLOCK, k)
    kernels = [kernel for _, kernel in streams]
    target = make_iid_gaussian(k)
    scales = [ell / np.sqrt(k) for ell in ells]
    if stream_factors is not None:
        scales = [[f * scale for scale in scales] for f in stream_factors]
    rngs = [_cell_rng(seed, kernel, k) for seed, kernel in streams]
    x0 = np.array([rng.standard_normal(k) for rng in rngs])
    run = run_lockstep(_lockstep_kernels(kernels, target), target.log_density, x0, scales, n_iter, rngs, n_coords)

    def reference_start(g):
        rng = _cell_rng(*streams[g], k)
        return rng.standard_normal(k), rng

    _assert_chains_equal_references(kernels, target, scales, x0, n_iter, run, reference_start, assert_block_steps,
                                        block_layouts)
    assert run.n_nonfinite.sum() == 0
    n_additive = kernels.count("additive-tmcmc")
    assert run.n_signed == n_additive
    # the additive directions are kept as sign bits, the rwmh ones as floats
    assert run.signs.dtype == bool and run.signs.shape == (1_500, n_additive, n_coords)
    assert run.normals.dtype == float and run.normals.shape == (1_500, len(streams) - n_additive, n_coords)


@pytest.mark.parametrize("n_iter", [1, 255, 256, 257, 600])
def test_lockstep_blocks_equal_single_chain_runs(n_iter, assert_block_steps, block_layouts):
    # around the 256-step block: one step, one block less a step, one block, one more, a partial third
    k, n_coords = 3, 2
    target = make_iid_gaussian(k)
    kernels = [kernel for _, kernel in MIXED_STREAMS]
    scales = [[f * s for s in (0.3, 0.9, 2.0)] for f in (1.0, 0.6, 1.3, 0.8, 1.7)]
    rngs = [_cell_rng(seed, kernel, k) for seed, kernel in MIXED_STREAMS]
    x0 = np.array([rng.standard_normal(k) for rng in rngs])
    run = run_lockstep(_lockstep_kernels(kernels, target), target.log_density, x0, scales, n_iter, rngs, n_coords)

    def reference_start(g):
        rng = _cell_rng(*MIXED_STREAMS[g], k)
        return rng.standard_normal(k), rng

    # at n_iter = 1 each reference is a single transition on a plain generator
    _assert_chains_equal_references(kernels, target, scales, x0, n_iter, run, reference_start, assert_block_steps,
                                        block_layouts)


def test_lockstep_applies_the_nonfinite_rules(assert_block_steps, block_layouts):
    # -inf above x_0 = 1.5 and NaN below x_0 = -1.5: such proposals are
    # auto-rejected and counted.  The chains of the first group start at
    # x_0 = 3 (-inf), where any finite proposal is accepted.
    base = make_iid_gaussian(3)

    def log_density(x):
        x = np.asarray(x, dtype=float)
        lp = np.where(x[..., 0] > 1.5, -np.inf, np.where(x[..., 0] < -1.5, np.nan, base.log_density(x)))
        return lp if x.ndim > 1 else float(lp)

    target = Target(dim=3, log_density=log_density)
    x0 = np.array([[3.0, 0.1, -0.2], [0.5, -1.0, 0.3]])
    scales = [0.3, 1.0, 2.5]

    def reference_start(g):
        return x0[g], np.random.default_rng(5 + g)

    for kernels in [(kernel, kernel) for kernel in STUDY_KERNELS] + [("additive-tmcmc", "rwmh")]:
        rngs = [np.random.default_rng(5 + g) for g in range(2)]
        run = run_lockstep(_lockstep_kernels(kernels, target), log_density, x0, scales, 2_000, rngs, 3)
        _assert_chains_equal_references(kernels, target, scales, x0, 2_000, run, reference_start, assert_block_steps,
                                        block_layouts)
        assert run.n_nonfinite.min() > 0


def test_lockstep_path_rejects_a_chain_outside_the_run():
    # chain -1 used to pair the last rwmh column of ``accepted`` with the last sign stream's record
    target = make_iid_gaussian(3)
    rngs = [np.random.default_rng(g) for g in range(2)]
    run = run_lockstep(_lockstep_kernels(STUDY_KERNELS, target), target.log_density, np.zeros((2, 3)), [0.5, 1.0],
                       50, rngs, 3)
    assert lockstep_path(run, 3).shape == (50, 3)
    for chain in (-1, -4, 4, 9):
        with pytest.raises(ValueError, match=rf"chain must lie in \[0, 4\), got {chain}"):
            lockstep_path(run, chain)


def test_lockstep_rejects_unknown_kernels_misordered_and_ragged_streams():
    target = make_iid_gaussian(2)
    x0, rngs = np.zeros((2, 2)), [np.random.default_rng(g) for g in range(2)]
    additive, rwmh = _lockstep_kernels(STUDY_KERNELS, target)
    hmc = make_hmc_kernel(target, HmcConfig(L=2, dt=0.3))
    asymmetric = make_additive_tmcmc_kernel(target, TmcmcConfig(p=0.3, q=0.7))
    # run_chain draws it in blocks, but its acceptance needs the move ratio: no engine stream
    assert asymmetric.direction is None
    for kernels in ((additive, hmc), (hmc, hmc), (asymmetric, rwmh), (rwmh, additive), (rwmh,)):
        with pytest.raises(ValueError, match="one symmetric kernel"):
            run_lockstep(kernels, target.log_density, x0, [1.0], 10, rngs, 2)
    with pytest.raises(ValueError, match="one symmetric kernel"):
        run_lockstep((additive, rwmh), target.log_density, x0, [1.0], 10, rngs[:1], 2)

    def never(x):
        raise AssertionError("the arguments are checked before the first log-density call")

    for kernels in ((additive, rwmh), (rwmh, rwmh)):
        with pytest.raises(ValueError, match="n_iter must be >= 1"):
            run_lockstep(kernels, never, x0, [1.0], 0, rngs, 2)
        for n_record in (0, 3):  # 0 would record nothing; 3 exceeds k = 2
            with pytest.raises(ValueError, match=r"n_record must lie in \[1, 2\]"):
                run_lockstep(kernels, never, x0, [1.0], 10, rngs, n_record)
        for scales in ([], [[1.0]], np.ones((3, 1)), np.ones((2, 0)), np.ones((2, 1, 1))):
            with pytest.raises(ValueError, match=r"scales must have shape \(C,\) or \(2, C\)"):
                run_lockstep(kernels, never, x0, scales, 10, rngs, 2)


def test_slice_cells_match_the_single_chain_study_metrics():
    n_coords = min(ESS_COORD_BLOCK, 4)
    rows = run_study_group((4, ((3, "additive-tmcmc"), (3, "rwmh"))), TINY)
    # (ell, stream) order
    assert [(r.ell, r.kernel) for r in rows] == [(e, kn) for e in TINY.ell_grid for kn in STUDY_KERNELS]
    for row in rows:
        rng = _cell_rng(3, row.kernel, 4)
        x0 = rng.standard_normal(4)
        trace = _reference_chain(row.kernel, make_iid_gaussian(4), row.ell / np.sqrt(4), x0, TINY.n_iter, rng, n_coords)
        tail = trace.tail(TINY.burn_in)
        ess = float(np.mean([iact_and_ess(tail, j)[1] for j in range(n_coords)]))
        assert row.accept_rate == acceptance_rate(tail)
        assert row.ess_per_iter == ess / len(tail)
        one = run_study_cell(row.kernel, 4, row.ell, 3, TINY)
        assert (one.accept_rate, one.ess_per_iter) == (row.accept_rate, row.ess_per_iter)


def test_group_of_seeds_equals_each_seed_run_alone():
    spec = replace(TINY, seeds=(1, 2, 3))
    together = run_scaling_study(spec, n_workers=1)
    alone = [run_scaling_study(replace(spec, seeds=(s,)), n_workers=1).rows for s in spec.seeds]
    # grid order (kernel, k, ell, seed): seed s's rows are every third row
    assert _without_wall(together.rows) == _without_wall(
        [row for cells in zip(*alone) for row in cells]
    )
    # a cell's wall_ms is its group's loop time over the group's chains: serially
    # each kernel's three streams make one group, so each kernel shows its own wall_ms
    wall = {kernel: {r.wall_ms for r in together.rows if r.kernel == kernel} for kernel in STUDY_KERNELS}
    assert [len(w) for w in wall.values()] == [1, 1]


def _without_wall(rows):
    return [{k: v for k, v in asdict(r).items() if k != "wall_ms"} for r in rows]


def test_study_report_is_independent_of_worker_count():
    serial = run_scaling_study(TINY, n_workers=1)
    pooled = run_scaling_study(TINY, n_workers=2)
    assert _without_wall(pooled.rows) == _without_wall(serial.rows)
    assert [asdict(o) for o in pooled.optima] == [asdict(o) for o in serial.optima]
    one_pair = replace(TINY, kernels=("rwmh",))  # two workers, one pair: one group per seed, in two processes
    split = run_scaling_study(one_pair, n_workers=2)
    assert _without_wall(split.rows) == _without_wall([r for r in serial.rows if r.kernel == "rwmh"])
    # rows come in grid order: kernel, k, ell, seed
    keys = [(r.kernel, r.k, r.ell, r.seed) for r in serial.rows]
    assert keys == [(kn, k, e, s) for kn in TINY.kernels for k in TINY.dims for e in TINY.ell_grid for s in TINY.seeds]
    # kernels listed rwmh first: the groups still step the additive streams first, the rows follow the spec
    swapped = run_scaling_study(replace(TINY, kernels=("rwmh", "additive-tmcmc")), n_workers=1)
    assert _without_wall(swapped.rows) == _without_wall(
        [r for r in serial.rows if r.kernel == "rwmh"] + [r for r in serial.rows if r.kernel == "additive-tmcmc"]
    )


@pytest.mark.parametrize("n_workers,pool", [(1, []), (2, [2]), (3, [3]), (64, [12])])
def test_mixed_kernel_groups_give_the_rows_of_each_kernel_alone(n_workers, pool, pool_sizes):
    spec = replace(TINY, dims=(4, 8), seeds=(1, 2, 3))
    report = run_scaling_study(spec, n_workers=n_workers)  # groups mapped in-process
    alone = {kn: run_scaling_study(replace(spec, kernels=(kn,)), n_workers=1) for kn in spec.kernels}
    assert _without_wall(report.rows) == _without_wall(alone["additive-tmcmc"].rows + alone["rwmh"].rows)
    assert [asdict(o) for o in report.optima] == [asdict(o) for kn in spec.kernels for o in alone[kn].optima]
    # 1 and 2 workers: one group a kernel; 3: three, the second (3, additive), (1, rwmh); 64: one a stream
    assert pool_sizes == pool


def test_study_pool_is_capped_at_its_group_count(pool_sizes, monkeypatch):
    from tmcmc import chain

    run_scaling_study(TINY, n_workers=64)
    monkeypatch.setattr(chain.os, "cpu_count", lambda: 64)
    run_scaling_study(TINY)
    n_streams = len(TINY.kernels) * len(TINY.dims) * len(TINY.seeds)  # 64 workers: one stream a group
    assert pool_sizes == [n_streams, n_streams]


def test_study_groups_split_seeds_for_workers_and_memory(monkeypatch):
    from tmcmc import chain, scaling

    spec = replace(TINY, dims=(4, 8), seeds=tuple(range(1, 11)))
    streams = tuple((s, kn) for kn in spec.kernels for s in spec.seeds)  # kernel-major
    # at most GROUP_STREAMS = 4 streams a group; at least one a worker in every dimension
    cases = [
        (1, [4, 4, 4, 4, 4]),
        (0, [4, 4, 4, 4, 4]),
        (3, [4, 4, 4, 4, 4]),
        (5, [4, 4, 4, 4, 4]),
        (6, [3, 3, 4, 3, 3, 4]),
        (7, [2, 3, 3, 3, 3, 3, 3]),
        (64, [1] * 20),
    ]
    for n_workers, lengths in cases:
        groups = study_groups(spec, n_workers)
        assert [g[0] for g in groups] == [k for k in spec.dims for _ in lengths]
        for dim in range(len(spec.dims)):
            own = groups[dim * len(lengths):(dim + 1) * len(lengths)]
            assert [len(g[1]) for g in own] == lengths
            assert sum((g[1] for g in own), ()) == streams
    monkeypatch.setattr(chain.os, "cpu_count", lambda: 20)
    assert [g[1] for g in study_groups(spec)[:20]] == [(s,) for s in streams]
    # the default study, serial or on two workers: one group a kernel in every dimension,
    # so the k = 100 dimension alone fills two workers
    for n_workers in (1, 2):
        default = study_groups(ScalingStudySpec(), n_workers)
        assert [(k, {kn for _, kn in g}) for k, g in default] == [
            (k, {kn}) for k in (10, 30, 100) for kn in STUDY_KERNELS
        ]
        assert [len(g) for _, g in default] == [4] * 6
    # one seed, both kernels, serial (the shape of a perfbench study pass): one group
    assert study_groups(replace(TINY, seeds=(1,)), 1) == [(4, ((1, "additive-tmcmc"), (1, "rwmh")))]
    monkeypatch.setattr(scaling, "GROUP_STREAMS", 2)
    assert [len(g[1]) for g in study_groups(spec, 1)] == [2] * 20


def test_split_groups_give_the_rows_of_whole_ones(pool_sizes, monkeypatch):
    from tmcmc import scaling

    spec = replace(TINY, seeds=(1, 2, 3))
    whole = run_scaling_study(spec, n_workers=1)
    singles = run_scaling_study(spec, n_workers=64)  # one group per stream, mapped in-process
    monkeypatch.setattr(scaling, "GROUP_STREAMS", 2)
    # three groups, the second holding both kernels
    assert [g[1] for g in study_groups(spec, 1)] == [
        ((1, "additive-tmcmc"), (2, "additive-tmcmc")),
        ((3, "additive-tmcmc"), (1, "rwmh")),
        ((2, "rwmh"), (3, "rwmh")),
    ]
    uneven = run_scaling_study(spec, n_workers=1)
    assert pool_sizes == [6]
    for report in (singles, uneven):
        assert _without_wall(report.rows) == _without_wall(whole.rows)
        assert [asdict(o) for o in report.optima] == [asdict(o) for o in whole.optima]


def test_failed_group_keeps_the_rows_of_finished_groups(pool_sizes, monkeypatch):
    from tmcmc import scaling

    run_group = scaling.run_study_group

    def fail_on_seed_1_rwmh_of_k_8(group, spec):
        if group == (8, ((1, "rwmh"),)):
            raise MemoryError("worker lost")
        return run_group(group, spec)

    monkeypatch.setattr(scaling, "run_study_group", fail_on_seed_1_rwmh_of_k_8)
    spec = replace(TINY, dims=(4, 8))
    with pytest.raises(RuntimeError, match="worker lost") as info:
        run_scaling_study(spec, n_workers=64)  # one group per stream, mapped in-process
    assert pool_sizes == [8]
    # every group of k = 4 and the additive ones of k = 8 finished: their rows, in grid order
    whole = run_scaling_study(spec, n_workers=1).rows
    expected = [r for r in whole if r.k == 4 or r.kernel == "additive-tmcmc"]
    assert len(expected) == 2 * 3 * 2 + 3 * 2
    assert _without_wall(info.value.partial_report.rows) == _without_wall(expected)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patch reaches the child by fork")
def test_dead_worker_keeps_the_rows_of_the_groups_before_its_lost_one(monkeypatch):
    from tmcmc import scaling

    run_group = scaling.run_study_group
    spec = replace(TINY, dims=(4, 8))
    groups = study_groups(spec, 2)
    lost = groups[3]  # the second of the child's two groups (1 and 3); the caller runs 0 and 2
    caller = os.getpid()

    def exit_on_the_lost_group(group, spec):
        if group == lost and os.getpid() != caller:
            os._exit(3)
        return run_group(group, spec)

    monkeypatch.setattr(scaling, "run_study_group", exit_on_the_lost_group)
    with pytest.raises(RuntimeError, match="exited with code 3") as info:
        run_scaling_study(spec, n_workers=2)
    assert multiprocessing.active_children() == []
    # the child's first group and both of the caller's finished: 18 of the 24 rows, in grid order
    whole = run_scaling_study(spec, n_workers=1).rows
    lost_streams = set(lost[1])
    expected = [r for r in whole if not (r.k == lost[0] and (r.seed, r.kernel) in lost_streams)]
    assert len(groups) == 4 and len(expected) == 18
    assert _without_wall(info.value.partial_report.rows) == _without_wall(expected)


@pytest.mark.parametrize("n_workers", [1, 2])
def test_failed_slice_keeps_rows_of_finished_slices(n_workers):
    spec = ScalingStudySpec(dims=(4,), ell_grid=TINY.ell_grid, n_iter=TINY.n_iter, burn_in=TINY.burn_in, seeds=(1,))
    # k = 0 gets past the spec's validation this way, so the groups of
    # k = 0 raise inside whichever process runs them.
    object.__setattr__(spec, "dims", (4, 0))
    with pytest.raises(RuntimeError, match="k must be >= 1") as info:
        run_scaling_study(spec, n_workers=n_workers)
    partial = info.value.partial_report
    assert partial.partial and partial.optima == []
    # the groups of k = 4 finished: both kernels' rows, in grid order
    cells = run_study_group((4, ((1, "additive-tmcmc"), (1, "rwmh"))), spec)
    assert _without_wall(partial.rows) == _without_wall(cells[0::2] + cells[1::2])


def test_report_grid_shape_and_optima():
    report = run_scaling_study(TINY, n_workers=1)
    assert len(report.rows) == 2 * 1 * 3 * 2  # kernels x dims x ells x seeds
    assert {o.kernel for o in report.optima} == {"additive-tmcmc", "rwmh"}
    for o in report.optima:
        assert TINY.ell_grid[0] <= o.ell_star <= TINY.ell_grid[-1]
        assert 0.0 <= o.accept_rate <= 1.0
        assert o.ell_argmax in TINY.ell_grid


def test_csv_schemas(tmp_path):
    report = run_scaling_study(TINY, n_workers=1)
    grid = tmp_path / "grid.csv"
    agg = tmp_path / "agg.csv"
    write_study_csv(report.rows, grid)
    write_aggregate_csv(report.rows, agg)
    with open(grid) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["kernel", "k", "ell", "seed", "accept_rate", "ess_per_iter", "wall_ms"]
    assert len(rows) == 1 + len(report.rows)
    with open(agg) as fh:
        arows = list(csv.reader(fh))
    assert arows[0] == ["kernel", "k", "ell", "mean_accept_rate", "mean_ess_per_iter", "n_seeds"]
    assert len(arows) == 1 + 2 * 3

    report.write_summary_json(tmp_path / "summary.json")
    import json

    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["partial"] is False
    assert len(payload["optima"]) == 2


def test_fixed_scale_curves_show_kernel_ordering():
    curves = fixed_scale_ar_curve(dims=(2, 8), n_iter=4_000, seed=5)
    assert np.all(curves["additive-tmcmc"] > curves["rwmh"])
    assert np.all(np.diff(curves["rwmh"]) < 0)
