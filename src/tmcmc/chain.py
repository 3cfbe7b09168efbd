"""Chain driving, tracing, and reproducible seeding shared by all kernels.

Kernel protocol.  A kernel is a pure function ``kernel(state, rng) -> Step``
over an explicit ``ChainState``: the position ``x``, its log-density ``lp``
and, for HMC only, its score ``grad = grad log pi(x)``.  The factory that builds
a kernel also sets the function attribute ``kernel.init(x) -> ChainState``,
which evaluates what the state carries once.  ``run_chain`` calls ``init``
once and then hands each step's ``state`` to the next, so a transition
evaluates the target only at its proposal, and one kernel object can drive
any number of chains.  A block-drawn kernel (additive, random walk, HMC)
also sets ``kernel.draw(rng, out)``, which fills a ``(k,)`` or ``(b, k)``
``out`` with each step's input, and ``kernel.propose(state, row)``, which
returns a proposal and its ``log_alpha``; a transition is one ``(k,)`` row,
``propose`` and ``accept_step``.  Symmetric ones also set ``kernel.direction``.

One accept rule.  Every kernel ends its transition in ``accept_step``: it
draws one uniform ``u`` and accepts iff ``log u < log_alpha``.  The step
records ``u`` and ``log_alpha``, so traces are replayable:
``accepted == (log(u) < log_alpha)`` holds row by row.  The block runners
draw their uniforms ahead and take the same decision on each.

The non-finite rule (``nonfinite_rule``, which ``accept_batch`` applies to
the whole batch of a lockstep loop): a proposal whose log-density is not finite
is rejected with ``log_alpha = -inf`` and counted in
``Trace.meta["n_nonfinite_proposals"]``, so rejected excursions never write
NaN into the trace; a finite proposal from a state whose log-density is not
finite is accepted (``log_alpha = +inf``).  Kernels report any other broken
proposal, a divergent HMC trajectory or a non-finite log-Jacobian, as one
with log-density ``-inf``.

One block layout.  ``run_lockstep`` steps ``G`` streams of ``C`` chains,
each on its own generator with its own symmetric kernel.  A stream draws
ahead in blocks of 256 steps: one call of its kernel's own draw
``kernel.direction`` on a ``(b, k)`` block, then ``b`` acceptance uniforms.
Each step is then one batched log-density call and one ``accept_batch``.
``run_chain``, and so ``tmcmc sample``, runs a block-drawn kernel in the
same layout, ``b`` rows through ``kernel.draw`` and then ``b`` uniforms, a
step being one ``kernel.propose``: a symmetric kernel's chain equals the
engine's stream of one chain, and the additive kernel draws the same with
``p != q``.  Any other kernel steps one transition at a time.  A one-step
block is the draw order of the kernel's own transition; longer runs hand
the same stream's numbers to their steps in block order.  So a block-drawn
run of ``n`` steps equals a longer run on the same seed only through its
last full block, row ``256 * (n // 256)``.  ``lockstep_path`` rebuilds any
chain of an engine run bit for bit.

One process pool.  ``map_tasks`` runs independent tasks on ``W`` workers,
the caller one of them.  The caller starts ``W - 1`` child processes, each
running every ``W``-th task and sending its outcomes back over its own pipe;
it runs its own share meanwhile and then yields the results in task order.
A child that dies fails only the tasks of its share it had not sent.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

__all__ = [
    "ChainState",
    "Step",
    "Trace",
    "Kernel",
    "chain_rng",
    "init_state",
    "nonfinite_rule",
    "accept_step",
    "accept_batch",
    "run_chain",
    "Lockstep",
    "run_lockstep",
    "lockstep_path",
    "map_tasks",
]


class ChainState(NamedTuple):
    """Position, its log-density and, for HMC, ``grad log pi(x)``."""

    x: np.ndarray
    lp: float
    grad: Optional[np.ndarray] = None


class Step(NamedTuple):
    """Outcome of one transition: the next state and how it was decided."""

    state: ChainState
    accepted: bool
    log_alpha: float
    uniform: float
    nonfinite: bool


Kernel = Callable[[ChainState, np.random.Generator], Step]

CSV_BLOCK_ROWS = 4096  # rows per block in ``Trace.write_csv``
_BLOCK_STEPS = 256  # steps each ``run_lockstep`` stream draws ahead


def chain_rng(seed: int, chain_index: int = 0) -> np.random.Generator:
    """Generator for chain ``chain_index`` of run seed ``seed``.

    The derivation is ``SeedSequence(entropy=seed, spawn_key=(chain_index,))``
    feeding a PCG64 stream; it is documented so multi-chain runs can be
    reproduced cell by cell.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chain_index,)))


def init_state(log_density: Callable[[np.ndarray], float]) -> Callable[[np.ndarray], ChainState]:
    """``kernel.init`` for kernels whose state is ``(x, log pi(x))``."""

    def init(x) -> ChainState:
        x = np.asarray(x, dtype=float)
        return ChainState(x, log_density(x))

    return init


def nonfinite_rule(log_alpha, lp_current, lp_proposal):
    """``(log_alpha, nonfinite)`` after the non-finite rule, for floats or ``(C,)`` arrays.

    A non-finite proposal log-density forces ``log_alpha = -inf`` and is
    flagged; otherwise a non-finite current one forces ``+inf``.  With both
    finite ``log_alpha`` is returned unchanged.
    """
    nonfinite = ~np.isfinite(lp_proposal)
    log_alpha = np.where(nonfinite, -math.inf, np.where(np.isfinite(lp_current), log_alpha, math.inf))
    return log_alpha, nonfinite


def accept_step(state: ChainState, proposal: ChainState, log_alpha: float, rng: np.random.Generator) -> Step:
    """Metropolis test of ``proposal`` against ``state`` with a recorded uniform.

    Kernels compute ``log_alpha`` from both log-densities, so it is
    non-finite whenever either is; only then does the non-finite rule run.
    """
    u = float(rng.random())
    return _decide(state, proposal, log_alpha, u, _log_u(u))


def _log_u(u: float) -> float:
    # math.log, not np.log, which can differ in the last bit; log 0 = -inf
    return math.log(u) if u > 0.0 else -math.inf


def _decide(state: ChainState, proposal: ChainState, log_alpha: float, u: float, log_u: float) -> Step:
    """``accept_step``'s decision on a given uniform ``u`` and its ``_log_u``."""
    nonfinite = False
    if not math.isfinite(log_alpha):
        log_alpha, nonfinite = nonfinite_rule(log_alpha, state.lp, proposal.lp)
        log_alpha, nonfinite = float(log_alpha), bool(nonfinite)
    accepted = log_u < log_alpha
    return Step(proposal if accepted else state, accepted, log_alpha, u, nonfinite)


def _draw_block(draw, rng: np.random.Generator, d: np.ndarray):
    """One stream's draws for ``b = len(d)`` steps, in the block layout.

    ``draw(rng, d)`` fills the ``(b, k)`` rows: a ``kernel.direction``
    fills the directions and returns the ``(b,)`` innovations ``r``, a
    ``kernel.draw`` fills each step's input and returns None.  Then come
    the ``b`` acceptance uniforms.  Returns ``(r, uniforms, log_u)``, the
    last two as lists of floats.
    """
    r = draw(rng, d)
    uniforms = rng.random(len(d)).tolist()
    return r, uniforms, [_log_u(u) for u in uniforms]


def _block_kernel(init, draw, propose) -> Kernel:
    """The block-drawn kernel of these hooks; its transition is a one-step block of ``_block_steps``."""

    def kernel(state: ChainState, rng: np.random.Generator) -> Step:
        row = np.empty_like(state.x)
        draw(rng, row)
        proposal, log_alpha = propose(state, row)
        return accept_step(state, proposal, log_alpha, rng)

    kernel.init, kernel.draw, kernel.propose = init, draw, propose
    return kernel


def accept_batch(x: np.ndarray, lp_x: np.ndarray, y: np.ndarray, lp_y: np.ndarray, log_u, n_nonfinite: np.ndarray):
    """``accept_step``'s decision for a ``(C, k)`` batch of symmetric proposals, in place.

    Row ``c`` of ``(x, lp_x)`` takes row ``c`` of ``(y, lp_y)`` iff
    ``log_u[c] < log_alpha[c]``, where ``log_alpha = lp_y - lp_x`` after the
    non-finite rule; ``log_u`` may also be one value shared by every row.
    Non-finite proposals are counted into the ``(C,)`` array ``n_nonfinite``.
    Returns the ``(C,)`` accept flags.  Run it under
    ``np.errstate(invalid="ignore")``: an ``inf - inf`` is replaced by the rule.
    """
    log_alpha = lp_y - lp_x
    if not math.isfinite(log_alpha.sum()):  # some density is non-finite
        log_alpha, nonfinite = nonfinite_rule(log_alpha, lp_x, lp_y)
        n_nonfinite += nonfinite
    accepted = log_u < log_alpha
    np.copyto(x, y, where=accepted[:, None])
    np.copyto(lp_x, lp_y, where=accepted)
    return accepted


@dataclass
class Trace:
    """Ordered record of a single chain.

    ``states`` holds the recorded coordinates (all of them unless the runner
    was asked for a subset), one row per iteration after the initial state.
    """

    states: np.ndarray
    accepted: np.ndarray
    log_density: np.ndarray
    log_alpha: np.ndarray
    uniforms: np.ndarray
    recorded_coords: list[int]
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def n_nonfinite_proposals(self) -> int:
        return int(self.meta.get("n_nonfinite_proposals", 0))

    def tail(self, burn_in: int) -> "Trace":
        """Trace with the first ``burn_in`` iterations dropped."""
        if not 0 <= burn_in < len(self):
            raise ValueError(f"burn_in must be in [0, {len(self)}), got {burn_in}")
        return Trace(
            self.states[burn_in:],
            self.accepted[burn_in:],
            self.log_density[burn_in:],
            self.log_alpha[burn_in:],
            self.uniforms[burn_in:],
            self.recorded_coords,
            dict(self.meta, burn_in_dropped=burn_in),
        )

    def write_csv(self, path) -> None:
        """Write ``iter,accepted,log_density,x_0,...,x_{k-1}``.

        Values are written as the repr of Python floats.  A row whose values
        are bit-identical to the row above (a rejected step repeats its state)
        reuses that row's text, so the ``repr`` cost is paid once per distinct
        row and a trace's write cost scales with its acceptance rate.
        """
        cols = ",".join(f"x_{i}" for i in self.recorded_coords)
        line = "{},{},{}\n" if self.states.shape[1] else "{},{},{},\n"  # no coordinates: a trailing comma
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"iter,accepted,log_density,{cols}\n")
            # A block of rows at a time keeps memory bounded however long the trace
            # is.  Rows are compared by their bits, not by ==: 0.0 and -0.0 compare
            # equal but print differently, and NaN never compares equal.
            prev, text = None, None  # the bits and text of the last row written
            for start in range(0, len(self), CSV_BLOCK_ROWS):
                stop = start + CSV_BLOCK_ROWS
                lp = self.log_density[start:stop]
                block = np.empty((lp.shape[0], 1 + self.states.shape[1]))
                block[:, 0], block[:, 1:] = lp, self.states[start:stop]
                bits = block.view(np.uint64)
                new = np.empty(len(block), dtype=bool)
                new[0] = prev is None or (bits[0] != prev).any()
                new[1:] = (bits[1:] != bits[:-1]).any(axis=1)
                # texts[j] is the text of the j-th distinct row, texts[0] the previous block's last.
                texts = [text, *(",".join(map(repr, row)) for row in block[new].tolist())]
                flags = self.accepted[start:stop].astype(int).tolist()
                rows = map(texts.__getitem__, np.cumsum(new).tolist())
                fh.writelines(map(line.format, range(start, stop), flags, rows))
                prev, text = bits[-1].copy(), texts[-1]

    def summary(self) -> dict:
        """JSON-ready run summary (acceptance rate, per-coordinate ESS, timing)."""
        from .diagnostics import MIN_SAMPLES, acceptance_rate, iact_and_ess

        ess = {}
        if len(self) >= MIN_SAMPLES:
            for j, coord in enumerate(self.recorded_coords):
                _, e = iact_and_ess(self.states[:, j])
                ess[f"x_{coord}"] = e
        return {
            "seed": self.meta.get("seed"),
            "config": self.meta.get("config", {}),
            "n_iter": len(self),
            "accept_rate": acceptance_rate(self),
            "ess_per_coordinate": ess,
            "wall_time_s": self.meta.get("wall_time_s"),
        }


def run_chain(
    kernel: Kernel,
    x0: np.ndarray,
    n_iter: int,
    rng_seed: Union[int, np.random.Generator],
    record_coords: Optional[Sequence[int]] = None,
    meta: Optional[dict] = None,
) -> Trace:
    """Run ``n_iter`` transitions of ``kernel`` from ``kernel.init(x0)``.

    Deterministic given the seed.  A block-drawn kernel (one with
    ``kernel.propose``) draws in the block layout of ``run_lockstep``; any
    other kernel draws step by step.
    ``record_coords`` limits which coordinates are stored (memory control
    for large-k studies); flags, log-densities, acceptance thresholds and
    uniforms are always stored in full.
    """
    x0 = np.asarray(x0, dtype=float)
    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else chain_rng(int(rng_seed))

    coords = list(range(x0.size)) if record_coords is None else list(record_coords)
    if not all(0 <= c < x0.size for c in coords):
        raise ValueError(f"record_coords must lie in [0, {x0.size}), got {coords}")
    take = np.asarray(coords, dtype=np.intp)  # a list index costs ~3x as much per step
    states = np.empty((n_iter, len(coords)))
    accepted = np.empty(n_iter, dtype=bool)
    log_density = np.empty(n_iter)
    log_alpha = np.empty(n_iter)
    uniforms = np.empty(n_iter)

    n_bad = 0
    t0 = time.perf_counter()
    state = kernel.init(x0)
    steps = _block_steps if hasattr(kernel, "propose") else _kernel_steps
    for i, step in enumerate(steps(kernel, state, n_iter, rng)):
        state = step.state
        states[i] = state.x[take]
        accepted[i] = step.accepted
        log_density[i] = state.lp
        log_alpha[i] = step.log_alpha
        uniforms[i] = step.uniform
        n_bad += step.nonfinite
    wall = time.perf_counter() - t0

    info = dict(meta or {})
    info.setdefault("seed", None if isinstance(rng_seed, np.random.Generator) else int(rng_seed))
    info["wall_time_s"] = wall
    info["n_nonfinite_proposals"] = n_bad
    return Trace(states, accepted, log_density, log_alpha, uniforms, coords, info)


def _kernel_steps(kernel: Kernel, state: ChainState, n_iter: int, rng: np.random.Generator) -> Iterator[Step]:
    """``n_iter`` transitions of ``kernel`` from ``state``, each drawing its own numbers."""
    for _ in range(n_iter):
        step = kernel(state, rng)
        state = step.state
        yield step


def _block_steps(kernel: Kernel, state: ChainState, n_iter: int, rng: np.random.Generator) -> Iterator[Step]:
    """A block-drawn kernel's transitions in the block layout: ``kernel.draw``, then ``propose`` per row."""
    draw, propose = kernel.draw, kernel.propose
    buffer = np.empty((min(_BLOCK_STEPS, n_iter), state.x.size))
    for start in range(0, n_iter, len(buffer)):
        rows = buffer[: n_iter - start]
        _, uniforms, log_u = _draw_block(draw, rng, rows)
        for row, u, log_u_j in zip(rows, uniforms, log_u):
            proposal, log_alpha = propose(state, row)
            step = _decide(state, proposal, log_alpha, u, log_u_j)
            state = step.state
            yield step


class Lockstep(NamedTuple):
    """What ``run_lockstep`` records: enough to rebuild every chain's path.

    Stream ``g``'s chains are columns ``g * C .. g * C + C - 1`` of
    ``accepted``.  A sign-move stream ``g < n_signed`` keeps ``d = +-a`` as the
    sign bits ``signs[:, g]`` and ``|a|`` as ``a[g]``; any other stream keeps
    its ``d`` in ``normals[:, g - n_signed]``.
    """

    n_signed: int  # streams 0 .. n_signed - 1 draw sign moves d = +-a
    x0: np.ndarray  # (G, n_record): each stream's start, leading coordinates
    scales: np.ndarray  # (G, C): the proposal scale of chain (g, c) is scales[g, c]
    a: np.ndarray  # (G_sign, n_record): |a| of each sign-move stream's leading coordinates
    signs: np.ndarray  # (n_iter, G_sign, n_record) bool: signbit(d), so d = -a where True, +a elsewhere
    r: np.ndarray  # (n_iter, G_sign): each sign-move stream's innovation
    normals: np.ndarray  # (n_iter, G - G_sign, n_record): leading coordinates of each other stream's d
    accepted: np.ndarray  # (n_iter, G * C): chain (g, c) is column g * C + c
    n_nonfinite: np.ndarray  # (G * C,): non-finite proposals per chain


def run_lockstep(
    kernels: Sequence[Kernel],
    log_density: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    scales: Sequence,
    n_iter: int,
    rngs: Sequence[np.random.Generator],
    n_record: int,
) -> Lockstep:
    """Advance ``G = len(rngs)`` streams of ``C`` chains each in lockstep.

    ``scales`` is ``(C,)``, the same scales for every stream, or ``(G, C)``,
    one row per stream.  Stream ``g`` runs ``kernels[g]`` on its own generator
    ``rngs[g]``, drawing ahead in blocks of ``b = min(256, steps left)``
    steps: ``kernels[g].direction(rng, d_g) -> r_g`` fills the ``(b, k)``
    directions and returns the ``(b,)`` innovations (only symmetric kernels
    have a direction), then the stream draws ``b`` acceptance uniforms, each
    shared by its chains.  With ``b = 1`` this is the order of the kernel's
    own transition.  At step ``i`` chain ``(g, c)`` starts at ``x0[g]`` and
    proposes ``x + d_g[i] * (scales[g, c] * r_g[i])``.  Sign-move streams,
    whose ``direction.a`` gives ``d = +-a``, come first; any other direction
    must return ``r = 1``.  All proposals go to one ``log_density`` call on a
    ``(G * C, k)`` batch, which must be row by row bit-identical to single
    calls.  The leading ``n_record`` coordinates are recorded.  Bad streams,
    ``n_iter < 1``, ``n_record`` outside ``[1, k]`` or a ``scales`` shape
    other than these raise ``ValueError`` before the first step.
    """
    directions = [getattr(kernel, "direction", None) for kernel in kernels]
    signed = [hasattr(direction, "a") for direction in directions]
    n_sign = signed.count(True)
    if None in directions or signed != sorted(signed, reverse=True) or not len(kernels) == len(rngs) == len(x0):
        raise ValueError("need one symmetric kernel (sign-move kernels first), one generator and one start per stream")
    x0 = np.asarray(x0, dtype=float)
    n_streams, k = x0.shape
    scales = np.asarray(scales, dtype=float)
    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter}")
    if not 1 <= n_record <= k:
        raise ValueError(f"n_record must lie in [1, {k}], got {n_record}")
    if scales.ndim == 1:
        scales = np.tile(scales, (n_streams, 1))
    if scales.ndim != 2 or scales.shape[0] != n_streams or scales.size == 0:
        raise ValueError(f"scales must have shape (C,) or ({n_streams}, C) with C >= 1, got {scales.shape}")
    n_cells = scales.shape[1]
    a = np.array([direction.a[:n_record] for direction in directions[:n_sign]]).reshape(n_sign, n_record)
    x = np.repeat(x0, n_cells, axis=0)
    lp_x = np.repeat(log_density(x0), n_cells)
    y = np.empty_like(x)
    y_by_group = y.reshape(n_streams, n_cells, k)
    block = min(_BLOCK_STEPS, n_iter)
    d = np.empty((n_streams, block, k))  # each stream's directions for the block
    sr = np.empty((block, n_streams, n_cells))  # scales * r per step
    sr[:, n_sign:] = scales[n_sign:]  # r = 1
    log_u = np.empty((block, n_streams, n_cells))  # each stream's log u, shared by its chains
    # Views built once: (G, 1, k) * (G, C, 1) -> (G, C, k) proposals at step j of a block.
    per_step = [(d[:, j, None, :], sr[j, :, :, None], log_u[j].reshape(-1)) for j in range(block)]
    signs = np.empty((n_iter, n_sign, n_record), dtype=bool)
    r = np.empty((n_iter, n_sign))
    normals = np.empty((n_iter, n_streams - n_sign, n_record))
    accepted = np.empty((n_iter, n_streams * n_cells), dtype=bool)
    n_nonfinite = np.zeros(n_streams * n_cells, dtype=int)
    with np.errstate(invalid="ignore"):  # inf - inf: replaced by accept_batch's rule
        for start in range(0, n_iter, block):
            b = min(block, n_iter - start)
            rows = slice(start, start + b)
            for g, (direction, rng) in enumerate(zip(directions, rngs)):
                r_g, _, log_u_g = _draw_block(direction, rng, d[g, :b])
                log_u[:b, g] = np.array(log_u_g)[:, None]
                if g < n_sign:
                    r[rows, g] = r_g
                    np.multiply(r_g[:, None], scales[g], out=sr[:b, g])
                    signs[rows, g] = np.signbit(d[g, :b, :n_record])  # numpy 2.4: signbit into a strided out errs
                else:
                    normals[rows, g - n_sign] = d[g, :b, :n_record]
            for i, (d_i, sr_i, log_u_i) in zip(range(start, start + b), per_step):
                np.multiply(d_i, sr_i, out=y_by_group)
                y += x
                accepted[i] = accept_batch(x, lp_x, y, log_density(y), log_u_i, n_nonfinite)
    return Lockstep(n_sign, x0[:, :n_record].copy(), scales, a, signs, r, normals, accepted, n_nonfinite)


def lockstep_path(run: Lockstep, chain: int, coord: Optional[int] = None) -> np.ndarray:
    """Chain ``chain``'s recorded coordinates after each step.

    ``chain`` is a column of ``run.accepted``.  Returns ``(n_iter,)`` for one
    recorded coordinate ``coord``, else ``(n_iter, n_record)``.  The running
    sum adds ``d * (scale * r)`` on accepted steps and ``0`` otherwise, in
    step order: the same floating-point additions the chain made.
    """
    g, c = divmod(chain, run.scales.shape[1])
    j = slice(None) if coord is None else coord
    path = np.empty((len(run.accepted) + 1,) + run.x0[g, j].shape)
    path[0] = run.x0[g, j]
    steps = path[1:]
    if g < run.n_signed:  # (scale * r) * a, negated where d = -a: no temporaries
        r = run.r[:, g]
        np.multiply(r if steps.ndim == 1 else r[:, None], run.scales[g, c], out=steps)
        steps *= run.a[g, j]
        np.negative(steps, out=steps, where=run.signs[:, g, j])
    else:  # r = 1
        np.multiply(run.normals[:, g - run.n_signed, j], run.scales[g, c], out=steps)
    steps[~run.accepted[:, chain]] = 0.0
    return np.cumsum(path, axis=0, out=path)[1:]


def pool_workers(n_workers: Optional[int] = None) -> int:
    """The worker count ``map_tasks`` caps at: ``n_workers``, or the cpu count when None.

    The caller counts as one worker, so ``W`` workers start ``W - 1`` child processes.
    """
    return n_workers if n_workers is not None else (os.cpu_count() or 1)


def map_tasks(fn: Callable, tasks: Iterable, n_workers: Optional[int] = None) -> Iterator:
    """Yield ``fn(task)`` for each task, in order.

    ``W = min(pool_workers(n_workers), len(tasks))`` workers share the tasks:
    worker ``w`` runs tasks ``w, w + W, w + 2W, ...`` in order.  The caller is
    worker 0.  It starts the other ``W - 1`` as child processes (the
    platform's default ``multiprocessing`` start method), runs its own share,
    then yields every result in task order, each child's read from that
    child's pipe.  With ``W <= 1`` every task runs in this process.

    An exception from a task is raised when its result is reached, after the
    results before it; a child's keeps its type.  A result or exception that
    cannot be pickled fails its task with a ``RuntimeError``; so does each
    task a child exited without sending, the message naming its exit code.
    No child outlives the generator: each is joined when the generator ends,
    raises or is closed, and terminated first if it still owes results.
    """
    tasks = list(tasks)
    workers = min(pool_workers(n_workers), len(tasks))
    if workers <= 1:
        yield from map(fn, tasks)
        return
    shares = []
    try:
        for w in range(1, workers):
            shares.append(_Share(fn, tasks, w, workers))
        own = list(_outcomes(fn, tasks[::workers]))
        for i in range(len(tasks)):
            ok, value = own[i // workers] if i % workers == 0 else shares[i % workers - 1].recv()
            if not ok:
                raise value
            yield value
    finally:
        for share in shares:
            share.close()


def _outcomes(fn: Callable, tasks: Sequence) -> Iterator:
    """``(True, fn(task))`` for each task in order, up to the first that raises: ``(False, exc)``."""
    for task in tasks:
        try:
            value = fn(task)
        except Exception as exc:
            yield False, exc
            return
        yield True, value


class _Share:
    """Worker ``w`` of ``W``, a child process that runs tasks ``w, w + W, ...`` of ``map_tasks``."""

    def __init__(self, fn: Callable, tasks: list, w: int, workers: int):
        import multiprocessing

        self.next, self.step, self.end = w, workers, len(tasks)
        self.conn, send = multiprocessing.Pipe(duplex=False)
        indices = range(w, len(tasks), workers)
        self.process = multiprocessing.Process(target=_send_outcomes, args=(fn, tasks[w::workers], indices, send))
        self.process.start()
        send.close()  # the child holds the only write end, so its exit ends the pipe

    def recv(self) -> tuple:
        """``(ok, value)`` of the share's next task."""
        try:
            index, ok, value = self.conn.recv()
        except EOFError:
            self.process.join()
            code = self.process.exitcode
            return False, RuntimeError(f"task {self.next}: its worker exited with code {code} before sending it")
        self.next = index + self.step
        return ok, value

    def close(self) -> None:
        """Reap the child, terminating it first if it has not sent its whole share."""
        if self.next < self.end and self.process.is_alive():
            self.process.terminate()
        self.process.join()
        self.conn.close()


def _send_outcomes(fn: Callable, tasks: list, indices: range, send) -> None:
    """A child's loop: send ``(index, ok, value)`` for each task of its share, up to the first failure."""
    for index, (ok, value) in zip(indices, _outcomes(fn, tasks)):
        if not ok:  # the exception arrives with this traceback's text as its __cause__
            from multiprocessing.pool import ExceptionWithTraceback

            value = ExceptionWithTraceback(value, value.__traceback__)
        try:
            send.send((index, ok, value))
        except Exception as exc:  # the outcome does not pickle
            send.send((index, False, RuntimeError(f"task {index}: its outcome could not be sent back: {exc!r}")))
            return
