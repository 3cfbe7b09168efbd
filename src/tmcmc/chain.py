"""Chain driving, tracing, and reproducible seeding shared by all kernels.

Kernel protocol.  A kernel is a ``Kernel`` record of the hooks its factory
built, over an explicit ``ChainState``: the position ``x``, its log-density
``lp`` and, for HMC only, its score ``grad = grad log pi(x)``.
``kernel.init(x) -> ChainState`` evaluates what the state carries once;
``kernel.draw(rng, b)`` returns ``b`` rows, each the random input of one step
(what a row holds is up to the kernel); and ``kernel.propose(state, row)``
returns a proposal and its ``log_alpha``.  ``run_chain`` is the one runner
of a chain, so a single transition is ``run_chain(kernel, x, 1, rng)``.  It
calls ``init`` once and then hands each step's ``state`` to the next, so a
transition evaluates the target only at its proposal, and one kernel can
drive any number of chains.  Symmetric kernels also carry ``direction``, and
sign-move ones their magnitudes ``a``, for ``run_lockstep``; the shift
kernels (additive with ``p = q``, rwmh, zk) share ``_shift_propose``.

One accept rule.  Every step is decided by one core, ``_accept``: it
accepts iff ``log u < log_alpha``, after the non-finite rule below.
``run_chain`` calls it on each step of a block, with the ``log u`` of the
block's uniforms taken by ``math.log``.  The trace records ``u`` and
``log_alpha``, so it is replayable: ``accepted == (log(u) < log_alpha)``
holds row by row.

The non-finite rule (``nonfinite_rule``, which ``accept_batch`` applies to
the whole batch of a lockstep loop): a proposal whose log-density is not finite
is rejected with ``log_alpha = -inf`` and counted in
``Trace.meta["n_nonfinite_proposals"]``, so rejected excursions never write
NaN into the trace; a finite proposal from a state whose log-density is not
finite is accepted (``log_alpha = +inf``).  Kernels report any other broken
proposal, a divergent HMC trajectory or a non-finite log-Jacobian, as one
with log-density ``-inf``.

One block layout.  ``run_chain``, and so ``tmcmc sample``, draws ahead in
blocks of 256 steps: ``kernel.draw(rng, b)`` for the block's ``b`` rows,
then ``b`` acceptance uniforms; a step is one ``kernel.propose`` and the
decision on its uniform.  A block writes the recorded coordinates of each
accepted state to its row as it comes, and the rest of its rows of the
trace, flags and log-densities included, once, when the block ends.  It
holds no state but the current one, and drops its draws before the next
block is drawn.  ``run_lockstep`` steps ``G`` streams of ``C`` chains, each
on its own generator with its own symmetric kernel, in any order, in the same
layout: one call of ``kernel.direction`` on a ``(b, k)`` block, then ``b``
uniforms, each step one batched log-density call and one ``accept_batch``.
So a symmetric kernel's ``run_chain`` equals the engine's stream of one
chain.  A run of ``n`` steps draws its last block short, so it equals a
longer run on the same seed only through its last full block, row
``256 * (n // 256)``.  Each stream keeps its own record of directions, as
sign bits for a kernel with ``a``, from which ``lockstep_path`` rebuilds any
of its chains bit for bit.

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
    "Trace",
    "Kernel",
    "chain_rng",
    "init_state",
    "nonfinite_rule",
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


@dataclass(frozen=True, eq=False)
class Kernel:
    """A kernel's hooks (see the module docstring).

    Only symmetric kernels have a ``direction``, and only sign-move ones
    ``a``, which lets ``run_lockstep`` record their directions as sign bits.
    The fields stay in the instance ``__dict__`` (no ``__slots__``),
    so a ``functools.wraps`` wrapper carries them.
    """

    init: Callable
    draw: Callable
    propose: Callable
    direction: Optional[Callable] = None
    a: Optional[np.ndarray] = None  # the magnitudes of a sign-move kernel's d = +-a


CSV_BLOCK_ROWS = 4096  # rows per block in ``Trace.write_csv``
_BLOCK_STEPS = 256  # steps ``run_chain`` and each ``run_lockstep`` stream draw ahead


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


def _check_shape(name: str, value, k: int, fits: tuple) -> None:
    """Raise ``ValueError`` naming the setting ``name`` unless its shape is one of ``fits``."""
    shape = np.shape(value)
    if shape not in fits:
        raise ValueError(f"{name} has shape {shape}; a target of dimension {k} needs {' or '.join(map(str, fits))}")


def _check_count(name: str, value, least: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer (a bool is not) ``>= least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _check_positive(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless each entry of ``value`` is a number (not a bool) in ``(0, inf)``."""
    a = np.asarray(value)
    if a.dtype.kind not in "iuf" or not np.all((0.0 < a) & (a < math.inf)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_curvature(m_k, M_k) -> None:
    """Raise ``ValueError`` naming the culprit unless ``m_k`` and ``M_k`` are positive and finite with ``m_k <= M_k``."""
    _check_positive("m_k", m_k)
    _check_positive("M_k", M_k)
    if not m_k <= M_k:
        raise ValueError(f"need m_k <= M_k, got m_k={m_k}, M_k={M_k}")


def _per_coordinate(name: str, value, k: int) -> np.ndarray:
    """A kernel setting as a ``(k,)`` float array; only shapes ``()``, ``(1,)`` and ``(k,)`` broadcast."""
    _check_shape(name, value, k, ((), (1,), (k,)))
    return np.broadcast_to(np.asarray(value, dtype=float), (k,))


def nonfinite_rule(log_alpha, lp_current, lp_proposal):
    """``(log_alpha, nonfinite)`` after the non-finite rule, for floats or ``(C,)`` arrays.

    A non-finite proposal log-density forces ``log_alpha = -inf`` and is
    flagged; otherwise a non-finite current one forces ``+inf``.  With both
    finite ``log_alpha`` is returned unchanged.
    """
    nonfinite = ~np.isfinite(lp_proposal)
    log_alpha = np.where(nonfinite, -math.inf, np.where(np.isfinite(lp_current), log_alpha, math.inf))
    return log_alpha, nonfinite


def _log_u(u: float) -> float:
    # math.log, not np.log, which can differ in the last bit; log 0 = -inf
    return math.log(u) if u > 0.0 else -math.inf


def _log_uniforms(u: np.ndarray) -> list:
    """``_log_u`` of each of a block's uniforms, as a list of Python floats; ``math.log`` itself unless one is 0."""
    u = u.tolist()
    return list(map(math.log if min(u) > 0.0 else _log_u, u))


def _accept(lp: float, lp_proposal: float, log_alpha: float, log_u: float) -> tuple:
    """``(accepted, log_alpha, nonfinite)`` of the Metropolis test ``log u < log_alpha``.

    Kernels compute ``log_alpha`` from both log-densities, so it is
    non-finite whenever either is; only then does the non-finite rule run.
    """
    nonfinite = False
    if not math.isfinite(log_alpha):
        log_alpha, nonfinite = nonfinite_rule(log_alpha, lp, lp_proposal)
        log_alpha, nonfinite = float(log_alpha), bool(nonfinite)
    return log_u < log_alpha, log_alpha, nonfinite


def _shift_draw(direction: Callable, scale: float, k: int) -> Callable:
    """``draw`` of a shift kernel: the rows ``d * (scale * r)`` of ``direction``'s block ``d`` and innovations ``r``."""

    def draw(rng: np.random.Generator, b: int) -> np.ndarray:
        d = np.empty((b, k))
        r = direction(rng, d)
        d *= (scale * r)[:, None]
        return d

    return draw


def _shift_propose(log_density: Callable[[np.ndarray], float]):
    """``propose`` of a kernel whose row is the move ``y - x`` and whose ratio is the density ratio."""

    def propose(state: ChainState, row: np.ndarray):
        y = state.x + row
        lp_y = log_density(y)
        return ChainState(y, lp_y), lp_y - state.lp

    return propose


def accept_batch(x: np.ndarray, lp_x: np.ndarray, y: np.ndarray, lp_y: np.ndarray, log_u, n_nonfinite: np.ndarray):
    """``_accept``'s decision for a ``(C, k)`` batch of symmetric proposals, in place.

    Row ``c`` of ``(x, lp_x)`` takes row ``c`` of ``(y, lp_y)`` iff
    ``log_u[c] < log_alpha[c]``, where ``log_alpha = lp_y - lp_x`` after the
    non-finite rule; ``log_u`` may also be one value shared by every row.
    Non-finite proposals are counted into the ``(C,)`` array ``n_nonfinite``.
    Returns the ``(C,)`` accept flags.  Run it under
    ``np.errstate(over="ignore", invalid="ignore")``, as ``run_lockstep``
    does: an ``inf - inf`` is replaced by the rule, and the finite test
    ``log_alpha' log_alpha`` overflows when finite ratios are huge; the rule
    then leaves every ratio as it is.
    """
    log_alpha = lp_y - lp_x
    if not math.isfinite(log_alpha.dot(log_alpha)):  # some density is non-finite, or the squares overflow
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
        end = "\n" if self.states.shape[1] else ",\n"  # no coordinates: a trailing comma
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
                fh.writelines([f"{i},{flag},{row}{end}" for i, flag, row in zip(range(start, stop), flags, rows)])
                prev, text = bits[-1].copy(), texts[-1]

    def summary(self) -> dict:
        """JSON-ready run summary (acceptance rate, per-coordinate ESS, timing).

        The ESS of every recorded coordinate comes from one
        ``iact_and_ess_rows`` call on the columns of ``states``; it is empty
        for a trace shorter than ``MIN_SAMPLES``.
        """
        from .diagnostics import MIN_SAMPLES, acceptance_rate, iact_and_ess_rows

        ess = {}
        if len(self) >= MIN_SAMPLES:
            _, per_coord = iact_and_ess_rows(self.states.T)
            ess = {f"x_{coord}": float(e) for coord, e in zip(self.recorded_coords, per_coord)}
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

    Deterministic given the seed.  Draws in blocks of ``b = min(256, steps
    left)`` steps: ``kernel.draw(rng, b)``, then ``b`` acceptance uniforms.
    ``record_coords`` limits which coordinates are stored (memory control
    for large-k studies); flags, log-densities, acceptance thresholds and
    uniforms are always stored in full.
    """
    x0 = np.asarray(x0, dtype=float)
    _check_count("n_iter", n_iter, 1)
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
    draw, propose = kernel.draw, kernel.propose
    state = kernel.init(x0)
    # A block writes the recorded coordinates of its carried-in state to its
    # first row and those of each accepted state to that step's row, then
    # copies every rejected row from the row of the state it kept.  So it
    # holds no state but the current one.  It drops its draws first, so the
    # copy's temporary and the next block's draws take their place.
    for start in range(0, n_iter, _BLOCK_STEPS):
        stop = min(start + _BLOCK_STEPS, n_iter)
        rows = draw(rng, stop - start)
        block_u = rng.random(stop - start)
        states[start] = state.x[take]
        kept, record = start, []
        for i, row, log_u in zip(range(start, stop), rows, _log_uniforms(block_u)):
            proposal, alpha = propose(state, row)
            ok, alpha, bad = _accept(state.lp, proposal.lp, alpha, log_u)
            if ok:
                state, kept = proposal, i
                states[i] = state.x[take]
            record.append((kept, ok, state.lp, alpha, bad))
        del rows, row
        kept_rows, flags, lps, alphas, bads = zip(*record)
        states[start:stop], accepted[start:stop], log_density[start:stop] = states[list(kept_rows)], flags, lps
        log_alpha[start:stop], uniforms[start:stop] = alphas, block_u
        n_bad += sum(bads)
    wall = time.perf_counter() - t0

    info = dict(meta or {})
    info.setdefault("seed", None if isinstance(rng_seed, np.random.Generator) else int(rng_seed))
    info["wall_time_s"] = wall
    info["n_nonfinite_proposals"] = n_bad
    return Trace(states, accepted, log_density, log_alpha, uniforms, coords, info)


class Lockstep(NamedTuple):
    """What ``run_lockstep`` records: enough to rebuild every chain's path.

    Stream ``g``'s chains are columns ``g * C .. g * C + C - 1`` of
    ``accepted``, and its directions are ``streams[g] = (d, r, a)``.  A
    sign-move stream keeps ``d = +-a`` as the sign bits ``d``, its
    innovations as ``r`` and ``|a|`` as ``a``; any other stream keeps its
    directions ``d`` as floats, with ``r`` and ``a`` None.
    """

    x0: np.ndarray  # (G, n_record): each stream's start, leading coordinates
    scales: np.ndarray  # (G, C): the proposal scale of chain (g, c) is scales[g, c]
    streams: list  # per stream (d, r, a): (n_iter, n_record) d, bool signbit(d) or float; (n_iter,) r; (n_record,) a
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
    shared by its chains.  At step ``i`` chain ``(g, c)`` starts at ``x0[g]``
    and proposes ``x + d_g[i] * (scales[g, c] * r_g[i])``.  A kernel without
    ``a`` (no sign moves ``d = +-a``) must return ``r = 1``.  All proposals go
    to one ``log_density`` call on a ``(G * C, k)`` batch, which must be row
    by row bit-identical to single calls.  The leading ``n_record``
    coordinates are recorded.  Bad streams, an ``n_iter`` that is not an
    integer ``>= 1``, ``n_record`` outside ``[1, k]`` or a ``scales`` shape
    other than these raise ``ValueError`` before the first step.
    """
    if any(kernel.direction is None for kernel in kernels) or not len(kernels) == len(rngs) == len(x0):
        raise ValueError("need one symmetric kernel, one generator and one start per stream")
    x0 = np.asarray(x0, dtype=float)
    n_streams, k = x0.shape
    scales = np.asarray(scales, dtype=float)
    _check_count("n_iter", n_iter, 1)
    if not 1 <= n_record <= k:
        raise ValueError(f"n_record must lie in [1, {k}], got {n_record}")
    if scales.ndim == 1:
        scales = np.tile(scales, (n_streams, 1))
    if scales.ndim != 2 or scales.shape[0] != n_streams or scales.size == 0:
        raise ValueError(f"scales must have shape (C,) or ({n_streams}, C) with C >= 1, got {scales.shape}")
    n_cells = scales.shape[1]
    x = np.repeat(x0, n_cells, axis=0)
    lp_x = np.repeat(log_density(x0), n_cells)
    y = np.empty_like(x)
    y_by_group = y.reshape(n_streams, n_cells, k)
    block = min(_BLOCK_STEPS, n_iter)
    d = np.empty((n_streams, block, k))  # each stream's directions for the block
    sr = np.empty((block, n_streams, n_cells))  # scales * r per step
    sr[:] = scales  # r = 1; a sign-move stream writes its own each block
    log_u = np.empty((block, n_streams, n_cells))  # each stream's log u, shared by its chains
    # Views built once: (G, 1, k) * (G, C, 1) -> (G, C, k) proposals at step j of a block.
    per_step = [(d[:, j, None, :], sr[j, :, :, None], log_u[j].reshape(-1)) for j in range(block)]
    streams = [(np.empty((n_iter, n_record)), None, None) if kernel.a is None
               else (np.empty((n_iter, n_record), dtype=bool), np.empty(n_iter), kernel.a[:n_record].copy())
               for kernel in kernels]
    accepted = np.empty((n_iter, n_streams * n_cells), dtype=bool)
    n_nonfinite = np.zeros(n_streams * n_cells, dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf and huge ratios: see accept_batch
        for start in range(0, n_iter, block):
            b = min(block, n_iter - start)
            rows = slice(start, start + b)
            for g, (kernel, rng, (d_g, r_g, a_g)) in enumerate(zip(kernels, rngs, streams)):
                r = kernel.direction(rng, d[g, :b])
                log_u[:b, g] = np.array(_log_uniforms(rng.random(b)))[:, None]
                if a_g is None:  # r = 1
                    d_g[rows] = d[g, :b, :n_record]
                else:
                    r_g[rows] = r
                    np.multiply(r[:, None], scales[g], out=sr[:b, g])
                    np.signbit(d[g, :b, :n_record], out=d_g[rows])
            for i, (d_i, sr_i, log_u_i) in zip(range(start, start + b), per_step):
                np.multiply(d_i, sr_i, out=y_by_group)
                y += x
                accepted[i] = accept_batch(x, lp_x, y, log_density(y), log_u_i, n_nonfinite)
    return Lockstep(x0[:, :n_record].copy(), scales, streams, accepted, n_nonfinite)


def lockstep_path(run: Lockstep, chain: int, coord: Union[int, slice, None] = None) -> np.ndarray:
    """Chain ``chain``'s recorded coordinates after each step.

    ``chain`` is a column of ``run.accepted``; any other value raises
    ``ValueError``.  ``coord`` indexes the recorded coordinates: an int gives
    ``(n_iter,)``, a slice ``(n_iter, len)`` and None all of them,
    ``(n_iter, n_record)``; a column is the same bit for bit whichever form
    asked for it.  The running sum adds ``d * (scale * r)`` on accepted steps
    and ``0`` otherwise, in step order: the same floating-point additions the
    chain made.  It reads the chain's stream record alone.
    """
    if not 0 <= chain < run.accepted.shape[1]:
        raise ValueError(f"chain must lie in [0, {run.accepted.shape[1]}), got {chain}")
    g, c = divmod(chain, run.scales.shape[1])
    d, r, a = run.streams[g]
    j = slice(None) if coord is None else coord
    path = np.empty((len(run.accepted) + 1,) + run.x0[g, j].shape)
    path[0] = run.x0[g, j]
    steps = path[1:]
    if a is None:  # r = 1
        np.multiply(d[:, j], run.scales[g, c], out=steps)
    else:  # (scale * r) * a, negated where d = -a: no temporaries
        np.multiply(r if steps.ndim == 1 else r[:, None], run.scales[g, c], out=steps)
        steps *= a[j]
        np.negative(steps, out=steps, where=d[:, j])
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
