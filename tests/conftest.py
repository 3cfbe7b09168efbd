import math
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from tmcmc.chain import run_chain


class ScriptedRNG(np.random.Generator):
    """Generator that replays scripted draws.

    ``uniforms`` feeds ``random()`` calls (scalar or array, consumed in
    order) and ``normals`` feeds ``standard_normal()``; ``integers`` feeds
    ``integers()``.  As with any ``Generator``, an array draw is shaped by
    ``size`` (an int or a tuple) or written into ``out``.  It is a
    ``Generator``, so ``run_chain(kernel, x, 1, rng)`` takes it: tests pin
    down a kernel's acceptance arithmetic on a hand-chosen proposal.
    """

    def __init__(self, uniforms=(), normals=(), integers=()):
        super().__init__(np.random.PCG64(0))  # its own draws are never served
        self._uniforms = deque(uniforms)
        self._normals = deque(normals)
        self._integers = deque(integers)

    def _draw(self, script, size, out, dtype=float):
        if size is None and out is None:
            return script.popleft()
        n = math.prod(np.atleast_1d(size)) if out is None else out.size
        values = np.array([script.popleft() for _ in range(n)], dtype=dtype)
        if out is None:
            return values.reshape(size)
        out[...] = values.reshape(out.shape)
        return out

    def random(self, size=None, out=None):
        return self._draw(self._uniforms, size, out)

    def standard_normal(self, size=None, out=None):
        return self._draw(self._normals, size, out)

    def integers(self, high, size=None):
        return self._draw(self._integers, size, None, dtype=np.intp)


@pytest.fixture
def scripted_rng():
    return ScriptedRNG


class BlockLayoutRNG(ScriptedRNG):
    """A kernel's block-layout draws, served one transition at a time.

    ``run_chain`` and each ``run_lockstep`` stream draw ahead in blocks of
    ``b = min(256, steps left)`` steps: the ``b`` steps' rows, then ``b``
    acceptance uniforms.  ``layout(rng, b)`` replays a kernel's documented
    order of a block's rows on ``rng`` and returns each step's share of them
    as a script, ``{"uniforms": ..., "normals": ..., "integers": ...}`` (a
    key may be left out), in the order a one-step ``run_chain`` draws them.
    Built on ``rng`` where the stream starts stepping and handed to
    ``n_iter`` one-step ``run_chain`` calls, this generator opens a block on
    ``rng`` whenever its scripts have run dry, appends each step's acceptance
    uniform to the step's uniforms and serves the transitions' draws from the
    scripts, so the steps are the ones the block runners take.
    """

    BLOCK_STEPS = 256

    def __init__(self, rng, n_iter, layout):
        super().__init__()
        self._rng, self._left, self._layout = rng, n_iter, layout

    def _draw(self, script, size, out, dtype=float):
        if not (self._uniforms or self._normals or self._integers):
            assert self._left > 0, "more transitions than n_iter"
            b = min(self.BLOCK_STEPS, self._left)
            self._left -= b
            steps = self._layout(self._rng, b)
            for step, u in zip(steps, self._rng.random(b)):
                self._uniforms.extend([*step.get("uniforms", ()), u])
                self._normals.extend(step.get("normals", ()))
                self._integers.extend(step.get("integers", ()))
        return super()._draw(script, size, out, dtype)


def sign_moves(k):
    """The additive kernel's rows, for any ``p`` and ``q``: ``b * k`` uniforms, then ``b`` normals."""

    def layout(rng, b):
        u, r = rng.random((b, k)), rng.standard_normal(b)
        return [{"uniforms": u[j], "normals": [r[j]]} for j in range(b)]

    return layout


def normals(k):
    """The random walk's and HMC's rows: ``b * k`` normals."""
    return lambda rng, b: [{"normals": row} for row in rng.standard_normal((b, k))]


def spins(k):
    """The spin kernel's rows: ``b * k`` uniforms."""
    return lambda rng, b: [{"uniforms": row} for row in rng.random((b, k))]


def ternary_moves(p, q):
    """The general kernel's rows: ``b * k`` uniforms, the all-zero moves redrawn in row order until none
    is left, then ``b`` normals.  A step's script holds only the uniforms of its final move."""
    p, q = np.asarray(p), np.asarray(q)

    def moves(u):
        return ((u < p) | (u < p + q)).any(axis=1)

    def layout(rng, b):
        u = rng.random((b, p.size))
        zero = np.flatnonzero(~moves(u))
        while zero.size:
            u[zero] = rng.random((zero.size, p.size))
            zero = zero[~moves(u[zero])]
        r = rng.standard_normal(b)
        return [{"uniforms": u[j], "normals": [r[j]]} for j in range(b)]

    return layout


def dependent_z(k):
    """The dependent-z kernel's rows: ``b * 3k`` normals, ``b * k`` uniforms, then ``b`` normals."""

    def layout(rng, b):
        w, u, r = rng.standard_normal((b, 3 * k)), rng.random((b, k)), rng.standard_normal(b)
        return [{"normals": [*w[j], r[j]], "uniforms": u[j]} for j in range(b)]

    return layout


def lattice_moves(k, r):
    """The lattice kernel's rows: ``b`` branch uniforms and ``b`` normals, then the single-coordinate
    steps' coordinates and sign uniforms, then ``k`` sign uniforms per joint step."""

    def layout(rng, b):
        branch, n = rng.random(b), rng.standard_normal(b)
        single = branch < r
        coords = iter(rng.integers(k, size=single.sum()))
        signs = iter(rng.random(single.sum()))
        joint = iter(rng.random(((~single).sum(), k)))
        return [
            {"uniforms": [branch[j], next(signs)], "normals": [n[j]], "integers": [next(coords)]} if single[j]
            else {"uniforms": [branch[j], *next(joint)], "normals": [n[j]]}
            for j in range(b)
        ]

    return layout


@pytest.fixture
def block_layout_rng():
    return BlockLayoutRNG


@pytest.fixture
def block_layouts():
    """The block layouts ``BlockLayoutRNG`` replays, by the kernel whose rows they draw."""
    return SimpleNamespace(sign_moves=sign_moves, normals=normals, spins=spins, ternary_moves=ternary_moves,
                           dependent_z=dependent_z, lattice_moves=lattice_moves)


def _assert_block_steps(trace, kernel, x0, rng, layout):
    """``trace`` against ``len(trace)`` single transitions on a ``BlockLayoutRNG``, bit for bit.

    ``trace`` is a ``run_chain`` of ``kernel`` from ``x0`` on a generator at
    the state of ``rng``; the reference runs ``run_chain(kernel, x, 1,
    BlockLayoutRNG(rng, n, layout))`` step by step, each from the last
    one's state, and must give the same states (of
    ``trace.recorded_coords``), flags, log-densities, thresholds, uniforms
    and non-finite count.
    """
    n = len(trace)
    stream, x, steps = BlockLayoutRNG(rng, n, layout), x0, []
    for _ in range(n):
        steps.append(run_chain(kernel, x, 1, stream))
        x = steps[-1].states[0]
    assert np.array_equal(trace.states, np.array([step.states[0, trace.recorded_coords] for step in steps]))
    for name in ("accepted", "log_density", "log_alpha", "uniforms"):
        assert np.array_equal(getattr(trace, name), np.concatenate([getattr(step, name) for step in steps])), name
    assert trace.n_nonfinite_proposals == sum(step.n_nonfinite_proposals for step in steps)


@pytest.fixture
def assert_block_steps():
    return _assert_block_steps


def _parent_accept(x, proposal, log_alpha, lp_current, lp_proposal, rng):
    """The scalar accept step kernels used before the explicit-state protocol.

    Kept verbatim as a reference for bit-equality tests; returns
    ``(x_next, accepted, log_alpha, uniform, log_density, nonfinite)``.
    """
    nonfinite = not math.isfinite(lp_proposal)
    if nonfinite:
        log_alpha = -math.inf
    elif not math.isfinite(lp_current) and math.isfinite(lp_proposal):
        log_alpha = math.inf
    u = float(rng.random())
    log_u = math.log(u) if u > 0.0 else -math.inf
    accepted = log_u < log_alpha
    if accepted:
        return proposal, True, log_alpha, u, lp_proposal, nonfinite
    return np.asarray(x, dtype=float), False, log_alpha, u, lp_current, nonfinite


@pytest.fixture
def parent_accept():
    return _parent_accept


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace ``tmcmc.chain._Share``, the child process of one share, with an in-process stand-in.

    Returns the list that collects the worker count ``W`` of every pooled
    ``map_tasks`` call, so a test can check it without starting any process.
    The stand-in runs its share's tasks in this process as they are read.
    """
    from tmcmc import chain

    sizes = []

    class InProcessShare:
        def __init__(self, fn, tasks, w, workers):
            if w == 1:  # every pooled call starts share 1
                sizes.append(workers)
            self.outcomes = chain._outcomes(fn, tasks[w::workers])

        def recv(self):
            return next(self.outcomes)

        def close(self):
            pass

    monkeypatch.setattr(chain, "_Share", InProcessShare)
    return sizes
