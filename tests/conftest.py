import math

import numpy as np
import pytest


class ScriptedRNG:
    """Stand-in generator that replays scripted draws.

    ``uniforms`` feeds ``random()`` calls (scalar or vector, consumed in
    order) and ``normals`` feeds ``standard_normal()``; ``integers`` feeds
    ``integers()``.  As with a numpy ``Generator``, a vector draw is sized by
    ``size`` or written into ``out``.  Lets tests pin down a kernel's
    acceptance arithmetic on a hand-chosen proposal.
    """

    def __init__(self, uniforms=(), normals=(), integers=()):
        self._uniforms = list(uniforms)
        self._normals = list(normals)
        self._integers = list(integers)

    @staticmethod
    def _draw(script, size, out):
        if size is None and out is None:
            return script.pop(0)
        values = [script.pop(0) for _ in range(int(size) if out is None else out.size)]
        if out is None:
            return np.array(values)
        out[...] = np.reshape(values, out.shape)
        return out

    def random(self, size=None, out=None):
        return self._draw(self._uniforms, size, out)

    def standard_normal(self, size=None, out=None):
        return self._draw(self._normals, size, out)

    def integers(self, *args, **kwargs):
        return self._integers.pop(0)


@pytest.fixture
def scripted_rng():
    return ScriptedRNG


class BlockLayoutRNG(np.random.Generator):
    """A block-drawn kernel's block-layout draws, served one transition at a time.

    ``run_chain`` and each ``run_lockstep`` stream draw ahead in blocks of
    ``b = min(256, steps left)`` steps: the ``b`` steps' rows (a sign-move
    kernel, whatever its ``p`` and ``q``: ``b * k`` uniforms, then ``b``
    normals; a random walk or HMC: ``b * k`` normals), then ``b`` acceptance
    uniforms.  Built on ``rng`` where the stream starts stepping and handed
    to ``n_iter`` transitions, this generator takes its draws in that layout
    from ``rng``'s bit generator and serves a transition's row draw
    (``random`` or ``standard_normal`` with ``size=k`` or ``out=``), its
    innovation (``standard_normal()``) and its acceptance uniform
    (``random()``) from them, so the steps are the ones the block runners
    take.
    """

    BLOCK_STEPS = 256

    def __init__(self, rng, n_iter):
        super().__init__(rng.bit_generator)
        self._left, self._i, self._u = n_iter, 0, ()

    def _open_block(self, size, out):
        assert self._left > 0, "more transitions than n_iter"
        b = min(self.BLOCK_STEPS, self._left)
        self._left, self._i = self._left - b, 0
        return b, (size if out is None else out.size)

    def _row(self, out):
        if out is None:
            return self._d[self._i].copy()
        out[...] = self._d[self._i]
        return out

    def random(self, size=None, dtype=np.float64, out=None):
        if size is None and out is None:  # the acceptance uniform: the step's last draw
            self._i += 1
            return self._u[self._i - 1]
        if self._i == len(self._u):  # a sign-move step opens a block
            b, k = self._open_block(size, out)
            self._d, self._r, self._u = super().random((b, k)), super().standard_normal(b), super().random(b)
        return self._row(out)

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        if size is None and out is None:  # a sign-move step's innovation
            return self._r[self._i]
        if self._i == len(self._u):  # a random-walk step opens a block
            b, k = self._open_block(size, out)
            self._d, self._u = super().standard_normal((b, k)), super().random(b)
        return self._row(out)


@pytest.fixture
def block_layout_rng():
    return BlockLayoutRNG


def _assert_block_steps(trace, kernel, x0, rng):
    """``trace`` against ``len(trace)`` single transitions on a ``BlockLayoutRNG``, bit for bit.

    ``trace`` is a ``run_chain`` of ``kernel`` from ``x0`` on a generator at
    the state of ``rng``; the reference calls ``kernel(state,
    BlockLayoutRNG(rng, n))`` step by step and must give the same states
    (of ``trace.recorded_coords``), flags, log-densities, thresholds,
    uniforms and non-finite count.
    """
    n = len(trace)
    stream, state, rows = BlockLayoutRNG(rng, n), kernel.init(x0), []
    for _ in range(n):
        step = kernel(state, stream)
        state = step.state
        rows.append((state.x[trace.recorded_coords], step.accepted, state.lp, step.log_alpha, step.uniform,
                     step.nonfinite))
    states, accepted, log_density, log_alpha, uniforms, nonfinite = (np.array(c) for c in zip(*rows))
    assert np.array_equal(trace.states, states)
    assert np.array_equal(trace.accepted, accepted)
    assert np.array_equal(trace.log_density, log_density)
    assert np.array_equal(trace.log_alpha, log_alpha)
    assert np.array_equal(trace.uniforms, uniforms)
    assert trace.n_nonfinite_proposals == nonfinite.sum()


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
