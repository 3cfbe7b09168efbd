"""Span tracer that wraps the library's public functions from outside.

A wrapped function records one span per call: its name, start and end
(``perf_counter_ns``), the index of the enclosing span, the run id of the
benchmark pass, and optionally the accepted flag of a kernel step or a small
value taken from the result (rows written, trace size, ...).  Functions are
replaced at the name their caller looks up, for example
``tmcmc.scaling.run_chain``, and restored by ``uninstall``; no library file
changes.  Spans are kept in memory as columns (about 30 bytes each) and
written out when the benchmark ends.

Chains that the CLI runs in forked pool workers record spans in the worker's
copy of the tracer; the worker writes them to a spool directory when its
``run_chain`` span ends and the parent merges them with ``collect``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import pickle
import time
from array import array
from pathlib import Path

import numpy as np

KERNEL_SPANS = ("transform_kernels.additive", "baseline_kernels.rwmh", "baseline_kernels.hmc")
DIAGNOSTIC_SPANS = ("diagnostics.iact_and_ess", "diagnostics.split_rhat")
SPAN_NAMES = (
    "workload.pass", "cli.main", "scaling.run_scaling_study", "scaling.run_study_cell",
    "benchmark.run_challenger_benchmark", "chain.run_chain", *KERNEL_SPANS, "baseline_kernels.leapfrog",
    "chain.accept_step", "targets.log_density", "targets.grad", *DIAGNOSTIC_SPANS, "chain.write_csv",
    "chain.summary",
)
COLUMNS = (("name", "H"), ("start", "q"), ("end", "q"), ("parent", "i"), ("run", "H"), ("flag", "b"))


def replay_holds(trace) -> bool:
    """``accepted == (log u < log_alpha)`` on every row of a ``Trace``.

    Rows are first compared with numpy's log; any row that disagrees is
    recomputed with ``math.log``, which is what the library's accept step
    uses, so a last-digit difference between the two logs cannot count as a
    violation.
    """
    u = np.asarray(trace.uniforms, dtype=float)
    with np.errstate(divide="ignore"):
        replay = np.log(u) < trace.log_alpha
    for i in np.flatnonzero(replay != trace.accepted):
        log_u = math.log(u[i]) if u[i] > 0.0 else -math.inf
        if (log_u < trace.log_alpha[i]) != bool(trace.accepted[i]):
            return False
    return True


def trace_nbytes(trace) -> int:
    return sum(a.nbytes for a in (trace.states, trace.accepted, trace.log_density, trace.log_alpha, trace.uniforms))


@dataclasses.dataclass
class SpanTable:
    """Spans as numpy columns; ``names[name[i]]`` is span i's name."""

    names: list
    name: np.ndarray
    start: np.ndarray  # ns
    end: np.ndarray  # ns
    parent: np.ndarray  # index of the enclosing span, -1 for a root
    run: np.ndarray
    flag: np.ndarray  # accepted flag of a kernel step, -1 elsewhere
    values: dict  # span index -> value recorded from the result

    def __len__(self) -> int:
        return len(self.name)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.name == self.names.index(name)

    def values_of(self, name: str) -> list:
        idx = set(np.flatnonzero(self.mask(name)).tolist())
        return [v for i, v in sorted(self.values.items()) if i in idx]


class Tracer:
    def __init__(self, spool: Path):
        self.names = list(SPAN_NAMES)  # fixed before any worker forks, so ids agree
        self.cols = {col: array(code) for col, code in COLUMNS}
        self.values: dict = {}
        self.stack: list = []
        self.run_id = 0
        self.spool = spool
        self.missing: list = []  # patch points absent from the library
        self._pid = os.getpid()
        self._patched: list = []
        self._spooled = 0

    # -- recording -------------------------------------------------------------

    def wrap(self, name: str, fn, flag=None, value=None, spool: bool = False):
        """Return ``fn`` recording a span per call.

        ``flag(result)`` is stored as the span's accepted flag and
        ``value(result, args)`` in ``values``; ``spool`` hands the span and
        everything under it to the parent process when called in a worker.
        """
        nid = self.names.index(name)
        c, stack, values, clock, tracer = self.cols, self.stack, self.values, time.perf_counter_ns, self
        names, starts, ends, parents, runs, flags = (c[col] for col, _ in COLUMNS)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(tracer.run_id)
            flags.append(-1)
            ends.append(0)
            stack.append(idx)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if flag is not None:
                flags[idx] = flag(result)
            if value is not None:
                values[idx] = value(result, args)
            if spool and os.getpid() != tracer._pid:
                tracer._spool_from(idx)
            return result

        return traced

    def _spool_from(self, first: int) -> None:
        # In a forked worker: hand spans[first:] to the parent, keep nothing.
        self.spool.mkdir(parents=True, exist_ok=True)
        self._spooled += 1
        batch = {col: arr[first:] for col, arr in self.cols.items()}
        vals = {i: v for i, v in self.values.items() if i >= first}
        with open(self.spool / f"{os.getpid()}-{self._spooled}.pkl", "wb") as fh:
            pickle.dump((first, batch, vals), fh)
        for arr in self.cols.values():
            del arr[first:]
        for i in vals:
            del self.values[i]

    def collect(self) -> None:
        """Merge the spans forked workers spooled, renumbering their indices."""
        for path in sorted(self.spool.glob("*.pkl")):
            with open(path, "rb") as fh:
                first, batch, vals = pickle.load(fh)
            shift = len(self.cols["start"]) - first
            batch["parent"] = array("i", (p + shift if p >= first else p for p in batch["parent"]))
            for col, arr in batch.items():
                self.cols[col].extend(arr)
            self.values.update({i + shift: v for i, v in vals.items()})
            path.unlink()

    def table(self) -> SpanTable:
        cols = {col: np.frombuffer(arr, dtype=arr.typecode).astype(np.int64) for col, arr in self.cols.items()}
        return SpanTable(list(self.names), values=dict(self.values), **cols)

    # -- patching ----------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        import tmcmc.baseline_kernels as bk
        import tmcmc.benchmark as bench
        import tmcmc.chain as chain
        import tmcmc.cli as cli
        import tmcmc.diagnostics as diag
        import tmcmc.scaling as scaling
        import tmcmc.transform_kernels as tk

        span = self.wrap

        def kernel_factory(name):
            return lambda factory: functools.wraps(factory)(
                lambda *a, **kw: span(name, factory(*a, **kw), flag=lambda step: int(step.accepted)))

        def target_factory(factory):
            @functools.wraps(factory)
            def make(*args, **kwargs):
                t = factory(*args, **kwargs)
                grad = t.grad_log_density
                return dataclasses.replace(
                    t,
                    log_density=span("targets.log_density", t.log_density),
                    grad_log_density=None if grad is None else span("targets.grad", grad),
                )

            return make

        def run_chain_value(trace, _):
            return (replay_holds(trace), trace_nbytes(trace), len(trace))

        def write_csv_value(_, args):
            trace, path = args[0], args[1]
            return (len(trace), os.path.getsize(path))

        for mod in (scaling, bench, cli):
            self._patch(mod, "run_chain", lambda f: span("chain.run_chain", f, value=run_chain_value, spool=True))
            self._patch(mod, "make_additive_tmcmc_kernel", kernel_factory("transform_kernels.additive"))
            self._patch(mod, "make_rwmh_kernel", kernel_factory("baseline_kernels.rwmh"))
        self._patch(cli, "make_hmc_kernel", kernel_factory("baseline_kernels.hmc"))
        for mod in (tk, bk):
            self._patch(mod, "accept_step", lambda f: span("chain.accept_step", f))
        self._patch(bk, "leapfrog", lambda f: span("baseline_kernels.leapfrog", f))
        self._patch(scaling, "make_iid_gaussian", target_factory)
        self._patch(cli, "make_iid_gaussian", target_factory)
        self._patch(cli, "make_anisotropic_gaussian", target_factory)
        self._patch(bench, "make_challenger_logistic", target_factory)
        for mod in (scaling, bench, diag):  # diag: Trace.summary imports it at call time
            self._patch(mod, "iact_and_ess", lambda f: span("diagnostics.iact_and_ess", f))
        self._patch(bench, "split_rhat", lambda f: span("diagnostics.split_rhat", f))
        self._patch(scaling, "run_study_cell", lambda f: span("scaling.run_study_cell", f))
        self._patch(scaling, "run_scaling_study", lambda f: span("scaling.run_scaling_study", f))
        self._patch(bench, "run_challenger_benchmark", lambda f: span("benchmark.run_challenger_benchmark", f))
        self._patch(cli, "main", lambda f: span("cli.main", f))
        self._patch(chain.Trace, "write_csv", lambda f: span("chain.write_csv", f, value=write_csv_value))
        self._patch(chain.Trace, "summary", lambda f: span("chain.summary", f))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def pass_span(self, run_id: int, fn, *args):
        """Run one workload pass as the root span ``workload.pass``."""
        self.run_id = run_id
        return self.wrap("workload.pass", fn)(*args)


# -- aggregation ------------------------------------------------------------------

def self_times(t: SpanTable) -> np.ndarray:
    """Each span's duration minus the union of its child spans clipped to it (ns).

    Children of one parent can overlap when they ran in different worker
    processes, so the covered length is a union, not a sum.
    """
    n = len(t)
    dur = t.end - t.start
    kids = np.flatnonzero(t.parent >= 0)
    if kids.size == 0:
        return dur
    par = t.parent[kids]
    lo = np.maximum(t.start[kids], t.start[par])
    hi = np.minimum(t.end[kids], t.end[par])
    order = np.lexsort((lo, par))
    par, lo, hi = par[order], lo[order], hi[order]
    # Running maximum of earlier ends within each parent group: offset each
    # group above the previous one so a single cumulative max never crosses.
    group = np.concatenate([[0], np.cumsum(par[1:] != par[:-1])])
    base = lo.min()
    width = int(max(hi.max(), lo.max()) - base) + 1
    shifted = (hi - base) + group * width
    reach = np.maximum.accumulate(shifted) - group * width + base
    prev = np.concatenate([[np.iinfo(np.int64).min], reach[:-1]])
    prev[np.concatenate([[True], par[1:] != par[:-1]])] = np.iinfo(np.int64).min
    covered = np.maximum(hi - np.maximum(lo, prev), 0)
    return dur - np.bincount(par, weights=covered, minlength=n).astype(np.int64)


def median(values):
    values = sorted(values)
    n = len(values)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid])


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule), ``q`` in [0, 100]."""
    values = sorted(values)
    if not values:
        raise ValueError("percentile of no values")
    pos = (len(values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def tail_percentile(n: int):
    """Highest of p50/p90/p99/p99.9 with at least ten of ``n`` samples beyond it, or None."""
    best = None
    for q in (50.0, 90.0, 99.0, 99.9):
        if n * (1.0 - q / 100.0) >= 10.0 - 1e-9:
            best = q
    return best


# name -> (unit, kind); kind says whether the figure is a timing, an exact
# count (repeats bit for bit for a given program and seed) or a value computed
# from array sizes.
LAYER_METRICS = {
    "targets.log_density.calls_per_step": ("calls/step", "count"),
    "targets.log_density.us_per_call": ("us", "timing"),
    "targets.grad.calls_per_step": ("calls/step", "count"),
    "targets.grad.us_per_call": ("us", "timing"),
    **{f"{k}.{m}": u for k in KERNEL_SPANS for m, u in (
        ("step_us", ("us", "timing")), ("self_us", ("us", "timing")), ("accept_rate", ("ratio", "count")))},
    "baseline_kernels.leapfrog.us_per_call": ("us", "timing"),
    "chain.run_chain.self_us": ("us/step", "timing"),
    "chain.run_chain.steps_per_s": ("1/s", "timing"),
    "chain.accept_step.us_per_call": ("us", "timing"),
    "chain.trace.bytes_per_step": ("bytes/step", "computed"),
    "chain.write_csv.us_per_row": ("us", "timing"),
    "chain.write_csv.mb_per_s": ("MB/s", "timing"),
    "chain.summary.ms_per_chain": ("ms", "timing"),
    "diagnostics.iact_and_ess.ms_per_call": ("ms", "timing"),
    "diagnostics.iact_and_ess.calls": ("count", "count"),
    "diagnostics.split_rhat.ms_per_call": ("ms", "timing"),
    "diagnostics.share": ("ratio", "timing"),
    "scaling.run_study_cell.s_p50": ("s", "timing"),
    "scaling.run_study_cell.s_max": ("s", "timing"),
    "scaling.reduce_ms": ("ms", "timing"),
    "benchmark.reduce_ms": ("ms", "timing"),
    "cli.chains_wait_s": ("s", "timing"),
    "cli.write_s": ("s", "timing"),
    "cli.pool_overhead_s": ("s", "timing"),
    "tmcmc.import_s": ("s", "timing"),
    "scipy.import_s": ("s", "timing"),
    "tracing.overhead_s": ("s", "timing"),
}


def layer_metrics(t: SpanTable, chain_walls: dict) -> dict:
    """Per-layer figures from the spans of the traced passes.

    ``chain_walls`` maps run id to the largest per-chain wall time the program
    reported for that pass.  A layer the workload never entered reads 0.
    """
    own = self_times(t)
    dur = t.end - t.start

    def count(name):
        return int(t.mask(name).sum())

    def total(name, col=dur):
        return int(col[t.mask(name)].sum())

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    n_pass = max(count("workload.pass"), 1)
    steps = sum(count(k) for k in KERNEL_SPANS)
    m = {}
    for layer in ("targets.log_density", "targets.grad"):
        m[f"{layer}.calls_per_step"] = ratio(count(layer), steps)
        m[f"{layer}.us_per_call"] = ratio(total(layer), count(layer), 1e-3)
    for k in KERNEL_SPANS:
        m[f"{k}.step_us"] = ratio(total(k), count(k), 1e-3)
        m[f"{k}.self_us"] = ratio(total(k, own), count(k), 1e-3)
        m[f"{k}.accept_rate"] = ratio(int(t.flag[t.mask(k)].sum()), count(k))
    m["baseline_kernels.leapfrog.us_per_call"] = ratio(
        total("baseline_kernels.leapfrog"), count("baseline_kernels.leapfrog"), 1e-3)

    chains = t.values_of("chain.run_chain")
    chain_steps = sum(v[2] for v in chains)
    m["chain.run_chain.self_us"] = ratio(total("chain.run_chain", own), chain_steps, 1e-3)
    m["chain.run_chain.steps_per_s"] = ratio(chain_steps, total("chain.run_chain"), 1e9)
    m["chain.accept_step.us_per_call"] = ratio(total("chain.accept_step"), count("chain.accept_step"), 1e-3)
    m["chain.trace.bytes_per_step"] = ratio(sum(v[1] for v in chains), chain_steps)
    writes = t.values_of("chain.write_csv")
    rows, written = sum(v[0] for v in writes), sum(v[1] for v in writes)
    m["chain.write_csv.us_per_row"] = ratio(total("chain.write_csv"), rows, 1e-3)
    m["chain.write_csv.mb_per_s"] = ratio(written, total("chain.write_csv"), 1e3)
    m["chain.summary.ms_per_chain"] = ratio(total("chain.summary"), count("chain.summary"), 1e-6)

    iact, rhat = DIAGNOSTIC_SPANS
    m[f"{iact}.ms_per_call"] = ratio(total(iact), count(iact), 1e-6)
    m[f"{iact}.calls"] = ratio(count(iact), n_pass)
    m[f"{rhat}.ms_per_call"] = ratio(total(rhat), count(rhat), 1e-6)
    m["diagnostics.share"] = ratio(sum(total(d) for d in DIAGNOSTIC_SPANS), total("workload.pass"))

    cells = dur[t.mask("scaling.run_study_cell")] * 1e-9
    m["scaling.run_study_cell.s_p50"] = median(cells.tolist()) if cells.size else 0.0
    m["scaling.run_study_cell.s_max"] = float(cells.max()) if cells.size else 0.0
    m["scaling.reduce_ms"] = ratio(total("scaling.run_scaling_study", own), n_pass, 1e-6)
    m["benchmark.reduce_ms"] = ratio(total("benchmark.run_challenger_benchmark", own), n_pass, 1e-6)
    m.update(cli_phases(t, chain_walls))
    return m


def cli_phases(t: SpanTable, chain_walls: dict) -> dict:
    """Chain phase, write phase and pool overhead of each traced CLI pass (medians).

    The chain phase runs from entering ``cli.main`` to the first
    ``Trace.write_csv``; pool overhead is that minus the slowest chain's own
    wall time from ``summary.json``.
    """
    mains, writes = t.mask("cli.main"), t.mask("chain.write_csv")
    wait, write, overhead = [], [], []
    for i in np.flatnonzero(mains):
        run = t.run[i]
        mine = writes & (t.run == run)
        if not mine.any():
            continue
        wait.append((int(t.start[mine].min()) - int(t.start[i])) * 1e-9)
        write.append(int((t.end[mine] - t.start[mine]).sum()) * 1e-9)
        overhead.append(wait[-1] - chain_walls.get(int(run), 0.0))
    if not wait:
        return {"cli.chains_wait_s": 0.0, "cli.write_s": 0.0, "cli.pool_overhead_s": 0.0}
    return {"cli.chains_wait_s": median(wait), "cli.write_s": median(write), "cli.pool_overhead_s": median(overhead)}


def replay_results(t: SpanTable) -> list:
    """The replay-invariant verdict of every ``Trace`` seen at ``run_chain``."""
    return [v[0] for v in t.values_of("chain.run_chain")]


def write_spans(t: SpanTable, path: Path) -> None:
    """Save the spans as numpy columns plus the name table (``.npz``)."""
    cols = {col: getattr(t, col).astype(code) for col, code in COLUMNS}
    np.savez(path, names=np.array(t.names), **cols)
