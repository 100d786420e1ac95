"""Outside-in tracing of the gels layers.

Every wrapper is installed at the module attribute its caller looks up at
call time (``estimation.log_likelihood`` for the closure inside
``fit_given_k``, ``distribution.log_series_sum`` for ``log_norm_const``, and
so on), so no code under ``src/`` changes. Each wrapped call records a span
(id, parent id, operation id, name, thread, start, end) in compact in-memory
arrays; the spans are aggregated, and optionally written out, only after the
traced phase ends. Span stacks are per thread because ``run_study`` fans out
to a thread pool; a span that opens on a thread with an empty stack takes the
innermost open span of the main thread as its parent. Counters and the span
arrays are guarded by one lock.
"""

import gzip
import hashlib
import io
import itertools
import json
import os
import struct
import sys
import threading
from time import perf_counter

import numpy as np


class Tracer:
    ROW = struct.Struct("7d")  # sid, parent, op, name id, thread ident, start, end

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack = []
        self._ids = itertools.count()  # next() on a count is atomic in CPython
        self._names = []
        self._name_ids = {}
        self._installed = []
        self.op_id = -1
        self.counters = {}
        self._rows = bytearray()  # one ROW per finished span; idents fit in 53 bits

    # -- spans ---------------------------------------------------------------

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _stack(self):
        ident = threading.get_ident()
        if ident == self._main_ident:
            return self._main_stack, ident
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack, ident

    def spanned(self, fn, name):
        """``fn`` wrapped so that every call records a span named ``name``."""
        nid = self.name_id(name)
        main_stack, main_ident = self._main_stack, self._main_ident
        get_ident, ids, lock = threading.get_ident, self._ids, self._lock
        pack, store = self.ROW.pack, self._rows.extend
        tracer = self

        def call(*args, **kwargs):
            ident = get_ident()
            stack = main_stack if ident == main_ident else tracer._stack()[0]
            if stack:
                parent = stack[-1][0]
            elif stack is not main_stack and main_stack:
                parent = main_stack[-1][0]  # a pool thread: the fan-out span
            else:
                parent = -1
            sid = next(ids)  # next() on a count is atomic in CPython
            stack.append((sid, nid))
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                with lock:
                    store(pack(sid, parent, tracer.op_id, nid, ident, t0, t1))

        call.__wrapped__ = fn
        return call

    def innermost(self):
        """Name of the innermost open span on this thread, or None."""
        stack = self._stack()[0]
        return self._names[stack[-1][1]] if stack else None

    def add(self, key, value=1):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    # -- installation --------------------------------------------------------

    def replace(self, module, attr, replacement):
        self._installed.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def wrap(self, module, attr, name, before=None, after=None, on_error=None):
        """Replace ``module.attr`` by a span-recording wrapper.

        ``before(args, kwargs)`` may return replacement (args, kwargs), e.g.
        to wrap a callable argument; ``after(args, result)`` and
        ``on_error(exc)`` update counters.
        """
        call = self.spanned(getattr(module, attr), name)
        if before is None and after is None and on_error is None:
            self.replace(module, attr, call)
            return

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            try:
                result = call(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            if after is not None:
                after(args, result)
            return result

        self.replace(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def _columns(self):
        rows = np.frombuffer(bytes(self._rows), dtype=np.float64).reshape(-1, 7)
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        return {
            "sid": rows[:, 0].astype(np.int64),
            "parent": rows[:, 1].astype(np.int64),
            "op": rows[:, 2].astype(np.int64),
            "name": rows[:, 3].astype(np.int64),
            "thread": rows[:, 4].astype(np.int64),
            "t0": rows[:, 5],
            "t1": rows[:, 6],
        }

    def span_totals(self):
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the part of it its children
        cover. Children on the parent's own thread run one after another,
        so their durations add; children on other threads (the replication
        pool) may overlap, so their intervals are merged first.
        """
        c = self._columns()
        n = c["sid"].size
        dur = c["t1"] - c["t0"]
        covered = np.zeros(n)
        if n:
            if not np.array_equal(c["sid"], np.arange(n)):
                raise RuntimeError("span ids are not contiguous; a span never ended")
            has_parent = c["parent"] >= 0
            child = np.nonzero(has_parent)[0]
            par = c["parent"][child]
            same = c["thread"][child] == c["thread"][par]
            covered += np.bincount(par[same], weights=dur[child[same]], minlength=n)
            cross = child[~same]
            groups = {}
            for i in cross.tolist():
                groups.setdefault(int(c["parent"][i]), []).append(i)
            for p, kids in groups.items():
                spans = sorted((c["t0"][i], c["t1"][i]) for i in kids)
                total, cur0, cur1 = 0.0, spans[0][0], spans[0][1]
                for a, b in spans[1:]:
                    if a > cur1:
                        total += cur1 - cur0
                        cur0, cur1 = a, b
                    else:
                        cur1 = max(cur1, b)
                total += cur1 - cur0
                covered[p] += total
        self_time = np.maximum(dur - covered, 0.0)
        self._fold_objectives(c, self_time)
        totals = {}
        for nid, name in enumerate(self._names):
            mask = c["name"] == nid
            totals[name] = {
                "calls": int(mask.sum()),
                "incl_s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return totals

    def _fold_objectives(self, c, self_time):
        """Move each objective span's self time to its defining layer."""
        module = np.array([n.split(".")[0] for n in self._names] or [""])
        objective = np.array([n.endswith(".objective") for n in self._names] or [False])
        spans = np.nonzero(objective[c["name"]])[0]
        owner = c["parent"][spans]
        while True:
            pending = (owner >= 0) & (module[c["name"][np.maximum(owner, 0)]]
                                      != module[c["name"][spans]])
            if not pending.any():
                break
            owner[pending] = c["parent"][owner[pending]]
        keep = owner >= 0
        np.add.at(self_time, owner[keep], self_time[spans[keep]])
        self_time[spans[keep]] = 0.0

    def counter_digest(self, totals):
        """Digest of every call count and counter (no times), for comparing runs."""
        counts = {name: t["calls"] for name, t in totals.items()}
        counts.update(self.counters)
        blob = json.dumps(sorted(counts.items()), separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def write_spans(self, path):
        c = self._columns()
        threads = {t: i for i, t in enumerate(dict.fromkeys(c["thread"].tolist()))}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span_id,parent_id,op_id,name,thread,start_s,end_s\n")
            names = self._names
            for sid, parent, op, nid, thread, t0, t1 in zip(
                    c["sid"].tolist(), c["parent"].tolist(), c["op"].tolist(),
                    c["name"].tolist(), c["thread"].tolist(), c["t0"].tolist(),
                    c["t1"].tolist()):
                fh.write(f"{sid},{parent},{op},{names[nid]},{threads[thread]},"
                         f"{t0:.9f},{t1:.9f}\n")


def install(tracer):
    """Install wrappers on every gels layer boundary the metrics need."""
    from gels import (cli, competitors, distribution, estimation, optimize,
                      simulation)

    t = tracer

    def count_draws(args, result):
        t.add("distribution.sample.draws", int(args[1]))

    def minimize_before(site):
        def before(args, kwargs):
            obj = t.spanned(args[0], f"{site}.objective")
            return (obj,) + tuple(args[1:]), kwargs
        return before

    def minimize_after(args, res):
        t.add("optimize.minimize.iterations", int(res.iterations))
        t.add("optimize.minimize.converged", int(bool(res.converged)))

    def solve_before(args, kwargs):
        f = t.spanned(args[0], "distribution.objective")
        return (f,) + tuple(args[1:]), kwargs

    def fit_given_k_after(args, res):
        t.add("estimation.fit_given_k.converged", int(bool(res.converged)))

    def fit_given_k_error(exc):
        if isinstance(exc, estimation.FitError):
            t.add("estimation.fit_given_k.fit_errors")

    def run_study_after(args, report):
        t.add("simulation.run_study.replications", len(report.replications))
        t.add("simulation.run_study.failed_replications",
              sum(1 for o in report.replications if not o.converged))

    # cli: the benchmark calls cli.main; the subcommands call these globals
    t.wrap(cli, "main", "cli.main")
    _wrap_emit(t, cli)
    t.wrap(cli, "read_values", "cli.read_values")
    t.wrap(cli, "fit", "estimation.fit")
    t.wrap(cli, "fit_all", "competitors.fit_all")
    t.wrap(cli, "sample", "distribution.sample", after=count_draws)
    t.wrap(cli, "run_study", "simulation.run_study", after=run_study_after)
    # simulation: each replication samples and fits
    t.wrap(simulation, "sample", "distribution.sample", after=count_draws)
    t.wrap(simulation, "fit", "estimation.fit")
    # estimation: the k grid (the cross-check calls estimation.fit directly),
    # the per-k solve and the likelihood
    t.wrap(estimation, "fit", "estimation.fit")
    t.wrap(estimation, "fit_given_k", "estimation.fit_given_k",
           after=fit_given_k_after, on_error=fit_given_k_error)
    t.wrap(estimation, "log_likelihood", "estimation.log_likelihood")
    t.wrap(estimation, "score", "estimation.score")
    t.wrap(estimation, "observed_information", "estimation.observed_information")
    t.wrap(estimation, "minimize", "optimize.minimize",
           before=minimize_before("estimation"), after=minimize_after)
    t.wrap(estimation, "log_norm_const", "distribution.log_norm_const")
    t.wrap(estimation, "log_series_sum_partials",
           "special_math.log_series_sum_partials")
    # competitors share the minimizer
    t.wrap(competitors, "minimize", "optimize.minimize",
           before=minimize_before("competitors"), after=minimize_after)
    # optimize: finite-difference stencils looked up by minimize
    t.wrap(optimize, "numerical_hessian", "optimize.numerical_hessian")
    t.wrap(optimize, "numerical_gradient", "optimize.numerical_gradient")
    # distribution: kernel, root finding, and the benchmark's direct calls
    t.wrap(distribution, "log_series_sum", "special_math.log_series_sum")
    t.wrap(distribution, "quantile", "distribution.quantile")
    t.wrap(distribution, "summary", "distribution.summary")
    t.wrap(distribution, "sample", "distribution.sample", after=count_draws)
    t.wrap(distribution, "solve_bracketed", "rootfind.solve_bracketed",
           before=solve_before)
    t.wrap(distribution, "expand_bracket", "rootfind.expand_bracket")
    _wrap_sweeps(t, distribution)


def _wrap_emit(t, cli):
    """cli.emit span plus the bytes it writes (stdout buffer or --output file)."""
    call = t.spanned(cli.emit, "cli.emit")

    def emit(args, *rest, **kwargs):
        out = sys.stdout
        pos = out.tell() if isinstance(out, io.StringIO) else None
        try:
            return call(args, *rest, **kwargs)
        finally:
            if args.output:
                t.add("cli.emit.bytes", os.path.getsize(args.output))
            elif pos is not None:
                t.add("cli.emit.bytes", out.tell() - pos)

    t.replace(cli, "emit", emit)


def _wrap_sweeps(t, distribution):
    """Count sampler sweeps: ``sample`` calls ``ndtr`` once per sweep."""
    original = distribution.ndtr

    def ndtr(x, *args, **kwargs):
        if t.innermost() == "distribution.sample":
            t.add("distribution.sample.sweeps")
        return original(x, *args, **kwargs)

    t.replace(distribution, "ndtr", ndtr)


# span name -> the per-layer figures reported from its spans
SPAN_FIGURES = {
    "special_math.log_series_sum": ("calls", "self_s"),
    "special_math.log_series_sum_partials": ("calls", "self_s"),
    "distribution.log_norm_const": ("calls", "self_s"),
    "distribution.sample": ("calls", "self_s"),
    "distribution.quantile": ("calls", "self_s"),
    "distribution.summary": ("calls", "self_s"),
    "rootfind.solve_bracketed": ("calls", "self_s"),
    "rootfind.expand_bracket": ("calls",),
    "optimize.minimize": ("calls", "self_s"),
    "optimize.numerical_hessian": ("calls", "self_s"),
    "optimize.numerical_gradient": ("calls",),
    "estimation.log_likelihood": ("calls", "self_s"),
    "estimation.score": ("calls",),
    "estimation.observed_information": ("calls", "self_s"),
    "estimation.fit_given_k": ("calls", "self_s"),
    "estimation.fit": ("calls", "self_s"),
    "competitors.fit_all": ("calls", "self_s"),
    "simulation.run_study": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
    "cli.emit": ("self_s",),
    "cli.read_values": ("self_s",),
}
COUNTERS = (
    "distribution.sample.draws",
    "distribution.sample.sweeps",
    "estimation.fit_given_k.fit_errors",
    "simulation.run_study.replications",
    "simulation.run_study.failed_replications",
    "cli.emit.bytes",
)


def layer_metrics(totals, counters, cache_hits, cache_misses):
    """Per-layer figures; a layer a workload never calls reads 0."""
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
    m = {}
    for name, figures in SPAN_FIGURES.items():
        t = totals.get(name, empty)
        for f in figures:
            m[f"{name}.{f}"] = t[f]
    for key in COUNTERS:
        m[key] = counters.get(key, 0)

    def calls(*names):
        return sum(totals.get(n, empty)["calls"] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    m["rootfind.solve_bracketed.evals"] = calls("distribution.objective")
    m["optimize.minimize.objective_evals"] = calls("estimation.objective",
                                                   "competitors.objective")
    m["optimize.minimize.iterations"] = counters.get("optimize.minimize.iterations", 0)
    m["optimize.minimize.converged_ratio"] = ratio(
        counters.get("optimize.minimize.converged", 0), m["optimize.minimize.calls"])
    m["estimation.fit_given_k.converged_ratio"] = ratio(
        counters.get("estimation.fit_given_k.converged", 0), m["estimation.fit_given_k.calls"])
    ll = totals.get("estimation.log_likelihood", empty)
    m["estimation.log_likelihood.us_per_call"] = ratio(1e6 * ll["incl_s"], ll["calls"])
    lookups = cache_hits + cache_misses
    m["distribution.mixture_cache.lookups"] = lookups
    m["distribution.mixture_cache.hit_ratio"] = ratio(cache_hits, lookups)
    return m


# ROADMAP baseline counters, measured by outside-in wrappers at commit 2387859
ROADMAP_COUNTS = {
    "fit(ball_bearings, 0, 30).log_likelihood_calls": 19328,
    "fit(ball_bearings, 0, 30).minimize_calls": 123,
    "fit(ball_bearings, 0, 30).newton_iterations": 1321,
    "fit(ball_bearings, 0, 30).numerical_hessian_calls": 1324,
    "fit(leukaemia, 0, 10).log_likelihood_calls": 6126,
    "fit(strength_10mm, 0, 10).log_likelihood_calls": 4615,
    "sample((0.5, 1, 0.5), 1e5).sweeps": 44,
}


def crosscheck():
    """Count the ROADMAP baseline calls again, with a fresh tracer each."""
    from gels import GelSParams, datasets, distribution, estimation

    got = {}
    for name, k_max in (("ball_bearings", 30), ("leukaemia", 10), ("strength_10mm", 10)):
        t = Tracer()
        install(t)
        try:
            estimation.fit(datasets.load(name), 0, k_max)
        finally:
            t.uninstall()
        totals = t.span_totals()
        key = f"fit({name}, 0, {k_max})"
        got[f"{key}.log_likelihood_calls"] = totals["estimation.log_likelihood"]["calls"]
        if name == "ball_bearings":
            got[f"{key}.minimize_calls"] = totals["optimize.minimize"]["calls"]
            got[f"{key}.newton_iterations"] = t.counters["optimize.minimize.iterations"]
            got[f"{key}.numerical_hessian_calls"] = totals["optimize.numerical_hessian"]["calls"]
    t = Tracer()
    install(t)
    try:
        distribution.sample(GelSParams(0.5, 1, 0.5), 100000, seed=0)
    finally:
        t.uninstall()
    got["sample((0.5, 1, 0.5), 1e5).sweeps"] = t.counters["distribution.sample.sweeps"]
    return {"matches": got == ROADMAP_COUNTS,
            "counts": {k: {"roadmap": ROADMAP_COUNTS[k], "traced": got[k]} for k in got}}


def worker_speedup(seed, repeats=3):
    """Untraced wall time of the coverage configuration at workers=1 over
    workers=min(2, nproc), same config and seed, alternating, medians."""
    import statistics

    from gels import simulation

    config = simulation.StudyConfig(true_params=simulation.STUDY_PARAMS["I"], n=2000,
                                    k_grid=(2, 2), seed=seed, replications=12)
    workers = min(2, len(os.sched_getaffinity(0)))
    walls = {1: [], workers: []}
    for _ in range(repeats):
        for w in (1, workers):
            t0 = perf_counter()
            simulation.run_study(config, workers=w)
            walls[w].append(perf_counter() - t0)
    return statistics.median(walls[1]) / statistics.median(walls[workers])
