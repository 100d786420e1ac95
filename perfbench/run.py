"""Benchmark for the gels toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The library is imported from ``src/`` of the
same tree; nothing is installed. With ``--trace 0`` the run measures the
end-to-end metrics named in ``BENCHMARK.json`` with tracing off, for whole
cycles until ``--seconds`` have passed. With ``--trace 1`` it runs a fixed
number of cycles, each once untraced and once traced, so the per-layer
counters repeat exactly for a seed, and prints the per-layer metrics, the
tracing overhead and a cross-check of the counters against the ROADMAP
baseline. The last line of standard output is the JSON result; the line
before it holds the run's context and details.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 4
MIN_CYCLES = 2  # the same-seed draw check compares cycles
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import gels.cli
t1 = time.perf_counter()
from gels import datasets
for name in datasets.available():
    datasets.load(name)
print(t1 - t0)
"""
LOAD_AVG_AT_START = os.getloadavg()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# statistics


def percentile(values, p):
    """Nearest-rank percentile of a non-empty sample."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def tail(values):
    """Highest whole percentile (at most 99) with at least ten samples beyond it.

    Returns (value, percentile, sample count); with ten samples or fewer
    there is no such percentile and the maximum is returned as p100.
    """
    n = len(values)
    if n <= 10:
        return max(values), 100, n
    p = min(99, (100 * (n - 10)) // n)
    return percentile(values, p), p, n


def median(values):
    return statistics.median(values) if values else math.nan


# ---------------------------------------------------------------------------
# set-up


def measure_setup(repeats):
    """Fresh interpreters up to gels.cli imported and the datasets loaded.

    One unmeasured start first, so bytecode is compiled and the files are
    cached. Returns the medians of the child's CPU seconds (user + system),
    its wall seconds, and its in-process import wall seconds.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cpus, walls, imports = [], [], []
    for i in range(repeats + 1):
        r0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        wall = perf_counter() - t0
        r1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        if i:
            cpus.append(r1.ru_utime + r1.ru_stime - r0.ru_utime - r0.ru_stime)
            walls.append(wall)
            imports.append(float(proc.stdout.split()[-1]))
    return tuple(statistics.median(v) for v in (cpus, walls, imports))


def context():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "load_avg_at_start": [round(x, 2) for x in LOAD_AVG_AT_START],
    }


# ---------------------------------------------------------------------------
# loops


def run_cycles(workload, runner, seconds=None, cycles=None):
    """Whole cycles, either a fixed count or until `seconds` have passed."""
    t0 = perf_counter()
    c = 0
    while True:
        if cycles is not None and c >= cycles:
            break
        if seconds is not None and c >= MIN_CYCLES and perf_counter() - t0 >= seconds:
            break
        workload.cycle(c, runner)
        c += 1
    return perf_counter() - t0, c


def summarize(records, work_kind, clock):
    """Throughput and latency of one loop on one clock ("cpu" or "seconds").

    The CPU figures are named ``ops_per_cpu_s``, ``work_per_cpu_s`` and
    ``op_cpu_ms.*``; the wall-clock ones ``ops_per_s``, ``work_per_s`` and
    ``op_ms.*``.
    """
    def t(r):
        return getattr(r, clock)

    ok = [r for r in records if r.failure is None]
    lat = [t(r) * 1e3 for r in ok]
    tail_ms, tail_p, tail_n = tail(lat)
    per = "_per_cpu_s" if clock == "cpu" else "_per_s"
    op = "op_cpu_ms" if clock == "cpu" else "op_ms"
    return {
        "ops" + per: len(ok) / sum(t(r) for r in records),
        "work" + per: (sum(r.work for r in ok)
                       / sum(t(r) for r in records if r.kind == work_kind)),
        op + ".p50": median(lat),
        op + ".tail": tail_ms,
        op + ".tail_percentile": tail_p,
        op + ".samples": tail_n,
    }


def query_metrics(records, clock):
    """Latency of the quantile and summary calls alone (distribution-queries).

    The other per-workload names are aliases of the summarized figures;
    context.json lists them.
    """
    def us(kind):
        return [getattr(r, clock) * 1e6 for r in records
                if r.kind == kind and r.failure is None]

    qs, stats = us("quantile"), us("summary")
    if not qs:
        return {}
    v, p, n = tail(qs)
    return {"quantile_us.p50": {"value": median(qs), "unit": "us"},
            "quantile_us.tail": {"value": v, "unit": "us", "percentile": p, "samples": n},
            "stats_us.p50": {"value": median(stats), "unit": "us"}}


def per_label(records):
    """Operation count, failures and median latency for each operation label."""
    groups = {}
    for r in records:
        groups.setdefault(r.label, []).append(r)
    out = {}
    for label, rs in groups.items():
        ok = [r for r in rs if r.failure is None]
        out[label] = {"n": len(rs), "failed": len(rs) - len(ok),
                      "p50_ms": statistics.median(r.seconds * 1e3 for r in ok) if ok else None,
                      "p50_cpu_ms": statistics.median(r.cpu * 1e3 for r in ok) if ok else None}
    return out


def failures(records):
    """Failed operations counted by label and reason."""
    groups = {}
    for r in records:
        if r.failure is not None:
            key = f"{r.label}: {r.failure}"
            groups[key] = groups.get(key, 0) + 1
    return groups


def result_line(records, metrics, spec, defects):
    """The last line: every metric named in `spec`, with its unit.

    The run is correct when every timed operation passed its checks and the
    known-defect probe saw each defect only in its known form.
    """
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": (all(r.failure is None for r in records)
                    and not any(d["new"] for d in defects.values())),
        "attempted": len(records),
        "failed": sum(r.failure is not None for r in records),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }


# ---------------------------------------------------------------------------
# main


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gels" / "__init__.py").is_file():
        print(f"error: no gels sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS, Runner, Schemas

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    # fixed-length name: fit output echoes input paths, and cli.emit.bytes counts them
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        setup_cpu_s, setup_wall_s, import_s = measure_setup(
            SETUP_REPEATS if not args.trace else 3)
        import gels.cli  # noqa: F401  (in-process, after the set-up probes)

        workload = WORKLOADS[args.workload](args.seed, workdir, Schemas())
        defects = workload.known_defects()  # untimed, before the loop
        run_cycles(workload, Runner(), cycles=1)  # warm-up; also pins draw digests
        if args.trace:
            detail, result = traced(args, workload, spec, import_s, out_dir, defects)
        else:
            runner = Runner()
            loop_s, cycles = run_cycles(workload, runner, seconds=args.seconds)
            figures = summarize(runner.records, workload.work_kind, "cpu")
            figures["setup_s"] = setup_cpu_s
            figures["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            figures["ops_ok_frac"] = sum(r.failure is None for r in runner.records) / len(
                runner.records)
            detail = {
                "workload": args.workload, "seed": args.seed, "trace": 0,
                "cycles": cycles, "loop_s": loop_s,
                "cpu_figures": {k: v for k, v in figures.items() if "tail_" in k or "samples" in k},
                "wall_figures": dict(summarize(runner.records, workload.work_kind, "seconds"),
                                     setup_wall_s=setup_wall_s),
                "query_metrics": {"wall": query_metrics(runner.records, "seconds"),
                                  "cpu": query_metrics(runner.records, "cpu")},
                "per_label": per_label(runner.records),
                "failures": failures(runner.records),
                "known_defects": defects,
                "context": context(),
            }
            result = result_line(runner.records, figures, spec["end_to_end"], defects)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def difference(untraced, traced, work_kind):
    """Traced minus untraced throughput and latency, on both clocks."""
    out = {}
    for clock in ("cpu", "seconds"):
        a, b = summarize(untraced, work_kind, clock), summarize(traced, work_kind, clock)
        out[clock] = {k: b[k] - a[k] for k in a if not k.endswith(("percentile", "samples"))}
    return out


def traced(args, workload, spec, import_s, out_dir, defects):
    """Each cycle untraced, then again traced; per-layer metrics.

    Alternating the two passes cycle by cycle keeps machine drift out of
    the overhead figure. The mixture cache is cleared before each traced
    cycle and its hits are counted over the traced cycles only.
    """
    from gels import distribution
    from tracer import Tracer, crosscheck, install, layer_metrics, worker_speedup
    from workloads import Runner

    cycles = workload.traced_cycles
    plain, tracer = Runner(), Tracer()
    runner = Runner(tracer)
    plain_s = traced_s = 0.0
    hits = misses = 0
    for c in range(cycles):
        t0 = perf_counter()
        workload.cycle(c, plain)
        plain_s += perf_counter() - t0
        distribution._mixture.cache_clear()
        install(tracer)
        try:
            t0 = perf_counter()
            workload.cycle(c, runner)
            traced_s += perf_counter() - t0
        finally:
            tracer.uninstall()
        info = distribution._mixture.cache_info()
        hits, misses = hits + info.hits, misses + info.misses
    totals = tracer.span_totals()

    plain_cpu = sum(r.cpu for r in plain.records)
    traced_cpu = sum(r.cpu for r in runner.records)
    metrics = layer_metrics(totals, tracer.counters, hits, misses)
    metrics["simulation.run_study.worker_speedup"] = worker_speedup(args.seed)
    metrics["cli.import_s"] = import_s
    metrics["tracing.overhead_frac"] = traced_cpu / plain_cpu - 1.0

    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write_spans(spans_path)
    check = crosscheck()
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": 1, "cycles": cycles,
        "counter_digest": tracer.counter_digest(totals),
        "tracing_overhead": {
            "wall_s": {"untraced": plain_s, "traced": traced_s},
            "cpu_s_in_gels": {"untraced": plain_cpu, "traced": traced_cpu},
            "e2e_traced_minus_untraced": difference(plain.records, runner.records,
                                                    workload.work_kind),
        },
        "crosscheck_vs_roadmap": check,
        "failures": failures(runner.records),
        "known_defects": defects,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_count": sum(t["calls"] for t in totals.values()),
        "context": context(),
    }
    return detail, result_line(runner.records, metrics, spec["per_layer"], defects)


if __name__ == "__main__":
    sys.exit(main())
