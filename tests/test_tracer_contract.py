"""The benchmark's tracer (perfbench/tracer.py) wraps gels functions by
module attribute; every name it looks up must still exist."""

import importlib.util
from pathlib import Path

from gels import GelSParams, distribution, estimation, optimize

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall():
    tracer = load_tracer()
    t = tracer.Tracer()
    try:
        tracer.install(t)
        assert estimation.minimize is not optimize.minimize
    finally:
        t.uninstall()
    assert estimation.minimize is optimize.minimize


def test_sampler_sweeps_counted():
    # the tracer counts sweeps through the module-level name
    # distribution.ndtr, which sample must call once per sweep
    tracer = load_tracer()
    t = tracer.Tracer()
    try:
        tracer.install(t)
        distribution.sample(GelSParams(0.5, 1, 0.5), 100, 1)
        assert t.counters["distribution.sample.sweeps"] > 0
    finally:
        t.uninstall()


def test_root_solves_traced():
    # quantile and mode must look their solver up as distribution's
    # solve_bracketed and expand_bracket, the names the tracer wraps
    tracer = load_tracer()

    def calls(query):
        t = tracer.Tracer()
        try:
            tracer.install(t)
            query()
        finally:
            t.uninstall()
        totals = t.span_totals()
        return {name: totals.get(name, {"calls": 0})["calls"]
                for name in ("rootfind.solve_bracketed", "rootfind.expand_bracket",
                             "distribution.objective")}

    params = GelSParams(0.5, 2, 0.5)
    got = calls(lambda: distribution.quantile(params, 0.3))
    assert got["rootfind.solve_bracketed"] == 1
    assert got["rootfind.expand_bracket"] == 1
    assert got["distribution.objective"] > 0
    got = calls(lambda: distribution.mode(params))
    assert got["rootfind.solve_bracketed"] == 1
    assert got["distribution.objective"] > 0


def test_mixture_cache_hooks():
    # perfbench/run.py clears the mixture cache before each traced cycle
    # and reads its hits and misses after it
    distribution._mixture.cache_clear()
    params = GelSParams(0.5, 1, 0.5)
    distribution._mixture(params)
    distribution._mixture(params)
    info = distribution._mixture.cache_info()
    assert (info.hits, info.misses) == (1, 1)
