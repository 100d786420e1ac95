"""The benchmark's tracer (perfbench/tracer.py) wraps gels functions by
module attribute; every name it looks up must still exist."""

import importlib.util
from pathlib import Path

from gels import estimation, optimize

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
