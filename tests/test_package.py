"""The lazy `gels` package and the BLAS thread count the CLI starts with."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gels

SRC = str(Path(__file__).resolve().parents[1] / "src")
HOMES = [importlib.import_module(f"gels.{m}")
         for m in ("distribution", "estimation", "simulation")]


class TestLazyNames:
    @pytest.mark.parametrize("name", gels.__all__ + ["run_study"])
    def test_name_is_its_home_module_object(self, name):
        homes = [m for m in HOMES if hasattr(m, name)]
        assert homes
        assert all(getattr(gels, name) is getattr(m, name) for m in homes)

    def test_dir_lists_every_export(self):
        assert set(gels.__all__) <= set(dir(gels))

    def test_star_import(self):
        namespace = {}
        exec("from gels import *", namespace)
        assert {n for n in namespace if not n.startswith("__")} == set(gels.__all__)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            gels.no_such_name
        with pytest.raises(ImportError):
            exec("from gels import no_such_name", {})

    def test_submodules(self):
        from gels import datasets, distribution

        assert distribution is sys.modules["gels.distribution"]
        assert datasets.available()
        assert gels.special_math is sys.modules["gels.special_math"]


def run_fresh(code, **env):
    """Run `code` in a new interpreter whose environment has no
    OPENBLAS_NUM_THREADS unless `env` sets it: once this process has imported
    gels.cli it exports "1", and a child inheriting that proves nothing."""
    child = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env={**child, **env},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# the main thread only; OpenBLAS's workers are tasks of the process as well
ONE_TASK = """
if os.path.isdir('/proc/self/task'):
    assert len(os.listdir('/proc/self/task')) == 1, os.listdir('/proc/self/task')
"""


class TestBlasThreads:
    def test_plain_import_leaves_numpy_and_environment_alone(self):
        run_fresh("""
import os, sys
import gels
gels.__version__, gels.__all__
assert 'numpy' not in sys.modules
assert 'OPENBLAS_NUM_THREADS' not in os.environ
""")

    def test_cli_starts_one_blas_thread(self):
        run_fresh(f"""
import os
import gels.cli
assert os.environ['OPENBLAS_NUM_THREADS'] == '1'
{ONE_TASK}
import scipy.special
{ONE_TASK}
""")

    def test_user_value_wins(self):
        run_fresh("""
import os
import gels.cli
assert os.environ['OPENBLAS_NUM_THREADS'] == '2'
""", OPENBLAS_NUM_THREADS="2")
