"""Monte Carlo study runner: determinism, recovery, coverage plumbing."""

import concurrent.futures
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gels.distribution import GelSParams
from gels.simulation import STUDY_PARAMS, StudyConfig, StudyReport, run_study

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestConfig:
    def test_presets(self):
        assert STUDY_PARAMS["I"] == GelSParams(1.0, 2, 1.0)
        assert STUDY_PARAMS["II"] == GelSParams(2.0, 4, 0.5)

    def test_validation(self):
        truth = STUDY_PARAMS["I"]
        with pytest.raises(ValueError):
            StudyConfig(true_params=truth, n=1, k_grid=(0, 2), seed=1)
        with pytest.raises(ValueError):
            StudyConfig(true_params=truth, n=100, k_grid=(3, 2), seed=1)
        with pytest.raises(ValueError):
            StudyConfig(true_params=truth, n=100, k_grid=(0, 2), seed=1,
                        replications=0)


class TestDeterminism:
    def test_identical_configs_identical_reports(self):
        config = StudyConfig(true_params=STUDY_PARAMS["I"], n=300,
                             k_grid=(1, 3), seed=42, replications=3)
        a = run_study(config)
        b = run_study(config)
        # byte-level comparison catches every field, including the
        # covariance arrays nested inside the per-replication fits
        assert pickle.dumps(a) == pickle.dumps(b)

    def test_workers_do_not_change_results(self):
        config = StudyConfig(true_params=STUDY_PARAMS["II"], n=250,
                             k_grid=(3, 5), seed=7, replications=4)
        serial = run_study(config, workers=1)
        threaded = run_study(config, workers=3)
        assert pickle.dumps(serial) == pickle.dumps(threaded)

    def test_different_seeds_differ(self):
        base = dict(true_params=STUDY_PARAMS["I"], n=300, k_grid=(2, 2))
        a = run_study(StudyConfig(seed=1, **base))
        b = run_study(StudyConfig(seed=2, **base))
        assert a.replications[0].gamma_hat != b.replications[0].gamma_hat


class TestSmallSamples:
    def test_mini_study_completes(self):
        config = StudyConfig(true_params=STUDY_PARAMS["I"], n=10,
                             k_grid=(0, 3), seed=5)
        report = run_study(config)
        assert isinstance(report, StudyReport)
        assert isinstance(report.k_recovered, bool)
        assert isinstance(report.alpha_covered, bool)
        assert sum(report.k_counts.values()) == 1


class TestRecoveryAndCoverage:
    def test_recovery_at_moderate_n(self):
        config = StudyConfig(true_params=STUDY_PARAMS["I"], n=4000,
                             k_grid=(0, 4), seed=31)
        report = run_study(config)
        assert report.selected_k == 2
        sel = next(r for r in report.per_k if r.k == 2)
        assert abs(sel.alpha_hat - 1.0) <= 0.3
        assert abs(sel.gamma_hat - 1.0) <= 0.05

    def test_gamma_error_shrinks_with_n(self):
        truth = STUDY_PARAMS["I"]

        def mean_abs_err(n):
            config = StudyConfig(true_params=truth, n=n,
                                 k_grid=(truth.k, truth.k), seed=202,
                                 replications=5)
            report = run_study(config)
            errs = [abs(o.gamma_hat - truth.gamma)
                    for o in report.replications if o.converged]
            assert len(errs) == 5
            return float(np.mean(errs))

        assert mean_abs_err(10000) < mean_abs_err(1000)

    def test_coverage_fields(self):
        config = StudyConfig(true_params=STUDY_PARAMS["I"], n=500,
                             k_grid=(2, 2), seed=77, replications=20)
        report = run_study(config, workers=2)
        assert 0.0 <= report.coverage_alpha <= 1.0
        assert 0.0 <= report.coverage_gamma <= 1.0
        assert len(report.replications) == 20
        assert sum(report.k_counts.values()) == 20


class TestSerialReplications:
    def test_no_pool_for_any_worker_count(self, monkeypatch):
        # workers is accepted and ignored, so asking for 5000 builds no pool
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a thread pool was built")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NoPool)
        config = StudyConfig(true_params=STUDY_PARAMS["I"], n=200, k_grid=(2, 2),
                             seed=3, replications=5)
        assert (pickle.dumps(run_study(config, workers=5000))
                == pickle.dumps(run_study(config, workers=1)))

    def test_no_thread_started(self):
        # a fresh interpreter, so nothing this test process loaded counts;
        # scipy.special imports concurrent.futures itself, but not its
        # thread-pool module
        code = """
import sys, threading
started = []
_start = threading.Thread.start
def start(self):
    started.append(self.name)
    _start(self)
threading.Thread.start = start
from gels.simulation import STUDY_PARAMS, StudyConfig, run_study
config = StudyConfig(true_params=STUDY_PARAMS['I'], n=200, k_grid=(2, 2), seed=3,
                     replications=3)
run_study(config, workers=4)
assert 'concurrent.futures.thread' not in sys.modules
assert started == [], started
assert threading.active_count() == 1, threading.active_count()
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
