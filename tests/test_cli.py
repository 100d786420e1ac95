"""Command-line interface: formats, schemas, exit codes, round trips."""

import concurrent.futures
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gels import datasets
from gels.cli import main, schema_path
from gels.distribution import GelSParams, sample

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv, "--format", "json")
    assert rc == 0
    return json.loads(out)


def validated(capsys, command, *argv):
    payload = run_json(capsys, command, *argv)
    schema = json.loads(schema_path(command).read_text())
    jsonschema.validate(payload, schema)
    return payload


class TestDatasets:
    def test_available(self):
        assert datasets.available() == ["ball_bearings", "leukaemia",
                                        "strength_10mm"]

    def test_counts_and_positivity(self):
        for name, n in (("ball_bearings", 23), ("leukaemia", 33),
                        ("strength_10mm", 63)):
            ds = datasets.load(name)
            assert ds.n == n
            assert np.all(ds.values > 0)
            assert ds.source

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            datasets.load("nope")


class TestRepeatedCalls:
    """main reuses one parser: consecutive calls, usage errors among them,
    must not leak options or defaults into each other."""

    SEQUENCE = [
        (["stats", "--alpha", "0.5", "--k", "1", "--gamma", "0.5"], 0),
        (["quantile", "--alpha", "0.5", "--k", "1", "--gamma", "0.6",
          "--p", "0.95,0.99", "--format", "json"], 0),
        (["stats", "--alpha", "0.5", "--k", "1"], 2),  # missing --gamma
        (["sample", "--alpha", "1", "--k", "2", "--gamma", "1", "--n", "5",
          "--seed", "3", "--format", "csv"], 0),
        (["no-such-command"], 2),
        (["fit", "--dataset", "leukaemia", "--kmax", "3"], 0),
        (["quantile", "--alpha", "0", "--k", "0", "--gamma", "1", "--p", "1.5"], 2),
        (["sample", "--alpha", "1", "--k", "2", "--gamma", "1", "--n", "5",
          "--seed", "3"], 0),
    ]

    def run_all(self, capsys, order):
        results = {}
        for i in order:
            argv, _ = self.SEQUENCE[i]
            rc = main(list(argv))
            captured = capsys.readouterr()
            results[i] = (rc, captured.out, captured.err)
        return results

    def test_same_output_in_any_order(self, capsys):
        forward = self.run_all(capsys, range(len(self.SEQUENCE)))
        backward = self.run_all(capsys, reversed(range(len(self.SEQUENCE))))
        assert forward == backward
        for i, (argv, rc) in enumerate(self.SEQUENCE):
            assert forward[i][0] == rc, argv
        assert "usage: gels stats" in forward[2][2]
        assert "invalid choice" in forward[4][2]
        # default text format after a csv call: bare values, one per line
        text = [float(v) for v in forward[7][1].split()]
        assert text == [float(v) for v in forward[3][1].split()[1:]]
        assert json.loads(forward[1][1])["quantiles"][0]["p"] == 0.95


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert main(["no-such-command"]) == 2
        assert main(["stats", "--alpha", "-1", "--k", "0", "--gamma", "1"]) == 2
        assert main(["stats", "--alpha", "0", "--k", "0", "--gamma", "0"]) == 2
        assert main(["quantile", "--alpha", "0", "--k", "0", "--gamma", "1",
                     "--p", "1.5"]) == 2
        assert main(["sample", "--alpha", "0", "--k", "0", "--gamma", "1",
                     "--n", "0"]) == 2
        capsys.readouterr()

    def test_data_errors(self, capsys, tmp_path):
        one = tmp_path / "one.txt"
        one.write_text("5.0\n")
        assert main(["fit", str(one)]) == 3
        assert main(["fit", str(tmp_path / "missing.txt")]) == 3
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0\nhello\n")
        assert main(["fit", str(bad)]) == 3
        neg = tmp_path / "neg.txt"
        neg.write_text("1.0\n-2.0\n3.0\n")
        assert main(["fit", str(neg)]) == 3
        capsys.readouterr()

    def test_numerical_failure(self, capsys):
        # fourth moment overflows at this scale, so stats cannot complete
        assert main(["stats", "--alpha", "0", "--k", "0", "--gamma", "15"]) == 4
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["quantile", "--alpha", "0.5", "--k", "1", "--gamma", "30",
         "--p", "0.999999"],
        ["pdf-curve", "--alpha", "0.5", "--k", "1", "--gamma", "30",
         "--points", "5"],
        ["sample", "--alpha", "0.5", "--k", "1", "--gamma", "40", "--n", "5",
         "--seed", "1", "--format", "json"],
    ])
    def test_overflowing_variates(self, capsys, argv):
        # x - alpha beyond the float range: exit 4 with ln(x - alpha) named,
        # never a traceback or an inf printed (invalid JSON) with exit 0
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "a float (ln(x - alpha)" in captured.err

    @pytest.mark.parametrize("argv", [
        ["sample", "--alpha", "0.5", "--k", "1", "--gamma", "0.5", "--n", "2",
         "--seed", "-1"],
        ["simulate", "--study", "I", "--n", "100", "--seed", "-3"],
    ])
    def test_negative_seed(self, capsys, argv):
        assert main(argv) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        # a bad k grid escaped pdf-curve's fit as ValueError: bad k grid
        ["pdf-curve", "--dataset", "ball_bearings", "--kmin", "3", "--kmax", "1"],
        ["pdf-curve", "--dataset", "ball_bearings", "--kmin", "-1"],
        # --column 0 read the last field and --column -1 the one before it
        ["fit", "DATA", "--column", "0"],
        ["fit", "DATA", "--column", "-1"],
        # str.split raised ValueError: empty separator
        ["fit", "DATA", "--column", "2", "--delimiter", ""],
        ["compare", "DATA", "--column", "2", "--delimiter", ""],
    ])
    def test_option_escapes(self, capsys, tmp_path, argv):
        path = tmp_path / "data.csv"
        path.write_text("a,1.5\nb,2.5\nc,3.5\n")
        assert main([str(path) if a == "DATA" else a for a in argv]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sample", "--alpha", "1", "--k", "1", "--gamma", "1", "--n", "0"],
        ["simulate", "--study", "I", "--workers", "0"],
        ["pdf-curve", "--alpha", "1", "--k", "1", "--gamma", "1", "--points", "1"],
        ["pdf-curve", "--dataset", "leukaemia", "--bins", "0"],
        ["fit", "--dataset", "leukaemia", "--column", "x"],
    ])
    def test_integer_bounds_are_usage_errors(self, capsys, argv):
        assert main(argv) == 2
        assert "error: argument --" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "compare", "pdf-curve"])
    def test_one_observation_and_bad_grid_is_a_data_error(self, capsys, tmp_path,
                                                          command):
        # n >= 2 is checked before the k grid
        path = tmp_path / "one.txt"
        path.write_text("5.0\n")
        assert main([command, str(path), "--kmin", "3", "--kmax", "1"]) == 3
        capsys.readouterr()

    def test_conflicting_inputs(self, capsys, tmp_path):
        f = tmp_path / "x.txt"
        f.write_text("1\n2\n")
        assert main(["fit", str(f), "--dataset", "leukaemia"]) == 2
        assert main(["fit"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestImportPath:
    def test_scipy_stays_off_the_cli_path(self):
        # scipy.special is loaded only when drawing variates; a fresh
        # interpreter is needed because this test process imports scipy
        code = """
import contextlib, io, sys
import gels.cli
assert 'scipy' not in sys.modules, 'import gels.cli'
triple = ['--alpha', '0.5', '--k', '1', '--gamma', '0.5']
for argv in (['fit', '--dataset', 'leukaemia', '--kmax', '2'],
             ['compare', '--dataset', 'leukaemia', '--kmax', '2'],
             ['stats', *triple], ['quantile', *triple, '--p', '0.1,0.9'],
             ['pdf-curve', *triple, '--points', '5']):
    with contextlib.redirect_stdout(io.StringIO()):
        assert gels.cli.main(argv) == 0, argv
    assert 'scipy' not in sys.modules, argv
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS enforced")
class TestAddressSpaceLimit:
    def test_sample_at_large_k(self):
        import resource

        # K x 8192-draw buffers asked for 2 x 458 MiB here and ended in
        # _ArrayMemoryError; blocks of 2^20 // K draws need 2 x 8 MiB
        def limit_child():
            resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

        argv = ["sample", "--alpha", "0.5", "--gamma", "1e-4", "--k", "20000",
                "--n", "3000", "--seed", "1", "--format", "json"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "gels.cli", *argv], env=env,
                              preexec_fn=limit_child, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(proc.stdout)["values"]) == 3000


class TestInputParsing:
    def test_comments_and_blanks(self, capsys, tmp_path):
        f = tmp_path / "data.txt"
        f.write_text("# header\n1.5\n\n2.5  # trailing comment\n3.5\n")
        payload = validated(capsys, "fit", str(f), "--kmax", "0")
        assert payload["input"]["n"] == 3

    def test_column_selection(self, capsys, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("a,1.5\nb,2.5\nc,3.5\n")
        payload = validated(capsys, "fit", str(f), "--column", "2",
                            "--kmax", "0")
        assert payload["input"]["n"] == 3

    def test_column_out_of_range(self, capsys, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("1.5\n")
        assert main(["fit", str(f), "--column", "3"]) == 3
        capsys.readouterr()

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1.5\n2.0\n2.5\n3.1\n"))
        payload = validated(capsys, "fit", "-", "--kmax", "0")
        assert payload["input"]["n"] == 4


class TestStats:
    def test_text_values(self, capsys):
        rc, out = run(capsys, "stats", "--alpha", "0.5", "--k", "1",
                      "--gamma", "0.5")
        assert rc == 0
        assert "mean" in out and "2.26" in out

    def test_csv_header(self, capsys):
        rc, out = run(capsys, "stats", "--alpha", "0.5", "--k", "1",
                      "--gamma", "0.5", "--format", "csv")
        assert rc == 0
        assert out.splitlines()[0] == ("alpha,k,gamma,mean,variance,"
                                       "skewness,kurtosis,mode,median")

    def test_json_schema(self, capsys):
        payload = validated(capsys, "stats", "--alpha", "1.5", "--k", "1",
                            "--gamma", "0.5")
        assert abs(payload["summary"]["mean"] - 3.16) <= 0.005
        assert abs(payload["summary"]["mode"] - 2.61) <= 0.005

    def test_lognormal_case(self, capsys):
        payload = validated(capsys, "stats", "--alpha", "0", "--k", "0",
                            "--gamma", "1")
        assert abs(payload["summary"]["median"] - math.e) <= 1e-6


class TestQuantileAndSample:
    def test_quantile_values(self, capsys):
        payload = validated(capsys, "quantile", "--alpha", "0.5", "--k", "1",
                            "--gamma", "0.6", "--p", "0.95,0.99")
        got = {row["p"]: row["x"] for row in payload["quantiles"]}
        assert abs(got[0.95] - 5.72) <= 0.005
        assert abs(got[0.99] - 8.42) <= 0.005

    def test_quantile_csv_header(self, capsys):
        rc, out = run(capsys, "quantile", "--alpha", "0.5", "--k", "1",
                      "--gamma", "0.5", "--p", "0.5", "--format", "csv")
        assert out.splitlines()[0] == "p,x"

    def test_sample_deterministic(self, capsys):
        rc1, out1 = run(capsys, "sample", "--alpha", "1", "--k", "2",
                        "--gamma", "1", "--n", "5", "--seed", "7")
        rc2, out2 = run(capsys, "sample", "--alpha", "1", "--k", "2",
                        "--gamma", "1", "--n", "5", "--seed", "7")
        assert rc1 == rc2 == 0
        assert out1 == out2
        assert len(out1.splitlines()) == 5

    def test_sample_csv_header(self, capsys):
        rc, out = run(capsys, "sample", "--alpha", "1", "--k", "2", "--gamma",
                      "1", "--n", "3", "--seed", "1", "--format", "csv")
        assert out.splitlines()[0] == "value"

    def test_sample_formats_match_scalar_formatting(self, capsys):
        # each draw formatted as the numpy scalar it is, one at a time
        draws = list(sample(GelSParams(1.0, 2, 1.0), 40, seed=11))
        argv = ["sample", "--alpha", "1", "--k", "2", "--gamma", "1", "--n", "40",
                "--seed", "11"]
        assert run(capsys, *argv) == (0, "".join(f"{v:.17g}\n" for v in draws))
        assert run(capsys, *argv, "--format", "csv") == (
            0, "value\n" + "".join(f"{float(v)!r}\n" for v in draws))
        payload = {"command": "sample", "params": {"alpha": 1.0, "k": 2, "gamma": 1.0},
                   "n": 40, "seed": 11, "values": [float(v) for v in draws]}
        assert run(capsys, *argv, "--format", "json") == (
            0, json.dumps(payload, indent=2) + "\n")

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_streamed_output_matches_joined_formatting(self, tmp_path, fmt):
        # more lines than one write chunk, so the chunk seams are covered
        n = 100_000
        path = tmp_path / f"draws.{fmt}"
        assert main(["sample", "--alpha", "0.5", "--k", "1", "--gamma", "0.5",
                     "--n", str(n), "--seed", "8", "--format", fmt,
                     "--output", str(path)]) == 0
        draws = sample(GelSParams(0.5, 1, 0.5), n, seed=8).tolist()
        if fmt == "text":
            expected = "".join(f"{v:.17g}\n" for v in draws)
        else:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["value"])
            writer.writerows([repr(v)] for v in draws)
            expected = buf.getvalue()
        assert path.read_text() == expected

    def test_sample_schema(self, capsys):
        payload = validated(capsys, "sample", "--alpha", "1", "--k", "2",
                            "--gamma", "1", "--n", "4", "--seed", "3")
        assert len(payload["values"]) == 4
        assert all(v > 1.0 for v in payload["values"])


class TestFit:
    def test_bundled_dataset_small_grid(self, capsys):
        payload = validated(capsys, "fit", "--dataset", "leukaemia",
                            "--kmax", "2")
        assert payload["selected"]["k"] == 0
        assert abs(payload["selected"]["neg_loglik"] - 153.24) <= 0.05
        assert payload["confidence"] is not None

    def test_csv_header_and_selected_flag(self, capsys):
        rc, out = run(capsys, "fit", "--dataset", "leukaemia", "--kmax", "1",
                      "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "k,alpha_hat,gamma_hat,loglik,aic,sic,converged,selected"
        assert [l.split(",")[-1] for l in lines[1:]] == ["true", "false"]

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "fit.json"
        rc = main(["fit", "--dataset", "leukaemia", "--kmax", "0",
                   "--format", "json", "--output", str(dest)])
        assert rc == 0
        payload = json.loads(dest.read_text())
        assert payload["command"] == "fit"

    def test_round_trip_recovers_gamma(self, capsys, tmp_path):
        src = tmp_path / "draws.txt"
        rc = main(["sample", "--alpha", "1", "--k", "2", "--gamma", "1",
                   "--n", "5000", "--seed", "99", "--output", str(src)])
        assert rc == 0
        payload = validated(capsys, "fit", str(src), "--kmin", "2",
                            "--kmax", "2")
        sel = payload["selected"]
        assert abs(sel["gamma_hat"] - 1.0) <= 3 * sel["se_gamma"]


    def test_data_in_revolutions(self, capsys, tmp_path):
        # ball_bearings in revolutions rather than millions of revolutions
        src = tmp_path / "revolutions.txt"
        values = datasets.load("ball_bearings").values * 1e6
        src.write_text("".join(f"{v:.17g}\n" for v in values))
        payload = validated(capsys, "fit", str(src), "--kmax", "10")
        assert payload["selected"]["converged"]


class TestSimulate:
    def test_schema_and_recovery_fields(self, capsys):
        payload = validated(capsys, "simulate", "--study", "II", "--n", "600",
                            "--kmin", "3", "--kmax", "5", "--seed", "4")
        assert payload["config"]["k"] == 4
        assert isinstance(payload["recovery"]["k_recovered"], bool)
        assert payload["coverage"] is None

    def test_explicit_triple_and_replications(self, capsys):
        payload = validated(capsys, "simulate", "--alpha", "1", "--k", "2",
                            "--gamma", "1", "--n", "300", "--kmin", "2",
                            "--kmax", "2", "--seed", "6",
                            "--replications", "3")
        assert payload["coverage"] is not None
        assert sum(payload["k_counts"].values()) == 3

    def test_csv_header(self, capsys):
        rc, out = run(capsys, "simulate", "--study", "I", "--n", "200",
                      "--kmin", "2", "--kmax", "2", "--seed", "1",
                      "--format", "csv")
        assert out.splitlines()[0] == "k,alpha_hat,gamma_hat,loglik,selected"

    def test_threads_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GELS_THREADS", "2")
        rc, _ = run(capsys, "simulate", "--study", "I", "--n", "200",
                    "--kmin", "2", "--kmax", "2", "--seed", "1",
                    "--replications", "2")
        assert rc == 0
        monkeypatch.setenv("GELS_THREADS", "abc")
        assert main(["simulate", "--study", "I", "--n", "200", "--kmin", "2",
                     "--kmax", "2", "--seed", "1"]) == 2
        capsys.readouterr()

    def test_config_reports_requested_workers(self, capsys, monkeypatch):
        # replications run serially, but the payload keeps the count that
        # was asked for; the stand-in executor fails if a pool is built
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a thread pool was built")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NoPool)
        payload = validated(capsys, "simulate", "--study", "I", "--n", "200",
                            "--kmin", "2", "--kmax", "2", "--seed", "1",
                            "--replications", "2", "--workers", "5000")
        assert payload["config"]["workers"] == 5000

    def test_needs_study_or_triple(self, capsys):
        assert main(["simulate", "--n", "200", "--seed", "1"]) == 2
        capsys.readouterr()


class TestCompare:
    def test_text_flags_best(self, capsys):
        rc, out = run(capsys, "compare", "--dataset", "ball_bearings")
        assert rc == 0
        assert "GEL-S" in out and "note:" in out

    def test_schema_and_conventions(self, capsys):
        payload = validated(capsys, "compare", "--dataset", "ball_bearings")
        by_family = {m["family"]: m for m in payload["models"]}
        assert by_family["Gamma"]["n_p"] == 2
        assert by_family["Gamma"]["n_p_shifted"] == 3
        assert by_family["Log-normal"]["n_p_shifted"] == 2
        assert payload["best"]["aic"] == "GEL-S"
        assert payload["best"]["sic"] == "GEL-S"

    def test_csv_header(self, capsys, tmp_path):
        src = tmp_path / "small.txt"
        src.write_text("".join(f"{v}\n" for v in
                               np.random.default_rng(1).lognormal(1, 0.4, 40)))
        rc, out = run(capsys, "compare", str(src), "--kmax", "3",
                      "--format", "csv")
        assert rc == 0
        assert out.splitlines()[0] == ("family,k,n_p,loglik,aic,sic,"
                                       "n_p_shifted,aic_shifted,sic_shifted,"
                                       "best_aic,best_sic")


class TestPdfCurve:
    def test_triple_only(self, capsys):
        payload = validated(capsys, "pdf-curve", "--alpha", "0.5", "--k", "1",
                            "--gamma", "0.5", "--points", "50")
        assert payload["source"] is None
        assert payload["histogram"] is None
        xs = [c["x"] for c in payload["curve"]]
        assert len(xs) == 50
        assert xs[0] > 0.5
        dens = [c["density"] for c in payload["curve"]]
        assert max(dens) > 0

    def test_fit_then_curve_with_histogram(self, capsys):
        payload = validated(capsys, "pdf-curve", "--dataset", "leukaemia",
                            "--kmax", "0", "--bins", "8", "--points", "40")
        assert payload["source"] == {"name": "leukaemia", "n": 33}
        assert len(payload["histogram"]) == 8
        assert sum(b["count"] for b in payload["histogram"]) == 33

    def test_csv_header_and_kinds(self, capsys):
        rc, out = run(capsys, "pdf-curve", "--dataset", "leukaemia",
                      "--kmax", "0", "--bins", "4", "--points", "10",
                      "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "kind,x_lo,x_hi,value"
        kinds = {l.split(",")[0] for l in lines[1:]}
        assert kinds == {"density", "histogram"}

    def test_range_too_narrow_for_the_bins(self, capsys, tmp_path):
        # np.histogram raised ValueError: too many bins for the data range
        path = tmp_path / "ties.txt"
        path.write_text("1.0\n1.0000000000000002\n")
        assert main(["pdf-curve", str(path), "--alpha", "0.5", "--k", "1", "--gamma", "0.5",
                     "--bins", "3"]) == 3
        assert "bins" in capsys.readouterr().err

    def test_bins_without_data_rejected(self, capsys):
        assert main(["pdf-curve", "--alpha", "0.5", "--k", "1", "--gamma",
                     "0.5", "--bins", "5"]) == 2
        capsys.readouterr()


class TestExitContract:
    """Every input the CLI accepts ends with exit 0, 2, 3 or 4."""

    @pytest.mark.parametrize("argv, code", [
        # gamma^2 underflows: rejected up front, no ZeroDivisionError
        (["stats", "--alpha", "1e-300", "--k", "0", "--gamma", "5e-324"], 2),
        # ... and no empty quantile bracket
        (["quantile", "--alpha", "7.7954", "--k", "60", "--gamma", "5e-324",
          "--p", "0.9999999999999999"], 2),
        # raw-to-central cancellation made this variance negative
        (["stats", "--alpha", "1e3", "--k", "200", "--gamma", "1e-8"], 0),
        # the means dwarf gamma's pad, or gamma^2 leaves the float range
        (["quantile", "--alpha", "7.7954", "--k", "0", "--gamma", "1e100", "--p", "0.5"], 4),
        (["quantile", "--alpha", "0", "--k", "27", "--gamma", "1e300", "--p", "0.9"], 4),
        (["stats", "--alpha", "0", "--k", "0", "--gamma", "1.7e308"], 4),
        (["sample", "--alpha", "0", "--k", "27", "--gamma", "1e300", "--n", "3"], 4),
    ])
    def test_pinned_reproducers(self, capsys, argv, code):
        assert main(argv) == code
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["stats", "--alpha", "0.5", "--k", "1", "--gamma", "1e160"],
        ["stats", "--alpha", "0.5", "--k", "60", "--gamma", "1e153"],
        ["quantile", "--alpha", "0.5", "--k", "60", "--gamma", "1e153", "--p", "0.5"],
        ["sample", "--alpha", "0.5", "--k", "60", "--gamma", "1e153", "--n", "3",
         "--seed", "1"],
    ])
    def test_series_overflow_reason(self, capsys, argv):
        # log S was nan here: a numpy warning, then a misleading reason
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 4
        err = capsys.readouterr().err
        assert caught == []
        assert err.startswith("numerical failure: log S(")
        assert err.endswith("overflows a float (log value inf)\n")
        assert "nan" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_observation_next_to_the_support_edge(self, capsys, tmp_path, command):
        # sum (t - 1)/u^2 overflowed in a numpy matmul at u = 1e-200: a
        # RuntimeWarning on stderr, then exit 0
        path = tmp_path / "tiny.txt"
        path.write_text("1e-200\n1\n2\n3\n5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, str(path), "--kmax", "3"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("values", [[1e300, 1.5e300, 3e300], [1.0, 1e300]])
    def test_compare_on_huge_values(self, capsys, tmp_path, values):
        # var(x) overflowed to inf and the gamma start reached math.log(0);
        # then the competitors' box |log theta| <= 50 excluded the start
        path = tmp_path / "huge.txt"
        path.write_text("".join(f"{v!r}\n" for v in values))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", str(path), "--kmax", "2"]) == 0
            assert main(["compare", str(path), "--kmax", "2"]) == 0
        assert capsys.readouterr().err == ""

    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["stats", "quantile", "sample"]),
           alpha=st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 7.7954, 1e3, 1e300,
                                            1.7e308, -1.0]),
                           st.floats(0.0, 1.7e308)),
           k=st.sampled_from([0, 1, 2, 27, 60, 200]),
           gamma=st.one_of(st.sampled_from([5e-324, 1e-300, 1e-160, 1.4916681462400413e-154,
                                            1e-8, 0.01, 0.4063, 1.0, 15.0, 30.0, 1e3, 1e100,
                                            1.7e308, 0.0]),
                           st.floats(5e-324, 1.7e308)),
           p=st.one_of(st.sampled_from([5e-324, 1e-300, 2.2e-16, 0.5, 1.0 - 2.0 ** -53]),
                       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
           n=st.integers(1, 20), fmt=st.sampled_from(["text", "json", "csv"]))
    def test_no_exception_escapes(self, command, alpha, k, gamma, p, n, fmt):
        argv = [command, "--alpha", repr(alpha), "--k", str(k), "--gamma", repr(gamma),
                "--format", fmt]
        if command == "quantile":
            argv += ["--p", repr(p)]
        elif command == "sample":
            argv += ["--n", str(n), "--seed", "3"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2, 3, 4)


@st.composite
def data_command(draw, tmp_path):
    """argv of fit, compare, pdf-curve or a small simulate, with its data
    written under tmp_path: 2-60 values at scales from 1e-300 to 1e300, with
    relative spreads from near-ties (1e-15) to e^+-700."""
    command = draw(st.sampled_from(["fit", "compare", "pdf-curve", "simulate"]))
    center = draw(st.floats(-690.0, 690.0))
    spread = draw(st.sampled_from([1e-15, 1e-6, 0.5, 3.0, 700.0]))
    logs = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=60))
    values = [math.exp(min(709.0, max(-744.0, center + spread * v))) for v in logs]
    kmin = draw(st.integers(-1, 2))
    kmax = kmin + draw(st.integers(-1, 2))
    fmt = draw(st.sampled_from(["text", "json", "csv"]))
    if command == "simulate":
        return ["simulate", "--alpha", repr(values[0]), "--k", str(draw(st.integers(0, 2))),
                "--gamma", repr(draw(st.sampled_from([1e-3, 0.3, 1.0, 4.0]))),
                "--n", str(draw(st.integers(2, 200))), "--kmin", str(kmin),
                "--kmax", str(kmax), "--replications", str(draw(st.integers(1, 3))),
                "--seed", "2", "--format", fmt]
    column = draw(st.one_of(st.none(), st.sampled_from([-1, 0, 1, 2, 3])))
    path = tmp_path / "data.csv"
    if column is None:
        path.write_text("".join(f"{v!r}\n" for v in values))
        argv = [command, str(path)]
    else:
        path.write_text("".join(f"r{i},{v!r}\n" for i, v in enumerate(values)))
        argv = [command, str(path), "--column", str(column)]
    if command == "pdf-curve":
        argv += ["--points", "5", "--bins", "3"]
    return argv + ["--kmin", str(kmin), "--kmax", str(kmax), "--format", fmt]


class TestDataCommandContract:
    """The data commands end with exit 0, 2, 3 or 4 and emit no numpy
    warning, whatever the data, k grid or column they are given."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exit_codes_without_warnings(self, tmp_path_factory, data):
        argv = data.draw(data_command(tmp_path_factory.mktemp("data")))
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) in (0, 2, 3, 4)
