"""Command-line front end.

Subcommands
-----------
fit         grid maximum-likelihood fit over k, with Wald confidence intervals
stats       moment/mode/median summary for a parameter triple
quantile    quantiles for a list of probabilities
sample      random variates via inverse transform (one value per line in text mode)
simulate    Monte Carlo parameter-recovery study
compare     AIC/SIC comparison against classical lifetime families
pdf-curve   density curve (and optional histogram counts) for external plotting

Output formats: text (default), json (schema-stable, see data/schemas/),
csv (fixed header per command).

Exit codes: 0 success, 2 usage error, 3 data validation error,
4 numerical failure.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict
from functools import cache
from pathlib import Path

# numpy's and scipy's OpenBLAS each start spinning worker threads as they load,
# and no call here is large enough to use them; a value the user set wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import datasets
from .competitors import fit_all
from .distribution import (BracketError, ConvergenceError, FloatOverflowError, GelSParams, pdf,
                           quantile, sample, summary)
from .estimation import (
    Dataset,
    DegenerateDataError,
    FitError,
    UncertaintyUnavailableError,
    confidence_intervals,
    fit,
    information_criteria,
)
from .optimize import StencilError
from .simulation import STUDY_PARAMS, StudyConfig, run_study

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_SAMPLE_CHUNK = 4096   # lines per write of `gels sample` output

# three-parameter location-shifted variants of these families are the
# convention in classical reliability comparisons; both parameter counts
# are reported and the best-model flags use the shifted count
SHIFTED_FAMILIES = ("Gamma", "Weibull", "GE")

COMPARE_NOTE = (
    "Gamma/Weibull/GE are fitted here in their two-parameter standard forms; "
    "comparison tables conventionally count three parameters for their "
    "location-shifted variants, so AIC/SIC are shown under both counts and "
    "the best-model flags use the shifted count for those families."
)


class CliUsageError(Exception):
    """Bad option values discovered after argparse (maps to exit 2)."""


class CliDataError(Exception):
    """Unreadable or invalid input data (maps to exit 3)."""


# ---------------------------------------------------------------------------
# input handling

def read_values(path, column=None, delimiter=","):
    """Read one numeric value per line; '#' starts a comment, blanks skipped.

    With `column` (1-based) each line is split on `delimiter` first, which
    handles delimited files carrying several fields per row. "-" reads stdin,
    so `gels sample ... | gels fit -` works.
    """
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise CliDataError(f"cannot read {path}: {exc}") from exc
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if column is not None:
            fields = [f.strip() for f in line.split(delimiter)]
            if len(fields) < column:
                raise CliDataError(
                    f"{path}:{lineno}: only {len(fields)} field(s), "
                    f"need column {column}")
            token = fields[column - 1]
        else:
            token = line
        try:
            values.append(float(token))
        except ValueError as exc:
            raise CliDataError(f"{path}:{lineno}: not a number: {token!r}") from exc
    if not values:
        raise CliDataError(f"{path}: no numeric values found")
    return np.asarray(values, dtype=float)


def load_input(args):
    """Resolve --dataset or a path argument into a Dataset."""
    have_path = getattr(args, "input", None) is not None
    have_name = getattr(args, "dataset", None) is not None
    if have_path and have_name:
        raise CliUsageError("give either an input file or --dataset, not both")
    if have_name:
        return datasets.load(args.dataset)
    if not have_path:
        raise CliUsageError("an input file or --dataset is required")
    if args.column is not None and not args.delimiter:
        raise CliUsageError("--delimiter must not be empty")
    values = read_values(args.input, column=args.column, delimiter=args.delimiter)
    try:
        return Dataset(values=values, name=Path(args.input).name,
                       source=str(args.input))
    except ValueError as exc:
        raise CliDataError(str(exc)) from exc


def make_params(args):
    if args.alpha is None or args.k is None or args.gamma is None:
        raise CliUsageError("--alpha, --k and --gamma are all required")
    try:
        return GelSParams(alpha=args.alpha, k=args.k, gamma=args.gamma)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc


def check_fit_input(data, args):
    """The data and k grid of fit, compare and pdf-curve's fit. n >= 2 is
    checked first, so data failing both exit 3, as a data error."""
    if data.n < 2:
        raise CliDataError(f"need at least 2 observations, got {data.n}")
    if args.kmin < 0 or args.kmax < args.kmin:
        raise CliUsageError(f"bad k grid [{args.kmin}, {args.kmax}]")


# ---------------------------------------------------------------------------
# output plumbing

def _clean(obj):
    """Make a payload json-safe: numpy scalars to python, non-finite to None."""
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj


def _num(v, fmt="{:.6g}"):
    if v is None:
        return "n/a"
    v = float(v)
    if not math.isfinite(v):
        return "n/a" if math.isnan(v) else ("inf" if v > 0 else "-inf")
    return fmt.format(v)


def _csv_table(header, rows):
    """CSV text: the header, then one line per row mapping, cells by header name."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_cell(row[h]) for h in header] for row in rows)
    return buf.getvalue()


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        v = float(v)
        return repr(v) if math.isfinite(v) else ""
    return v


def emit(args, payload, text_fn, csv_fn):
    """Write the payload in the chosen format; `text_fn` and `csv_fn` return
    the whole text, or an iterable of chunks written one after another."""
    if args.format == "json":
        content = json.dumps(_clean(payload), indent=2) + "\n"
    elif args.format == "csv":
        content = csv_fn()
    else:
        content = text_fn()
    chunks = [content] if isinstance(content, str) else content
    if args.output:
        with open(args.output, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)
    return EXIT_OK


def schema_path(command):
    """Path of the bundled json schema for a subcommand's json output."""
    from importlib.resources import files

    name = command.replace("-", "_") + ".schema.json"
    return files("gels").joinpath("data", "schemas", name)


# ---------------------------------------------------------------------------
# subcommands

def cmd_stats(args):
    params = make_params(args)
    fields = asdict(summary(params))
    payload = {"command": "stats", "params": asdict(params), "summary": fields}

    def text():
        lines = [f"parameters: alpha={params.alpha:g} k={params.k} gamma={params.gamma:g}"]
        lines += [f"{label:>9}  {_num(v)}" for label, v in fields.items()]
        return "\n".join(lines) + "\n"

    row = payload["params"] | fields
    return emit(args, payload, text, lambda: _csv_table(list(row), [row]))


def _parse_p_list(spec_str):
    try:
        ps = [float(tok) for tok in spec_str.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliUsageError(f"bad probability list {spec_str!r}") from exc
    if not ps:
        raise CliUsageError("empty probability list")
    for p in ps:
        if not 0.0 < p < 1.0:
            raise CliUsageError(f"probability {p} outside (0, 1)")
    return ps


def cmd_quantile(args):
    params = make_params(args)
    ps = _parse_p_list(args.p)
    rows = [{"p": p, "x": quantile(params, p)} for p in ps]
    payload = {"command": "quantile", "params": asdict(params), "quantiles": rows}

    def text():
        lines = [f"{'p':>8}  quantile"]
        lines += [f"{r['p']:>8g}  {_num(r['x'])}" for r in rows]
        return "\n".join(lines) + "\n"

    return emit(args, payload, text, lambda: _csv_table(["p", "x"], rows))


def cmd_sample(args):
    params = make_params(args)
    values = sample(params, args.n, seed=args.seed)
    payload = {
        "command": "sample",
        "params": asdict(params),
        "n": args.n,
        "seed": args.seed,
        "values": values,
    }

    # chunks of lines keep the formatted text small however large n is
    def lines(fmt):
        for start in range(0, values.size, _SAMPLE_CHUNK):
            yield "".join(map(fmt.format, values[start:start + _SAMPLE_CHUNK].tolist()))

    def text():
        # bare values, one per line, so the output pipes straight into `fit`
        return lines("{:.17g}\n")

    def as_csv():
        # draws are finite floats, so each cell is repr(v), never quoted
        yield "value\n"
        yield from lines("{!r}\n")

    return emit(args, payload, text, as_csv)


def cmd_fit(args):
    data = load_input(args)
    check_fit_input(data, args)
    if not 0.0 < args.level < 1.0:
        raise CliUsageError(f"confidence level {args.level} outside (0, 1)")
    trace = fit(data, k_min=args.kmin, k_max=args.kmax)
    sel = trace.selected
    try:
        ci = confidence_intervals(sel, level=args.level)
        confidence = {"level": ci.level,
                      "alpha": list(ci.alpha_ci), "gamma": list(ci.gamma_ci)}
    except UncertaintyUnavailableError:
        confidence = None

    payload = {
        "command": "fit",
        "input": {"name": data.name, "source": data.source, "n": data.n},
        "k_grid": [args.kmin, args.kmax],
        "per_k": [{"k": r.k, "alpha_hat": r.alpha_hat, "gamma_hat": r.gamma_hat,
                   "raw_a_hat": r.raw_a_hat, "loglik": r.loglik, "aic": r.aic,
                   "sic": r.sic, "converged": r.converged,
                   "selected": i == trace.selected_index}
                  for i, r in enumerate(trace.per_k)],
        "selected": {
            "k": sel.k, "alpha_hat": sel.alpha_hat, "raw_a_hat": sel.raw_a_hat,
            "gamma_hat": sel.gamma_hat, "se_alpha": sel.se_alpha,
            "se_gamma": sel.se_gamma, "loglik": sel.loglik,
            "neg_loglik": -sel.loglik, "aic": sel.aic, "sic": sel.sic,
            "converged": sel.converged,
        },
        "confidence": confidence,
    }

    def text():
        lines = [f"input: {data.name} (n={data.n})",
                 f"k grid: {args.kmin}..{args.kmax}",
                 "",
                 f"{'k':>4} {'alpha_hat':>12} {'gamma_hat':>12} "
                 f"{'-loglik':>12} {'AIC':>10} {'SIC':>10}"]
        for i, r in enumerate(trace.per_k):
            mark = " *" if i == trace.selected_index else ""
            lines.append(
                f"{r.k:>4} {_num(r.alpha_hat, '{:.5f}'):>12} "
                f"{_num(r.gamma_hat, '{:.5f}'):>12} "
                f"{_num(-r.loglik, '{:.4f}'):>12} {_num(r.aic, '{:.3f}'):>10} "
                f"{_num(r.sic, '{:.3f}'):>10}{mark}")
        lines += [
            "",
            f"selected k = {sel.k}",
            f"alpha_hat = {_num(sel.alpha_hat, '{:.5f}')} "
            f"(raw a = {_num(sel.raw_a_hat, '{:.5f}')}, "
            f"se = {_num(sel.se_alpha, '{:.4f}')})",
            f"gamma_hat = {_num(sel.gamma_hat, '{:.5f}')} "
            f"(se = {_num(sel.se_gamma, '{:.4f}')})",
            f"-loglik = {_num(-sel.loglik, '{:.4f}')}   "
            f"AIC = {_num(sel.aic, '{:.3f}')}   SIC = {_num(sel.sic, '{:.3f}')}",
        ]
        if confidence is not None:
            a, g = confidence["alpha"], confidence["gamma"]
            lines += [
                f"{confidence['level']:.0%} CI alpha: "
                f"[{_num(a[0], '{:.5f}')}, {_num(a[1], '{:.5f}')}]",
                f"{confidence['level']:.0%} CI gamma: "
                f"[{_num(g[0], '{:.5f}')}, {_num(g[1], '{:.5f}')}]",
            ]
        else:
            lines.append("confidence intervals unavailable for this fit")
        return "\n".join(lines) + "\n"

    header = ["k", "alpha_hat", "gamma_hat", "loglik", "aic", "sic", "converged", "selected"]
    return emit(args, payload, text, lambda: _csv_table(header, payload["per_k"]))


def cmd_compare(args):
    data = load_input(args)
    check_fit_input(data, args)
    trace = fit(data, k_min=args.kmin, k_max=args.kmax)
    sel = trace.selected
    models = [{
        "family": "GEL-S", "k": sel.k,
        "param_names": ["alpha", "gamma"],
        "params": [sel.alpha_hat, sel.gamma_hat],
        "loglik": sel.loglik, "n_p": 2, "aic": sel.aic, "sic": sel.sic,
        "n_p_shifted": 2, "aic_shifted": sel.aic, "sic_shifted": sel.sic,
        "converged": sel.converged,
    }]
    for cf in fit_all(data):
        if cf.family in SHIFTED_FAMILIES:
            n_p_shifted = cf.n_p + 1
            aic_s, sic_s = information_criteria(n_p_shifted, cf.loglik, data.n)
        else:
            n_p_shifted, aic_s, sic_s = cf.n_p, cf.aic, cf.sic
        models.append({
            "family": cf.family, "k": None,
            "param_names": list(cf.param_names), "params": list(cf.params),
            "loglik": cf.loglik, "n_p": cf.n_p, "aic": cf.aic, "sic": cf.sic,
            "n_p_shifted": n_p_shifted, "aic_shifted": aic_s,
            "sic_shifted": sic_s, "converged": cf.converged,
        })
    best_aic = min(models, key=lambda m: m["aic_shifted"])["family"]
    best_sic = min(models, key=lambda m: m["sic_shifted"])["family"]
    payload = {
        "command": "compare",
        "input": {"name": data.name, "source": data.source, "n": data.n},
        "k_grid": [args.kmin, args.kmax],
        "models": models,
        "best": {"aic": best_aic, "sic": best_sic},
        "note": COMPARE_NOTE,
    }

    def text():
        lines = [f"input: {data.name} (n={data.n})",
                 "",
                 f"{'model':<18} {'n_p':>4} {'-loglik':>10} {'AIC':>9} "
                 f"{'SIC':>9}  best"]
        for m in models:
            label = m["family"] if m["k"] is None else f"{m['family']} (k={m['k']})"
            flags = "".join([
                "A" if m["family"] == best_aic else "",
                "S" if m["family"] == best_sic else "",
            ])
            np_col = (str(m["n_p"]) if m["n_p"] == m["n_p_shifted"]
                      else f"{m['n_p']}/{m['n_p_shifted']}")
            lines.append(
                f"{label:<18} {np_col:>4} {_num(-m['loglik'], '{:.4f}'):>10} "
                f"{_num(m['aic_shifted'], '{:.3f}'):>9} "
                f"{_num(m['sic_shifted'], '{:.3f}'):>9}  {flags}")
        lines += ["", "note: " + COMPARE_NOTE]
        return "\n".join(lines) + "\n"

    header = ["family", "k", "n_p", "loglik", "aic", "sic", "n_p_shifted",
              "aic_shifted", "sic_shifted", "best_aic", "best_sic"]
    rows = [m | {"best_aic": m["family"] == best_aic, "best_sic": m["family"] == best_sic}
            for m in models]
    return emit(args, payload, text, lambda: _csv_table(header, rows))


def _workers(args):
    if args.workers is not None:
        return args.workers
    raw = os.environ.get("GELS_THREADS", "")
    try:
        value = int(raw) if raw else 1
    except ValueError:
        raise CliUsageError(f"GELS_THREADS={raw!r} is not an integer") from None
    if value < 1:
        raise CliUsageError(f"GELS_THREADS must be >= 1, got {value}")
    return value


def cmd_simulate(args):
    if args.study is not None:
        truth = STUDY_PARAMS[args.study]
    else:
        truth = make_params(args)
    workers = _workers(args)
    try:
        config = StudyConfig(true_params=truth, n=args.n,
                             k_grid=(args.kmin, args.kmax), seed=args.seed,
                             replications=args.replications)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc
    report = run_study(config, workers=workers)

    per_k = [{"k": r.k, "alpha_hat": r.alpha_hat, "gamma_hat": r.gamma_hat,
              "loglik": r.loglik, "selected": r.k == report.selected_k}
             for r in report.per_k]
    first = report.replications[0]
    coverage = None
    if config.replications > 1:
        coverage = {"alpha": report.coverage_alpha,
                    "gamma": report.coverage_gamma}
    payload = {
        "command": "simulate",
        "study": args.study,
        "config": {"alpha": truth.alpha, "k": truth.k, "gamma": truth.gamma,
                   "n": config.n, "k_grid": [args.kmin, args.kmax],
                   "seed": config.seed, "replications": config.replications,
                   "workers": workers},
        "selected_k": report.selected_k,
        "alpha_hat": first.alpha_hat,
        "gamma_hat": first.gamma_hat,
        "per_k": per_k,
        "alpha_ci": list(report.alpha_ci) if report.alpha_ci else None,
        "gamma_ci": list(report.gamma_ci) if report.gamma_ci else None,
        "recovery": {"k_recovered": report.k_recovered,
                     "alpha_covered": report.alpha_covered,
                     "gamma_covered": report.gamma_covered},
        "coverage": coverage,
        "k_counts": {str(k): v for k, v in report.k_counts.items()},
    }

    def text():
        lines = [
            f"truth: alpha={truth.alpha:g} k={truth.k} gamma={truth.gamma:g}"
            f"   n={config.n}  seed={config.seed}"
            f"  replications={config.replications}",
            "",
            f"{'k':>4} {'alpha_hat':>12} {'gamma_hat':>12} {'loglik':>14}",
        ]
        for row in per_k:
            mark = " *" if row["selected"] else ""
            lines.append(f"{row['k']:>4} {_num(row['alpha_hat'], '{:.4f}'):>12} "
                         f"{_num(row['gamma_hat'], '{:.4f}'):>12} "
                         f"{_num(row['loglik'], '{:.3f}'):>14}{mark}")
        lines += ["", f"selected k = {report.selected_k} "
                      f"(true k = {truth.k}, recovered = {report.k_recovered})"]
        if report.alpha_ci:
            lines.append(f"95% CI alpha: [{_num(report.alpha_ci[0], '{:.4f}')}, "
                         f"{_num(report.alpha_ci[1], '{:.4f}')}] "
                         f"covers truth = {report.alpha_covered}")
        if report.gamma_ci:
            lines.append(f"95% CI gamma: [{_num(report.gamma_ci[0], '{:.4f}')}, "
                         f"{_num(report.gamma_ci[1], '{:.4f}')}] "
                         f"covers truth = {report.gamma_covered}")
        if coverage is not None:
            lines.append(f"coverage over {config.replications} replications: "
                         f"alpha {_num(coverage['alpha'], '{:.3f}')}, "
                         f"gamma {_num(coverage['gamma'], '{:.3f}')}")
            lines.append("selected-k counts: " + ", ".join(
                f"{k}: {v}" for k, v in report.k_counts.items()))
        return "\n".join(lines) + "\n"

    header = ["k", "alpha_hat", "gamma_hat", "loglik", "selected"]
    return emit(args, payload, text, lambda: _csv_table(header, per_k))


def cmd_pdf_curve(args):
    have_triple = (args.alpha is not None and args.k is not None
                   and args.gamma is not None)
    have_input = (getattr(args, "input", None) is not None
                  or getattr(args, "dataset", None) is not None)
    data = load_input(args) if have_input else None

    source = None
    if have_triple:
        params = make_params(args)
    elif data is not None:
        check_fit_input(data, args)
        trace = fit(data, k_min=args.kmin, k_max=args.kmax)
        sel = trace.selected
        params = GelSParams(alpha=sel.alpha_hat, k=sel.k, gamma=sel.gamma_hat)
    else:
        raise CliUsageError(
            "give a full --alpha/--k/--gamma triple or input data to fit")
    if data is not None:
        source = {"name": data.name, "n": data.n}

    q_hi = quantile(params, 0.999)
    eps = 1e-6 * (q_hi - params.alpha)
    xs = np.linspace(params.alpha + eps, q_hi, args.points)
    curve = [{"x": float(x), "density": pdf(params, float(x))} for x in xs]

    histogram = None
    if args.bins is not None:
        if data is None:
            raise CliUsageError("--bins needs input data to bin")
        try:
            counts, edges = np.histogram(data.values, bins=args.bins)
        except ValueError as exc:  # a range too narrow for that many float-sized bins
            raise CliDataError(str(exc)) from exc
        histogram = [{"lo": float(edges[i]), "hi": float(edges[i + 1]),
                      "count": int(c)} for i, c in enumerate(counts)]

    payload = {
        "command": "pdf-curve",
        "params": asdict(params),
        "source": source,
        "curve": curve,
        "histogram": histogram,
    }

    def text():
        lines = [f"parameters: alpha={params.alpha:g} k={params.k} "
                 f"gamma={params.gamma:g}",
                 "",
                 f"{'x':>14} {'density':>14}"]
        lines += [f"{c['x']:>14.6g} {c['density']:>14.6g}" for c in curve]
        if histogram is not None:
            lines += ["", f"{'bin_lo':>14} {'bin_hi':>14} {'count':>8}"]
            lines += [f"{h['lo']:>14.6g} {h['hi']:>14.6g} {h['count']:>8}"
                      for h in histogram]
        return "\n".join(lines) + "\n"

    rows = [{"kind": "density", "x_lo": c["x"], "x_hi": c["x"], "value": c["density"]}
            for c in curve]
    rows += [{"kind": "histogram", "x_lo": h["lo"], "x_hi": h["hi"], "value": float(h["count"])}
             for h in histogram or ()]
    return emit(args, payload, text, lambda: _csv_table(["kind", "x_lo", "x_hi", "value"], rows))


# ---------------------------------------------------------------------------
# parser

def _int_at_least(low, name):
    """argparse type of an integer option bounded below (a usage error, exit 2)."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low}, got {value}")
        return value
    return parse


def _add_format_options(sub):
    sub.add_argument("--format", choices=("text", "json", "csv"),
                     default="text", help="output format (default text)")
    sub.add_argument("--output", default=None, metavar="PATH",
                     help="write to PATH instead of stdout")


def _add_triple_options(sub, required):
    sub.add_argument("--alpha", type=float, default=None, required=required,
                     help="location parameter, >= 0")
    sub.add_argument("--k", type=int, default=None, required=required,
                     help="integer power parameter, >= 0")
    sub.add_argument("--gamma", type=float, default=None, required=required,
                     help="scale parameter, > 0")


def _add_input_options(sub):
    sub.add_argument("input", nargs="?", default=None,
                     help="file with one value per line ('#' comments)")
    sub.add_argument("--dataset", choices=datasets.available(), default=None,
                     help="use a bundled dataset instead of a file")
    sub.add_argument("--column", type=_int_at_least(1, "column"), default=None, metavar="N",
                     help="take 1-based column N from delimited lines")
    sub.add_argument("--delimiter", default=",",
                     help="field delimiter used with --column (default ',')")


@cache  # parsing leaves the parser unchanged, so one tree serves every call
def build_parser():
    parser = argparse.ArgumentParser(
        prog="gels",
        description="Three-parameter heavy-shouldered lifetime distribution: "
                    "fitting, summaries, sampling, simulation, comparison.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fit", help="grid maximum-likelihood fit over k")
    _add_input_options(p)
    p.add_argument("--kmin", type=int, default=0)
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--level", type=float, default=0.95,
                   help="confidence level (default 0.95)")
    _add_format_options(p)
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("stats", help="moment/mode/median summary")
    _add_triple_options(p, required=True)
    _add_format_options(p)
    p.set_defaults(func=cmd_stats)

    p = subs.add_parser("quantile", help="quantiles for given probabilities")
    _add_triple_options(p, required=True)
    p.add_argument("--p", required=True, metavar="P1,P2,...",
                   help="comma-separated probabilities in (0, 1)")
    _add_format_options(p)
    p.set_defaults(func=cmd_quantile)

    p = subs.add_parser("sample", help="draw random variates")
    _add_triple_options(p, required=True)
    p.add_argument("--n", type=_int_at_least(1, "n"), required=True, help="sample size")
    p.add_argument("--seed", type=_int_at_least(0, "seed"), default=None,
                   help="RNG seed (same seed, same values)")
    _add_format_options(p)
    p.set_defaults(func=cmd_sample)

    p = subs.add_parser("simulate", help="Monte Carlo recovery study")
    p.add_argument("--study", choices=sorted(STUDY_PARAMS), default=None,
                   help="preset parameter triple")
    _add_triple_options(p, required=False)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--kmin", type=int, default=0)
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--seed", type=_int_at_least(0, "seed"), default=1)
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--workers", type=_int_at_least(1, "workers"), default=None,
                   help="at least 1, reported as config.workers; replications run serially "
                        "(default: GELS_THREADS or 1)")
    _add_format_options(p)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("compare",
                        help="AIC/SIC comparison against classical families")
    _add_input_options(p)
    p.add_argument("--kmin", type=int, default=0)
    p.add_argument("--kmax", type=int, default=30)
    _add_format_options(p)
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("pdf-curve",
                        help="density curve data (plus optional histogram)")
    _add_input_options(p)
    _add_triple_options(p, required=False)
    p.add_argument("--kmin", type=int, default=0)
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--points", type=_int_at_least(2, "points"), default=200,
                   help="number of curve points (default 200)")
    p.add_argument("--bins", type=_int_at_least(1, "bins"), default=None,
                   help="also emit a histogram of the input with this many bins")
    _add_format_options(p)
    p.set_defaults(func=cmd_pdf_curve)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CliDataError, DegenerateDataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FitError, ConvergenceError, BracketError, FloatOverflowError,
            StencilError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
