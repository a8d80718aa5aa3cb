"""Command-line interface: data ingestion, model fitting, in-sample and
predictive analyses, baselines, simulation experiments, and the validation
battery.

Reports are JSON (probabilities in both linear and log scale); row-oriented
outputs (extrapolation curves, experiment tables) are CSV unless ``--format
json`` asks for one JSON report.  Each subcommand accepts only the options
it reads; any other is a usage error.
Exit codes: 0 ok, 1 input error, 2 numerical error or a curve past its cell
budget, 3 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

from . import __version__
from .abundance import IngestError, ants_csv_path, ingest
from .baselines import chao_shared_estimator, frequency_counts, yue_estimator
from .estimation import MomentRangeError, fit_all
from .insample import correlation, lattice_cells, lattice_cut, summarize
from .logmath import ConvergenceError, DomainError
from .mprior import OneShiftedPoisson
from .prediction import (
    ObservedState,
    coverage_cells,
    expected_new,
    extrapolation_curves,
    one_step_shared_pmf,
    posterior_m_mean,
    posterior_m_pmf,
    predictive_pair_probs,
    shared_coverage_prob,
    shared_pmf,
)
from .simulate import Experiment1Config, Experiment2Config, run_experiment1, run_experiment2
from .validation import run_all
from .vcoef import ModelParams, VCoefficients

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_VALIDATION = 3
#: entries of a pmf a report lists
TOP_ENTRIES = 20
#: cells of the largest in-sample lattice ``insample`` forms; counted from
#: (n1, n2, K) before any work, so a larger one is declined at once
CELL_BUDGET = 10**6
#: cells of the largest coverage ``predict`` or ``curve`` forms (ratio runs,
#: GFC rows, lattice corners); counted by ``coverage_cells`` before any work,
#: so ``predict`` notes a larger one in place of ``coverage_prob`` and
#: ``curve`` declines it with exit 2
COVERAGE_BUDGET = 2 * 10**7


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors map to the input-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(f"{self.prog}: error: {message}")


class SystemExit2(Exception):
    pass


class BudgetError(Exception):
    """A request whose cells, counted before any work, exceed their budget."""


def _prob(p: float) -> dict:
    return {"value": p, "log": math.log(p) if p > 0.0 else float("-inf")}


def _pmf_report(total_mass: float, top_entries: list) -> dict:
    entries = [{"key": list(k) if isinstance(k, tuple) else k, "prob": v}
               for k, v in top_entries]
    return {"total_mass": total_mass, "top_entries": entries}


def _table_report(table) -> dict:
    return _pmf_report(table.total_mass(), table.top_entries(TOP_ENTRIES))


def _emit_json(report: dict, stream) -> None:
    stream.write(json.dumps(report, indent=2, sort_keys=True))
    stream.write("\n")


def _emit_rows(rows: list[dict], stream) -> None:
    if not rows:
        return
    writer = csv.DictWriter(stream, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)


def _model_from_args(args, table) -> tuple[VCoefficients, dict]:
    """Explicit parameters when all three are given, otherwise fit."""
    given = [args.lam, args.gamma1, args.gamma2]
    if all(v is not None for v in given):
        params = ModelParams(args.gamma1, args.gamma2, OneShiftedPoisson(args.lam))
        meta = {"source": "flags", "lambda": args.lam,
                "gamma1": args.gamma1, "gamma2": args.gamma2}
    elif any(v is not None for v in given):
        raise SystemExit2("provide all of --lam/--gamma1/--gamma2 or none")
    else:
        mode = args.mode or "plug_in"
        fit = fit_all(table, mode)
        params = fit.params
        meta = {"source": f"fit ({mode})", "lambda": fit.lam,
                "gamma1": params.gamma1, "gamma2": params.gamma2,
                "residuals": {"lambda": fit.lambda_residual,
                              "gamma1": fit.gamma1_residual,
                              "gamma2": fit.gamma2_residual}}
    vc = VCoefficients(params, tol=args.tol, max_terms=args.max_terms)
    return vc, meta


def _checked(convert, ok, expected: str):
    """An argparse ``type``: ``convert`` a value, then reject it unless ``ok``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r}: expected {expected}")
        return value
    parse.__name__ = convert.__name__  # argparse names the type in its message
    return parse


_open_unit = _checked(float, lambda x: 0.0 < x < 1.0, "a number in (0, 1)")
_at_least_one = _checked(int, lambda n: n >= 1, "an integer >= 1")
_future_size = _checked(int, lambda m: m >= 0, "an integer >= 0")


def _grid_numbers(spec: str, expected: str, ok) -> tuple[int, int, int]:
    """A, B, STEP of a --grid value A:B:STEP, with STEP >= 1 and ok(A, B)."""
    try:
        a, b, step = (int(x) for x in spec.split(":"))
    except ValueError:
        a = b = step = 0
    if step < 1 or not ok(a, b):
        raise argparse.ArgumentTypeError(f"bad --grid {spec!r}; expected {expected}")
    return a, b, step


def _future_grid(spec: str) -> list[tuple[int, int]]:
    """Curve grid 0..M1 x 0..M2 in steps, each axis closed by its end."""
    m1_max, m2_max, step = _grid_numbers(spec, "M1:M2:STEP, M1 and M2 >= 0",
                                         lambda a, b: min(a, b) >= 0)
    points1 = sorted(set(range(0, m1_max + 1, step)) | {m1_max})
    points2 = sorted(set(range(0, m2_max + 1, step)) | {m2_max})
    return [(a, b) for a in points1 for b in points2]


def _size_grid(spec: str) -> tuple[int, ...]:
    """Experiment 1 sample sizes LO..HI in steps."""
    lo, hi, step = _grid_numbers(spec, "LO:HI:STEP, 1 <= LO <= HI", lambda a, b: 1 <= a <= b)
    return tuple(range(lo, hi + 1, step))


def _add_mode(p: argparse.ArgumentParser, default: str | None = "plug_in") -> None:
    p.add_argument("--mode", choices=("plug_in", "unbiased"), default=default,
                   help="Simpson moment estimator (default plug_in)")


def _add_model(p: argparse.ArgumentParser) -> None:
    """Options of a subcommand that evaluates the model on a table: pinned
    parameters, else the estimator of the fit, and the series settings."""
    p.add_argument("--lam", type=float, default=None,
                   help="species-count rate (skips fitting when given)")
    p.add_argument("--gamma1", type=float, default=None)
    p.add_argument("--gamma2", type=float, default=None)
    _add_mode(p, default=None)  # None: not given, so pinned parameters may reject it
    p.add_argument("--tol", type=_open_unit, default=1e-12,
                   help="relative series truncation tolerance, in (0, 1)")
    p.add_argument("--max-terms", type=_at_least_one, default=10**6,
                   help="cap on series terms before a convergence error")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="rows as CSV, or as one JSON report")


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default=None, help="write to file instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not
    change it, so every call of ``main`` reuses it."""
    parser = _Parser(prog="vecfdp",
                     description="Shared-species analysis for two-area "
                                 "abundance data")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="diversity stats and fitted parameters")
    p.add_argument("table", help="abundance CSV (species,count_1,count_2)")
    _add_mode(p)
    _add_output(p)

    p = sub.add_parser("insample", help="prior laws of distinct/shared species")
    p.add_argument("table")
    _add_model(p)
    _add_output(p)

    p = sub.add_parser("predict", help="posterior prediction for (m1, m2)")
    p.add_argument("table")
    p.add_argument("--m1", type=_future_size, required=True)
    p.add_argument("--m2", type=_future_size, required=True)
    _add_model(p)
    _add_output(p)

    p = sub.add_parser("discover", help="one-step shared species discovery")
    p.add_argument("table")
    _add_model(p)
    _add_output(p)

    p = sub.add_parser("curve", help="extrapolation curve rows")
    p.add_argument("table")
    p.add_argument("--grid", type=_future_grid, default="10:10:2",
                   help="M1:M2:STEP, Cartesian grid 0..M1 x 0..M2 in steps")
    _add_model(p)
    _add_format(p)
    _add_output(p)

    p = sub.add_parser("baselines", help="frequentist one-step estimators")
    p.add_argument("table")
    _add_output(p)

    p = sub.add_parser("simulate", help="benchmark experiments")
    p.add_argument("--experiment", type=int, choices=(1, 2), required=True)
    p.add_argument("--alpha1", type=_open_unit, default=0.8,
                   help="group-1 decay rate of the true proportions, in (0, 1)")
    p.add_argument("--alpha2", type=_open_unit, default=0.8,
                   help="group-2 decay rate of the true proportions, in (0, 1)")
    p.add_argument("--m-true", type=_at_least_one, default=60,
                   help="number of species in the true population")
    p.add_argument("--grid", type=_size_grid, default=None,
                   help="experiment 1 sample sizes LO:HI:STEP (default 50:400:50)")
    p.add_argument("--n", type=_at_least_one, default=None,
                   help="experiment 2 sample size (default 400)")
    p.add_argument("--replications", type=_at_least_one, default=20)
    p.add_argument("--seed", type=int, default=11, help="random seed")
    _add_mode(p)
    _add_format(p)
    _add_output(p)

    p = sub.add_parser("validate", help="numerical validation battery")
    p.add_argument("--full", action="store_true",
                   help="larger grids and Monte-Carlo sample")
    _add_output(p)

    sub.add_parser("ants-path", help="print the bundled example dataset path")
    return parser


def _cmd_fit(args) -> dict:
    table = ingest(args.table)
    fit = fit_all(table, args.mode)
    return {
        "command": "fit",
        "input": {"path": args.table, **table.summary()},
        "diversity": {"ss1": fit.stats.ss1, "ss2": fit.stats.ss2,
                      "cp": fit.stats.cp, "morisita": fit.stats.morisita,
                      "mode": fit.stats.mode},
        "params": {"lambda": fit.lam, "gamma1": fit.params.gamma1,
                   "gamma2": fit.params.gamma2},
        "residuals": {"lambda": fit.lambda_residual,
                      "gamma1": fit.gamma1_residual,
                      "gamma2": fit.gamma2_residual},
    }


def _cmd_insample(args) -> dict:
    table = ingest(args.table)
    vc, meta = _model_from_args(args, table)
    n1, n2 = table.n1, table.n2
    report = {
        "command": "insample",
        "input": {"path": args.table, **table.summary()},
        "params": meta,
        "correlation": correlation(vc.params, tol=args.tol,
                                   max_terms=args.max_terms),
    }
    k = lattice_cut(vc, n1 + n2)
    cells = lattice_cells(n1, n2, k)
    if cells <= CELL_BUDGET:
        laws = summarize(vc, n1, n2, TOP_ENTRIES)
        e_k1, e_k2, e_k, e_s = laws.expected
        report["expected"] = {"k1": e_k1, "k2": e_k2, "k": e_k, "s": e_s}
        report["pmf_joint"] = _pmf_report(laws.joint_mass, laws.joint_top)
        report["pmf_global"] = _table_report(laws.global_law)
        report["pmf_shared"] = _table_report(laws.shared_law)
        # the model check: how far out the observed counts sit in their laws
        report["observed_tail"] = {"global": _prob(laws.global_law.tail_mass(table.r)),
                                   "shared": _prob(laws.shared_law.tail_mass(table.t))}
    else:
        report["note"] = (f"in-sample pmf tables are reported only for lattices "
                          f"of at most {CELL_BUDGET} cells; this one, cut at "
                          f"K = {k}, has {cells}: correlation only")
    return report


def _cmd_predict(args) -> dict:
    table = ingest(args.table)
    vc, meta = _model_from_args(args, table)
    state = ObservedState.from_abundance(table)
    m1, m2 = args.m1, args.m2
    exp = expected_new(vc, state, m1, m2)
    report = {
        "command": "predict",
        "input": {"path": args.table, **table.summary()},
        "params": meta,
        "m1": m1, "m2": m2,
        "posterior_unseen": {"mean": posterior_m_mean(vc, state),
                             "pmf": _table_report(posterior_m_pmf(vc, state))},
        "expected_new": {"k1": exp.k1, "k2": exp.k2, "k": exp.k, "s": exp.s},
    }
    cells = coverage_cells(vc, state, (m1,), (m2,))
    if cells <= COVERAGE_BUDGET:
        report["coverage_prob"] = _prob(shared_coverage_prob(vc, state, m1, m2))
    else:
        report["note"] = (f"coverage_prob is reported only when it takes at most "
                          f"{COVERAGE_BUDGET} cells; at this future size it takes {cells}")
    if m1 + m2 <= 12:
        report["shared_pmf"] = _table_report(shared_pmf(vc, state, m1, m2))
    return report


def _cmd_discover(args) -> dict:
    table = ingest(args.table)
    vc, meta = _model_from_args(args, table)
    state = ObservedState.from_abundance(table)
    pmf = one_step_shared_pmf(vc, state)
    pair = predictive_pair_probs(vc, state)
    return {
        "command": "discover",
        "input": {"path": args.table, **table.summary()},
        "params": meta,
        "one_step_shared_pmf": {str(s): _prob(pmf.prob(s)) for s in (0, 1, 2)},
        # one_step_discovery_prob's sum, on the pmf above: no second pass
        "discovery_prob": _prob(pmf.prob(1) + pmf.prob(2)),
        "pair_probs": pair.as_dict(),
        "pair_normalizer_ratio": pair.normalizer_ratio,
    }


def _cmd_curve(args) -> list[dict]:
    table = ingest(args.table)
    vc, meta = _model_from_args(args, table)
    state = ObservedState.from_abundance(table)
    cells = coverage_cells(vc, state, *zip(*args.grid))
    if cells > COVERAGE_BUDGET:
        raise BudgetError(f"the curve's coverage takes {cells} cells, past the budget of "
                          f"{COVERAGE_BUDGET}; ask for a smaller or coarser --grid")
    return extrapolation_curves(vc, state, args.grid)


def _cmd_baselines(args) -> dict:
    table = ingest(args.table)
    counts = frequency_counts(table)
    chao = chao_shared_estimator(counts, table.n1, table.n2)
    report = {
        "command": "baselines",
        "input": {"path": args.table, **table.summary()},
        "frequency_counts": {"f_1plus": counts.f_1plus,
                             "f_plus1": counts.f_plus1, "f_11": counts.f_11},
        "chao_sh": {"value": chao.value, "exceeds_one": chao.exceeds_one},
        "chao2000_richness": "unavailable",
    }
    if table.n1 == table.n2:
        yue = yue_estimator(counts, table.n1, table.n2)
        report["yue"] = {"value": yue.value, "exceeds_one": yue.exceeds_one}
    else:
        report["yue"] = "unavailable: requires equal sample sizes"
    return report


def _cmd_simulate(args) -> list[dict]:
    if args.experiment == 1:
        cfg = Experiment1Config(alpha1=args.alpha1, alpha2=args.alpha2,
                                m_true=args.m_true,
                                grid=args.grid or Experiment1Config.grid,
                                replications=args.replications,
                                seed=args.seed, mode=args.mode)
        return run_experiment1(cfg)
    cfg = Experiment2Config(alpha1=args.alpha1, alpha2=args.alpha2,
                            m_true=args.m_true, n=args.n or Experiment2Config.n,
                            replications=args.replications,
                            seed=args.seed, mode=args.mode)
    return run_experiment2(cfg)


def _cmd_validate(args) -> tuple[dict, bool]:
    results = run_all(fast=not args.full)
    ok = all(r.passed for r in results)
    return {"command": "validate", "passed": ok,
            "checks": [r.as_dict() for r in results]}, ok


def _reject_unread(parser: argparse.ArgumentParser, args) -> None:
    """A usage error for an option that this configuration of its command
    would ignore: experiment 1's --grid in experiment 2, experiment 2's --n
    in experiment 1, and --mode once --lam/--gamma1/--gamma2 pin the model
    (nothing is fitted).  Each such option defaults to None."""
    if args.command == "simulate":
        option, value, why = (("--n", args.n, "experiment 1") if args.experiment == 1
                              else ("--grid", args.grid, "experiment 2"))
    elif getattr(args, "lam", None) is not None and None not in (args.gamma1, args.gamma2):
        option, value, why = "--mode", args.mode, "pinned --lam/--gamma1/--gamma2"
    else:
        return
    if value is not None:
        parser.error(f"argument {option}: not read with {why}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _reject_unread(parser, args)
    except SystemExit2 as exc:
        print(exc, file=sys.stderr)
        return EXIT_INPUT
    except SystemExit as exc:  # --help/--version
        return int(exc.code or 0)

    out = io.StringIO()
    try:
        if args.command == "ants-path":
            print(ants_csv_path())
            return EXIT_OK
        if args.command == "validate":
            report, ok = _cmd_validate(args)
            _emit_json(report, out)
            code = EXIT_OK if ok else EXIT_VALIDATION
        elif args.command in ("curve", "simulate"):
            rows = _cmd_curve(args) if args.command == "curve" else _cmd_simulate(args)
            if args.format == "json":
                _emit_json({"command": args.command, "rows": rows}, out)
            else:
                _emit_rows(rows, out)
            code = EXIT_OK
        else:
            handler = {"fit": _cmd_fit, "insample": _cmd_insample,
                       "predict": _cmd_predict, "discover": _cmd_discover,
                       "baselines": _cmd_baselines}[args.command]
            _emit_json(handler(args), out)
            code = EXIT_OK
    except (IngestError, SystemExit2) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceError, DomainError, MomentRangeError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    text = out.getvalue()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
