"""Correctness gate applied to every benchmark request.

``check`` validates one CLI result on its own (exit code, parse, laws that
must hold for any input); ``compare_reference`` compares the numeric
outputs with values recorded from a known-good build.  Tolerances are the
test suite's: 1e-10 absolute on probabilities and on identities that hold
by construction, 1e-8 on expectations and other values, and 1e-8 on
normalization (pmf masses, the one-step pmf sum, the pair normalizer
ratio), as in tests/test_cli.py and acceptance criterion 1.  Normalization
also depends on series truncation and on rounding in long log-space sums,
so ``norm_deviation`` reports the worst deviation seen for each request.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

PROB_TOL = 1e-10
EXP_TOL = 1e-8
NORM_TOL = 1e-8

#: leaves that hold probabilities (or ratios that must be 1)
PROB_LEAVES = {"prob", "value", "total_mass", "coverage_prob",
               "pair_normalizer_ratio", "old_old", "new_old", "old_new",
               "new_new", "correlation"}

#: rows emitted by one replicate of each experiment at the default grids
SIMULATE_ROWS = {"1": 8 * 4, "2": 9}


def parse_output(argv: list[str], text: str):
    """JSON report, or a list of float-valued rows for the CSV commands."""
    if argv[0] in ("curve", "simulate"):
        return [{k: _number(v) for k, v in row.items()}
                for row in csv.DictReader(io.StringIO(text))]
    return json.loads(text)


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell  # a label column


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _walk(obj, path=()):
    """Yield (path, leaf) for every leaf of a parsed report."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _walk(value, path + (str(key),))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _walk(value, path + (str(i),))
    else:
        yield path, obj


def _near(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _pmf_prob(pmf: dict, key) -> float:
    return sum(e["prob"] for e in pmf["top_entries"] if e["key"] == key)


def _grid_points(spec: str) -> int:
    m1, m2, step = (int(x) for x in spec.split(":"))
    return (len(set(range(0, m1 + 1, step)) | {m1})
            * len(set(range(0, m2 + 1, step)) | {m2}))


def check(argv: list[str], code, text: str) -> list[str]:
    """Problems found in one request's result; empty when it passes.

    A report that parses but lacks a field, or holds one of the wrong
    type, is a failed request too.
    """
    if code != 0:
        return [f"exit code {code}"]
    try:
        out = parse_output(argv, text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"output does not parse: {exc}"]
    try:
        return _check_report(argv, out)
    except (KeyError, TypeError, IndexError, ValueError, AttributeError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


def _check_report(argv: list[str], out) -> list[str]:
    problems = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    for path, leaf in _walk(out):
        if isinstance(leaf, float) and path[-1] != "log":
            need(math.isfinite(leaf), f"non-finite {'.'.join(path)}")
        if path[-1] == "total_mass":
            need(_near(leaf, 1.0, NORM_TOL), f"{'.'.join(path)} = {leaf!r}")
    command = argv[0]
    if command == "predict":
        e = out["expected_new"]
        need(_near(e["s"], e["k1"] + e["k2"] - e["k"], PROB_TOL),
             "expected_new.s != k1 + k2 - k")
        cov = out["coverage_prob"]["value"]
        need(0.0 <= cov <= 1.0, f"coverage_prob {cov!r} outside [0, 1]")
        if "shared_pmf" in out:
            need(_near(cov, _pmf_prob(out["shared_pmf"], 0), PROB_TOL),
                 "coverage_prob != P(S = 0) of shared_pmf")
    elif command == "discover":
        pmf = [out["one_step_shared_pmf"][s]["value"] for s in ("0", "1", "2")]
        need(_near(sum(pmf), 1.0, NORM_TOL), f"one-step pmf sums to {sum(pmf)!r}")
        need(_near(out["discovery_prob"]["value"], 1.0 - pmf[0], PROB_TOL),
             "discovery_prob != 1 - P(0)")
        need(_near(out["pair_normalizer_ratio"], 1.0, NORM_TOL),
             f"pair_normalizer_ratio = {out['pair_normalizer_ratio']!r}")
    elif command == "insample":
        need(0.0 <= out["correlation"] <= 1.0, "correlation outside [0, 1]")
        if "expected" in out:
            e = out["expected"]
            need(_near(e["s"], e["k1"] + e["k2"] - e["k"], PROB_TOL),
                 "expected.s != k1 + k2 - k")
    elif command == "curve":
        need(len(out) == _grid_points(_option(argv, "--grid")),
             f"curve has {len(out)} rows")
        need(all(0.0 <= row["coverage_prob"] <= 1.0 for row in out),
             "curve coverage_prob outside [0, 1]")
    elif command == "simulate":
        expected = SIMULATE_ROWS[_option(argv, "--experiment")]
        need(len(out) == expected, f"simulate has {len(out)} rows, not {expected}")
    return problems


def norm_deviation(argv: list[str], text: str) -> float:
    """Largest |x - 1| over the normalization values of one result."""
    out = parse_output(argv, text)
    values = [leaf for path, leaf in _walk(out)
              if path[-1] in ("total_mass", "pair_normalizer_ratio")]
    if argv[0] == "discover":
        values.append(sum(out["one_step_shared_pmf"][s]["value"] for s in "012"))
    return max((abs(v - 1.0) for v in values), default=0.0)


def key_outputs(argv: list[str], text: str) -> dict[str, float]:
    """Numeric leaves of a result by path: the values a reference pins.

    Log-scale copies and echoed inputs are left out; pmf entries are keyed
    by their support point rather than their rank.
    """
    out = parse_output(argv, text)
    values = {}
    for path, leaf in _walk(_key_entries(out)):
        if path[-1] == "log" or path[:1] == ("input",):
            continue
        if isinstance(leaf, (int, float)) and not isinstance(leaf, bool):
            values[".".join(path)] = float(leaf)
    return values


def _key_entries(obj):
    if isinstance(obj, dict):
        return {k: ({json.dumps(e["key"]): e["prob"] for e in v}
                    if k == "top_entries" else _key_entries(v))
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [_key_entries(v) for v in obj]
    return obj


def portable_argv(argv: list[str]) -> list[str]:
    """The request with input tables named by file name only."""
    return [os.path.basename(a) if a.endswith(".csv") else a for a in argv]


def compare_reference(argv: list[str], text: str, reference: dict) -> list[str]:
    """Mismatches between a result and its recorded reference outputs."""
    if reference["argv"] != portable_argv(argv):
        return ["request differs from the recorded reference request"]
    try:
        got = key_outputs(argv, text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"output does not parse: {exc}"]
    problems = []
    for path, want in reference["outputs"].items():
        if path not in got:
            problems.append(f"reference output {path} missing")
            continue
        probability = (path.rsplit(".", 1)[-1] in PROB_LEAVES
                       or ".top_entries." in path)
        tol = PROB_TOL if probability else EXP_TOL
        if not _near(got[path], want, tol):
            problems.append(f"{path} = {got[path]!r}, reference {want!r}")
    return problems
