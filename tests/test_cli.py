import csv
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import pytest

import vecfdp
from vecfdp import prediction
from vecfdp.abundance import ants_csv_path, ingest
from vecfdp.cli import COVERAGE_BUDGET, build_parser, main
from vecfdp.logmath import log_sum_exp
from vecfdp.mprior import OneShiftedPoisson
from vecfdp.prediction import ObservedState, one_step_discovery_prob
from vecfdp.simulate import generate_population
from vecfdp.vcoef import ModelParams, VCoefficients

from oracles import (
    draw_sample,
    expected_new_moments_mp,
    prior_joint_global_shared_loop,
    prior_joint_loop,
    prior_marginal_global_loop,
    simpson_moment_mp,
    uncapped_coverage_prob,
    write_csv,
)


@pytest.fixture()
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("species,count_1,count_2\n"
                    "a,8,6\nb,5,0\nc,3,4\nd,1,2\ne,0,5\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def two_species_csv(tmp_path_factory):
    # two species, each seen 10^6 times in one group and once in the other:
    # |log V| is about 1.4e7 here, so one ulp of it is 2e-9
    path = tmp_path_factory.mktemp("two_species") / "two_species.csv"
    path.write_text("species,count_1,count_2\na,1000000,1\nb,1,1000000\n",
                    encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fit_reports_params_and_stats(capsys, toy_csv):
    code, out, err = run(capsys, "fit", toy_csv)
    assert code == 0
    report = json.loads(out)
    assert report["input"]["n1"] == 17 and report["input"]["n2"] == 17
    assert report["params"]["lambda"] > 0
    assert report["residuals"]["lambda"] < 1e-10


def test_fit_missing_file_is_input_error(capsys, tmp_path):
    code, out, err = run(capsys, "fit", str(tmp_path / "nope.csv"))
    assert code == 1
    assert "input error" in err


def test_malformed_row_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("species,count_1,count_2\nx,0,0\n", encoding="utf-8")
    code, out, err = run(capsys, "fit", str(path))
    assert code == 1
    assert "zero count in both groups" in err


def test_degenerate_moments_is_numerical_error(capsys, tmp_path):
    # a single fully shared species gives cp = 1: no finite rate exists
    path = tmp_path / "deg.csv"
    path.write_text("species,count_1,count_2\nonly,5,7\n", encoding="utf-8")
    code, out, err = run(capsys, "fit", str(path))
    assert code == 2
    assert "numerical error" in err


def test_fit_two_species_table(capsys, two_species_csv):
    # the Simpson root, gamma = 4.0e-12, lies far below any fixed bracket
    # of gamma; a fit that stops at such a bracket's edge misses ss by 5e-3
    code, out, err = run(capsys, "fit", two_species_csv)
    assert code == 0, err
    report = json.loads(out)
    lam, gamma = report["params"]["lambda"], report["params"]["gamma1"]
    assert report["params"]["gamma2"] == gamma
    assert gamma == pytest.approx(4.0e-12, rel=1e-3)
    assert max(report["residuals"].values()) <= 1e-12
    # the moment decreases in gamma, so a target between the moments at
    # gamma (1 -+ 1e-9) puts the mpmath root within rel 1e-9 of gamma
    with mpmath.workdps(30):
        ss = mpmath.mpf(10**12 + 1) / mpmath.mpf(10**6 + 1) ** 2
        assert simpson_moment_mp(gamma * (1 - 1e-9), lam) > ss
        assert simpson_moment_mp(gamma * (1 + 1e-9), lam) < ss


def test_insample_report(capsys, toy_csv):
    code, out, err = run(capsys, "insample", toy_csv)
    assert code == 0
    report = json.loads(out)
    assert 0.0 < report["correlation"] <= 1.0
    assert report["pmf_joint"]["total_mass"] == pytest.approx(1.0, abs=1e-8)
    exp = report["expected"]
    assert exp["s"] == pytest.approx(exp["k1"] + exp["k2"] - exp["k"], abs=1e-9)


def test_insample_with_explicit_params(capsys, toy_csv):
    code, out, err = run(capsys, "insample", toy_csv, "--lam", "2.0",
                         "--gamma1", "0.5", "--gamma2", "0.5")
    assert code == 0
    report = json.loads(out)
    assert report["params"]["source"] == "flags"
    # equal concentrations: correlation matches the symmetric closed form
    assert 0.0 < report["correlation"] < 1.0


def test_insample_large_table_reports_correlation_only(capsys):
    # at lam = 1e3 the cut K = 1262 passes n1 = 934: the lattice would have
    # 2.8e8 cells, so the report declines before any work
    start = time.perf_counter()
    code, out, err = run(capsys, "insample", str(ants_csv_path()), "--lam", "1000",
                         "--gamma1", "1", "--gamma2", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    report = json.loads(out)
    assert "note" in report and "pmf_joint" not in report
    assert "K = 1262" in report["note"] and "280194863" in report["note"]
    assert 0.0 < report["correlation"] <= 1.0


def _peak_rss_probe(argv) -> dict:
    """Run ``main(argv)`` in a fresh interpreter: exit code, in-process
    seconds, peak RSS in kB and the parsed report.  The peak is the
    interpreter's own VmHWM: ``ru_maxrss`` carries over the high-water mark
    of the forking test process."""
    src = str(Path(vecfdp.__file__).resolve().parents[1])
    probe = (
        "import contextlib, io, json, time\n"
        "from vecfdp.cli import main\n"
        "out = io.StringIO()\n"
        "start = time.perf_counter()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = main({argv!r})\n"
        "seconds = time.perf_counter() - start\n"
        "with open('/proc/self/status') as status:\n"
        "    rss = next(int(line.split()[1]) for line in status\n"
        "               if line.startswith('VmHWM:'))\n"
        "print(json.dumps({'code': code, 'seconds': seconds, 'rss_kb': rss,\n"
        "                  'report': json.loads(out.getvalue())}))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True, cwd=src, timeout=300)
    return json.loads(done.stdout)


def test_insample_100_by_100_table_small_memory(tmp_path):
    # a table at the old size cap: cut at K = 87 its lattice has 117 305
    # cells (348 350 uncut); the child's own peak is about 37 MB
    sample = draw_sample(generate_population(60, 0.9, 0.85, seed=3), 100, 100, seed=5)
    path = tmp_path / "hundred.csv"
    write_csv(sample.table(), path)
    result = _peak_rss_probe(["insample", str(path)])
    assert result["code"] == 0
    assert result["report"]["input"]["n1"] == 100
    assert result["report"]["pmf_joint"]["total_mass"] == pytest.approx(1.0, abs=1e-8)
    assert result["rss_kb"] < 250 * 1024


def test_insample_ants_reports_all_laws(capsys):
    # the paper's own sample sizes: the lattice cut at K = 43 has 15 093
    # cells, and the laws come with their model check
    ants = str(ants_csv_path())
    result = _peak_rss_probe(["insample", ants])
    assert result["code"] == 0
    report = result["report"]
    for name in ("pmf_joint", "pmf_global", "pmf_shared"):
        assert len(report[name]["top_entries"]) == 20
        assert report[name]["total_mass"] == pytest.approx(1.0, abs=1e-10)
    assert result["seconds"] < 0.1
    tail = report["observed_tail"]
    assert tail["global"]["value"] == pytest.approx(8.36e-8, rel=1e-3)
    assert tail["shared"]["value"] == pytest.approx(0.513, rel=1e-3)
    # predict's laws add about 0.5 MB to the fitted process; the lattice's
    # own arrays (about 0.4 MB) and numpy's first-use pages for them put
    # insample about 0.6 MB above that, within 1 MB
    predict = _peak_rss_probe(["predict", ants, "--m1", "1000", "--m2", "1000"])
    assert predict["code"] == 0
    assert result["rss_kb"] <= predict["rss_kb"] + 1024


def test_insample_observed_tail_matches_loop_sums(capsys, tmp_path):
    sample = draw_sample(generate_population(60, 0.9, 0.85, seed=3), 12, 15, seed=4)
    table = sample.table()
    path = tmp_path / "small.csv"
    write_csv(table, path)
    code, out, err = run(capsys, "insample", str(path), "--lam", "6",
                         "--gamma1", "0.8", "--gamma2", "1.7")
    assert code == 0
    tail = json.loads(out)["observed_tail"]
    vc = VCoefficients(ModelParams(0.8, 1.7, OneShiftedPoisson(6.0)))
    joint = prior_joint_loop(vc, table.n1, table.n2).entries
    want_r = sum(math.exp(lp) for (r, _, _), lp in joint.items() if r >= table.r)
    want_t = sum(math.exp(lp) for (r, r1, r2), lp in joint.items()
                 if r1 + r2 - r >= table.t)
    assert 0.0 < want_r < 1.0 and 0.0 < want_t < 1.0
    assert tail["global"]["value"] == pytest.approx(want_r, abs=1e-12)
    assert tail["shared"]["value"] == pytest.approx(want_t, abs=1e-12)


def test_insample_laws_match_scalar_loops(capsys, tmp_path):
    sample = draw_sample(generate_population(60, 0.9, 0.85, seed=3), 40, 50, seed=4)
    table = sample.table()
    assert (table.n1, table.n2) == (40, 50)
    path = tmp_path / "small.csv"
    write_csv(table, path)
    code, out, err = run(capsys, "insample", str(path), "--lam", "30",
                         "--gamma1", "0.8", "--gamma2", "1.7")
    assert code == 0
    report = json.loads(out)
    vc = VCoefficients(ModelParams(0.8, 1.7, OneShiftedPoisson(30.0)))
    joint = prior_joint_loop(vc, 40, 50).entries
    by_t: dict = {}
    for (r, t), lp in prior_joint_global_shared_loop(vc, 40, 50).entries.items():
        by_t.setdefault(t, []).append(lp)
    laws = {"pmf_joint": joint,
            "pmf_global": prior_marginal_global_loop(vc, 40, 50).entries,
            "pmf_shared": {t: log_sum_exp(terms) for t, terms in by_t.items()}}
    for name, entries in laws.items():
        ranked = sorted(entries.items(), key=lambda kv: -kv[1])[:20]
        got = report[name]["top_entries"]
        assert [e["key"] for e in got] == [list(k) if isinstance(k, tuple) else k
                                          for k, _ in ranked], name
        for e, (_, lp) in zip(got, ranked):
            assert e["prob"] == pytest.approx(math.exp(lp), abs=1e-12)
    mean = [sum(key[c] * math.exp(lp) for key, lp in joint.items()) for c in range(3)]
    want = {"k": mean[0], "k1": mean[1], "k2": mean[2],
            "s": mean[1] + mean[2] - mean[0]}
    for key, value in want.items():
        assert report["expected"][key] == pytest.approx(value, rel=1e-12)


def test_predict_report_with_explicit_params(capsys, toy_csv):
    code, out, err = run(capsys, "predict", toy_csv, "--m1", "2", "--m2", "2",
                         "--lam", "3.0", "--gamma1", "1.0", "--gamma2", "0.8")
    assert code == 0
    report = json.loads(out)
    assert report["params"]["source"] == "flags"
    assert report["shared_pmf"]["total_mass"] == pytest.approx(1.0, abs=1e-8)
    assert 0.0 <= report["coverage_prob"]["value"] <= 1.0


def test_predict_large_rate_posterior_normalized(capsys):
    # the posterior of the unseen count reaches far past m* = 10^5
    code, out, err = run(capsys, "predict", str(ants_csv_path()),
                         "--lam", "1e5", "--gamma1", "1", "--gamma2", "1",
                         "--m1", "3", "--m2", "3")
    assert code == 0, err
    report = json.loads(out)
    assert report["posterior_unseen"]["pmf"]["total_mass"] == pytest.approx(
        1.0, abs=1e-10)


@pytest.mark.parametrize("extra", [(), ("--m1", "3", "--m2", "4")])
def test_ants_at_rate_one_million_answers(capsys, extra):
    # the series' head from m = r alone would pass max_terms; it starts
    # where a bound shows that head negligible
    command = "predict" if extra else "discover"
    code, out, err = run(capsys, command, str(ants_csv_path()), *extra,
                         "--lam", "1e6", "--gamma1", "1", "--gamma2", "1")
    assert code == 0, err
    report = json.loads(out)
    if extra:
        assert report["posterior_unseen"]["pmf"]["total_mass"] == pytest.approx(
            1.0, abs=1e-10)
    else:
        assert sum(p["value"] for p in report["one_step_shared_pmf"].values()) == (
            pytest.approx(1.0, abs=1e-10))


def test_predict_partial_params_rejected(capsys, toy_csv):
    code, out, err = run(capsys, "predict", toy_csv, "--m1", "1", "--m2", "1",
                         "--lam", "3.0")
    assert code == 1


def test_discover_report(capsys, toy_csv):
    code, out, err = run(capsys, "discover", toy_csv)
    assert code == 0
    report = json.loads(out)
    pmf = {int(k): v["value"] for k, v in report["one_step_shared_pmf"].items()}
    assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-8)
    assert report["discovery_prob"]["value"] == pytest.approx(
        1.0 - pmf[0], abs=1e-10)
    assert sum(report["pair_probs"].values()) == pytest.approx(1.0, abs=1e-10)


def test_discover_ants_positive(capsys):
    code, out, err = run(capsys, "discover", str(ants_csv_path()))
    assert code == 0
    report = json.loads(out)
    assert report["input"]["n1"] == 934
    assert report["discovery_prob"]["value"] > 0.0


@pytest.mark.parametrize("params", [(), ("--lam", "3000.0", "--gamma1", "0.4",
                                         "--gamma2", "2.5")])
def test_discover_prob_is_library_value(capsys, params):
    # the report sums the pmf it already holds, exactly as the library does
    path = str(ants_csv_path())
    code, out, err = run(capsys, "discover", path, *params)
    assert code == 0
    report = json.loads(out)
    p = report["params"]
    vc = VCoefficients(ModelParams(p["gamma1"], p["gamma2"], OneShiftedPoisson(p["lambda"])))
    state = ObservedState.from_abundance(ingest(path))
    assert report["discovery_prob"]["value"] == one_step_discovery_prob(vc, state)


def test_discover_forms_one_step_ratios_once(capsys, monkeypatch):
    # the pmf, the discovery sum and the pair cells read the same V'
    # ratios: one pass, and the report is what the laws give on a fresh
    # evaluator, which forms them once more for both laws
    calls = []
    original = prediction._log_v_ratios

    def counted(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(prediction, "_log_v_ratios", counted)
    path = str(ants_csv_path())
    code, out, err = run(capsys, "discover", path, "--lam", "3000.0",
                         "--gamma1", "0.4", "--gamma2", "2.5")
    assert code == 0
    assert len(calls) == 1
    report = json.loads(out)
    vc = VCoefficients(ModelParams(0.4, 2.5, OneShiftedPoisson(3000.0)))
    state = ObservedState.from_abundance(ingest(path))
    pmf = prediction.one_step_shared_pmf(vc, state)
    assert [report["one_step_shared_pmf"][str(s)]["value"] for s in (0, 1, 2)] == [
        pmf.prob(s) for s in (0, 1, 2)]
    assert report["pair_probs"] == prediction.predictive_pair_probs(vc, state).as_dict()
    assert len(calls) == 2


def test_predict_forms_its_ratios_once(capsys, monkeypatch):
    # the coverage and the shared pmf read the same (m1, m2) ratios
    calls = []
    original = prediction._log_v_ratios

    def counted(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(prediction, "_log_v_ratios", counted)
    code, out, err = run(capsys, "predict", str(ants_csv_path()), "--m1", "3", "--m2", "4")
    assert code == 0
    report = json.loads(out)
    assert "shared_pmf" in report
    assert [c[3:] for c in calls] == [(3, 4)]
    shared = {e["key"]: e["prob"] for e in report["shared_pmf"]["top_entries"]}
    assert shared[0] == pytest.approx(report["coverage_prob"]["value"], abs=1e-12)


def test_discover_with_explicit_params(capsys, toy_csv):
    code, out, err = run(capsys, "discover", toy_csv, "--lam", "4.0",
                         "--gamma1", "1.0", "--gamma2", "1.0")
    assert code == 0
    report = json.loads(out)
    assert report["pair_normalizer_ratio"] == pytest.approx(1.0, abs=1e-8)


def test_predict_with_fitted_params(capsys, toy_csv):
    code, out, err = run(capsys, "predict", toy_csv, "--m1", "30", "--m2", "10")
    assert code == 0
    report = json.loads(out)
    assert report["params"]["source"].startswith("fit")
    exp = report["expected_new"]
    assert exp["s"] == pytest.approx(exp["k1"] + exp["k2"] - exp["k"], abs=1e-8)
    assert "shared_pmf" not in report  # large futures report moments only


def test_curve_csv_rows(capsys, toy_csv):
    code, out, err = run(capsys, "curve", toy_csv, "--grid", "4:4:2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 9
    first = rows[0]
    assert first["m1"] == "0" and first["m2"] == "0"
    assert float(first["coverage_prob"]) == pytest.approx(1.0, abs=1e-9)


def test_baselines_report(capsys, toy_csv):
    code, out, err = run(capsys, "baselines", toy_csv)
    assert code == 0
    report = json.loads(out)
    assert report["yue"]["value"] >= 0.0
    assert report["chao_sh"]["value"] >= 0.0
    assert report["chao2000_richness"] == "unavailable"


def test_baselines_unequal_sizes(capsys, tmp_path):
    path = tmp_path / "uneq.csv"
    path.write_text("species,count_1,count_2\na,2,1\nb,1,0\n", encoding="utf-8")
    code, out, err = run(capsys, "baselines", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["yue"].startswith("unavailable")


def test_baselines_overflow_flagged(capsys, tmp_path):
    path = tmp_path / "single.csv"
    path.write_text("species,count_1,count_2\na,1,1\n", encoding="utf-8")
    code, out, err = run(capsys, "baselines", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["yue"]["value"] == pytest.approx(3.0)
    assert report["yue"]["exceeds_one"] is True
    assert report["chao_sh"]["exceeds_one"] is True


def test_curve_bad_grid_is_input_error(capsys, toy_csv):
    code, out, err = run(capsys, "curve", toy_csv, "--grid", "4:4")
    assert code == 1
    assert "bad --grid" in err


@pytest.mark.parametrize("argv,name", [
    (["discover", "{ants}", "--tol", "0"], "--tol"),
    (["discover", "{ants}", "--tol", "1"], "--tol"),
    (["discover", "{ants}", "--max-terms", "0"], "--max-terms"),
    (["predict", "{ants}", "--m1", "-1", "--m2", "2"], "--m1"),
    (["predict", "{ants}", "--m1", "2", "--m2", "-3"], "--m2"),
    (["curve", "{ants}", "--grid", "4:-1:2"], "--grid"),
    (["simulate", "--experiment", "2", "--replications", "0"], "--replications"),
    (["simulate", "--experiment", "1", "--grid", "abc"], "--grid"),
    (["simulate", "--experiment", "1", "--grid", "50:40:10"], "--grid"),
    (["simulate", "--experiment", "1", "--grid", "50:100:0"], "--grid"),
    (["simulate", "--experiment", "2", "--n", "-3"], "--n"),
    (["simulate", "--experiment", "2", "--n", "0"], "--n"),
    (["simulate", "--experiment", "1", "--m-true", "0"], "--m-true"),
    (["simulate", "--experiment", "1", "--alpha1", "0"], "--alpha1"),
    (["simulate", "--experiment", "1", "--alpha1", "1.5"], "--alpha1"),
    (["simulate", "--experiment", "2", "--alpha2", "1"], "--alpha2"),
])
def test_bad_option_values_are_input_errors(capsys, argv, name):
    argv = [a.format(ants=ants_csv_path()) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert f"argument {name}" in err and out == ""


def test_simulate_experiment1_csv(capsys):
    code, out, err = run(capsys, "simulate", "--experiment", "1",
                         "--grid", "30:60:30", "--replications", "2",
                         "--seed", "5")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {row["method"] for row in rows} == {"proposed", "yue", "chao_sh",
                                               "true"}


def test_simulate_experiment2_csv(capsys):
    code, out, err = run(capsys, "simulate", "--experiment", "2",
                         "--n", "40", "--replications", "2", "--seed", "5")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 9


def test_simulate_json_format(capsys):
    code, out, err = run(capsys, "simulate", "--experiment", "1",
                         "--grid", "30:30:30", "--replications", "2",
                         "--seed", "5", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "simulate"
    assert len(report["rows"]) == 4


def test_json_reports_round_trip_byte_identical(capsys, toy_csv, tmp_path):
    code, out, err = run(capsys, "fit", toy_csv)
    assert code == 0
    reparsed = json.loads(out)
    re_emitted = json.dumps(reparsed, indent=2, sort_keys=True) + "\n"
    assert re_emitted == out


def test_output_file(capsys, toy_csv, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "fit", toy_csv, "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["command"] == "fit"


def test_deterministic_given_seed(capsys, toy_csv):
    argv = ("simulate", "--experiment", "1", "--replications", "1", "--seed", "9")
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first[0] == 0 and first[1], first[2]
    assert second == first
    # predict draws nothing: its report is fixed by the table alone
    argv = ("predict", toy_csv, "--m1", "2", "--m2", "1")
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first[0] == 0 and first[1], first[2]
    assert second == first


def test_simulate_runs_the_seed_given(capsys):
    argv = ("simulate", "--experiment", "2", "--n", "40", "--replications", "1")
    runs = {seed: run(capsys, *argv, "--seed", seed) for seed in ("0", "11")}
    assert all(code == 0 and out for code, out, _ in runs.values())
    # seed 0 is a seed like any other, and 11 is the default
    assert runs["0"][1] != runs["11"][1]
    assert run(capsys, *argv) == runs["11"]


#: the first arguments of a working call of each subcommand
_BASE_ARGV = {
    "fit": ["fit", "{toy}"],
    "insample": ["insample", "{toy}"],
    "predict": ["predict", "{toy}", "--m1", "1", "--m2", "1"],
    "discover": ["discover", "{toy}"],
    "curve": ["curve", "{toy}"],
    "baselines": ["baselines", "{toy}"],
    "simulate": ["simulate", "--experiment", "2", "--replications", "1"],
    "validate": ["validate"],
}

#: a valid value of each option some subcommands take
_OPTION_VALUE = {"--tol": "1e-10", "--max-terms": "100", "--seed": "3",
                 "--mode": "unbiased", "--format": "csv"}


@pytest.mark.parametrize("command,option", [
    *(("fit", o) for o in ("--tol", "--max-terms", "--seed", "--format")),
    *((c, o) for c in ("insample", "predict", "discover")
      for o in ("--seed", "--format")),
    ("curve", "--seed"),
    *(("baselines", o) for o in ("--tol", "--max-terms", "--seed", "--mode", "--format")),
    ("simulate", "--tol"), ("simulate", "--max-terms"),
    *(("validate", o) for o in ("--tol", "--max-terms", "--seed", "--mode", "--format")),
])
def test_option_a_subcommand_does_not_read_is_usage_error(capsys, monkeypatch, toy_csv,
                                                          command, option):
    from vecfdp import cli

    def never(args):
        raise AssertionError(f"{command} ran with {option}")

    # validate's handler is what runs the battery
    monkeypatch.setattr(cli, f"_cmd_{command}", never)
    argv = [a.format(toy=toy_csv) for a in _BASE_ARGV[command]]
    code, out, err = run(capsys, *argv, option, _OPTION_VALUE[option])
    assert code == 1
    assert f"unrecognized arguments: {option}" in err and out == ""


@pytest.mark.parametrize("command,argv,option", [
    ("simulate", ["simulate", "--experiment", "2", "--grid", "10:20:5"], "--grid"),
    ("simulate", ["simulate", "--experiment", "1", "--n", "30"], "--n"),
    *((c, [c, "{toy}", *extra, "--lam", "3", "--gamma1", "1", "--gamma2", "0.8",
           "--mode", "unbiased"], "--mode")
      for c, extra in (("insample", []), ("predict", ["--m1", "1", "--m2", "1"]),
                       ("discover", []), ("curve", []))),
])
def test_option_a_configuration_does_not_read_is_usage_error(capsys, monkeypatch, toy_csv,
                                                             command, argv, option):
    from vecfdp import cli

    def never(args):
        raise AssertionError(f"{command} ran with {option}")

    monkeypatch.setattr(cli, f"_cmd_{command}", never)
    code, out, err = run(capsys, *(a.format(toy=toy_csv) for a in argv))
    assert code == 1
    assert f"argument {option}" in err and out == ""


def test_mode_is_read_when_the_model_is_fitted(capsys, toy_csv):
    code, out, _ = run(capsys, "discover", toy_csv, "--mode", "unbiased")
    assert code == 0 and json.loads(out)["params"]["source"] == "fit (unbiased)"
    code, out, _ = run(capsys, "discover", toy_csv)
    assert code == 0 and json.loads(out)["params"]["source"] == "fit (plug_in)"


def test_validate_passes(capsys):
    code, out, err = run(capsys, "validate")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert all(check["passed"] for check in report["checks"])


def test_validate_failure_exit_code(capsys, monkeypatch):
    from vecfdp import cli
    from vecfdp.validation import CheckResult

    def broken(*, fast=True):
        return [CheckResult(name="forced", measured=1.0, threshold=1e-8,
                            passed=False)]

    monkeypatch.setattr(cli, "run_all", broken)
    code, out, err = run(capsys, "validate")
    assert code == 3
    assert json.loads(out)["passed"] is False


def test_unknown_command_is_input_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_parser_reused_after_error_and_version(capsys, toy_csv):
    # one parser serves every call of main in a process
    assert build_parser() is build_parser()
    assert run(capsys, "predict", toy_csv, "--m1", "x")[0] == 1
    code, out, _ = run(capsys, "--version")
    assert code == 0 and out.strip() == vecfdp.__version__
    params = ("--lam", "3.0", "--gamma1", "0.8", "--gamma2", "1.1")
    first = run(capsys, "insample", toy_csv, *params)
    assert first[0] == 0
    assert run(capsys, "discover", toy_csv, *params)[0] == 0
    assert run(capsys, "insample", toy_csv, *params) == first


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats alone takes most of a second to import
    src = str(Path(vecfdp.__file__).resolve().parents[1])
    probe = "import sys, vecfdp.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True, cwd=src, timeout=60)
    assert out.stdout.strip() == "False"


def test_cli_import_loads_no_scipy():
    # the package needs numpy only; scipy.special alone pulled in scipy's
    # array-API layer, about 24 MB and a quarter second per CLI process
    src = str(Path(vecfdp.__file__).resolve().parents[1])
    probe = ("import sys, vecfdp.cli; "
             "print([m for m in sys.modules if m.startswith('scipy')])")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True, cwd=src, timeout=60)
    assert out.stdout.strip() == "[]"


def test_predict_large_future_small_memory():
    # futures of 3000 x 3000 and 10^4 x 10^4: the rows stop at the
    # posterior window and the coverage lattice is summed in blocks; an
    # O(m^2) buffer of rows or cells would take hundreds of MB here
    src = str(Path(vecfdp.__file__).resolve().parents[1])
    probe = (
        "import contextlib, io, json, resource\n"
        "from vecfdp.abundance import ants_csv_path\n"
        "from vecfdp.cli import main\n"
        "results = []\n"
        "for m in ('3000', '10000'):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(['predict', str(ants_csv_path()), '--m1', m, '--m2', m])\n"
        "    results.append({'code': code,\n"
        "                    'coverage': json.loads(out.getvalue())['coverage_prob']['value']})\n"
        "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(json.dumps({'results': results, 'rss_kb': rss}))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True, cwd=src, timeout=300)
    result = json.loads(done.stdout)
    for each in result["results"]:
        assert each["code"] == 0
        assert 0.0 < each["coverage"] < 1.0
    assert result["rss_kb"] < 250 * 1024


def test_curve_fine_grid_in_one_pass(capsys):
    # 10 201 points: one call of the point laws per point took about 6 s
    t0 = time.perf_counter()
    code, out, err = run(capsys, "curve", str(ants_csv_path()), "--grid", "1000:1000:10")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0, err
    assert out.count("\n") == 1 + 101 * 101


def test_curve_past_coverage_budget_declines_at_once(capsys):
    # at lam = 3e4 the posterior window holds 2475 points up to K = 28 003:
    # this curve's coverage counts 8.4e7 cells before any is formed
    t0 = time.perf_counter()
    code, out, err = run(capsys, "curve", str(ants_csv_path()), "--grid", "400:400:50",
                         "--lam", "3e4", "--gamma1", "1", "--gamma2", "1")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert f"budget of {COVERAGE_BUDGET}" in err


def test_predict_past_coverage_budget_notes_coverage(capsys):
    # a 10^4 x 10^4 future at lam = 3e4 took 6.7-11.7 s for its coverage;
    # past the budget the report keeps the counts and the posterior
    path = str(ants_csv_path())
    flags = ["--lam", "3e4", "--gamma1", "1", "--gamma2", "1"]
    t0 = time.perf_counter()
    code, out, err = run(capsys, "predict", path, "--m1", "10000", "--m2", "10000", *flags)
    assert time.perf_counter() - t0 < 1.0
    assert code == 0, err
    report = json.loads(out)
    assert "coverage_prob" not in report
    assert f"at most {COVERAGE_BUDGET} cells" in report["note"]
    vc = VCoefficients(ModelParams(1.0, 1.0, OneShiftedPoisson(3e4)))
    state = ObservedState.from_abundance(ingest(path))
    assert report["expected_new"] == prediction.expected_new(vc, state, 10000, 10000)._asdict()
    assert report["posterior_unseen"]["pmf"]["total_mass"] == pytest.approx(1.0, abs=1e-14)
    # the long-window future of the memory test below stays within it
    long_vc = VCoefficients(ModelParams(0.5, 2.0, OneShiftedPoisson(3e4)))
    assert prediction.coverage_cells(long_vc, state, [1000], [1000]) <= COVERAGE_BUDGET


def test_curve_large_grid_small_memory():
    # 441 points of futures up to 2000 x 2000: a ratio run of m1 + m2 + 1
    # floats kept per point would hold 7 MB by the end.  tracemalloc sees
    # numpy's buffers; a child's ru_maxrss would start at its parent's peak
    src = str(Path(vecfdp.__file__).resolve().parents[1])
    probe = (
        "import contextlib, io, tracemalloc\n"
        "from vecfdp.abundance import ants_csv_path\n"
        "from vecfdp.cli import main\n"
        "out = io.StringIO()\n"
        "tracemalloc.start()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = main(['curve', str(ants_csv_path()), '--grid', '2000:2000:100'])\n"
        "print(code, out.getvalue().count(chr(10)), tracemalloc.get_traced_memory()[1])\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True, cwd=src, timeout=300)
    code, lines, peak = map(int, done.stdout.split())
    assert code == 0 and lines == 1 + 21 * 21
    assert peak < 3 * 1024 * 1024


@pytest.mark.parametrize("gamma", ["1", "0.01"])
@pytest.mark.parametrize("m", [10, 100])
def test_predict_two_species_table(capsys, two_species_csv, gamma, m):
    code, out, err = run(capsys, "predict", two_species_csv, "--lam", "1e3",
                         "--gamma1", gamma, "--gamma2", gamma,
                         "--m1", str(m), "--m2", str(m))
    assert code == 0, err
    report = json.loads(out)
    assert 0.0 <= report["coverage_prob"]["value"] <= 1.0
    state = ObservedState(n1=10**6 + 1, n2=10**6 + 1, r1=2, r2=2, r=2)
    params = ModelParams(float(gamma), float(gamma), OneShiftedPoisson(1e3))
    # ratios taken as differences of two logs of V lifted the sum to
    # 1 + 3.7e-9 at gamma = 1, m = 10
    assert uncapped_coverage_prob(VCoefficients(params), state, m, m) <= 1.0 + 1e-13
    want = expected_new_moments_mp(state, params, m, m)
    for key in ("k", "k1", "k2"):
        assert report["expected_new"][key] >= 0.0
        assert report["expected_new"][key] == pytest.approx(getattr(want, key), rel=1e-8)


@pytest.mark.parametrize("gamma", ["1", "0.01"])
def test_discover_two_species_table(capsys, two_species_csv, gamma):
    # the discovery probability is about 6e-21 at gamma = 1, far below the
    # rounding of 1 - P(0)
    code, out, err = run(capsys, "discover", two_species_csv, "--lam", "1e3",
                         "--gamma1", gamma, "--gamma2", gamma)
    assert code == 0, err
    report = json.loads(out)
    pmf = [report["one_step_shared_pmf"][s]["value"] for s in "012"]
    assert all(0.0 <= p <= 1.0 for p in pmf)
    assert report["discovery_prob"]["value"] >= 0.0
    assert sum(pmf) == pytest.approx(1.0, abs=1e-8)


def test_predict_long_window_small_memory():
    # at lam = 3e4 the posterior window holds about 3*10^4 entries: the
    # (k, M*) matrix of a 1000 x 1000 future, unblocked, would take 480 MB
    src = str(Path(vecfdp.__file__).resolve().parents[1])
    probe = (
        "import contextlib, io, json, resource\n"
        "from vecfdp.abundance import ants_csv_path\n"
        "from vecfdp.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = main(['predict', str(ants_csv_path()), '--lam', '3e4', '--gamma1', '0.5',\n"
        "                 '--gamma2', '2', '--m1', '1000', '--m2', '1000'])\n"
        "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(json.dumps({'code': code, 'rss_kb': rss,\n"
        "                  'coverage': json.loads(out.getvalue())['coverage_prob']['value']}))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True, cwd=src, timeout=300)
    result = json.loads(done.stdout)
    assert result["code"] == 0
    assert 0.0 < result["coverage"] < 1.0
    assert result["rss_kb"] < 250 * 1024
