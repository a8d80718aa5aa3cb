"""The grid laws against their per-point oracles: a curve's expected counts
bit for bit and its coverage within 1e-15 of one call of the point laws per
point, on the ants table (fitted, and lam = 1e3 and 3e4 at gamma = 1), the
two-species table and random small states; each ratio run of the grid pass
bit for bit against the run of its size formed alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecfdp import prediction as pred
from vecfdp.abundance import ants_table, from_counts
from vecfdp.cli import _future_grid
from vecfdp.estimation import fit_all
from vecfdp.mprior import OneShiftedPoisson
from vecfdp.vcoef import ModelParams, VCoefficients

from oracles import extrapolation_curves_by_point, log_v_ratios_by_point
from test_properties import cases

TWO_SPECIES = from_counts(["a", "b"], [10**6, 1], [1, 10**6])


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _assert_curve_matches_points(vc, state, grid):
    got = pred.extrapolation_curves(vc, state, grid)
    want = extrapolation_curves_by_point(vc, state, grid)
    assert [(row["m1"], row["m2"]) for row in got] == list(grid)
    for key in ("expected_new_global", "expected_new_shared"):
        assert np.array_equal(_bits([row[key] for row in got]),
                              _bits([row[key] for row in want])), key
    gap = max(abs(a["coverage_prob"] - b["coverage_prob"]) for a, b in zip(got, want))
    assert gap <= 1e-15


def _ants_case(params):
    table = ants_table()
    vc = VCoefficients(params if params else fit_all(table).params)
    return vc, pred.ObservedState.from_abundance(table)


@pytest.mark.parametrize("params,spec", [
    (None, "300:300:20"),
    (ModelParams(1.0, 1.0, OneShiftedPoisson(1e3)), "20:20:2"),
    (ModelParams(1.0, 1.0, OneShiftedPoisson(3e4)), "200:200:50"),
], ids=["fitted", "lam1e3", "lam3e4"])
def test_curve_matches_point_laws_on_ants(params, spec):
    vc, state = _ants_case(params)
    _assert_curve_matches_points(vc, state, _future_grid(spec))


@pytest.mark.parametrize("gamma", [1.0, 0.01])
def test_curve_matches_point_laws_on_two_species_table(gamma):
    vc = VCoefficients(ModelParams(gamma, gamma, OneShiftedPoisson(1e3)))
    state = pred.ObservedState.from_abundance(TWO_SPECIES)
    _assert_curve_matches_points(vc, state, _future_grid("100:100:25"))


def test_curve_keeps_grid_order_and_repeats():
    # an unsorted grid with a repeated point: rows in grid order, each
    # point's numbers as if it came alone
    vc, state = _ants_case(None)
    _assert_curve_matches_points(vc, state, [(5, 0), (0, 5), (3, 3), (5, 0), (0, 0), (40, 1)])
    assert pred.extrapolation_curves(vc, state, []) == []


@settings(derandomize=True, deadline=None, max_examples=40)
@given(cases(), st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                         min_size=1, max_size=12))
def test_curve_matches_point_laws_on_random_states(case, grid):
    vc, state, m1, m2 = case
    _assert_curve_matches_points(vc, state, [(m1, m2)] + grid)


@pytest.mark.parametrize("params", [
    None,
    ModelParams(1.0, 1.0, OneShiftedPoisson(1e3)),
    ModelParams(0.5, 2.0, OneShiftedPoisson(3e4)),
], ids=["fitted", "lam1e3", "lam3e4"])
def test_ratio_runs_equal_runs_formed_alone(params):
    # the one-point run is the old per-point run bit for bit, and a grid
    # pass gives each of its points that run, cut to the pass's width
    vc, state = _ants_case(params)
    key = (state.n1, state.n2, state.r)
    sizes = [(0, 0), (1, 0), (0, 3), (2, 5), (40, 7), (300, 300)]
    for m1, m2 in sizes:
        assert np.array_equal(_bits(pred._log_v_ratios(vc, *key, m1, m2)),
                              _bits(log_v_ratios_by_point(vc, *key, m1, m2))), (m1, m2)
    ordered = sorted(sizes, key=sum, reverse=True)
    width = 610
    runs = pred._log_ratio_runs(vc, *key, [m1 for m1, _ in ordered],
                                [m2 for _, m2 in ordered], width)
    for (m1, m2), run in zip(ordered, runs):
        alone = log_v_ratios_by_point(vc, *key, m1, m2)
        assert np.array_equal(_bits(run[:alone.size]), _bits(alone[:width])), (m1, m2)
        assert (run[alone.size:] == -np.inf).all()


def test_coverage_cells_closed_form():
    # fitted ants: W = 5 and K = 4; one point at (10, 3) has top 4, a = 4,
    # b = 3: a run of 5 x 5 cells, a 5 x 4 corner, a held run of 8 entries
    # and row passes of 11 x 5 and 4 x 4 cells
    vc, state = _ants_case(None)
    post = vc.posterior(state.n1, state.n2, state.r)
    assert (post.window.size, int(post.window[-1])) == (5, 4)
    assert pred.coverage_cells(vc, state, [10], [3]) == 25 + 20 + 8 + 55 + 16
