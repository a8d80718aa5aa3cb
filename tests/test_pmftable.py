import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecfdp.logmath import LOG_ZERO
from vecfdp.pmftable import PmfTable, shared_marginal


def dict_group(entries: dict, fn) -> dict:
    """Mass summed under a key map, groups in order of first appearance."""
    acc: dict = {}
    for key, lp in entries.items():
        new = fn(key)
        acc[new] = lp if new not in acc else float(np.logaddexp(acc[new], lp))
    return acc


def dict_top(entries: dict, n: int) -> list:
    ranked = sorted(entries.items(), key=lambda kv: -kv[1])
    return [(k, math.exp(v)) for k, v in ranked[:n]]


@pytest.fixture()
def random_table():
    """Three-component keys with repeated components and tied masses."""
    rng = np.random.default_rng(7)
    keys = np.unique(rng.integers(0, 6, size=(120, 3)), axis=0)
    keys = keys[rng.permutation(len(keys))]
    weights = rng.choice([1.0, 2.0, 3.0, 5.0], size=len(keys))
    log_mass = np.log(weights / weights.sum())
    entries = dict(zip(map(tuple, keys.tolist()), log_mass.tolist()))
    return PmfTable.from_arrays(keys, log_mass), entries


def assert_same(table: PmfTable, entries: dict, tol: float = 1e-14):
    assert list(table.entries) == list(entries)
    for key, lp in entries.items():
        assert table.log_prob(key) == pytest.approx(lp, abs=tol)


def test_from_arrays_drops_zero_mass():
    table = PmfTable.from_arrays([3, 1, 4, 2], [math.log(0.5), LOG_ZERO, math.log(0.5), LOG_ZERO])
    assert table.keys.tolist() == [3, 4]
    assert table.entries == {3: math.log(0.5), 4: math.log(0.5)}
    assert len(table) == len(table.entries) == 2
    assert table.prob(1) == 0.0
    pairs = PmfTable.from_arrays(np.array([[1, 2], [2, 1]]), [0.0, LOG_ZERO])
    assert pairs.entries == {(1, 2): 0.0}
    with pytest.raises(ValueError):
        PmfTable.from_arrays([1, 2], [0.0])


def test_dict_construction_matches_from_arrays(random_table):
    table, entries = random_table
    built = PmfTable(entries)
    assert built.keys.tolist() == table.keys.tolist()
    assert built.log_mass.tolist() == table.log_mass.tolist()


def test_array_reductions_match_dict_definitions(random_table):
    table, entries = random_table
    assert table.total_mass() == pytest.approx(
        sum(math.exp(v) for v in entries.values()), rel=1e-14)
    for c in range(3):
        assert table.mean(c) == pytest.approx(
            sum(k[c] * math.exp(v) for k, v in entries.items()), rel=1e-14)
        assert_same(table.marginal(c), dict_group(entries, lambda k, c=c: k[c]))
    # shared_marginal on random (total, local1, local2) keys whose shared
    # count t = local1 + local2 - total is in 0..5, in ascending t
    rng = np.random.default_rng(11)
    locals_ = np.unique(rng.integers(0, 8, size=(150, 2)), axis=0)
    t = rng.integers(0, np.minimum(locals_.min(axis=1), 5) + 1)
    keys = np.column_stack([locals_.sum(axis=1) - t, locals_])
    log_mass = np.log(rng.choice([1.0, 2.0, 3.0, 5.0], size=len(keys)))
    log_mass -= np.log(np.exp(log_mass).sum())
    entries = dict(zip(map(tuple, keys.tolist()), log_mass.tolist()))
    want = dict_group(entries, lambda k: k[1] + k[2] - k[0])
    assert_same(shared_marginal(PmfTable.from_arrays(keys, log_mass)),
                dict(sorted(want.items())))


@pytest.mark.parametrize("n", [0, 1, 5, 17, 500])
def test_top_entries_keep_key_order_on_ties(random_table, n):
    table, entries = random_table
    assert table.top_entries(n) == dict_top(entries, n)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.sampled_from([-0.5, -1.0, -2.0, -3.5, LOG_ZERO]), max_size=60),
       st.integers(0, 70))
def test_top_entries_match_full_stable_sort(log_mass, n):
    # few distinct masses, so most entries tie; -inf entries are dropped
    table = PmfTable.from_arrays(np.arange(len(log_mass)), log_mass)
    ranked = np.argsort(-table.log_mass, kind="stable")[:n]
    want = [(int(k), math.exp(v)) for k, v in zip(table.keys[ranked], table.log_mass[ranked])]
    assert table.top_entries(n) == want


def test_marginal_negative_values_and_empty_table():
    pairs = PmfTable.from_arrays([[5, 1], [-3, 2], [5, 0], [0, 1]], np.log([0.1, 0.2, 0.3, 0.4]))
    marg = pairs.marginal(0)
    assert marg.keys.tolist() == [5, -3, 0]
    assert marg.log_mass == pytest.approx(np.log([0.4, 0.2, 0.4]), abs=1e-15)
    empty = PmfTable.from_arrays(np.zeros((0, 2), dtype=int), np.zeros(0)).marginal(1)
    assert len(empty) == 0 and empty.keys.shape == (0,)
