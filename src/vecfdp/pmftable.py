"""Normalized discrete distributions over integers or integer tuples,
stored in log space as two arrays: the keys and their log masses.

Total mass, means, marginals and the ranking of the most probable entries
work on the arrays; lookups by key go through a dict view that is built on
first use.  ``shared_marginal`` reduces a joint law of (total, local1,
local2) counts to the law of its shared count.
"""

from __future__ import annotations

import math

import numpy as np

from .logmath import LOG_ZERO, log_sum_exp, log_sum_exp_by


def _as_keys(keys: np.ndarray) -> list:
    """Python keys of a key array: ints for shape (n,), tuples for (n, d)."""
    out = keys.tolist()
    return out if keys.ndim == 1 else list(map(tuple, out))


class PmfTable:
    """A finite pmf: integer (or integer-tuple) keys with their log masses.

    ``keys`` is an int array of shape (n,) for integer keys or (n, d) for
    d-tuples; ``log_mass`` is a float array of shape (n,).  Entries with
    zero mass are dropped on construction, mirroring the "absent outside
    the support" convention of the exact formulas.  ``entries``, the dict
    from key to log mass in array order, is built on first use.
    """

    __slots__ = ("keys", "log_mass", "_entries")

    def __init__(self, entries: dict):
        self._keep(np.array(list(entries), dtype=np.int64),
                   np.fromiter(entries.values(), dtype=float, count=len(entries)))

    @classmethod
    def from_arrays(cls, keys, log_mass) -> "PmfTable":
        """The table of ``keys`` (shape (n,) or (n, d)) with log masses
        ``log_mass`` (shape (n,)); -inf entries are dropped."""
        table = cls.__new__(cls)
        table._keep(np.asarray(keys, dtype=np.int64), np.asarray(log_mass, dtype=float))
        return table

    def _keep(self, keys: np.ndarray, log_mass: np.ndarray) -> None:
        if keys.shape[:1] != log_mass.shape:
            raise ValueError(f"{keys.shape[0]} keys for {log_mass.size} masses")
        keep = log_mass > LOG_ZERO
        if not keep.all():
            keys, log_mass = keys[keep], log_mass[keep]
        self.keys = keys
        self.log_mass = log_mass
        self._entries = None

    @property
    def entries(self) -> dict:
        """Key -> log mass, in array order."""
        if self._entries is None:
            self._entries = dict(zip(_as_keys(self.keys), self.log_mass.tolist()))
        return self._entries

    def __len__(self) -> int:
        return self.log_mass.size

    def __iter__(self):
        return iter(self.entries)

    def support(self):
        return sorted(self.entries)

    def log_prob(self, key) -> float:
        return self.entries.get(key, LOG_ZERO)

    def prob(self, key) -> float:
        return math.exp(self.log_prob(key))

    def total_mass(self) -> float:
        return math.exp(log_sum_exp(self.log_mass))

    def probs(self) -> dict:
        return {k: math.exp(v) for k, v in self.entries.items()}

    def mean(self, component: int | None = None) -> float:
        """Expectation of the key, or of one tuple component."""
        x = self.keys if component is None else self.keys[:, component]
        return float(np.sum(x * np.exp(self.log_mass)))

    def marginal(self, component: int) -> "PmfTable":
        """Sum out every tuple component except the given one; the values
        keep the order in which they first appear.  Values are scattered
        over their range min..max, which for counts is small."""
        x = self.keys[:, component]
        lo = x.min(initial=0)
        cell = x - lo
        first = np.full(x.max(initial=0) - lo + 1, x.size)
        np.minimum.at(first, cell, np.arange(x.size))
        seen = np.flatnonzero(first < x.size)
        order = seen[np.argsort(first[seen])]
        rank = np.empty_like(first)
        rank[order] = np.arange(order.size)
        return PmfTable.from_arrays(
            order + lo, log_sum_exp_by(rank[cell], self.log_mass, order.size))

    def tail_mass(self, x: int) -> float:
        """P(key >= x), for integer keys."""
        return float(np.add.reduce(np.exp(self.log_mass[self.keys >= x])))

    def top_entries(self, n: int) -> list:
        """The n highest-mass entries as (key, prob), most probable first;
        ties keep the table's order (see :func:`top_indices`)."""
        ranked = top_indices(self.log_mass, n)
        return [(k, math.exp(v)) for k, v in zip(_as_keys(self.keys[ranked]),
                                                 self.log_mass[ranked].tolist())]


def top_indices(log_mass: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n largest entries, largest first; ties keep index
    order.  Only the entries at or above the n-th largest are sorted, so a
    long array is not sorted whole."""
    keep = np.arange(log_mass.size)
    if 0 < n < log_mass.size:
        cut = np.partition(log_mass, log_mass.size - n)[log_mass.size - n]
        keep = np.flatnonzero(log_mass >= cut)
    return keep[np.argsort(-log_mass[keep], kind="stable")[:n]]


def shared_marginal(joint: PmfTable) -> PmfTable:
    """Law of the shared count t = local1 + local2 - total, in ascending t,
    from a joint law keyed (total, local1, local2) such as
    ``insample.prior_joint`` or ``prediction.posterior_joint_new``."""
    total, local1, local2 = joint.keys.T
    t = local1 + local2 - total
    width = int(t.max(initial=0)) + 1
    return PmfTable.from_arrays(np.arange(width), log_sum_exp_by(t, joint.log_mass, width))
