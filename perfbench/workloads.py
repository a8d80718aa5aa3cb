"""Seeded inputs and request streams of the benchmark workloads.

Only numpy's ``default_rng`` is used here; nothing from ``vecfdp`` is
imported, so a change to the package cannot change the inputs.  Draws are
stratified: each block of requests visits every stratum of a size or rate
range once, in seeded order, and the input that sets a request's cost is
balanced within each block.  Runs of different seeds then carry the same
mix of cheap and expensive requests, which keeps run-to-run spread down to
what the machine adds.

A request is a CLI argument list for ``vecfdp.cli.main``.  Each workload
interleaves two request streams and yields (stream name, request); see
NOTES.md for why.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ANTS_CSV = ROOT / "src" / "vecfdp" / "data" / "ants.csv"

#: seed whose request stream is checked against ``reference.json``
DEFAULT_SEED = 0


def _strata(rng, lo: float, hi: float, k: int) -> np.ndarray:
    """k draws, one log-uniform draw in each of k equal log-strata of
    [lo, hi], returned in seeded order."""
    u = (rng.permutation(k) + rng.random(k)) / k
    return np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))


def _params(lam: float, g1: float, g2: float) -> list[str]:
    # repr keeps every digit, so the CLI parses back the drawn float
    return ["--lam", repr(float(lam)), "--gamma1", repr(float(g1)),
            "--gamma2", repr(float(g2))]


def _gammas(rng, size) -> np.ndarray:
    return np.exp(rng.uniform(np.log(0.3), np.log(3.0), size=size))


def write_table(path: Path, counts1, counts2) -> None:
    """Write a species,count_1,count_2 CSV, dropping species absent from
    both groups."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["species", "count_1", "count_2"])
        for i, (c1, c2) in enumerate(zip(counts1, counts2)):
            if c1 or c2:
                writer.writerow([f"sp{i:02d}", int(c1), int(c2)])


def ants_futures(rng):
    """predict on the ants table with fitted parameters, m1 and m2 in
    [50, 1000]; every fifth request is a fixed curve request.

    Each block crosses 8 log-strata of m1 with 8 of m2 (64 predicts).  The
    rows of a random 8x8 Latin square split them into units of 8 that each
    cover every stratum of m1 and of m2 once.
    """
    table = str(ANTS_CSV)
    while True:
        a = np.sort(np.rint(_strata(rng, 50, 1000, 8)).astype(int))
        b = np.sort(np.rint(_strata(rng, 50, 1000, 8)).astype(int))
        rows, cols, symbols = (rng.permutation(8) for _ in range(3))
        for row in rows:
            for j, col in enumerate(rng.permutation(cols)):
                m2 = b[symbols[(row + col) % 8]]
                yield ["predict", table, "--m1", str(a[col]), "--m2", str(m2)]
                if j % 4 == 3:
                    yield ["curve", table, "--grid", "200:200:50"]


def replicates(rng):
    """One replicate of experiment 1, then of experiment 2, each with its
    own seed; the harness draws its own population from it."""
    while True:
        for experiment in ("1", "2"):
            s = int(rng.integers(1, 2**31))
            yield ["simulate", "--experiment", experiment,
                   "--replications", "1", "--seed", str(s)]


def extreme_priors(rng):
    """discover and predict on the ants table with pinned lam in [1e3, 3e4].

    A block is 6 (discover, predict) pairs over 12 log-strata of lam: pair
    i takes strata 2i and 2i+1, one each at random, and pairs from the
    lower and upper half of the range alternate.  The series cost grows
    with lam and, for predict, with m1 + m2; m1 + m2 = 7 keeps every
    block's cost alike while the split m1:m2 varies.
    """
    table = str(ANTS_CSV)
    while True:
        lams = np.sort(_strata(rng, 1e3, 3e4, 12)).reshape(6, 2)
        gammas = _gammas(rng, (6, 2, 2))
        m1s = rng.permutation(6) + 1
        order = np.column_stack([rng.permutation(3), 3 + rng.permutation(3)]).ravel()
        for i in order:
            d, p = rng.permutation(2)
            yield ["discover", table, *_params(lams[i, d], *gammas[i, 0])]
            yield ["predict", table, "--m1", str(m1s[i]), "--m2", str(7 - m1s[i]),
                   *_params(lams[i, p], *gammas[i, 1])]


def small_exact(rng, tables: list[str]):
    """insample then predict (m1 + m2 <= 12) on each small table, with
    fresh pinned parameters per request: lam in [5, 50], gammas in
    [0.3, 3], both log-uniform."""
    while True:
        order = rng.permutation(len(tables))
        totals = 2 + rng.permutation(len(tables)) % 11
        for table, total in zip(order, totals):
            for command in ("insample", "predict"):
                lam = np.exp(rng.uniform(np.log(5.0), np.log(50.0)))
                argv = [command, tables[table], *_params(lam, *_gammas(rng, 2))]
                if command == "predict":
                    m1 = int(rng.integers(1, total))
                    argv += ["--m1", str(m1), "--m2", str(int(total) - m1)]
                yield argv


class Fitted:
    """Fitted parameters: ants futures interleaved with experiment
    replicates, 3 ants requests then 4 replicates, which gives each stream
    about half of the loop time."""

    name = "fitted"
    #: requests after which the pattern of commands repeats
    cycle = 7

    def setup(self, workdir: Path, seed: int) -> None:
        pass

    def warmup(self) -> list[str]:
        # the largest ants future of the range: the per-gamma GFC tables
        # are then built once and only read by the timed requests
        return ["predict", str(ANTS_CSV), "--m1", "1000", "--m2", "1000"]

    def requests(self, seed: int):
        ants = ants_futures(np.random.default_rng([seed, 1]))
        sims = replicates(np.random.default_rng([seed, 2]))
        while True:
            for _ in range(3):
                yield "ants", next(ants)
            for _ in range(4):
                yield "replicates", next(sims)


class Pinned:
    """Pinned parameters: extreme-prior requests on the ants table
    interleaved with exact laws on small tables, 1 extreme-prior request
    then 5 small-table requests, which gives each stream about half of the
    loop time."""

    name = "pinned"
    #: requests after which the pattern of commands repeats: one (discover,
    #: predict) pair and five (insample, predict) pairs
    cycle = 12
    species = 25
    decay = 0.85
    pool = 12

    def setup(self, workdir: Path, seed: int) -> None:
        # Small tables from a 25-species geometric-decay population, the
        # second group's proportions permuted.  Sizes are a fixed grid over
        # [10, 50] with a fixed pairing, because the O(n^3) lattices make
        # the in-sample cost a steep function of (n1, n2); the seed draws
        # the population and the counts.
        rng = np.random.default_rng([seed, 3])
        p1 = self.decay ** np.arange(self.species)
        p1 = p1 / p1.sum()
        p2 = p1[rng.permutation(self.species)]
        grid = np.rint(np.linspace(10, 50, self.pool)).astype(int)
        self.tables = []
        for i in range(self.pool):
            path = workdir / f"small_{i:02d}.csv"
            n2 = grid[(5 * i + 3) % self.pool]
            write_table(path, rng.multinomial(grid[i], p1), rng.multinomial(n2, p2))
            self.tables.append(str(path))

    def warmup(self) -> list[str]:
        return ["discover", str(ANTS_CSV), *_params(1000.0, 1.0, 1.0)]

    def requests(self, seed: int):
        extreme = extreme_priors(np.random.default_rng([seed, 4]))
        small = small_exact(np.random.default_rng([seed, 5]), self.tables)
        while True:
            yield "extreme", next(extreme)
            for _ in range(5):
                yield "small", next(small)


WORKLOADS = {w.name: w for w in (Fitted, Pinned)}
