"""Species abundance tables for two groups: validated construction, CSV
ingestion, and derived summary statistics.

The on-disk format is a UTF-8 CSV with the exact header
``species,count_1,count_2``; every row carries a unique species label and
two nonnegative integer counts that are not both zero.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np


class IngestError(ValueError):
    """Malformed input data; message carries the offending line number."""


@dataclass(frozen=True)
class AbundanceTable:
    """Per-species counts in two groups plus derived summary statistics."""

    labels: tuple[str, ...]
    counts1: np.ndarray
    counts2: np.ndarray

    def __post_init__(self):
        c1 = np.asarray(self.counts1, dtype=np.int64)
        c2 = np.asarray(self.counts2, dtype=np.int64)
        object.__setattr__(self, "counts1", c1)
        object.__setattr__(self, "counts2", c2)
        if not (len(self.labels) == c1.size == c2.size):
            raise IngestError("labels and count columns must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise IngestError("duplicate species labels")
        if np.any(c1 < 0) or np.any(c2 < 0):
            raise IngestError("counts must be nonnegative")
        if np.any((c1 == 0) & (c2 == 0)):
            raise IngestError("every species must be observed in some group")

    @property
    def n1(self) -> int:
        return int(self.counts1.sum())

    @property
    def n2(self) -> int:
        return int(self.counts2.sum())

    @property
    def r1(self) -> int:
        return int(np.count_nonzero(self.counts1))

    @property
    def r2(self) -> int:
        return int(np.count_nonzero(self.counts2))

    @property
    def r(self) -> int:
        return len(self.labels)

    @property
    def t(self) -> int:
        return int(np.count_nonzero((self.counts1 > 0) & (self.counts2 > 0)))

    @property
    def r1_star(self) -> int:
        return self.r - self.r2

    @property
    def r2_star(self) -> int:
        return self.r - self.r1

    def summary(self) -> dict:
        return {"n1": self.n1, "n2": self.n2, "r1": self.r1, "r2": self.r2,
                "r": self.r, "t": self.t,
                "r1_star": self.r1_star, "r2_star": self.r2_star}


def from_counts(labels, counts1, counts2, *, drop_empty: bool = False) -> AbundanceTable:
    """Build a table from parallel arrays; optionally drop all-zero rows
    (useful when the arrays span a whole synthetic population)."""
    c1 = np.asarray(counts1, dtype=np.int64)
    c2 = np.asarray(counts2, dtype=np.int64)
    labels = tuple(labels)
    if drop_empty:
        keep = (c1 > 0) | (c2 > 0)
        labels = tuple(lab for lab, k in zip(labels, keep) if k)
        c1, c2 = c1[keep], c2[keep]
    return AbundanceTable(labels=labels, counts1=c1, counts2=c2)


EXPECTED_HEADER = ["species", "count_1", "count_2"]


def ingest(path) -> AbundanceTable:
    """Read and validate a three-column abundance CSV."""
    path = Path(path)
    if not path.exists():
        raise IngestError(f"no such file: {path}")
    labels: list[str] = []
    counts1: list[int] = []
    counts2: list[int] = []
    seen: set[str] = set()
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file") from None
        if [h.strip() for h in header] != EXPECTED_HEADER:
            raise IngestError(
                f"{path}:1: header must be {','.join(EXPECTED_HEADER)!r}, "
                f"got {','.join(header)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise IngestError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            label = row[0].strip()
            if not label:
                raise IngestError(f"{path}:{lineno}: empty species label")
            if label in seen:
                raise IngestError(f"{path}:{lineno}: duplicate species {label!r}")
            seen.add(label)
            values = []
            for col, cell in zip(("count_1", "count_2"), row[1:]):
                try:
                    value = int(cell.strip())
                except ValueError:
                    raise IngestError(
                        f"{path}:{lineno}: {col} must be an integer, got {cell!r}"
                    ) from None
                if value < 0:
                    raise IngestError(f"{path}:{lineno}: {col} must be >= 0")
                values.append(value)
            if values[0] == 0 and values[1] == 0:
                raise IngestError(
                    f"{path}:{lineno}: species {label!r} has zero count in both groups")
            labels.append(label)
            counts1.append(values[0])
            counts2.append(values[1])
    if not labels:
        raise IngestError(f"{path}: no data rows")
    return AbundanceTable(labels=tuple(labels),
                          counts1=np.array(counts1, dtype=np.int64),
                          counts2=np.array(counts2, dtype=np.int64))


def ants_csv_path() -> Path:
    """Path of the bundled two-park ant survey table (synthetic counts that
    reproduce the published site summaries)."""
    return Path(resources.files("vecfdp").joinpath("data/ants.csv"))


def ants_table() -> AbundanceTable:
    return ingest(ants_csv_path())
