"""Run statistics records and their published JSON schema."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Sequence


def lower_median(sizes: Sequence[int]) -> int:
    """Median without averaging: for even counts, the lower middle value.

    The median of an empty multiset is defined as 0.
    """
    if not sizes:
        return 0
    ordered = sorted(sizes)
    return ordered[(len(ordered) - 1) // 2]


@dataclass
class RunStats:
    instance: str
    strategy: str
    wall_time_ms: int
    n_lemmas: int
    median_lemma_size: int
    n_assignments: int
    n_theory_checks: int
    n_partitions: int
    workers: int
    truncated: bool

    FIELDS = (
        "instance",
        "strategy",
        "wall_time_ms",
        "n_lemmas",
        "median_lemma_size",
        "n_assignments",
        "n_theory_checks",
        "n_partitions",
        "workers",
        "truncated",
    )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def load_schema() -> dict:
    with resources.files("tlemma").joinpath("stats_schema.json").open("rb") as fh:
        return json.load(fh)


def write_jsonl(path, rows: Iterable[RunStats]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(row.to_json() + "\n")


def write_csv(path, rows: Iterable[RunStats]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(RunStats.FIELDS))
        writer.writeheader()
        for row in rows:
            writer.writerow(row.to_dict())
