"""Probability that a majority example is used by at least one chain.

With m minority and M majority examples, each balanced fit keeps a uniform
m-subset of the majority rows, so a fixed majority example survives one
chain with probability m/M and at least one of c independent chains with
probability 1 - (1 - m/M)^c. The Monte-Carlo estimator simulates the
per-chain subset membership directly.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields
from typing import TextIO

from .errors import ConfigError
from .sampling import RngStream


@dataclass(frozen=True)
class ExploitationQuery:
    minority: int
    majority: int
    chains: int = 10
    runs: int = 10_000

    def __post_init__(self) -> None:
        if self.minority <= 0:
            raise ConfigError("minority count must be positive")
        if self.majority < self.minority:
            raise ConfigError("majority count must be >= minority count")
        if self.chains < 1:
            raise ConfigError("need at least one chain")
        if self.runs < 1:
            raise ConfigError("need at least one run")


def exploitation_probability(query: ExploitationQuery) -> float:
    """Closed form: 1 - (1 - m/M)^c."""
    return 1.0 - (1.0 - query.minority / query.majority) ** query.chains


def exploitation_probability_mc(query: ExploitationQuery, rng: RngStream) -> float:
    """Estimate by simulation over `runs` repetitions.

    Per repetition, each chain draws a uniform subset of m of the M majority
    indices without replacement; the repetition succeeds if a designated
    index lands in at least one draw. Membership of a fixed index in a
    uniform m-subset is equivalent to its slot in a uniform permutation
    falling below m, which is what gets sampled.
    """
    gen = rng.generator()
    slots = gen.integers(0, query.majority, size=(query.runs, query.chains))
    hit = (slots < query.minority).any(axis=1)
    return float(hit.mean())


@dataclass(frozen=True)
class SweepRow:
    minority: int
    majority: int
    imbalance_ratio: float
    p_closed: float
    p_mc: float


def sweep(
    m_values: list[int] | range,
    n: int,
    c: int,
    runs: int,
    rng: RngStream,
) -> list[SweepRow]:
    """Evaluate closed form and Monte Carlo over a minority-count range.

    The majority count is n - m for every row, keeping the total fixed.
    """
    rows = []
    for i, m in enumerate(m_values):
        big = n - m
        if big < m:
            raise ConfigError(f"minority {m} exceeds half of n={n}")
        query = ExploitationQuery(minority=m, majority=big, chains=c, runs=runs)
        rows.append(
            SweepRow(
                minority=m,
                majority=big,
                imbalance_ratio=big / m,
                p_closed=exploitation_probability(query),
                p_mc=exploitation_probability_mc(query, rng.child(i)),
            )
        )
    return rows


def sweep_to_csv(rows: list[SweepRow], handle: TextIO) -> None:
    """Write rows to an open handle as CSV, one column per SweepRow field."""
    writer = csv.writer(handle)
    writer.writerow([f.name for f in fields(SweepRow)])
    writer.writerows(astuple(row) for row in rows)
