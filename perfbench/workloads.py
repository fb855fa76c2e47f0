"""The benchmark's workloads: what each one sends and why.

Every workload runs F87 with two logical servers on the numpy backend.
Sizes are whole batches and scale with ``--seconds``; the rates below
were sized on a 2-core host so that a run lasts about ``--seconds``
seconds there.  See README.md for why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.afe.sums import IntegerSumAfe
from repro.field.parameters import FIELD87
from repro.workloads import scenario_by_name

N_SERVERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    make_afe: Callable[[], Any]
    #: rng -> one client value
    make_value: Callable[[Any], Any]
    #: values -> the plain statistic ``afe.decode`` must reproduce
    reference: Callable[[list], Any]
    batch_size: int
    encrypt: bool
    #: one upload in this many is corrupted before upload
    corrupt_every: int
    #: one upload in this many is a replay of an earlier one (0: none)
    replay_every: int
    #: open-loop send rate in uploads/s; None runs a closed loop
    rate: "float | None"
    #: distinct uploads prepared per second of ``--seconds`` (closed loop)
    uploads_per_second: float = 0.0

    #: deployments set up per run (the first ``passes`` of them serve)
    setups: int = 5
    #: extra batches prepared before each set-up, for workloads whose
    #: pool is prepared too quickly to sample the host's speed changes
    probe_batches: int = 0
    #: single-value prepares timed before each set-up; cheap prepares
    #: need many for a steady 90th percentile
    singles_per_setup: int = 20

    def sizes(self, seconds: float) -> "tuple[int, int, int, int]":
        """``(pool uploads, single-value prepares, passes, set-ups)``.

        A pass sets up a fresh deployment and serves the whole pool to
        it, so a run serves more uploads than the client can prepare in
        its share of the time, and reports medians over passes.
        """
        if seconds < 5:
            return self._pool(seconds), 10, 2, 2
        setups = max(5, self.setups)
        singles = max(100, self.singles_per_setup * setups)
        return self._pool(seconds), singles, 5, setups

    def _pool(self, seconds: float) -> int:
        if self.rate is not None:
            wanted = self.rate * seconds * 0.75 / 5
        else:
            wanted = self.uploads_per_second * seconds
        b = self.batch_size
        return max(2 * b, int(round(wanted / b)) * b)


def _sum_afe():
    return IntegerSumAfe(FIELD87, 8)


def _scenario_afe(name):
    return lambda: scenario_by_name(name).afe


def _cell_value(rng):
    return [rng.randrange(16) for _ in range(217)]


def _survey_value(rng):
    return [rng.randrange(4) for _ in range(21)]


def _column_sums(values):
    return [sum(column) for column in zip(*values)]


def _histograms(values):
    counts = [[0] * 4 for _ in range(21)]
    for answers in values:
        for question, answer in enumerate(answers):
            counts[question][answer] += 1
    return counts


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sum-bulk",
            make_afe=_sum_afe,
            make_value=lambda rng: rng.randrange(256),
            reference=sum,
            batch_size=256,
            encrypt=False,
            corrupt_every=64,
            replay_every=64,
            rate=None,
            uploads_per_second=1350,
            setups=15,
            probe_batches=1,
            singles_per_setup=200,
        ),
        Workload(
            name="sum-trickle",
            make_afe=_sum_afe,
            make_value=lambda rng: rng.randrange(256),
            reference=sum,
            batch_size=64,
            encrypt=False,
            corrupt_every=64,
            replay_every=64,
            rate=200.0,
            setups=15,
            probe_batches=4,
            singles_per_setup=200,
        ),
        Workload(
            name="cell-seattle",
            make_afe=_scenario_afe("seattle"),
            make_value=_cell_value,
            reference=_column_sums,
            batch_size=64,
            encrypt=False,
            corrupt_every=16,
            replay_every=0,
            rate=None,
            uploads_per_second=38,
            setups=12,
            singles_per_setup=30,
        ),
        Workload(
            name="survey-sealed",
            make_afe=_scenario_afe("beck-21"),
            make_value=_survey_value,
            reference=_histograms,
            batch_size=64,
            encrypt=True,
            corrupt_every=8,
            replay_every=8,
            rate=None,
            uploads_per_second=13,
            setups=12,
            probe_batches=1,
            singles_per_setup=24,
        ),
    )
}
