"""One batch lifecycle behind every front end (Appendix H, steps 2-3).

Every server must run Validate and Aggregate over the same accepted
set.  :class:`BatchLifecycle` is the one place that sequences those
steps for a batch of uploads, over any
:class:`~repro.protocol.fanout.ServerFanout` backend:

    received -> ingested -> round 1 -> round 2 -> decided -> committed

* **received** — one ``receive`` sweep frame-validates each server's
  payloads (packets, wire bytes or sealed boxes); every id that passes
  is pending at its server, so a replay inside the batch is caught.
* **ingested** — positions that every server received survive; the
  rest are released where they were received.  Survivors' shares are
  expanded and decoded into one plane matrix per server.
* **round 1 / round 2** — the two SNIP broadcasts, in plane form.
* **decided** — ``decide_batch`` gives one decision per survivor.
* **committed** — the ``accumulate`` sweep folds accepted rows into
  every server's accumulator and writes every survivor's id to the
  replay cache.

Each position ends with one :class:`Outcome`, under one failure policy:

``REJECTED``
    Some server refused the upload at receive (bad framing, wrong
    length, replay, bad seal), or the SNIP decided against it.  The
    rest of the batch is unaffected.
``ABANDONED``
    A fault (a crashed worker, a raising op) struck before the commit.
    No decision was made: every server releases the batch's ids, which
    never reach the replay cache, so an honest retry is accepted.  The
    socket transport answers ``BUSY``; the bool APIs return ``False``.
``ACCEPTED``
    Committed at every server.

A fault inside ``accumulate`` cannot be isolated to its batch: servers
that already committed cannot roll back, so the server set may have
diverged.  The lifecycle releases what it can and re-raises; every
front end treats that as fatal.

Front ends are thin adapters.  The asyncio pipeline overlaps batches by
calling the two halves, :meth:`BatchLifecycle.admit` (receive and
ingest) and :meth:`BatchLifecycle.decide` (the rounds and the commit),
from different stages; the socket transport and the synchronous
deliveries (:func:`run_batch`, no event loop) run a batch whole.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Any, Sequence, cast

from repro.protocol.fanout import PAYLOAD_KINDS, DirectFanout, ServerFanout
from repro.protocol.server import PrioServer

__all__ = ["Admission", "BatchLifecycle", "Outcome", "run_batch"]

_log = logging.getLogger(__name__)


class Outcome(enum.Enum):
    """How one upload of a batch ended."""

    ACCEPTED = "accepted"
    REJECTED = "rejected"
    ABANDONED = "abandoned"


@dataclass
class Admission:
    """A batch after the admit half: received and ingested."""

    batch_id: int
    #: per position: the outcome if already settled, else ``None``
    outcomes: "list[Outcome | None]"
    #: positions waiting for the decide half, in stream order
    survivors: "list[int]"


class BatchLifecycle:
    """Runs batches of uploads through a server set, one outcome each.

    ``servers`` is the driver-side server list the ``fanout`` was
    resolved over.  Uploads hold one payload per *protocol* server
    index, so a shuffled server list still routes every share to the
    server it was addressed to.
    """

    def __init__(
        self, servers: "list[PrioServer]", fanout: ServerFanout
    ) -> None:
        self.servers = servers
        self.fanout = fanout
        self._next_batch_id = 0

    async def run(
        self, uploads: "Sequence[Sequence[Any]]", kind: str
    ) -> "list[Outcome]":
        """One batch start to finish."""
        return await self.decide(await self.admit(uploads, kind))

    async def admit(
        self, uploads: "Sequence[Sequence[Any]]", kind: str
    ) -> Admission:
        """Receive and ingest one batch; ``kind`` names the payload form
        (``"packet"``, ``"wire"`` or ``"sealed"``)."""
        if kind not in PAYLOAD_KINDS:
            raise ValueError(f"unknown payload kind: {kind!r}")
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        outcomes: "list[Outcome | None]" = [None] * len(uploads)
        try:
            received = await self.fanout.sweep("receive", [
                (batch_id, [upload[index] for upload in uploads], kind)
                for index in (server.server_index for server in self.servers)
            ])
            survivors: "list[int]" = []
            for pos in range(len(uploads)):
                if any(verdicts[pos] is not None for verdicts in received):
                    outcomes[pos] = Outcome.REJECTED
                else:
                    survivors.append(pos)
            await self.fanout.sweep(
                "ingest", [(batch_id, survivors)] * len(self.servers)
            )
        except Exception:  # noqa: BLE001 - the one pre-commit policy
            _log.warning("batch %d abandoned at admit", batch_id,
                         exc_info=True)
            await self._abandon(batch_id)
            return Admission(
                batch_id,
                [outcome or Outcome.ABANDONED for outcome in outcomes],
                [],
            )
        return Admission(batch_id, outcomes, survivors)

    async def decide(self, admission: Admission) -> "list[Outcome]":
        """Both SNIP rounds, the decision and the commit; returns the
        outcome of every position of the admitted batch."""
        outcomes = list(admission.outcomes)
        verdicts = await self._verify(
            admission.batch_id, len(admission.survivors)
        )
        for pos, outcome in zip(admission.survivors, verdicts):
            outcomes[pos] = outcome
        return cast("list[Outcome]", outcomes)

    async def _verify(self, batch_id: int, n: int) -> "list[Outcome]":
        """Outcomes of a batch's ``n`` survivors, in survivor order."""
        if not n:
            return []
        n_servers = len(self.servers)
        try:
            round1 = await self.fanout.sweep(
                "round1", [(batch_id,)] * n_servers
            )
            round2 = await self.fanout.sweep(
                "round2", [(batch_id, round1)] * n_servers
            )
            decisions = self.servers[0].decide_batch(round2)
        except Exception:  # noqa: BLE001 - the one pre-commit policy
            _log.warning("batch %d abandoned before its commit", batch_id,
                         exc_info=True)
            await self._abandon(batch_id)
            return [Outcome.ABANDONED] * n
        try:
            await self.fanout.sweep(
                "accumulate", [(batch_id, decisions)] * n_servers
            )
        except Exception:
            # Fatal: peers that committed cannot roll back.  Release the
            # ids still pending where the commit failed, then re-raise.
            await self._abandon(batch_id)
            raise
        return [
            Outcome.ACCEPTED if accepted else Outcome.REJECTED
            for accepted in decisions
        ]

    async def abandon_open(self) -> None:
        """Release every batch still open at any server (abnormal exit,
        transport drain); best effort — the backend may be gone."""
        try:
            await self.fanout.sweep("abandon_open", [()] * len(self.servers))
        except Exception:  # noqa: BLE001 - cleanup only
            pass

    async def _abandon(self, batch_id: int) -> None:
        try:
            await self.fanout.sweep(
                "abandon", [(batch_id,)] * len(self.servers)
            )
        except Exception:  # noqa: BLE001 - the backend may be gone
            pass


def run_batch(
    servers: "list[PrioServer]",
    uploads: "Sequence[Sequence[Any]]",
    kind: str,
) -> "list[Outcome]":
    """One batch start to finish on the calling thread, no event loop.

    Ops run directly (:class:`~repro.protocol.fanout.DirectFanout`), so
    the lifecycle coroutine never suspends and one ``send(None)``
    drives it to completion.
    """
    coroutine = BatchLifecycle(servers, DirectFanout(servers)).run(
        uploads, kind
    )
    try:
        coroutine.send(None)
    except StopIteration as done:
        return done.value
    coroutine.close()
    raise RuntimeError("batch lifecycle suspended without an event loop")
