"""Upload schedules and the closed- and open-loop senders.

A schedule is a list of :class:`Item`: one framed upload each, with the
decision the servers must return for it.  Honest uploads must be
accepted; corrupted uploads and replays must be rejected.  A replay
resends an earlier frame byte for byte, and is only sent once the
original's status has come back: the transport client keys in-flight
requests by submission id, so a replay in flight beside its original
would take over the original's pending reply.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from collections import deque

from repro.protocol.wire import PacketKind, seal_packet
from repro.transport import Status

#: seconds one upload may wait for its status before it counts as failed
REQUEST_TIMEOUT_S = 30.0
#: a BUSY answer is retried this many times before it counts as failed
BUSY_RETRIES = 3


@dataclasses.dataclass
class Item:
    frame: bytes
    submission_id: bytes
    expected: Status
    #: the honest value this upload adds to the aggregate (None if it
    #: must be rejected)
    value: object = None
    #: schedule index of the upload this one replays
    replay_of: "int | None" = None


def corrupt(client, submission, rng, sealed: bool) -> None:
    """Add one to a random element of the explicit share (in place).

    The upload stays well formed, so it reaches the SNIP rounds and is
    rejected there.  A sealed upload is corrupted before sealing and
    its explicit packet sealed again.
    """
    field = client.field
    size = field.encoded_size
    for index, packet in enumerate(submission.packets):
        if packet.kind is not PacketKind.EXPLICIT:
            continue
        at = rng.randrange(packet.n_elements) * size
        element = field.decode_element(packet.body[at:at + size])
        body = (
            packet.body[:at]
            + field.encode_element(element + 1)
            + packet.body[at + size:]
        )
        packet = dataclasses.replace(packet, body=body)
        submission.packets[index] = packet
        if sealed:
            submission.sealed_packets[index] = seal_packet(
                client.server_box_keys[index], packet, rng
            )
        return
    raise ValueError("upload has no explicit packet to corrupt")


def add_replays(items: "list[Item]", every: int, lag: int, rng):
    """Add one replay per ``every`` uploads; returns the new schedule.

    Each replay copies a different original and goes at least ``lag``
    uploads after it, so that the original has usually been decided
    and the sender does not stall waiting for it.  Originals are
    distinct because two replays of one id in flight together would
    collide in the client just as a replay and its original would.
    """
    n = len(items)
    if not every or n < 2:
        return items
    candidates = range(max(1, n - lag))
    originals = rng.sample(candidates, min(n // every, len(candidates)))
    # insertion point: the replay goes right before items[at]
    slots = sorted(
        (rng.randrange(min(o + lag, n - 1), n) + 1, o) for o in originals
    )
    out: "list[Item]" = []
    final_index: "dict[int, int]" = {}
    next_slot = 0
    for position, item in enumerate(items + [None]):
        while next_slot < len(slots) and slots[next_slot][0] == position:
            original = slots[next_slot][1]
            out.append(Item(
                frame=items[original].frame,
                submission_id=items[original].submission_id,
                expected=Status.REJECTED,
                replay_of=final_index[original],
            ))
            next_slot += 1
        if item is not None:
            final_index[position] = len(out)
            out.append(item)
    return out


class Sender:
    """Sends schedule items over a set of connections and records, per
    item, its start time, its end time and its final status."""

    def __init__(self, items: "list[Item]") -> None:
        n = len(items)
        self.items = items
        self.status: "list[Status | None]" = [None] * n
        self.start = [0.0] * n
        self.end = [0.0] * n
        self.late: "list[float]" = []
        self._final: "dict[int, asyncio.Future]" = {}
        self._retries: "dict[int, int]" = {}
        self._tasks: "set[asyncio.Task]" = set()

    async def _dispatch(self, conn, i: int) -> None:
        item = self.items[i]
        future = await conn.send_frame(item.frame, item.submission_id)
        future.add_done_callback(lambda f: self._on_status(conn, i, f))

    def _on_status(self, conn, i: int, future) -> None:
        status = None
        if not future.cancelled() and future.exception() is None:
            status = future.result()
        if status is Status.BUSY and self._retries.get(i, 0) < BUSY_RETRIES:
            self._retries[i] = self._retries.get(i, 0) + 1
            task = asyncio.ensure_future(self._dispatch(conn, i))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
            return
        self.end[i] = time.perf_counter()
        self.status[i] = status
        final = self._final[i]
        if not final.done():
            final.set_result(status)

    def _future(self, i: int) -> "asyncio.Future":
        # Made on first use, so a replay can wait for an original that
        # the other connection has taken but not sent yet.
        final = self._final.get(i)
        if final is None:
            final = asyncio.get_running_loop().create_future()
            self._final[i] = final
        return final

    async def send(self, conn, i: int, start: "float | None" = None):
        """Send item ``i``, timed from ``start`` (default: now)."""
        item = self.items[i]
        if item.replay_of is not None:
            await self.wait(item.replay_of)
        self._future(i)
        now = time.perf_counter()
        self.start[i] = now if start is None else start
        if start is not None:
            self.late.append(now - start)
        await self._dispatch(conn, i)

    async def wait(self, i: int) -> None:
        """Wait for item ``i``'s final status, at most the timeout."""
        final = self._future(i)
        if not final.done():
            await asyncio.wait({final}, timeout=REQUEST_TIMEOUT_S)

    async def closed_loop(self, conns, indices, window: int) -> None:
        """Each connection keeps up to ``window`` uploads in flight."""
        todo = iter(indices)

        async def pump(conn):
            inflight: "deque[int]" = deque()
            for i in todo:
                while len(inflight) >= window:
                    await self.wait(inflight.popleft())
                await self.send(conn, i)
                inflight.append(i)
            while inflight:
                await self.wait(inflight.popleft())

        await asyncio.gather(*(pump(conn) for conn in conns))

    async def open_loop(self, conns, indices, rate: float) -> None:
        """Send at ``rate`` uploads/s whatever the replies; each upload
        is timed from the moment it was due."""
        indices = list(indices)
        begin = time.perf_counter() + 0.01
        for n, i in enumerate(indices):
            due = begin + n / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            await self.send(conns[n % len(conns)], i, start=due)
        for i in indices:
            await self.wait(i)
