"""Asyncio socket front end for the batched Prio verification core.

:class:`PrioTransportServer` hosts a full logical server set behind
real TCP and/or unix-domain listeners.  Clients stream length-framed
uploads (:mod:`repro.transport.framing`); the front end groups them
into verification batches and runs each through the same batch
lifecycle (:class:`~repro.protocol.lifecycle.BatchLifecycle`) the
in-memory pipeline uses — receive straight from wire bytes, plane
ingest, the two SNIP rounds, accumulate — so decisions are
bit-identical to :func:`~repro.protocol.pipeline.run_pipelined` on the
same uploads.
Packet bytes go from the socket buffer to the fused batch decode with
no intermediate per-packet materialization: frames split into byte
slices, headers parse as fixed-offset views, and every body joins one
vectorized sweep per server per batch.

The production ingredients a real front end forces:

**Watermark backpressure.**  ``pending`` counts submissions accepted
off the wire but not yet decided.  At ``high_watermark`` every
connection's reads pause (``transport.pause_reading``); kernel socket
buffers then fill and TCP flow control pushes back to the clients.
Reads resume once verification drains ``pending`` to
``low_watermark``.  Server memory is bounded by the watermark, not by
client send rate.

**Load shedding.**  Frames that arrive while ``pending`` is at
``shed_limit`` (buffered bytes parsed after the pause, connections
racing the watermark) are answered ``BUSY`` without touching the
verification core — the submission was not processed and may be
retried.

**Per-connection rate limiting.**  A token bucket per connection
(``rate_limit`` frames/s, burst ``rate_burst``); a connection that
exceeds it has its reads paused until its bucket refills — the flood
slows down, honest connections are untouched.

**Poison-only-the-offender.**  A malformed or oversized frame
(unparseable structure, length prefix above ``max_frame``, packet too
short to carry a submission id, wrong packet count) closes that
connection alone.  Protocol-level badness inside a well-formed frame
(bad share ranges, replays, wrong lengths) stays per submission:
the offending upload is ``REJECTED``, batchmates are unaffected.

**One failure policy.**  Each upload's status is its lifecycle
outcome: ``ACCEPTED``, ``REJECTED``, or ``BUSY`` for an *abandoned*
batch — a fault (a crashed worker, a raising op) before the accumulate
commit releases the batch's ids, so the retry is processed afresh.  A
fault inside the commit is fatal: some servers may have folded the
batch into their accumulators, so the batch is answered ``REJECTED``
(a retry would be a replay there), nothing more is verified, every
later upload is answered ``BUSY``, and :meth:`stop` re-raises the
fault after draining.

**Graceful drain.**  :meth:`stop` closes the listeners, flushes the
partial batch, waits for every in-flight batch to be *decided*,
answers stragglers ``BUSY``, releases any still-open ids (nothing is
ever stranded in ``_pending_ids``), merges worker state back
(process fan-out), and closes the connections.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.protocol.fanout import ServerFanout, resolve_fanout
from repro.protocol.lifecycle import BatchLifecycle, Outcome
from repro.protocol.server import PrioServer
from repro.transport.framing import (
    DEFAULT_MAX_FRAME,
    FrameAssembler,
    FrameError,
    Status,
    encode_response,
    is_sealed_packet,
    packet_submission_id,
    split_upload,
)

__all__ = ["PrioTransportServer", "TransportConfig", "TransportStats"]


@dataclass
class TransportConfig:
    """Tuning knobs for one :class:`PrioTransportServer`.

    Defaults derive from ``batch_size``: pause reads at four batches
    of undecided submissions, resume at two, shed at eight.
    """

    batch_size: int = 64
    #: seconds a partial batch may wait for more frames before it
    #: flushes to verification anyway
    linger_s: float = 0.005
    max_frame: int = DEFAULT_MAX_FRAME
    high_watermark: "int | None" = None
    low_watermark: "int | None" = None
    shed_limit: "int | None" = None
    #: per-connection sustained frames/second (None = unlimited)
    rate_limit: "float | None" = None
    #: per-connection burst allowance in frames
    rate_burst: "int | None" = None
    #: execution backend: "inline" | "thread" | "process" | "auto"
    #: (optionally with a ":K" shard suffix, e.g. "process:4"), a
    #: ready ServerFanout, or None for the host-sized default
    executor: object = None
    #: shard each logical server across this many workers of the
    #: selected executor kind (equivalent to the ":K" suffix)
    n_shards: int = 1

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.high_watermark is None:
            self.high_watermark = 4 * self.batch_size
        if self.low_watermark is None:
            self.low_watermark = max(1, self.high_watermark // 2)
        if self.shed_limit is None:
            self.shed_limit = 2 * self.high_watermark
        if not (
            0 < self.low_watermark
            <= self.high_watermark
            <= self.shed_limit
        ):
            raise ValueError(
                "need 0 < low_watermark <= high_watermark <= shed_limit"
            )
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ValueError("rate_limit must be positive")
        if self.rate_burst is None:
            self.rate_burst = max(8, self.batch_size)


@dataclass
class TransportStats:
    """Counters one server keeps across its whole serve lifetime."""

    n_connections: int = 0
    n_poisoned: int = 0
    n_submissions: int = 0
    n_accepted: int = 0
    n_rejected: int = 0
    n_shed: int = 0
    n_rate_limited: int = 0
    n_batches: int = 0
    #: submissions abandoned by a backend/worker crash (answered BUSY)
    n_worker_failures: int = 0
    #: watermark pause events (reads paused on every connection)
    n_pauses: int = 0
    #: highest undecided-submission count observed
    max_pending: int = 0
    executor: str = ""


#: the response status of each lifecycle outcome
_STATUS = {
    Outcome.ACCEPTED: Status.ACCEPTED,
    Outcome.REJECTED: Status.REJECTED,
    Outcome.ABANDONED: Status.BUSY,
}


class _TokenBucket:
    """Frames-per-second policing with pushback (may run negative)."""

    __slots__ = ("rate", "burst", "tokens", "last")

    def __init__(self, rate: float, burst: int, now: float) -> None:
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last = now

    def consume(self, now: float) -> float:
        """Take one token; returns seconds to pause (0 when allowed)."""
        self.tokens = min(
            self.tokens + (now - self.last) * self.rate, self.burst
        )
        self.last = now
        self.tokens -= 1.0
        if self.tokens >= 0.0:
            return 0.0
        return -self.tokens / self.rate


@dataclass
class _PendingUpload:
    """One framed submission waiting for its verification batch."""

    __slots__ = ("conn", "submission_id", "payloads", "sealed")
    conn: "_UploadConnection"
    submission_id: bytes
    payloads: "list[bytes]"
    #: packets are box-sealed (envelope-prefixed); decides which
    #: receive op the verification batch runs
    sealed: bool

    def answer(self, status: Status) -> None:
        self.conn.send_response(self.submission_id, status)


class _UploadConnection(asyncio.Protocol):
    """One client connection: deframe, rate-limit, hand off uploads."""

    def __init__(self, server: "PrioTransportServer") -> None:
        self.server = server
        self.transport: "asyncio.Transport | None" = None
        self.assembler = FrameAssembler(server.config.max_frame)
        self.bucket: "_TokenBucket | None" = None
        self.closed = False
        #: reads paused for the global watermark
        self.flow_paused = False
        #: reads paused by this connection's own rate limiter
        self.rate_paused = False
        self._rate_resume: "asyncio.TimerHandle | None" = None

    # -- asyncio.Protocol ------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        server = self.server
        config = server.config
        if config.rate_limit is not None:
            self.bucket = _TokenBucket(
                config.rate_limit, config.rate_burst,
                server._loop.time(),
            )
        server._register(self)

    def connection_lost(self, exc) -> None:  # noqa: ARG002
        self.closed = True
        if self._rate_resume is not None:
            self._rate_resume.cancel()
            self._rate_resume = None
        self.server._unregister(self)

    def data_received(self, data: bytes) -> None:
        try:
            frames = self.assembler.feed(data)
        except FrameError:
            self.poison()
            return
        for payload in frames:
            if not self.server._handle_upload(self, payload):
                return  # poisoned mid-iteration; drop the rest
        if self.bucket is not None and frames:
            now = self.server._loop.time()
            delay = 0.0
            for _ in frames:
                delay = self.bucket.consume(now)
            if delay > 0.0 and not self.rate_paused and not self.closed:
                self.rate_paused = True
                self.server.stats.n_rate_limited += 1
                self._apply_flow()
                self._rate_resume = self.server._loop.call_later(
                    delay, self._rate_refill
                )

    def eof_received(self) -> bool:
        return False  # close the transport

    # -- flow control ----------------------------------------------------

    def _rate_refill(self) -> None:
        self._rate_resume = None
        self.rate_paused = False
        self._apply_flow()

    def set_flow_paused(self, paused: bool) -> None:
        self.flow_paused = paused
        self._apply_flow()

    def _apply_flow(self) -> None:
        if self.closed or self.transport is None:
            return
        if self.flow_paused or self.rate_paused:
            self.transport.pause_reading()
        else:
            self.transport.resume_reading()

    # -- output ----------------------------------------------------------

    def send_response(self, submission_id: bytes, status: Status) -> None:
        if self.closed or self.transport is None:
            return
        self.transport.write(encode_response(submission_id, status))

    def poison(self) -> None:
        """Close this connection for a frame-level violation."""
        if self.closed:
            return
        self.closed = True
        self.server.stats.n_poisoned += 1
        if self.transport is not None:
            self.transport.close()


class PrioTransportServer:
    """Socket front end over one logical Prio server set.

    Typical use::

        server = PrioTransportServer(deployment.servers,
                                     TransportConfig(batch_size=64))
        await server.start()
        host, port = await server.serve_tcp("127.0.0.1", 0)
        ...                      # clients connect and stream uploads
        await server.stop()      # drain: every in-flight id decided

    The same instance may serve TCP and unix listeners at once; all
    feed one batcher and one verification worker.
    """

    def __init__(
        self,
        servers: "list[PrioServer]",
        config: "TransportConfig | None" = None,
    ) -> None:
        self.servers = servers
        self.config = config or TransportConfig()
        self.stats = TransportStats()
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._fanout: "ServerFanout | None" = None
        self._owned_fanout = False
        self._lifecycle: "BatchLifecycle | None" = None
        #: the accumulate fault that stopped verification, re-raised
        #: by :meth:`stop`
        self._fatal: "Exception | None" = None
        self._listeners: "list[asyncio.AbstractServer]" = []
        self._connections: "set[_UploadConnection]" = set()
        self._batch: "list[_PendingUpload]" = []
        self._batch_q: "asyncio.Queue | None" = None
        self._linger: "asyncio.TimerHandle | None" = None
        self._worker: "asyncio.Task | None" = None
        self._pending = 0
        self._paused = False
        self._draining = False
        self._started = False
        #: test/ops hook: clear to stall the verify worker mid-stream
        self._verify_gate: "asyncio.Event | None" = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Resolve the execution backend and start the verify worker."""
        if self._started:
            raise RuntimeError("transport server already started")
        self._loop = asyncio.get_running_loop()
        # Bounded by the shed gate's invariant: every queued batch holds
        # at least one pending upload and _handle_upload sheds once
        # _pending reaches shed_limit, so depth can never legitimately
        # reach shed_limit — QueueFull here means broken accounting, not
        # load, and beats growing without bound.
        self._batch_q = asyncio.Queue(maxsize=self.config.shed_limit)
        self._verify_gate = asyncio.Event()
        self._verify_gate.set()
        self._fanout, self._owned_fanout = resolve_fanout(
            self.servers, self.config.executor, self.config.batch_size,
            self.config.n_shards,
        )
        self.stats.executor = self._fanout.kind
        self._lifecycle = BatchLifecycle(self.servers, self._fanout)
        if not self._owned_fanout:
            # A reused backend may hold a previous run's worker state;
            # re-sync it from the driver-side servers (the same rule
            # the in-memory pipeline applies).
            self._fanout.begin_run()
        self._started = True
        self._draining = False
        self._worker = asyncio.create_task(self._verify_worker())

    async def serve_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> "tuple[str, int]":
        """Listen on TCP; returns the bound ``(host, port)``."""
        self._require_started()
        listener = await self._loop.create_server(
            lambda: _UploadConnection(self), host, port
        )
        self._listeners.append(listener)
        sock = listener.sockets[0].getsockname()
        return sock[0], sock[1]

    async def serve_unix(self, path: str) -> str:
        """Listen on a unix-domain socket; returns the bound path."""
        self._require_started()
        listener = await self._loop.create_unix_server(
            lambda: _UploadConnection(self), path
        )
        self._listeners.append(listener)
        return path

    def _require_started(self) -> None:
        if not self._started:
            raise RuntimeError("call start() before serving")

    async def stop(self) -> None:
        """Graceful drain: decide everything in flight, then tear down.

        Listeners close first (no new connections), frames still
        arriving on live connections answer ``BUSY``, the partial
        batch flushes, and the call returns only after every queued
        batch has been decided and responded to.  No submission id is
        left pending at any logical server.  If an accumulate fault
        stopped verification, it is re-raised once the drain is done.
        """
        if not self._started:
            return
        self._draining = True
        # A held verification gate must not hang the drain: in-flight
        # batches get decided, not stranded.
        self._verify_gate.set()
        for listener in self._listeners:
            listener.close()
        for listener in self._listeners:
            await listener.wait_closed()
        self._listeners.clear()
        if self._linger is not None:
            self._linger.cancel()
            self._linger = None
        self._flush_batch()
        await self._batch_q.join()
        self._worker.cancel()
        try:
            await self._worker
        except asyncio.CancelledError:
            pass
        self._worker = None
        # Safety net: a crashed batch may have left ids pending at a
        # subset of servers; an honest retry must not look like a
        # replay, and plane matrices must not outlive the serve.
        await self._lifecycle.abandon_open()
        try:
            self._fanout.end_run()
        finally:
            if self._owned_fanout:
                self._fanout.close()
            self._fanout = self._lifecycle = None
        for conn in list(self._connections):
            if conn.transport is not None:
                conn.transport.close()
        self._started = False
        fatal, self._fatal = self._fatal, None
        if fatal is not None:
            raise fatal

    async def __aenter__(self) -> "PrioTransportServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- test/ops hooks --------------------------------------------------

    def hold_verification(self) -> None:
        """Stall the verify worker before its next batch (watermark
        drills, chaos testing).  Reads pause once ``pending`` crosses
        the high watermark; nothing is lost."""
        self._require_started()
        self._verify_gate.clear()

    def release_verification(self) -> None:
        self._require_started()
        self._verify_gate.set()

    @property
    def pending_submissions(self) -> int:
        """Submissions accepted off the wire but not yet decided."""
        return self._pending

    # -- connection registry --------------------------------------------

    def _register(self, conn: _UploadConnection) -> None:
        self.stats.n_connections += 1
        self._connections.add(conn)
        if self._paused:
            conn.set_flow_paused(True)

    def _unregister(self, conn: _UploadConnection) -> None:
        self._connections.discard(conn)

    # -- upload intake ---------------------------------------------------

    def _handle_upload(self, conn: _UploadConnection, payload: bytes) -> bool:
        """One complete upload frame; returns False when ``conn`` was
        poisoned (the caller drops the rest of its parsed frames)."""
        try:
            payloads = split_upload(payload)
            if len(payloads) != len(self.servers):
                raise FrameError(
                    f"upload carries {len(payloads)} packets for "
                    f"{len(self.servers)} servers"
                )
            # raw or sealed: the id sits at a fixed cleartext offset
            # either way, so the response frame can echo it
            submission_id = packet_submission_id(payloads[0])
        except FrameError:
            conn.poison()
            return False
        sealed = is_sealed_packet(payloads[0])
        self.stats.n_submissions += 1
        if (
            self._draining
            or self._fatal is not None
            or self._pending >= self.config.shed_limit
        ):
            self.stats.n_shed += 1
            conn.send_response(submission_id, Status.BUSY)
            return True
        if self._batch and self._batch[0].sealed != sealed:
            # A verification batch runs one receive op; keep batches
            # homogeneous by flushing when sealed-ness flips.
            self._flush_batch()
        self._batch.append(
            _PendingUpload(conn, submission_id, payloads, sealed)
        )
        self._pending += 1
        if self._pending > self.stats.max_pending:
            self.stats.max_pending = self._pending
        if self._pending >= self.config.high_watermark and not self._paused:
            self._paused = True
            self.stats.n_pauses += 1
            for other in self._connections:
                other.set_flow_paused(True)
        if len(self._batch) >= self.config.batch_size:
            self._flush_batch()
        elif self._linger is None:
            self._linger = self._loop.call_later(
                self.config.linger_s, self._linger_flush
            )
        return True

    def _linger_flush(self) -> None:
        self._linger = None
        self._flush_batch()

    def _flush_batch(self) -> None:
        if self._linger is not None:
            self._linger.cancel()
            self._linger = None
        if not self._batch:
            return
        self._batch_q.put_nowait(self._batch)
        self._batch = []

    def _settle(self, n: int) -> None:
        """Account ``n`` decided submissions; resume reads below low."""
        self._pending -= n
        if self._paused and self._pending <= self.config.low_watermark:
            self._paused = False
            for conn in self._connections:
                conn.set_flow_paused(False)

    # -- verification worker --------------------------------------------

    async def _verify_worker(self) -> None:
        while True:
            batch = await self._batch_q.get()
            try:
                await self._verify_gate.wait()
                if self._fatal is None:
                    await self._process_batch(batch)
                else:
                    # Verification stopped: refuse without touching
                    # the core, like any other shed upload.
                    self.stats.n_shed += len(batch)
                    for upload in batch:
                        upload.answer(Status.BUSY)
                    self._settle(len(batch))
            finally:
                self._batch_q.task_done()

    def _answer(self, settled) -> None:
        """Respond to ``(upload, outcome)`` pairs and settle them."""
        n = 0
        for upload, outcome in settled:
            if outcome is None:
                continue  # still waiting for the decide half
            if outcome is Outcome.ACCEPTED:
                self.stats.n_accepted += 1
            elif outcome is Outcome.REJECTED:
                self.stats.n_rejected += 1
            else:
                self.stats.n_worker_failures += 1
            upload.answer(_STATUS[outcome])
            n += 1
        self._settle(n)

    async def _process_batch(self, batch: "list[_PendingUpload]") -> None:
        self.stats.n_batches += 1
        admission = await self._lifecycle.admit(
            [upload.payloads for upload in batch],
            "sealed" if batch[0].sealed else "wire",
        )
        # Refused and abandoned uploads are answered before the rounds.
        self._answer(zip(batch, admission.outcomes))
        try:
            outcomes = await self._lifecycle.decide(admission)
        except Exception as exc:  # noqa: BLE001 - fatal, see stop()
            # Accumulate fault: some servers committed this batch, so a
            # retry would be a replay there.
            self._fatal = exc
            outcomes = [Outcome.REJECTED] * len(batch)
        self._answer((batch[p], outcomes[p]) for p in admission.survivors)
