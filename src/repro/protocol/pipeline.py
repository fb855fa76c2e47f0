"""Asyncio pipeline front end for the batched verification core.

The synchronous :meth:`~repro.protocol.runner.PrioDeployment.deliver_batch`
runs each verification batch start-to-finish before touching the next:
receive/ingest, the two SNIP rounds, accumulate.  This module stages
the same work over bounded :class:`asyncio.Queue` hops —

    submissions -> [batcher] -> [ingest] -> [verify+accumulate]

so expansion/decode of batch ``N+1`` overlaps verification of batch
``N``, and the per-server CPU work inside each stage fans out over an
execution backend (:mod:`repro.protocol.fanout`).  With
:meth:`AsyncPrioPipeline.run_values` the *client* joins the pipeline
as a producer stage —

    values -> [batched client prover] -> [ingest] -> [verify+accumulate]

— each chunk proved, shared, and framed through the plane-resident
batched prover (bit-identical to the scalar client) while the servers
verify the previous chunk, so both halves of the protocol are batched
and overlapped:

``executor="thread"`` (the default)
    A shared thread pool; the hot kernels — SHAKE XOF digests and
    numpy limb matmuls — release the GIL, so multi-core hosts overlap
    servers for the kernel-dominated portions of a batch.

``executor="process"``
    One dedicated worker process per server.  Each server's whole
    state lives in its worker; batches cross the boundary in plane
    form (wire bytes in, ``Round1Batch``/``Round2Batch`` planes
    between rounds).  This removes the GIL from the picture entirely —
    the Python-level glue between kernels parallelizes too — which is
    what breaks the single-host throughput ceiling the thread backend
    hits (see ``benchmarks/bench_fanout.py``).

``executor="inline"``
    Stage work on the calling thread (single-CPU hosts, debugging).

Queue bounds give backpressure: a slow verify stage stalls ingest
instead of buffering unbounded plane matrices.

Semantics are identical across backends and to the synchronous path:
both stages are halves of the one batch lifecycle
(:class:`~repro.protocol.lifecycle.BatchLifecycle` — ``admit`` in the
ingest stage, ``decide`` in the verify stage), so decisions, replay
protection and statistics match ``deliver_batch``, and the equivalence
tests drive every backend and compare.  Failures follow the
lifecycle's one policy: a fault before the commit (a crashed process,
a raising op) abandons that batch alone — its ids are released, its
submissions return ``False`` and count as worker failures, an honest
retry is accepted — and the pipeline keeps draining the stream.  A
fault inside the accumulate commit is fatal: the run stops and
re-raises it.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

from repro.protocol.fanout import ServerFanout, resolve_fanout
from repro.protocol.lifecycle import BatchLifecycle, Outcome
from repro.protocol.server import PrioServer

__all__ = [
    "AsyncPrioPipeline",
    "PipelineStats",
    "run_pipelined",
]

#: sentinel closing each stage's input queue
_DONE = object()


@dataclass
class PipelineStats:
    """Counters the pipeline keeps per run (all per submission)."""

    n_batches: int = 0
    n_receive_failures: int = 0
    #: submissions failed by a worker/backend crash (not a protocol
    #: rejection): the batch was abandoned and the stream continued
    n_worker_failures: int = 0
    #: ingest batches that were in flight when verify started one —
    #: a direct measure of stage overlap (0 on a fully serial run)
    overlapped_batches: int = 0
    batch_sizes: list[int] = dc_field(default_factory=list)
    #: resolved execution backend ("inline" | "thread" | "process")
    executor: str = ""
    #: client-producer counters (run_values only): batches the batched
    #: prover framed, and their total upload bytes
    client_batches: int = 0
    upload_bytes: int = 0


class AsyncPrioPipeline:
    """Drives a server set through the staged verification pipeline.

    ``queue_depth`` bounds how many ingested-but-unverified batches may
    exist at once (the overlap window); ``executor`` selects the
    per-server execution backend — ``"thread"`` / ``"process"`` /
    ``"inline"`` / ``"auto"``, a ready
    :class:`~repro.protocol.fanout.ServerFanout` (reused across runs,
    caller-owned), a plain ``concurrent.futures`` executor
    (caller-owned), or ``None`` for the host-sized default.
    """

    def __init__(
        self,
        servers: "list[PrioServer]",
        batch_size: int = 64,
        queue_depth: int = 2,
        executor: "str | ServerFanout | ThreadPoolExecutor | None" = None,
        encrypt: bool = False,
        n_shards: int = 1,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.servers = servers
        self.batch_size = batch_size
        self.queue_depth = queue_depth
        self.executor = executor
        self.encrypt = encrypt
        #: shard each logical server across this many workers of the
        #: selected executor kind (equivalent to a ``"kind:K"`` spec)
        self.n_shards = n_shards
        self.stats = PipelineStats()
        #: True while the verify stage is mid-batch (stage-overlap probe)
        self._verifying = False
        #: False when a reused backend could not be state-synced for
        #: this run (ops must not run against stale worker state)
        self._backend_ready = True

    # ------------------------------------------------------------------

    def run(self, submissions) -> list[bool]:
        """Synchronous entry point: pipeline every submission, return
        one accept/reject decision per submission (stream order)."""
        return asyncio.run(self.run_async(submissions))

    def run_values(self, client, values) -> list[bool]:
        """Synchronous entry point for the client-producer pipeline."""
        return asyncio.run(self.run_values_async(client, values))

    async def run_values_async(self, client, values) -> list[bool]:
        """Pipeline raw *values* with the batched client as a producer.

        Stage 0 proves and frames the values in client batches of
        ``batch_size`` through the plane-resident batched prover
        (:meth:`~repro.protocol.client.PrioClient.prepare_submissions`),
        off the event loop's thread, so the client proves/frames chunk
        ``N+1`` while the servers ingest and verify chunk ``N`` — the
        protocol's two halves are batched *and* overlapped.  Decisions,
        replay protection, and statistics match preparing everything up
        front and calling :meth:`run_async` (the batched prover is
        bit-identical to the scalar client).
        """
        values = list(values)
        submissions: list = [None] * len(values)

        def producer(ingest_q):
            return self._producer(client, values, submissions, ingest_q)

        return await self._run_stream(submissions, producer)

    async def run_async(self, submissions) -> list[bool]:
        submissions = list(submissions)

        def producer(ingest_q):
            return self._batcher(submissions, ingest_q)

        return await self._run_stream(submissions, producer)

    async def _run_stream(self, submissions, make_producer) -> list[bool]:
        # A pipeline object is reusable: every run starts from fresh
        # per-run state (and a fresh lifecycle, so batch ids restart).
        # Without this, a second run() reports the previous run's
        # counters folded into its own.
        self.stats = PipelineStats()
        self._verifying = False
        results: "list[bool]" = [False] * len(submissions)
        fanout, owned = resolve_fanout(
            self.servers, self.executor, self.batch_size, self.n_shards
        )
        self.stats.executor = fanout.kind
        synced = True
        try:
            if not owned:
                # A reused backend may hold state from a previous run;
                # re-sync it from the driver-side servers.  A failed
                # push is not fatal — every batch below fails without
                # touching the backend — but the run must NOT execute
                # ops against whatever stale state the workers kept,
                # and end_run must not clobber the driver-side servers
                # with it either.
                try:
                    fanout.begin_run()
                except Exception:  # noqa: BLE001
                    synced = False
            self._backend_ready = synced
            lifecycle = BatchLifecycle(self.servers, fanout)
            ingest_q: asyncio.Queue = asyncio.Queue(self.queue_depth)
            verify_q: asyncio.Queue = asyncio.Queue(self.queue_depth)
            tasks = [
                asyncio.create_task(make_producer(ingest_q)),
                asyncio.create_task(
                    self._ingest_stage(
                        submissions, ingest_q, verify_q, results, lifecycle
                    )
                ),
                asyncio.create_task(
                    self._verify_stage(verify_q, results, lifecycle)
                ),
            ]
            try:
                await asyncio.gather(*tasks)
            except BaseException:
                # Cancel *and await* the stages: an abandoned pending
                # task would otherwise die with "task was destroyed but
                # it is pending" after the loop closes.
                for task in tasks:
                    task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)
                # In-flight batches were received but will never be
                # decided: release their ids (an honest retry must not
                # look like a replay) and their batch state (a reused
                # backend must not pin plane matrices forever).
                await lifecycle.abandon_open()
                raise
        finally:
            try:
                if synced:
                    fanout.end_run()
            finally:
                if owned:
                    # wait=True: a fire-and-forget shutdown leaks one
                    # worker set per run() call.
                    fanout.close()
        return results

    # ------------------------------------------------------------------
    # Stage 1: group the stream into verification batches
    # ------------------------------------------------------------------

    async def _batcher(self, submissions, ingest_q: asyncio.Queue) -> None:
        batch: list[int] = []
        for index in range(len(submissions)):
            batch.append(index)
            if len(batch) >= self.batch_size:
                await ingest_q.put(batch)
                batch = []
        if batch:
            await ingest_q.put(batch)
        await ingest_q.put(_DONE)

    async def _producer(
        self, client, values, submissions, ingest_q: asyncio.Queue
    ) -> None:
        """Stage 0: the batched client prover as a pipeline producer.

        Each client batch proves/shares/frames on a worker thread (the
        batch NTT and byte-encode kernels release the GIL on the numpy
        backend) and lands in ``submissions`` before its index batch is
        queued, so the ingest stage's payload lookups always hit ready
        uploads.  Queue backpressure applies to the client too: a slow
        verify stage stalls proving instead of buffering every upload.
        """
        for start in range(0, len(values), self.batch_size):
            indices = list(
                range(start, min(start + self.batch_size, len(values)))
            )
            prepared = await asyncio.to_thread(
                client.prepare_submissions, [values[i] for i in indices]
            )
            for index, submission in zip(indices, prepared):
                submissions[index] = submission
                self.stats.upload_bytes += submission.upload_bytes
            self.stats.client_batches += 1
            await ingest_q.put(indices)
        await ingest_q.put(_DONE)

    # ------------------------------------------------------------------
    # Stage 2: the lifecycle's admit half (receive + plane ingest)
    # ------------------------------------------------------------------

    def _record(self, results, settled) -> None:
        """Map ``(stream index, outcome)`` pairs back onto the stream;
        ``None`` outcomes are still waiting for the decide half."""
        for index, outcome in settled:
            if outcome is None:
                continue
            results[index] = outcome is Outcome.ACCEPTED
            if outcome is Outcome.ABANDONED:
                self.stats.n_worker_failures += 1

    async def _ingest_stage(
        self, submissions, ingest_q, verify_q, results, lifecycle
    ) -> None:
        kind = "sealed" if self.encrypt else "packet"
        while True:
            batch = await ingest_q.get()
            if batch is _DONE:
                await verify_q.put(_DONE)
                return
            self.stats.n_batches += 1
            if not self._backend_ready:
                # State push failed on a reused backend: running ops
                # would execute against stale worker state.  Fail the
                # stream without touching the backend at all.
                self.stats.n_worker_failures += len(batch)
                self.stats.batch_sizes.append(0)
                continue
            admission = await lifecycle.admit(
                [
                    submissions[i].sealed_packets if self.encrypt
                    else submissions[i].packets
                    for i in batch
                ],
                kind,
            )
            self.stats.n_receive_failures += admission.outcomes.count(
                Outcome.REJECTED
            )
            self._record(results, zip(batch, admission.outcomes))
            self.stats.batch_sizes.append(len(admission.survivors))
            if self._verifying:
                self.stats.overlapped_batches += 1
            if admission.survivors:
                await verify_q.put((batch, admission))

    # ------------------------------------------------------------------
    # Stage 3: the lifecycle's decide half (rounds, decide, commit)
    # ------------------------------------------------------------------

    async def _verify_stage(self, verify_q, results, lifecycle) -> None:
        while True:
            item = await verify_q.get()
            if item is _DONE:
                return
            batch, admission = item
            self._verifying = True
            try:
                # A fault inside the commit propagates: the run fails.
                outcomes = await lifecycle.decide(admission)
            finally:
                self._verifying = False
            self._record(
                results, ((batch[p], outcomes[p]) for p in admission.survivors)
            )


def run_pipelined(
    servers: "list[PrioServer]",
    submissions,
    batch_size: int = 64,
    queue_depth: int = 2,
    encrypt: bool = False,
    executor: "str | ServerFanout | ThreadPoolExecutor | None" = None,
    n_shards: int = 1,
) -> tuple[list[bool], PipelineStats]:
    """One-call pipeline run over prepared submissions.

    Returns ``(decisions, stats)`` with one decision per submission in
    stream order — the async counterpart of calling
    ``deliver_batch`` chunk by chunk.  ``executor`` selects the
    per-server backend and ``n_shards`` the per-server worker shard
    count (see :class:`AsyncPrioPipeline`).
    """
    pipeline = AsyncPrioPipeline(
        servers,
        batch_size=batch_size,
        queue_depth=queue_depth,
        executor=executor,
        encrypt=encrypt,
        n_shards=n_shards,
    )
    decisions = pipeline.run(submissions)
    return decisions, pipeline.stats
