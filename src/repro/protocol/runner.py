"""In-process deployment runner: wires clients and servers lock-step.

``PrioDeployment`` is the high-level API most examples use:

    deployment = PrioDeployment.create(afe, n_servers=5)
    for value in private_values:
        deployment.submit(value)
    aggregate = deployment.publish()

It executes the full Appendix H protocol — upload (optionally sealed),
two-round SNIP verification, accumulate, publish, decode — with every
server as a real :class:`~repro.protocol.server.PrioServer` instance,
and keeps the bandwidth/acceptance statistics the benchmarks report.

With ``batch_size > 1`` the deployment proves and verifies
submissions in chunks of that size through the vectorized batch
backend (:mod:`repro.field.batch`): one fused sweep per server per
batch instead of per-submission work.  Acceptance decisions, replay
protection, and every statistic remain per submission — a bad upload
rejects alone, and ``n_rejected``/``upload_bytes_total`` count
submissions, never batches.
"""

from __future__ import annotations

import os
import random as _random
from dataclasses import dataclass, field as dc_field

from repro.afe.base import Afe
from repro.crypto.box import BoxKeyPair
from repro.protocol.client import ClientSubmission, PrioClient
from repro.protocol.lifecycle import Outcome, run_batch
from repro.protocol.server import PrioServer, ProtocolError
from repro.snip.verifier import ServerRandomness


@dataclass
class DeploymentStats:
    n_submitted: int = 0
    n_accepted: int = 0
    n_rejected: int = 0
    upload_bytes_total: int = 0
    #: per-server broadcast elements (verification traffic)
    broadcast_elements: list[int] = dc_field(default_factory=list)


class PrioDeployment:
    """A full in-process Prio deployment for one aggregation task."""

    def __init__(
        self,
        afe: Afe,
        servers: list[PrioServer],
        client: PrioClient,
        encrypt: bool,
        batch_size: int = 1,
        executor=None,
    ) -> None:
        self.afe = afe
        self.servers = servers
        self.client = client
        self.encrypt = encrypt
        self.batch_size = batch_size
        #: pipeline execution backend ("thread" | "process" | "inline" |
        #: "auto", a ServerFanout, or None for the host-sized default)
        self.executor = executor
        #: backend resolved from a string `executor`, cached so repeated
        #: pipelined calls reuse one worker-pool set (spawning process
        #: workers per call would dwarf the fan-out win); released by
        #: :meth:`close`
        self._fanout = None
        self.stats = DeploymentStats()

    @classmethod
    def create(
        cls,
        afe: Afe,
        n_servers: int,
        seed: bytes | None = None,
        use_prg_compression: bool = True,
        encrypt: bool = False,
        epoch_size: int = 1024,
        batch_size: int = 1,
        force_pure_backend: bool | None = None,
        rng=None,
        executor=None,
        replay_cache=None,
    ) -> "PrioDeployment":
        """``batch_size`` makes servers accumulate and verify submissions
        in batches of that size (``submit_many`` chunks accordingly);
        decisions and statistics remain per submission.  ``executor``
        selects the pipelined paths' per-server execution backend
        (``"thread"``/``"process"``/``"inline"``/``"auto"``, optionally
        with a ``":K"`` shard suffix; see :mod:`repro.protocol.fanout`).
        ``replay_cache`` selects each server's replay store
        (``"memory"``/``"tiered"``; see :mod:`repro.protocol.replay`) —
        only a string spec is accepted here because every server needs
        its own independent cache."""
        if n_servers < 2:
            raise ProtocolError("Prio needs at least two servers")
        if batch_size < 1:
            raise ProtocolError("batch_size must be >= 1")
        if replay_cache is not None and not isinstance(replay_cache, str):
            raise ProtocolError(
                "replay_cache must be a string spec here (each server "
                "needs its own cache instance); pass instances to "
                "PrioServer directly"
            )
        if rng is None:
            rng = _random.Random(os.urandom(16))
        randomness = ServerRandomness(seed or rng.randbytes(16))
        box_keys = None
        box_keypairs: list[BoxKeyPair | None] = [None] * n_servers
        if encrypt:
            box_keypairs = [BoxKeyPair.generate(rng) for _ in range(n_servers)]
            box_keys = [kp.public for kp in box_keypairs]
        servers = [
            PrioServer(
                afe, i, n_servers, randomness,
                epoch_size=epoch_size, box_keypair=box_keypairs[i],
                force_pure_backend=force_pure_backend,
                replay_cache=replay_cache,
            )
            for i in range(n_servers)
        ]
        client = PrioClient(
            afe, n_servers,
            use_prg_compression=use_prg_compression,
            server_box_keys=box_keys,
            rng=rng,
        )
        return cls(
            afe=afe, servers=servers, client=client, encrypt=encrypt,
            batch_size=batch_size, executor=executor,
        )

    # ------------------------------------------------------------------

    def _resolve_executor(self, override):
        """Backend for one pipelined call: per-call override wins; a
        deployment-level *string* selection resolves once and the
        resulting fan-out (its worker pools) is reused across calls."""
        if override is not None:
            return override
        if isinstance(self.executor, str):
            if self._fanout is None:
                from repro.protocol.fanout import resolve_fanout

                self._fanout, _ = resolve_fanout(
                    self.servers, self.executor, self.batch_size
                )
            return self._fanout
        return self.executor

    def close(self) -> None:
        """Release any worker pools the deployment created, plus each
        server's replay cache (tiered caches own on-disk databases);
        idempotent."""
        if self._fanout is not None:
            self._fanout.close()
            self._fanout = None
        for server in self.servers:
            server._replay.close()

    def __enter__(self) -> "PrioDeployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def submit(self, value, mutate=None) -> bool:
        """Run one client's value through the full pipeline.

        ``mutate``, if given, receives the :class:`ClientSubmission`
        before delivery and may corrupt it — the robustness tests'
        fault-injection hook.
        """
        submission = self.client.prepare_submission(value)
        if mutate is not None:
            mutate(submission)
        return self.deliver(submission)

    def deliver(self, submission: ClientSubmission) -> bool:
        """Run one prepared submission through the pipeline (a batch
        of one — the batched path is bit-identical at every size)."""
        return self.deliver_batch([submission])[0]

    def deliver_batch(self, submissions) -> list[bool]:
        """Run a batch of prepared submissions through the pipeline.

        One pass of the batch lifecycle on the calling thread
        (:func:`~repro.protocol.lifecycle.run_batch`, no event loop):
        framing errors (wrong length, replay, bad seal) reject the
        offending submission alone; the rest of the batch proceeds to
        one vectorized SNIP verification sweep per server, after which
        every submission is accepted or rejected — and counted in the
        statistics — individually.  A fault before the commit abandons
        the batch (every submission returns ``False``, ids released);
        a fault inside the accumulate commit propagates.
        """
        submissions = list(submissions)
        for submission in submissions:
            self.stats.n_submitted += 1
            self.stats.upload_bytes_total += submission.upload_bytes
        outcomes = run_batch(
            self.servers,
            [
                s.sealed_packets if self.encrypt else s.packets
                for s in submissions
            ],
            "sealed" if self.encrypt else "packet",
        )
        decisions = [outcome is Outcome.ACCEPTED for outcome in outcomes]
        self.stats.n_accepted += sum(decisions)
        self.stats.n_rejected += len(decisions) - sum(decisions)
        return decisions

    def deliver_pipelined(
        self, submissions, queue_depth: int = 2, executor=None
    ) -> list[bool]:
        """Run prepared submissions through the asyncio staged pipeline.

        Same decisions, replay protection, and statistics as chunked
        :meth:`deliver_batch` calls, but ingest of batch ``N+1``
        overlaps verification of batch ``N`` and per-server work fans
        out over the deployment's execution backend — threads by
        default, one worker process per server with
        ``executor="process"``
        (:class:`~repro.protocol.pipeline.AsyncPrioPipeline`).
        """
        from repro.protocol.pipeline import run_pipelined

        submissions = list(submissions)
        for submission in submissions:
            self.stats.n_submitted += 1
            self.stats.upload_bytes_total += submission.upload_bytes
        decisions, _ = run_pipelined(
            self.servers,
            submissions,
            batch_size=self.batch_size,
            queue_depth=queue_depth,
            encrypt=self.encrypt,
            executor=self._resolve_executor(executor),
        )
        self.stats.n_accepted += sum(decisions)
        self.stats.n_rejected += len(decisions) - sum(decisions)
        return decisions

    def submit_many_pipelined(
        self, values, queue_depth: int = 2, executor=None,
        client_batched: bool = True,
    ) -> int:
        """Prepare and pipeline many values; returns the number accepted.

        With ``client_batched`` (the default) the batched plane prover
        runs as a *producer stage* of the async pipeline
        (:meth:`~repro.protocol.pipeline.AsyncPrioPipeline.run_values`):
        the client proves and frames chunk ``N+1`` while the servers
        ingest and verify chunk ``N``.  ``client_batched=False``
        prepares every upload up front through the scalar client
        (identical bytes — the batched prover is bit-identical — just
        no batching or overlap on the client half).
        """
        from repro.protocol.pipeline import AsyncPrioPipeline

        values = list(values)
        if not client_batched:
            submissions = self.client.prepare_submissions(
                values, batched=False
            )
            return sum(
                self.deliver_pipelined(submissions, queue_depth, executor)
            )
        pipeline = AsyncPrioPipeline(
            self.servers,
            batch_size=self.batch_size,
            queue_depth=queue_depth,
            executor=self._resolve_executor(executor),
            encrypt=self.encrypt,
        )
        decisions = pipeline.run_values(self.client, values)
        self.stats.n_submitted += len(values)
        self.stats.upload_bytes_total += pipeline.stats.upload_bytes
        self.stats.n_accepted += sum(decisions)
        self.stats.n_rejected += len(decisions) - sum(decisions)
        return sum(decisions)

    def submit_batch(self, values, mutate=None) -> list[bool]:
        """Prepare and deliver ``values`` as one server-side batch.

        Client proof generation is batched too
        (:meth:`~repro.protocol.client.PrioClient.prepare_submissions`).
        ``mutate``, if given, receives ``(index, submission)`` for each
        prepared submission — the batched fault-injection hook.
        """
        submissions = self.client.prepare_submissions(values)
        if mutate is not None:
            for index, submission in enumerate(submissions):
                mutate(index, submission)
        return self.deliver_batch(submissions)

    def submit_many(self, values) -> int:
        """Submit many values; returns the number accepted.

        With ``batch_size > 1`` the values run through the batched
        prove/verify pipeline in chunks of ``batch_size``; otherwise
        one at a time (identical outcomes either way).
        """
        values = list(values)
        if self.batch_size > 1:
            accepted = 0
            for start in range(0, len(values), self.batch_size):
                chunk = values[start:start + self.batch_size]
                accepted += sum(self.submit_batch(chunk))
            return accepted
        return sum(1 for v in values if self.submit(v))

    # ------------------------------------------------------------------

    def publish_shares(self) -> list[list[int]]:
        return [server.publish() for server in self.servers]

    def publish(self):
        """Combine accumulators and AFE-decode the aggregate."""
        shares = self.publish_shares()
        sigma = self.afe.field.vec_sum(shares)
        n = self.servers[0].n_accepted
        self.stats.broadcast_elements = [
            server.elements_broadcast for server in self.servers
        ]
        return self.afe.decode(sigma, n)
