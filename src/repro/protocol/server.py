"""The Prio server (Appendix H, steps 2-4: Validate, Aggregate, Publish).

A :class:`PrioServer` holds one share of every client submission,
participates in the two-round SNIP verification with its peers, and on
success folds the truncated encoding share into its accumulator.
Publishing reveals only the accumulator — the sum of many clients'
shares — never an individual share.

Replay protection: submission ids are cached per epoch and duplicates
rejected before verification (the paper notes Prio packets "can be
replay-protected at the servers"); ids received but not yet decided
count too, so a replay *inside* a verification batch is caught.

The ``begin_verification_batch``/``finish_verification_batch``/
``decide_batch`` triple is the vectorized hot path: one
:class:`~repro.snip.verifier.BatchedSnipVerifierParty` sweep covers a
whole batch of submissions, with per-submission decisions.
"""

from __future__ import annotations

from repro.afe.base import Afe
from repro.crypto.box import BoxKeyPair, CryptoError, open_box
from repro.field.batch import (
    BatchVector,
    assemble_rows,
    decode_bytes_batch,
    tiny_batch_force_pure,
)
from repro.field.prime_field import FieldError
from repro.protocol.replay import ReplayCache, resolve_replay_cache
from repro.protocol.wire import (
    ENVELOPE_SIZE,
    ClientPacket,
    PacketKind,
    WireError,
    parse_envelope,
)
from repro.sharing.prg import SEED_SIZE, expand_seed, expand_seed_batch
from repro.snip.proof import SnipProofShare, proof_num_elements
from repro.snip.verifier import (
    BatchedSnipVerifierParty,
    Round1Batch,
    Round1Message,
    Round2Batch,
    ServerRandomness,
    VerificationContext,
)


class ProtocolError(ValueError):
    """Raised on protocol violations (wrong server, replayed id, ...)."""


class PendingSubmission:
    """A received, de-framed share awaiting verification.

    The share vector may be *latent*: a SEED packet stores just its
    16-byte PRG seed (expanded in one vectorized sweep when the batch
    is verified) and a plane-ingested EXPLICIT packet stores a row of
    limb planes.  ``x_share`` / ``proof_share`` materialize Python
    ints on first access — the scalar-verification fallback; the
    batched pipeline never touches them.
    """

    def __init__(
        self,
        submission_id: bytes,
        x_share: "list[int] | None" = None,
        proof_share: "SnipProofShare | None" = None,
    ) -> None:
        self.submission_id = submission_id
        self._x_share = x_share
        self._proof_share = proof_share
        #: latent sources (at most one is set before materialization)
        self._seed: bytes | None = None
        self._source: "tuple[BatchVector, int] | None" = None
        #: framing metadata needed to materialize and split lazily
        self._field = None
        self._n_inputs = len(x_share) if x_share is not None else None
        self._n_mul_gates: int | None = None
        self._n_elements: int | None = None

    @property
    def x_share(self) -> list[int]:
        self._materialize()
        return self._x_share

    @property
    def proof_share(self) -> "SnipProofShare | None":
        self._materialize()
        return self._proof_share

    def _materialize(self) -> None:
        if self._x_share is not None:
            return
        if self._source is not None:
            vector = self._source[0].row_ints(self._source[1])
        elif self._seed is not None:
            vector = expand_seed(self._field, self._seed, self._n_elements)
        else:
            raise ProtocolError("pending submission has no share source")
        k = self._n_inputs
        self._x_share = vector[:k]
        if self._n_mul_gates is not None:
            self._proof_share = SnipProofShare.unflatten(
                self._field, vector[k:], self._n_mul_gates
            )

    def release(self) -> None:
        """Drop every share source after the submission is decided.

        Long-running servers hold decided :class:`PendingSubmission`
        objects only for their ids; without this, each one would pin
        its materialized per-client bigints (``x_share`` /
        ``proof_share``) — and, transitively, whole ingested plane
        matrices — for as long as the caller keeps the handle.
        """
        self._x_share = None
        self._proof_share = None
        self._seed = None
        self._source = None


class PrioServer:
    """One aggregation server for a single collection task."""

    def __init__(
        self,
        afe: Afe,
        server_index: int,
        n_servers: int,
        randomness: ServerRandomness,
        epoch_size: int = 1024,
        box_keypair: BoxKeyPair | None = None,
        force_pure_backend: bool | None = None,
        replay_cache: "ReplayCache | str | None" = None,
    ) -> None:
        self.afe = afe
        self.field = afe.field
        self.server_index = server_index
        self.n_servers = n_servers
        self.is_leader = server_index == 0
        self.randomness = randomness
        self.epoch_size = epoch_size
        self.box_keypair = box_keypair
        #: batch-backend override (None = auto-select numpy/pure)
        self.force_pure_backend = force_pure_backend
        self.circuit = afe.valid_circuit()

        #: the Aggregate state, plane-resident: decoded to Python ints
        #: only at :meth:`publish` (or through the compatibility
        #: :attr:`accumulator` property)
        self._accumulator = BatchVector.zeros(
            self.field, (afe.k_prime,),
            tiny_batch_force_pure(afe.k_prime, force_pure_backend),
        )
        self.n_accepted = 0
        self.n_rejected = 0
        self.n_replayed = 0
        #: replay protection behind the pluggable cache seam
        #: (:mod:`repro.protocol.replay`): the in-memory reference
        #: implementation by default, a tiered L1/L2 cache at scale
        self._replay: ReplayCache = resolve_replay_cache(replay_cache)
        #: ids received but not yet accumulated/rejected — closes the
        #: replay window *inside* a verification batch, where the first
        #: copy has not reached the replay cache yet
        self._pending_ids: set[bytes] = set()
        self._submissions_this_epoch = 0
        self._epoch = 0
        self._ctx: VerificationContext | None = None
        #: server-to-server field elements broadcast (Figure 6 metric)
        self.elements_broadcast = 0

    @property
    def _seen_ids(self) -> ReplayCache:
        """Compatibility view of the replay cache (``in``, ``len``,
        iteration, ``clear`` — everything the old ``set`` offered)."""
        return self._replay

    @property
    def accumulator(self) -> list[int]:
        """The accumulator as Python ints (decodes the limb plane)."""
        return self._accumulator.to_ints()

    @accumulator.setter
    def accumulator(self, values) -> None:
        """Replace the accumulator (e.g. after DP noising)."""
        self._accumulator = BatchVector.from_ints(
            self.field, list(values), self.force_pure_backend
        )

    # ------------------------------------------------------------------
    # Epoch / context management (the fixed-r optimization)
    # ------------------------------------------------------------------

    def _context(self) -> VerificationContext | None:
        if self.circuit is None:
            return None
        if self._ctx is None or self._submissions_this_epoch >= self.epoch_size:
            if self._submissions_this_epoch >= self.epoch_size:
                self._epoch += 1
                self._submissions_this_epoch = 0
            challenge = self.randomness.challenge(
                self.field, self.circuit, self._epoch
            )
            self._ctx = VerificationContext(self.field, self.circuit, challenge)
        return self._ctx

    # ------------------------------------------------------------------
    # Receive
    # ------------------------------------------------------------------

    def _batch_force(self, batch_size: int) -> "bool | None":
        """Backend choice for one ingest batch of ``batch_size`` rows.

        Explicit ``force_pure_backend`` wins; otherwise tiny batches
        (a batch of one over a small circuit) drop to the pure backend,
        which beats numpy dispatch overhead at that size.
        """
        k = self.afe.k
        m = self.circuit.n_mul_gates if self.circuit is not None else None
        n = k if m is None else k + proof_num_elements(m)
        return tiny_batch_force_pure(
            batch_size * n, self.force_pure_backend
        )

    def receive_sealed(self, sealed: bytes) -> PendingSubmission:
        """Receive one sealed packet (a batch of one).

        Same kernels, checks, and typed errors as
        :meth:`receive_sealed_batch`; the raised exception is the
        per-position result the batch path would have reported.
        """
        result = self.receive_sealed_batch([sealed])[0]
        if isinstance(result, Exception):
            raise result
        return result

    def receive_sealed_batch(
        self, payloads: "list[bytes]"
    ) -> "list[PendingSubmission | Exception]":
        """Open a batch of sealed packets into the fused wire decode.

        ``payloads`` holds one ``envelope || box`` sealed packet per
        position (:mod:`repro.protocol.wire` envelope layout).  Per
        position: the envelope parses (cheap slice), the wrong-server
        and replay checks run against the *cleartext* envelope fields —
        before paying the two scalar multiplications of
        :func:`~repro.crypto.box.open_box` — then the box opens with
        the envelope as associated data (so a grafted envelope fails
        authentication), and the opened packet's inner header must
        agree with its envelope.  Survivors join one fused
        :meth:`receive_batch` sweep; every failure rejects its
        position alone with the typed error object.
        """
        if self.box_keypair is None:
            raise ProtocolError("server has no box key configured")
        out: "list[PendingSubmission | Exception]" = [None] * len(payloads)
        opened: "list[tuple[int, ClientPacket]]" = []
        for i, data in enumerate(payloads):
            data = bytes(data)
            try:
                sid, server_index, box_bytes = parse_envelope(data)
            except WireError as exc:
                out[i] = exc
                continue
            if server_index != self.server_index:
                out[i] = ProtocolError(
                    f"packet for server {server_index} delivered to "
                    f"server {self.server_index}"
                )
                continue
            # Replay pre-check on the envelope sid: a replayed upload
            # must not cost the server an ECDH.  An id that passes here
            # is re-checked (authenticated, inside receive_batch) after
            # the box opens, so a lying envelope cannot smuggle a
            # replay through.
            if sid in self._seen_ids or sid in self._pending_ids:
                self.n_replayed += 1
                out[i] = ProtocolError("replayed submission id")
                continue
            envelope = data[:ENVELOPE_SIZE]
            try:
                plaintext = open_box(
                    self.box_keypair, box_bytes, associated_data=envelope
                )
            except CryptoError as exc:
                out[i] = exc
                continue
            try:
                packet = ClientPacket.decode(plaintext, self.field)
            except WireError as exc:
                out[i] = exc
                continue
            if (
                packet.submission_id != sid
                or packet.server_index != server_index
            ):
                out[i] = ProtocolError(
                    "sealed packet header disagrees with its envelope"
                )
                continue
            opened.append((i, packet))
        if opened:
            results = self.receive_batch([pkt for _, pkt in opened])
            for (i, _), result in zip(opened, results):
                out[i] = result
        return out

    def _receive_framed(self, packet: ClientPacket) -> PendingSubmission:
        """Frame-validate one packet; leaves EXPLICIT bodies undecoded.

        Wrong server, replay, body-size inconsistency, and wrong
        share-vector length all raise here.  On success the packet's id
        is pending (replay-protected), and :meth:`receive_batch` owns
        the body decode, batched with offender isolation.
        """
        if packet.server_index != self.server_index:
            raise ProtocolError(
                f"packet for server {packet.server_index} delivered to "
                f"server {self.server_index}"
            )
        if (
            packet.submission_id in self._seen_ids
            or packet.submission_id in self._pending_ids
        ):
            self.n_replayed += 1
            raise ProtocolError("replayed submission id")
        k = self.afe.k
        m = self.circuit.n_mul_gates if self.circuit is not None else None
        expected = k if m is None else k + proof_num_elements(m)
        if packet.kind is PacketKind.SEED:
            if len(packet.body) != SEED_SIZE:
                raise WireError("seed packet has wrong body size")
            n = packet.n_elements
        else:
            size = self.field.encoded_size
            if len(packet.body) != packet.n_elements * size:
                raise WireError("explicit packet has wrong body size")
            n = packet.n_elements
        if n != expected:
            if m is None:
                raise WireError("share vector has wrong length")
            raise WireError(
                f"share vector has {n} elements, expected {expected}"
            )
        pending = PendingSubmission(packet.submission_id)
        pending._field = self.field
        pending._n_inputs = k
        pending._n_mul_gates = m
        pending._n_elements = n
        if packet.kind is PacketKind.SEED:
            pending._seed = packet.body
        self._pending_ids.add(packet.submission_id)
        return pending

    def receive(self, packet: ClientPacket) -> PendingSubmission:
        """Receive one packet (a batch of one).

        Same kernels, checks, and typed errors as
        :meth:`receive_batch`; the raised exception is the
        per-position result the batch path would have reported.
        """
        result = self.receive_batch([packet])[0]
        if isinstance(result, Exception):
            raise result
        return result

    def receive_batch(
        self, packets: "list[ClientPacket]"
    ) -> "list[PendingSubmission | Exception]":
        """Receive a whole batch; per-packet outcomes, one fused decode.

        Semantically equivalent to :meth:`receive` per packet — the
        result list holds a :class:`PendingSubmission` where that call
        would have succeeded and the raised exception object where it
        would have raised — but every EXPLICIT body in the batch
        decodes through a single checked byte-batch sweep.  An
        out-of-range element only evicts the offending packet: its row
        is cut from the batch and the remainder re-decodes (honest
        batches pay exactly one sweep).
        """
        out: "list[PendingSubmission | Exception]" = [None] * len(packets)
        explicit: "list[tuple[int, PendingSubmission, bytes]]" = []
        for i, packet in enumerate(packets):
            try:
                pending = self._receive_framed(packet)
            except (ProtocolError, WireError) as exc:
                out[i] = exc
                continue
            out[i] = pending
            if packet.kind is PacketKind.EXPLICIT:
                explicit.append((i, pending, packet.body))
        while explicit:
            try:
                decoded = decode_bytes_batch(
                    self.field,
                    [body for _, _, body in explicit],
                    self._batch_force(len(explicit)),
                )
            except FieldError as exc:
                row = getattr(exc, "batch_row", None)
                if row is None:
                    # No row attribution: evicting a guessed position
                    # would blame an innocent upload.  Release every
                    # still-pending id of this sweep (no decision was
                    # made) and fail the whole call loudly instead.
                    for result in out:
                        if isinstance(result, PendingSubmission):
                            self.abandon(result)
                    raise
                i, pending, _ = explicit.pop(row)
                self._pending_ids.discard(pending.submission_id)
                out[i] = exc
                continue
            for t, (i, pending, _) in enumerate(explicit):
                pending._source = (decoded, t)
            break
        return out

    def receive_wire_batch(
        self, payloads: "list[bytes]"
    ) -> "list[PendingSubmission | Exception]":
        """Receive a batch straight from wire bytes (the transport seam).

        ``payloads`` holds one encoded :class:`ClientPacket` per
        position, exactly as length-framed off a socket.  Header fields
        parse per packet (a cheap fixed-offset slice — bodies are never
        copied element-wise), and every well-framed packet joins the
        same fused :meth:`receive_batch` sweep; a malformed header
        rejects its position alone.
        """
        out: "list[PendingSubmission | Exception]" = [None] * len(payloads)
        packets: "list[ClientPacket]" = []
        positions: list[int] = []
        for i, data in enumerate(payloads):
            try:
                packets.append(ClientPacket.decode(bytes(data), self.field))
            except WireError as exc:
                out[i] = exc
            else:
                positions.append(i)
        if packets:
            for i, result in zip(positions, self.receive_batch(packets)):
                out[i] = result
        return out

    # ------------------------------------------------------------------
    # Verification rounds (lock-step with peers), in batched plane form
    # ------------------------------------------------------------------

    def _ingest_batch(self, pendings: list[PendingSubmission]) -> BatchVector:
        """Assemble the batch's ``(B, n)`` share matrix, plane-resident.

        All latent SEED packets expand through one vectorized PRG
        sweep; plane-decoded EXPLICIT rows are copied limb-for-limb;
        already-materialized submissions (the scalar fallback) are
        re-encoded.  Each pending is re-pointed at its row of the
        assembled matrix, so later per-submission access (scalar
        verification, lazy ``x_share``, batched accumulation) shares
        the same planes.
        """
        force = self._batch_force(len(pendings))
        seed_pendings = [
            p for p in pendings
            if p._seed is not None and p._source is None and p._x_share is None
        ]
        if seed_pendings:
            expanded = expand_seed_batch(
                self.field,
                [p._seed for p in seed_pendings],
                seed_pendings[0]._n_elements,
                force,
            )
            for row, pending in enumerate(seed_pendings):
                pending._source = (expanded, row)
        sources: list = []
        for pending in pendings:
            if pending._source is not None:
                sources.append(pending._source)
            else:
                row = list(pending.x_share)
                if pending.proof_share is not None:
                    row += pending.proof_share.flatten()
                sources.append(row)
        matrix = assemble_rows(self.field, sources, force)
        for row, pending in enumerate(pendings):
            if pending._x_share is None:
                pending._source = (matrix, row)
        return matrix

    def begin_verification_batch(
        self, pendings: list[PendingSubmission]
    ) -> tuple["BatchedSnipVerifierParty | None", Round1Batch]:
        """Round 1 for a whole batch in one vectorized sweep.

        The entire batch is verified under a single epoch context (the
        context in force when the batch starts; epoch accounting still
        advances per submission, so rotation happens between batches).
        The batch goes wire-planes -> verdict: seeds expand vectorized,
        the share matrix is assembled from limb planes, the party
        consumes it via
        :meth:`~repro.snip.verifier.BatchedSnipVerifierParty.from_share_matrix`,
        and the round-1 broadcast comes back as a plane-form
        :class:`~repro.snip.verifier.Round1Batch` — no per-element
        Python-int crossing anywhere.
        """
        ctx = self._context()
        if ctx is None or not pendings:
            return None, Round1Batch.zeros(
                self.field, len(pendings), self.force_pure_backend
            )
        party = BatchedSnipVerifierParty.from_share_matrix(
            ctx, self.server_index, self.n_servers,
            self._ingest_batch(pendings),
        )
        batch = party.round1_all()
        self.elements_broadcast += 2 * len(pendings)
        return party, batch

    def finish_verification_batch(
        self,
        party: "BatchedSnipVerifierParty | None",
        round1_batches: "list[Round1Batch] | list[list[Round1Message]]",
    ) -> Round2Batch:
        """Round 2: one plane-form broadcast for the whole batch.

        ``round1_batches`` is one :class:`Round1Batch` per server (the
        legacy per-submission message-list layout is still accepted and
        converted by the party).
        """
        if party is None:
            if round1_batches and isinstance(round1_batches[0], Round1Batch):
                n = len(round1_batches[0])       # one batch per server
            else:
                n = len(round1_batches)          # one message list per sub
            return Round2Batch.zeros(
                self.field, n, self.force_pure_backend
            )
        batch = party.round2_all(round1_batches)
        self.elements_broadcast += 2 * len(batch)
        return batch

    def decide_batch(
        self, round2_batches: "list[Round2Batch]"
    ) -> list[bool]:
        """One independent accept/reject decision per submission."""
        if self.circuit is None:
            n = len(round2_batches[0]) if round2_batches else 0
            return [True] * n
        return Round2Batch.decide_all(round2_batches)

    # ------------------------------------------------------------------
    # Aggregate / publish
    # ------------------------------------------------------------------

    def accumulate_batch(
        self,
        pendings: list[PendingSubmission],
        decisions: list[bool],
    ) -> None:
        """Apply a batch's decisions: one vectorized Aggregate sweep.

        Accepted rows are truncated, column-summed, and folded into the
        plane-resident accumulator in a single batch operation — the
        Aggregate step consumes planes and produces planes; nothing
        crosses back to Python ints until :meth:`publish`.  Decided
        submissions drop their share sources (:meth:`PendingSubmission
        .release`), so the server retains only ids, not bigints.
        """
        if len(pendings) != len(decisions):
            raise ProtocolError("need one decision per pending submission")
        for pending, accepted in zip(pendings, decisions):
            if not accepted:
                self.reject(pending)
        accepted_pendings = [
            p for p, accepted in zip(pendings, decisions) if accepted
        ]
        if not accepted_pendings:
            return
        shared = (
            accepted_pendings[0]._source[0]
            if accepted_pendings[0]._source is not None
            else None
        )
        if shared is not None and all(
            p._source is not None and p._source[0] is shared
            for p in accepted_pendings
        ):
            # Verification already ingested these rows: reuse the plane
            # matrix directly (whole — the common all-accepted case —
            # or through one row gather).
            indices = [p._source[1] for p in accepted_pendings]
            if indices == list(range(shared.shape[0])):
                rows = shared
            else:
                rows = shared.take_rows(indices)
        else:
            # Proof-free AFEs (and scalar-materialized stragglers) skip
            # begin_verification_batch's ingest; give them the same
            # one-sweep expansion/assembly here.
            rows = self._ingest_batch(accepted_pendings)
        batch_sum = rows.slice_columns(self.afe.k_prime).sum_rows()
        if batch_sum.backend != self._accumulator.backend:
            batch_sum = BatchVector.from_ints(
                self.field, batch_sum.to_ints(),
                self._accumulator.force_pure,
            )
        self._accumulator = self._accumulator + batch_sum
        for pending in accepted_pendings:
            # Order matters: the id enters the replay cache *before*
            # leaving ``_pending_ids``, so a concurrent replay check
            # (the async pipeline receives batch ``N+1`` on executor
            # threads while batch ``N`` accumulates) always sees it in
            # at least one set.
            self._replay.add(pending.submission_id)
            self._pending_ids.discard(pending.submission_id)
            self._submissions_this_epoch += 1
            self.n_accepted += 1
            pending.release()

    def reject(self, pending: PendingSubmission) -> None:
        self._replay.add(pending.submission_id)
        self._pending_ids.discard(pending.submission_id)
        self._submissions_this_epoch += 1
        self.n_rejected += 1
        pending.release()

    def abandon(self, pending: PendingSubmission) -> None:
        """Release a received submission without deciding it.

        Used when a peer's receive failed mid-fan-out: this server's
        copy is dropped, and the id must not stay pending (which would
        make an honest retry look like a replay) nor enter
        ``_seen_ids`` (no decision was made).  The share sources are
        released like any other settled submission: an abandoned
        pending must not pin its seed or its row's whole ingested
        plane matrix for as long as the caller keeps the handle."""
        self._pending_ids.discard(pending.submission_id)
        pending.release()

    def add_dp_noise(
        self,
        epsilon: float,
        sensitivity: float,
        generator,
        n_servers: "int | None" = None,
    ) -> None:
        """Add this server's distributed-DP noise share (Section 7).

        Plane-resident: the batched Polya sampler's signed noise vector
        is embedded into limb planes and added to the accumulator plane
        — the aggregate still decodes to Python ints only at
        :meth:`publish`.  ``n_servers`` defaults to this deployment's
        server count (the noise-divisibility parameter ``s``).
        """
        from repro.protocol.dp import add_noise_to_accumulator

        self._accumulator = add_noise_to_accumulator(
            self.field,
            self._accumulator,
            epsilon,
            sensitivity,
            self.n_servers if n_servers is None else n_servers,
            generator,
        )

    # ------------------------------------------------------------------
    # State residency (the multi-process fan-out seam)
    # ------------------------------------------------------------------

    def begin_run(self) -> None:
        """Mark the start of a fan-out run.

        Snapshots taken after this point ship only the replay-cache
        *delta* — the ids added during the run — instead of the full
        multi-million-id history.  The process fan-out calls this when
        it installs a server in a worker; callers that never call it
        get full snapshots (the safe fallback).
        """
        self._replay.mark()

    def snapshot_state(self) -> dict:
        """Everything a run mutates, in one picklable snapshot.

        The process fan-out backend
        (:class:`~repro.protocol.fanout.ProcessFanout`) ships a server
        into a dedicated worker, runs batches there, and merges this
        snapshot back into the driver-side object afterward — the
        accumulator crosses as its limb plane
        (:class:`~repro.field.batch.BatchVector` pickles the int64
        plane buffer; no per-element Python-int round trip).  Replay
        state crosses as the delta since :meth:`begin_run`, never the
        whole seen set.
        """
        return {
            "accumulator_plane": self._accumulator,
            "n_accepted": self.n_accepted,
            "n_rejected": self.n_rejected,
            "n_replayed": self.n_replayed,
            "seen_delta": self._replay.delta(),
            "pending_ids": set(self._pending_ids),
            "submissions_this_epoch": self._submissions_this_epoch,
            "epoch": self._epoch,
            "elements_broadcast": self.elements_broadcast,
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a :meth:`snapshot_state` snapshot (inverse operation).

        Counters and planes are absolute (the snapshotting side held
        the full state); replay ids merge as a delta — the driver-side
        cache already holds everything from before the run.  A legacy
        ``seen_ids`` snapshot (full set) replaces the cache contents
        instead.

        Drops the cached verification context: the epoch may have
        advanced elsewhere, and contexts re-derive deterministically
        from the shared randomness.
        """
        self._accumulator = state["accumulator_plane"]
        self.n_accepted = state["n_accepted"]
        self.n_rejected = state["n_rejected"]
        self.n_replayed = state["n_replayed"]
        if "seen_delta" in state:
            self._replay.update(state["seen_delta"])
        else:
            self._replay.clear()
            self._replay.update(state["seen_ids"])
        self._pending_ids = set(state["pending_ids"])
        self._submissions_this_epoch = state["submissions_this_epoch"]
        self._epoch = state["epoch"]
        self.elements_broadcast = state["elements_broadcast"]
        self._ctx = None

    # ------------------------------------------------------------------
    # Sharding (the per-server worker fan-out seam)
    # ------------------------------------------------------------------

    def make_shard(self) -> "PrioServer":
        """A fresh server of identical configuration and empty state.

        :class:`~repro.protocol.fanout.ShardedFanout` gives each
        logical server K of these; every shard owns its slice of the
        submission-id space (stable hash partition), so shard-local
        replay caches — spawned from this server's, hence the same
        tier configuration — give complete replay protection.
        """
        return PrioServer(
            self.afe,
            self.server_index,
            self.n_servers,
            self.randomness,
            epoch_size=self.epoch_size,
            box_keypair=self.box_keypair,
            force_pure_backend=self.force_pure_backend,
            replay_cache=self._replay.spawn(),
        )

    def sync_shard_epoch(self, shard: "PrioServer") -> None:
        """Align a shard's epoch clock with this logical server's."""
        shard._epoch = self._epoch
        shard._submissions_this_epoch = self._submissions_this_epoch
        shard._ctx = None

    def fold_shard_state(self, state: dict) -> None:
        """Merge one shard's *delta* snapshot into this logical server.

        Unlike :meth:`restore_state` (absolute counters from a worker
        that held the full state), a shard starts each run zeroed, so
        its counters, accumulator plane, and broadcast tally are pure
        deltas and *add*; replay ids union in; epoch position advances
        by the shard's submission count (all shards share the logical
        server's epoch schedule, synced at run start).
        """
        plane = state["accumulator_plane"]
        if plane.backend != self._accumulator.backend:
            plane = BatchVector.from_ints(
                self.field, plane.to_ints(), self._accumulator.force_pure
            )
        self._accumulator = self._accumulator + plane
        self.n_accepted += state["n_accepted"]
        self.n_rejected += state["n_rejected"]
        self.n_replayed += state["n_replayed"]
        self._replay.update(state["seen_delta"])
        self._pending_ids |= state["pending_ids"]
        # Advance the epoch position by the shard's settled count;
        # rotation itself stays lazy in ``_context()`` (which resets
        # the counter to zero on overshoot), exactly as unsharded.
        self._submissions_this_epoch += state["n_accepted"] + state["n_rejected"]
        self.elements_broadcast += state["elements_broadcast"]
        self._ctx = None

    def reset_run_deltas(self) -> None:
        """Zero the fold-as-delta state after a shard fold.

        Shard servers call this after each :meth:`fold_shard_state`
        so their next snapshot is again a pure per-run delta.  The
        replay cache is deliberately untouched — it stays the
        authoritative record of this shard's id slice across runs.
        """
        self._accumulator = BatchVector.zeros(
            self.field, (self.afe.k_prime,),
            tiny_batch_force_pure(self.afe.k_prime, self.force_pure_backend),
        )
        self.n_accepted = 0
        self.n_rejected = 0
        self.n_replayed = 0
        self.elements_broadcast = 0
        self._pending_ids = set()

    def publish(self) -> list[int]:
        """Release the accumulator (step 4); safe by construction.

        This is the aggregate's single plane -> Python-int crossing:
        the accumulator lives as a limb plane for the server's whole
        life and decodes only here (and in the compatibility
        :attr:`accumulator` property).
        """
        return self._accumulator.to_ints()
