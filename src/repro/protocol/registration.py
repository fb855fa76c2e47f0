"""Client registration and publish gating (the Section 7 defences).

Prio publishes *exact* aggregates, so a network adversary who blocks
every honest client but one can read that client's value out of the
"aggregate" (the selective denial-of-service attack).  The paper's
standard defence:

    "have the servers keep a list of public keys of registered clients
    (e.g., the students enrolled at a university). Prio clients sign
    their submissions with the signing key corresponding to their
    registered public key and the servers wait to publish their
    accumulator values until a threshold number of registered clients
    have submitted valid messages."

This module implements that defence on top of the base pipeline:

* :class:`ClientRegistry` — the servers' shared list of registered
  Schnorr public keys;
* :class:`RegisteredClient` — wraps :class:`PrioClient`, signing every
  packet with the client's registered key;
* :class:`GatedServer` — wraps :class:`PrioServer`, counting
  *distinct* registered contributors (a Sybil submitting twice counts
  once) and refusing to publish below the threshold;
* :class:`GatedDeployment` — rejects an upload from an unregistered key
  or with a bad signature before any server sees it, then runs the
  rest through the one batch lifecycle
  (:func:`~repro.protocol.lifecycle.run_batch`).
"""

from __future__ import annotations

import os
import random as _random
from dataclasses import dataclass

from repro.afe.base import Afe
from repro.crypto.sign import SigningKeyPair, sign, verify
from repro.ec.p256 import Point
from repro.protocol.client import PrioClient
from repro.protocol.lifecycle import Outcome, run_batch
from repro.protocol.server import PrioServer, ProtocolError
from repro.protocol.wire import ClientPacket
from repro.snip.verifier import ServerRandomness


class RegistrationError(ProtocolError):
    """Raised for unregistered clients, bad signatures, or early publish."""


class ClientRegistry:
    """The deployment's list of registered client public keys."""

    def __init__(self) -> None:
        self._keys: dict[bytes, Point] = {}

    def register(self, public: Point) -> bytes:
        """Add a public key; returns the client id (the encoded point)."""
        client_id = public.encode()
        self._keys[client_id] = public
        return client_id

    def is_registered(self, client_id: bytes) -> bool:
        return client_id in self._keys

    def public_key(self, client_id: bytes) -> Point:
        if client_id not in self._keys:
            raise RegistrationError("unknown client id")
        return self._keys[client_id]

    def __len__(self) -> int:
        return len(self._keys)


@dataclass
class SignedPacket:
    """A wire packet plus the submitting client's identity proof."""

    packet: ClientPacket
    client_id: bytes
    signature: bytes

    def signed_bytes(self) -> bytes:
        return self.packet.encode()


class RegisteredClient:
    """A Prio client that signs every packet with its registered key."""

    def __init__(
        self,
        afe: Afe,
        n_servers: int,
        keypair: SigningKeyPair,
        rng=None,
    ) -> None:
        self.keypair = keypair
        self.client_id = keypair.public.encode()
        self.rng = rng if rng is not None else _random.Random(os.urandom(16))
        self._inner = PrioClient(afe, n_servers, rng=self.rng)

    def prepare_submission(self, value) -> list[SignedPacket]:
        submission = self._inner.prepare_submission(value)
        return [
            SignedPacket(
                packet=packet,
                client_id=self.client_id,
                signature=sign(self.keypair, packet.encode(), self.rng),
            )
            for packet in submission.packets
        ]


class GatedServer(PrioServer):
    """A PrioServer that counts registered contributors and gates
    publish on their number."""

    def __init__(
        self,
        afe: Afe,
        server_index: int,
        n_servers: int,
        randomness: ServerRandomness,
        registry: ClientRegistry,
        publish_threshold: int,
        epoch_size: int = 1024,
    ) -> None:
        super().__init__(
            afe, server_index, n_servers, randomness, epoch_size=epoch_size
        )
        self.registry = registry
        self.publish_threshold = publish_threshold
        self._contributors: set[bytes] = set()

    def credit(self, client_id: bytes) -> None:
        """Record an accepted submission's registered contributor."""
        self._contributors.add(client_id)

    @property
    def n_contributors(self) -> int:
        return len(self._contributors)

    def publish(self) -> list[int]:
        """Release the accumulator only past the contributor threshold.

        Below the threshold the aggregate could be dominated by an
        adversary's own values (the selective-DoS attack), so the
        server refuses.
        """
        if self.n_contributors < self.publish_threshold:
            raise RegistrationError(
                f"only {self.n_contributors} distinct registered clients "
                f"contributed; refusing to publish below the threshold of "
                f"{self.publish_threshold}"
            )
        return super().publish()


class GatedDeployment:
    """In-process deployment with registration + publish gating."""

    def __init__(
        self,
        afe: Afe,
        n_servers: int,
        publish_threshold: int,
        seed: bytes = b"gated-seed",
    ) -> None:
        if n_servers < 2:
            raise ProtocolError("Prio needs at least two servers")
        self.afe = afe
        self.registry = ClientRegistry()
        randomness = ServerRandomness(seed)
        self.servers = [
            GatedServer(
                afe, i, n_servers, randomness,
                registry=self.registry,
                publish_threshold=publish_threshold,
            )
            for i in range(n_servers)
        ]
        self.n_servers = n_servers

    def new_client(self, rng=None) -> RegisteredClient:
        keypair = SigningKeyPair.generate(rng)
        self.registry.register(keypair.public)
        return RegisteredClient(self.afe, self.n_servers, keypair, rng=rng)

    def _authentic(self, signed: SignedPacket) -> bool:
        if not self.registry.is_registered(signed.client_id):
            return False
        public = self.registry.public_key(signed.client_id)
        return verify(public, signed.signed_bytes(), signed.signature)

    def deliver(self, signed_packets: list[SignedPacket]) -> bool:
        """Verify one signed upload; returns whether it was accepted.

        Registration and every packet's signature are checked before
        any server receives a packet, so a forged upload leaves no id
        pending anywhere and the honest upload is still accepted.
        """
        if len(signed_packets) != self.n_servers or not all(
            self._authentic(signed) for signed in signed_packets
        ):
            return False
        [outcome] = run_batch(
            self.servers,
            [[signed.packet for signed in signed_packets]],
            "packet",
        )
        if outcome is not Outcome.ACCEPTED:
            return False
        for server, signed in zip(self.servers, signed_packets):
            server.credit(signed.client_id)
        return True

    def publish(self):
        shares = [server.publish() for server in self.servers]
        sigma = self.afe.field.vec_sum(shares)
        return self.afe.decode(sigma, self.servers[0].n_accepted)
