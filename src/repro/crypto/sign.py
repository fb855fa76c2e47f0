"""Schnorr signatures over P-256.

Used by the protocol layer's client-registration defence against the
selective denial-of-service / Sybil attacks of Section 7: "Prio clients
sign their submissions with the signing key corresponding to their
registered public key and the servers wait to publish their accumulator
values until a threshold number of registered clients have submitted
valid messages."

Standard Fiat-Shamir Schnorr:  R = kG,  e = H(R || pub || msg),
s = k + e*x (mod order);  verify  sG == R + e*Pub.
"""

from __future__ import annotations

import hashlib
import random as _random
from dataclasses import dataclass

from repro.crypto.primitives import CryptoError
from repro.ec.p256 import (
    GENERATOR,
    ORDER,
    Point,
    fixed_base_mult,
    random_scalar,
    scalar_mult,
)


@dataclass(frozen=True)
class SigningKeyPair:
    secret: int
    public: Point

    @classmethod
    def generate(cls, rng=None) -> "SigningKeyPair":
        if rng is None:
            rng = _random.SystemRandom()
        secret = random_scalar(rng)
        return cls(secret=secret, public=scalar_mult(secret, GENERATOR))


def _challenge(nonce_point: Point, public: Point, message: bytes) -> int:
    digest = hashlib.sha256(
        b"prio-schnorr" + nonce_point.encode() + public.encode() + message
    ).digest()
    return int.from_bytes(digest, "big") % ORDER


def sign(keypair: SigningKeyPair, message: bytes, rng=None) -> bytes:
    """Produce a 65-byte signature (33-byte R point + 32-byte scalar)."""
    if rng is None:
        rng = _random.SystemRandom()
    k = random_scalar(rng)
    nonce_point = fixed_base_mult(k, GENERATOR)
    e = _challenge(nonce_point, keypair.public, message)
    s = (k + e * keypair.secret) % ORDER
    return nonce_point.encode() + s.to_bytes(32, "big")


def verify(public: Point, message: bytes, signature: bytes) -> bool:
    """Check a signature; False (never an exception) on any mismatch."""
    if len(signature) != 33 + 32:
        return False
    try:
        nonce_point = Point.decode(signature[:33])
    except Exception:
        return False
    s = int.from_bytes(signature[33:], "big")
    if s >= ORDER:
        return False
    e = _challenge(nonce_point, public, message)
    lhs = fixed_base_mult(s, GENERATOR)
    rhs = nonce_point + scalar_mult(e, public)
    return lhs == rhs


def verify_or_raise(public: Point, message: bytes, signature: bytes) -> None:
    if not verify(public, message, signature):
        raise CryptoError("bad signature")
