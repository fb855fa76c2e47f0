"""Tests for the crypto substrate (stream, HKDF, box, signatures)."""

import random

import pytest

from repro.crypto import (
    BoxKeyPair,
    CryptoError,
    SigningKeyPair,
    box_overhead,
    hkdf_sha256,
    keystream,
    mac_tag,
    mac_verify,
    open_box,
    seal,
    sealed_overhead,
    sign,
    stream_xor,
    verify,
    verify_or_raise,
)
from repro.ec import GENERATOR, INFINITY, Point


@pytest.fixture
def rng():
    return random.Random(5566)


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------


def test_hkdf_deterministic_and_length():
    out1 = hkdf_sha256(b"ikm", b"salt", b"info", 64)
    out2 = hkdf_sha256(b"ikm", b"salt", b"info", 64)
    assert out1 == out2
    assert len(out1) == 64


def test_hkdf_separates_inputs():
    assert hkdf_sha256(b"a", b"s", b"i", 32) != hkdf_sha256(b"b", b"s", b"i", 32)
    assert hkdf_sha256(b"a", b"s", b"i", 32) != hkdf_sha256(b"a", b"t", b"i", 32)
    assert hkdf_sha256(b"a", b"s", b"i", 32) != hkdf_sha256(b"a", b"s", b"j", 32)


def test_hkdf_length_limit():
    with pytest.raises(CryptoError):
        hkdf_sha256(b"x", b"", b"", 255 * 32 + 1)


def test_keystream_requires_proper_key():
    with pytest.raises(CryptoError):
        keystream(b"short", b"nonce", 10)


def test_stream_xor_roundtrip():
    key = bytes(range(32))
    data = b"the quick brown fox" * 10
    ct = stream_xor(key, b"nonce-1", data)
    assert ct != data
    assert stream_xor(key, b"nonce-1", ct) == data


@pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 4000])
def test_stream_xor_matches_per_byte_reference(length):
    key = bytes(range(32))
    data = random.Random(length).randbytes(length)
    stream = keystream(key, b"nonce-1", length)
    expected = bytes(a ^ b for a, b in zip(data, stream))
    assert stream_xor(key, b"nonce-1", data) == expected


def test_stream_nonce_separation():
    key = bytes(range(32))
    assert stream_xor(key, b"n1", b"hello") != stream_xor(key, b"n2", b"hello")


def test_mac_roundtrip():
    tag = mac_tag(b"k" * 32, b"message")
    assert mac_verify(b"k" * 32, b"message", tag)
    assert not mac_verify(b"k" * 32, b"messagX", tag)
    assert not mac_verify(b"j" * 32, b"message", tag)


# ----------------------------------------------------------------------
# Box
# ----------------------------------------------------------------------


def test_box_roundtrip(rng):
    keypair = BoxKeyPair.generate(rng)
    message = b"client submission payload" * 4
    sealed = seal(keypair.public, message, rng)
    assert open_box(keypair, sealed) == message


def test_box_overhead_constant(rng):
    keypair = BoxKeyPair.generate(rng)
    for size in (0, 10, 1000):
        sealed = seal(keypair.public, b"x" * size, rng)
        assert len(sealed) == size + box_overhead()


def test_sealed_overhead_accounts_for_the_envelope():
    # a sealed *packet* on the wire = 21-byte envelope + the box
    from repro.protocol.wire import ENVELOPE_SIZE

    assert ENVELOPE_SIZE == 21
    assert sealed_overhead() == box_overhead() + ENVELOPE_SIZE


def test_box_associated_data_binds(rng):
    keypair = BoxKeyPair.generate(rng)
    sealed = seal(keypair.public, b"payload", rng, associated_data=b"env-A")
    assert open_box(keypair, sealed, associated_data=b"env-A") == b"payload"
    # grafting: same box, different associated data -> MAC failure
    with pytest.raises(CryptoError):
        open_box(keypair, sealed, associated_data=b"env-B")
    with pytest.raises(CryptoError):
        open_box(keypair, sealed)
    # and an ad-less box refuses an attacker-supplied ad
    plain = seal(keypair.public, b"payload", rng)
    with pytest.raises(CryptoError):
        open_box(keypair, plain, associated_data=b"env-A")


def test_box_ad_boundary_is_unambiguous(rng):
    # length-prefixed MAC input: moving a byte across the ad/ciphertext
    # boundary must not authenticate
    keypair = BoxKeyPair.generate(rng)
    sealed = seal(keypair.public, b"xyz", rng, associated_data=b"ab")
    with pytest.raises(CryptoError):
        open_box(keypair, sealed, associated_data=b"abx")


def test_box_malformed_ephemeral_point_is_typed(rng):
    # garbage point bytes must surface as CryptoError, not a bare
    # EcError/ValueError that batch callers cannot classify
    keypair = BoxKeyPair.generate(rng)
    sealed = bytearray(seal(keypair.public, b"secret", rng))
    sealed[0] = 0x07  # invalid compressed-point prefix
    with pytest.raises(CryptoError, match="ephemeral point"):
        open_box(keypair, bytes(sealed))
    off_curve = b"\x02" + b"\xff" * 32 + bytes(sealed[33:])
    with pytest.raises(CryptoError, match="ephemeral point"):
        open_box(keypair, off_curve)


def test_box_tamper_detected(rng):
    keypair = BoxKeyPair.generate(rng)
    sealed = bytearray(seal(keypair.public, b"secret", rng))
    sealed[-1] ^= 1
    with pytest.raises(CryptoError):
        open_box(keypair, bytes(sealed))


def test_box_wrong_key_fails(rng):
    alice = BoxKeyPair.generate(rng)
    bob = BoxKeyPair.generate(rng)
    sealed = seal(alice.public, b"for alice", rng)
    with pytest.raises(CryptoError):
        open_box(bob, sealed)


def test_box_too_short(rng):
    keypair = BoxKeyPair.generate(rng)
    with pytest.raises(CryptoError):
        open_box(keypair, b"tiny")


def test_box_randomized(rng):
    keypair = BoxKeyPair.generate(rng)
    s1 = seal(keypair.public, b"same message", rng)
    s2 = seal(keypair.public, b"same message", rng)
    assert s1 != s2  # fresh ephemeral key per box


def test_box_default_rng():
    keypair = BoxKeyPair.generate()
    sealed = seal(keypair.public, b"os-random path")
    assert open_box(keypair, sealed) == b"os-random path"


def test_box_default_rng_never_uses_mersenne_twister(monkeypatch):
    # Regression: the default rng for long-term secrets and ephemeral
    # scalars must be the OS CSPRNG (random.SystemRandom), never a
    # seeded random.Random.  Detonate random.Random: the default path
    # must not touch it.
    class _Detonator:
        def __init__(self, *args, **kwargs):
            raise AssertionError(
                "default box rng constructed random.Random"
            )

    monkeypatch.setattr(random, "Random", _Detonator)
    keypair = BoxKeyPair.generate()
    sealed = seal(keypair.public, b"csprng only")
    assert open_box(keypair, sealed) == b"csprng only"


@pytest.mark.parametrize(
    "recipient",
    [INFINITY, Point(GENERATOR.x, GENERATOR.y + 1)],
    ids=["identity", "off-curve"],
)
def test_box_rejects_unsafe_recipient_key(rng, recipient):
    # Regression: sealing to the identity made the shared secret the
    # identity, so the keys came from public bytes and anyone could
    # open the box; an off-curve key was accepted silently.
    with pytest.raises(CryptoError):
        seal(recipient, b"secret", rng)


# ----------------------------------------------------------------------
# Signatures
# ----------------------------------------------------------------------


def test_sign_verify_roundtrip(rng):
    keypair = SigningKeyPair.generate(rng)
    message = b"client registration"
    signature = sign(keypair, message, rng)
    assert verify(keypair.public, message, signature)


def test_signature_rejects_wrong_message(rng):
    keypair = SigningKeyPair.generate(rng)
    signature = sign(keypair, b"original", rng)
    assert not verify(keypair.public, b"forged", signature)


def test_signature_rejects_wrong_key(rng):
    alice = SigningKeyPair.generate(rng)
    eve = SigningKeyPair.generate(rng)
    signature = sign(alice, b"msg", rng)
    assert not verify(eve.public, b"msg", signature)


def test_signature_rejects_malformed(rng):
    keypair = SigningKeyPair.generate(rng)
    assert not verify(keypair.public, b"msg", b"junk")
    assert not verify(keypair.public, b"msg", b"\x00" * 65)
    sig = bytearray(sign(keypair, b"msg", rng))
    sig[0] = 0x07  # invalid point prefix
    assert not verify(keypair.public, b"msg", bytes(sig))


def test_verify_or_raise(rng):
    keypair = SigningKeyPair.generate(rng)
    signature = sign(keypair, b"ok", rng)
    verify_or_raise(keypair.public, b"ok", signature)
    with pytest.raises(CryptoError):
        verify_or_raise(keypair.public, b"not ok", signature)


def test_signature_deterministic_keygen(rng):
    a = SigningKeyPair.generate(random.Random(1))
    b = SigningKeyPair.generate(random.Random(1))
    assert a.secret == b.secret
    assert a.public == b.public


def test_sign_default_rng_never_uses_mersenne_twister(monkeypatch):
    # Signing keys and Schnorr nonces must come from the OS CSPRNG
    # (random.SystemRandom) by default, never a seeded random.Random.
    class _Detonator:
        def __init__(self, *args, **kwargs):
            raise AssertionError(
                "default signing rng constructed random.Random"
            )

    monkeypatch.setattr(random, "Random", _Detonator)
    keypair = SigningKeyPair.generate()
    signature = sign(keypair, b"csprng only")
    assert verify(keypair.public, b"csprng only", signature)
