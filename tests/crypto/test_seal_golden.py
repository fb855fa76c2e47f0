"""Golden bytes: seal, seal_packet and sign under a seeded rng.

The hex strings were recorded from the variable-base implementation
(``scalar_mult`` for every multiply, per-byte ``stream_xor``).  The
fixed-base path draws the same scalars and computes the same points,
so every byte must stay the same.
"""

import hashlib
import random

from repro.crypto import BoxKeyPair, SigningKeyPair, open_box, seal, sign, verify
from repro.protocol.wire import ClientPacket, PacketKind, seal_packet

GOLDEN = {
    "seal_small": (
        "0337327c23e016894fb0c25dd4737ac0500a4955e9fa57e6c505676f52a78079"
        "8cf1ad7d2571abc70371498a948e51643b3cc9dfad41548379e7a5553344fa24"
    ),
    "seal_ad": (
        "03c4ab47a224567a239a6a9c65515cfe4e92b576b8a636c607ad733345ba77ee"
        "897a9897e578dc928b7be8c76d5a022a21"
    ),
    "seal_big_sha256": (
        "fbdc0af374b5f6ad1582ec2c07a78f28fed99646d65edebfd9693ce0a8389851"
    ),
    "seal_packet_seed": (
        "505301000102030405060708090a0b0c0d0e0f0001037672fe959936a67eebee"
        "b6dda64b0ae8fb53085609a873f6f1556dc03778ee9087982ad01d9d758b08c1"
        "d7051bec1d767a2718bf498e1a61833a8eb925084df917b5fabc1d7803dd6411"
        "5e385dd3afcecebb6e93de5eb9d93728"
    ),
    "seal_packet_explicit": (
        "505301101112131415161718191a1b1c1d1e1f00000212f6f3e5ad4b72308f76"
        "275e9023e919248b0780207756b8703e1ec8c0a8d9e89d2d02e011e5af6b778e"
        "440eb5eb30dd8006b90ac07ccaa10f9b25809b6c927c475163022d5fc08379c0"
        "5b2d15619c453daca7e7ae820fc6a3d65f375f9f56d4d7da6e5966ed047257ca"
    ),
    "signature": (
        "0253d44607096efb732eab547f9245e864bffa823c0f591228d302d844f48e58"
        "aac4e42673a73f114f348911b655caac0e986f1061b252645c7e55c10015af34"
        "46"
    ),
}


def test_sealed_and_signed_bytes_match_golden():
    rng = random.Random(20170327)
    keypair = BoxKeyPair.generate(rng)
    assert seal(keypair.public, b"prio golden box", rng).hex() == (
        GOLDEN["seal_small"]
    )
    assert seal(keypair.public, b"", rng, associated_data=b"envelope").hex() == (
        GOLDEN["seal_ad"]
    )
    big = bytes(rng.getrandbits(8) for _ in range(4000))
    sealed_big = seal(keypair.public, big, rng)
    assert hashlib.sha256(sealed_big).hexdigest() == GOLDEN["seal_big_sha256"]
    assert open_box(keypair, sealed_big) == big

    seed_packet = ClientPacket(
        bytes(range(16)), 1, PacketKind.SEED, 868, bytes(range(100, 116))
    )
    assert seal_packet(keypair.public, seed_packet, rng).hex() == (
        GOLDEN["seal_packet_seed"]
    )
    explicit_packet = ClientPacket(
        bytes(range(16, 32)), 0, PacketKind.EXPLICIT, 4, bytes(range(32))
    )
    assert seal_packet(keypair.public, explicit_packet, rng).hex() == (
        GOLDEN["seal_packet_explicit"]
    )

    signer = SigningKeyPair.generate(rng)
    signature = sign(signer, b"client registration", rng)
    assert signature.hex() == GOLDEN["signature"]
    assert verify(signer.public, b"client registration", signature)
