"""NIST P-256 elliptic-curve group, implemented from scratch.

The paper's NIZK comparison system "uses OpenSSL's NIST P256 code" via
a Go wrapper; with no crypto libraries available offline, this module
provides the same group: the short-Weierstrass curve
``y^2 = x^3 - 3x + b`` over the P-256 prime, with Jacobian-coordinate
arithmetic.

It serves three consumers:

* :mod:`repro.nizk` — ElGamal bit encryptions and Chaum-Pedersen proofs
  (the baseline Prio is compared against in Figures 4-7);
* :mod:`repro.crypto` — the ECIES "box" construction standing in for
  NaCl box, and Schnorr signatures for client registration;
* benchmarks — exponentiation counts and measured scalar-mult times
  feed Table 2 and the Figure 7 SNARK cost model.

Two multiplications, one group:

* :func:`fixed_base_mult` serves bases that repeat: the generator in the
  box seal and in Schnorr signing and verification, and the recipient's
  configured public key in the box seal.  Each base gets a table of
  affine multiples ``d * 64**i * point`` (43 windows x 32 points, about
  0.25 MB), built on first use with one batch inversion in about 25 ms
  on a 2-core x86-64 KVM guest, and kept in a 16-entry LRU cache.  A
  multiply is then one mixed addition per 6-bit signed digit and no
  doublings: about 0.4 ms against about 2.4 ms for :func:`scalar_mult`
  on the same host.  The base is validated (finite, on the curve) when
  its table is built.
* :func:`scalar_mult` serves bases seen once: the server's box open
  (the ephemeral point is attacker-chosen), key generation, the other
  half of Schnorr verification, and every :mod:`repro.nizk` operation.
  It uses a 4-bit fixed window with 256 doublings, and its time is what
  the Figure 7 model calls one "exponentiation".

Neither path runs in constant time: both branch and index on scalar
digits, and Python integer arithmetic is variable-time.

A module-level operation counter records scalar multiplications, one
per call of either function, so the benchmarks can report exact
"exponentiation" counts without profiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

# Curve parameters (FIPS 186-4, curve P-256).
P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
A = P - 3
B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5
#: order of the base point (a prime)
ORDER = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

_WINDOW_BITS = 4

#: fixed-base tables: signed 6-bit digits in [-31, 32], so each window
#: stores the multiples 1..32 of ``64**i * point``.  ORDER has 256 bits
#: and 43 windows cover 258, so the top digit is at most 15 plus a carry
#: and never carries out.
_FB_BITS = 6
_FB_WINDOWS = -(-ORDER.bit_length() // _FB_BITS)
_FB_HALF = 1 << (_FB_BITS - 1)


class EcError(ValueError):
    """Raised for invalid points or encodings."""


# ----------------------------------------------------------------------
# Operation counting (benchmark instrumentation)
# ----------------------------------------------------------------------

_scalar_mult_count = 0


def reset_op_counter() -> None:
    global _scalar_mult_count
    _scalar_mult_count = 0


def scalar_mult_count() -> int:
    """Scalar multiplications ("exponentiations") since the last reset."""
    return _scalar_mult_count


# ----------------------------------------------------------------------
# Points
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """An affine point; ``Point.INFINITY`` is the group identity."""

    x: int
    y: int
    infinity: bool = False

    def is_on_curve(self) -> bool:
        if self.infinity:
            return True
        x, y = self.x, self.y
        return (y * y - (x * x * x + A * x + B)) % P == 0

    def __add__(self, other: "Point") -> "Point":
        return _to_affine(_jac_add(_to_jacobian(self), _to_jacobian(other)))

    def __neg__(self) -> "Point":
        if self.infinity:
            return self
        return Point(self.x, (-self.y) % P)

    def __sub__(self, other: "Point") -> "Point":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "Point":
        return scalar_mult(scalar, self)

    # -- serialization -------------------------------------------------

    def encode(self) -> bytes:
        """SEC1 compressed encoding (33 bytes; identity is b'\\x00')."""
        if self.infinity:
            return b"\x00"
        prefix = 0x02 | (self.y & 1)
        return bytes([prefix]) + self.x.to_bytes(32, "big")

    @classmethod
    def decode(cls, data: bytes) -> "Point":
        if data == b"\x00":
            return INFINITY
        if len(data) != 33 or data[0] not in (0x02, 0x03):
            raise EcError("bad point encoding")
        x = int.from_bytes(data[1:], "big")
        if x >= P:
            raise EcError("x out of range")
        rhs = (x * x * x + A * x + B) % P
        # p = 3 (mod 4): sqrt by exponentiation.
        y = pow(rhs, (P + 1) // 4, P)
        if (y * y - rhs) % P != 0:
            raise EcError("point not on curve")
        if (y & 1) != (data[0] & 1):
            y = P - y
        return cls(x, y)


INFINITY = Point(0, 0, infinity=True)
GENERATOR = Point(GX, GY)


# ----------------------------------------------------------------------
# Jacobian arithmetic (x = X/Z^2, y = Y/Z^3)
# ----------------------------------------------------------------------

_JacPoint = tuple[int, int, int]  # Z == 0 encodes infinity

_JAC_INFINITY: _JacPoint = (1, 1, 0)


def _to_jacobian(point: Point) -> _JacPoint:
    if point.infinity:
        return _JAC_INFINITY
    return (point.x, point.y, 1)


def _to_affine(jac: _JacPoint) -> Point:
    x, y, z = jac
    if z == 0:
        return INFINITY
    z_inv = pow(z, -1, P)
    z_inv2 = z_inv * z_inv % P
    return Point(x * z_inv2 % P, y * z_inv2 % P * z_inv % P)


def _jac_double(point: _JacPoint) -> _JacPoint:
    x, y, z = point
    if z == 0 or y == 0:
        return _JAC_INFINITY
    # dbl-2001-b (a = -3 specialisation).
    delta = z * z % P
    gamma = y * y % P
    beta = x * gamma % P
    alpha = 3 * (x - delta) * (x + delta) % P
    x3 = (alpha * alpha - 8 * beta) % P
    z3 = ((y + z) * (y + z) - gamma - delta) % P
    y3 = (alpha * (4 * beta - x3) - 8 * gamma * gamma) % P
    return (x3, y3, z3)


def _jac_add(p1: _JacPoint, p2: _JacPoint) -> _JacPoint:
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    if z1 == 0:
        return p2
    if z2 == 0:
        return p1
    z1z1 = z1 * z1 % P
    z2z2 = z2 * z2 % P
    u1 = x1 * z2z2 % P
    u2 = x2 * z1z1 % P
    s1 = y1 * z2 % P * z2z2 % P
    s2 = y2 * z1 % P * z1z1 % P
    if u1 == u2:
        if s1 != s2:
            return _JAC_INFINITY
        return _jac_double(p1)
    h = (u2 - u1) % P
    i = (2 * h) * (2 * h) % P
    j = h * i % P
    r = 2 * (s2 - s1) % P
    v = u1 * i % P
    x3 = (r * r - j - 2 * v) % P
    y3 = (r * (v - x3) - 2 * s1 * j) % P
    z3 = ((z1 + z2) * (z1 + z2) - z1z1 - z2z2) % P * h % P
    return (x3, y3, z3)


def scalar_mult(scalar: int, point: Point) -> Point:
    """``scalar * point`` via a fixed 4-bit window."""
    global _scalar_mult_count
    _scalar_mult_count += 1
    scalar %= ORDER
    if scalar == 0 or point.infinity:
        return INFINITY
    base = _to_jacobian(point)
    # Precompute 0..15 multiples.
    table: list[_JacPoint] = [_JAC_INFINITY, base]
    for i in range(2, 1 << _WINDOW_BITS):
        table.append(_jac_add(table[i - 1], base))
    acc = _JAC_INFINITY
    n_windows = (scalar.bit_length() + _WINDOW_BITS - 1) // _WINDOW_BITS
    for w in range(n_windows - 1, -1, -1):
        if acc[2] != 0:
            for _ in range(_WINDOW_BITS):
                acc = _jac_double(acc)
        digit = (scalar >> (w * _WINDOW_BITS)) & ((1 << _WINDOW_BITS) - 1)
        if digit:
            acc = _jac_add(acc, table[digit])
    return _to_affine(acc)


@lru_cache(maxsize=16)
def _fixed_base_table(point: Point) -> tuple[tuple[int, int], ...]:
    """Affine ``d * 64**i * point`` at index ``i * 32 + d - 1``.

    Built in Jacobian coordinates, then normalised with one Montgomery
    batch inversion.  No entry is the identity: ORDER is prime and
    larger than every ``d * 64**i``.
    """
    if point.infinity:
        raise EcError("fixed-base point is the identity")
    if not (0 <= point.x < P and 0 <= point.y < P and point.is_on_curve()):
        raise EcError("fixed-base point is not on the curve")
    jacobian: list[_JacPoint] = []
    base = _to_jacobian(point)
    for _ in range(_FB_WINDOWS):
        multiple = base
        jacobian.append(multiple)
        for _ in range(_FB_HALF - 1):
            multiple = _jac_add(multiple, base)
            jacobian.append(multiple)
        base = _jac_double(multiple)
    prefix = [1]
    for _, _, z in jacobian:
        prefix.append(prefix[-1] * z % P)
    inverse = pow(prefix[-1], -1, P)
    table: list[tuple[int, int]] = [(0, 0)] * len(jacobian)
    for i in range(len(jacobian) - 1, -1, -1):
        x, y, z = jacobian[i]
        z_inv = inverse * prefix[i] % P
        inverse = inverse * z % P
        z_inv2 = z_inv * z_inv % P
        table[i] = (x * z_inv2 % P, y * z_inv2 % P * z_inv % P)
    return tuple(table)


def fixed_base_mult(scalar: int, point: Point) -> Point:
    """``scalar * point`` from a cached per-point table, no doublings.

    Equal to :func:`scalar_mult` for every scalar and every finite
    point on the curve; counts as one scalar multiplication.  Raises
    :class:`EcError` when ``point`` is the identity or off the curve.
    """
    global _scalar_mult_count
    _scalar_mult_count += 1
    table = _fixed_base_table(point)
    scalar %= ORDER
    x1 = y1 = z1 = 0  # z1 == 0: the accumulator is the identity
    index = -1
    while scalar:
        digit = scalar & (2 * _FB_HALF - 1)
        scalar >>= _FB_BITS
        if digit > _FB_HALF:
            digit -= 2 * _FB_HALF
            scalar += 1
        index += 1
        if not digit:
            continue
        if digit > 0:
            x2, y2 = table[index * _FB_HALF + digit - 1]
        else:
            x2, y2 = table[index * _FB_HALF - digit - 1]
            y2 = P - y2
        if z1 == 0:
            x1, y1, z1 = x2, y2, 1
            continue
        # Mixed Jacobian + affine addition (madd-2004-hmv).  Its
        # doubling and inverse cases cannot arise: the accumulator is
        # ``partial * point`` with ``0 < |partial| < 64**index`` and the
        # entry is ``digit * 64**index * point``; as the reduced scalar
        # is below ORDER, the two multipliers are never congruent, nor
        # opposite, modulo ORDER.
        zz = z1 * z1 % P
        h = (x2 * zz - x1) % P
        r = (y2 * zz % P * z1 - y1) % P
        hh = h * h % P
        hhh = hh * h % P
        v = x1 * hh % P
        x1 = (r * r - hhh - 2 * v) % P
        y1 = (r * (v - x1) - y1 * hhh) % P
        z1 = z1 * h % P
    return _to_affine((x1, y1, z1))


def multi_scalar_mult(pairs: list[tuple[int, Point]]) -> Point:
    """Sum of scalar multiples (simple loop; adequate for the baseline)."""
    acc = _JAC_INFINITY
    for scalar, point in pairs:
        acc = _jac_add(acc, _to_jacobian(scalar_mult(scalar, point)))
    return _to_affine(acc)


def random_scalar(rng) -> int:
    """A uniform nonzero scalar mod the group order."""
    return rng.randrange(1, ORDER)
