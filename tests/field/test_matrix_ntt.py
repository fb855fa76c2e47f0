"""Differential tests for the matrix-radix numpy NTT.

The numpy backend runs NTTs as four-step passes of float64 matmuls
(:func:`repro.field.batch._np_ntt`).  Every case here must equal the
scalar :func:`repro.field.ntt` / :func:`repro.field.intt` bit for bit:
one, two and three passes, sizes that are not a power of 32, a row
count one past a tile, 1-D vectors, and the all-zero and all-``p-1``
rows that give the largest lazy sums.
"""

import random

import pytest

from repro.field import (
    FIELD64,
    FIELD87,
    FIELD265,
    FIELD_SMALL,
    FIELD_TINY,
    STANDARD_FIELDS,
    BatchVector,
    PrimeField,
    intt,
    ntt,
    use_numpy,
)
from repro.field.batch import (
    _NTT_TILE_ELEMENTS,
    LIMB_BITS,
    _ctx,
    _ntt_plan,
)

pytestmark = pytest.mark.skipif(
    not use_numpy(None), reason="exercises the numpy NTT kernel"
)

#: one 24-bit limb with no lazy headroom (3p > 2^24), the field of
#: test_ntt_exact_fallback_on_headroom_starved_modulus: radix 2
F24 = PrimeField(
    modulus=33 * (1 << 18) + 1, two_adicity=18, generator=10,
    name="F8650753",
)

#: p > 2^23.5, so even 2*p^2 >= 2^48: the radix bound alone would allow
#: no radix at all, and the kernel falls back to radix 2
F24_TOP = PrimeField(
    modulus=13 * (1 << 20) + 1, two_adicity=20, generator=3,
    name="F13631489",
)

FIELDS = [FIELD87, FIELD265, FIELD64, FIELD_SMALL, FIELD_TINY, F24]
SIZES = [1, 2, 4, 32, 64, 1024, 2048, 4096]
#: every (field, size) pair the field has a domain for
CASES = [
    pytest.param(field, size, id=f"{field.name}-{size}")
    for field in FIELDS for size in SIZES
    if size <= 1 << field.two_adicity
]


def field_id(field):
    return field.name


def random_rows(field, n_rows, size, rng):
    rows = [[rng.randrange(field.modulus) for _ in range(size)]
            for _ in range(n_rows)]
    if n_rows >= 3:
        rows[1] = [0] * size
        rows[2] = [field.modulus - 1] * size
    return rows


def assert_matches_scalar(field, rows, size):
    root = field.root_of_unity(size)
    batch = BatchVector.from_ints(field, rows, force_pure=False)
    assert batch.ntt(root).to_ints() == [ntt(field, r, root) for r in rows]
    assert batch.intt(root).to_ints() == [intt(field, r, root) for r in rows]


@pytest.mark.parametrize("field,size", CASES)
@pytest.mark.parametrize("rows", ["one", "three", "tile+1"])
def test_matrix_ntt_matches_scalar(field, size, rows):
    n_rows = {
        "one": 1,
        "three": 3,
        "tile+1": max(1, _NTT_TILE_ELEMENTS // size) + 1,
    }[rows]
    rng = random.Random(f"{field.name}:{size}:{rows}")
    assert_matches_scalar(field, random_rows(field, n_rows, size, rng), size)


@pytest.mark.parametrize("field", FIELDS, ids=field_id)
def test_matrix_ntt_one_dimensional(field):
    rng = random.Random(field.name)
    for size in (1, 2, 32, 64, 1024):
        if size > 1 << field.two_adicity:
            continue
        root = field.root_of_unity(size)
        row = [rng.randrange(field.modulus) for _ in range(size)]
        vec = BatchVector.from_ints(field, row, force_pure=False)
        assert vec.ntt(root).to_ints() == ntt(field, row, root)
        assert vec.intt(root).to_ints() == intt(field, row, root)


@pytest.mark.parametrize("field", FIELDS + [F24_TOP], ids=field_id)
def test_matrix_ntt_extreme_rows(field):
    """All-zero and all-``p-1`` rows, alone and mixed with random ones."""
    rng = random.Random(f"extreme:{field.name}")
    for size in (2, 32, 64, 1024, 4096):
        if size > 1 << field.two_adicity:
            continue
        top = [field.modulus - 1] * size
        assert_matches_scalar(field, [top], size)
        assert_matches_scalar(field, [[0] * size, top], size)
        assert_matches_scalar(field, random_rows(field, 4, size, rng), size)


def test_matrix_ntt_empty_rows():
    """Zero-width rows pass through, as in the scalar transform."""
    for field in FIELDS:
        batch = BatchVector.from_ints(field, [[], []], force_pure=False)
        assert batch.ntt(1).to_ints() == [ntt(field, [], 1)] * 2


@pytest.mark.parametrize("size,passes", [(32, 1), (1024, 2), (2048, 3)])
def test_pass_counts(size, passes):
    """32 and 1024 run as one and two radix-32 passes; 2048 is not a
    power of 32 and needs a third."""
    plan = _ntt_plan(_ctx(FIELD87), size, FIELD87.root_of_unity(size))
    assert len(plan) == passes


@pytest.mark.parametrize(
    "field", list(STANDARD_FIELDS.values()) + FIELDS[3:], ids=field_id
)
def test_derived_radix_meets_both_bounds(field):
    ctx = _ctx(field)
    p, L, r = field.modulus, ctx.n_limbs, ctx.ntt_radix
    assert r in (2, 4, 8, 16, 32)
    # float64 exactness: every matmul partial sum is an integer < 2^53
    assert r * ((1 << LIMB_BITS) - 1) ** 2 < 1 << 53
    # lazy residues below 3p fit L limbs, or every pass is canonical
    assert ctx.ntt_lazy == (3 * p < 1 << (LIMB_BITS * L))
    c = 3 if ctx.ntt_lazy else 1
    # a pass's DFT output stays inside Barrett's base^(2L) domain ...
    assert r * c * p * p < 1 << (2 * LIMB_BITS * L)
    # ... and the radix is the largest that does
    assert r == 32 or 2 * r * c * p * p >= 1 << (2 * LIMB_BITS * L)


def test_radix_follows_headroom():
    for field in STANDARD_FIELDS.values():
        assert (_ctx(field).ntt_lazy, _ctx(field).ntt_radix) == (True, 32)
    assert (_ctx(F24).ntt_lazy, _ctx(F24).ntt_radix) == (False, 2)
    # 2*p^2 >= 2^48 here, yet radix 2 stays exact: column 0 of every
    # DFT matrix is all ones, so a radix-2 row sums to at most p
    top = _ctx(F24_TOP)
    assert 2 * F24_TOP.modulus ** 2 >= 1 << (2 * LIMB_BITS)
    assert (top.ntt_lazy, top.ntt_radix) == (False, 2)
