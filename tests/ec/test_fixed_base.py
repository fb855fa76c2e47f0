"""Differential tests: the fixed-base table multiply against scalar_mult."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import (
    GENERATOR,
    INFINITY,
    ORDER,
    EcError,
    Point,
    fixed_base_mult,
    random_scalar,
    reset_op_counter,
    scalar_mult,
    scalar_mult_count,
)
from repro.ec.p256 import GX, GY, P, _fixed_base_table

_KEY = scalar_mult(random_scalar(random.Random(7)), GENERATOR)

EDGE_SCALARS = [
    0,
    1,
    2,
    31,
    32,
    33,
    ORDER - 1,
    ORDER,
    ORDER + 1,
    2**256 - 1,
    2**252 - 1,  # every digit recodes to -1 with a carry
    sum(33 * 64**i for i in range(42)),  # every digit -31 plus a carry
    15 * 2**252 + 32,  # the largest top digit before reduction
]


@pytest.fixture
def rng():
    return random.Random(6464)


@pytest.mark.parametrize("base", [GENERATOR, _KEY], ids=["G", "key"])
@pytest.mark.parametrize("scalar", EDGE_SCALARS)
def test_edge_scalars_match_scalar_mult(base, scalar):
    assert fixed_base_mult(scalar, base) == scalar_mult(scalar, base)


def test_random_keys_match_scalar_mult(rng):
    for _ in range(4):
        key = scalar_mult(random_scalar(rng), GENERATOR)
        for _ in range(5):
            k = rng.randrange(2**256)
            assert fixed_base_mult(k, key) == scalar_mult(k, key)


@given(k=st.integers(0, 2**256 - 1), use_key=st.booleans())
@settings(max_examples=40, deadline=None)
def test_property_matches_scalar_mult(k, use_key):
    base = _KEY if use_key else GENERATOR
    assert fixed_base_mult(k, base) == scalar_mult(k, base)


def test_counts_one_exponentiation_per_call(rng):
    fixed_base_mult(1, _KEY)  # the table build is not a multiply
    reset_op_counter()
    fixed_base_mult(random_scalar(rng), _KEY)
    assert scalar_mult_count() == 1
    fixed_base_mult(random_scalar(rng), GENERATOR)
    assert scalar_mult_count() == 2


def test_table_cache_stays_bounded(rng):
    maxsize = _fixed_base_table.cache_info().maxsize
    for _ in range(100):
        key = scalar_mult(random_scalar(rng), GENERATOR)
        k = random_scalar(rng)
        assert fixed_base_mult(k, key) == scalar_mult(k, key)
    assert _fixed_base_table.cache_info().currsize == maxsize == 16


def test_table_is_built_once_per_base(rng):
    key = scalar_mult(random_scalar(rng), GENERATOR)
    misses = _fixed_base_table.cache_info().misses
    fixed_base_mult(random_scalar(rng), key)
    fixed_base_mult(random_scalar(rng), key)
    assert _fixed_base_table.cache_info().misses == misses + 1


@pytest.mark.parametrize(
    "bad",
    [INFINITY, Point(GX, GY + 1), Point(GX + P, GY)],
    ids=["identity", "off-curve", "non-canonical"],
)
def test_rejects_unsafe_base(bad):
    with pytest.raises(EcError):
        fixed_base_mult(5, bad)
    with pytest.raises(EcError):
        fixed_base_mult(0, bad)
