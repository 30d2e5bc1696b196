"""Neighborhood geometry over Z^k."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ca_signals.lattice import (Neighborhood, all_ones, format_offset,
                                in_light_cone, offsets, parity_valid,
                                parse_offset)


def test_offset_counts():
    assert len(offsets(Neighborhood("moore", 2))) == 9
    assert len(offsets(Neighborhood("von_neumann", 2))) == 5
    assert len(offsets(Neighborhood("trellis", 2))) == 4
    assert len(offsets(Neighborhood("moore", 3))) == 27
    assert len(offsets(Neighborhood("von_neumann", 3))) == 7
    assert len(offsets(Neighborhood("trellis", 3))) == 8


def test_trellis_offsets_have_unit_coordinates():
    for x in offsets(Neighborhood("trellis", 3)):
        assert all(abs(a) == 1 for a in x)


def test_offsets_are_lexicographically_sorted():
    for kind in ("moore", "von_neumann", "trellis"):
        for dim in (1, 2, 3):
            xs = offsets(Neighborhood(kind, dim))
            assert list(xs) == sorted(xs)
            assert len(set(xs)) == len(xs)


def test_bad_neighborhood_rejected():
    with pytest.raises(ValueError):
        Neighborhood("hexagonal", 2)
    with pytest.raises(ValueError):
        Neighborhood("moore", 0)


def test_light_cone():
    assert in_light_cone((0, 0), 0)
    assert in_light_cone((2, -2), 2)
    assert not in_light_cone((3, 0), 2)
    assert not in_light_cone((0, -3), 2)


def test_trellis_parity():
    tre = Neighborhood("trellis", 2)
    # live trellis cells need every u_a + t even
    assert parity_valid((0, 0), 0, tre)
    assert parity_valid((1, -1), 1, tre)
    assert not parity_valid((1, 0), 1, tre)
    assert parity_valid((2, 0), 2, tre)
    assert not parity_valid((2, 1), 2, tre)


def test_offset_text_round_trip():
    assert parse_offset("(-1,1)") == (-1, 1)
    assert parse_offset(" ( 1 , 1 ) ") == (1, 1)
    assert format_offset((-1, 1)) == "(-1,1)"
    with pytest.raises(ValueError):
        parse_offset("(1,2)", dim=3)
    with pytest.raises(ValueError):
        parse_offset("1,2,")


def test_vector_helpers():
    assert all_ones(3) == (1, 1, 1)


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4))
def test_parse_format_inverse(coords):
    x = tuple(coords)
    assert parse_offset(format_offset(x)) == x


@given(st.integers(1, 4), st.integers(0, 30), st.data())
def test_light_cone_is_max_norm(dim, t, data):
    cell = tuple(data.draw(st.integers(-40, 40)) for _ in range(dim))
    assert in_light_cone(cell, t) == (max(abs(a) for a in cell) <= t)
