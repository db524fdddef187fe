"""Tests for repro.units."""

import math

import pytest
from hypothesis import given, strategies as st

from repro import units


def test_length_scale_chain():
    assert units.MM == 1e-3 * units.M
    assert units.UM == 1e-3 * units.MM
    assert units.NM == 1e-3 * units.UM


def test_frequency_scale_chain():
    assert units.GHZ == 1e3 * units.MHZ == 1e6 * units.KHZ == 1e9 * units.HZ


def test_mu0_matches_definition():
    assert units.MU_0 == pytest.approx(4 * math.pi * 1e-7)


def test_db_of_unity_is_zero():
    assert units.db(1.0) == 0.0


def test_db_of_ten_is_twenty():
    assert units.db(10.0) == pytest.approx(20.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, -1e-12])
def test_db_rejects_non_positive(bad):
    with pytest.raises(ValueError):
        units.db(bad)


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_db_roundtrip(ratio):
    assert 10.0 ** (units.db(ratio) / 20.0) == pytest.approx(ratio, rel=1e-9)
