"""The decibel conversions `config` loads scenario files with."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdpowerctl.config import db_to_linear, dbm_to_watt


def test_dbm_decade_identities():
    assert dbm_to_watt(30.0) == 1.0
    assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert dbm_to_watt(-113.0) == pytest.approx(10 ** -14.3, rel=1e-15)
    assert dbm_to_watt(-113.0) == pytest.approx(5.01187e-15, rel=1e-5)


def test_db_decade_identities():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(-120.0) == pytest.approx(1e-12, rel=1e-15)
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)


# the inverses, 10 log10(.) (+ 30 for dBm), are written out: nothing in the
# package converts back to decibels


@given(st.floats(min_value=-200.0, max_value=60.0))
def test_dbm_round_trip(x):
    assert 10.0 * math.log10(dbm_to_watt(x)) + 30.0 == pytest.approx(x, rel=1e-12, abs=1e-12)


@given(st.floats(min_value=-200.0, max_value=60.0))
def test_db_round_trip(x):
    assert 10.0 * math.log10(db_to_linear(x)) == pytest.approx(x, rel=1e-12, abs=1e-12)


def test_paper_circuit_power_derivations():
    # direct decade arithmetic, checkable with any calculator
    ue_p_cir = 2 * dbm_to_watt(26.0) + dbm_to_watt(20.0)
    assert ue_p_cir == pytest.approx(2 * 10 ** -0.4 + 10 ** -1, rel=1e-15)
    assert ue_p_cir == pytest.approx(0.896214, rel=1e-6)
    hbs_p_cir = 2 * dbm_to_watt(38.0) + dbm_to_watt(27.0)
    assert hbs_p_cir == pytest.approx(2 * 10 ** 0.8 + 10 ** -0.3, rel=1e-15)
    assert hbs_p_cir == pytest.approx(13.1204, rel=1e-5)
