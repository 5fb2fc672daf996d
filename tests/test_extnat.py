"""Extended-natural arithmetic, including the infinity conventions."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coarseiso.extnat import INF, ExtNat

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import parse_extnat  # noqa: E402

extnats = st.one_of(
    st.integers(min_value=0, max_value=200).map(ExtNat),
    st.just(INF),
)


class TestConventions:
    def test_inf_minus_inf_is_zero(self):
        assert INF.minus(INF) == ExtNat(0)

    def test_inf_minus_finite_is_inf(self):
        assert INF.minus(ExtNat(7)) == INF

    def test_absdiff_inf_inf(self):
        assert INF.absdiff(INF) == ExtNat(0)

    def test_absdiff_inf_finite(self):
        assert INF.absdiff(ExtNat(3)) == INF
        assert ExtNat(3).absdiff(INF) == INF

    def test_inf_plus_anything(self):
        assert INF + ExtNat(5) == INF
        assert ExtNat(5) + INF == INF
        assert INF + INF == INF

    def test_zero_times_inf(self):
        assert ExtNat(0) * INF == ExtNat(0)
        assert INF * ExtNat(0) == ExtNat(0)

    def test_positive_times_inf(self):
        assert ExtNat(2) * INF == INF


class TestOrderAndValue:
    def test_inf_is_maximum(self):
        assert ExtNat(10**9) < INF
        assert not INF < INF

    def test_int_interop(self):
        assert ExtNat(4) == 4
        assert ExtNat(4) <= 4
        assert ExtNat(3) < 4
        assert INF != 4

    def test_finite_value(self):
        assert ExtNat(9).finite_value() == 9
        with pytest.raises(ValueError):
            INF.finite_value()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ExtNat(-1)

    def test_immutable(self):
        x = ExtNat(1)
        with pytest.raises(AttributeError):
            x._value = 2


class TestParseRender:
    @pytest.mark.parametrize("text,expected", [
        ("0", ExtNat(0)),
        ("17", ExtNat(17)),
        ("inf", INF),
        (" inf ", INF),
    ])
    def test_parse(self, text, expected):
        assert parse_extnat(text) == expected

    def test_render_roundtrip(self):
        for v in (ExtNat(0), ExtNat(5), INF):
            assert parse_extnat(str(v)) == v


@given(extnats, extnats)
def test_total_order(a, b):
    assert (a <= b) or (b <= a)
    assert (a == b) == (a <= b and b <= a)


@given(extnats, extnats)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(extnats, extnats, extnats)
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(extnats, extnats)
def test_absdiff_symmetric(a, b):
    assert a.absdiff(b) == b.absdiff(a)


@given(extnats, extnats)
def test_minus_undoes_add(a, b):
    # (a + b) - b == a whenever b is finite
    if b.is_finite:
        assert (a + b).minus(b) == a
