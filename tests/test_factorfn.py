"""Factor functions: construction, arithmetic, almost-equality, text form."""

from __future__ import annotations

import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarseiso import factorfn
from coarseiso.extnat import INF, ExtNat
from coarseiso.factorfn import (
    FactorFunction,
    ff_almost_equal,
    ff_equal,
    ff_le,
    ff_render,
    ff_sub,
    phi_of_nat,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import ff_add, ff_parse  # noqa: E402

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

values = st.one_of(
    st.integers(min_value=0, max_value=6).map(ExtNat),
    st.just(INF),
)
defaults = st.sampled_from([ExtNat(0), ExtNat(1), ExtNat(2), INF])
factor_functions = st.builds(
    FactorFunction.from_dict,
    st.dictionaries(st.sampled_from(SMALL_PRIMES), values, max_size=4),
    defaults,
)
finite_factor_functions = st.builds(
    FactorFunction.from_dict,
    st.dictionaries(
        st.sampled_from(SMALL_PRIMES),
        st.integers(min_value=0, max_value=6).map(ExtNat),
        max_size=4,
    ),
    st.sampled_from([ExtNat(0), ExtNat(1)]),
)


def ff(values_dict, default=0):
    return FactorFunction.from_dict(values_dict, default)


class TestPhiOfNat:
    def test_twelve(self):
        assert phi_of_nat(12) == ff({2: 2, 3: 1})

    def test_one(self):
        assert phi_of_nat(1) == FactorFunction()

    def test_360(self):
        assert phi_of_nat(360) == ff({2: 3, 3: 2, 5: 1})

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            phi_of_nat(0)

    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            phi_of_nat(10**6 + 1)
        # the module constant is the only bound
        with mock.patch.object(factorfn, "NAT_LIMIT", 10**7):
            assert phi_of_nat(10**6 + 1) is not None


class TestArithmetic:
    def test_add(self):
        assert ff_add(ff({2: 1}), ff({2: 2, 3: 1})) == ff({2: 3, 3: 1})

    def test_add_inf_absorbs(self):
        assert ff_add(ff({2: INF}), ff({2: 5})) == ff({2: INF})

    def test_add_zero_identity(self):
        f = ff({3: 2, 7: INF}, default=1)
        assert ff_add(f, FactorFunction()) == f

    def test_sub(self):
        assert ff_sub(ff({2: 3}), ff({2: 2})) == ff({2: 1})

    def test_sub_inf_inf(self):
        assert ff_sub(ff({2: INF}), ff({2: INF})) == FactorFunction()

    def test_sub_self_is_zero(self):
        f = ff({2: 3, 5: INF})
        assert ff_sub(f, f) == FactorFunction()

    def test_sub_reports_offending_prime(self):
        with pytest.raises(ValueError, match="prime 3"):
            ff_sub(ff({2: 5, 3: 1}), ff({3: 2}))


class TestComparisons:
    def test_le_with_inf(self):
        assert ff_le(ff({2: 1}), ff({2: INF}))

    def test_le_disjoint_support(self):
        assert not ff_le(ff({3: 1}), ff({2: 5}))

    @pytest.mark.parametrize("f", [FactorFunction(), ff({2: INF, 3: 1}, default=1)])
    def test_le_reflexive(self, f):
        assert ff_le(f, f)

    def test_equal_norm(self):
        assert ff_equal(ff({2: INF}), ff({2: INF}))
        assert not ff_equal(ff({2: 1}), ff({2: 1, 3: 1}))

    def test_equal_default_only(self):
        assert ff_equal(ff({}, default=1), ff({}, default=1))

    def test_almost_equal_finite_gap(self):
        assert ff_almost_equal(ff({2: INF, 3: 1}), ff({2: INF, 3: 5}))

    def test_almost_equal_inf_vs_finite(self):
        assert not ff_almost_equal(ff({2: INF}), ff({2: 3}))

    def test_total_mass_of_a_positive_default_is_inf(self):
        assert ff({}, default=1).total_mass == INF and ff({2: 3}).total_mass == 3

    def test_almost_equal_default_mismatch(self):
        assert not ff_almost_equal(ff({}, default=1), FactorFunction())


class TestTextForm:
    @pytest.mark.parametrize("text", [
        "2:inf,3:1",
        "default:1,2:3",
        "default:inf",
        "",
        "2:0",
    ])
    def test_roundtrip(self, text):
        f = ff_parse(text)
        assert ff_parse(ff_render(f)) == f

    def test_str_is_the_rendering(self):
        assert str(ff({2: 3}, default=1)) == "default:1,2:3"

    def test_render_canonical(self):
        assert ff_render(ff({3: 1, 2: INF})) == "2:inf,3:1"
        assert ff_render(ff({2: 3}, default=1)) == "default:1,2:3"
        assert ff_render(FactorFunction()) == ""

    def test_parse_rejects_composite_key(self):
        with pytest.raises(ValueError):
            ff_parse("4:1")

    def test_parse_rejects_repeats(self):
        with pytest.raises(ValueError):
            ff_parse("2:1,2:2")
        with pytest.raises(ValueError):
            ff_parse("default:1,default:2")


class TestNormalization:
    def test_entries_matching_default_dropped(self):
        f = ff({2: 1, 3: 2}, default=1)
        assert f.support_primes == (3,)

    def test_composite_key_rejected(self):
        with pytest.raises(ValueError):
            ff({6: 1})

    def test_idempotent(self):
        f = ff({2: INF, 5: 0}, default=0)
        again = FactorFunction(f.entries, f.default)
        assert again == f


# algebraic laws, randomized


@given(factor_functions, factor_functions, factor_functions)
def test_almost_equal_is_equivalence(f, g, h):
    assert ff_almost_equal(f, f)
    assert ff_almost_equal(f, g) == ff_almost_equal(g, f)
    if ff_almost_equal(f, g) and ff_almost_equal(g, h):
        assert ff_almost_equal(f, h)


@given(factor_functions, factor_functions)
def test_equal_implies_almost_equal(f, g):
    if ff_equal(f, g):
        assert ff_almost_equal(f, g)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=10**4), st.integers(min_value=1, max_value=10**4))
def test_phi_multiplicative(a, b):
    with mock.patch.object(factorfn, "NAT_LIMIT", 10**8):
        lhs = phi_of_nat(a * b)
    rhs = ff_add(phi_of_nat(a), phi_of_nat(b))
    assert ff_equal(lhs, rhs)


@given(factor_functions, finite_factor_functions)
def test_add_sub_roundtrip(f, g):
    assert ff_sub(ff_add(f, g), g) == f


@given(factor_functions, factor_functions)
def test_le_consistent_with_sub(f, g):
    if ff_le(g, f):
        ff_sub(f, g)  # must not raise
    else:
        with pytest.raises(ValueError):
            ff_sub(f, g)


@pytest.mark.parametrize("entries, message", [
    (((2, 1), (2, 3)), "duplicate prime 2"),
    (((4, 1),), "4 is not prime"),
], ids=["duplicate-prime", "not-prime"])
def test_every_refusal_of_outside_input(entries, message):
    with pytest.raises(ValueError) as refused:
        FactorFunction(entries=entries)
    assert type(refused.value) is ValueError and str(refused.value) == message
