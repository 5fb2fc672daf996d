"""Factor functions: construction, arithmetic, almost-equality, text form."""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarseiso import factorfn
from coarseiso.factorfn import (
    FactorFunction,
    ff_almost_equal,
    ff_equal,
    ff_le,
    ff_render,
    ff_sub,
    phi_of_nat,
)
from coarseiso.groups import CanonicalForm, find_multipliers

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import (  # noqa: E402
    ExtNat,
    extnat_almost_equal,
    extnat_le,
    extnat_multipliers,
    extnat_sub,
    extnat_total_mass,
    ff_add,
    ff_parse,
)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

INF = math.inf

values = st.one_of(st.integers(min_value=0, max_value=6), st.just(INF))
defaults = st.sampled_from([0, 1, 2, INF])
factor_functions = st.builds(
    FactorFunction.from_dict,
    st.dictionaries(st.sampled_from(SMALL_PRIMES), values, max_size=4),
    defaults,
)
finite_factor_functions = st.builds(
    FactorFunction.from_dict,
    st.dictionaries(
        st.sampled_from(SMALL_PRIMES),
        st.integers(min_value=0, max_value=6),
        max_size=4,
    ),
    st.sampled_from([0, 1]),
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


REFUSED_COUNTS = [
    (1.5, TypeError, "a count must be an int or math.inf, got 1.5"),
    (True, TypeError, "a count must be an int or math.inf, got True"),
    ("3", TypeError, "a count must be an int or math.inf, got '3'"),
    (2.0, TypeError, "a count must be an int or math.inf, got 2.0"),
    (None, TypeError, "a count must be an int or math.inf, got None"),
    (-INF, TypeError, "a count must be an int or math.inf, got -inf"),
    (-1, ValueError, "a count must be nonnegative, got -1"),
]


@pytest.mark.parametrize("value, error, message", REFUSED_COUNTS)
@pytest.mark.parametrize("where", ["entry", "default"])
def test_every_refused_count(where, value, error, message):
    # a count is an int >= 0 or math.inf: a bool, a float other than inf,
    # a string, None (no longer infinity) or a negative is refused
    with pytest.raises(error) as refused:
        if where == "entry":
            FactorFunction.from_dict({2: value})
        else:
            FactorFunction.from_dict({}, value)
    assert type(refused.value) is error and str(refused.value) == message


def test_infinity_is_any_float_inf():
    f = ff({2: float("inf")}, default=float("inf"))
    assert f == ff({}, default=INF) and ff_render(ff({3: float("inf")})) == "3:inf"


def test_sub_takes_inf_minus_inf_to_zero_in_the_default():
    assert ff_sub(ff({2: 5}, default=INF), ff({2: 2}, default=INF)) == ff({2: 3})
    assert ff_sub(ff({}, default=INF), ff({2: 3}, default=1)) == ff({}, default=INF)
    with pytest.raises(ValueError, match="^cannot subtract inf from 1$"):
        ff_sub(ff({}, default=1), ff({}, default=INF))
    with pytest.raises(ValueError, match="^cannot subtract 1 from 0$"):
        ff_sub(FactorFunction(), ff({}, default=1))


def test_the_count_arithmetic_matches_the_extnat_reference():
    # ff_sub (inf - inf = 0), ff_almost_equal (|inf - inf| = 0), ff_le,
    # total_mass (inf + k = inf) and find_multipliers against ExtNat's
    # case-by-case arithmetic, on seeded profiles over 0..6 and inf with
    # defaults 0, 1 and inf; each g is paired with one drawn below f, so
    # that ff_sub is defined on half of the pairs
    rng = random.Random(46)
    counts = [0, 1, 2, 3, 4, 5, 6, INF]

    def below(v):
        return rng.choice([c for c in counts if c <= v])

    def profile():
        primes = rng.sample(SMALL_PRIMES, rng.randint(0, 4))
        return ff({p: rng.choice(counts) for p in primes}, rng.choice([0, 1, INF]))

    defined = 0
    for _ in range(1500):
        f = profile()
        primes = rng.sample(SMALL_PRIMES, rng.randint(0, 4))
        low = ff({p: below(f.get(p)) for p in primes}, below(f.default))
        for g in (profile(), low):
            assert ff_almost_equal(f, g) == extnat_almost_equal(f, g), (f, g)
            assert ff_le(g, f) == extnat_le(g, f), (f, g)
            want = extnat_sub(f, g)
            if want is None:
                with pytest.raises(ValueError):
                    ff_sub(f, g)
            else:
                defined += 1
                assert ff_sub(f, g) == want, (f, g)
            assert find_multipliers(CanonicalForm(1, f), CanonicalForm(1, g)) == \
                extnat_multipliers(f, g), (f, g)
        assert ExtNat(f.total_mass) == extnat_total_mass(f), f
    assert 1500 <= defined < 3000
