"""Prime utilities against brute-force oracles that do not call coarseiso.primes:
trial division by every d <= sqrt(n), products of factors, and pinned values."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from coarseiso.primes import (
    FACTOR_LIMIT,
    MILLER_RABIN_LIMIT,
    factorize,
    first_primes,
    is_prime,
    primes_upto,
)

SMALL = 20_000
PSI13 = 3_317_044_064_679_887_385_961_981  # least strong pseudoprime to bases 2..41


def trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


ORACLE = tuple(n for n in range(math.isqrt(FACTOR_LIMIT) + 1) if trial_division(n))
ORACLE_SET = frozenset(ORACLE)
# every composite n <= FACTOR_LIMIT shares a factor with this product
PRIMORIAL = math.prod(ORACLE)


def oracle_prime(p: int) -> bool:
    """Primality of p <= FACTOR_LIMIT from the trial-division primes alone."""
    return p in ORACLE_SET if p <= ORACLE[-1] else math.gcd(p, PRIMORIAL) == 1


def assert_factorization(n: int) -> None:
    f = factorize(n)
    assert math.prod(p**e for p, e in f.items()) == n
    assert all(type(p) is int and oracle_prime(p) and e >= 1 for p, e in f.items())


def test_primes_upto_is_the_trial_division_set():
    assert primes_upto(SMALL) == tuple(p for p in ORACLE if p <= SMALL)
    for bound in range(-2, 200):
        assert primes_upto(bound) == tuple(p for p in ORACLE if p <= bound)


def test_first_primes_are_the_leading_oracle_primes():
    for count in (*range(70), 1000, len(ORACLE)):
        assert first_primes(count) == ORACLE[:count]


def test_is_prime_matches_trial_division():
    assert [is_prime(n) for n in range(-5, SMALL + 1)] == [trial_division(n) for n in range(-5, SMALL + 1)]


def test_factorize_small_numbers():
    assert factorize(1) == {}
    for n in range(1, SMALL + 1):
        assert_factorization(n)


def test_factorize_up_to_the_limit():
    rng = random.Random(20170101)
    pinned = [
        999_999_937,  # largest prime below 10**9
        31607**2,  # square of a prime just under sqrt(FACTOR_LIMIT)
        31607 * 31627,  # two primes either side of sqrt(FACTOR_LIMIT)
        FACTOR_LIMIT,
        2**29,
    ]
    for n in pinned + [rng.randint(1, FACTOR_LIMIT) for _ in range(2000)]:
        assert_factorization(n)
    assert factorize(999_999_937) == {999_999_937: 1}
    assert factorize(31607**2) == {31607: 2}
    assert factorize(FACTOR_LIMIT) == {2: 9, 5: 9}


def test_factorize_refusals_and_integer_types():
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"expected a positive integer, got {n}"):
            factorize(n)
    with pytest.raises(ValueError, match=f"refusing to factor {FACTOR_LIMIT + 1} > {FACTOR_LIMIT}"):
        factorize(FACTOR_LIMIT + 1)
    f = factorize(np.int64(360))
    assert f == {2: 3, 3: 2, 5: 1} and all(type(p) is int for p in f)
    for bad in (12.0, "12"):
        with pytest.raises(ValueError, match="not an integer"):
            factorize(bad)
        with pytest.raises(ValueError, match="not an integer"):
            is_prime(bad)


# n: factors. Carmichael numbers, then the least strong pseudoprimes to the
# first k prime bases (psi_1 .. psi_12); all composite
PSEUDOPRIMES = {
    561: (3, 11, 17),
    1105: (5, 13, 17),
    1729: (7, 13, 19),
    41041: (7, 11, 13, 41),
    825265: (5, 7, 17, 19, 73),
    321197185: (5, 19, 23, 29, 37, 137),
    5394826801: (7, 13, 17, 23, 31, 67, 73),
    2047: (23, 89),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441),
}

LARGE_PRIMES = (
    999_999_937,
    10**9 + 7,
    2**31 - 1,
    2**61 - 1,
    2**64 - 59,  # largest prime below 2**64
    3_317_044_064_679_887_385_961_813,  # largest prime below psi_13
)


@pytest.mark.parametrize("n", sorted(PSEUDOPRIMES))
def test_pseudoprimes_are_composite(n):
    factors = PSEUDOPRIMES[n]
    assert math.prod(factors) == n and min(factors) > 1
    assert not is_prime(n)


@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_pinned_large_primes(p):
    assert is_prime(p)


def test_is_prime_refuses_what_miller_rabin_cannot_decide():
    assert MILLER_RABIN_LIMIT == PSI13 == 1287836182261 * 2575672364521
    assert is_prime(PSI13 - 168)  # the largest prime below the bound
    assert not is_prime(PSI13 - 1)
    for n in (PSI13, PSI13 + 1, 2**89 - 1):
        with pytest.raises(ValueError, match=f"refusing to test primality of {n} >= {PSI13}"):
            is_prime(n)


def test_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, FACTOR_LIMIT)
        assert factorize(n) == sympy.factorint(n)
    for _ in range(1000):
        n = rng.randrange(1, MILLER_RABIN_LIMIT) | 1
        assert is_prime(n) == sympy.isprime(n)
