"""Small prime utilities shared across the package, on the standard library.

Every answer is exact on the domain stated here; ``factorize`` and
``is_prime`` refuse numbers outside theirs with ``ValueError``:

- ``primes_upto(bound)``: the primes ``p <= bound``, by a sieve of
  ``bound + 1`` bytes (empty for ``bound < 2``).
- ``first_primes(count)``: the first ``count`` primes, read off the sieve.
- ``factorize(n)``: ``{prime: exponent}`` for ``1 <= n <= FACTOR_LIMIT``, by
  trial division by the primes up to ``isqrt(FACTOR_LIMIT)``; a cofactor
  left above 1 has no prime factor up to its square root, so it is prime.
- ``is_prime(n)``: every integer ``n < MILLER_RABIN_LIMIT``, by strong
  probable-prime tests to the thirteen prime bases 2, 3, 5, ..., 41. The
  smallest composite that passes all of them is psi_13 =
  3,317,044,064,679,887,385,961,981 (J. Sorenson and J. Webster, "Strong
  pseudoprimes to twelve prime bases", Math. Comp. 86 (2017) 985-1003), so
  below it the test is deterministic. Larger n are refused.

Both functions taking ``n`` accept any integer type (numpy integers too) and
raise ``ValueError`` for anything else.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

FACTOR_LIMIT = 10**9
MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981  # psi_13
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _as_int(n) -> int:
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"{n} is not an integer") from None


@functools.lru_cache(maxsize=None)
def primes_upto(bound: int) -> tuple[int, ...]:
    if bound < 2:
        return ()
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    return tuple(itertools.compress(range(bound + 1), sieve))


@functools.lru_cache(maxsize=None)
def first_primes(count: int) -> tuple[int, ...]:
    bound = 16
    while len(primes := primes_upto(bound)) < count:
        bound *= 2
    return primes[:max(count, 0)]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}."""
    n = _as_int(n)
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    if n > FACTOR_LIMIT:
        raise ValueError(f"refusing to factor {n} > {FACTOR_LIMIT}")
    out: dict[int, int] = {}
    for p in primes_upto(math.isqrt(FACTOR_LIMIT)):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    if n > 1:
        out[n] = 1
    return out


def is_prime(n: int) -> bool:
    """Whether the integer n is prime; refuses n >= MILLER_RABIN_LIMIT."""
    n = _as_int(n)
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(f"refusing to test primality of {n} >= {MILLER_RABIN_LIMIT}")
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
