"""Small prime utilities shared across the package."""

from __future__ import annotations

import functools

import sympy

FACTOR_LIMIT = 10**9


@functools.lru_cache(maxsize=None)
def primes_upto(bound: int) -> tuple[int, ...]:
    return tuple(int(p) for p in sympy.primerange(2, bound + 1))


@functools.lru_cache(maxsize=None)
def first_primes(count: int) -> tuple[int, ...]:
    out: list[int] = []
    p = 1
    for _ in range(count):
        p = int(sympy.nextprime(p))
        out.append(p)
    return tuple(out)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    if n > FACTOR_LIMIT:
        raise ValueError(f"refusing to factor {n} > {FACTOR_LIMIT}")
    if n == 1:
        return {}
    # sympy may hand back gmpy2 integers; keep plain ints downstream
    return {int(p): int(e) for p, e in sympy.factorint(n).items()}


def is_prime(n: int) -> bool:
    return bool(sympy.isprime(n))
