"""Factor functions: maps from primes to counts in {0, 1, ..., inf}.

A count is an ``int`` >= 0 or ``math.inf``; Python compares the two
exactly. A :class:`FactorFunction` assigns a count to every prime. All but
finitely many primes take a common ``default`` value, so the representation
stores the default plus the finitely many explicit exceptions.

Two factor functions are *almost equal* when the sum of pointwise absolute
differences is finite (``|inf - inf| = 0``, ``|inf - k| = inf``). Since the
functions agree with their defaults off a finite set, this holds exactly when
the defaults coincide and every explicitly differing prime has both values
finite or both infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

from .primes import factorize, is_prime

NAT_LIMIT = 10**6  # the largest integer phi_of_nat factors

Count = Union[int, float]  # an int >= 0, or math.inf


def checked_count(value: Count) -> Count:
    """An outside count as given: an int >= 0 (not a bool) or math.inf;
    anything else is a TypeError, and a negative int a ValueError."""
    if isinstance(value, float) and value == math.inf:
        return value
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"a count must be an int or math.inf, got {value!r}")
    if value < 0:
        raise ValueError(f"a count must be nonnegative, got {value}")
    return value


@dataclass(frozen=True)
class FactorFunction:
    """Prime -> count map, equal to ``default`` off the explicit entries.

    ``entries`` is sorted by prime and stores no value equal to ``default``,
    so structural equality coincides with pointwise equality.
    """

    entries: tuple[tuple[int, Count], ...] = ()
    default: Count = 0

    def __post_init__(self) -> None:
        default = checked_count(self.default)
        seen: dict[int, Count] = {}
        for p, v in self.entries:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if p in seen:
                raise ValueError(f"duplicate prime {p}")
            seen[p] = checked_count(v)
        cleaned = tuple(
            (p, v) for p, v in sorted(seen.items()) if v != default
        )
        object.__setattr__(self, "entries", cleaned)
        object.__setattr__(self, "default", default)

    @classmethod
    def from_dict(
        cls, values: Mapping[int, Count], default: Count = 0
    ) -> "FactorFunction":
        return cls(tuple(values.items()), default)

    def get(self, p: int) -> Count:
        for q, v in self.entries:
            if q == p:
                return v
        return self.default

    @property
    def support_primes(self) -> tuple[int, ...]:
        """Primes with an explicit (non-default) entry."""
        return tuple(p for p, _ in self.entries)

    @property
    def total_mass(self) -> Count:
        """Sum of all values over all primes."""
        if self.default != 0:
            return math.inf
        return sum(v for _, v in self.entries)

    def __str__(self) -> str:
        return ff_render(self)


def _union_primes(f: FactorFunction, g: FactorFunction) -> list[int]:
    return sorted(set(f.support_primes) | set(g.support_primes))


def ff_equal(f: FactorFunction, g: FactorFunction) -> bool:
    return f == g


def ff_almost_equal(f: FactorFunction, g: FactorFunction) -> bool:
    """Whether the pointwise absolute differences have finite sum."""
    if f.default != g.default:
        return False
    # |inf - inf| = 0, so a prime's difference is finite exactly when its
    # two values are both finite or both infinite
    return all(
        (f.get(p) == math.inf) == (g.get(p) == math.inf) for p in _union_primes(f, g)
    )


def ff_le(f: FactorFunction, g: FactorFunction) -> bool:
    """Pointwise f(p) <= g(p) for every prime."""
    if not f.default <= g.default:
        return False
    return all(f.get(p) <= g.get(p) for p in _union_primes(f, g))


def ff_sub(f: FactorFunction, g: FactorFunction) -> FactorFunction:
    """Pointwise difference; requires g <= f pointwise. inf - inf = 0
    (where float subtraction gives nan) and inf - k = inf."""
    if g.default > f.default:
        raise ValueError(f"cannot subtract {g.default} from {f.default}")
    new_default = 0 if g.default == math.inf else f.default - g.default
    values: dict[int, Count] = {}
    for p in _union_primes(f, g):
        fv, gv = f.get(p), g.get(p)
        if gv > fv:
            raise ValueError(f"difference undefined: value at prime {p} would be negative")
        values[p] = 0 if gv == math.inf else fv - gv
    return FactorFunction.from_dict(values, new_default)


def ff_render(f: FactorFunction) -> str:
    parts: list[str] = []
    if f.default != 0:
        parts.append(f"default:{f.default}")
    parts.extend(f"{p}:{v}" for p, v in f.entries)
    return ",".join(parts)


def phi_of_nat(n: int) -> FactorFunction:
    """Factor function of a positive integer up to NAT_LIMIT (finite
    support, default 0)."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    if n > NAT_LIMIT:
        raise ValueError(f"{n} exceeds the factorization limit {NAT_LIMIT}")
    return FactorFunction.from_dict(factorize(n))
