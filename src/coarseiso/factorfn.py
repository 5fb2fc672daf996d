"""Factor functions: maps from primes to extended naturals.

A :class:`FactorFunction` assigns an exponent in ``{0, 1, ..., inf}`` to every
prime. All but finitely many primes take a common ``default`` value, so the
representation stores the default plus the finitely many explicit exceptions.

Two factor functions are *almost equal* when the sum of pointwise absolute
differences is finite (``|inf - inf| = 0``, ``|inf - k| = inf``). Since the
functions agree with their defaults off a finite set, this holds exactly when
the defaults coincide and every explicitly differing prime has both values
finite or both infinite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .extnat import INF, ExtNat, IntoExtNat
from .primes import factorize, is_prime


@dataclass(frozen=True)
class FactorFunction:
    """Prime -> ExtNat map, equal to ``default`` off the explicit entries.

    ``entries`` is sorted by prime and stores no value equal to ``default``,
    so structural equality coincides with pointwise equality.
    """

    entries: tuple[tuple[int, ExtNat], ...] = ()
    default: ExtNat = field(default_factory=ExtNat)

    def __post_init__(self) -> None:
        default = ExtNat(self.default)
        seen: dict[int, ExtNat] = {}
        for p, v in self.entries:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if p in seen:
                raise ValueError(f"duplicate prime {p}")
            seen[p] = ExtNat(v)
        cleaned = tuple(
            (p, v) for p, v in sorted(seen.items()) if v != default
        )
        object.__setattr__(self, "entries", cleaned)
        object.__setattr__(self, "default", default)

    @classmethod
    def from_dict(
        cls, values: Mapping[int, IntoExtNat], default: IntoExtNat = 0
    ) -> "FactorFunction":
        return cls(
            tuple((p, ExtNat(v)) for p, v in values.items()), ExtNat(default)
        )

    def get(self, p: int) -> ExtNat:
        for q, v in self.entries:
            if q == p:
                return v
        return self.default

    @property
    def support_primes(self) -> tuple[int, ...]:
        """Primes with an explicit (non-default) entry."""
        return tuple(p for p, _ in self.entries)

    def as_dict(self) -> dict[int, ExtNat]:
        return dict(self.entries)

    @property
    def total_mass(self) -> ExtNat:
        """Sum of all values over all primes."""
        if self.default != 0:
            return INF
        total = ExtNat(0)
        for _, v in self.entries:
            total = total + v
        return total

    def __str__(self) -> str:
        return ff_render(self)


ZERO_FF = FactorFunction()


def _union_primes(f: FactorFunction, g: FactorFunction) -> list[int]:
    return sorted(set(f.support_primes) | set(g.support_primes))


def ff_equal(f: FactorFunction, g: FactorFunction) -> bool:
    return f == g


def ff_almost_equal(f: FactorFunction, g: FactorFunction) -> bool:
    """Whether the pointwise absolute differences have finite sum."""
    if f.default != g.default:
        return False
    return all(
        f.get(p).absdiff(g.get(p)).is_finite for p in _union_primes(f, g)
    )


def ff_le(f: FactorFunction, g: FactorFunction) -> bool:
    """Pointwise f(p) <= g(p) for every prime."""
    if not f.default <= g.default:
        return False
    return all(f.get(p) <= g.get(p) for p in _union_primes(f, g))


def ff_add(f: FactorFunction, g: FactorFunction) -> FactorFunction:
    values = {p: f.get(p) + g.get(p) for p in _union_primes(f, g)}
    return FactorFunction.from_dict(values, f.default + g.default)


def ff_sub(f: FactorFunction, g: FactorFunction) -> FactorFunction:
    """Pointwise difference; requires g <= f pointwise."""
    new_default = f.default.minus(g.default)
    values: dict[int, ExtNat] = {}
    for p in _union_primes(f, g):
        fv, gv = f.get(p), g.get(p)
        if gv > fv:
            raise ValueError(f"difference undefined: value at prime {p} would be negative")
        values[p] = fv.minus(gv)
    return FactorFunction.from_dict(values, new_default)


def ff_render(f: FactorFunction) -> str:
    parts: list[str] = []
    if f.default != 0:
        parts.append(f"default:{f.default}")
    parts.extend(f"{p}:{v}" for p, v in f.entries)
    return ",".join(parts)


def ff_parse(text: str) -> FactorFunction:
    text = text.strip()
    if not text:
        return ZERO_FF
    default = ExtNat(0)
    values: dict[int, ExtNat] = {}
    saw_default = False
    for chunk in text.split(","):
        key, sep, raw = chunk.partition(":")
        if not sep:
            raise ValueError(f"malformed clause {chunk!r}, expected 'prime:exponent'")
        key = key.strip()
        value = ExtNat.parse(raw)
        if key == "default":
            if saw_default:
                raise ValueError("repeated default clause")
            saw_default = True
            default = value
            continue
        p = int(key)
        if p in values:
            raise ValueError(f"repeated prime {p}")
        values[p] = value
    return FactorFunction.from_dict(values, default)


def phi_of_nat(n: int, limit: int = 10**6) -> FactorFunction:
    """Factor function of a positive integer (finite support, default 0)."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    if n > limit:
        raise ValueError(f"{n} exceeds the factorization limit {limit}")
    return FactorFunction.from_dict(factorize(n))


def ff_to_nat(f: FactorFunction) -> int:
    """Inverse of phi_of_nat; requires finite total mass."""
    if f.total_mass.is_infinite:
        raise ValueError("factor function has infinite total mass")
    n = 1
    for p, v in f.entries:
        n *= p ** v.finite_value()
    return n
