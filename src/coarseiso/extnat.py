"""Extended natural numbers: {0, 1, 2, ...} together with infinity.

Arithmetic follows the conventions used for exponent bookkeeping:

* ``inf + k = inf`` for every k,
* ``inf - inf = 0`` and ``inf - k = inf`` for finite k,
* ``|inf - k| = inf`` for finite k, ``|inf - inf| = 0``,
* ``0 * inf = 0`` (an absent summand contributes nothing regardless of order).

Subtraction is only defined when the result stays in the set, i.e. when
``other <= self`` or ``self`` is infinite.
"""

from __future__ import annotations

import functools
from typing import Union

IntoExtNat = Union["ExtNat", int]


@functools.total_ordering
class ExtNat:
    """A natural number or infinity. Immutable and hashable."""

    __slots__ = ("_value",)

    _value: int | None  # None encodes infinity

    def __init__(self, value: IntoExtNat | None = 0):
        if isinstance(value, ExtNat):
            object.__setattr__(self, "_value", value._value)
            return
        if value is not None:
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"ExtNat value must be int or None, got {value!r}")
            if value < 0:
                raise ValueError(f"ExtNat value must be nonnegative, got {value}")
        object.__setattr__(self, "_value", value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExtNat is immutable")

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    def finite_value(self) -> int:
        if self._value is None:
            raise ValueError("infinite ExtNat has no finite value")
        return self._value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExtNat):
            return self._value == other._value
        if isinstance(other, int) and not isinstance(other, bool):
            return self._value == other
        return NotImplemented

    def __hash__(self) -> int:
        # Finite values hash like plain ints so mixed dict keys behave.
        return hash(self._value) if self._value is not None else hash("ExtNat-inf")

    def __lt__(self, other: IntoExtNat) -> bool:
        other = ExtNat(other)
        if self._value is None:
            return False
        if other._value is None:
            return True
        return self._value < other._value

    def __add__(self, other: IntoExtNat) -> "ExtNat":
        other = ExtNat(other)
        if self._value is None or other._value is None:
            return INF
        return ExtNat(self._value + other._value)

    __radd__ = __add__

    def __mul__(self, other: IntoExtNat) -> "ExtNat":
        other = ExtNat(other)
        # 0 * inf = 0 by convention.
        if self._value == 0 or other._value == 0:
            return ExtNat(0)
        if self._value is None or other._value is None:
            return INF
        return ExtNat(self._value * other._value)

    __rmul__ = __mul__

    def minus(self, other: IntoExtNat) -> "ExtNat":
        """Truncated difference. Requires other <= self unless self is infinite."""
        other = ExtNat(other)
        if self._value is None:
            return ExtNat(0) if other._value is None else INF
        if other._value is None or other._value > self._value:
            raise ValueError(f"cannot subtract {other} from {self}")
        return ExtNat(self._value - other._value)

    def absdiff(self, other: IntoExtNat) -> "ExtNat":
        """|self - other| with |inf - inf| = 0 and |inf - finite| = inf."""
        other = ExtNat(other)
        if self._value is None and other._value is None:
            return ExtNat(0)
        if self._value is None or other._value is None:
            return INF
        return ExtNat(abs(self._value - other._value))

    def __repr__(self) -> str:
        return f"ExtNat({self._value if self._value is not None else 'inf'})"

    def __str__(self) -> str:
        return "inf" if self._value is None else str(self._value)


INF = ExtNat(None)
