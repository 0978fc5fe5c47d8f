"""Descriptors of quadratic fields K = Q(sqrt(d)): fundamental
discriminant, ramified primes, fundamental unit, and detection of units
of norm -1.

Conventions: d is squarefree and not 0 or 1; the fundamental discriminant
is D = d when d = 1 (mod 4), else 4d; the ramified primes R are exactly
the primes dividing D, stored sorted ascending. Subsets of R are encoded
downstream as bitmasks over that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .intkit import cf_expand, factorize

__all__ = [
    "QuadField",
    "QuadUnit",
    "field_from_d",
    "fundamental_unit",
    "has_norm_minus_one",
]


@dataclass(frozen=True)
class QuadField:
    d: int
    D: int
    ramified: tuple[int, ...]
    r: int
    is_real: bool

    @property
    def support_d_mask(self) -> int:
        """Mask of the ramified primes that divide d itself.

        For d = 3 (mod 4) this drops 2, which ramifies but does not
        divide d.
        """
        return sum(1 << i for i, p in enumerate(self.ramified) if self.d % p == 0)

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "D": self.D,
            "ramified": list(self.ramified),
            "r": self.r,
            "is_real": self.is_real,
        }


@dataclass(frozen=True)
class QuadUnit:
    """A unit x + y*sqrt(d), or (x + y*sqrt(d))/2 when ``halved``.

    Halved units only occur for d = 1 (mod 4) with x and y both odd.
    """

    d: int
    x: int
    y: int
    halved: bool
    norm: int

    def __post_init__(self):
        den = 4 if self.halved else 1
        if (self.x * self.x - self.d * self.y * self.y) != den * self.norm:
            raise ValueError("inconsistent unit data")
        if self.norm not in (-1, 1):
            raise ValueError("element is not a unit")

    def __str__(self) -> str:
        core = f"{self.x} + {self.y}*sqrt({self.d})"
        return f"({core})/2" if self.halved else core


def _discriminant(d: int) -> int:
    # the fundamental discriminant of Q(sqrt(d)) for squarefree d
    return d if d % 4 == 1 else 4 * d


def _ramified(d: int, primes: tuple[int, ...]) -> tuple[int, ...]:
    # the primes of D, ascending, from those of the squarefree d: 2 joins when D = 4d
    return primes if d % 4 == 1 else tuple(sorted({2, *primes}))


def field_from_d(d: int) -> QuadField:
    if d in (0, 1):
        raise ValueError(f"d = {d} does not define a quadratic field")
    fac = factorize(d)
    if not fac.is_squarefree:
        p = next(p for p, e in fac.factors if e >= 2)
        raise ValueError(f"d = {d} is not squarefree (divisible by {p * p} or worse)")
    D = _discriminant(d)
    ramified = _ramified(d, fac.primes)
    return QuadField(d=d, D=D, ramified=ramified, r=len(ramified), is_real=d > 0)


def fundamental_unit(field: QuadField) -> QuadUnit:
    """Fundamental unit of the ring of integers of a real quadratic field.

    Computed from the continued fraction of the complete quotient where
    the period of sqrt(d) (d = 2, 3 mod 4) or of (1 + sqrt(d))/2 (d = 1
    mod 4) starts: a0 + sqrt(d), or (2 a0 - 1 + sqrt(d))/2. It is reduced,
    so its expansion is purely periodic (Galois), and the product of
    partial-quotient matrices over one period is its automorph. Reading
    that against the quotient itself gives the smallest unit > 1 of the
    maximal order. Its norm is (-1)^(period length).
    """
    d = field.d
    if d < 0:
        raise ValueError("imaginary quadratic fields have a finite unit group; no fundamental unit")
    s = isqrt(d)
    # the quotient (P + sqrt(d))/Q where the period starts: P = a0 = s for
    # Q = 1, and P = 2 a0 - 1, the largest odd number <= s, for Q = 2
    P, Q = (s - (s + 1) % 2, 2) if d % 4 == 1 else (s, 1)
    cf = cf_expand(P, Q, d)
    # the bottom row of the product of the matrices [[a, 1], [1, 0]]: the
    # unit reads only that row
    a21, a22 = 0, 1
    for a in cf.period:
        a21, a22 = a21 * a + a22, a21
    # unit = a21 * (P + sqrt(d))/Q + a22, written as (x + y sqrt(d)) / 2
    x, y = 2 * (a21 * P + a22 * Q) // Q, 2 * a21 // Q
    if x % 2 == 0 and y % 2 == 0:
        x, y, halved = x // 2, y // 2, False
        norm = x * x - d * y * y
    else:
        halved = True
        norm = (x * x - d * y * y) // 4
    unit = QuadUnit(d=d, x=x, y=y, halved=halved, norm=norm)
    if norm != (-1) ** len(cf.period) or x <= 0 or y <= 0:
        raise ArithmeticError(f"fundamental unit of d={d} failed its sanity checks (bug)")
    return unit


def has_norm_minus_one(field: QuadField) -> bool:
    """True iff the ring of integers contains a unit of norm -1.

    Only meaningful for real fields. For d < 0 every unit has positive
    norm, so this returns False; there the narrow and wide class groups
    coincide anyway and nothing downstream consults this value.
    """
    if not field.is_real:
        return False
    return fundamental_unit(field).norm == -1
