"""Exact integer foundations: deterministic factorization and periodic
continued fractions of quadratic irrationals.

Everything here is pure, exact (arbitrary precision) and deterministic;
there is no shared mutable state, so every function is safe to call from
concurrent code.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

__all__ = [
    "Factorization",
    "PeriodicCF",
    "cf_expand",
    "cf_quotients",
    "cf_state",
    "factorize",
    "is_prime",
]


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(flags) if f]


_SMALL_PRIMES = _sieve(1000)

# Miller-Rabin with these witnesses is a proof of primality below 3.4e14;
# the larger set (the first 13 primes) is a proof below 3.3e24.
_MR_SMALL = (2, 3, 5, 7, 11, 13, 17)
_MR_SMALL_LIMIT = 341_550_071_728_321
_MR_LARGE = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic primality test: Miller-Rabin with fixed witness sets.

    A proof of primality for n < 3.3e24, where these witness sets are
    known to admit no strong pseudoprime. Above that it is a strong
    probable-prime test to the 13 bases 2, 3, ..., 41: a composite is
    very unlikely to pass, but a pass is no longer a proof.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = _MR_SMALL if n < _MR_SMALL_LIMIT else _MR_LARGE
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial divisor of the composite n, by Brent's cycle variant
    of Pollard rho (Brent, BIT 20, 1980).

    Called on every composite cofactor that trial division by the primes
    below 1000 leaves, so n is odd and has no prime factor below 1000.
    The start is fixed at 2 and the constant c is swept from 1, so the
    result is deterministic; a c whose cycle closes on all of n at once
    is dropped for the next. ArithmeticError if all 999 values fail.
    """
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


@dataclass(frozen=True)
class Factorization:
    """Signed prime factorization: value = sign * prod(p**e).

    Primes are strictly increasing and each passed ``is_prime``.
    """

    value: int
    sign: int
    factors: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def recombined(self) -> int:
        out = self.sign
        for p, e in self.factors:
            out *= p**e
        return out


def factorize(n: int) -> Factorization:
    """Factor a nonzero integer: trial division by the primes below 1000,
    then Brent rho splits for a composite cofactor (one at least 997^2)."""
    if n == 0:
        raise ValueError("0 has no prime factorization")
    sign = -1 if n < 0 else 1
    m = abs(n)
    out: list[tuple[int, int]] = []
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > 1:
        if m < _SMALL_PRIMES[-1] ** 2:
            out.append((m, 1))
        else:
            out.extend(_factor_large(m))
    out.sort()
    return Factorization(n, sign, tuple(out))


def _factor_large(m: int) -> list[tuple[int, int]]:
    # m odd, no factor below 1000
    if is_prime(m):
        return [(m, 1)]
    d = _brent_rho(m)
    merged: dict[int, int] = {}
    for p, e in _factor_large(d) + _factor_large(m // d):
        merged[p] = merged.get(p, 0) + e
    return sorted(merged.items())


@dataclass(frozen=True)
class PeriodicCF:
    """Eventually periodic continued fraction of (P + sqrt(D)) / Q.

    The stored (P, Q, D) triple is the internally normalized one (scaled
    so that Q divides D - P^2, which leaves the value unchanged).
    ``period`` is the minimal repeating block; minimality comes from
    detecting the first recurrence of the (P, Q) state, and the state
    determines everything that follows.
    """

    P: int
    Q: int
    D: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]


def _floor_quot(P: int, Q: int, s: int) -> int:
    # floor((P + sqrt(D)) / Q) with s = isqrt(D), D not a square
    if Q > 0:
        return (P + s) // Q
    return (-P - s - 1) // (-Q)


_CF_STEP_CAP = 200_000


def cf_expand(P: int, Q: int, D: int) -> PeriodicCF:
    """Expand (P + sqrt(D)) / Q into its preperiod and minimal period."""
    if Q == 0:
        raise ValueError("denominator Q must be nonzero")
    if D <= 0 or isqrt(D) ** 2 == D:
        raise ValueError("D must be positive and not a perfect square (value is rational otherwise)")
    if (D - P * P) % Q != 0:
        # scale numerator and denominator by |Q|; same value, invariant restored
        P, D, Q = P * abs(Q), D * Q * Q, Q * abs(Q)
    s = isqrt(D)
    seen: dict[tuple[int, int], int] = {}
    quots: list[int] = []
    Pi, Qi = P, Q
    while (Pi, Qi) not in seen:
        if len(quots) > _CF_STEP_CAP:
            raise ArithmeticError("continued fraction failed to close (bug)")
        seen[(Pi, Qi)] = len(quots)
        a = _floor_quot(Pi, Qi, s)
        quots.append(a)
        Pn = a * Qi - Pi
        Qi = (D - Pn * Pn) // Qi
        Pi = Pn
    start = seen[(Pi, Qi)]
    return PeriodicCF(P, Q, D, tuple(quots[:start]), tuple(quots[start:]))


def cf_quotients(cf: PeriodicCF, count: int) -> list[int]:
    """First ``count`` partial quotients, re-read from preperiod + period."""
    out = list(cf.preperiod[:count])
    i = 0
    while len(out) < count:
        out.append(cf.period[i % len(cf.period)])
        i += 1
    return out


def cf_state(cf: PeriodicCF, index: int) -> tuple[int, int]:
    """(P, Q) of the complete quotient at position ``index``.

    Index len(preperiod) is the state where the period starts.
    """
    P, Q = cf.P, cf.Q
    for a in cf_quotients(cf, index):
        P = a * Q - P
        Q = (cf.D - P * P) // Q
    return P, Q
