"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports genuskit: each value the program reports is checked
against a computation written separately, by a different method where one
is cheap (trial division instead of the program's factorizer, a direct
count of reduced forms instead of cycle enumeration, the closed Krawtchouk
formula instead of the recurrence, span enumeration of the witness rows).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb, isqrt


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n| by plain trial division."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_squarefree(n: int) -> bool:
    n = abs(n)
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        if n % p == 0:
            n //= p
        p += 1 if p == 2 else 2
    return True


def is_prime(n: int) -> bool:
    return n > 1 and prime_factors(n) == [n]


def defines_field(d: int) -> bool:
    """True iff d defines a quadratic field: squarefree and not 0 or 1."""
    return d not in (0, 1) and is_squarefree(d)


def discriminant(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


def ramified_count(d: int) -> int:
    """r, the number of primes dividing the field discriminant."""
    return len(prime_factors(discriminant(d)))


@lru_cache(maxsize=None)
def class_number_imaginary(D: int) -> int:
    """h(D) for D < 0 as the number of reduced positive definite forms
    (a, b, c) with |b| <= a <= c and b >= 0 when |b| = a or a = c."""
    if D >= 0:
        raise ValueError("only negative discriminants")
    h = 0
    for a in range(1, isqrt(-D // 3) + 1):
        m = 4 * a
        start = -a + 1 if (-a + 1 - D) % 2 == 0 else -a + 2
        for b in range(start, a + 1, 2):
            num = b * b - D
            if num % m:
                continue
            c = num // m
            if c < a or (b < 0 and c == a):
                continue
            h += 1
    return h


def krawtchouk(n: int, j: int, i: int) -> int:
    """K_j(i) for length n by the closed sum over s of (-1)^s C(i,s) C(n-i,j-s)."""
    return sum((-1) ** s * comb(i, s) * comb(n - i, j - s) for s in range(min(i, j) + 1))


def feasible_count(n: int, k: int, allowed) -> int:
    """Number of weight distributions A (A_0 = 1, 2^k - 1 nonzero words
    on the allowed weights) whose MacWilliams transform is a nonnegative
    integer vector. Zero proves that no such code exists."""
    weights = sorted(allowed)
    K = {(j, w): krawtchouk(n, j, w) for j in range(n + 1) for w in [0] + weights}
    m = (1 << k) - 1
    count = 0

    def spread(idx, remaining, counts):
        nonlocal count
        if idx == len(weights) - 1:
            dist = counts + [remaining]
            for j in range(n + 1):
                s = K[j, 0] + sum(a * K[j, w] for a, w in zip(dist, weights))
                if s < 0 or s % (m + 1):
                    return
            count += 1
            return
        for a in range(remaining + 1):
            spread(idx + 1, remaining - a, counts + [a])

    if weights:
        spread(0, m, [])
    return count


def span_distribution(rows: list[int], n: int) -> dict[int, int] | None:
    """Weight distribution of the span of the rows, or None if a row is
    longer than n or the rows are dependent (some nonzero combination is
    the zero word)."""
    dist: dict[int, int] = {}
    for coeffs in product((0, 1), repeat=len(rows)):
        w = 0
        for c, row in zip(coeffs, rows):
            if c:
                w ^= row
        if w >> n:
            return None
        if w == 0 and any(coeffs):
            return None
        wt = bin(w).count("1")
        dist[wt] = dist.get(wt, 0) + 1
    return dist


def witness_ok(rows: list[int], n: int, k: int, allowed) -> bool:
    """k independent rows whose every nonzero span word has an allowed weight."""
    if len(rows) != k:
        return False
    dist = span_distribution(rows, n)
    return dist is not None and all(w in allowed for w in dist if w)


def reed_muller_1_5() -> dict[int, int]:
    """Weight distribution of RM(1,5): the 64 affine functions on GF(2)^5,
    each evaluated at all 32 points."""
    points = list(product((0, 1), repeat=5))
    dist: dict[int, int] = {}
    for a in points:
        for c in (0, 1):
            wt = sum((sum(x * y for x, y in zip(a, pt)) + c) % 2 for pt in points)
            dist[wt] = dist.get(wt, 0) + 1
    return dist


def self_check() -> list[str]:
    """Known values the oracles must reproduce; returns the failures."""
    failures = []
    for D, h in ((-23, 3), (-47, 5), (-84, 4), (-4, 1), (-20, 2)):
        if class_number_imaginary(D) != h:
            failures.append(f"h({D}) = {class_number_imaginary(D)}, expected {h}")
    if reed_muller_1_5() != {0: 1, 16: 62, 32: 1}:
        failures.append(f"RM(1,5) distribution {reed_muller_1_5()}")
    if feasible_count(32, 6, {16, 20}) != 0:
        failures.append("[32, 6] {16, 20} has a feasible distribution")
    if feasible_count(32, 6, {16, 20, 32}) != 1:
        failures.append("[32, 6] {16, 20, 32} does not have exactly RM(1,5)'s distribution")
    if ramified_count(-5) != 2 or ramified_count(3000017) != 1:
        failures.append("ramified prime counts")
    return failures
