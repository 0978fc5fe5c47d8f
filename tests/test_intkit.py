"""Tests for the integer foundations.

Oracles used here are kept independent of the library code paths:
recombination by direct multiplication, squares listed by brute force,
and a from-scratch continued fraction stepper.
"""

from math import isqrt

import pytest

from genuskit.intkit import _sqrt_mod_prime, cf_expand, factorize, is_prime


def _sieve_set(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return {i for i, f in enumerate(flags) if f}


# ---------------------------------------------------------------------------
# factorize
# ---------------------------------------------------------------------------


def test_factorize_unit():
    f = factorize(1)
    assert f.sign == 1 and f.factors == ()
    f = factorize(-1)
    assert f.sign == -1 and f.factors == ()


def test_factorize_minus_twenty():
    f = factorize(-20)
    assert f.sign == -1
    assert f.factors == ((2, 2), (5, 1))


def test_factorize_semiprime():
    # oracle: trial division to sqrt(10403) = 101.9…, so 101 * 103
    assert factorize(10403).factors == ((101, 1), (103, 1))


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_recombines_exhaustively():
    # exhaustive over |n| <= 10^6; positives checked one by one, negatives
    # through the sign symmetry asserted separately below on a full sweep
    for n in range(1, 10**6 + 1):
        f = factorize(n)
        m = f.sign
        prev = 0
        for p, e in f.factors:
            assert p > prev
            prev = p
            m *= p**e
        assert m == n, n
    for n in range(1, 10**6 + 1):
        f = factorize(-n)
        assert f.sign == -1 and f.recombined() == -n


def test_factorize_prime_entries_are_prime():
    for n in (97, 1000, 104729, 2**31 - 1, 600851475143):
        for p, _ in factorize(n).factors:
            assert is_prime(p)


def test_factorize_rho_path():
    # cofactor above 1e12 with no small factors exercises the rho split
    p, q = 1_000_003, 1_000_033
    f = factorize(p * q)
    assert f.factors == ((p, 1), (q, 1))


def test_factorize_two_primes_above_1000():
    # Trial division by the primes below 1000 leaves these whole, so the
    # cofactor must be split. test_factorize_recombines_exhaustively cannot
    # see this: for n <= 10^6 < 1009^2 a cofactor with no factor below 1000
    # is prime, so no composite cofactor reaches _factor_large there.
    primes = sorted(p for p in _sieve_set(3162) if p >= 1009)
    for i, p in enumerate(primes):
        assert factorize(p * p).factors == ((p, 2),), p
        for q in primes[i + 1 :]:
            if q >= 3000:
                break
            assert factorize(p * q).factors == ((p, 1), (q, 1)), (p, q)


def test_is_prime_against_sieve():
    primes = _sieve_set(20000)
    for n in range(20000):
        assert is_prime(n) == (n in primes), n


# ---------------------------------------------------------------------------
# square roots modulo a prime
# ---------------------------------------------------------------------------


def test_sqrt_mod_prime_against_brute_force():
    # every odd prime below 500 includes p = 1 (mod 8), where the
    # Tonelli-Shanks loop runs more than once (3 rounds for n = 9, p = 17;
    # 7 for n = 9, p = 257)
    primes = sorted(_sieve_set(500) - {2})
    assert {p % 8 for p in primes} == {1, 3, 5, 7}
    for p in primes:
        squares = {x * x % p for x in range(p)}
        for n in range(p):
            for rep in (n, n - 7 * p, n + 3 * p):
                r = _sqrt_mod_prime(rep, p)
                if n in squares:
                    assert r is not None and 0 <= r < p and r * r % p == n, (rep, p)
                else:
                    assert r is None, (rep, p)


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------


def test_cf_sqrt2():
    cf = cf_expand(0, 1, 2)
    assert cf.preperiod == (1,)
    assert cf.period == (2,)


def test_cf_sqrt34():
    cf = cf_expand(0, 1, 34)
    assert cf.preperiod == (5,)
    assert cf.period == (1, 4, 1, 10)


def test_cf_golden_ratio():
    cf = cf_expand(1, 2, 5)
    assert cf.preperiod == ()
    assert cf.period == (1,)


def test_cf_rejects_square_and_zero_q():
    with pytest.raises(ValueError):
        cf_expand(0, 1, 49)
    with pytest.raises(ValueError):
        cf_expand(1, 0, 2)


def _naive_quotients(P, Q, D, count):
    # independent stepper; assumes Q | D - P^2
    s = isqrt(D)
    out = []
    for _ in range(count):
        a = (P + s) // Q if Q > 0 else (-P - s - 1) // (-Q)
        out.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    return out


def _quotients(cf, count):
    # the first ``count`` partial quotients, read from preperiod + period * k
    return list(cf.preperiod + cf.period * (count // len(cf.period) + 1))[:count]


def test_cf_reexpansion_matches_direct_stepper():
    cases = [(0, 1, 2), (0, 1, 34), (1, 2, 5), (3, 7, 11), (-2, 5, 13), (4, -3, 19), (1, 3, 5)]
    for P, Q, D in cases:
        cf = cf_expand(P, Q, D)
        # the expansion object may have rescaled (P, Q, D); both encode the
        # same real number so the quotient streams must agree
        assert _quotients(cf, 60) == _naive_quotients(cf.P, cf.Q, cf.D, 60)


def test_cf_period_minimality():
    for D in range(2, 1001):
        if isqrt(D) ** 2 == D:
            continue
        period = cf_expand(0, 1, D).period
        L = len(period)
        for block in range(1, L):
            if L % block:
                continue
            assert period != period[: block] * (L // block), D


def test_cf_pell_convergent():
    # the convergent just before the period end solves x^2 - D y^2 = ±1;
    # convergents h/k by h_i = a_i h_(i-1) + h_(i-2), and likewise k
    for D in range(2, 1001):
        if isqrt(D) ** 2 == D:
            continue
        cf = cf_expand(0, 1, D)
        x, x0, y, y0 = 1, 0, 0, 1
        for a in _quotients(cf, len(cf.preperiod) + len(cf.period) - 1):
            x, x0, y, y0 = a * x + x0, x, a * y + y0, y
        assert abs(x * x - D * y * y) == 1, D
