"""Tests for field descriptors, fundamental units, and norm -1 detection.

The norm -1 oracle is a literal brute-force sweep for x^2 - d y^2 = -4
(with matching parity, which covers the halved units); the square test is
prefiltered by residues mod 5760 purely for speed.
"""

from math import isqrt

import pytest

from genuskit.errors import ResourceLimitError
from genuskit.intkit import cf_expand, factorize
from genuskit.quadfield import field_from_d, fundamental_unit, has_norm_minus_one

_SQ_RES = {(r * r) % 5760 for r in range(5760)}


def _squarefree_range(lo, hi):
    return [d for d in range(lo, hi + 1) if d not in (0, 1) and factorize(d).is_squarefree]


def _brute_norm_minus_one(d, ybound=10**5):
    # minimal ritual: look for x^2 = d y^2 - 4 with x = y (mod 2)
    dy2 = 0
    for y in range(1, ybound + 1):
        dy2 += d * (2 * y - 1)
        t = dy2 - 4
        if t >= 0 and t % 5760 in _SQ_RES:
            x = isqrt(t)
            if x * x == t and (x - y) % 2 == 0:
                return True
    return False


def test_field_examples():
    f = field_from_d(-1)
    assert (f.D, f.ramified, f.r, f.is_real) == (-4, (2,), 1, False)
    f = field_from_d(-5)
    assert (f.D, f.ramified, f.r) == (-20, (2, 5), 2)
    f = field_from_d(5)
    assert (f.D, f.ramified, f.r, f.is_real) == (5, (5,), 1, True)
    assert field_from_d(1087 * 1091).ramified == (1087, 1091)


def test_field_rejects_bad_d():
    for d in (0, 1, 4, 12, -9, 50):
        with pytest.raises(ValueError):
            field_from_d(d)
    # the message names the square of the first prime with exponent >= 2
    with pytest.raises(ValueError, match=r"divisible by 9 or worse"):
        field_from_d(18)
    with pytest.raises(ValueError, match=r"divisible by 25 or worse"):
        field_from_d(-75)


def test_ramified_primes_match_discriminant():
    # r counts exactly the primes dividing D, recomputed via factorize(D)
    for d in _squarefree_range(-300, 300):
        f = field_from_d(d)
        assert f.ramified == factorize(f.D).primes
        assert f.r == len(f.ramified)


def test_support_mask():
    f = field_from_d(-5)  # R = (2, 5), d divisible by 5 only
    assert f.support_d_mask == 0b10
    f = field_from_d(6)  # R = (2, 3), both divide 6
    assert f.support_d_mask == 0b11
    f = field_from_d(-7)  # R = (7,)
    assert f.support_d_mask == 0b1


def test_fundamental_unit_examples():
    u = fundamental_unit(field_from_d(2))
    assert (u.x, u.y, u.halved, u.norm) == (1, 1, False, -1)
    u = fundamental_unit(field_from_d(5))
    assert (u.x, u.y, u.halved, u.norm) == (1, 1, True, -1)
    # d=3: brute-force minimal (x, y) with |x^2 - 3 y^2| = 1 is (2, 1)
    best = None
    for y in range(1, 50):
        for x in range(1, 200):
            if abs(x * x - 3 * y * y) == 1:
                best = (x, y)
                break
        if best:
            break
    assert best == (2, 1)
    u = fundamental_unit(field_from_d(3))
    assert (u.x, u.y, u.halved, u.norm) == (2, 1, False, 1)


def test_fundamental_unit_is_unit_across_range():
    for d in _squarefree_range(2, 300):
        u = fundamental_unit(field_from_d(d))
        val = u.x * u.x - d * u.y * u.y
        assert val in ((-4, 4) if u.halved else (-1, 1)), d
        assert u.x > 0 and u.y > 0


def _first_convergent(cf, is_unit):
    # the first convergent x/y of cf with is_unit(x, y), read from
    # preperiod + period * 2; convergents by x_i = a_i x_(i-1) + x_(i-2),
    # and likewise y
    x, x0, y, y0 = 1, 0, 0, 1
    for a in cf.preperiod + cf.period * 2:
        x, x0, y, y0 = a * x + x0, x, a * y + y0, y
        if is_unit(x, y):
            return x, y
    return None


def test_fundamental_unit_minimal_against_convergents():
    # for d = 2, 3 (mod 4) the unit must be the first convergent of sqrt(d)
    # hitting |x^2 - d y^2| = 1
    for d in _squarefree_range(2, 200):
        if d % 4 == 1:
            continue
        first = _first_convergent(cf_expand(0, 1, d), lambda x, y: abs(x * x - d * y * y) == 1)
        u = fundamental_unit(field_from_d(d))
        assert first == (u.x, u.y), d


def test_fundamental_unit_minimal_against_convergents_one_mod_four():
    # for d = 1 (mod 4) the unit a + b w, w = (1 + sqrt(d))/2, must come
    # from the first convergent p/q of w whose p - q w has norm
    # p^2 - p q - q^2 (d - 1)/4 = +-1: its conjugate a + b - b w is small,
    # so p = a + b and q = b, and a + b w = (2p - q + q sqrt(d))/2
    for d in _squarefree_range(2, 1999):
        if d % 4 != 1:
            continue
        p, q = _first_convergent(cf_expand(1, 2, d), lambda p, q: abs(p * p - p * q - q * q * (d - 1) // 4) == 1)
        u = fundamental_unit(field_from_d(d))
        assert ((u.x, u.y) if u.halved else (2 * u.x, 2 * u.y)) == (2 * p - q, q), d


def test_fundamental_unit_minimal_brute_small():
    # independent minimality check on small d: no smaller y works
    for d in _squarefree_range(2, 60):
        u = fundamental_unit(field_from_d(d))
        uy = u.y if u.halved else 2 * u.y
        for y in range(1, uy):
            t = d * y * y - 4
            s = d * y * y + 4
            if t >= 0:
                assert not (isqrt(t) ** 2 == t and (isqrt(t) - y) % 2 == 0), (d, y)
            assert not (isqrt(s) ** 2 == s and (isqrt(s) - y) % 2 == 0), (d, y)


def test_fundamental_unit_rejects_imaginary():
    with pytest.raises(ValueError):
        fundamental_unit(field_from_d(-5))


def test_norm_minus_one_examples():
    assert has_norm_minus_one(field_from_d(2)) is True
    assert has_norm_minus_one(field_from_d(3)) is False
    # d = 34: period of sqrt(34) has even length 4, and brute force agrees
    assert cf_expand(0, 1, 34).period == (1, 4, 1, 10)
    assert _brute_norm_minus_one(34, 10**4) is False
    assert has_norm_minus_one(field_from_d(34)) is False


def test_norm_minus_one_brute_force_agreement():
    # The sweep bound 10^5 is conclusive only in the positive direction:
    # d = 193, 241, 281 have genuine norm -1 units whose minimal y exceeds
    # it (9,148,450 for d = 241). So: a brute-force hit forces True; every
    # True claim is proven independently by exact unit arithmetic; and d
    # with a prime factor p = 3 (mod 4) are proven False via the local
    # obstruction x^2 = -1 (mod p).
    for d in _squarefree_range(2, 300):
        claim = has_norm_minus_one(field_from_d(d))
        if _brute_norm_minus_one(d):
            assert claim is True, d
        if claim:
            u = fundamental_unit(field_from_d(d))
            den = 4 if u.halved else 1
            assert u.x * u.x - d * u.y * u.y == -den, d
        if any(p % 4 == 3 for p in factorize(d).primes):
            assert claim is False, d


def test_norm_minus_one_beyond_sweep_bound():
    # the known large-minimal-solution fields; exact arithmetic, no sweep
    for d, y_min in ((193, 126985), (241, 9148450 // 2), (281, 63445)):
        u = fundamental_unit(field_from_d(d))
        assert u.norm == -1 and u.y == y_min, d


def test_norm_minus_one_imaginary_is_false():
    for d in (-1, -2, -3, -5, -163):
        assert has_norm_minus_one(field_from_d(d)) is False


def test_a_continued_fraction_past_the_step_cap_is_a_resource_limit():
    # valid input whose expansion runs past 2 * 10^5 quotients is refused
    # with a typed error naming D, not reported as a bug
    with pytest.raises(ResourceLimitError, match="D = 10000000000037 "):
        cf_expand(0, 1, 10**13 + 37)
    field = field_from_d(10**15 + 37)
    for unit_of in (fundamental_unit, has_norm_minus_one):
        with pytest.raises(ResourceLimitError, match="D = 1000000000000037 "):
            unit_of(field)
