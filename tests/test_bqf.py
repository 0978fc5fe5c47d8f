"""Tests for binary quadratic forms, reduction, composition, and the
narrow class group.

The definite oracle is the a-outer window scan (a up to sqrt(|D|/3), b
over (-a, a]) that the library once used; it shares no code with the
library's b-outer divisor enumeration. The indefinite oracle scans the
whole inequality window of 2|a| for each b. Equivalence for indefinite
forms is cross-checked through the change-of-variables matrices that
reduction reports.
"""

import random
from math import gcd, isqrt

import pytest

from genuskit import bqf
from genuskit.bqf import (
    Form,
    ambiguous_form,
    class_group,
    compose,
    is_fundamental,
    principal_form,
    reduce,
    reduce_with_transform,
    reduction_cycle,
)
from genuskit.errors import ResourceLimitError
from genuskit.intkit import factorize


def fundamental_range(bound):
    return [D for D in range(-bound, bound + 1) if is_fundamental(D)]


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def oracle_definite_reduced(D):
    """All reduced positive definite forms of disc D < 0, a-outer scan."""
    out = set()
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(-a + 1, a + 1):
            if (b - D) % 2 or (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a or (b < 0 and a == c):
                continue
            if gcd(gcd(a, b), c) == 1:
                out.add((a, b, c))
    return out


def oracle_indefinite_reduced(D):
    """All reduced indefinite forms by scanning the inequality window."""
    out = set()
    s = isqrt(D)
    for b in range(1, s + 1):
        if (b - D) % 2:
            continue
        for twoa in range(s - b + 1, s + b + 1):
            if twoa % 2:
                continue
            a = twoa // 2
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            out.add((a, b, c))
            out.add((-a, b, -c))
    return out


# ---------------------------------------------------------------------------
# principal / reduce
# ---------------------------------------------------------------------------


def test_principal_form_examples():
    assert principal_form(-20) == Form(1, 0, 5)
    assert principal_form(5) == Form(1, 1, -1)
    assert principal_form(12) == Form(1, 0, -3)


def test_principal_rejects_nonfundamental():
    for D in (0, 1, 4, -4 * 4, 25, -27, 18, 1087**2):
        with pytest.raises(ValueError):
            principal_form(D)


def test_reduce_examples():
    assert reduce(Form(5, 0, 1)) == Form(1, 0, 5)
    assert reduce(Form(2, 2, 3)) == Form(2, 2, 3)
    cyc = reduction_cycle(Form(1, 0, -3))
    assert Form(1, 2, -2) in cyc and Form(-2, 2, 1) in cyc
    assert set(cyc) <= oracle_indefinite_reduced(12)


def test_reduce_rejects_imprimitive():
    with pytest.raises(ValueError):
        reduce(Form(2, 0, 10))  # gcd 2, disc -80


def test_reduce_idempotent_and_disc_preserved():
    rng = random.Random(5)
    for D in (-20, -84, -71, 12, 60, 229):
        for _ in range(20):
            f = _random_form(rng, D)
            g = reduce(f)
            assert g.disc == D
            assert reduce(g) == g


def _random_form(rng, D, f=None):
    # random primitive form of disc D via a random SL2 transform of f,
    # by default the principal form
    f = f or principal_form(D)
    for _ in range(6):
        t = rng.randint(-3, 3)
        a, b, c = f
        if rng.random() < 0.5:
            f = Form(a, b + 2 * a * t, a * t * t + b * t + c)
        else:
            f = Form(c, -b, a)
    return f


def test_reduce_transform_is_proper_equivalence():
    rng = random.Random(11)
    # 2184769 has long rho cycles, so the walk to the minimum takes many steps
    for D in (-20, -84, -163, 12, 60, 316, 2184769):
        for _ in range(15):
            f = _random_form(rng, D)
            g, (m11, m12, m21, m22) = reduce_with_transform(f)
            assert m11 * m22 - m12 * m21 == 1
            for x in range(-4, 5):
                for y in range(-4, 5):
                    u, v = m11 * x + m12 * y, m21 * x + m22 * y
                    assert f.a * u * u + f.b * u * v + f.c * v * v == g.a * x * x + g.b * x * y + g.c * y * y


def test_reduce_preserves_represented_integers_definite():
    # exact sound box: f(x,y) <= N needs |x|,|y| <= sqrt(4*N*max(a,c)/|D|)+1
    def represented(f, N=100):
        bound = isqrt(4 * N * max(abs(f.a), abs(f.c)) // abs(f.disc)) + 2
        vals = set()
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                v = f.a * x * x + f.b * x * y + f.c * y * y
                if abs(v) <= N:
                    vals.add(v)
        return vals

    rng = random.Random(3)
    for D in (-20, -84, -56):
        for _ in range(8):
            f = _random_form(rng, D)
            assert represented(f) == represented(reduce(f))


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------


def test_compose_identity_law():
    cg = class_group(-20)
    e = principal_form(-20)
    for f in cg.reps:
        assert compose(e, f) == reduce(f)


def test_compose_square_of_ambiguous():
    assert compose(Form(2, 2, 3), Form(2, 2, 3)) == Form(1, 0, 5)


def test_compose_example_disc_84():
    # brute-force composition table over the 4 reduced forms of disc -84
    reps = [Form(1, 0, 21), Form(2, 2, 11), Form(3, 0, 7), Form(5, 4, 5)]
    assert {tuple(f) for f in reps} == oracle_definite_reduced(-84)
    table = {(f, g): compose(f, g) for f in reps for g in reps}
    assert table[(Form(2, 2, 11), Form(3, 0, 7))] == Form(5, 4, 5)
    # closure and the Klein four-group structure
    for (f, g), h in table.items():
        assert h in reps
        assert table[(g, f)] == h
    for f in reps:
        assert table[(f, f)] == Form(1, 0, 21)


def test_compose_associative_commutative():
    rng = random.Random(17)
    for D in (-84, -120, 12, 60):
        cg = class_group(D)
        for _ in range(25):
            f, g, h = (rng.choice(cg.reps) for _ in range(3))
            assert compose(f, g) == compose(g, f)
            assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_compose_rejects_mismatched_disc():
    with pytest.raises(ValueError):
        compose(Form(1, 0, 5), Form(1, 0, 3))


def test_compose_validates_once(monkeypatch):
    # f is checked in full (one factorisation); g only against f's
    # discriminant and for its shape
    groups = [class_group(D) for D in (-84, 60)]
    calls = []
    monkeypatch.setattr(bqf, "factorize", lambda n: calls.append(n) or factorize(n))
    for cg in groups:
        calls.clear()
        assert compose(cg.reps[-1], cg.reps[-2]) == cg.reps[cg.mul(cg.h_plus - 1, cg.h_plus - 2)]
        assert len(calls) == 1, cg.D
    # g of another discriminant, fundamental or not, is a mismatch
    for g in (Form(1, 0, 3), Form(1, 1, 1)):
        with pytest.raises(ValueError, match="discriminant mismatch"):
            compose(Form(1, 0, 5), g)
    with pytest.raises(ValueError, match="negative definite"):
        compose(Form(1, 0, 21), Form(-1, 0, -21))


# ---------------------------------------------------------------------------
# class groups
# ---------------------------------------------------------------------------


def test_class_group_minus_20():
    cg = class_group(-20)
    assert cg.h_plus == 2
    assert cg.reps == (Form(1, 0, 5), Form(2, 2, 3))
    assert cg.invariant_factors == (2,)


def test_class_group_minus_84():
    cg = class_group(-84)
    assert cg.h_plus == 4
    assert cg.invariant_factors == (2, 2)
    assert set(map(tuple, cg.reps)) == oracle_definite_reduced(-84)


def test_class_group_disc_12():
    cg = class_group(12)
    assert cg.h_plus == 2
    assert cg.invariant_factors == (2,)


def test_class_group_real_spot_values():
    # h+(8) = 1 (norm -1 unit exists), h+(60) = 4 = twice the wide h = 2
    assert class_group(8).h_plus == 1
    assert class_group(40).h_plus == 2
    cg = class_group(60)
    assert cg.h_plus == 4 and cg.invariant_factors == (2, 2)


def test_class_group_cyclic_structure():
    # h(-39) = 4 cyclic; h(-47) = 5
    assert class_group(-39).invariant_factors == (4,)
    assert class_group(-47).invariant_factors == (5,)
    assert class_group(-87).invariant_factors == (6,)


def test_definite_class_numbers_against_oracle():
    for D in [D for D in fundamental_range(2000) if D < 0] + [-4735144, -9999991]:
        forms = oracle_definite_reduced(D)
        cg = class_group(D)
        assert cg.h_plus == len(forms), D
        assert set(map(tuple, cg.reps)) == forms, D


def test_indefinite_reduced_forms_match_oracle():
    for D in [D for D in fundamental_range(2000) if D > 0] + [1795517, 2184769]:
        reported = set()
        cg = class_group(D)
        for f in cg.reps:
            reported |= set(map(tuple, reduction_cycle(f)))
        assert reported == oracle_indefinite_reduced(D), D


def test_group_axioms_on_table():
    for D in (-84, -104, 60, 145):
        cg = class_group(D)
        h = cg.h_plus
        e = cg.identity
        for i in range(h):
            a, b, c = cg.reps[i]
            assert cg.mul(e, i) == i
            assert cg.mul(i, cg.class_index(Form(a, -b, c))) == e
        for i in range(h):
            for j in range(h):
                assert cg.mul(i, j) == cg.mul(j, i)


def test_two_torsion_count_is_genus_rank():
    # number of order <= 2 classes equals 2^(r-1), r = #primes dividing D
    for D in fundamental_range(2000):
        cg = class_group(D)
        r = len(factorize(D).primes)
        assert len(cg.two_torsion()) == 1 << (r - 1), D
        assert cg.two_torsion_rank == r - 1, D
        squares = {cg.mul(i, i) for i in range(cg.h_plus)}
        # squares form the image of squaring; its size is h / 2^(r-1)
        assert len(squares) * (1 << (r - 1)) == cg.h_plus, D


def test_group_structure_matches_cayley_table():
    for D in fundamental_range(1000) + [-29399, -3299, -4027, -3896]:
        # the Cayley table on cg.reps, from the public compose and reduce
        cg = class_group(D)
        pos = {f: i for i, f in enumerate(cg.reps)}
        table = [[pos[compose(f, g)] for g in cg.reps] for f in cg.reps]
        e = pos[reduce(principal_form(D))]
        h = cg.h_plus
        assert cg.identity == e, D
        orders = []
        for x in range(h):
            n, y = 1, x
            while y != e:
                y, n = table[y][x], n + 1
            orders.append(n)
        assert list(cg._orders) == orders, D
        # an abelian group with invariant factors n_i has prod gcd(m, n_i)
        # elements killed by m, for every m; these counts fix the group
        factors = cg.invariant_factors
        assert all(n > 1 for n in factors), D
        assert all(b % a == 0 for a, b in zip(factors, factors[1:])), D
        prod = 1
        for n in factors:
            prod *= n
        assert prod == h, D
        for m in range(1, h + 1):
            if h % m == 0:
                expect = 1
                for n in factors:
                    expect *= gcd(m, n)
                assert sum(1 for o in orders if m % o == 0) == expect, (D, m)
        two = tuple(x for x in range(h) if table[x][x] == e)
        assert cg.two_torsion() == two, D
        span = {e}
        for x in cg.two_torsion_basis:
            span |= {table[x][y] for y in span}
        assert len(span) == 1 << len(cg.two_torsion_basis), D
        assert tuple(sorted(span)) == two, D


def test_private_paths_match_public_ones():
    # class_group's recorded squares, the unchecked ambiguous-class lookup
    # and the transform-free reduction, against the checked public paths
    rng = random.Random(17)
    for D in fundamental_range(2000):
        cg = class_group(D)
        assert list(cg._squares) == [cg.mul(x, x) for x in range(cg.h_plus)], D
        for p in factorize(D).primes:
            assert cg._lookup(bqf._ambiguous_form(p, D)) == cg.class_index(ambiguous_form(p, D)), (p, D)
        for _ in range(4):
            f = _random_form(rng, D, rng.choice(cg.reps))
            assert bqf._reduced(f, D) in reduction_cycle(f), (f, D)


def test_class_index_rejects_invalid_forms():
    cg = class_group(-20)
    with pytest.raises(ValueError):
        cg.class_index(Form(-1, 0, -5))  # negative definite


def test_class_group_is_hashable():
    assert hash(class_group(-84)) == hash(class_group(-84))
    assert class_group(-84) == class_group(-84) != class_group(-104)


def test_class_group_repr_omits_index():
    assert "_index" not in repr(class_group(-84))


# ---------------------------------------------------------------------------
# ambiguous forms
# ---------------------------------------------------------------------------


def test_ambiguous_form_examples():
    assert ambiguous_form(2, -20) == Form(2, 2, 3)
    assert ambiguous_form(5, -20) == Form(5, 0, 1)
    assert ambiguous_form(3, 12) == Form(3, 0, -1)


def test_ambiguous_form_rejects_unramified():
    for p in (3, 0, -2, 10, 1):  # unramified, zero, negative, composite, unit
        with pytest.raises(ValueError):
            ambiguous_form(p, -20)


def test_ambiguous_forms_have_order_two():
    for D in fundamental_range(2000):
        for p in factorize(D).primes:
            f = ambiguous_form(p, D)
            b = next(b for b in range(2 * p) if (b - D) % 2 == 0 and (b * b - D) % (4 * p) == 0)
            assert f == Form(p, b, (b * b - D) // (4 * p)), (p, D)
            assert f.disc == D, (p, D)
            assert f.a == p
            assert compose(f, f) == reduce(principal_form(D)), (p, D)


# ---------------------------------------------------------------------------
# resource bounds
# ---------------------------------------------------------------------------


def test_class_group_rejects_nonpositive_max_h():
    # a usage error, raised before the |D| bound or any enumeration
    for max_h in (0, -1):
        for D in (-20, -(10**7 + 4)):
            with pytest.raises(ValueError, match="max_h"):
                class_group(D, max_h=max_h)
    assert class_group(-20, max_h=2).h_plus == 2


def test_resource_bounds():
    with pytest.raises(ResourceLimitError):
        class_group(-84, max_h=3)
    with pytest.raises(ResourceLimitError):
        class_group(-(10**7 + 4))


# the product of two 16-digit primes: factorising it takes seconds
HUGE_D = -1000000000000128000000000003367


def test_disc_bound_checked_before_factorising(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorize({n}) ran before the bound check")

    monkeypatch.setattr(bqf, "factorize", refuse)
    with pytest.raises(ResourceLimitError):
        class_group(HUGE_D)
    # too large and not fundamental: the bound is reported
    with pytest.raises(ResourceLimitError):
        class_group(-16 * 10**7)
