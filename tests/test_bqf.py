"""Tests for binary quadratic forms, reduction, composition, and the
narrow class group.

The definite oracle is the a-outer window scan (a up to sqrt(|D|/3), b
over (-a, a]) that the library once used. The indefinite oracle scans the
whole inequality window of 2|a| for each b. The enumeration oracle is
the b-first divisor enumeration the library used before it built b from
the square roots of D mod 4a. None of them shares code with the
library's enumeration. Reduction is checked from outside: a canonical
form carried by a random word of SL2(Z) generators, built here, must
reduce back to itself. The Redei-matrix oracle reads the 4-rank of the
class group off Kronecker symbols, with its own trial division and
GF(2) rank, and composes nothing.
"""

import random
from collections import Counter
from math import gcd, isqrt, prod

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


def oracle_b_first(D):
    """The reduced forms the library enumerates, sorted, b-first: for each
    b = D (mod 2), the a over the divisors of |b^2 - D|/4 up to its square
    root. Every reduced form when D < 0; when D > 0 the seeds (a, b, c)
    with 0 < a <= -c, the negated seeds being filed from their walks."""
    forms = []
    if D < 0:
        for b in range(D % 2, isqrt(-D // 3) + 1, 2):
            num = (b * b - D) // 4
            for a in [a for a in range(max(b, 1), isqrt(num) + 1) if num % a == 0]:
                c = num // a
                forms.append(Form(a, b, c))
                if 0 < b < a < c:
                    forms.append(Form(a, -b, c))
    else:
        s = isqrt(D)
        for b in range(D % 2, s + 1, 2):
            num = (D - b * b) // 4
            for a in [a for a in range((s - b) // 2 + 1, isqrt(num) + 1) if num % a == 0]:
                forms.append(Form(a, b, -(num // a)))
    return sorted(forms)


def _prime_discriminants(D):
    """The prime discriminants whose product is the fundamental D, by trial
    division: p* = +-p = 1 (mod 4) for each odd prime p | D, then the even
    one (-4, 8 or -8), D over their product, when D is even."""
    n, p, odd = abs(D), 3, []
    while n % 2 == 0:
        n //= 2
    while p * p <= n:
        if n % p == 0:
            odd.append(p if p % 4 == 1 else -p)
            n //= p
        p += 2
    if n > 1:
        odd.append(n if n % 4 == 1 else -n)
    even = D // prod(odd)
    return odd + [even] * (even != 1)


def _kronecker_is_minus_one(d, p):
    """(d / p) = -1, for a prime p not dividing d."""
    if p == 2:
        return d % 8 in (3, 5)
    return pow(d, (p - 1) // 2, p) == p - 1


def _gf2_rank(rows):
    rank = 0
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def oracle_four_rank(D):
    """The number of invariant factors of the narrow class group divisible
    by 4, t - 1 - rank R, for D the product of t prime discriminants d_j
    (Redei and Reichardt, 1934). R is Redei's matrix over GF(2): entry
    (i, j), i != j, is 1 when (d_j / p_i) = -1, where p_i is the prime of
    d_i, and the diagonal makes each row sum to 0."""
    ds = _prime_discriminants(D)
    rows = []
    for i, di in enumerate(ds):
        p = abs(di) if di % 2 else 2
        row = sum(1 << j for j, dj in enumerate(ds) if j != i and _kronecker_is_minus_one(dj, p))
        # the diagonal entry is the parity of the others
        rows.append(row | bin(row).count("1") % 2 << i)
    return len(ds) - 1 - _gf2_rank(rows)


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


def _random_form(rng, D, f=None, steps=6):
    # f, by default the principal form, carried by a random word of
    # ``steps`` SL2(Z) generators: T^t sends (a, b, c) to
    # (a, b + 2at, at^2 + bt + c), and S sends it to (c, -b, a)
    f = f or principal_form(D)
    for _ in range(steps):
        t = rng.randint(-3, 3)
        a, b, c = f
        if rng.random() < 0.5:
            f = Form(a, b + 2 * a * t, a * t * t + b * t + c)
        else:
            f = Form(c, -b, a)
    return f


# small groups, -9999991 (h+ = 1715) and 2184769, which has long rho cycles
CANONICAL_GROUPS = (-20, -84, -163, -9999991, 12, 60, 316, 2184769)


def test_reduce_returns_the_canonical_form():
    # a class's canonical form, moved off it by 1-12 generators, reduces
    # back to it: reduction stays in the class and lands on the canonical
    # form (for D > 0 the cycle minimum)
    rng = random.Random(11)
    for D in CANONICAL_GROUPS:
        for f in class_group(D).reps:
            g = _random_form(rng, D, f, rng.randint(1, 12))
            assert g.disc == D
            assert reduce(g) == f, (g, f)


def _rho_by_formula(f, D):
    # rho(a, b, c) = (c, b', (b'^2 - D) / 4c), with b' the largest integer
    # below sqrt(D) such that b' = -b (mod 2|c|)
    _, b, c = f
    m = 2 * abs(c)
    b2 = -b + m * ((isqrt(D) + b) // m)
    assert (b2 * b2 - D) % (4 * c) == 0, (f, D)
    return Form(c, b2, (b2 * b2 - D) // (4 * c))


def test_reduction_cycle_is_the_rho_cycle_from_its_least_form():
    # the cycle's contract, checked apart from the walk class_group runs:
    # it starts at its least form, which reduce returns; each entry is rho
    # of the one before by the formula above, not bqf._rho, and one more
    # step closes the cycle; every entry is reduced by the window oracle
    rng = random.Random(31)
    for D in sorted({D for D in fundamental_range(2999) if D > 0} | set(CANONICAL_GROUPS)):
        reduced = oracle_indefinite_reduced(D) if D > 0 else None
        for f in class_group(D).reps:
            g = _random_form(rng, D, f, rng.randint(1, 12))
            cyc = reduction_cycle(g)
            assert cyc[0] == min(cyc) == reduce(g), (g, D)
            if D < 0:
                (a, b, c), = cyc
                assert abs(b) <= a <= c and (b >= 0 or abs(b) < a < c), (g, D)
                continue
            assert len(set(cyc)) == len(cyc), (g, D)
            for x, y in zip(cyc, cyc[1:] + cyc[:1]):
                assert _rho_by_formula(x, D) == y, (x, D)
            assert set(cyc) <= reduced, (g, D)


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


def test_class_group_factorises_only_d(monkeypatch):
    # the fundamental check is the one factorisation; h is not factorised
    calls = []
    monkeypatch.setattr(bqf, "factorize", lambda n: calls.append(n) or factorize(n))
    for D, n in ((-84, -21), (-9999991, -9999991), (2184769, 2184769)):
        calls.clear()
        class_group(D)
        assert calls == [n], D


def test_invariant_factors_from_orders():
    # Z/2 x Z/4 as pairs (a, b): the order of (a, b) is lcm(|a|, |b|)
    z2_z4 = [max(2 // gcd(a, 2), 4 // gcd(b, 4)) for a in range(2) for b in range(4)]
    assert bqf._invariant_factors(z2_z4) == (2, 4)
    assert bqf._invariant_factors([1]) == ()
    assert bqf._invariant_factors([1, 3, 3]) == (3,)
    # order lists of no abelian group that leave no factor to peel: a bug
    # report, never StopIteration
    for orders in ([1, 1], [1, 2, 2], [1, 3, 3, 3], [1, 4, 4, 4, 2, 2]):
        with pytest.raises(ArithmeticError, match=r"\(bug\)"):
            bqf._invariant_factors(orders)


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


def test_a_first_enumeration_matches_b_first():
    # the 2-adic cases: D = 1 and 5 (mod 8), D = 4d with d = 2 and 3 (mod 4)
    cases = {1: [-15, 17, -9999991, 1999441], 5: [-3, 5, -9999995, 9999997], 2: [-4735144, 8, 9999992], 3: [-4, 12, -237828, 9999996]}
    for key, Ds in cases.items():
        assert all((D % 8 if D % 2 else D // 4 % 4) == key for D in Ds), key
    # the nine fields-large fields of seed 1 (D = 4d for the imaginary four)
    fields = [-237828, -921572, -1856408, -4735144, 1795517, 1880933, 1999441, 2075713, 2184769]
    small = fundamental_range(5000)
    assert len(small) == 3040
    for D in small + [D for Ds in cases.values() for D in Ds] + fields:
        assert is_fundamental(D), D
        assert bqf._enumerate_reduced(D) == oracle_b_first(D), D


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


def test_four_rank_matches_redei_matrix():
    # the 4-rank of the composed group against an oracle that never
    # composes; -29523 has the group Z/4 x Z/8, 4-rank 2
    Ds = fundamental_range(2999) + [-29523]
    ranks = {}
    for D in Ds:
        four = sum(1 for n in class_group(D).invariant_factors if n % 4 == 0)
        assert oracle_four_rank(D) == four, D
        ranks[four] = ranks.get(four, 0) + 1
    assert class_group(-29523).invariant_factors == (4, 8)
    assert ranks == {0: 1422, 1: 397, 2: 2}


def test_private_paths_match_public_ones():
    # class_group's recorded squares, the unchecked ambiguous-class lookup
    # and the unchecked reduction, against the checked public paths
    rng = random.Random(17)
    for D in fundamental_range(2000):
        cg = class_group(D)
        assert list(cg._squares) == [cg.mul(x, x) for x in range(cg.h_plus)], D
        for p in factorize(D).primes:
            assert cg._lookup(bqf._ambiguous_form(p, D)) == cg.class_index(ambiguous_form(p, D)), (p, D)
        for _ in range(4):
            f = _random_form(rng, D, rng.choice(cg.reps))
            assert bqf._reduced(f, D) in reduction_cycle(f), (f, D)


def test_inverse_lookup_composes_to_the_identity():
    # class_group's inverses are lookups, with no composition; each class
    # composed with its inverse by the public compose is principal
    for D in (*fundamental_range(2999), *CANONICAL_GROUPS):
        cg = class_group(D)
        one = reduce(principal_form(D))
        for f, i in zip(cg.reps, bqf._inverses(D, cg.reps, cg._index)):
            assert compose(f, cg.reps[i]) == one, (f, D)


def test_compositions_over_a_scan_are_pinned(monkeypatch):
    # the half walks and the genus images read off 2-torsion coordinates
    # make 27,029 compositions over these records; one composition per
    # walk step and per genus image made 73,284
    from genuskit.cli import compute_record

    calls = []
    raw = bqf._compose_raw
    monkeypatch.setattr(bqf, "_compose_raw", lambda f, g, D: calls.append(D) or raw(f, g, D))
    fields = [d for d in range(-2500, 2501) if d not in (0, 1) and factorize(d).is_squarefree]
    assert len(fields) == 3045
    for d in fields:
        compute_record(d)
    assert len(calls) <= 30_000


# the real fields of seed 1's fields-large round, with long rho cycles
LARGE_REAL = (1795517, 1880933, 1999441, 2075713, 2184769)


def _real_fields(top):
    return [d for d in range(2, top) if factorize(d).is_squarefree] + list(LARGE_REAL)


def test_negated_class_is_the_class_exactly_with_a_norm_minus_one_unit():
    # (-a, b, -c) is (a, b, c) composed with the negated principal form,
    # which is principal exactly when a unit of norm -1 exists; so either
    # every class is its own negation or none is. class_index walks the
    # negated rep to a seed; the index holds the seeds of every cycle
    from genuskit.quadfield import field_from_d, has_norm_minus_one

    fields = _real_fields(3000)
    assert len(fields) == 1828
    units = 0
    for d in fields:
        cg = class_group(d if d % 4 == 1 else 4 * d)
        negated = [cg.class_index(Form(-a, b, -c)) for a, b, c in cg.reps]
        unit = has_norm_minus_one(field_from_d(d))
        units += unit
        assert [i == j for i, j in enumerate(negated)] == [unit] * cg.h_plus, d
        assert sorted(negated) == list(range(cg.h_plus)), d
        seeds = {g for f in cg.reps for g in reduction_cycle(f) if abs(g.a) <= abs(g.c)}
        assert set(cg._index) == seeds, d
    assert units == 408


def test_lookups_walk_at_most_five_rho_steps(monkeypatch):
    # a lookup reduces, then steps rho from a reduced form to a seed
    # (|a| <= |c|), the only forms the index holds; count those steps
    from genuskit.cli import compute_record

    steps = []
    rho, reduced = bqf._rho, bqf._reduced

    def counting_rho(f, D, s):
        if steps and bqf._is_reduced_indef(f, s):
            steps[-1] += 1
        return rho(f, D, s)

    def counting_reduced(f, D):
        steps.append(0)
        return reduced(f, D)

    monkeypatch.setattr(bqf, "_rho", counting_rho)
    monkeypatch.setattr(bqf, "_reduced", counting_reduced)
    for d in _real_fields(2501):
        compute_record(d)
    # 16,518 lookups took 4,636 steps, at most 5 each, when this was written
    assert len(steps) > 10_000
    assert 0 < sum(steps) <= 5000 and max(steps) <= 5, (sum(steps), max(steps))


def _compose_general(f, g, D):
    """Dirichlet composition by two extended gcds (Cohen, GTM 138, Alg.
    5.4.7), b3 reduced mod 2 a3: the raw form, with its own xgcd."""

    def xgcd(x, y):
        if y == 0:
            return (abs(x), 1 if x >= 0 else -1, 0)
        q, r = divmod(x, y)
        e, u, v = xgcd(y, r)
        return e, v, u - q * v

    (a1, b1, _), (a2, b2, _) = f, g
    d1, u1, v1 = xgcd(a1, a2)
    d, u2, v2 = xgcd(d1, (b1 + b2) // 2)
    a3 = a1 * a2 // (d * d)
    b3 = (u2 * u1 * a1 * b2 + u2 * v1 * a2 * b1 + v2 * (b1 * b2 + D) // 2) // d % (2 * a3)
    return (a3, b3, (b3 * b3 - D) // (4 * a3))


def test_coprime_composition_matches_the_general_formula():
    # _compose_raw composes coprime a1, a2 by one inverse mod a1; both
    # paths, on reps and on random forms of both signs of a, give the raw
    # form the general formula gives
    rng = random.Random(23)
    pairs = []
    for D in CANONICAL_GROUPS:
        reps = class_group(D).reps
        # all pairs, but each of the 1,715 reps of -9999991 with 40 others
        others = reps if len(reps) < 100 else rng.sample(reps, 40)
        pairs += [(D, f, g) for f in reps for g in others]
    for D in fundamental_range(400) + [2184769, -9999991]:
        for _ in range(40):
            f, g = (_random_form(rng, D, steps=rng.randint(1, 8)) for _ in range(2))
            if D > 0 and rng.random() < 0.5:
                f = Form(-f.a, f.b, -f.c)
            pairs.append((D, f, g))
    coprime = 0
    # the general path's special cases: s = (b1 + b2) / 2 = 0, an inverse
    # mod |a2 / d1| = 1, d = gcd(d1, s) > 1, and a negative a
    cases = Counter()
    for D, f, g in pairs:
        assert bqf._compose_raw(f, g, D) == _compose_general(f, g, D), (f, g, D)
        d1 = gcd(f.a, g.a)
        if d1 == 1:
            coprime += 1
            continue
        s = (f.b + g.b) // 2
        cases.update({"s = 0": s == 0, "|a2/d1| = 1": abs(g.a) == d1, "d > 1": gcd(d1, s) > 1, "a < 0": min(f.a, g.a) < 0})
    # 40,849 of the 85,326 pairs take the coprime path; of the other
    # 44,477, the cases hold for 324, 2,046, 23,971 and 5,279
    assert min(coprime, len(pairs) - coprime) > 10_000, (coprime, len(pairs))
    assert min(cases.values()) > 0, cases
    assert any(f.a < 0 < D for D, f, _ in pairs)


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


# a prime whose principal rho cycle holds more than bqf._STEP_CAP forms
LONG_CYCLE_D = 1000000000000037


def test_long_reduction_cycle_is_a_resource_limit():
    # a valid D past class_group's bound: a resource limit, not a bug
    f = principal_form(LONG_CYCLE_D)
    for call in (lambda: reduce(f), lambda: reduction_cycle(f), lambda: compose(f, f)):
        with pytest.raises(ResourceLimitError, match=str(LONG_CYCLE_D)):
            call()


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
