"""Integral binary quadratic forms of fundamental discriminant D:
reduction (definite and indefinite), proper equivalence, composition,
ambiguous forms of ramified primes, and the full narrow class group.

Form classes under proper (determinant +1) equivalence are the standard
finitely presented model of the narrow class group of Q(sqrt(D)); that
identification is classical and used here without further comment.

For D < 0 only positive definite forms are kept and each class has a
unique reduced representative (|b| <= a <= c, b >= 0 when |b| = a or
a = c). For D > 0 the reduced forms of a class form a cycle under the
rho operator, two reduced forms are properly equivalent iff they lie on
the same cycle, and the canonical representative of a class is the
lexicographic minimum of its cycle.

``class_group`` lists reduced forms a-first: for each a up to
sqrt(|D|/3) (D < 0) or sqrt(D)/2 (D > 0), the b with b^2 = D (mod 4a)
come from the square roots of D mod the prime powers of a, one b per
residue mod 2a (Cohen, GTM 138, section 5.3). One window rule serves
both signs: b lies in (hi - 2a, hi], with hi = a for D < 0 and
hi = isqrt(D) for D > 0, and the form is kept when c > a, or c = a and
b >= 0. For D > 0 that lists only the seeds (a, b, -c) with
0 < a <= c: reduced forms with |a| <= |c| and a > 0. Each rho cycle
holds a seed, because each form's a is the c of the form before it, and
``class_group`` walks each cycle once on integers and indexes only its
seeds: a lookup reduces a form and steps rho on to a seed, at most 5
steps over the fields 2 <= d <= 2500. Negation (a, b, c) -> (-a, b, -c)
commutes with rho, whose new b depends only on b and |c|, so a walk
gives the negated cycle too: another class unless a unit of norm -1
exists, when every class is its own negation (Buchmann and Vollmer,
*Binary Quadratic Forms*, Springer 2007, ch. 6).

Composition takes a3 = a1 a2 and b3 by one inverse mod a1 when
gcd(a1, a2) = 1. Otherwise it follows Cohen, Alg. 5.4.7, with each of
its two Bezout pairs taken from ``math.gcd`` and one inverse.

One loop per sign reduces a form, and one walk, ``_cycle_seeds``, goes
round a rho cycle: ``class_group`` runs it once per cycle, and
``reduce``, ``compose`` and ``reduction_cycle`` read the canonical form
off it. The hot paths (``_rho``, ``_cycle_seeds``, reduction,
composition and ``_enumerate_reduced``) build each form with
``tuple.__new__(Form, (a, b, c))``: the same object as ``Form(a, b, c)``,
without NamedTuple's generated Python-level ``__new__``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import gcd, isqrt, prod
from typing import NamedTuple

from .errors import ResourceLimitError
from .intkit import _sqrt_mod_prime, factorize, is_prime

__all__ = [
    "Form",
    "ClassGroup",
    "ambiguous_form",
    "class_group",
    "compose",
    "is_fundamental",
    "principal_form",
    "reduce",
    "reduction_cycle",
]

DEFAULT_MAX_H = 10_000
DEFAULT_MAX_DISC = 10_000_000

_STEP_CAP = 100_000


class Form(NamedTuple):
    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_primitive(self) -> bool:
        return gcd(gcd(self.a, self.b), self.c) == 1

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


def is_fundamental(D: int) -> bool:
    """True iff D is a fundamental discriminant (of a quadratic field)."""
    if D in (0, 1):
        return False
    if D % 4 == 1:
        return factorize(D).is_squarefree
    if D % 4 == 0:
        q = D // 4
        return q % 4 in (2, 3) and factorize(q).is_squarefree
    return False


def _require_fundamental(D: int) -> None:
    if not is_fundamental(D):
        raise ValueError(f"{D} is not a fundamental discriminant")


def _require_within(D: int) -> None:
    if abs(D) > DEFAULT_MAX_DISC:
        raise ResourceLimitError(f"|D| = {abs(D)} exceeds the bound {DEFAULT_MAX_DISC}")


def principal_form(D: int) -> Form:
    _require_fundamental(D)
    return _principal_form(D)


def _principal_form(D: int) -> Form:
    b = D % 2
    return Form(1, b, (b - D) // 4)


def _check_form(f: Form) -> int:
    _require_fundamental(f.disc)
    return _check_shape(f)


def _check_shape(f: Form) -> int:
    """Checks of _check_form that hold once D is known to be fundamental."""
    D = f.disc
    if not f.is_primitive:
        raise ValueError(f"form {f} is imprimitive")
    if D < 0 and f.a <= 0:
        raise ValueError(f"form {f} is negative definite; only a > 0 is kept for D < 0")
    return D


def _reduce_definite(f: Form) -> Form:
    """The reduced form properly equivalent to the positive definite f."""
    a, b, c = f
    for _ in range(_STEP_CAP):
        if b > a or b <= -a:
            # translate: b into (-a, a]
            r = b % (2 * a)
            if r > a:
                r -= 2 * a
            t = (r - b) // (2 * a)
            b, c = b + 2 * a * t, a * t * t + b * t + c
        elif a > c or b < 0 and a == c:
            a, b, c = c, -b, a
        else:
            return tuple.__new__(Form, (a, b, c))
    raise ArithmeticError("definite reduction did not terminate (bug)")


def _is_reduced_indef(f: Form, s: int) -> bool:
    # 0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b, in exact terms
    return 1 <= f.b <= s and s - f.b + 1 <= 2 * abs(f.a) <= s + f.b


def _rho(f: Form, D: int, s: int) -> Form:
    """One step of the reduction operator."""
    _, b, c = f
    ac = abs(c)
    if ac <= s:
        # next b is the largest value = -b (mod 2|c|) below sqrt(D)
        r = s - (s + b) % (2 * ac)
    else:
        r = (-b) % (2 * ac)
        if r > ac:
            r -= 2 * ac
    return tuple.__new__(Form, (c, r, (r * r - D) // (4 * c)))


def _reduce_indef(f: Form, D: int) -> Form:
    """A seed properly equivalent to the indefinite f: a reduced form with
    |a| <= |c|. Once reduced, rho stays on the cycle and each step's a is
    the c before it, so |a| cannot fall at every step and a seed comes."""
    s = isqrt(D)
    for _ in range(_STEP_CAP):
        if _is_reduced_indef(f, s) and abs(f.a) <= abs(f.c):
            return f
        f = _rho(f, D, s)
    raise ArithmeticError("indefinite reduction did not terminate (bug)")


def _cycle_seeds(f: Form, D: int) -> tuple[tuple[int, int], tuple[int, int], list[Form]]:
    """The least (a, b) of the rho cycle through the reduced form f, the
    least (a, b) of its negation (-a, b, -c), and the cycle's seeds
    (|a| <= |c|) from f on.

    The walk runs on local integers and builds a Form only for a seed.
    Each step is ``_rho``'s first branch, because a reduced form has
    |c| <= isqrt(D), and each step's a is the c before it. A form off the
    reduced cycle is an ArithmeticError ("(bug)"), and a cycle of more
    than ``_STEP_CAP`` forms a ResourceLimitError. c is fixed by a and
    b, so (a, b) orders forms as (a, b, c) does. a and c have opposite
    signs and each a is the c before it, so a changes sign at every
    step: the least form has a < 0, and the least of the negation is the
    negated form with the largest a > 0 (least b among those).
    """
    s = isqrt(D)
    a0, b0, _ = a, b, c = f
    la = lb = na = nb = 0
    seeds = []
    for _ in range(_STEP_CAP):
        if a < 0:
            if a < la or a == la and b < lb:
                la, lb = a, b
            if a + c >= 0:
                seeds.append(tuple.__new__(Form, (a, b, c)))
            m = 2 * c
        else:
            if -a < na or -a == na and b < nb:
                na, nb = -a, b
            if a + c <= 0:
                seeds.append(tuple.__new__(Form, (a, b, c)))
            m = -2 * c
        # m = 2|c| = 2|a| of the next form
        a, b = c, s - (s + b) % m
        c = (b * b - D) // (4 * a)
        if a == a0 and b == b0:
            return (la, lb), (na, nb), seeds
        if not (1 <= b <= s and s - b + 1 <= m <= s + b):
            raise ArithmeticError(f"rho left the reduced cycle at ({a}, {b}, {c}) (bug)")
    raise ResourceLimitError(f"the reduction cycle of D = {D} holds more than {_STEP_CAP} forms")


def _reduced(f: Form, D: int) -> Form:
    """A reduced form properly equivalent to f, without validation: for
    D > 0 a seed (|a| <= |c|) of its cycle, not necessarily the canonical
    form, so that ``ClassGroup``'s index needs to hold only the seeds."""
    return _reduce_definite(f) if D < 0 else _reduce_indef(f, D)


def _canonical(f: Form, D: int) -> Form:
    """The canonical form of the class of f, unchecked: for D > 0 the
    least form of its rho cycle, read off the walk ``class_group`` runs."""
    g = _reduced(f, D)
    if D < 0:
        return g
    (a, b), _, _ = _cycle_seeds(g, D)
    return tuple.__new__(Form, (a, b, (b * b - D) // (4 * a)))


def reduce(f: Form) -> Form:
    """Canonical reduced representative of the proper equivalence class.

    Raises ResourceLimitError when D > 0 and the rho cycle holds more
    than ``_STEP_CAP`` (10^5) forms, which ``class_group``'s bound on |D|
    never reaches.
    """
    f = Form(*f)
    return _canonical(f, _check_form(f))


def reduction_cycle(f: Form) -> tuple[Form, ...]:
    """All reduced forms properly equivalent to f.

    For D < 0 this is a single form. For D > 0 it is the full rho cycle,
    listed from the canonical (lexicographically least) form on: each
    form is the rho image of the one before it, and rho takes the last
    back to the first. ``reduce`` has walked that cycle already under
    ``_STEP_CAP`` and raises its ResourceLimitError, so this walk ends.
    """
    cycle = [reduce(f)]
    D = cycle[0].disc
    if D > 0:
        s = isqrt(D)
        while (g := _rho(cycle[-1], D, s)) != cycle[0]:
            cycle.append(g)
    return tuple(cycle)


def _compose_raw(f: Form, g: Form, D: int) -> Form:
    # Dirichlet composition; output has the same discriminant, not reduced.
    a1, b1, _ = f
    a2, b2, _ = g
    if gcd(a1, a2) == 1:
        # b3 = b2 (mod 2 a2) and b3 = b1 (mod 2 a1), by one inverse mod a1
        a3 = a1 * a2
        b3 = b2 + 2 * a2 * ((b1 - b2) // 2 * pow(a2, -1, a1) % a1)
    else:
        # Bezout pairs d1 = u1 a1 + v1 a2 and d = u2 d1 + v2 s, each by one
        # inverse; an inverse mod 1 or -1 is 0
        s = (b1 + b2) // 2
        d1 = gcd(a1, a2)
        u1 = pow(a1 // d1, -1, a2 // d1)
        v1 = (d1 - u1 * a1) // a2
        d = gcd(d1, s)
        if s:
            u2 = pow(d1 // d, -1, s // d)
            v2 = (d - u2 * d1) // s
        else:
            u2, v2 = 1, 0
        a3 = a1 * a2 // (d * d)
        b3 = (u2 * u1 * a1 * b2 + u2 * v1 * a2 * b1 + v2 * (b1 * b2 + D) // 2) // d
    b3 %= 2 * a3
    c3 = (b3 * b3 - D) // (4 * a3)
    return tuple.__new__(Form, (a3, b3, c3))


def compose(f: Form, g: Form) -> Form:
    """Composition of two primitive forms, returned canonically reduced.

    f is checked in full; g then needs only the same discriminant and
    the shape checks, and the product of two valid forms is valid.
    Raises ResourceLimitError when D > 0 and the product's rho cycle
    holds more than ``_STEP_CAP`` (10^5) forms.
    """
    f, g = Form(*f), Form(*g)
    D = _check_form(f)
    if g.disc != D:
        raise ValueError(f"discriminant mismatch: {f.disc} vs {g.disc}")
    _check_shape(g)
    return _canonical(_compose_raw(f, g, D), D)


def ambiguous_form(p: int, D: int) -> Form:
    """Norm form (p, b, *) of the ramified prime ideal above p.

    b is the smallest value in 0..2p-1 with b = D (mod 2) and
    b^2 = D (mod 4p); the resulting class has order at most 2. That b is
    0 or p: for odd p, p | D forces p | b, and for p = 2, b is even.
    Raises ValueError unless p is a prime dividing D.
    """
    _require_fundamental(D)
    if not is_prime(p) or D % p != 0:
        raise ValueError(f"{p} is not a prime ramified in discriminant {D}")
    return _ambiguous_form(p, D)


def _ambiguous_form(p: int, D: int) -> Form:
    """``ambiguous_form`` without validation, for a prime p known to
    divide the fundamental discriminant D."""
    for b in (0, p):
        if (b - D) % 2 == 0 and (b * b - D) % (4 * p) == 0:
            return Form(p, b, (b * b - D) // (4 * p))
    raise ArithmeticError(f"no ambiguous form for p={p}, D={D} (bug)")


def _enumerate_reduced(D: int) -> list[Form]:
    """The reduced forms of the fundamental discriminant D, sorted: all
    positive definite ones when D < 0; when D > 0 the seeds (a, b, -c)
    with 0 < a <= c, one or more per rho cycle or per negated cycle for
    ``class_group`` to walk.

    a runs up to sqrt(|D|/3) when D < 0 and sqrt(D)/2 when D > 0.
    ``roots[a]`` lists the b mod 2a with b^2 = D (mod 4a), built from the
    list of m = a/p for the least prime p of a (Cohen, GTM 138, section
    5.3). An odd p not dividing m combines by the Chinese remainder
    theorem with ``roots[p]``, which the square root of D mod p gives
    once per call. For p = 2 or p | m each b mod 2m lifts by testing its
    p candidates mod 2a. A multiple of a prime without roots has none.

    One window rule serves both signs. Each residue r fixes
    b = hi - (hi - r) mod 2a in the window (hi - 2a, hi], with hi = a
    for D < 0 and hi = s = isqrt(D) for D > 0, and c = |b^2 - D| / 4a.
    The form is kept when c > a, or when c = a and b >= 0: (a, b, c) for
    D < 0 and the seed (a, b, -c) for D > 0. For D < 0 that is the
    reduced condition |b| <= a <= c, with b >= 0 when |b| = a or a = c,
    since b = -a lies outside the window. For D > 0 the window is the
    condition s - b < 2|a| of a reduced form, and a <= s // 2 puts b >= 1
    in it, so the rule is c >= a: the other half of the reduced
    condition, which is symmetric in |a| and |c| (4|a||c| = D - b^2, D
    not a square). Every cycle holds such a form because each form's a
    is the c of the form before it. The seed (-a, b, c) is left out: it
    lies on the negation of the cycle through (a, b, -c), which
    ``class_group`` files from that walk. Each b is checked against
    b^2 = D (mod 4a) before it makes a form.
    """
    s = isqrt(abs(D))
    top = isqrt(-D // 3) if D < 0 else s // 2
    # least prime factor; spf[1] = 1, so a = 1 passes through the lift as is
    spf = list(range(top + 1))
    for p in range(isqrt(top), 1, -1):
        spf[p * p :: p] = [p] * len(range(p * p, top + 1, p))
    roots: list = [()] * (top + 1)
    roots[1] = [D % 2]
    forms: list[Form] = []
    # builds the same Form as Form(a, b, c), without the generated
    # Python-level __new__ that costs as much as the root arithmetic
    new = tuple.__new__
    for a in range(1, top + 1):
        p = spf[a]
        m = a // p
        base = roots[m]
        if not base or m > 1 and not roots[p]:
            continue
        a2, a4 = 2 * a, 4 * a
        if p == 2 or m % p == 0:
            rs = [x for r in base for x in range(r, a2, 2 * m) if (x * x - D) % a4 == 0]
        elif m == 1:
            # a = p, an odd prime: each root y mod p, moved to b = D (mod 2)
            r = _sqrt_mod_prime(D, p)
            ys = () if r is None else (r,) if r == 0 else (r, p - r)
            rs = [y + p * ((y - D) % 2) for y in ys]
        else:
            # b = x (mod 2m) and b = y (mod 2p), where x = y = D (mod 2)
            t = pow(m, -1, p)
            rs = [x + 2 * m * ((y - x) // 2 * t % p) for x in base for y in roots[p]]
        roots[a] = rs
        hi = a if D < 0 else s
        for r in rs:
            b = hi - (hi - r) % a2
            n = abs(b * b - D)
            if n % a4:
                raise ArithmeticError(f"b = {b} is no square root of D = {D} mod {a4} (bug)")
            c = n // a4
            if c > a or c == a and b >= 0:
                forms.append(new(Form, (a, b, c if D < 0 else -c)))
    forms.sort()
    return forms


@dataclass(frozen=True)
class ClassGroup:
    """Narrow class group of discriminant D, realized by form classes.

    ``reps`` holds one canonical reduced representative per class (for
    D > 0 the lexicographic minimum of the class's cycle). The identity
    index is the class containing the principal form; ``mul`` composes
    two classes on demand. ``invariant_factors`` are in ascending
    divisibility order (n1 | n2 | ...), with the empty tuple for the
    trivial group, and are read off the class orders. ``_orders`` and
    ``_squares`` keep each class's order and the index of its square,
    read off the cyclic walks; ``two_torsion`` reads the orders.
    ``_index`` maps each reduced form to its class for D < 0, and for
    D > 0 only each seed (a reduced form with |a| <= |c|), the form
    ``_reduced`` lands on.
    ``_span[mask]`` is the product of the ``two_torsion_basis`` classes
    that the bits of mask select, so a class of order at most 2 has its
    GF(2) coordinates in the basis at its position in ``_span``.
    """

    D: int
    reps: tuple[Form, ...]
    h_plus: int
    invariant_factors: tuple[int, ...]
    two_torsion_basis: tuple[int, ...]
    identity: int
    _index: dict = field(compare=False, repr=False)
    _orders: tuple[int, ...] = field(compare=False, repr=False)
    _squares: tuple[int, ...] = field(compare=False, repr=False)
    _span: tuple[int, ...] = field(compare=False, repr=False)

    def _lookup(self, f: Form) -> int:
        """Index of the class of a primitive form of disc D, unchecked."""
        return self._index[_reduced(f, self.D)]

    def class_index(self, f: Form) -> int:
        """Index of the class of an arbitrary primitive form of disc D."""
        f = Form(*f)
        if f.disc != self.D:
            raise ValueError(f"form {f} has discriminant {f.disc}, expected {self.D}")
        _check_shape(f)
        return self._lookup(f)

    def mul(self, i: int, j: int) -> int:
        return self._lookup(_compose_raw(self.reps[i], self.reps[j], self.D))

    def two_torsion(self) -> tuple[int, ...]:
        """Indices of all classes of order at most 2 (identity included), ascending."""
        return tuple(i for i, o in enumerate(self._orders) if o <= 2)

    @property
    def two_torsion_rank(self) -> int:
        return sum(1 for n in self.invariant_factors if n % 2 == 0)

    def to_json_dict(self) -> dict:
        return {
            "D": self.D,
            "h_plus": self.h_plus,
            "invariant_factors": list(self.invariant_factors),
            "reps": [[f.a, f.b, f.c] for f in self.reps],
            "two_torsion_basis": list(self.two_torsion_basis),
        }


def _invariant_factors(orders) -> tuple[int, ...]:
    """Invariant factors of an abelian group from its element orders alone.

    Z/n1 + ... + Z/nt has exactly prod gcd(m, ni) elements with x^m = 1,
    so the factors peel off largest first: each is the least order m
    dividing the one before (h for the first) at which the elements of
    order dividing m number left * prod gcd(m, f) over the factors f
    already peeled, where left is h over their product.
    """
    count = Counter(orders)
    factors: list[int] = []
    left = last = len(orders)
    while left > 1:
        m = next((m for m in sorted(count) if m > 1 and last % m == 0
                  and sum(c for o, c in count.items() if m % o == 0) == left * prod(gcd(m, f) for f in factors)), None)
        if m is None:
            raise ArithmeticError("element orders fit no abelian group (bug)")
        factors.append(m)
        left, last = left // m, m
    return tuple(reversed(factors))


def _inverses(D: int, reps, index: dict) -> list[int]:
    """The index of each class's inverse, looked up with no composition.

    For D < 0 the inverse of the reduced (a, b, c) is (a, -b, c), which is
    the same class when it is not reduced (b = 0, b = a or a = c). For
    D > 0 it is the class of (c, b, a): S takes (a, -b, c) to it, and it
    is reduced as (a, b, c) is, the reduced condition being symmetric in
    |a| and |c|, so it lies on the inverse's cycle; rho carries it on to
    a seed, which the index holds.
    """
    if D < 0:
        return [i if b == 0 or b == a or a == c else index[(a, -b, c)] for i, (a, b, c) in enumerate(reps)]
    return [index[_reduced(tuple.__new__(Form, (c, b, a)), D)] for a, b, c in reps]


def _two_torsion_basis(mul, identity: int, orders) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The classes of order 2 not in the span of those before them, in
    index order, and their span as ``span[mask]``: the product of the
    basis classes that the bits of mask select (bit i selects basis[i]).
    Each basis class adds one coset to the span: 2^k - 1 compositions."""
    basis: list[int] = []
    span = [identity]
    for x, o in enumerate(orders):
        if o == 2 and x not in span:
            basis.append(x)
            span += [mul(y, x) for y in span]
    if sorted(span) != [x for x, o in enumerate(orders) if o <= 2]:
        raise ArithmeticError("2-torsion basis does not span the classes of order <= 2 (bug)")
    return tuple(basis), tuple(span)


def class_group(D: int, *, max_h: int = DEFAULT_MAX_H) -> ClassGroup:
    """Full narrow class group of a fundamental discriminant.

    Enumerates reduced forms a-first, with b from the square roots of D
    mod 4a: every reduced form when D < 0, and when D > 0 the seeds with
    a > 0. From each seed no walk has filed yet, one walk on integers
    goes round its rho cycle, files the cycle's seeds under its class,
    and, when the negated cycle is another class, files the negated
    seeds under that class; classes are numbered by their canonical
    forms, the cycle minima. Every class order is read off one walk per
    cyclic subgroup and kept on the group, and the invariant factors are
    read off those orders: h is not factorised. A walk x, x^2, ...
    composes only until it meets the inverse of its last power; the rest
    of it is the inverses of the powers before, each one lookup. Raises
    ResourceLimitError when |D| exceeds ``DEFAULT_MAX_DISC`` (10^7) or the
    class number exceeds ``max_h``; |D| is checked before D is
    factorised, so that error wins over ValueError for an invalid D. A
    ``max_h`` below 1 is a ValueError, raised before anything else.
    """
    if max_h < 1:
        raise ValueError(f"max_h must be at least 1, not {max_h}")
    _require_within(D)  # first: the fundamental check factorises D
    _require_fundamental(D)

    # canonical representative = lex-min of the class; classes in its order
    if D < 0:
        # one reduced form per class, already sorted
        reps = tuple(_enumerate_reduced(D))
        index = {f: i for i, f in enumerate(reps)}
    else:
        # per class: the least (a, b) of its cycle, and the cycle's seeds
        classes: list[tuple[tuple[int, int], list[Form]]] = []
        filed: set[Form] = set()
        for f in _enumerate_reduced(D):
            if f not in filed:
                least, negated, seeds = _cycle_seeds(f, D)
                classes.append((least, seeds))
                filed.update(seeds)
                if negated != least:
                    # rho(-g) = -rho(g): the negated seeds make up another class
                    classes.append((negated, [tuple.__new__(Form, (-a, b, -c)) for a, b, c in seeds]))
                    filed.update(classes[-1][1])
        classes.sort()  # by least (a, b): no two classes share one
        reps = tuple(tuple.__new__(Form, (a, b, (b * b - D) // (4 * a))) for (a, b), _ in classes)
        index = {g: i for i, (_, seeds) in enumerate(classes) for g in seeds}
    h = len(reps)
    if h > max_h:
        raise ResourceLimitError(f"h+ = {h} exceeds the bound {max_h}")
    identity = index[_reduced(_principal_form(D), D)]
    inverse = _inverses(D, reps, index)

    def mul(i: int, j: int) -> int:
        return index[_reduced(_compose_raw(reps[i], reps[j], D), D)]

    def powers(x: int) -> list[int]:
        """[x, x^2, ..., identity]: its length is the order of x. Composing
        stops at the first x^j whose inverse is x^j (order 2j) or x^(j-1)
        (order 2j - 1)."""
        walk = [x]
        for _ in range(h):
            y = walk[-1]
            if y == identity:
                return walk
            z = inverse[y]
            if z == y or len(walk) > 1 and z == walk[-2]:
                half = walk[:-1] if z == y else walk[:-2]
                return walk + [inverse[w] for w in reversed(half)] + [identity]
            walk.append(mul(y, x))
        raise ArithmeticError(f"class {x} has no order dividing h+ = {h} (bug)")

    # walk from each class no walk has reached yet: in a walk of o steps,
    # x^j has order o / gcd(j, o) and its square x^(2j mod o) is on the walk
    orders, squares = [0] * h, [0] * h
    for x in range(h):
        if not orders[x]:
            walk = powers(x)
            o = len(walk)
            for j, y in enumerate(walk, 1):
                orders[y] = o // gcd(j, o)
                squares[y] = walk[2 * j % o - 1]
    factors = _invariant_factors(orders)
    if prod(factors) != h:
        raise ArithmeticError("invariant factors do not multiply to h (bug)")
    basis, span = _two_torsion_basis(mul, identity, orders)
    if len(basis) != sum(1 for n in factors if n % 2 == 0):
        raise ArithmeticError("2-torsion basis size disagrees with invariant factors (bug)")

    return ClassGroup(D=D, reps=reps, h_plus=h, invariant_factors=factors, two_torsion_basis=basis, identity=identity,
                      _index=index, _orders=tuple(orders), _squares=tuple(squares), _span=span)
