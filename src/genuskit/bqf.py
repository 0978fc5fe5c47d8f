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

``class_group`` lists reduced forms b-first: for each b = D (mod 2), the
a are the divisors of |b^2 - D|/4 up to its square root, so a <= |c| by
construction (Cohen, GTM 138, section 5.3). For D > 0 it lists only the
forms with |a| <= |c|; each rho cycle holds at least one of them.

One loop per sign reduces a form: ``reduce_with_transform`` runs it with
``track=True`` to accumulate the SL2(Z) change of variables, and
``_reduced``, behind ``ClassGroup.mul`` and ``class_index``, runs the
same loop without it and multiplies no matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import gcd, isqrt, prod
from typing import NamedTuple

from .errors import ResourceLimitError
from .intkit import factorize, is_prime

__all__ = [
    "Form",
    "ClassGroup",
    "ambiguous_form",
    "class_group",
    "compose",
    "is_fundamental",
    "principal_form",
    "reduce",
    "reduce_with_transform",
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


def _mat_mul(m, n):
    return (
        m[0] * n[0] + m[1] * n[2],
        m[0] * n[1] + m[1] * n[3],
        m[2] * n[0] + m[3] * n[2],
        m[2] * n[1] + m[3] * n[3],
    )


def _reduce_definite(f: Form, track: bool = False):
    """(reduced form, transform); the identity transform unless ``track``."""
    a, b, c = f
    m = (1, 0, 0, 1)
    for _ in range(_STEP_CAP):
        if b > a or b <= -a:
            # translate: b into (-a, a]
            r = b % (2 * a)
            if r > a:
                r -= 2 * a
            t = (r - b) // (2 * a)
            b, c = b + 2 * a * t, a * t * t + b * t + c
            if track:
                m = _mat_mul(m, (1, t, 0, 1))
        elif a > c or b < 0 and a == c:
            a, b, c = c, -b, a
            if track:
                m = _mat_mul(m, (0, -1, 1, 0))
        else:
            return Form(a, b, c), m
    raise ArithmeticError("definite reduction did not terminate (bug)")


def _is_reduced_indef(f: Form, s: int) -> bool:
    # 0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b, in exact terms
    return 1 <= f.b <= s and s - f.b + 1 <= 2 * abs(f.a) <= s + f.b


def _rho(f: Form, D: int, s: int) -> Form:
    """One step of the reduction operator, without its ``_rho_transform``."""
    _, b, c = f
    ac = abs(c)
    if ac <= s:
        # next b is the largest value = -b (mod 2|c|) below sqrt(D)
        r = s - (s + b) % (2 * ac)
    else:
        r = (-b) % (2 * ac)
        if r > ac:
            r -= 2 * ac
    return Form(c, r, (r * r - D) // (4 * c))


def _rho_transform(f: Form, g: Form):
    """The SL2(Z) matrix of the step from f to g = rho(f)."""
    return (0, -1, 1, (f.b + g.b) // (2 * f.c))


def _reduce_indef(f: Form, D: int, track: bool = False):
    """(reduced form, transform); the identity transform unless ``track``."""
    s = isqrt(D)
    m = (1, 0, 0, 1)
    for _ in range(_STEP_CAP):
        if _is_reduced_indef(f, s):
            return f, m
        g = _rho(f, D, s)
        if track:
            m = _mat_mul(m, _rho_transform(f, g))
        f = g
    raise ArithmeticError("indefinite reduction did not terminate (bug)")


def _cycle_from(f: Form, D: int):
    """The rho cycle through a reduced form, starting at f."""
    s = isqrt(D)
    cycle = [f]
    g = _rho(f, D, s)
    for _ in range(_STEP_CAP):
        if g == f:
            return cycle
        if not _is_reduced_indef(g, s):
            raise ArithmeticError(f"rho left the reduced cycle at {g} (bug)")
        cycle.append(g)
        g = _rho(g, D, s)
    raise ArithmeticError("reduction cycle did not close (bug)")


def _reduced(f: Form, D: int) -> Form:
    """A reduced form properly equivalent to f (for D > 0 not necessarily
    the canonical one), without validation or transform."""
    return _reduce_definite(f)[0] if D < 0 else _reduce_indef(f, D)[0]


def reduce_with_transform(f: Form) -> tuple[Form, tuple[int, int, int, int]]:
    """Canonical reduced representative plus the SL2(Z) change of variables.

    The returned matrix m = (m11, m12, m21, m22) has determinant +1 and
    substituting it into f recovers the reduced form:
    f(m11*x + m12*y, m21*x + m22*y) = reduced(x, y).
    """
    f = Form(*f)
    D = _check_form(f)
    if D < 0:
        return _reduce_definite(f, track=True)
    g, m = _reduce_indef(f, D, track=True)
    # step round the cycle to its lexicographic minimum, accumulating transforms
    cycle = _cycle_from(g, D)
    k = cycle.index(min(cycle))
    for x, y in zip(cycle[:k], cycle[1 : k + 1]):
        m = _mat_mul(m, _rho_transform(x, y))
    return cycle[k], m


def reduce(f: Form) -> Form:
    """Canonical reduced representative of the proper equivalence class."""
    return reduction_cycle(f)[0]


def reduction_cycle(f: Form) -> tuple[Form, ...]:
    """All reduced forms properly equivalent to f.

    For D < 0 this is a single form; for D > 0 it is the full rho cycle,
    rotated to start at the canonical (lexicographically minimal) form.
    """
    f = Form(*f)
    D = _check_form(f)
    if D < 0:
        return (_reduce_definite(f)[0],)
    g, _ = _reduce_indef(f, D)
    cycle = _cycle_from(g, D)
    k = cycle.index(min(cycle))
    return tuple(cycle[k:] + cycle[:k])


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (g, u, v) with g = u*a + v*b, g >= 0
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _compose_raw(f: Form, g: Form, D: int) -> Form:
    # Dirichlet composition; output has the same discriminant, not reduced.
    a1, b1, c1 = f
    a2, b2, _ = g
    s = (b1 + b2) // 2
    d1, u1, v1 = _xgcd(a1, a2)
    d, u2, v2 = _xgcd(d1, s)
    a3 = a1 * a2 // (d * d)
    b3 = (u2 * u1 * a1 * b2 + u2 * v1 * a2 * b1 + v2 * (b1 * b2 + D) // 2) // d
    b3 %= 2 * a3
    c3 = (b3 * b3 - D) // (4 * a3)
    return Form(a3, b3, c3)


def compose(f: Form, g: Form) -> Form:
    """Composition of two primitive forms, returned canonically reduced.

    f is checked in full; g then needs only the same discriminant and
    the shape checks, and the product of two valid forms is valid.
    """
    f, g = Form(*f), Form(*g)
    D = _check_form(f)
    if g.disc != D:
        raise ValueError(f"discriminant mismatch: {f.disc} vs {g.disc}")
    _check_shape(g)
    h = _reduced(_compose_raw(f, g, D), D)
    return h if D < 0 else min(_cycle_from(h, D))


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


def _enumerate_definite(D: int) -> list[Form]:
    """Every reduced positive definite form of disc D < 0, sorted.

    b runs over 0 <= b <= sqrt(|D|/3) with b = D (mod 2); the a with
    b <= a <= c are the divisors of (b^2 - D)/4 up to its square root.
    (a, -b, c) is reduced too unless b = 0, b = a or a = c.
    """
    forms = []
    for b in range(D % 2, isqrt(-D // 3) + 1, 2):
        num = (b * b - D) // 4
        for a in [a for a in range(max(b, 1), isqrt(num) + 1) if num % a == 0]:
            c = num // a
            forms.append(Form(a, b, c))
            if 0 < b < a < c:
                forms.append(Form(a, -b, c))
    return sorted(forms)


def _enumerate_indefinite(D: int) -> list[Form]:
    """The reduced forms of disc D > 0 with |a| <= |c|, sorted: one or
    more seeds per rho cycle, for ``class_group`` to walk.

    With s = isqrt(D), (a, b, c) is reduced iff 0 < b <= s and
    s - b < 2|a| <= s + b. That condition is symmetric in |a| and |c|,
    because 4|a||c| = D - b^2 and D is not a square, so running a over
    the divisors of (D - b^2)/4 up to its square root needs no check on c.
    Every cycle holds such a form: each form's a is the c of the form
    before it, so |a| cannot fall all the way round a cycle.
    """
    forms = []
    s = isqrt(D)
    for b in range(D % 2, s + 1, 2):
        num = (D - b * b) // 4
        for a in [a for a in range((s - b) // 2 + 1, isqrt(num) + 1) if num % a == 0]:
            forms += (Form(a, b, -(num // a)), Form(-a, b, num // a))
    return sorted(forms)


@dataclass(frozen=True)
class ClassGroup:
    """Narrow class group of discriminant D, realized by form classes.

    ``reps`` holds one canonical reduced representative per class (for
    D > 0 the lexicographic minimum of the class's cycle). The identity
    index is the class containing the principal form; ``mul`` composes
    two classes on demand. ``invariant_factors`` are in ascending
    divisibility order (n1 | n2 | ...), with the empty tuple for the
    trivial group. ``_orders`` and ``_squares`` keep each class's order
    and the index of its square, read off the walks that gave the
    structure; ``two_torsion`` reads the orders.
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

    def _powers(self, i: int) -> list[int]:
        """[i, i^2, ..., identity]: the walk around the cyclic subgroup of
        class i, one composition per step; its length is the order of i."""
        walk = [i]
        for _ in range(self.h_plus):
            if walk[-1] == self.identity:
                return walk
            walk.append(self.mul(walk[-1], i))
        raise ArithmeticError(f"class {i} has no order dividing h+ = {self.h_plus} (bug)")

    def subset_products(self, gens) -> tuple[int, ...]:
        """Product of every subset of ``gens``, indexed by bitmask (bit i
        selects gens[i]), built with 2^k - 1 compositions."""
        out = [self.identity]
        for g in gens:
            out += [self.mul(x, g) for x in out]
        return tuple(out)

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


def _invariant_factors(orders, h_factors) -> tuple[int, ...]:
    """Invariant factors of an abelian group from its element orders and
    the factorisation of its order h.

    Per prime p | h, the number of elements killed by p^j determines the
    multiset of p-power elementary divisors; those merge into invariant
    factors largest-first.
    """
    per_prime: dict[int, list[int]] = {}
    for p, e in h_factors:
        counts = []
        for j in range(e + 1):
            pj = p**j
            nj = sum(1 for o in orders if pj % o == 0)
            mj = 0
            while p**mj < nj:
                mj += 1
            if p**mj != nj:
                raise ArithmeticError("element-order counts are not p-power sized (bug)")
            counts.append(mj)
        geq = [counts[j] - counts[j - 1] for j in range(1, e + 1)]  # # divisors with exponent >= j
        exps = []
        for j in range(1, e + 1):
            exactly = geq[j - 1] - (geq[j] if j < e else 0)
            exps.extend([j] * exactly)
        per_prime[p] = sorted(exps, reverse=True)
    width = max((len(v) for v in per_prime.values()), default=0)
    factors_desc = []
    for i in range(width):
        n = 1
        for p, exps in per_prime.items():
            if i < len(exps):
                n *= p ** exps[i]
        factors_desc.append(n)
    return tuple(reversed(factors_desc))


def _two_torsion_basis(cg: ClassGroup, orders) -> tuple[int, ...]:
    """The classes of order 2 not in the span of those before them, in
    index order. Each adds one coset to the span: 2^k - 1 compositions."""
    basis: list[int] = []
    span = [cg.identity]
    for x in range(cg.h_plus):
        if orders[x] == 2 and x not in span:
            basis.append(x)
            span += [cg.mul(y, x) for y in span]
    if sorted(span) != [x for x, o in enumerate(orders) if o <= 2]:
        raise ArithmeticError("2-torsion basis does not span the classes of order <= 2 (bug)")
    return tuple(basis)


def class_group(D: int, *, max_h: int = DEFAULT_MAX_H) -> ClassGroup:
    """Full narrow class group of a fundamental discriminant.

    Enumerates reduced forms b-first, with a over the divisors of
    |b^2 - D|/4 up to its square root: every reduced form when D < 0, and
    when D > 0 the reduced forms with |a| <= |c|, which seed the rho
    cycles that make up the classes. The abelian group structure comes
    from element orders, read off one walk per cyclic subgroup (one
    composition per step) and kept on the group. Raises
    ResourceLimitError when |D| exceeds ``DEFAULT_MAX_DISC`` (10^7) or
    the class number exceeds ``max_h``; |D| is checked before D is
    factorised, so that error wins over ValueError for an invalid D. A
    ``max_h`` below 1 is a ValueError, raised before anything else.
    """
    if max_h < 1:
        raise ValueError(f"max_h must be at least 1, not {max_h}")
    _require_within(D)  # first: the fundamental check factorises D
    _require_fundamental(D)

    classes: list[list[Form]] = []
    if D < 0:
        classes = [[f] for f in _enumerate_definite(D)]
    else:
        seen: set[Form] = set()
        for f in _enumerate_indefinite(D):
            if f not in seen:
                classes.append(_cycle_from(f, D))
                seen.update(classes[-1])
    h = len(classes)
    if h > max_h:
        raise ResourceLimitError(f"h+ = {h} exceeds the bound {max_h}")

    # canonical representative = lex-min of the class; classes in its order
    classes.sort(key=min)
    reps = tuple(map(min, classes))
    index = {g: i for i, cyc in enumerate(classes) for g in cyc}

    identity = index[_reduced(_principal_form(D), D)]
    # the structure is read from the group itself, then filled in
    cg = ClassGroup(D=D, reps=reps, h_plus=h, invariant_factors=(), two_torsion_basis=(), identity=identity, _index=index, _orders=(), _squares=())
    # walk from each class no walk has reached yet: in a walk of o steps,
    # x^j has order o / gcd(j, o) and its square x^(2j mod o) is on the walk
    orders, squares = [0] * h, [0] * h
    for x in range(h):
        if not orders[x]:
            walk = cg._powers(x)
            o = len(walk)
            for j, y in enumerate(walk, 1):
                orders[y] = o // gcd(j, o)
                squares[y] = walk[2 * j % o - 1]
    h_factors = factorize(h).factors
    factors = _invariant_factors(orders, h_factors)
    basis = _two_torsion_basis(cg, orders)
    if len(basis) != sum(1 for n in factors if n % 2 == 0):
        raise ArithmeticError("2-torsion basis size disagrees with invariant factors (bug)")

    if prod(factors) != h:
        raise ArithmeticError("invariant factors do not multiply to h (bug)")

    return replace(cg, invariant_factors=factors, two_torsion_basis=basis, _orders=tuple(orders), _squares=tuple(squares))
