"""Even sets of nodes on a nodal surface, and the binary-code obstruction
that caps the node count of a quintic.

An even set of r nodes supports a double cover with
chi(O_X) = 2*chi(O_S) - r/4, so r must be divisible by 4; once r >= 24
that formula forces chi(O_X) < chi(O_S), which splits the set into two
even sets of at least 16 nodes each. On a quintic with 32 nodes the node
classes would give a >= 6 dimensional binary code of length 32 whose
nonzero weights all lie in {16, 20, 32}. That menu yields no
contradiction: the first-order Reed-Muller code RM(1,5) is such a code
(62 words of weight 16 and the all-ones word), ``code_search`` finds a
code with its weight distribution, and the honest verdict is
INCONCLUSIVE. Only without the full-support weight, i.e. for the menu
{16, 20}, does the MacWilliams filter alone rule the code out.

The nonexistence pipeline is two-stage: a cheap MacWilliams feasibility
filter over candidate weight distributions, then an authoritative
backtracking search. Dual nonnegativity is necessary but not sufficient,
so the search runs regardless of the filter's outcome.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import comb, gcd
from operator import add, mul

from .errors import ResourceLimitError, SearchBudgetExceeded

__all__ = [
    "Certificate",
    "CertStep",
    "ChiResult",
    "EvenSetParams",
    "SearchOutcome",
    "WeightCodeProblem",
    "WeightDistribution",
    "chi_double_cover",
    "code_search",
    "feasible_distributions",
    "krawtchouk_table",
    "macwilliams_dual",
    "quintic_certificate",
]

# chi(O) of the minimal resolution of a nodal quintic surface (p_g = 4)
QUINTIC_CHI = 5

DEFAULT_MAX_N = 40
DEFAULT_MAX_K = 8
DEFAULT_FILTER_BUDGET = 2_000_000
# the quintic chain writes one splitting step per multiple of 4 in
# [24, 2 * min_even), so min_even bounds its length
MAX_MIN_EVEN = 1024


@dataclass(frozen=True)
class EvenSetParams:
    """chi(O_S) of the resolved surface and the size r of a node set.

    Genuine even sets have r divisible by 4; arbitrary r is accepted here
    so that chi_double_cover can report the divisibility obstruction
    instead of refusing the input.
    """

    chi_s: int
    r: int

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("node count must be nonnegative")


@dataclass(frozen=True)
class ChiResult:
    value: Fraction
    integral: bool
    splitting: bool


def chi_double_cover(params: EvenSetParams) -> ChiResult:
    """chi(O) of the double cover branched over an even set of r nodes.

    Exact value 2*chi_s - r/4. A fractional result flags r not divisible
    by 4 (no such even set exists); ``splitting`` flags the drop below
    chi_s that forces the set to split into two smaller even sets.
    """
    value = 2 * params.chi_s - Fraction(params.r, 4)
    integral = value.denominator == 1
    return ChiResult(value=value, integral=integral, splitting=value < params.chi_s)


@lru_cache(maxsize=None)
def krawtchouk_table(n: int) -> tuple[tuple[int, ...], ...]:
    """K[j][i] for 0 <= j, i <= n, by the three-term recurrence
    (j+1) K_{j+1}(i) = (n - 2i) K_j(i) - (n - j + 1) K_{j-1}(i),
    carried out in exact integers."""
    rows = [[1] * (n + 1), [n - 2 * i for i in range(n + 1)]]
    for j in range(1, n):
        nxt = []
        for i in range(n + 1):
            num = (n - 2 * i) * rows[j][i] - (n - j + 1) * rows[j - 1][i]
            if num % (j + 1):
                raise ArithmeticError("Krawtchouk recurrence produced a non-integer (bug)")
            nxt.append(num // (j + 1))
        rows.append(nxt)
    return tuple(tuple(r) for r in rows[: n + 1])


def macwilliams_dual(n: int, k: int, counts) -> tuple[Fraction, ...]:
    """Dual weight distribution B_j = 2^-k * sum_i A_i K_j(i), exact."""
    counts = tuple(counts)
    if len(counts) != n + 1:
        raise ValueError(f"expected n+1 = {n + 1} weight counts, got {len(counts)}")
    K = krawtchouk_table(n)
    scale = 1 << k
    return tuple(
        Fraction(sum(a * K[j][i] for i, a in enumerate(counts)), scale) for j in range(n + 1)
    )


@dataclass(frozen=True)
class WeightCodeProblem:
    """Does a binary [n, k] code exist whose nonzero weights all lie in
    ``allowed``?"""

    n: int
    k: int
    allowed: frozenset[int]

    def __post_init__(self):
        if self.n < 1 or self.k < 0 or self.k > self.n:
            raise ValueError("need 1 <= n and 0 <= k <= n")
        object.__setattr__(self, "allowed", frozenset(self.allowed))
        if any(w < 1 or w > self.n for w in self.allowed):
            raise ValueError("allowed weights must lie in 1..n")


@dataclass(frozen=True)
class WeightDistribution:
    """A_w counts of codewords by weight, indexed 0..n."""

    counts: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.counts) - 1


def _check_size(problem: WeightCodeProblem) -> None:
    # first in the filter too: its Krawtchouk table is O(n^2) and cached
    if problem.n > DEFAULT_MAX_N or problem.k > DEFAULT_MAX_K:
        raise ResourceLimitError(
            f"problem ({problem.n}, {problem.k}) exceeds the configured bounds ({DEFAULT_MAX_N}, {DEFAULT_MAX_K})"
        )


def _check_node_budget(node_budget: int | None) -> None:
    # a usage error, raised before the size bounds or any step of work
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node_budget must not be negative, not {node_budget}")


def feasible_distributions(problem: WeightCodeProblem) -> list[WeightDistribution]:
    """All weight distributions supported on the allowed weights whose
    MacWilliams dual is nonnegative and integral.

    The candidates are every A with A_0 = 1 and the remaining 2^k - 1
    nonzero words spread over the t allowed weights, listed in increasing
    order of their counts. This is Delsarte's linear-programming bound in
    exact integers (MacWilliams and Sloane, ch. 5 and 17). The counts of
    all weights but the last two are enumerated, carrying each dual row's
    running sum 2^k B_j; the last two, x and R - x, are solved for in
    closed form. Each row bounds x on one side (B_j >= 0), and fixes it
    modulo a power of 2 (2^k divides 2^k B_j); x walks the progression
    those leave, ascending, and every distribution so found is checked
    against every dual row, a failure being an ArithmeticError. An empty
    result certifies nonexistence on its own; a nonempty one decides
    nothing (the dual conditions are necessary, not sufficient).
    Raises ResourceLimitError, before any work, past n = ``DEFAULT_MAX_N``
    (40) or k = ``DEFAULT_MAX_K`` (8), as ``code_search`` does, and
    SearchBudgetExceeded past ``DEFAULT_FILTER_BUDGET`` (2,000,000)
    candidates. For t >= 2 allowed weights these are the leaves the
    enumeration visits, one per count of the first t - 2 weights,
    comb(2^k + t - 3, t - 2); for t = 1 the one distribution.
    """
    _check_size(problem)
    weights = sorted(problem.allowed)
    m = (1 << problem.k) - 1
    t = len(weights)
    if t == 0:
        return [] if m else [WeightDistribution((1,) + (0,) * problem.n)]
    n_candidates = comb(m + t - 2, t - 2) if t > 1 else 1
    if n_candidates > DEFAULT_FILTER_BUDGET:
        raise SearchBudgetExceeded(
            f"{n_candidates} candidate distributions exceed the budget {DEFAULT_FILTER_BUDGET}",
            checkpoint={"candidates": n_candidates, "budget": DEFAULT_FILTER_BUDGET},
        )
    K = krawtchouk_table(problem.n)
    scale = 1 << problem.k
    # 2^k B_j = sum_i A_i K[j][i], and only A_0 = 1 and the A_w of the
    # allowed weights can be nonzero
    dual_rows = [(row[0], [row[w] for w in weights]) for row in K]
    out = []

    def passes(amounts: list[int]) -> bool:
        for base, coefficients in dual_rows:
            s = base + sum(map(mul, amounts, coefficients))
            if s < 0 or s % scale:
                return False
        return True

    def record(amounts: list[int]):
        counts = [0] * (problem.n + 1)
        counts[0] = 1
        for w, a in zip(weights, amounts):
            counts[w] = a
        out.append(WeightDistribution(tuple(counts)))

    if t == 1:
        if passes([m]):
            record([m])
        return out
    # Row j with A = x on weights[-2] and R - x on weights[-1] reads
    # e_j + x d_j, e_j its sum over the other weights plus R times its last
    # coefficient. 2^k must divide it, which fixes x mod 2^k / gcd(d_j, 2^k).
    # These moduli are powers of 2, so they nest: the rows go largest
    # modulus first, and the first row's residue of x sets the walk.
    def modulus(row):
        return scale // gcd(row[1][-2] - row[1][-1], scale)

    dual_rows.sort(key=modulus, reverse=True)
    rows = [(c[-1], c[-2] - c[-1]) for _, c in dual_rows]
    columns = [[c[i] for _, c in dual_rows] for i in range(t - 2)]
    step = modulus(dual_rows[0])
    g = scale // step
    inverse = pow(rows[0][1] // g, -1, step)

    def solve(sums: list[int], R: int, partial: list[int]):
        lo, hi = 0, R
        r = -((sums[0] + R * rows[0][0]) // g) * inverse % step
        for e, (c, d) in zip(sums, rows):
            e += R * c
            if d > 0:
                lo = max(lo, -(e // d))
            elif d < 0:
                hi = min(hi, e // -d)
            elif e < 0:
                return
            if lo > hi or (e + r * d) % scale:
                return
        for x in range(lo + (r - lo) % step, hi + 1, step):
            amounts = partial + [x, R - x]
            if not passes(amounts):
                raise ArithmeticError(f"weight counts {amounts} fail a dual row they were solved for (bug)")
            record(amounts)

    def assign(idx: int, remaining: int, partial: list[int], sums: list[int]):
        if idx == t - 2:
            solve(sums, remaining, partial)
            return
        for a in range(remaining + 1):
            assign(idx + 1, remaining - a, partial + [a], sums)
            sums = list(map(add, sums, columns[idx]))

    assign(0, m, [], [base for base, _ in dual_rows])
    return out


@dataclass(frozen=True)
class SearchOutcome:
    problem: WeightCodeProblem
    exists: bool
    generators: tuple[int, ...] | None
    nodes: int

    @property
    def verdict(self) -> str:
        return "EXISTS" if self.exists else "NONEXISTENT"

    def generator_bitstrings(self) -> list[str] | None:
        if self.generators is None:
            return None
        return [format(g, f"0{self.problem.n}b") for g in self.generators]


def _span(gens) -> list[int]:
    """Every word of the span of ``gens``, indexed by bitmask (bit i
    selects gens[i]); words[0] is the zero word."""
    words = [0]
    for g in gens:
        words += [w ^ g for w in words]
    return words


def _verify_witness(problem: WeightCodeProblem, gens: tuple[int, ...]) -> None:
    words = _span(gens)
    if len(set(words)) != 1 << problem.k:
        raise ArithmeticError("witness generators are dependent (bug)")
    for w in words[1:]:
        if w.bit_count() not in problem.allowed:
            raise ArithmeticError(f"witness span contains forbidden weight {w.bit_count()} (bug)")


@lru_cache(maxsize=None)
def _odd_parities(half: int) -> tuple[tuple[int, ...], ...]:
    """[q][s] = parity of s & q, for q, s < half."""
    return tuple(tuple((s & q).bit_count() & 1 for s in range(half)) for q in range(half))


@lru_cache(maxsize=None)
def _odd_lanes(half: int, width: int) -> tuple[int, ...]:
    """[q] = the int that holds 1 in lane s, the bits s * width up to
    (s + 1) * width, if s & q has odd parity and 0 if not, for q, s < half."""
    return tuple(sum(p << s * width for s, p in enumerate(parities)) for parities in _odd_parities(half))


@lru_cache(maxsize=None)
def _lane_masks(half: int, width: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(ones, masks) for ``half`` lanes of ``width`` bits: ones holds 1 in
    every lane, and masks[q] = (even, odd) fills with ones the lanes that
    ``_odd_lanes(half, width)[q]`` leaves 0, resp. sets to 1."""
    full = (1 << width) - 1
    ones = ((1 << half * width) - 1) // full
    return ones, tuple(((ones ^ odd) * full, odd * full) for odd in _odd_lanes(half, width))


def _candidate_rows(blocks, depth: int, allowed, tick) -> list[tuple[int, ...]]:
    """Every new row for a search state, sorted: the tuples c of ones per
    block (0 <= c[j] <= size of block j, in block order) for which each
    word "new row + S", 0 <= S < 2^depth, has a weight in ``allowed``
    (a set of weights in 1..n, n the total block size).

    ``blocks`` is a sequence of (pattern, size) with distinct patterns
    below 2^depth; span word S is constant on a block, equal to the
    parity of S & pattern. The row is fixed coarse to fine: level t fixes
    its ones per group of columns whose block patterns share their low t
    bits. Level 0 picks the row weight from the menu. Level t + 1 splits
    each group's count between its two children, after which the 2^t
    words "new row + 2^t + s", s < 2^t, have exact weights. The groups
    are split one at a time, and a partial row is pruned as soon as one
    of those words has no allowed weight of its parity within the range
    the unsplit groups leave open.

    The least weights of those 2^t words are bit-sliced into one int:
    lane s, n + 1 bits wide (``_lane_masks``), holds word s's least
    weight w as its one set bit, 2^w. A group moves its even and its odd
    words by two shifts under the group's lane masks, and each further
    one in child q moves them by 2 and -2 at once. The test is one AND
    with the weights that have no allowed weight in reach, a bit mask
    copied into every lane, one per range met in the call. Every word's
    least weight lies in 0..n, so no shift carries a bit out of its
    lane. At level ``depth`` every group is one block. ``tick`` is called
    with the number of rows found so far for each row weight and each
    group split that survives pruning.
    """
    n = sum(size for _, size in blocks)
    width = n + 1
    # least[x]: the least allowed weight >= x of the same parity as x
    least = [n + 1] * (n + 3)
    for x in range(n, -1, -1):
        least[x] = x if x in allowed else least[x + 2]
    # sizes[t][q]: columns in blocks whose pattern has low t bits q
    sizes = [[0] * (1 << t) for t in range(depth + 1)]
    for pat, size in blocks:
        for t in range(depth + 1):
            sizes[t][pat & ((1 << t) - 1)] += size
    # bad[room]: bit w set in every lane for the weights w with no allowed
    # weight of w's parity in [w, w + room], filled as rooms are met
    bad = {}

    def bad_for(room):
        if room not in bad:
            bits = sum(1 << w for w in range(width) if least[w] > w + room)
            bad[room] = bits * _lane_masks(1 << depth - 1, width)[0]
        return bad[room]

    rows = []

    def level(t, count):
        # count[q] is the new row's ones in group q; the words "new row + S"
        # for S < 2^t are exact and allowed
        if t == depth:
            rows.append(tuple(count[pat] for pat, _ in blocks))
            return
        half = 1 << t
        # low, lane s: the least weight the word "new row + half + s" can take
        low, masks = _lane_masks(half, width)
        child = [0] * (2 * half)
        free = []
        for q in range(half):
            if not sizes[t][q]:
                continue
            c, n0, n1 = count[q], sizes[t + 1][q], sizes[t + 1][q + half]
            # child q takes c0 in [lo, hi] ones; that adds 2 c0 + n1 - c to
            # a word even on group q and n0 + c - 2 c0 to an odd one
            lo, hi = max(0, c - n1), min(n0, c)
            child[q], child[q + half] = lo, c - lo
            if hi > lo:
                free.append((q, lo, hi))
            even, uneven = 2 * lo + n1 - c, n0 + c - 2 * hi
            even_q, odd_q = masks[q]
            low = ((low & even_q) << even) | ((low & odd_q) << uneven)
        # slack[i]: how far the unsplit groups free[i:] can raise any word
        slack = [0] * (len(free) + 1)
        for i in range(len(free) - 1, -1, -1):
            slack[i] = slack[i + 1] + 2 * (free[i][2] - free[i][1])

        def split(i, low):
            if i == len(free):
                level(t + 1, child)
                return
            q, lo, hi = free[i]
            blocked, (even_q, odd_q) = bad_for(slack[i + 1]), masks[q]
            # c0 = lo, then each c0 + 1 adds 2 to the words even on group q
            # and takes 2 from the odd ones
            new = (low & even_q) | ((low & odd_q) << 2 * (hi - lo))
            for c0 in range(lo, hi + 1):
                if c0 > lo:
                    new = ((new & even_q) << 2) | ((new & odd_q) >> 2)
                if not new & blocked:
                    tick(len(rows))
                    child[q], child[q + half] = c0, count[q] - c0
                    split(i + 1, new)

        if not low & bad_for(slack[0]):
            split(0, low)

    for weight in sorted(allowed):
        tick(len(rows))
        level(0, [weight])
    rows.sort()
    return rows


def _orbit_labels(blocks, depth: int, ids: dict) -> tuple[tuple, tuple]:
    """(invariant, labels) of a search state under GL(depth, 2).

    ``blocks`` is a sequence of (pattern, size) with distinct patterns
    below 2^depth. A change of basis A of the rows maps the block on
    pattern p to pattern A p and permutes the span words, so these are
    unchanged by it: the label of a block, (size, sorted weights of the
    span words odd on its pattern), and the invariant, (sorted weights
    of the 2^depth span words, sorted labels of the blocks).
    ``labels[p]`` is the label of the block on pattern p, or None if
    there is none. ``ids`` numbers the labels met so far and is extended
    here, so that equal labels are one small int: two states compare
    only under the same ``ids``.

    The span weights are summed as byte lanes of one int, lane s holding
    word s's weight (``_odd_lanes`` of width 8), and read back as bytes:
    a weight is at most n <= ``DEFAULT_MAX_N`` (40), so no lane carries
    into the next.
    """
    words = 1 << depth
    odd, lanes = _odd_parities(words), _odd_lanes(words, 8)
    weights = sum(size * lanes[pat] for pat, size in blocks).to_bytes(words, "little")
    labels = [None] * words
    for pat, size in blocks:
        label = (size, tuple(sorted(compress(weights, odd[pat]))))
        labels[pat] = ids.setdefault(label, len(ids))
    invariant = (tuple(sorted(weights)), tuple(sorted(labels[pat] for pat, _ in blocks)))
    return invariant, tuple(labels)


def _gl_map(x, y) -> list[int] | None:
    """An A in GL(depth, 2) that carries state x onto state y, as the
    list image[p] = A p, or None if there is none.

    x and y are ``labels`` of two states of one depth under one ``ids``
    (``_orbit_labels``), and the present patterns of x span GF(2)^depth,
    as the patterns of every search state do; the search calls it only
    on states with equal invariants. The identity is tried first.
    Otherwise A is fixed on a basis of x's patterns, taken rarest label
    first: each basis pattern goes to a pattern of y with the same label
    outside the span of the images so far. A partial map is kept only
    while every p in the span so far, the zero pattern and patterns
    without a block included, has x[p] == y[A p]. A full map has passed
    that test on all of GF(2)^depth, so it maps each block of x onto a
    block of y of the same size.
    """
    if x == y:
        return list(range(len(x)))
    present = [p for p, label in enumerate(x) if p and label is not None]
    freq = Counter(x[p] for p in present)
    basis, span = [], {0}
    for p in sorted(present, key=lambda p: freq[x[p]]):
        if p not in span:
            basis.append(p)
            span |= {s ^ p for s in span}
    images = [[c for c, label in enumerate(y) if label == x[b]] for b in basis]

    def extend(i, xs, ys):
        if i == len(basis):
            image = [0] * len(x)
            for p, q in zip(xs, ys):
                image[p] = q
            return image
        b = basis[i]
        for c in images[i]:
            if c in ys:
                continue
            new_xs, new_ys = [p ^ b for p in xs], [q ^ c for q in ys]
            if all(x[p] == y[q] for p, q in zip(new_xs, new_ys)):
                image = extend(i + 1, xs + new_xs, ys + new_ys)
                if image is not None:
                    return image
        return None

    return extend(0, [0], [0]) if x[0] == y[0] else None


class _FailedStates:
    """Failed search states, up to GL(depth, 2).

    ``key(blocks, depth)`` is a state's (invariant, labels) from
    ``_orbit_labels``, under label numbers shared by every state of this
    memo. A key is in the memo when ``_gl_map`` finds a change of basis
    that carries its state onto a stored state with the same invariant;
    the invariant alone selects the stored states to try, and never
    decides. The stored state a lookup maps onto moves to the front of
    its bucket, where the next lookup tries it first: siblings tend to
    map onto the same state, and only the order of the tries changes.
    """

    def __init__(self):
        # invariant -> labels of the stored states with that invariant
        self._states: dict[tuple, list[tuple]] = {}
        self._label_ids: dict[tuple, int] = {}

    def key(self, blocks, depth: int) -> tuple[tuple, tuple]:
        return _orbit_labels(blocks, depth, self._label_ids)

    def __contains__(self, key) -> bool:
        invariant, labels = key
        bucket = self._states.get(invariant, ())
        for i, other in enumerate(bucket):
            if _gl_map(labels, other) is not None:
                if i:
                    bucket.insert(0, bucket.pop(i))
                return True
        return False

    def add(self, key) -> None:
        invariant, labels = key
        self._states.setdefault(invariant, []).append(labels)


def code_search(problem: WeightCodeProblem, *, node_budget: int | None = None) -> SearchOutcome:
    """Exhaustive search for an [n, k] code with all nonzero weights in
    the allowed set.

    The weight condition is invariant under column permutation, so the
    search runs over column-partition canonical forms: the state is a
    partition of the n columns into blocks on which every chosen
    generator row is constant, and a new row is determined (up to a
    permutation fixing all previous rows) by how many ones it places in
    each block. Every span word is constant on blocks too, so all
    2^depth new span weights are checked exactly for each new row; any
    forbidden (or zero, i.e. dependent) word prunes the row. The rows of
    a state are enumerated coarse to fine by ``_candidate_rows`` and
    tried in lexicographic order of their per-block counts.

    Failed states are memoized up to GL(depth, 2) (``_FailedStates``).
    A state is its multiset of (row pattern, size) blocks, which already
    forgets the order of the columns. A change of basis A of the rows
    chosen so far maps the span to itself, moves the block on pattern p
    to pattern A p and keeps every weight, so a state equivalent to a
    failed one fails too. The memo files each failed state under an
    invariant of that action, computed by ``_orbit_labels``: the sorted
    span weights and the sorted block labels, where a block's label is
    its size and the sorted weights of the span words odd on it. A
    child is skipped only when ``_gl_map`` finds an explicit A that
    carries it onto a failed state with its invariant, checked block for
    block; the identity is the first map tried, so an exact repeat is
    skipped as before. Equal invariants alone never merge two states.
    Only failed states are stored, so every skipped subtree holds no
    witness: verdicts, witnesses and the path to the first witness are
    those of a search without the memo.

    ``nodes`` counts the states visited plus the partial rows the
    enumeration accepts: a row weight from the menu, and each split of
    one column group's count that survives pruning. States merged by a
    change of basis are not visited, so on problems where merges happen
    the count, and ``nodecode --json``'s ``search_nodes``, is lower than
    under a memo of exact repeats alone. ``node_budget`` bounds that
    count; past it, ``SearchBudgetExceeded`` carries the
    checkpoint keys n, k, depth_reached, nodes and candidates_found (rows
    the enumeration in progress has found, 0 between enumerations).

    EXISTS outcomes carry generator rows whose full span has been
    re-verified word by word; NONEXISTENT means the space was exhausted.
    Problems past n = ``DEFAULT_MAX_N`` (40) or k = ``DEFAULT_MAX_K`` (8)
    raise ResourceLimitError. A negative ``node_budget`` is a ValueError,
    raised before anything else.
    """
    _check_node_budget(node_budget)
    _check_size(problem)
    k = problem.k
    nodes = 0
    failed = _FailedStates()

    def tick(depth, found=0):
        nonlocal nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise SearchBudgetExceeded(
                f"code search exceeded its node budget of {node_budget}",
                checkpoint={
                    "n": problem.n,
                    "k": k,
                    "depth_reached": depth,
                    "nodes": nodes,
                    "candidates_found": found,
                },
            )

    def split(blocks, comp, depth):
        out = []
        bit = 1 << depth
        for (pat, size), c in zip(blocks, comp):
            if c == size:
                out.append((pat | bit, size))
            elif c == 0:
                out.append((pat, size))
            else:
                out.append((pat | bit, c))
                out.append((pat, size - c))
        return tuple(out)

    def reconstruct(blocks):
        gens = [0] * k
        col = 0
        for pat, size in blocks:
            chunk = ((1 << size) - 1) << col
            for j in range(k):
                if pat >> j & 1:
                    gens[j] |= chunk
            col += size
        return tuple(gens)

    def search(blocks, depth):
        tick(depth)
        if depth == k:
            return reconstruct(blocks)
        rows = _candidate_rows(blocks, depth, problem.allowed, lambda found: tick(depth, found))
        for comp in rows:
            child = split(blocks, comp, depth)
            key = failed.key(child, depth + 1)
            if key in failed:
                continue
            found = search(child, depth + 1)
            if found is not None:
                return found
            failed.add(key)
        return None

    witness = search(((0, problem.n),), 0)
    if witness is None:
        return SearchOutcome(problem, False, None, nodes)
    _verify_witness(problem, witness)
    return SearchOutcome(problem, True, witness, nodes)


@dataclass(frozen=True)
class CertStep:
    claim: str
    arithmetic: str
    source: str

    def to_json_dict(self) -> dict:
        return {"claim": self.claim, "arithmetic": self.arithmetic, "source": self.source}


@dataclass(frozen=True)
class Certificate:
    steps: tuple[CertStep, ...]
    verdict: str
    problem: WeightCodeProblem | None
    search: SearchOutcome | None
    filter_count: int | None

    def to_json_dict(self) -> dict:
        return {
            "steps": [s.to_json_dict() for s in self.steps],
            "verdict": self.verdict,
        }


def quintic_certificate(
    b2: int = 53,
    nodes: int = 32,
    min_even: int = 16,
    second_even: int = 20,
    *,
    node_budget: int | None = None,
) -> Certificate:
    """Replay of the numeric chain that bounds the node count on a
    quintic surface, ending in an honest verdict.

    With b2 = 53 and 32 nodes: the node classes span a totally isotropic
    subspace of H^2(S, Z/2), so their image has dimension at most
    floor(53/2) = 26 and the kernel has dimension at least 6; kernel
    vectors are even sets, whose sizes are forced into {16, 20, 32}. A
    [32, 6] binary code with those weights exists (RM(1,5), weights 16
    and 32), so no contradiction follows and the verdict is INCONCLUSIVE,
    with the witness distribution as the last step. CONTRADICTION is
    returned only when the search exhausts the space without a code. b2
    is an input, not derived here, and the even-set size menu below 24 is
    likewise taken as given (min_even from Castelnuovo's inequality). A
    negative ``node_budget``, ``b2`` or ``nodes`` is a ValueError, and
    min_even above ``MAX_MIN_EVEN`` a ResourceLimitError, all raised
    before any step.
    """
    _check_node_budget(node_budget)
    for name, value in (("b2", b2), ("nodes", nodes)):
        if value < 0:
            raise ValueError(f"{name} must not be negative, not {value}")
    if min_even > MAX_MIN_EVEN:
        raise ResourceLimitError(f"min_even = {min_even} exceeds the bound {MAX_MIN_EVEN}")
    steps = []
    iso = b2 // 2
    steps.append(
        CertStep(
            claim="node classes span a totally isotropic subspace of H^2(S, Z/2), bounding the image dimension",
            arithmetic=f"floor({b2}/2) = {iso}",
            source="isotropy bound",
        )
    )
    kernel_dim = nodes - iso
    steps.append(
        CertStep(
            claim="the kernel of the node-class map is at least the deficit",
            arithmetic=f"{nodes} - {iso} = {kernel_dim}",
            source="rank-nullity",
        )
    )
    steps.append(
        CertStep(
            claim="even sets have size divisible by 4 (integral double-cover Euler characteristic)",
            arithmetic=f"chi(O_X) = 2*{QUINTIC_CHI} - r/4",
            source="double-cover chi formula",
        )
    )
    for r in range(24, 2 * min_even, 4):
        chi = chi_double_cover(EvenSetParams(QUINTIC_CHI, r))
        steps.append(
            CertStep(
                claim=f"an even set of {r} nodes would drop chi below chi(O_S) and split into two even sets, each >= {min_even}; so {r} is impossible",
                arithmetic=f"2*{QUINTIC_CHI} - {r}/4 = {chi.value} < {QUINTIC_CHI}; split sizes >= 2*{min_even} = {2 * min_even} > {r}",
                source="splitting argument",
            )
        )
    decisive = kernel_dim >= 1 and nodes % 4 == 0 and nodes >= 2 * min_even
    if not decisive:
        steps.append(
            CertStep(
                claim="the arithmetic chain stops here; no nonexistence claim is attempted",
                arithmetic=f"kernel bound {kernel_dim}; node count {nodes} not an admissible decisive configuration",
                source="arithmetic only",
            )
        )
        return Certificate(tuple(steps), "INCONCLUSIVE", None, None, None)
    allowed = frozenset({min_even, second_even, nodes})
    problem = WeightCodeProblem(nodes, kernel_dim, allowed)
    steps.append(
        CertStep(
            claim="kernel vectors are even sets, so every nonzero weight lies in the admissible size menu",
            arithmetic=f"weights in {sorted(allowed)} for a [{nodes}, {kernel_dim}] binary code",
            source="even-set weights",
        )
    )
    filt = feasible_distributions(problem)
    steps.append(
        CertStep(
            claim="MacWilliams feasibility filter over candidate weight distributions",
            arithmetic=f"{len(filt)} distribution(s) pass dual nonnegativity and integrality",
            source="macwilliams filter",
        )
    )
    search = code_search(problem, node_budget=node_budget)
    steps.append(
        CertStep(
            claim=f"exhaustive generator search: {search.verdict}",
            arithmetic=f"{search.nodes} search nodes explored",
            source="code search",
        )
    )
    if not search.exists:
        steps.append(
            CertStep(
                claim=f"no quintic with {nodes} nodes admits this configuration",
                arithmetic=f"kernel dimension >= {kernel_dim} requires a [{nodes}, {kernel_dim}] code with weights {sorted(allowed)}, which does not exist",
                source="contradiction",
            )
        )
        return Certificate(tuple(steps), "CONTRADICTION", problem, search, len(filt))
    dist: dict[int, int] = {}
    for w in _span(search.generators)[1:]:
        dist[w.bit_count()] = dist.get(w.bit_count(), 0) + 1
    steps.append(
        CertStep(
            claim="the size menu alone yields no contradiction: a code with these weights exists, so the chain stops here",
            arithmetic=f"witness weight distribution {dict(sorted(dist.items()))}",
            source="no contradiction",
        )
    )
    return Certificate(tuple(steps), "INCONCLUSIVE", problem, search, len(filt))
