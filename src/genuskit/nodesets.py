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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

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

    The enumeration covers every A with A_0 = 1 and the remaining
    2^k - 1 nonzero words spread over the allowed weights. An empty
    result certifies nonexistence on its own; a nonempty one decides
    nothing (the dual conditions are necessary, not sufficient).
    Raises ResourceLimitError, before any work, past n = ``DEFAULT_MAX_N``
    (40) or k = ``DEFAULT_MAX_K`` (8), as ``code_search`` does, and
    SearchBudgetExceeded past ``DEFAULT_FILTER_BUDGET`` (2,000,000)
    candidate distributions.
    """
    _check_size(problem)
    weights = sorted(problem.allowed)
    m = (1 << problem.k) - 1
    t = len(weights)
    if t == 0:
        return [] if m else [WeightDistribution((1,) + (0,) * problem.n)]
    n_candidates = comb(m + t - 1, t - 1)
    if n_candidates > DEFAULT_FILTER_BUDGET:
        raise SearchBudgetExceeded(
            f"{n_candidates} candidate distributions exceed the budget {DEFAULT_FILTER_BUDGET}",
            checkpoint={"candidates": n_candidates, "budget": DEFAULT_FILTER_BUDGET},
        )
    K = krawtchouk_table(problem.n)
    scale = 1 << problem.k
    out = []

    def assign(idx: int, remaining: int, partial: list[int]):
        if idx == t - 1:
            counts = [0] * (problem.n + 1)
            counts[0] = 1
            for w, a in zip(weights, partial + [remaining]):
                counts[w] = a
            for j in range(problem.n + 1):
                s = sum(a * K[j][i] for i, a in enumerate(counts) if a)
                if s < 0 or s % scale:
                    return
            out.append(WeightDistribution(tuple(counts)))
            return
        for a in range(remaining + 1):
            assign(idx + 1, remaining - a, partial + [a])

    assign(0, m, [])
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
    the unsplit groups leave open. At level ``depth`` every group is one
    block. ``tick`` is called with the number of rows found so far for
    each row weight and each group split that survives pruning.
    """
    n = sum(size for _, size in blocks)
    # least[x]: the least allowed weight >= x of the same parity as x
    least = [n + 1] * (n + 3)
    for x in range(n, -1, -1):
        least[x] = x if x in allowed else least[x + 2]
    # sizes[t][q]: columns in blocks whose pattern has low t bits q
    sizes = [[0] * (1 << t) for t in range(depth + 1)]
    for pat, size in blocks:
        for t in range(depth + 1):
            sizes[t][pat & ((1 << t) - 1)] += size
    rows = []

    def level(t, count):
        # count[q] is the new row's ones in group q; the words "new row + S"
        # for S < 2^t are exact and allowed
        if t == depth:
            rows.append(tuple(count[pat] for pat, _ in blocks))
            return
        half = 1 << t
        odd = _odd_parities(half)
        child = [0] * (2 * half)
        # low[s]: the least weight the word "new row + half + s" can take
        low = [0] * half
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
            low = [w + (uneven if p else even) for w, p in zip(low, odd[q])]
        # slack[i]: how far the unsplit groups free[i:] can raise any word
        slack = [0] * (len(free) + 1)
        for i in range(len(free) - 1, -1, -1):
            slack[i] = slack[i + 1] + 2 * (free[i][2] - free[i][1])

        def split(i, low):
            if i == len(free):
                level(t + 1, child)
                return
            q, lo, hi = free[i]
            par, room = odd[q], slack[i + 1]
            for c0 in range(lo, hi + 1):
                up, down = 2 * (c0 - lo), 2 * (hi - c0)
                new = [w + (down if p else up) for w, p in zip(low, par)]
                if all(least[w] <= w + room for w in new):
                    tick(len(rows))
                    child[q], child[q + half] = c0, count[q] - c0
                    split(i + 1, new)

        if all(least[w] <= w + slack[0] for w in low):
            split(0, low)

    for weight in sorted(allowed):
        tick(len(rows))
        level(0, [weight])
    rows.sort()
    return rows


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
    tried in lexicographic order of their per-block counts. Explored
    failing states are memoized by their multiset of (row pattern, size)
    blocks, which is a complete column-permutation invariant of the
    partial matrix.

    ``nodes`` counts the states visited plus the partial rows the
    enumeration accepts: a row weight from the menu, and each split of
    one column group's count that survives pruning. ``node_budget``
    bounds that count; past it, ``SearchBudgetExceeded`` carries the
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
    failed_states: set[tuple] = set()

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
            key = (depth + 1, tuple(sorted(child)))
            if key in failed_states:
                continue
            found = search(child, depth + 1)
            if found is not None:
                return found
            failed_states.add(key)
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
    negative ``node_budget`` is a ValueError, raised before any step.
    """
    _check_node_budget(node_budget)
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
