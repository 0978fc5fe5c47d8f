"""Tests for the even-set arithmetic, the MacWilliams machinery, and the
weight-restricted code search.

The code-search oracle enumerates every k-dimensional subspace of F_2^n
through reduced-echelon generator matrices, with no pruning and no shared
code with the search.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from genuskit.errors import ResourceLimitError, SearchBudgetExceeded
from genuskit.nodesets import (
    EvenSetParams,
    WeightCodeProblem,
    chi_double_cover,
    code_search,
    feasible_distributions,
    krawtchouk_table,
    macwilliams_dual,
    quintic_certificate,
    _candidate_rows,
    _FailedStates,
    _gl_map,
    _orbit_labels,
)
import genuskit.nodesets as nodesets

# ---------------------------------------------------------------------------
# chi formula
# ---------------------------------------------------------------------------


def test_chi_examples():
    assert chi_double_cover(EvenSetParams(5, 20)).value == 5
    r = chi_double_cover(EvenSetParams(5, 24))
    assert r.value == 4 and r.splitting
    r = chi_double_cover(EvenSetParams(5, 18))
    assert not r.integral and r.value == Fraction(11, 2)


def test_chi_small_even_sets_do_not_split():
    assert chi_double_cover(EvenSetParams(5, 16)).value == 6
    for r in (16, 20):
        assert not chi_double_cover(EvenSetParams(5, r)).splitting


def test_chi_rejects_negative():
    with pytest.raises(ValueError):
        EvenSetParams(5, -4)


# ---------------------------------------------------------------------------
# Krawtchouk / MacWilliams
# ---------------------------------------------------------------------------


def _krawtchouk_sum(n, j, i):
    return sum((-1) ** s * comb(i, s) * comb(n - i, j - s) for s in range(0, j + 1))


def test_krawtchouk_against_binomial_sum():
    for n in range(1, 13):
        K = krawtchouk_table(n)
        for j in range(n + 1):
            for i in range(n + 1):
                assert K[j][i] == _krawtchouk_sum(n, j, i), (n, j, i)


def test_macwilliams_examples():
    assert macwilliams_dual(2, 1, (1, 0, 1)) == (1, 0, 1)
    assert macwilliams_dual(3, 1, (1, 0, 0, 1)) == (1, 0, 3, 0)


def test_macwilliams_involution():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 16)
        k = rng.randint(0, n)
        counts = [0] * (n + 1)
        counts[0] = 1
        for _ in range((1 << k) - 1):
            counts[rng.randint(0, n)] += 1
        B = macwilliams_dual(n, k, counts)
        back = macwilliams_dual(n, n - k, B)
        assert back == tuple(Fraction(c) for c in counts)


def test_macwilliams_length_check():
    with pytest.raises(ValueError):
        macwilliams_dual(3, 1, (1, 0, 1))


# ---------------------------------------------------------------------------
# feasibility filter
# ---------------------------------------------------------------------------


def test_feasible_repetition_code():
    out = feasible_distributions(WeightCodeProblem(4, 1, frozenset({4})))
    assert [f.counts for f in out] == [(1, 0, 0, 0, 1)]


def test_feasible_empty_certifies_nonexistence():
    # weights of sums violate closure: two weight-1 words sum to weight 2;
    # brute check over the single 2-dim subspace of F_2^2
    assert feasible_distributions(WeightCodeProblem(2, 2, frozenset({1}))) == []
    whole_space_weights = {bin(w).count("1") for w in (1, 2, 3)}
    assert not whole_space_weights <= {1}


def _compositions(total, parts):
    """Every tuple of ``parts`` nonnegative integers with sum ``total``."""
    if parts == 0:
        return [()] if total == 0 else []
    return [(a,) + rest for a in range(total + 1) for rest in _compositions(total - a, parts - 1)]


def _feasible_by_brute_force(n, k, allowed):
    """The counts of every distribution with A_0 = 1 and 2^k - 1 words on
    the allowed weights whose 2^k B_j = sum_i A_i K_j(i) are nonnegative
    multiples of 2^k, sorted; K_j(i) from the closed sum."""
    weights = sorted(allowed)
    K = [[_krawtchouk_sum(n, j, i) for i in range(n + 1)] for j in range(n + 1)]
    out = []
    for amounts in _compositions((1 << k) - 1, len(weights)):
        counts = [1] + [0] * n
        for w, a in zip(weights, amounts):
            counts[w] = a
        duals = (sum(a * K[j][i] for i, a in enumerate(counts) if a) for j in range(n + 1))
        if all(s >= 0 and s % (1 << k) == 0 for s in duals):
            out.append(tuple(counts))
    return sorted(out)


def test_feasible_matches_brute_force():
    # the filter solves for the last two counts in closed form; every
    # distribution, in order, must be the one a plain enumeration finds
    rng = random.Random(89)
    problems = [(32, 6, (16, 20, 32)), (32, 6, (16, 20))] + CODES_POOL
    for _ in range(300):
        n = rng.randint(1, 24)
        k = rng.randint(0, min(n, 4))
        # even menus pass the filter more often
        weights = range(2, n + 1, 2) if n > 1 and rng.random() < 0.5 else range(1, n + 1)
        problems.append((n, k, rng.sample(weights, rng.randint(0, min(len(weights), 4)))))
    nonempty = 0
    for n, k, allowed in problems:
        got = [f.counts for f in feasible_distributions(WeightCodeProblem(n, k, frozenset(allowed)))]
        assert got == _feasible_by_brute_force(n, k, allowed), (n, k, sorted(allowed))
        nonempty += bool(got)
    assert nonempty >= 100


def test_feasible_budget():
    # the budget counts the leaves visited, one per count of the first
    # t - 2 weights: about 6 * 10^27 here, past the budget of 2 * 10^6
    with pytest.raises(SearchBudgetExceeded) as exc:
        feasible_distributions(WeightCodeProblem(20, 8, frozenset(range(1, 21))))
    assert exc.value.checkpoint == {"candidates": comb(255 + 18, 18), "budget": 2_000_000}
    # 32,896 leaves, although 2,829,056 distributions spread 255 words
    # over the four weights
    assert len(feasible_distributions(WeightCodeProblem(24, 8, frozenset({8, 12, 16, 24})))) == 50


def test_feasible_size_bounds():
    # the filter refuses what the search refuses, before any table is built
    for problem in (WeightCodeProblem(41, 1, frozenset({4})), WeightCodeProblem(20, 9, frozenset({4}))):
        with pytest.raises(ResourceLimitError) as exc:
            feasible_distributions(problem)
        assert not isinstance(exc.value, SearchBudgetExceeded)


# ---------------------------------------------------------------------------
# code search
# ---------------------------------------------------------------------------


def test_search_trivial_exists():
    res = code_search(WeightCodeProblem(4, 1, frozenset({4})))
    assert res.exists and res.generator_bitstrings() == ["1111"]
    res = code_search(WeightCodeProblem(32, 1, frozenset({16})))
    assert res.exists


def test_search_bounds():
    with pytest.raises(ResourceLimitError):
        code_search(WeightCodeProblem(41, 1, frozenset({4})))
    with pytest.raises(ResourceLimitError):
        code_search(WeightCodeProblem(20, 9, frozenset({4})))


def test_search_rejects_negative_budget():
    # a usage error, raised before the size bounds or any search
    for problem in (WeightCodeProblem(8, 2, frozenset({4})), WeightCodeProblem(41, 1, frozenset({4}))):
        with pytest.raises(ValueError, match="node_budget"):
            code_search(problem, node_budget=-1)
    # 31 nodes is not a decisive configuration, so no search would run
    for nodes in (31, 32):
        with pytest.raises(ValueError, match="node_budget"):
            quintic_certificate(nodes=nodes, node_budget=-1)
    assert code_search(WeightCodeProblem(8, 2, frozenset({4})), node_budget=100).exists


def test_quintic_rejects_negative_nodes_and_b2():
    # usage errors that name the input, raised before any step is built:
    # -4 nodes must not become the step "-4 - 26 = -30"
    for kwargs, name in (({"nodes": -4}, "nodes"), ({"b2": -10}, "b2"), ({"b2": -1, "nodes": 31}, "b2")):
        with pytest.raises(ValueError, match=f"^{name} must not be negative"):
            quintic_certificate(**kwargs)
    assert quintic_certificate(nodes=0).verdict == "INCONCLUSIVE"


def test_search_k_zero_takes_the_general_path():
    # the zero code: one state visited, so a budget of 0 runs out
    outcome = code_search(WeightCodeProblem(5, 0, frozenset({1})))
    assert (outcome.exists, outcome.generators, outcome.nodes) == (True, (), 1)
    with pytest.raises(SearchBudgetExceeded) as exc:
        code_search(WeightCodeProblem(5, 0, frozenset({1})), node_budget=0)
    assert exc.value.checkpoint["nodes"] == 1


def test_search_budget_checkpoint():
    # budgets that run out in the outer search (between enumerations) and
    # inside the row enumeration all report the same checkpoint keys
    keys = {"n", "k", "depth_reached", "nodes", "candidates_found"}
    stopped_in = set()
    for budget in range(120):
        with pytest.raises(SearchBudgetExceeded) as exc:
            code_search(WeightCodeProblem(24, 6, frozenset({8, 12, 16})), node_budget=budget)
        checkpoint = exc.value.checkpoint
        assert checkpoint.keys() == keys
        assert checkpoint["nodes"] == budget + 1
        assert (checkpoint["n"], checkpoint["k"]) == (24, 6)
        inside = any(entry.name == "_candidate_rows" for entry in exc.traceback)
        if not inside:
            assert checkpoint["candidates_found"] == 0
        stopped_in.add((inside, checkpoint["candidates_found"] > 0))
    assert {(False, False), (True, False), (True, True)} <= stopped_in


def _rows_by_brute_force(blocks, depth, allowed):
    """Every per-block ones count for which each word "new row + S" of the
    span has an allowed weight, with the rows laid out as column bit
    vectors, block after block."""
    old_rows = [0] * depth
    col = 0
    for pat, size in blocks:
        for j in range(depth):
            if pat >> j & 1:
                old_rows[j] |= ((1 << size) - 1) << col
        col += size
    span = [0]
    for row in old_rows:
        span += [w ^ row for w in span]
    rows = []
    for comp in product(*(range(size + 1) for _, size in blocks)):
        new_row = 0
        col = 0
        for (_, size), c in zip(blocks, comp):
            new_row |= ((1 << c) - 1) << col
            col += size
        if all(bin(new_row ^ w).count("1") in allowed for w in span):
            rows.append(comp)
    return rows


def _sized_blocks(rng, patterns, n):
    """Blocks on the given distinct patterns, with random sizes summing to n."""
    cuts = sorted(rng.sample(range(1, n), len(patterns) - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return tuple(zip(patterns, sizes))


def test_candidate_rows_match_brute_force():
    rng = random.Random(67)
    cases = []
    for _ in range(400):
        depth = rng.randint(0, 5)
        n = rng.randint(1, 12)
        blocks = _sized_blocks(rng, rng.sample(range(2**depth), rng.randint(1, min(n, 2**depth))), n)
        cases.append((blocks, depth, frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))))
    # long rows in deep states: up to 64 lanes of up to 41 bits, and menus
    # with the weight n, the top bit of a lane. The patterns lie in the
    # span of two, so that a word "new row + S" can be all ones without
    # another being zero; few blocks keep the brute force cheap
    for _ in range(60):
        depth, n = rng.randint(6, 7), rng.randint(30, 40)
        a, b = rng.sample(range(1, 2**depth), 2)
        blocks = _sized_blocks(rng, rng.sample([0, a, b, a ^ b], rng.randint(1, 3)), n)
        cases.append((blocks, depth, frozenset(rng.sample(range(1, n), rng.randint(n // 2, n - 1))) | {n}))
    nonempty = full_words = 0
    for blocks, depth, allowed in cases:
        expected = _rows_by_brute_force(blocks, depth, allowed)
        assert _candidate_rows(blocks, depth, allowed, lambda found: None) == expected, (blocks, depth, sorted(allowed))
        nonempty += bool(expected)
        # a word "new row + S", S != 0, of weight n: the row is 0 on the
        # blocks where S is odd and full on the others
        odd_on = {tuple((s & pat).bit_count() & 1 for pat, _ in blocks) for s in range(1, 2**depth)}
        full_words += any(
            all(c in (0, size) for (_, size), c in zip(blocks, row)) and tuple(int(c == 0) for c in row) in odd_on
            for row in expected
        )
    assert nonempty >= 250 and full_words >= 50


def test_weight_closure_identity():
    # w(u+v) = w(u) + w(v) - 2*overlap, the identity the pruning relies on
    rng = random.Random(41)
    for _ in range(500):
        u, v = rng.getrandbits(32), rng.getrandbits(32)
        assert bin(u ^ v).count("1") == bin(u).count("1") + bin(v).count("1") - 2 * bin(u & v).count("1")


def _linear_map(columns):
    """The linear map with the given images of the unit vectors, as the
    list of images A p of the patterns p."""
    image = [0]
    for c in columns:
        image += [q ^ c for q in image]
    return image


def _gl_images(depth):
    """Every A in GL(depth, 2)."""
    images = (_linear_map(columns) for columns in product(range(1, 1 << depth), repeat=depth))
    return [image for image in images if len(set(image)) == 1 << depth]


def _random_state(rng, depth, max_size):
    """Blocks (pattern, size) on distinct patterns that span GF(2)^depth."""
    while True:
        patterns = rng.sample(range(1 << depth), rng.randint(depth, 1 << depth))
        span = {0}
        for p in patterns:
            span |= {s ^ p for s in span}
        if len(span) == 1 << depth:
            return [(p, rng.randint(1, max_size)) for p in patterns]


def _moved(rng, image, blocks):
    moved = [(image[p], size) for p, size in blocks]
    rng.shuffle(moved)
    return moved


def _check_map(image, x_blocks, y_blocks):
    # a change of basis that carries every block onto one of the same size
    depth = len(image).bit_length() - 1
    assert all(image[p ^ q] == image[p] ^ image[q] for p in range(1 << depth) for q in range(1 << depth))
    assert sorted(image) == list(range(1 << depth))
    assert sorted((image[p], size) for p, size in x_blocks) == sorted(y_blocks)


def test_gl_map_matches_brute_force():
    # every pair is decided against all of GL(depth, 2): 1, 6 and 168 maps
    rng = random.Random(71)
    found = rejected = 0
    for depth in (1, 2, 3):
        group = _gl_images(depth)
        assert len(group) == (1, 6, 168)[depth - 1]
        for _ in range(200):
            x_blocks = _random_state(rng, depth, 3)
            image_of_x = _moved(rng, rng.choice(group), x_blocks)
            for y_blocks in (image_of_x, _random_state(rng, depth, 3)):
                ids = {}
                x_invariant, x = _orbit_labels(x_blocks, depth, ids)
                y_invariant, y = _orbit_labels(y_blocks, depth, ids)
                target = dict(y_blocks)
                equivalent = len(x_blocks) == len(y_blocks) and any(
                    all(target.get(a[p]) == size for p, size in x_blocks) for a in group
                )
                image = _gl_map(x, y)
                assert (image is not None) == equivalent, (depth, x_blocks, y_blocks)
                if image is not None:
                    assert x_invariant == y_invariant
                    _check_map(image, x_blocks, y_blocks)
                found += image is not None
                rejected += image is None
    assert found >= 600 and rejected >= 500


def test_orbit_labels_match_plain_span_weights():
    # the byte-lane sums against one plain sum per span word, up to 256
    # words and the largest n
    rng = random.Random(97)
    for _ in range(90):
        depth, n = rng.randint(0, 8), 40
        blocks = _sized_blocks(rng, rng.sample(range(2**depth), rng.randint(1, min(n, 2**depth))), n)
        weights = [sum(size for pat, size in blocks if (s & pat).bit_count() & 1) for s in range(2**depth)]
        ids = {}
        invariant, labels = _orbit_labels(blocks, depth, ids)
        assert list(invariant[0]) == sorted(weights), (blocks, depth)
        label_of = {i: label for label, i in ids.items()}
        for pat, size in blocks:
            odd_weights = sorted(w for s, w in enumerate(weights) if (s & pat).bit_count() & 1)
            assert label_of[labels[pat]] == (size, tuple(odd_weights)), (blocks, depth, pat)


def _maps_onto(x_patterns, y_patterns, depth):
    """Is some A in GL(depth, 2) a bijection from x_patterns onto
    y_patterns? Exhaustive over the images in y_patterns of one basis
    chosen among x_patterns, which every such A must map into y_patterns."""
    basis, span = [], [0]
    for p in x_patterns:
        if p not in span:
            basis.append(p)
            span += [s ^ p for s in span]
    assert len(span) == 1 << depth
    xs, ys = set(x_patterns), set(y_patterns)

    def extend(i, image):
        # image[j] is A span[j] for j < 2^i
        if i == depth:
            return {image[span.index(p)] for p in xs} == ys
        for c in ys - set(image):
            new = image + [q ^ c for q in image]
            if all(new[j] in ys for j in range(1 << i, 2 << i) if span[j] in xs):
                if extend(i + 1, new):
                    return True
        return False

    return len(xs) == len(ys) and extend(0, [0])


# Pairs of 12 and 14 patterns in GF(2)^5 with one invariant that no change
# of basis maps onto each other. Such pairs are rare: none occur among the
# states of depth <= 3 with block sizes <= 3.
SAME_INVARIANT_INEQUIVALENT = [
    ((1, 5, 7, 9, 11, 12, 16, 17, 18, 19, 23, 26), (3, 4, 6, 7, 9, 15, 16, 22, 24, 25, 27, 28)),
    ((2, 3, 5, 9, 10, 11, 19, 20, 21, 22, 24, 25, 27, 30), (3, 5, 8, 10, 11, 15, 16, 18, 19, 23, 25, 27, 29, 31)),
]


def test_memo_rejects_inequivalent_states_with_one_invariant():
    rng = random.Random(73)
    for x_patterns, y_patterns in SAME_INVARIANT_INEQUIVALENT:
        assert not _maps_onto(x_patterns, y_patterns, 5)
        x_blocks = [(p, 1) for p in x_patterns]
        y_blocks = [(p, 1) for p in y_patterns]
        failed = _FailedStates()
        x_key, y_key = failed.key(x_blocks, 5), failed.key(y_blocks, 5)
        assert x_key[0] == y_key[0]
        assert _gl_map(x_key[1], y_key[1]) is None and _gl_map(y_key[1], x_key[1]) is None
        failed.add(x_key)
        assert y_key not in failed
        # while the image of the stored state under a random A is found
        while True:
            a = _linear_map([rng.randrange(1, 32) for _ in range(5)])
            if len(set(a)) == 32:
                break
        moved = _moved(rng, a, x_blocks)
        assert _maps_onto(x_patterns, [p for p, _ in moved], 5)
        moved_key = failed.key(moved, 5)
        assert moved_key in failed
        image = _gl_map(moved_key[1], x_key[1])
        assert image is not None
        _check_map(image, moved, x_blocks)


def test_memo_moves_the_matched_state_to_the_front():
    rng = random.Random(83)
    x_patterns, y_patterns = SAME_INVARIANT_INEQUIVALENT[0]
    failed = _FailedStates()
    x_key = failed.key([(p, 1) for p in x_patterns], 5)
    y_key = failed.key([(p, 1) for p in y_patterns], 5)
    failed.add(x_key)
    failed.add(y_key)
    bucket = failed._states[x_key[0]]
    assert bucket == [x_key[1], y_key[1]]
    # a moved copy of y maps onto the second stored state only
    while True:
        a = _linear_map([rng.randrange(1, 32) for _ in range(5)])
        if len(set(a)) == 32:
            break
    moved_key = failed.key(_moved(rng, a, [(p, 1) for p in y_patterns]), 5)
    assert moved_key[1] != y_key[1]
    assert moved_key in failed
    assert bucket == [y_key[1], x_key[1]]
    # a hit at the front leaves the order as it is
    assert moved_key in failed
    assert bucket == [y_key[1], x_key[1]]


# The perfbench ``codes`` pool: (n, k, allowed).
CODES_POOL = [
    (32, 5, (16, 20, 32)), (17, 6, (4, 8, 12)), (17, 6, (4, 8, 14)), (18, 5, (6, 8, 14)),
    (16, 6, (4, 8, 10)), (17, 6, (4, 8, 10)), (20, 6, (8, 12)), (22, 6, (8, 12, 16)),
    (18, 6, (8, 14)), (16, 5, (6, 12)), (16, 6, (6, 12)), (16, 5, (6, 12, 14)), (16, 6, (6, 12, 14)),
    (16, 5, (6, 12, 16)), (16, 6, (6, 12, 16)), (23, 5, (12, 14)), (17, 5, (4, 10, 12)),
    (16, 6, (4, 10, 14)),
]


def test_merging_changes_no_result(monkeypatch):
    # the same search with a memo of exact repeats alone: the invariant is
    # then the state itself and the identity the only map. That search can
    # take millions of nodes ([14, 6] {6, 8, 11, 14}: 5,061,515, against
    # 2,661 with merging), so a random problem past its budget is left out
    rng = random.Random(79)
    problems = [WeightCodeProblem(n, k, frozenset(allowed)) for n, k, allowed in CODES_POOL]
    while len(problems) < len(CODES_POOL) + 100:
        n = rng.randint(6, 14)
        k = rng.randint(4, min(6, n))
        # even menus admit codes more often
        weights = range(2, n + 1, 2) if rng.random() < 0.5 else range(1, n + 1)
        allowed = rng.sample(weights, rng.randint(1, min(len(weights), 4)))
        problems.append(WeightCodeProblem(n, k, frozenset(allowed)))
    merged = [code_search(problem) for problem in problems]

    def exact_labels(blocks, depth, ids):
        labels = _orbit_labels(blocks, depth, ids)[1]
        return labels, labels

    monkeypatch.setattr(nodesets, "_orbit_labels", exact_labels)
    monkeypatch.setattr(nodesets, "_gl_map", lambda x, y: list(range(len(x))) if x == y else None)
    compared = fewer = exists = 0
    for i, (problem, outcome) in enumerate(zip(problems, merged)):
        try:
            exact = code_search(problem, node_budget=20_000)
        except SearchBudgetExceeded:
            assert i >= len(CODES_POOL), problem
            continue
        assert (outcome.exists, outcome.generators) == (exact.exists, exact.generators), problem
        assert outcome.nodes <= exact.nodes
        compared += 1
        fewer += outcome.nodes < exact.nodes
        exists += outcome.exists
    assert compared >= len(CODES_POOL) + 90 and fewer >= 40 and exists >= 20


def _witness_distribution(n, gens):
    words = [0]
    for g in gens:
        words += [w ^ g for w in words]
    counts = [0] * (n + 1)
    for w in words:
        counts[bin(w).count("1")] += 1
    return tuple(counts)


def test_search_witnesses_verify_and_filter_is_sound():
    rng = random.Random(53)
    instances = []
    for n in range(2, 9):
        for k in range(1, min(3, n) + 1):
            for _ in range(6):
                nw = rng.randint(1, min(4, n))
                instances.append((n, k, frozenset(rng.sample(range(1, n + 1), nw))))
    for n, k, allowed in instances:
        problem = WeightCodeProblem(n, k, allowed)
        res = code_search(problem)
        if res.exists:
            words = [0]
            for g in res.generators:
                words += [w ^ g for w in words]
            assert len(set(words)) == 1 << k
            assert all(bin(w).count("1") in allowed for w in words[1:])
            # a real code's distribution must pass the dual filter
            dist = _witness_distribution(n, res.generators)
            feas = feasible_distributions(problem)
            assert dist in [f.counts for f in feas], (n, k, sorted(allowed))


# ---------------------------------------------------------------------------
# oracle equivalence on small instances (full family in the acceptance run)
# ---------------------------------------------------------------------------


def oracle_weight_masks(n, k):
    """Weight-support masks of every k-dim subspace of F_2^n, via plain
    reduced-echelon enumeration."""
    out = set()
    if k == 0:
        return {0}
    for pivots in combinations(range(n), k):
        free = [[c for c in range(p + 1, n) if c not in pivots] for p in pivots]

        def rec(i, rows):
            if i == k:
                words = [0]
                for r in rows:
                    words += [w ^ r for w in words]
                wm = 0
                for w in words[1:]:
                    wm |= 1 << bin(w).count("1")
                out.add(wm)
                return
            base = 1 << (n - 1 - pivots[i])
            for bits in range(1 << len(free[i])):
                r = base
                b = bits
                j = 0
                while b:
                    if b & 1:
                        r |= 1 << (n - 1 - free[i][j])
                    b >>= 1
                    j += 1
                rec(i + 1, rows + [r])

        rec(0, [])
    return out


def oracle_exists(masks, allowed):
    bad = ~sum(1 << w for w in allowed)
    return any(wm & bad == 0 for wm in masks)


def test_search_matches_subspace_oracle_small():
    for n in range(2, 7):
        for k in range(1, min(3, n) + 1):
            masks = oracle_weight_masks(n, k)
            for nw in range(1, 4):
                for allowed in combinations(range(1, n + 1), nw):
                    expected = oracle_exists(masks, allowed)
                    got = code_search(WeightCodeProblem(n, k, frozenset(allowed))).exists
                    assert got == expected, (n, k, allowed)


# ---------------------------------------------------------------------------
# the quintic chain (documented honest outcomes; acceptance criterion 7
# checks the same outcomes against an independent RM(1,5) construction)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def default_certificate():
    return quintic_certificate()


def test_quintic_chain_arithmetic(default_certificate):
    arith = [s.arithmetic for s in default_certificate.steps]
    assert any("floor(53/2) = 26" in a for a in arith)
    assert any("32 - 26 = 6" in a for a in arith)


def test_quintic_code_problem_admits_reed_muller(default_certificate):
    # the first-order Reed-Muller code of length 32: 62 words of weight 16
    # plus the all-ones word, so the {16, 20, 32} menu is satisfiable and
    # the chain cannot end in a contradiction
    cert = default_certificate
    assert cert.verdict == "INCONCLUSIVE"
    assert cert.search is not None and cert.search.exists
    dist = _witness_distribution(32, cert.search.generators)
    assert dist[16] == 62 and dist[32] == 1 and dist[0] == 1
    assert cert.filter_count == 1  # exactly the Reed-Muller distribution


def test_quintic_menu_without_full_weight_is_impossible():
    # dropping the full-support weight makes the filter alone conclusive,
    # and the search, which never reads the filter, agrees by exhaustion
    problem = WeightCodeProblem(32, 6, frozenset({16, 20}))
    assert feasible_distributions(problem) == []
    outcome = code_search(problem)
    assert outcome.verdict == "NONEXISTENT" and outcome.generators is None


def test_quintic_31_nodes_stops_at_arithmetic():
    cert = quintic_certificate(nodes=31)
    assert cert.verdict == "INCONCLUSIVE"
    assert cert.search is None
    assert any("arithmetic only" == s.source for s in cert.steps)
