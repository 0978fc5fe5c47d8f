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
)

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


def test_feasible_budget():
    # about 10^29 candidate distributions, past the budget of 2 * 10^6
    with pytest.raises(SearchBudgetExceeded) as exc:
        feasible_distributions(WeightCodeProblem(20, 8, frozenset(range(1, 21))))
    assert exc.value.checkpoint == {"candidates": comb(255 + 19, 19), "budget": 2_000_000}


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


def test_candidate_rows_match_brute_force():
    rng = random.Random(67)
    nonempty = 0
    for _ in range(400):
        depth = rng.randint(0, 4)
        n = rng.randint(1, 12)
        patterns = rng.sample(range(2**depth), rng.randint(1, min(n, 2**depth)))
        cuts = sorted(rng.sample(range(1, n), len(patterns) - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        blocks = tuple(zip(patterns, sizes))
        allowed = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
        expected = _rows_by_brute_force(blocks, depth, allowed)
        assert _candidate_rows(blocks, depth, allowed, lambda found: None) == expected, (blocks, depth, sorted(allowed))
        nonempty += bool(expected)
    assert nonempty >= 100


def test_weight_closure_identity():
    # w(u+v) = w(u) + w(v) - 2*overlap, the identity the pruning relies on
    rng = random.Random(41)
    for _ in range(500):
        u, v = rng.getrandbits(32), rng.getrandbits(32)
        assert bin(u ^ v).count("1") == bin(u).count("1") + bin(v).count("1") - 2 * bin(u & v).count("1")


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
    # dropping the full-support weight makes the filter alone conclusive
    assert feasible_distributions(WeightCodeProblem(32, 6, frozenset({16, 20}))) == []


def test_quintic_31_nodes_stops_at_arithmetic():
    cert = quintic_certificate(nodes=31)
    assert cert.verdict == "INCONCLUSIVE"
    assert cert.search is None
    assert any("arithmetic only" == s.source for s in cert.steps)
