"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s or -rA to see them on success).

Criterion 7 replays the node-set chain of the quintic argument and
asserts what is true of it. The weight menu {16, 20, 32} yields no
contradiction: the first-order Reed-Muller code RM(1,5) is a [32, 6]
binary code with 62 words of weight 16 and the all-ones word of weight
32. The search finds such a code and re-verifies its whole span; the
MacWilliams filter leaves exactly one candidate distribution
(A16 = 62, A32 = 1); the certificate reports INCONCLUSIVE. The test
builds RM(1,5) itself from the affine functions on GF(2)^5, with no
library code, as an independent oracle for that distribution. The
contradiction holds once the full-support weight is dropped: for the
menu {16, 20} the filter alone leaves no candidate distribution.
"""

from itertools import combinations, combinations_with_replacement
from math import gcd

import pytest

from genuskit.bqf import class_group
from genuskit.genus import report_for_d
from genuskit.intkit import cf_expand, factorize
from genuskit.keylemma import (
    arithmetic_configuration,
    dataset_campedelli,
    dataset_hyperelliptic,
    dataset_werner,
    is_two_divisible,
    kernel_mod_e,
)
from genuskit.nodesets import (
    EvenSetParams,
    WeightCodeProblem,
    chi_double_cover,
    code_search,
    feasible_distributions,
    quintic_certificate,
)
from genuskit.quadfield import field_from_d, has_norm_minus_one


def squarefree(lo, hi):
    return [d for d in range(lo, hi + 1) if d not in (0, 1) and factorize(d).is_squarefree]


@pytest.fixture(scope="module")
def desk_reports():
    return {d: report_for_d(d) for d in squarefree(-500, 500)}


def test_criterion_1_gauss_rank_identity(desk_reports):
    bad = [d for d, (field, _, rep, _) in desk_reports.items() if rep.rank_two_torsion != field.r - 1]
    print(f"[acceptance 1] rank Cl+[2] = r-1 for all {len(desk_reports)} squarefree 2 <= |d| <= 500: "
          + ("PASS" if not bad else f"FAIL {bad}"))
    assert not bad


def test_criterion_2_explicit_isomorphism(desk_reports):
    bad = [
        d
        for d, (_, _, rep, _) in desk_reports.items()
        if not rep.image_is_two_torsion or len(rep.kernel_subsets) != 2
    ]
    print(f"[acceptance 2] genus image = full 2-torsion and |kernel| = 2 on the same range: "
          + ("PASS" if not bad else f"FAIL {bad}"))
    assert not bad


def test_criterion_3_narrow_wide_bridge(desk_reports):
    bad = []
    for d in squarefree(2, 200):
        _, _, _, wide = desk_reports[d]
        if wide.consistent is not True:
            bad.append(d)
        if wide.support_is_principal != has_norm_minus_one(field_from_d(d)):
            bad.append(d)
    print("[acceptance 3] form-kernel test agrees with CF norm -1 detection for 2 <= d <= 200: "
          + ("PASS" if not bad else f"FAIL {bad}"))
    assert not bad


def _oracle_reduced_definite(D):
    out = set()
    b = D % 2
    while b * b <= -D // 3:
        num = b * b - D
        a = max(b, 1)
        while 4 * a * a <= num:
            if num % (4 * a) == 0:
                c = num // (4 * a)
                if gcd(gcd(a, b), c) == 1:
                    out.add((a, b, c))
                    if 0 < b < a < c:
                        out.add((a, -b, c))
            a += 1
        b += 2
    return out


def test_criterion_4_spot_values():
    # h(-20) = 2 with the stated representatives, by window enumeration
    oracle20 = _oracle_reduced_definite(-20)
    assert oracle20 == {(1, 0, 5), (2, 2, 3)}
    cg = class_group(-20)
    assert cg.h_plus == 2 and set(map(tuple, cg.reps)) == oracle20

    oracle84 = _oracle_reduced_definite(-84)
    assert len(oracle84) == 4
    cg = class_group(-84)
    assert cg.h_plus == 4 and cg.invariant_factors == (2, 2)
    assert set(map(tuple, cg.reps)) == oracle84

    # d = 34: period of sqrt(34) has even length 4, so no norm -1 unit
    cf = cf_expand(0, 1, 34)
    assert cf.period == (1, 4, 1, 10)
    assert has_norm_minus_one(field_from_d(34)) is False
    print("[acceptance 4] spot values h(-20), h+(-84), d=34 norm: PASS")


def test_criterion_5_key_lemma_engine():
    wer = dataset_werner()
    assert len(kernel_mod_e(wer.config)) >= 1

    cam = dataset_campedelli()
    ok_branch, half_branch = is_two_divisible(cam.branch)
    assert ok_branch
    assert cam.c_tilde.coords == (10, -4) + (-3,) * 5 + (-6,) * 5
    assert half_branch.coords == (5, -2) + (-1,) * 5 + (-3,) * 5
    ok_block, _ = is_two_divisible(wer.even_block)
    assert ok_block

    for g in range(1, 6):
        config = dataset_hyperelliptic(g).config
        n = 2 * g + 2
        even_subsets = sum(1 for m in range(1 << n) if bin(m).count("1") % 2 == 0)
        assert even_subsets == 1 << (n - 1)  # oracle: kernel dim n-1, quotient 2g
        assert len(kernel_mod_e(config)) == 2 * g
    print("[acceptance 5] Werner kernel >= 1, Campedelli parity, hyperelliptic ranks 2g: PASS")


def test_criterion_6_cross_module_equality(desk_reports):
    sample = sorted(desk_reports, key=lambda d: (abs(d), d))[:50]
    assert len(sample) == 50
    bad = []
    for d in sample:
        field, _, rep, _ = desk_reports[d]
        if len(kernel_mod_e(arithmetic_configuration(field.r))) != rep.rank_two_torsion:
            bad.append(d)
    print("[acceptance 6] branch-configuration engine reproduces the genus rank on 50 sampled d: "
          + ("PASS" if not bad else f"FAIL {bad}"))
    assert not bad


def _span(gens):
    words = [0]
    for g in gens:
        words += [w ^ g for w in words]
    return words


def _distribution(words):
    dist = {}
    for w in words:
        wt = bin(w).count("1")
        dist[wt] = dist.get(wt, 0) + 1
    return dist


def _reed_muller_1_5():
    """RM(1,5): the 64 affine functions x -> a.x + b on GF(2)^5, each as
    its 32-bit truth table (bit x holds the value at the point x)."""
    words = []
    for a in range(32):
        for b in range(2):
            word = 0
            for x in range(32):
                if (bin(a & x).count("1") + b) % 2:
                    word |= 1 << x
            words.append(word)
    return words


RM15_DISTRIBUTION = {0: 1, 16: 62, 32: 1}


def test_criterion_7_node_set_chain():
    chi = chi_double_cover(EvenSetParams(5, 24))
    chi_ok = chi.value == 4 and chi.value < 5 and chi.splitting

    menu = frozenset({16, 20, 32})
    problem = WeightCodeProblem(32, 6, menu)
    outcome = code_search(problem, node_budget=50_000_000)
    cert = quintic_certificate(node_budget=50_000_000)
    replay_ok = any("floor(53/2) = 26" in s.arithmetic for s in cert.steps) and any(
        "32 - 26 = 6" in s.arithmetic for s in cert.steps
    )

    # independent oracle: RM(1,5) is a 6-dimensional [32, 6] code whose
    # nonzero weights lie in the menu, so no search may report NONEXISTENT
    rm = _reed_muller_1_5()
    rm_set = set(rm)
    oracle_ok = (
        len(rm_set) == 64
        and all(u ^ v in rm_set for u in rm for v in rm)
        and _distribution(rm) == RM15_DISTRIBUTION
        and all(bin(w).count("1") in menu for w in rm if w)
    )

    words = _span(outcome.generators or ())
    witness_dist = _distribution(words)
    search_ok = (
        outcome.verdict == "EXISTS"
        and len(set(words)) == 64
        and all(bin(w).count("1") in menu for w in words[1:])
        and witness_dist == RM15_DISTRIBUTION
    )

    survivors = feasible_distributions(problem)
    filter_ok = [{w: a for w, a in enumerate(d.counts) if a} for d in survivors] == [RM15_DISTRIBUTION]
    without_full_weight = feasible_distributions(WeightCodeProblem(32, 6, frozenset({16, 20})))
    impossible_ok = without_full_weight == []

    verdict_ok = cert.verdict == "INCONCLUSIVE" and cert.filter_count == 1
    status = "PASS" if all(
        (chi_ok, replay_ok, oracle_ok, search_ok, filter_ok, impossible_ok, verdict_ok)
    ) else "FAIL"
    print(f"[acceptance 7] chi(5,24)=4<5: {'ok' if chi_ok else 'FAIL'}; "
          f"certificate 26->6 replay: {'ok' if replay_ok else 'FAIL'}; "
          f"code_search(32,6,{{16,20,32}}): {outcome.verdict}, witness distribution {witness_dist} "
          f"(RM(1,5) oracle {'ok' if oracle_ok else 'FAIL'}); "
          f"filter {{16,20}}: {len(without_full_weight)} feasible; "
          f"verdict {cert.verdict} with {cert.filter_count} feasible: {status}")

    assert chi_ok
    assert replay_ok
    assert oracle_ok, "the in-test RM(1,5) construction is not a [32, 6] code with weights {16, 32}"
    assert search_ok, f"expected a verified RM(1,5)-like witness, got rows {outcome.generator_bitstrings()}"
    assert filter_ok, [d.counts for d in survivors]
    assert impossible_ok, [d.counts for d in without_full_weight]
    assert verdict_ok, (cert.verdict, cert.filter_count)


ORACLE_NKS = [(n, k) for n in range(1, 11) for k in range(1, min(3, n) + 1)]


def _oracle_weight_masks(n, k):
    """Weight masks (bit w set for each nonzero weight w) of every [n, k]
    binary code, by definition. A code is the row space of a k x n
    generator matrix, and permuting its columns keeps the weights, so run
    over multisets of n columns from GF(2)^k. Message m gives the word of
    weight #{columns v : m.v = 1}; the columns have rank k iff no nonzero
    m gives weight 0."""
    odd = [[v for v in range(1 << k) if bin(m & v).count("1") % 2] for m in range(1, 1 << k)]
    out = set()
    for cols in combinations_with_replacement(range(1 << k), n):
        counts = [cols.count(v) for v in range(1 << k)]
        weights = {sum(counts[v] for v in vs) for vs in odd}
        if 0 not in weights:
            out.add(sum(1 << w for w in weights))
    return out


def _allowed_family(n):
    fam = [frozenset({w}) for w in range(1, n + 1)]
    fam += [frozenset(p) for p in combinations(range(1, n + 1), 2)]
    fam.append(frozenset(w for w in range(1, n + 1) if w % 4 == 0) or frozenset({1}))
    fam.append(frozenset(w for w in range(1, n + 1) if w % 2 == 0) or frozenset({1}))
    fam.append(frozenset(range(1, n + 1)))
    return fam


def test_criterion_8_search_oracle_equivalence():
    checked = 0
    for n, k in ORACLE_NKS:
        masks = _oracle_weight_masks(n, k)
        for allowed in _allowed_family(n):
            bad_mask = ~sum(1 << w for w in allowed)
            expected = any(wm & bad_mask == 0 for wm in masks)
            got = code_search(WeightCodeProblem(n, k, allowed))
            assert got.exists == expected, (n, k, sorted(allowed))
            if got.exists:
                words = [0]
                for g in got.generators:
                    words += [w ^ g for w in words]
                assert len(set(words)) == 1 << k
                assert all(bin(w).count("1") in allowed for w in words[1:])
            checked += 1
    print(f"[acceptance 8] code_search matches exhaustive column-multiset enumeration on {checked} instances "
          f"over all (n <= 10, k <= 3): PASS")
