"""Tests for the double-cover 2-torsion engine and its datasets.

Brute-force oracles: kernel dimensions by enumerating all 2^R vectors,
quotient ranks by even-subset counting, matrix ranks by span size.
"""

import random

import pytest

from genuskit.genus import report_for_d
from genuskit.keylemma import (
    BranchConfiguration,
    BranchNotEvenError,
    DivisorVector,
    arithmetic_configuration,
    dataset_campedelli,
    dataset_hyperelliptic,
    dataset_werner,
    is_two_divisible,
    kernel_basis,
    kernel_mod_e,
    lift_element,
    two_torsion_rank,
)


def brute_kernel(config):
    return [m for m in range(1 << config.n_components) if config.apply(m) == 0]


def brute_rank(rows):
    span = {0}
    for r in rows:
        span |= {r ^ s for s in span}
    return (len(span) - 1).bit_length()


def span_of(vectors):
    out = {0}
    for v in vectors:
        out |= {v ^ s for s in out}
    return out


def test_single_component_zero_map():
    config = BranchConfiguration(n_components=1, ambient_rank=0, rows=())
    assert kernel_mod_e(config) == []
    assert two_torsion_rank(config) == 0


def test_hyperelliptic_ranks_with_even_subset_oracle():
    for g in range(1, 6):
        data = dataset_hyperelliptic(g)
        n = 2 * g + 2
        evens = sum(1 for m in range(1 << n) if bin(m).count("1") % 2 == 0)
        assert evens == 1 << (n - 1)  # kernel size, dim n-1 = 2g+1
        assert len(kernel_mod_e(data.config)) == 2 * g
        assert two_torsion_rank(data.config) == 2 * g
        assert brute_kernel(data.config) == [m for m in range(1 << n) if bin(m).count("1") % 2 == 0]


def test_arithmetic_configuration_rank():
    for r in range(1, 8):
        config = arithmetic_configuration(r)
        assert len(kernel_mod_e(config)) == r - 1


def test_pic_two_rank_adds():
    config = BranchConfiguration(n_components=1, ambient_rank=0, rows=(), pic_two_rank=1)
    assert two_torsion_rank(config) == 1
    hy = dataset_hyperelliptic(2)
    bumped = BranchConfiguration(
        n_components=hy.config.n_components,
        ambient_rank=hy.config.ambient_rank,
        rows=hy.config.rows,
        pic_two_rank=3,
    )
    assert two_torsion_rank(bumped) == 4 + 3


def test_rank_formula_against_random_matrices():
    # dim Ker/(e) = R - rank(phi) - 1 whenever phi(e) = 0
    rng = random.Random(23)
    for _ in range(150):
        R = rng.randint(1, 12)
        m = rng.randint(0, 6)
        rows = []
        for _ in range(m):
            row = rng.getrandbits(R)
            if bin(row).count("1") % 2:  # force even rows so phi(e) = 0
                row ^= 1 << rng.randrange(R)
            rows.append(row)
        config = BranchConfiguration(n_components=R, ambient_rank=m, rows=tuple(rows))
        kernel = brute_kernel(config)
        assert (1 << R) == len(kernel) << brute_rank(rows)
        reps = kernel_mod_e(config)
        assert len(reps) == R - brute_rank(rows) - 1
        # representatives together with e span the kernel, and never hit <e>
        e = config.e_mask
        assert span_of(reps + [e]) == set(kernel)
        assert span_of(reps) & {e} == set()
        for v in reps:
            assert config.apply(v) == 0


def test_uneven_branch_rejected():
    config = BranchConfiguration(n_components=2, ambient_rank=1, rows=(0b01,))
    with pytest.raises(BranchNotEvenError):
        kernel_mod_e(config)


def test_kernel_basis_deterministic():
    config = dataset_werner().config
    assert kernel_basis(config) == kernel_basis(config)
    assert kernel_mod_e(config) == kernel_mod_e(config)


# ---------------------------------------------------------------------------
# parity checks and datasets
# ---------------------------------------------------------------------------


def test_campedelli_dataset():
    data = dataset_campedelli()
    assert data.c_tilde.coords == (10, -4, -3, -3, -3, -3, -3, -6, -6, -6, -6, -6)
    assert data.branch.coords == (10, -4, -2, -2, -2, -2, -2, -6, -6, -6, -6, -6)
    ok, half = is_two_divisible(data.branch)
    assert ok
    assert half.coords == (5, -2, -1, -1, -1, -1, -1, -3, -3, -3, -3, -3)
    # the cover exists but contributes no 2-torsion by itself
    assert kernel_mod_e(data.config) == []


def test_werner_dataset():
    cam = dataset_campedelli()
    data = dataset_werner()
    assert (data.b_tilde + data.q_tilde).coords == cam.c_tilde.coords
    ok, half = is_two_divisible(data.even_block)
    assert ok
    assert half.coords == (1, 0, 0, 0, 0, 0, 0, -1, -1, -1, -1, 0)
    reps = kernel_mod_e(data.config)
    assert len(reps) >= 1  # nonzero 2-torsion upstairs
    assert reps == [0b0111110]  # the block {Qt, Et1..Et4}
    assert two_torsion_rank(data.config) == 1


def test_is_two_divisible_examples():
    v = DivisorVector(("a", "b", "c"), (1, 1, 1))
    assert is_two_divisible(v) == (False, None)
    v = DivisorVector(("a", "b"), (4, -2))
    ok, half = is_two_divisible(v)
    assert ok and half.coords == (2, -1)


def test_divisor_vector_basis_mismatch():
    with pytest.raises(ValueError):
        DivisorVector(("a",), (1,)) + DivisorVector(("b",), (1,))


# ---------------------------------------------------------------------------
# lifts
# ---------------------------------------------------------------------------


def test_lift_trivial():
    config = dataset_hyperelliptic(1).config
    lift = lift_element(config, 0)
    assert lift.expression == "0 (trivial class)"


def test_lift_two_branch_points():
    config = dataset_hyperelliptic(1).config
    lift = lift_element(config, 0b0011, "point")
    assert lift.expression == "F_p1 + F_p2 - pi*(point)"


def test_lift_full_set_equivalent_to_empty():
    config = dataset_hyperelliptic(1).config
    full = lift_element(config, config.e_mask)
    empty = lift_element(config, 0)
    assert full.equivalent_to(empty)


def test_lift_complement_involution():
    config = dataset_hyperelliptic(2).config
    e = config.e_mask
    for subset in brute_kernel(config):
        a = lift_element(config, subset)
        b = lift_element(config, subset ^ e)
        assert a.equivalent_to(b) and b.equivalent_to(a)


def test_lift_rejects_non_kernel_subset():
    config = dataset_hyperelliptic(1).config
    with pytest.raises(ValueError):
        lift_element(config, 0b0001)


# ---------------------------------------------------------------------------
# wire format and the arithmetic bridge
# ---------------------------------------------------------------------------


def test_config_json_round_trip():
    for config in (dataset_werner().config, dataset_hyperelliptic(2).config, arithmetic_configuration(4)):
        data = config.to_json_dict()
        back = BranchConfiguration.from_json_dict(data)
        assert back.rows == config.rows
        assert back.n_components == config.n_components
        assert kernel_mod_e(back) == kernel_mod_e(config)


def test_engine_matches_genus_rank():
    for d in (-5, -21, -105, 3, 6, 30, -1, 210):
        field, _, report, _ = report_for_d(d)
        engine_rank = len(kernel_mod_e(arithmetic_configuration(field.r)))
        assert engine_rank == report.rank_two_torsion, d
