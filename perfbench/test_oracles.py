"""Known values for the benchmark's reference computations.

    python3 -m pytest perfbench/test_oracles.py
"""

import oracles


def test_class_numbers():
    assert [oracles.class_number_imaginary(D) for D in (-23, -47, -84)] == [3, 5, 4]


def test_reed_muller_1_5():
    assert oracles.reed_muller_1_5() == {0: 1, 16: 62, 32: 1}


def test_feasibility():
    assert oracles.feasible_count(32, 6, {16, 20}) == 0
    assert oracles.feasible_count(32, 6, {16, 20, 32}) == 1


def test_span_checks():
    rows = [0b0011, 0b0101]
    assert oracles.span_distribution(rows, 4) == {0: 1, 2: 3}
    assert oracles.witness_ok(rows, 4, 2, {2})
    assert not oracles.witness_ok(rows + [0b0110], 4, 3, {2})  # dependent rows


def test_self_check_passes():
    assert oracles.self_check() == []
