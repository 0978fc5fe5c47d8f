"""Tests for the genus map, its kernel and image, the rank identity, and
the narrow-to-wide quotient."""

import json
from dataclasses import replace
from math import isqrt

import pytest

from genuskit import genus
from genuskit.bqf import Form, ambiguous_form, class_group, compose, principal_form, reduce
from genuskit.genus import (
    ambiguous_class_indices,
    genus_map,
    genus_map_kernel,
    genus_report_json,
    report_for_d,
    wide_two_torsion,
)
from genuskit.intkit import factorize
from genuskit.quadfield import field_from_d, fundamental_unit, has_norm_minus_one


def squarefree(lo, hi):
    return [d for d in range(lo, hi + 1) if d not in (0, 1) and factorize(d).is_squarefree]


def genus_images(field, cg):
    # every subset's image from the public genus_map, one mask at a time
    return tuple(genus_map(field, m, cg) for m in range(1 << field.r))


def wide_report(field, cg):
    return wide_two_torsion(field, cg, genus_images(field, cg))


def test_genus_map_examples_d_minus5():
    field = field_from_d(-5)
    cg = class_group(-20)
    # R = (2, 5): mask 0b01 = {2}, 0b10 = {5}
    assert cg.reps[genus_map(field, 0b01, cg)] == Form(2, 2, 3)
    assert genus_map(field, 0, cg) == cg.identity
    assert genus_map(field, 0b10, cg) == cg.identity  # the ideal above 5 is principal
    # oracle for the last: a^2 + 5 b^2 = 5 has the solution (0, 1)
    assert any(a * a + 5 * b * b == 5 for a in range(3) for b in range(2))


def test_genus_map_is_homomorphism():
    for d in (-5, -21, -105, 6, 30, 210):
        field = field_from_d(d)
        cg = class_group(field.D)
        images = [genus_map(field, m, cg) for m in range(1 << field.r)]
        for m1 in range(1 << field.r):
            for m2 in range(1 << field.r):
                assert images[m1 ^ m2] == cg.mul(images[m1], images[m2])


def test_kernel_examples():
    for d, kernel in ((3, (0, 0b11)), (-1, (0, 1)), (-5, (0, 0b10))):  # R = (2, 3), (2,), (2, 5)
        field = field_from_d(d)
        cg = class_group(field.D)
        assert genus_map_kernel(cg, genus_images(field, cg)) == kernel, d


def test_kernel_generator_kinds():
    cases = {-5: "support_d", -1: "e", 3: "e", -21: "support_d", 6: "other", -15: "e"}
    for d, kind in cases.items():
        _, _, report, _ = report_for_d(d)
        assert report.kernel_generator_kind == kind, d


def test_verify_gauss_examples():
    _, _, report, _ = report_for_d(-5)
    assert report.rank_two_torsion == 1 and report.field.r == 2 and report.gauss_holds

    _, cg, report, _ = report_for_d(-21)
    assert report.rank_two_torsion == 2 and report.field.r == 3 and report.gauss_holds
    assert cg.invariant_factors == (2, 2)

    _, cg, report, _ = report_for_d(2)
    assert report.rank_two_torsion == 0 and cg.h_plus == 1 and report.gauss_holds


def test_wide_examples():
    _, _, _, wide = report_for_d(-5)
    assert wide.wide_rank == wide.narrow_rank == 1
    assert wide.consistent is None

    field = field_from_d(3)
    cg = class_group(12)
    wide = wide_report(field, cg)
    assert wide.narrow_rank == 1 and wide.wide_rank == 0
    assert not wide.support_is_principal  # the class of the ideal above 3
    assert wide.norm_minus_one is False and wide.consistent is True
    assert cg.h_plus == 2  # h(12) = 1 narrowly doubled

    _, _, _, wide = report_for_d(2)
    assert wide.support_is_principal and wide.norm_minus_one and wide.wide_rank == 0

    assert wide_report(field_from_d(-21), class_group(-84)).wide_rank == 2


def test_range_properties():
    # module-range slice of the acceptance sweep
    for d in squarefree(-150, 150):
        field, cg, report, wide = report_for_d(d)
        assert report.gauss_holds, d
        assert len(report.kernel_subsets) == 2, d
        assert report.image_is_two_torsion, d
        assert wide.wide_rank in (field.r - 1, field.r - 2), d
        if d > 0:
            assert wide.consistent is True, d


def test_wide_rank_drop_matches_norm():
    # for real fields the rank drops exactly when no norm -1 unit exists
    # and the support class is nontrivial 2-torsion
    for d in squarefree(2, 100):
        field, cg, report, wide = report_for_d(d)
        nmo = has_norm_minus_one(field)
        assert wide.support_is_principal == nmo, d


def _predicted_kernel_mask(field):
    """The nonzero kernel mask that the units predict (Hilbert's Satz 90,
    *Zahlbericht*, 1897): for d < 0 the primes dividing d, whose product
    (sqrt d) is principal, or e for d = -1, from the unit i; for a unit of
    norm -1, e. Otherwise the fundamental unit is eps = a / a' with
    a = 1 + eps, and the ambiguous ideal (a) has norm 2 + Tr(eps): the
    mask is the ramified p with an odd exponent in it, and dividing those
    p out leaves a square."""
    e = (1 << field.r) - 1
    if field.d == -1:
        return e
    if field.d < 0:
        return sum(1 << i for i, p in enumerate(field.ramified) if field.d % p == 0)
    unit = fundamental_unit(field)
    if unit.norm == -1:
        return e
    rest = 2 + (unit.x if unit.halved else 2 * unit.x)
    mask = 0
    for i, p in enumerate(field.ramified):
        while rest % p == 0:
            rest //= p
            mask ^= 1 << i
    assert isqrt(rest) ** 2 == rest, field.d
    return mask


def test_kernel_predicted_by_fundamental_unit():
    # the kernel comes from compositions in bqf, the prediction from the
    # continued fraction of the unit in quadfield
    neither = 0
    for d in squarefree(-2999, 2999):
        field, _, report, _ = report_for_d(d)
        mask = _predicted_kernel_mask(field)
        assert report.kernel_subsets == (0, mask), d
        neither += mask not in ((1 << field.r) - 1, field.support_d_mask)
    assert neither >= 1000


def test_xor_images_match_composed_products():
    # the genus images read off 2-torsion coordinates, against each
    # subset's product of ramified prime forms by the public compose; the
    # last three fields have r = 7 and 128 images
    for d in (*squarefree(-2999, 2999), -510510, 510510, 4849845):
        field = field_from_d(d)
        products = [reduce(principal_form(field.D))]
        for p in field.ramified:
            f = ambiguous_form(p, field.D)
            products += [compose(g, f) for g in products]
        cg = class_group(field.D)
        assert [cg.reps[x] for x in genus._genus_images(field, cg)] == products, d
        assert abs(d) < 3000 or len(products) == 128, d


def test_ambiguous_class_outside_the_span_is_a_bug():
    field = field_from_d(-5)
    cg = class_group(field.D)
    with pytest.raises(ArithmeticError, match=r"\(bug\)"):
        genus._genus_images(field, replace(cg, _span=(cg.identity,)))


def test_ambiguous_classes_need_matching_discriminants():
    with pytest.raises(ValueError):
        ambiguous_class_indices(field_from_d(-5), class_group(-84))


def test_report_json_round_trip():
    field, cg, report, wide = report_for_d(-5)
    data = genus_report_json(field, report, wide)
    assert json.loads(json.dumps(data)) == data
    assert data["kernel_generator_kind"] == "support_d"
    assert data["r"] == 2 and data["rank2"] == 1 and data["gauss_holds"] is True
