"""The genus map of a quadratic field: subsets of ramified primes sent to
2-torsion classes of the narrow class group, its empirically computed
kernel and image, the rank identity rank Cl+[2] = r - 1, and the
narrow-to-wide quotient.

The kernel is computed, never assumed: the classical statement predicts a
kernel of order 2 generated by the full subset, but the actual generator
varies with d (it can be the full ramified set, the primes dividing d, or
neither), so reports classify what was found.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bqf import ClassGroup, ambiguous_form, class_group, DEFAULT_MAX_H, _ambiguous_form, _require_within
from .quadfield import QuadField, _discriminant, field_from_d, has_norm_minus_one

__all__ = [
    "GenusReport",
    "WideReport",
    "ambiguous_class_indices",
    "genus_map",
    "genus_map_kernel",
    "genus_report_json",
    "kernel_generator_kind",
    "verify_gauss",
    "wide_two_torsion",
]


@dataclass(frozen=True)
class GenusReport:
    field: QuadField
    rank_two_torsion: int
    kernel_subsets: tuple[int, ...]
    image_is_two_torsion: bool
    gauss_holds: bool
    kernel_generator_kind: str


@dataclass(frozen=True)
class WideReport:
    """Narrow vs wide 2-torsion, via the quotient by the class of (sqrt d).

    ``consistent`` records the cross-check that the support class is
    principal exactly when a norm -1 unit exists; it is None for d < 0,
    where narrow and wide coincide and the check is vacuous.
    """

    narrow_rank: int
    wide_rank: int
    support_class: int
    support_is_principal: bool
    norm_minus_one: bool
    consistent: bool | None


def ambiguous_class_indices(field: QuadField, cg: ClassGroup) -> tuple[int, ...]:
    """Class of the ramified prime form for each p in R, ascending.

    ``field_from_d`` and ``class_group`` validated D, so once the two
    agree on it the forms are built and looked up unchecked.
    """
    if field.D != cg.D:
        raise ValueError(f"field discriminant {field.D} differs from the class group's {cg.D}")
    return tuple(cg._lookup(_ambiguous_form(p, field.D)) for p in field.ramified)


def genus_map(field: QuadField, mask: int, cg: ClassGroup) -> int:
    """Class index of the product of ramified prime classes over the
    subset ``mask`` (bit i selects the i-th smallest ramified prime).

    The empty subset maps to the principal class. Composition runs left
    to right over ascending primes with reduction at each step; the order
    is irrelevant by commutativity but fixed for determinism.
    """
    out = cg.identity
    for i in range(field.r):
        if mask >> i & 1:
            out = cg.mul(out, cg.class_index(ambiguous_form(field.ramified[i], field.D)))
    return out


def genus_map_kernel(cg: ClassGroup, images: tuple[int, ...]) -> tuple[int, ...]:
    """All subset masks whose genus image is principal.

    ``images`` are the genus images of every mask, indexed by mask, as
    ``report_for_d`` builds them. Always contains the empty mask; checked
    to be closed under symmetric difference before returning.
    """
    kernel = tuple(m for m, x in enumerate(images) if x == cg.identity)
    kset = set(kernel)
    for m1 in kernel:
        for m2 in kernel:
            if m1 ^ m2 not in kset:
                raise ArithmeticError("genus map kernel is not xor-closed (bug)")
    return kernel


def kernel_generator_kind(field: QuadField, kernel_subsets: tuple[int, ...]) -> str:
    """Classify the nontrivial kernel element: the full ramified set
    ("e"), the primes dividing d ("support_d"), or anything else."""
    nontrivial = [m for m in kernel_subsets if m]
    if len(kernel_subsets) != 2 or len(nontrivial) != 1:
        return "other"
    g = nontrivial[0]
    if g == (1 << field.r) - 1:
        return "e"
    if g == field.support_d_mask:
        return "support_d"
    return "other"


def verify_gauss(field: QuadField, cg: ClassGroup, images: tuple[int, ...]) -> GenusReport:
    """Check rank Cl+[2] = r - 1 and the exactness of the genus map, on
    the class group ``cg`` of the field's discriminant.

    ``images`` are the genus images of every subset mask, indexed by
    mask, as ``report_for_d`` builds them. rank_two_torsion comes from
    the invariant factors; the image is compared against the full
    2-torsion subgroup element by element.
    """
    rank = cg.two_torsion_rank
    kernel = genus_map_kernel(cg, images)
    return GenusReport(
        field=field,
        rank_two_torsion=rank,
        kernel_subsets=kernel,
        image_is_two_torsion=set(images) == set(cg.two_torsion()),
        gauss_holds=rank == field.r - 1,
        kernel_generator_kind=kernel_generator_kind(field, kernel),
    )


def wide_two_torsion(field: QuadField, cg: ClassGroup, images: tuple[int, ...]) -> WideReport:
    """Rank of the wide class group's 2-torsion, as a quotient of the
    narrow group ``cg`` by the class of the ideal (sqrt d).

    ``images`` are the genus images, as ``verify_gauss`` takes them. For
    d < 0 the narrow and wide groups coincide and the narrow rank is
    returned unchanged. For d > 0 the quotient is by the genus image of
    the primes dividing d; 2-torsion of the quotient is counted directly,
    from the squares ``class_group`` recorded.
    """
    narrow = wide = cg.two_torsion_rank
    c = images[field.support_d_mask]
    principal = c == cg.identity
    nmo = field.is_real and has_norm_minus_one(field)
    if field.is_real and not principal:
        killed = sum(1 for s in cg._squares if s in (cg.identity, c))
        wide = (killed // 2).bit_length() - 1
        if 1 << wide != killed // 2:
            raise ArithmeticError("wide 2-torsion count is not a power of 2 (bug)")
    return WideReport(
        narrow_rank=narrow,
        wide_rank=wide,
        support_class=c,
        support_is_principal=principal,
        norm_minus_one=nmo,
        consistent=principal == nmo if field.is_real else None,
    )


def genus_report_json(field: QuadField, report: GenusReport, wide: WideReport) -> dict:
    """Flat JSON record for one field; superset of the report fields so
    that scan checks can be re-evaluated from cached records alone."""
    return {
        **field.to_json_dict(),
        "rank2": report.rank_two_torsion,
        "kernel_masks": list(report.kernel_subsets),
        "kernel_generator_kind": report.kernel_generator_kind,
        "gauss_holds": report.gauss_holds,
        "image_is_two_torsion": report.image_is_two_torsion,
        "wide_rank": wide.wide_rank,
        "support_class_principal": wide.support_is_principal,
        "norm_minus_one": wide.norm_minus_one,
    }


def _genus_images(field: QuadField, cg: ClassGroup) -> tuple[int, ...]:
    """The genus image of every subset mask, indexed by mask, without a
    composition: each ambiguous class has its GF(2) coordinates in the
    2-torsion basis, its position in ``cg._span``, and the image of a
    subset is the class at the XOR of its primes' coordinates."""
    position = {x: m for m, x in enumerate(cg._span)}
    masks = [0]
    for x in ambiguous_class_indices(field, cg):
        if x not in position:
            raise ArithmeticError(f"ambiguous class {x} of D = {cg.D} is outside the 2-torsion span (bug)")
        m = position[x]
        masks += [y ^ m for y in masks]
    return tuple(cg._span[m] for m in masks)


def report_for_d(d: int, *, max_h: int = DEFAULT_MAX_H) -> tuple[QuadField, ClassGroup, GenusReport, WideReport]:
    """Convenience bundle used by the CLI and the scan harness, and the
    one place that builds the class group for a genus report.

    |D| is bounded before ``field_from_d`` factorises d (D is d or 4d), so
    a huge d fails fast with ResourceLimitError, even when it is invalid.
    """
    _require_within(_discriminant(d))
    field = field_from_d(d)
    cg = class_group(field.D, max_h=max_h)
    images = _genus_images(field, cg)
    return field, cg, verify_gauss(field, cg, images), wide_two_torsion(field, cg, images)
