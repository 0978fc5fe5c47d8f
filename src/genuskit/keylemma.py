"""2-torsion of a double cover's Picard group from branch data.

Given the mod-2 classes of the branch components of a double covering,
the 2-torsion of the cover's Picard group is (a split extension by any
pre-existing 2-torsion of) the kernel of the component-class map, taken
modulo the all-ones vector. This module is the generic GF(2) engine for
that computation, together with exact integer-lattice parity checks and
the classical datasets that feed them: the Campedelli double plane,
Werner's degree-8-plus-conic branch curve, hyperelliptic curves, and the
arithmetic instance over Spec Z where the branch components are the
ramified primes.

Bitmask conventions: a GF(2) vector over the components is an int with
bit i = component i; matrix rows are ints over the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .errors import ResourceLimitError

__all__ = [
    "BranchConfiguration",
    "BranchNotEvenError",
    "CampedelliData",
    "DivisorVector",
    "HyperellipticData",
    "LiftDescription",
    "WernerData",
    "arithmetic_configuration",
    "dataset_campedelli",
    "dataset_hyperelliptic",
    "dataset_werner",
    "is_two_divisible",
    "kernel_basis",
    "kernel_mod_e",
    "lift_element",
    "two_torsion_rank",
]


# the largest branch configuration accepted: the masks are ints of this
# many bits, and the kernel is found by elimination over every component
MAX_COMPONENTS = 1024


class BranchNotEvenError(ValueError):
    """The branch divisor is not 2-divisible, so no double cover exists."""


def _pack_rows(matrix, width: int) -> tuple[int, ...]:
    # one int per row, bit i set where entry i is odd
    rows = []
    for row in matrix:
        if len(row) != width:
            raise ValueError(f"matrix row has {len(row)} entries, expected {width}")
        rows.append(sum(1 << i for i, v in enumerate(row) if v % 2))
    return tuple(rows)


@dataclass(frozen=True)
class BranchConfiguration:
    """Mod-2 classes of the branch components of a double cover.

    ``rows`` is the component-class matrix over GF(2): row r, bit i is
    the r-th coordinate of the class of component i. ``pic_two_rank`` is
    the dimension of any 2-torsion already present downstairs (0 for the
    surfaces treated here, nonzero for the split-extension variant).
    """

    n_components: int
    ambient_rank: int
    rows: tuple[int, ...]
    pic_two_rank: int = 0
    component_names: tuple[str, ...] | None = dataclass_field(default=None, compare=False)

    def __post_init__(self):
        if self.n_components > MAX_COMPONENTS:
            raise ResourceLimitError(f"{self.n_components} branch components exceed the bound {MAX_COMPONENTS}")
        if self.n_components < 1:
            raise ValueError("need at least one branch component")
        if self.ambient_rank < 0 or self.pic_two_rank < 0:
            raise ValueError("ranks must be nonnegative")
        if len(self.rows) != self.ambient_rank:
            raise ValueError(f"expected {self.ambient_rank} rows, got {len(self.rows)}")
        for row in self.rows:
            if not 0 <= row < (1 << self.n_components):
                raise ValueError("matrix row has bits outside the component range")
        if self.component_names is not None and len(self.component_names) != self.n_components:
            raise ValueError("component name count mismatch")

    @classmethod
    def from_columns(cls, columns, ambient_rank: int, pic_two_rank: int = 0, component_names=None) -> "BranchConfiguration":
        """Build from per-component class vectors (ints over ambient bits)."""
        columns = list(columns)
        rows = []
        for r in range(ambient_rank):
            row = 0
            for i, col in enumerate(columns):
                if col >> r & 1:
                    row |= 1 << i
            rows.append(row)
        return cls(len(columns), ambient_rank, tuple(rows), pic_two_rank, tuple(component_names) if component_names else None)

    @property
    def e_mask(self) -> int:
        return (1 << self.n_components) - 1

    def name(self, i: int) -> str:
        if self.component_names:
            return self.component_names[i]
        return f"E{i + 1}"

    def apply(self, mask: int) -> int:
        """Image of a component subset in the ambient mod-2 space."""
        out = 0
        for r, row in enumerate(self.rows):
            if (row & mask).bit_count() & 1:
                out |= 1 << r
        return out

    def to_json_dict(self) -> dict:
        return {
            "n_components": self.n_components,
            "ambient_rank": self.ambient_rank,
            "pic_two_rank": self.pic_two_rank,
            "phi_matrix": [[(row >> i) & 1 for i in range(self.n_components)] for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BranchConfiguration":
        """Inverse of ``to_json_dict``; ValueError on anything it cannot write.

        The counts must be ints and every phi_matrix entry the int 0 or 1
        (bools refused, as JSON true/false are not entries), in rows of
        exactly n_components entries.
        """
        counts = {key: data[key] for key in ("n_components", "ambient_rank")}
        counts["pic_two_rank"] = data.get("pic_two_rank", 0)
        for key, value in counts.items():
            if type(value) is not int:
                raise ValueError(f"{key} must be an integer, not {value!r}")
        matrix = data["phi_matrix"]
        if any(type(v) is not int or v not in (0, 1) for row in matrix for v in row):
            raise ValueError("phi_matrix entries must be 0 or 1")
        return cls(rows=_pack_rows(matrix, counts["n_components"]), **counts)


def kernel_basis(config: BranchConfiguration) -> list[int]:
    """Echelon basis of the kernel of the component-class map.

    Deterministic: rows are reduced with ascending pivot columns, and the
    basis vectors come out in ascending free-column order.
    """
    pivots: dict[int, int] = {}  # pivot column -> reduced row
    for row in config.rows:
        for col in sorted(pivots):
            if row >> col & 1:
                row ^= pivots[col]
        if row:
            col = (row & -row).bit_length() - 1
            for c, existing in list(pivots.items()):
                if existing >> col & 1:
                    pivots[c] = existing ^ row
            pivots[col] = row
    basis = []
    for free in range(config.n_components):
        if free in pivots:
            continue
        v = 1 << free
        for col, row in pivots.items():
            if row >> free & 1:
                v |= 1 << col
        basis.append(v)
    return basis


def kernel_mod_e(config: BranchConfiguration) -> list[int]:
    """Coset representatives of a basis of (Ker phi) / <all-ones>.

    Requires the branch divisor to be even (all-ones in the kernel);
    rejects the input otherwise, since no double cover exists then.
    Each representative is canonicalized to the smaller of v and
    v xor e, and the list is sorted.
    """
    e = config.e_mask
    if config.apply(e) != 0:
        raise BranchNotEvenError("branch divisor is not 2-divisible; the total branch class must vanish mod 2")
    basis = kernel_basis(config)
    # kernel vectors expand over the echelon basis by their free-column
    # bits, and e is all ones, so e is exactly the sum of the whole basis;
    # dropping any single vector leaves a complement of <e>
    acc = 0
    for v in basis:
        acc ^= v
    if acc != e:
        raise ArithmeticError("all-ones vector is not the basis sum (bug)")
    return sorted(min(v, v ^ e) for v in basis[1:])


def two_torsion_rank(config: BranchConfiguration) -> int:
    """pic_two_rank plus the quotient kernel dimension (split extension)."""
    return config.pic_two_rank + len(kernel_mod_e(config))


@dataclass(frozen=True)
class LiftDescription:
    """A 2-torsion class upstairs, presented from a kernel subset I.

    The defining relation is sum(E_i, i in I) = 2L downstairs; the class
    upstairs is sum(F_i, i in I) - pullback(L), where F_i is the reduced
    preimage of E_i. Presentations for I and its complement describe the
    same class, so equivalence is subset equality modulo the all-ones
    vector.
    """

    n_components: int
    subset: int
    half_class: str
    expression: str

    def equivalent_to(self, other: "LiftDescription") -> bool:
        if self.n_components != other.n_components:
            return False
        e = (1 << self.n_components) - 1
        return (self.subset ^ other.subset) in (0, e)


def lift_element(config: BranchConfiguration, subset: int, half_class_label: str = "L") -> LiftDescription:
    if not 0 <= subset <= config.e_mask:
        raise ValueError("subset mask out of range")
    if config.apply(subset) != 0:
        raise ValueError("subset is not in the kernel; its component sum is not 2-divisible")
    if subset == 0:
        return LiftDescription(config.n_components, 0, "0", "0 (trivial class)")
    terms = " + ".join(f"F_{config.name(i)}" for i in range(config.n_components) if subset >> i & 1)
    return LiftDescription(
        config.n_components,
        subset,
        half_class_label,
        f"{terms} - pi*({half_class_label})",
    )


@dataclass(frozen=True)
class DivisorVector:
    """Integer divisor class in a declared free basis of the ambient
    Picard group; 2-divisibility is coordinate parity."""

    labels: tuple[str, ...]
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.coords):
            raise ValueError("label/coordinate length mismatch")

    def __add__(self, other: "DivisorVector") -> "DivisorVector":
        if self.labels != other.labels:
            raise ValueError("cannot add vectors over different bases")
        return DivisorVector(self.labels, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def mod2_mask(self) -> int:
        return sum(1 << i for i, v in enumerate(self.coords) if v % 2)

    def __str__(self) -> str:
        parts = []
        for label, v in zip(self.labels, self.coords):
            if v == 0:
                continue
            parts.append(f"{'+' if v > 0 and parts else ''}{v}*{label}")
        return " ".join(parts) if parts else "0"


def is_two_divisible(v: DivisorVector) -> tuple[bool, DivisorVector | None]:
    """Whether every coordinate is even; returns the half vector if so."""
    if any(c % 2 for c in v.coords):
        return False, None
    return True, DivisorVector(v.labels, tuple(c // 2 for c in v.coords))


def _unit(labels, name) -> DivisorVector:
    return DivisorVector(labels, tuple(1 if lbl == name else 0 for lbl in labels))


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

_PLANE_LABELS = ("bL", "F") + tuple(f"Et{i}" for i in range(1, 6)) + tuple(f"Ep{i}" for i in range(1, 6))
# Basis of Pic(S) for the blown-up plane shared by the Campedelli and
# Werner datasets: bL = pullback of a line, F = exceptional curve over the
# quadruple point q, Et_i = strict transform of the first exceptional
# curve over the triple point p_i, Ep_i = exceptional curve of the second
# blow-up there. A plane curve of degree n with multiplicity m at p_i and
# m' at the infinitely near point contributes n*bL - m*Et_i - (m+m')*Ep_i.


@dataclass(frozen=True)
class CampedelliData:
    """The classical Campedelli double plane: branch curve of degree 10
    with one ordinary quadruple point and five triple points of type
    (3,3), blown up until the branch divisor is smooth.

    ``c_tilde`` is the strict transform of the degree-10 curve;
    ``branch`` is c_tilde plus the five (-2)-curves Et_i, which is the
    actual branch divisor and must be 2-divisible for the double cover to
    exist.
    """

    basis: tuple[str, ...]
    c_tilde: DivisorVector
    branch: DivisorVector
    config: BranchConfiguration


def dataset_campedelli() -> CampedelliData:
    labels = _PLANE_LABELS
    c_tilde = DivisorVector(labels, (10, -4) + (-3,) * 5 + (-6,) * 5)
    branch = c_tilde
    for i in range(1, 6):
        branch = branch + _unit(labels, f"Et{i}")
    columns = [c_tilde.mod2_mask()] + [_unit(labels, f"Et{i}").mod2_mask() for i in range(1, 6)]
    config = BranchConfiguration.from_columns(
        columns,
        ambient_rank=len(labels),
        component_names=("Ct",) + tuple(f"Et{i}" for i in range(1, 6)),
    )
    return CampedelliData(labels, c_tilde, branch, config)


@dataclass(frozen=True)
class WernerData:
    """Werner's realization of the Campedelli branch curve as a degree-8
    curve B plus a conic Q: q and p5 lie on B only; p1..p4 lie on Q and
    are tacnodes of B with matching tangents, so B has multiplicity (2,2)
    and Q multiplicity (1,1) at each of p1..p4.

    The strict transforms satisfy b_tilde + q_tilde = c_tilde of the
    Campedelli dataset. The block q_tilde + Et_1 + ... + Et_4 is
    2-divisible on its own, which is what makes the cover's 2-torsion
    nonzero.
    """

    basis: tuple[str, ...]
    b_tilde: DivisorVector
    q_tilde: DivisorVector
    even_block: DivisorVector
    config: BranchConfiguration


def dataset_werner() -> WernerData:
    labels = _PLANE_LABELS
    b_tilde = DivisorVector(labels, (8, -4) + (-2, -2, -2, -2, -3) + (-4, -4, -4, -4, -6))
    q_tilde = DivisorVector(labels, (2, 0) + (-1, -1, -1, -1, 0) + (-2, -2, -2, -2, 0))
    even_block = q_tilde
    for i in range(1, 5):
        even_block = even_block + _unit(labels, f"Et{i}")
    columns = [b_tilde.mod2_mask(), q_tilde.mod2_mask()] + [
        _unit(labels, f"Et{i}").mod2_mask() for i in range(1, 6)
    ]
    config = BranchConfiguration.from_columns(
        columns,
        ambient_rank=len(labels),
        component_names=("Bt", "Qt") + tuple(f"Et{i}" for i in range(1, 6)),
    )
    return WernerData(labels, b_tilde, q_tilde, even_block, config)


@dataclass(frozen=True)
class HyperellipticData:
    """Double cover of the projective line branched at 2g+2 points; every
    point class is the generator of Pic(P1) mod 2, so the kernel is the
    even-size subsets and the quotient rank is 2g."""

    genus: int
    config: BranchConfiguration


def dataset_hyperelliptic(g: int) -> HyperellipticData:
    if g < 1:
        raise ValueError("genus must be at least 1")
    n = 2 * g + 2
    config = BranchConfiguration.from_columns(
        [1] * n,
        ambient_rank=1,
        component_names=tuple(f"p{i}" for i in range(1, n + 1)),
    )
    return HyperellipticData(g, config)


def arithmetic_configuration(r: int) -> BranchConfiguration:
    """The number-field instance: r ramified primes over a base with
    trivial (narrow) Picard group, so the class map is zero and the
    quotient kernel has rank r - 1."""
    if r < 1:
        raise ValueError("need at least one ramified prime")
    return BranchConfiguration(
        n_components=r,
        ambient_rank=0,
        rows=(),
        component_names=tuple(f"p{i}" for i in range(1, r + 1)),
    )
