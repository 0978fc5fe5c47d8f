"""genuskit: exact genus theory for quadratic fields, double-cover
2-torsion from branch data, and weight-restricted binary code searches.

The main entry points:

- ``factorize`` / ``is_prime`` / ``cf_expand``: exact factorization and
  periodic continued fractions.
- ``field_from_d`` / ``fundamental_unit`` / ``has_norm_minus_one``:
  quadratic field descriptors and unit arithmetic.
- ``class_group`` / ``reduce`` / ``compose`` / ``ambiguous_form``: binary
  quadratic forms and the full narrow class group.
- ``verify_gauss`` / ``genus_map`` / ``wide_two_torsion``: the genus map
  onto the 2-torsion, its kernel, and the narrow-to-wide bridge.
- ``kernel_mod_e`` / ``two_torsion_rank`` and the branch datasets: the
  generic double-cover 2-torsion engine.
- ``code_search`` / ``feasible_distributions`` / ``quintic_certificate``:
  the even-node-set code obstruction.
"""

from .bqf import (
    ClassGroup,
    Form,
    ambiguous_form,
    class_group,
    compose,
    is_fundamental,
    principal_form,
    reduce,
    reduction_cycle,
)
from .errors import ResourceLimitError, SearchBudgetExceeded
from .genus import (
    GenusReport,
    WideReport,
    genus_map,
    genus_map_kernel,
    verify_gauss,
    wide_two_torsion,
)
from .intkit import (
    Factorization,
    PeriodicCF,
    cf_expand,
    cf_quotients,
    factorize,
    is_prime,
)
from .keylemma import (
    BranchConfiguration,
    BranchNotEvenError,
    DivisorVector,
    LiftDescription,
    arithmetic_configuration,
    dataset_campedelli,
    dataset_hyperelliptic,
    dataset_werner,
    is_two_divisible,
    kernel_mod_e,
    lift_element,
    two_torsion_rank,
)
from .nodesets import (
    Certificate,
    ChiResult,
    EvenSetParams,
    SearchOutcome,
    WeightCodeProblem,
    WeightDistribution,
    chi_double_cover,
    code_search,
    feasible_distributions,
    macwilliams_dual,
    quintic_certificate,
)
from .quadfield import QuadField, QuadUnit, field_from_d, fundamental_unit, has_norm_minus_one

__version__ = "0.1.0"
