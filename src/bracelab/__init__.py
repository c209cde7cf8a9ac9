"""bracelab: finite skew braces and set-theoretic Yang-Baxter solutions."""

from .brace import (
    BraceFlags,
    SkewBrace,
    brace_from_tables,
    classify_flags,
    from_group_almost_trivial,
    from_group_trivial,
    from_zn_quadratic,
    isomorphic,
    lambda_orbits,
    verify_skew_brace,
)
from .campaigns import CampaignReport, run_suite
from .enumeration import (
    Catalog,
    enumerate_involutive_solutions,
    enumerate_skew_braces,
    groups_of_order,
    sample_involutive_solutions,
)
from .groups import GroupTable, automorphism_group, isomorphic_groups, verify_group
# The function series is not re-exported: bracelab.series stays the module.
from .series import SeriesReport, gamma_distributivity_check, nilpotency_report
from .subsets import Subset
from .substructures import (
    generates,
    idealizer,
    is_ideal,
    maximal_ideals,
    maximal_subbraces,
    radical,
    star_sets,
    subbrace_closure,
    subbrace_lattice,
)
from .ybe import (
    Solution,
    equivalence_check,
    involutive_from_sigma,
    multipermutation_level,
    permutation_brace,
    retract,
    verify_solution,
)

__version__ = "0.1.0"
