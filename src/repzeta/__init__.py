"""Representation zeta toolkit.

Exact and empirical machinery for representation growth: Weyl-dimension
censuses of simple complex groups, exact SL2 local factors over compact
discrete valuation rings, brute-force conjugacy censuses of finite
congruence quotients, rational abscissa bounds with a global audit, the
symmetric/alternating degree combinatorics, and partial global Euler
products.
"""

__version__ = "0.1.0"

from .bounds import (
    isotropic_abscissa_audit,
    isotropic_case_bound,
    slm_class_growth_bound,
    unified_isotropic_bound,
)
from .census import DegreeCensus
from .errors import BudgetExceededError
from .euler import (
    EulerProductConfig,
    divergence_probe,
    global_partial_product,
    sandwich_check,
)
from .finitequotients import (
    QuotientRing,
    build_sl2_group,
    class_growth_exponents,
    conjugacy_classes,
    predicted_order,
)
from .rootsystems import (
    RootSystem,
    build_root_system,
    coroot_values,
    coxeter_number,
    log_dim_gap,
    threshold_subsystem_chain,
    weyl_dim,
    witten_abscissa,
)
from .sl2local import (
    sl1_division_abscissa,
    sl2_class_count,
    sl2_degree_census,
    sl2_group_order,
    sl2_local_zeta,
)
from .symalt import (
    alt_degree_census,
    alt_zeta,
    alt_zeta_exact,
    hook_degree,
    index_two_count_inequality,
    partitions,
    perfect_group_count_bound,
    sym_alt_count_inequality,
    sym_degree_census,
    wreath_tower_conditions,
)
from .witten import abscissa_estimate, dimension_census, zeta_partial

__all__ = [
    "BudgetExceededError",
    "DegreeCensus",
    "EulerProductConfig",
    "QuotientRing",
    "RootSystem",
    "__version__",
    "abscissa_estimate",
    "alt_degree_census",
    "alt_zeta",
    "alt_zeta_exact",
    "build_root_system",
    "build_sl2_group",
    "class_growth_exponents",
    "conjugacy_classes",
    "coroot_values",
    "coxeter_number",
    "dimension_census",
    "divergence_probe",
    "global_partial_product",
    "hook_degree",
    "index_two_count_inequality",
    "isotropic_abscissa_audit",
    "isotropic_case_bound",
    "log_dim_gap",
    "partitions",
    "perfect_group_count_bound",
    "predicted_order",
    "sandwich_check",
    "sl1_division_abscissa",
    "sl2_class_count",
    "sl2_degree_census",
    "sl2_group_order",
    "sl2_local_zeta",
    "slm_class_growth_bound",
    "sym_alt_count_inequality",
    "sym_degree_census",
    "threshold_subsystem_chain",
    "unified_isotropic_bound",
    "weyl_dim",
    "witten_abscissa",
    "wreath_tower_conditions",
    "zeta_partial",
]
