"""octamoment: exact trace moments of X U Y U^t (real Gaussian U) and
X U Y U^* (complex Gaussian U).

The closed monomial expansions are evaluated in exact rational arithmetic
and verified against independent oracles: exhaustive pairing and
partitioned-hypermap enumeration, group-algebra products, the
hypermap <-> permuted-forest bijection, and Monte Carlo sampling.
"""

from .arrays import ArrayTuple, black_sides, enumerate_M, white_sides
from .closedform import (
    DegenerateStratum,
    F_counts,
    F_formula,
    StratumValue,
    alpha,
    coeff_hook,
    coeff_m_lambda_m_n,
    complex_coeff,
    complex_expansion,
    iter_degenerate_pairs,
    iter_degenerate_strata,
    q_compl,
    q_real,
    real_expansion,
    remark_identity_check,
)
from .forests import (
    Forest,
    MalformedForestError,
    enumerate_forests,
    forest_degree,
    forest_from_json,
    forest_to_dot,
    forest_to_json,
    theta_forward,
    theta_inverse,
    validate_forest,
)
from .hypermaps import (
    BoundExceededError,
    L_table,
    Pairing,
    PartitionedHypermap,
    b_from_L,
    c_from_L,
    canonical_f1,
    canonical_f2,
    class_connection_table,
    degree_array,
    double_coset_table,
    half_cycle_type,
    iter_partitioned_hypermaps,
    lp_by_array,
    lp_table,
    oracle_monomial_expansion,
    pairing_power_sum_series,
)
from .moments import (
    MatrixSpec,
    MCEstimate,
    mc_moment_complex,
    mc_moment_real,
    moment_complex_exact,
    moment_real_exact,
)
from .partitions import (
    Partition,
    aut,
    falling,
    multinomial,
    odd_double_factorial,
    partitions_of,
    zee,
)
from .symfun import MonomialExpansion, PowerSumExpansion

__version__ = "0.1.0"
