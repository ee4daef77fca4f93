"""Modular Hadamard matrices: verification, construction, decision, search.

An n x n matrix of +-1 entries is m-modular Hadamard when every pair of
distinct rows has inner product divisible by m (modulus 0 means exact
orthogonality).  The package verifies such matrices and their companion
designs, plans and materializes constructions, decides existence, and
cross-checks everything with an independent exhaustive search.
"""

from .constructions import (
    CapExceeded,
    Family10Params,
    Family11Params,
    MaterializeError,
    Recipe,
    catalog_design,
    catalog_names,
    check_constraints_1_to_4,
    double,
    family10_params,
    family11_params,
    find_difference_set,
    iterate,
    kron,
    materialize,
    materialize_design,
    paley_design,
    paley_hadamard,
    plan,
    recipe_design_params,
    recipe_from_json,
    recipe_to_json,
    seed_all_ones,
    seed_catalog,
    seed_j_minus_2i,
    seed_paley,
    seed_paley_design,
    seed_param_design,
    seed_two_circulant,
    two_circulant,
)
from .existence import (
    NotApplicable,
    SmallCaseReport,
    Verdict,
    check_gcd_bound,
    decide,
    gate_walk,
    small_case_test,
    small_even_reduction,
    special_case_2m_plus_1,
    threshold_note,
    verdict_to_json,
)
from .matrices import (
    DesignParams,
    GramReport,
    IncidenceMatrix,
    SignMatrix,
    all_ones,
    core_to_design,
    design_to_mh,
    det_squared_mod,
    direct_sum,
    dsum_check,
    format_matrix_text,
    is_normalized,
    j_minus_2i,
    kronecker,
    mh_modulus_of_exact_design,
    normalize,
    parse_matrix_text,
    residue,
    verify_design,
    verify_mh,
)
from .numtheory import (
    Condition1Error,
    Condition1Witness,
    PrimePower,
    NotCoprime,
    NotInvertible,
    condition1_search,
    condition1_verify,
    euler_phi,
    factorize,
    half_pow_coeff,
    is_perfect_square,
    is_prime,
    is_prime_power,
    is_primitive_root,
    is_quadratic_residue,
    mod_inverse,
    repunit,
)
from .search import LimitExceeded, SearchOutcome, SearchProblem, candidate_rows, run

__version__ = "0.1.0"
