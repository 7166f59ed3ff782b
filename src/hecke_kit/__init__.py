"""Exact computation in two-parameter Hecke algebras of finite Coxeter groups.

The package builds finite Coxeter systems, multiplies in the corresponding
Hecke algebra over Z[a, b], manipulates modules through induction,
restriction, outer products, and twisting along (anti)automorphisms, and
verifies the resulting decomposition and compatibility identities with exact
rational arithmetic.  The `hecke-kit` console script exposes the same checks
from the command line.
"""

from .scalars import (
    BiPoly,
    DEFAULT_PARAM_BATTERY,
    ParamSpec,
    random_param,
    y_seq,
)
from .linalg import RatMat, intertwiner_rows, kernel_basis
from .coxeter import (
    CoxeterMatrix,
    CoxeterSystem,
    DEFAULT_GROUP_CAP,
    GroupTooLarge,
    NotDoubleCosetMinimal,
    default_cap,
    elem_of_line,
    get_system,
    interleaving_rep_line,
    is_type_a,
    one_line,
    symmetric_group_system,
    type_a_transversal_lines,
)
from .hecke import (
    BasisMismatch,
    HeckeElement,
    MorphismSpec,
    SupportOutsideDomain,
    apply_morphism,
    c_w_morphism,
    check_conjugation_commutation,
    check_theta_braid,
    chi,
    omega,
    omega_hat,
    phi,
    phi_hat,
    theta,
    theta_hat,
    verify_algebra,
)
from .report import CheckResult, TOOL_NAME, TOOL_VERSION, VerificationReport
from .repmod import (
    ElementOutsideParabolic,
    HeckeModule,
    InducedInfo,
    InvalidScalar,
    ModuleMap,
    NonCommutingSubsets,
    NotSubset,
    ParamMismatch,
    act_elem,
    act_letters,
    act_word,
    boxtimes,
    companion,
    direct_sum,
    embed,
    hom_space,
    induce,
    iso_test,
    iso_test_detail,
    module_from_json_obj,
    module_to_json_obj,
    outer_tensor,
    random_conjugate,
    regular,
    restrict,
    scalar,
    scalar_roots,
    twist_along,
    validate,
)
from .mackey import (
    MackeyInstance,
    TauBlock,
    build_sides,
    build_transfer_maps,
    verify,
    verify_tensor_decomposition,
)
from .twists import (
    Pairing,
    build_pairing,
    gamma_prime,
    gamma_prime_line,
    kron_swap,
    thm44_part1_map,
    thm44_part2_map,
    thm44_part3_map,
    thm48_part1_map,
    transport_induction_twist,
    verify_pairing_equivariance,
    verify_thm44,
    verify_thm48,
)
from .battery import run_suite

__version__ = TOOL_VERSION

__all__ = [
    "__version__",
    # scalars
    "BiPoly", "ParamSpec", "DEFAULT_PARAM_BATTERY", "random_param", "y_seq",
    # linear algebra
    "RatMat", "kernel_basis", "intertwiner_rows",
    # Coxeter systems
    "CoxeterMatrix", "CoxeterSystem", "GroupTooLarge", "NotDoubleCosetMinimal",
    "get_system", "symmetric_group_system", "default_cap", "DEFAULT_GROUP_CAP",
    "is_type_a", "one_line", "elem_of_line", "type_a_transversal_lines",
    "interleaving_rep_line",
    # Hecke algebra
    "BasisMismatch", "SupportOutsideDomain", "HeckeElement", "MorphismSpec",
    "apply_morphism", "phi", "theta", "chi", "omega", "phi_hat", "theta_hat",
    "omega_hat", "c_w_morphism", "check_theta_braid",
    "check_conjugation_commutation", "verify_algebra",
    # reports
    "TOOL_NAME", "TOOL_VERSION", "CheckResult", "VerificationReport",
    # modules and functors
    "ElementOutsideParabolic", "NotSubset", "NonCommutingSubsets",
    "ParamMismatch", "InvalidScalar", "InducedInfo", "HeckeModule", "ModuleMap",
    "validate", "act_word", "act_letters", "act_elem", "restrict", "induce",
    "outer_tensor", "embed", "boxtimes", "twist_along", "direct_sum", "regular",
    "scalar", "scalar_roots", "companion", "random_conjugate", "hom_space",
    "iso_test", "iso_test_detail", "module_to_json_obj", "module_from_json_obj",
    # coset decompositions
    "TauBlock", "MackeyInstance", "build_sides", "build_transfer_maps",
    "verify", "verify_tensor_decomposition",
    # twists
    "kron_swap", "transport_induction_twist", "thm44_part1_map",
    "thm44_part2_map", "thm44_part3_map", "verify_thm44", "gamma_prime_line",
    "gamma_prime", "Pairing", "build_pairing", "verify_pairing_equivariance",
    "thm48_part1_map", "verify_thm48",
    # battery
    "run_suite",
]
