"""Exact mod-2 characteristic-class checks and numerical witness searches
for parallel and collinear image configurations of continuous maps."""

from .f2ring import (
    Monomial,
    RingElement,
    RingError,
    RingPresentation,
    invert,
    ring_adjoin_x,
    ring_proj_bundle,
    ring_projective,
    ring_truncated,
    ring_y0,
    ring_yhat,
)
from .charclass import (
    BundleClass,
    DimensionParams,
    VerificationReport,
    all_checks,
    alpha_of,
    check_corollary,
    check_prelude,
    check_prop_q,
    check_theorem_a,
    check_theorem_a_v2,
    check_theorem_b,
    euler_line_tensor_quotient,
    expected_outcome,
    hurwitz_comparison,
    hurwitz_radon,
    oracle_umkehr_dual,
    oracle_umkehr_product,
    umkehr_proj_bundle,
    umkehr_px,
    w_minus,
)
from .maps import MapDescriptor, builtin_map, eval_map, map_digest
from .witness import (
    CollinearityAmbiguity,
    Configuration,
    SearchConfig,
    SingularityEstimate,
    WitnessRecord,
    WitnessVerification,
    collinear_residual,
    estimate_singularity_dim,
    find_1d,
    lin_dep_residual,
    parallel_residual,
    search,
    theorem_guarantee,
    verify_witness,
)

__version__ = "0.1.0"
