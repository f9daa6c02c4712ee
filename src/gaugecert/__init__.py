"""gaugecert: exact-arithmetic obstruction certificates for Seifert fibered
spaces and surgery families.

The package computes, with no floating point anywhere on the reported
path, the number-theoretic data entering instanton obstructions to
bounding positive definite 4-manifolds: rho invariants of lens spaces,
index formulas for reducible bundles, Chern-Simons denominator bounds,
definite lattice enumerations, and the assembled machine-checkable
certificates for definite-bounding obstructions and for linear
independence of surgery families in the Z/2 homology cobordism group.
"""

from .cstau import denominator_bound, lens_bound, seifert_bound
from .errors import (
    BadParameters,
    ClosedFormMismatch,
    Degenerate,
    GaugeCertError,
    HypothesisFailed,
    InternalCheckError,
    NoSolution,
    NotDefinite,
    NotHomologySphere,
    SingularPivot,
)
from .exactnum import (
    CycloElement,
    HJExpansion,
    cot_cot_sin2_sum,
    cyclotomic_poly,
    hj_expand,
)
from .index import (
    ind_plus_seifert_qhs,
    k_coefficients,
    r_invariant,
)
from .knots import (
    KNOT_CATALOG,
    LaurentPoly,
    SeifertMatrix,
    alexander_from_seifert,
    lt_signature,
    nondegenerate_at,
)
from .lattice import (
    CeProblem,
    GramForm,
    Restriction,
    detect_orthogonal_split,
    enumerate_C_e,
    enumerate_C_e_bruteforce,
    gram_determinant,
    is_negative_definite,
    plumbing_gram,
    sfqhs_reducible_count,
)
from .lens import LensSpace, nz_closed_form, rho_lens
from .obstruct import (
    ObstructionReport,
    Strand,
    check_fintushel_stern,
    check_sfqhs_family,
    check_surgery_config,
    read_ce_problem,
    render_text,
    report_to_json_dict,
    rho_transfer_surgery,
    run_problem,
)
from .seifert import (
    SeifertData,
    check_h1_z2,
    d_invariant,
    meridian_holonomy,
    torus_knot_surgery,
)

__version__ = "0.1.0"
