"""Exact sheaf cohomology, degeneracy loci, and twisted 1-forms on P^n.

Everything is computed over exact arithmetic: cohomology tables of
homogeneous bundle expressions through the weight calculus on irreducible
summands, Chern/Todd/Riemann-Roch data in the Chow ring, Eagon-Northcott
vanishing certificates, named hypothesis checkers, and a polynomial lab for
twisted 1-forms and their singular schemes.
"""

from types import ModuleType as _ModuleType

from .bundles import (
    BundleExpr,
    Cotangent,
    DirectSum,
    Dual,
    IrreducibleBundle,
    LineBundle,
    Sym,
    Tangent,
    Tensor,
    Wedge,
    det_bundle,
    direct_sum,
    dual,
    o,
    omega,
    rank,
    split_bundle,
    sym,
    tangent,
    tensor,
    wedge,
)
from .checkers import (
    CHECK_IDS,
    FAIL,
    HOLD,
    TheoremReport,
    check_codim1_generic,
    check_endomorphism_space,
    check_map_recovery,
    check_split_distribution,
    check_split_vanishing,
    endomorphism_space_dim,
)
from .chow import (
    ChowClass,
    PorteousResult,
    chern_character,
    chow_zero,
    hrr_chi,
    hyperplane_power,
    porteous_class,
    todd_class,
    total_chern,
)
from .cohomology import CohomologyTable, cohomology_table
from .complexes import (
    ENCertificate,
    ENResolutionReport,
    en_resolution,
    vanishing_certificate,
)
from .errors import (
    ConsistencyError,
    EulerViolation,
    InputError,
    ParseError,
    PnsheafError,
    ScaleExceeded,
    UnsupportedPlethysm,
)
from .grammar import parse_expression, render_expression, split_ambient
from .linalg import kernel_basis
from .pfaff import (
    SATURATION_NOTE,
    AnnihilatorSlice,
    SectionSpace,
    SingularScheme,
    TwistedOneForm,
    UniquenessReport,
    annihilator_distribution,
    log_form,
    parse_form_file,
    pencil_form,
    random_pencil_form,
    render_form_file,
    singular_scheme,
    uniqueness_report,
    vanishing_section_space,
)
from .polyideal import (
    IdealPresentation,
    Poly,
    buchberger,
    ideal_presentation,
    parse_poly,
    projective_dimension,
    staircase_dimension,
)
from .weights import lr_product, weyl_dim

__version__ = "0.1.0"

__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
