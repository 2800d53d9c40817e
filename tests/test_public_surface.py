"""The names pnsheaf exports: adding or removing one shows up here."""

import pnsheaf

EXPORTS = [
    "AnnihilatorSlice", "BundleExpr", "CHECK_IDS", "ChowClass", "CohomologyTable",
    "ConsistencyError", "Cotangent", "DirectSum", "Dual", "ENCertificate",
    "ENResolutionReport", "EulerViolation", "FAIL", "HOLD", "IdealPresentation", "InputError",
    "IrreducibleBundle", "LineBundle", "ParseError", "PnsheafError", "Poly", "PorteousResult",
    "SATURATION_NOTE", "ScaleExceeded", "SectionSpace", "SingularScheme", "Sym", "Tangent",
    "Tensor", "TheoremReport", "TwistedOneForm", "UniquenessReport", "UnsupportedPlethysm",
    "Wedge", "annihilator_distribution", "buchberger",
    "check_codim1_generic", "check_endomorphism_space", "check_map_recovery",
    "check_split_distribution", "check_split_vanishing", "chern_character",
    "chow_zero", "cohomology_table", "det_bundle",
    "direct_sum", "dual", "en_resolution", "endomorphism_space_dim",
    "hrr_chi", "hyperplane_power",
    "ideal_presentation", "kernel_basis", "log_form", "lr_product",
    "o", "omega", "parse_expression",
    "parse_form_file", "parse_poly", "pencil_form", "porteous_class", "projective_dimension",
    "random_pencil_form", "rank", "render_expression", "render_form_file",
    "singular_scheme",
    "split_ambient", "split_bundle", "staircase_dimension", "sym", "tangent", "tensor",
    "todd_class", "total_chern", "uniqueness_report",
    "vanishing_certificate", "vanishing_section_space", "wedge", "weyl_dim",
]


def test_public_names_are_pinned():
    assert sorted(pnsheaf.__all__) == EXPORTS
