"""Exact construction and verification of clique bitrades in
distance-regular graphs: graph families, Delsarte clique systems,
eigenfunction and weight-distribution machinery, and minimum-bitrade
constructors, all in exact arithmetic."""

from .errors import (
    CliquesNotDelsarte,
    CrossCheckViolation,
    DegenerateEmpty,
    Disconnected,
    EnumerationTooLarge,
    InvalidParameters,
    NonIntegerSpectrum,
    NotAnEigenvalue,
    NotDistanceRegular,
    UnsupportedFieldOrder,
    ZeroFunction,
)
from .gfq import (
    FieldSpec,
    gaussian_binomial,
    isotropic_count_product,
    isotropic_count_sum,
    make_field,
)
from .graphs import (
    CliqueSystem,
    Graph,
    IntersectionArray,
    Verdict,
    completely_regular_check,
    distance_regularity_check,
    graph_to_json,
    induced_subgraph,
    is_bipartite,
    is_isometric_subgraph,
    is_regular,
    verify_clique_system,
)
from .spectral import (
    VertexFunction,
    intersection_matrix_eigenvalues,
    standard_eigenvector,
    theta_min,
    verify_eigenfunction,
    wd_bound,
    wd_coefficients,
)
from .families import (
    FAMILIES,
    build_doob,
    build_dual_polar_D,
    build_family,
    build_grassmann,
    build_halved_cube,
    build_hamming,
    build_johnson,
    build_octahedron,
    build_shrikhande,
    family_array,
    parse_family,
)
from .bitrades import (
    Bitrade,
    VerificationReport,
    bitrade_from_json,
    bitrade_to_json,
    check_clique_design,
    check_criterion_a,
    check_criterion_b,
    check_criterion_c,
    check_minimality,
    check_subgraph_dr,
    corrupt_one_vertex,
    design_difference,
    min_bitrade_grassmann,
    min_bitrade_halved_cube,
    min_bitrade_hamming,
    min_bitrade_johnson,
    min_bitrade_octahedron,
    pseudo_bitrade_doob,
    verify_bitrade,
    verify_delsarte_pair,
    verify_pseudo_bitrade,
)

__all__ = [name for name in dir() if not name.startswith("_")]
