"""tubespectra: spectral analysis of Dirichlet Laplacians in curved waveguides.

Builds tubes about infinite curves from curvature data, casts their
Dirichlet Laplacian as a Schroedinger-type operator on a straight
reference tube, and verifies its spectral structure numerically:
essential-spectrum threshold, bound states below it, decay hypotheses,
and the projected commutator (Mourre) bound for the free Hamiltonian.
"""

__version__ = "0.1.0"

from .assumptions import (
    AssumptionReport,
    CheckerConfig,
    check_basic,
    check_coefficient_assumptions,
    check_curvature_decay,
    check_metric_hypotheses,
)
from .cross_section import (
    BELOW_LOWEST_THRESHOLD,
    CrossSection,
    ThresholdSet,
    cross_section_spectrum,
    rho_of_lambda,
)
from .errors import (
    ConfigError,
    CoverageError,
    DiagnosticsError,
    EllipticityError,
    InputError,
    IntegrationError,
    ResolutionError,
    SolverError,
    TubeSpectraError,
    WindowError,
)
from .frames import (
    FrameField,
    OverlapResult,
    RotationField,
    TubeCloud,
    build_frame_field,
    check_self_overlap,
    export_mesh,
    integrate_frenet,
    integrate_tang_rotation,
    tube_embedding,
)
from .metric import (
    ConstantCurvatureStripMetric,
    EuclideanTubeMetric,
    SurfaceData,
    SurfaceStripMetric,
    TubeMetric,
    ellipticity_bounds,
    metric_from_frames,
    metric_from_jacobi,
    metric_from_profile,
)
from .operators import (
    CoefficientField,
    DiscreteOperator,
    EffectivePotential,
    TruncatedGrid,
    assemble_free_hamiltonian,
    assemble_hamiltonian,
    assemble_weighted_form_hamiltonian,
)
from .profiles import (
    CurvatureProfile,
    constant_function,
    gaussian_bump,
    power_tail,
    tabulated_function,
)
from .spectral import (
    BoundStatesResult,
    ConvergencePolicy,
    MourreWindow,
    SpectralReport,
    assemble_commutator,
    bound_states,
    lowest_eigenvalues,
    mourre_check_free,
    richardson_extrapolate,
    select_domain_length,
)
