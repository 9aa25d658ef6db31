"""Exact and numerical tools for graph hypersurfaces near an umbilical point:
curvature expansions, obstruction identities, inversion charts, decay
estimates, and asymptotically flat mass integrals."""

__version__ = "0.1.0"

from .polyjet import (  # noqa: F401
    Jet,
    MultiPoly,
    SphericalSeries,
    extract_radial_factors,
    poly_divexact,
    poly_from_json,
    poly_to_json,
)
from .asymptotic import (  # noqa: F401
    Chart,
    ChartDomainError,
    ChartRequirementError,
    DecayFit,
    chart_for,
    decay_order_estimate,
    ghat_deviation_batch,
    ghat_radial_trace_series,
)
from .conformal import (  # noqa: F401
    IntegrabilityProbe,
    LeadingOrder,
    classify_integrability,
    conformal_scalar,
    curvature_density_factor,
    integrability_probe,
    leading_order,
    leading_order_of_R,
)
from .mass import (  # noqa: F401
    MassCancellationReport,
    MassEstimate,
    MassExtrapolation,
    SchwarzschildField,
    adm_mass_lee_parker,
    adm_mass_standard,
    extrapolate_mass,
    mass_sweep,
    symbolic_mass_cancellation,
)
from .obstruction import (  # noqa: F401
    NotUmbilical,
    ObstructionReport,
    c_theta,
    dim6_check,
    expansion_coefficients,
    integrated_identity,
    script_R_series,
    umbilical_decompose,
)
from .quadrature import QuadratureRule, default_degree, sphere_area  # noqa: F401
from .surface import (  # noqa: F401
    GraphSurface,
    JetGeometry,
    PointGeometry,
    RhoIdentityResiduals,
    jet_geometry,
    point_geometry,
    verify_rho_identities,
)
