"""Heat-kernel and zeta regularised determinants for explicit spectra.

Public surface: spectrum constructors and traces (spectra), small-time
expansions (heat_expansion), cutoff/regularised determinants (regdet), the
spectral zeta function and determinant bridge (zeta), the coadjoint-orbit
model (orbit), and scalar special functions (special).
"""

from .errors import (
    DomainError,
    FitConditionError,
    NumericError,
    PoleError,
    UnsupportedSpectrumError,
)
from .special import (
    EULER_GAMMA,
    euler_gamma_integral,
    euler_gamma_series,
    exp_integral_e1,
    gamma_fn,
    hurwitz_zeta,
    hurwitz_zeta_prime0,
)
from .spectra import (
    ExplicitFamily,
    LatticeFamily,
    Spectrum,
    compose,
    deform,
    finite_spectrum,
    heat_trace,
    heat_trace_theta,
    lattice_family,
    scale_spectrum,
    spectrum_from_dict,
    spectrum_to_dict,
)
from .heat_expansion import (
    HeatExpansion,
    analytic_expansion,
    expansion_value,
    finite_expansion,
    fit_expansion,
    remainder,
    remainder_fn,
    verify_remainder_bound,
)
from .regdet import (
    RegDetReport,
    build_report,
    counterterms,
    log_det_eps,
    log_det_reg,
    report_to_dict,
)
from .zeta import (
    BridgeReport,
    ZetaEvaluation,
    bridge_to_dict,
    verify_bridge,
    zeta_closed_form,
    zeta_direct,
    zeta_prime0,
    zeta_value,
)
from .orbit import (
    CurvatureReport,
    LoopGroupOrbitSpec,
    curvature_to_dict,
    gateaux_fd,
    minimality_report,
    orbit_from_dict,
    orbit_spectrum,
    orbit_to_dict,
    trace_shape_eps,
    vol_eps,
    vol_reg,
    vol_zeta,
)

__version__ = "0.1.0"
