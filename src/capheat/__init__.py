"""Heat kernel coefficients for Dirichlet Laplacians on spherical
suspensions (Riemann caps), assembled from base-manifold data and verified
against an independent Legendre-function eigenvalue oracle."""

from .exact_series import bernoulli, sinh_ratio_coefficients
from .heat_coeffs import (
    BaseDescriptor,
    CoefficientTable,
    SphereBase,
    SuspensionConfig,
    UserBase,
    assemble_script_A,
    compute_table,
    log_coefficient,
    mass_shift,
    shift_to_pure_laplacian,
    table_to_dict,
)
from .legendre_asymptotics import (
    NuGPolynomial,
    StructuredOmega,
    chi,
    extract_structure,
    omega,
)
from .special_eval import (
    AngleParams,
    c1,
    f_total,
    gauss_2f1,
)
from .spectral_oracle import (
    EigenvalueChannel,
    HeatTraceSample,
    dirichlet_roots,
    ferrers_p,
    fit_asymptotics,
    heat_trace,
    spectrum,
)
from .sphere_base import (
    degeneracy,
    sphere_heat_coefficient,
)

__version__ = "0.1.0"
