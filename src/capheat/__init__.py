"""Heat kernel coefficients for Dirichlet Laplacians on spherical
suspensions (Riemann caps), assembled from base-manifold data and verified
against an independent Legendre-function eigenvalue oracle."""

from .exact_series import (
    NuPolynomial,
    bernoulli,
    bessel_d_polynomial,
    sinh_ratio_coefficients,
    u_polynomial,
)
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
    residue_to_coefficient,
    shift_to_pure_laplacian,
    table_to_dict,
)
from .legendre_asymptotics import (
    GammaStructuredFunction,
    StructuredOmega,
    chi,
    extract_structure,
    omega,
    phi,
)
from .special_eval import (
    AngleParams,
    EvalPrecision,
    c1,
    c2,
    c3,
    c4,
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
    sphere_residue,
    suspension_coefficient_direct,
)

__version__ = "0.1.0"
