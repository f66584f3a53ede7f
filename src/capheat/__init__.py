"""Heat kernel coefficients for Dirichlet Laplacians on spherical
suspensions (Riemann caps), assembled from base-manifold data and verified
against an independent Legendre-function eigenvalue oracle.

Each public name loads its submodule on first access (PEP 562), so
``import capheat`` loads none of them and a command pays only for the
modules it uses.
"""

from importlib import import_module

# the public names, by the submodule that defines each
_SUBMODULE_NAMES = {
    "exact_series": ("bernoulli", "sinh_ratio_coefficients"),
    "heat_coeffs": (
        "BaseDescriptor", "CoefficientTable", "SphereBase", "SuspensionConfig",
        "UserBase", "assemble_script_A", "compute_table", "log_coefficient",
        "mass_shift", "shift_to_pure_laplacian", "sphere_heat_coefficient",
        "table_to_dict",
    ),
    "legendre_asymptotics": (
        "NuGPolynomial", "StructuredOmega", "chi", "extract_structure", "omega",
    ),
    "special_eval": ("AngleParams", "c1", "f_total", "gauss_2f1"),
    "spectral_oracle": (
        "EigenvalueChannel", "HeatTraceSample", "degeneracy", "dirichlet_roots",
        "ferrers_p", "fit_asymptotics", "heat_trace", "spectrum",
    ),
}
_EXPORTS = {
    name: module for module, names in _SUBMODULE_NAMES.items() for name in names
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
