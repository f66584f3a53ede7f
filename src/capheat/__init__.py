"""Heat kernel coefficients for Dirichlet Laplacians on spherical
suspensions (Riemann caps), assembled from base-manifold data and verified
against an independent Legendre-function eigenvalue oracle.

Each public name loads its submodule on first access (PEP 562), so
``import capheat`` loads none of them and a command pays only for the
modules it uses.
"""

from importlib import import_module

# The public API, by the submodule that defines each name: the README's
# names, declared here alone.  Other helpers stay importable from their modules.
_SUBMODULE_NAMES = {
    "heat_coeffs": (
        "CoefficientTable", "SphereBase", "SuspensionConfig", "UserBase",
        "compute_table", "log_coefficient", "table_to_dict",
    ),
    "legendre_asymptotics": ("omega",),
    "special_eval": ("AngleParams", "c1", "gauss_2f1"),
    "spectral_oracle": (
        "EigenvalueChannel", "dirichlet_roots", "ferrers_p", "fit_asymptotics",
        "heat_trace", "spectrum",
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
