"""folharm: transversal tension fields, energy and heat flow for foliated maps
between model foliated Riemannian manifolds, with identity-verification
oracles.

The public names below, and the submodules that hold them, load on first
access (PEP 562), so ``import folharm.cli`` leaves numpy unloaded until the
CLI has applied its thread caps.
"""

from importlib import import_module as _import_module

from .errors import (
    CompositionError,
    ConfigurationError,
    DomainError,
    FlowDivergedError,
    FolharmError,
    InvalidMapError,
    PreconditionError,
    StepTooLargeError,
    UnsupportedDomainError,
)

__version__ = "0.1.0"

_EXPORTS = {
    "foliation": ("FoliatedStructure", "named_profile"),
    "geometry": ("FlatTorus", "HyperbolicPatch", "RoundSphere",
                 "TransverseGeometry", "build_geometry"),
    "grid": ("GridChart", "build_grid", "check_divergence_theorem",
             "delta_B_scalar", "div_nabla", "grad_B", "integrate", "kappa_on_grid"),
    "maps": ("AnalyticMap", "FoliatedMapField", "compose", "dT_norm_squared",
             "d_T", "delta_nabla_dT", "energy_density",
             "second_form_norm_squared", "second_fund_form", "tension",
             "tension_sup_norm"),
    "flow": ("FlowConfig", "FlowTrace", "RigidityDiagnostics",
             "RigidityTolerances", "Verdict", "cfl_step", "flow_step",
             "rigidity_diagnostics", "run_flow", "transversal_energy"),
    "verify": ("IdentityResidualReport", "VariationSpec", "bochner_parts",
               "bochner_term", "check_first_variation", "check_lemma_volume",
               "composition_residuals", "refinement_report",
               "weitzenbock_residual", "weitzenbock_terms"),
    "families": ("make_family", "variation_field"),
    "serialize": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    if name in _EXPORTS:                # a submodule
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
