"""Dissipative stabilization of entangled atomic pairs in a 1D array
coupled to a broadband squeezed vacuum: master-equation dynamics,
analytic dark-state constructors, observables, and sweep tooling.

Public names load their module on first access (PEP 562), so importing
the package loads no numpy and `cli` can set the OpenBLAS environment
before anything does."""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys((
        "ArrayGeometry", "BathParams", "ModelOperators", "build_model",
        "field_two_point", "hamiltonian_scatt", "jump_quadrature", "jump_travelling",
        "make_bath", "make_geometry", "squeezed_jumps", "standing_ops"), "model"),
    **dict.fromkeys((
        "EvolveConfig", "IntegrationInstabilityError", "SteadyStateResult", "TimeSeries",
        "evolve", "lindblad_rhs", "liouvillian_matrix", "steady_state"), "dynamics"),
    **dict.fromkeys((
        "PolarizationMoments", "dark_condition", "excitation_populations", "fidelity",
        "pair_correlations", "polarization_moments", "purity"), "observables"),
    **dict.fromkeys((
        "PairSpec", "collective_amplitudes", "collective_dark_state", "dark_state",
        "dimer_chain", "melted_dark", "pair_state", "predicted_populations",
        "sph_harm_equator", "stability_residual", "stable_dark_geometry"), "darkstates"),
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
