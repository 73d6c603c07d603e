"""Resonator-mediated controlled-phase-flip gate simulator.

Pipelines: device parameters -> shaped input pulse -> state-dependent
reflection (analytic, spectral filter, mean-field, or master-equation
backends) -> pulse decomposition -> average gate fidelity.

The public names load on first use (PEP 562), so that importing a
numpy-free module such as `resgate.cli` loads no numpy.
"""

import importlib

# module -> the names it exports here
_EXPORTS = {
    "device": ("DeviceParams", "reference_device"),
    "errors": ("ConfigError", "NumericsError"),
    "gate": ("FidelityPoint", "GateInputs", "gate_fidelity", "input_mean_photon",
             "sweep_coupling_variation", "sweep_photon_number"),
    "pulse": ("Pulse", "TimeGrid", "default_grid", "gaussian_pulse"),
    "scattering": ("ReflectionResult", "joint_state", "reflection_filter", "scatter_all_states",
                   "xi_analytic", "xi_effective"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
