"""Decoy-state QKD link performance model for afterpulsing SPAD receiver arrays.

The public names load their module on first use (PEP 562): ``import
decoylink`` loads no submodule, and ``load_scenario`` loads neither numpy nor
the array engine.
"""
from importlib import import_module

__version__ = "0.1.0"

# Public name -> the module that defines it.
_HOME = {
    **dict.fromkeys((
        "LinkMetrics", "SinglePhotonEstimate", "binary_entropy", "estimate_single_photon",
        "evaluate_link", "skr_approx", "skr_lower_bound",
    ), "bounds"),
    **dict.fromkeys(("Scenario", "load_scenario", "parse_scenario"), "config"),
    **dict.fromkeys((
        "DecoyLinkError", "DegenerateInputError", "EstimationInfeasibleError",
        "ModelDomainError", "NoSolutionError", "ValidationError",
    ), "errors"),
    **dict.fromkeys((
        "Axis", "ChannelModel", "DetectorUnit", "IntensitySet", "ProtocolParams",
        "ReceiverModel", "SweepSpec", "aggregate_afterpulse", "baseline_error_change",
        "effective_baseline_error", "gain_total", "multi_photon_transmittance", "qber_i",
        "qber_total", "transmittance", "visibility", "yield_background", "yield_i",
    ), "model"),
    **dict.fromkeys((
        "ContourPoint", "MaximizeResult", "OptimalMu", "dark_count_threshold",
        "maximize_skr_over_mu", "solve_optimal_mu", "trace_iso_qber_surface",
    ), "optimize"),
    **dict.fromkeys(("NU1_BY_LOSS_DB", "ResultRecord", "run_sweep"), "sweep"),
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
