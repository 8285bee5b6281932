"""Random-finite-set SLAM: PMB/PMBM filters with joint EK updates.

The package maps one module per concern: channel geometry, RFS densities,
data association, the receiver motion model, the filter core, the PMB
reduction, multi-model type logic, the scenario simulator, evaluation
metrics, and the batch CLI.
"""

from .density import (
    Bernoulli,
    GaussianComponent,
    GlobalHypothesis,
    LandmarkBelief,
    PmbmDensity,
    TypeComponent,
)
from .geometry import ChannelModel, Landmark, LandmarkType, Measurement, UEState
from .metrics import GospaParams, extract_map, gospa
from .sim import Scenario, default_scenario, generate_measurements, simulate_trajectory
from .update import EK_PMB, EK_PMBM, FilterConfig, predict_step, step, update_step

__all__ = [
    "Bernoulli",
    "ChannelModel",
    "EK_PMB",
    "EK_PMBM",
    "FilterConfig",
    "GaussianComponent",
    "GlobalHypothesis",
    "GospaParams",
    "Landmark",
    "LandmarkBelief",
    "LandmarkType",
    "Measurement",
    "PmbmDensity",
    "Scenario",
    "TypeComponent",
    "UEState",
    "default_scenario",
    "extract_map",
    "generate_measurements",
    "gospa",
    "predict_step",
    "simulate_trajectory",
    "step",
    "update_step",
]

__version__ = "0.1.0"
