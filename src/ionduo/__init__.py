"""Entanglement dynamics of two three-level trapped ions coupled to one
quantized vibrational mode by a time-modulated laser."""

__version__ = "0.8.0"

from .core import HilbertLayout, PureState
from .dynamics import UnsupportedRegimeError, modulation_integral
from .entanglement import Bipartition
from .experiments import (
    ION_VS_ION,
    ION_VS_REST,
    IncompatibleMeasureError,
    MeasureSeries,
    SuddenEvents,
    coherent_amplitudes,
    detect_sudden_events,
    prepare_initial,
    run_series,
    run_sweep,
    truncated_coherent,
)
from .ionmodel import CutoffError, get_block_system, mode_function
from .params import Constant, Sech, SimParams

__all__ = [
    "__version__",
    "Bipartition",
    "Constant",
    "CutoffError",
    "HilbertLayout",
    "ION_VS_ION",
    "ION_VS_REST",
    "IncompatibleMeasureError",
    "MeasureSeries",
    "PureState",
    "Sech",
    "SimParams",
    "SuddenEvents",
    "UnsupportedRegimeError",
    "coherent_amplitudes",
    "detect_sudden_events",
    "get_block_system",
    "mode_function",
    "modulation_integral",
    "prepare_initial",
    "run_series",
    "run_sweep",
    "truncated_coherent",
]
