"""Entanglement dynamics of two three-level trapped ions coupled to one
quantized vibrational mode by a time-modulated laser."""

__version__ = "0.6.0"

from .core import (
    DensityMatrix,
    HilbertLayout,
    PureState,
    Spectrum,
    hermitian_spectrum,
)
from .dynamics import (
    UnsupportedRegimeError,
    evolve_pure,
    modulation_integral,
)
from .entanglement import (
    Bipartition,
    i_concurrence_pure,
    negativity,
    relative_entropy_measure,
)
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
from .ionmodel import (
    CutoffError,
    build_block,
    build_full_hamiltonian,
    get_block_system,
    mode_function,
)
from .params import Constant, Sech, SimParams

__all__ = [
    "__version__",
    "Bipartition",
    "Constant",
    "CutoffError",
    "DensityMatrix",
    "HilbertLayout",
    "ION_VS_ION",
    "ION_VS_REST",
    "IncompatibleMeasureError",
    "MeasureSeries",
    "PureState",
    "Sech",
    "SimParams",
    "Spectrum",
    "SuddenEvents",
    "UnsupportedRegimeError",
    "build_block",
    "build_full_hamiltonian",
    "coherent_amplitudes",
    "detect_sudden_events",
    "evolve_pure",
    "get_block_system",
    "hermitian_spectrum",
    "i_concurrence_pure",
    "mode_function",
    "modulation_integral",
    "negativity",
    "prepare_initial",
    "relative_entropy_measure",
    "run_series",
    "run_sweep",
    "truncated_coherent",
]
