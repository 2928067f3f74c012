"""spinpulse: composite-pulse spin control simulation and verification.

Models systematic rotation-angle and phase errors in pulsed magnetic
resonance, builds BB1-corrected sequences, and provides desk-scale
numerical versions of three verification protocols: corrected nutation
traces, CP/CPMG echo-train error estimation, and echo-modulation
frequency ratios.
"""

from .su2 import (
    Unitary2,
    RotationSpec,
    rotation,
    compose,
    fidelity,
    axis_angle,
)
from .sequence import (
    Pulse,
    Delay,
    Repeat,
    Acquire,
    SequenceElement,
    PulseProgram,
    bb1_phases,
    bb1_sequence,
    bb1_rabi_program,
)
from .dsl import ParseError, parse_program, format_program, parse_angle_literal
from .errors import (
    Gaussian,
    Uniform,
    Discrete,
    ErrorModel,
    EnsembleSpec,
    ensemble_nodes,
    monte_carlo_nodes,
)
from .simulator import (
    SpinState,
    Signal,
    propagate,
    bloch,
    rabi_trace,
    echo_train,
    default_echo_ensemble,
)
from .analysis import (
    FidelityScan,
    EseemRatioSpec,
    PhaseSensitivityReport,
    bb1_fidelity,
    scan_order,
    phase_sensitivity_prediction,
    verify_eq5_coefficients,
    estimate_rotation_error,
    ensemble_mean_fidelity,
    eseem_ratio,
    magic_refocus_angle,
)

__version__ = "0.1.0"

__all__ = [
    "Unitary2",
    "RotationSpec",
    "rotation",
    "compose",
    "fidelity",
    "axis_angle",
    "Pulse",
    "Delay",
    "Repeat",
    "Acquire",
    "SequenceElement",
    "PulseProgram",
    "bb1_phases",
    "bb1_sequence",
    "bb1_rabi_program",
    "ParseError",
    "parse_program",
    "format_program",
    "parse_angle_literal",
    "Gaussian",
    "Uniform",
    "Discrete",
    "ErrorModel",
    "EnsembleSpec",
    "ensemble_nodes",
    "monte_carlo_nodes",
    "SpinState",
    "Signal",
    "propagate",
    "bloch",
    "rabi_trace",
    "echo_train",
    "default_echo_ensemble",
    "FidelityScan",
    "EseemRatioSpec",
    "PhaseSensitivityReport",
    "bb1_fidelity",
    "scan_order",
    "phase_sensitivity_prediction",
    "verify_eq5_coefficients",
    "estimate_rotation_error",
    "ensemble_mean_fidelity",
    "eseem_ratio",
    "magic_refocus_angle",
    "__version__",
]
