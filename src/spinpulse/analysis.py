"""Fidelity scans, error-order fits, phase-sensitivity checks, echo-based
rotation-error estimation, and echo-modulation frequency ratios.

The corrected four-pulse sequence suppresses the fractional amplitude
error so that the leading infidelity term is of order ``epsilon**6``
when the correction phases are set exactly; small per-channel phase
offsets ``(dphi1, dphi2)`` degrade this.  ``phase_sensitivity_prediction``
evaluates the closed-form second/fourth-order model of that degradation,
``bb1_fidelity`` computes the same quantity by running the sequence
through the propagation engine, and ``verify_eq5_coefficients``
extracts the quadratic coefficients of the model numerically from the
direct computation.

``estimate_rotation_error`` recovers the refocusing-pulse amplitude
error from a CP/CPMG echo-train pair by fitting the per-even-echo ratio
against the simulator's own decay model (simulation-based fitting with a
bracketed grid search plus golden-section refinement, so the output is
deterministic).  Dividing by CPMG removes any decay shared by both
trains, such as a T2 envelope.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NO_ERROR, EnsembleSpec, Gaussian, ensemble_nodes
from .sequence import Pulse, bb1_sequence
from .simulator import MAX_SAMPLES, Signal, _propagate_nodes, _weighted_sum, echo_train
from .su2 import IDENTITY, RotationSpec, _fidelities, rotation

__all__ = [
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
    "DEGENERATE_INFIDELITY",
    "SENSITIVITY_QUAD_COEFFS",
    "SENSITIVITY_LIN_COEFFS",
    "OFFSET_WARN_THRESHOLD",
    "EQ5_EPSILON",
    "EQ5_STEP",
    "FIT_COARSE_POINTS",
    "FIT_TOL",
    "FIT_MAX_RESIDUAL",
]

# Infidelities below this are floating-point noise, not signal.
DEGENERATE_INFIDELITY = 1e-15


@dataclass(frozen=True)
class FidelityScan:
    """Infidelity (1 - F) versus amplitude error for one target angle."""

    theta: float
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        eps = [e for e, _ in self.points]
        if any(b <= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon values must be strictly increasing")
        if any(i < -1e-12 for _, i in self.points):
            raise ValueError("infidelity must be >= -1e-12")


def _fidelities_over(theta: float, pulses, eps: np.ndarray) -> np.ndarray:
    """Fidelity of ``pulses`` against the ideal ``theta`` rotation about x,
    for every amplitude error in ``eps``: the engine propagates the
    identity over the whole array at once."""
    if not np.all(np.isfinite(eps)):
        raise ValueError("epsilon must be finite")
    net = _propagate_nodes(pulses, NO_ERROR, eps, np.zeros(eps.size), IDENTITY)
    return _fidelities(rotation(RotationSpec(theta, 0.0, 0.0)).matrix, net)


def _bb1_pulses(theta: float, offsets: tuple[float, float] = (0.0, 0.0)) -> list[Pulse]:
    d1, d2 = offsets
    # Offsets go by position: both pi pulses share the first channel even
    # where a correction phase coincides with the target pulse's (theta=2pi)
    # or with the other correction phase (theta=4pi).
    return [Pulse(p.theta, p.phi + d) for p, d in zip(bb1_sequence(theta), (0.0, d1, d2, d1))]


def bb1_fidelity(
    theta: float, epsilon: float, offsets: tuple[float, float] = (0.0, 0.0)
) -> float:
    """Fidelity of the corrected four-pulse sequence against the ideal rotation.

    The two correction phase channels carry offsets ``(dphi1, dphi2)``;
    every pulse carries the fractional amplitude error ``epsilon``.  With
    exact phases and zero error the value is 1 to machine precision.
    """
    return float(_fidelities_over(theta, _bb1_pulses(theta, offsets), np.array([epsilon]))[0])


def scan_order(
    theta: float,
    eps_range: tuple[float, float],
    n_points: int,
    use_bb1: bool = True,
) -> tuple[FidelityScan, float | None]:
    """Log-log slope of infidelity versus amplitude error.

    Scans ``n_points`` (at most ``MAX_SAMPLES``) log-spaced errors in
    ``eps_range`` for either the exact-phase corrected sequence or a
    single uncorrected pulse, and least-squares fits the slope of
    ``log(1-F)`` against ``log(eps)``.  The corrected sequence fits close
    to 6 (the surviving leading order), an uncorrected pulse close to 2.

    Returns ``(scan, slope)``; ``slope`` is None when the scan is
    degenerate (all infidelities below 1e-15, e.g. a zero-angle target).
    """
    lo, hi = eps_range
    if not (0.0 < lo < hi <= 0.3):
        raise ValueError("eps_range must satisfy 0 < lo < hi <= 0.3")
    if not 5 <= n_points <= MAX_SAMPLES:
        raise ValueError(f"n_points must lie in [5, {MAX_SAMPLES}]")
    eps = np.geomspace(lo, hi, n_points)
    pulses = _bb1_pulses(theta) if use_bb1 else [Pulse(theta, 0.0)]
    infid = 1.0 - _fidelities_over(theta, pulses, eps)
    scan = FidelityScan(theta=theta, points=tuple(zip(eps.tolist(), infid.tolist())))

    usable = infid > DEGENERATE_INFIDELITY
    if np.count_nonzero(usable) < 2:
        return scan, None
    slope = float(np.polyfit(np.log(eps[usable]), np.log(infid[usable]), 1)[0])
    return scan, slope


# Quadratic (in the phase offsets) second-order coefficients and linear
# fourth-order coefficients of the fidelity degradation model.
SENSITIVITY_QUAD_COEFFS = (0.75, -1.125, 0.5)
SENSITIVITY_LIN_COEFFS = (0.121, -0.091)

OFFSET_WARN_THRESHOLD = 0.05 * math.pi


def phase_sensitivity_prediction(offsets: tuple[float, float], epsilon: float) -> float:
    """Closed-form fidelity of a corrected pi pulse with small phase offsets.

    Evaluates::

        1 - (0.75 d1^2 - 1.125 d1 d2 + 0.5 d2^2) eps^2 pi^2
          - (0.121 d1 - 0.091 d2) eps^4 pi^4

    The model is a truncated expansion: it omits terms of order eps^6
    (present even at zero offsets) and higher-order offset terms, so it
    is accurate only for small offsets.  A warning is issued when either
    offset exceeds 0.05*pi.
    """
    d1, d2 = offsets
    if max(abs(d1), abs(d2)) > OFFSET_WARN_THRESHOLD:
        warnings.warn(
            "phase offsets exceed 0.05*pi; the truncated model loses accuracy",
            stacklevel=2,
        )
    a, b, c = SENSITIVITY_QUAD_COEFFS
    p, q = SENSITIVITY_LIN_COEFFS
    quad = (a * d1 * d1 + b * d1 * d2 + c * d2 * d2) * epsilon**2 * math.pi**2
    lin = (p * d1 + q * d2) * epsilon**4 * math.pi**4
    return 1.0 - quad - lin


@dataclass(frozen=True)
class PhaseSensitivityReport:
    """Fitted quadratic phase-sensitivity coefficients beside the reference ones."""

    rows: tuple[tuple[str, float, float], ...]  # (term, reference, fitted)
    max_rel_deviation: float
    epsilon: float
    step: float


# Amplitude error and offset step of the second differences in
# verify_eq5_coefficients; its report records both.
EQ5_EPSILON = 0.02
EQ5_STEP = 0.002 * math.pi


def verify_eq5_coefficients() -> PhaseSensitivityReport:
    """Extract the quadratic offset coefficients from the direct computation.

    Central second differences of ``bb1_fidelity(pi, EQ5_EPSILON, ...)``
    with offset step ``EQ5_STEP`` isolate the quadratic form at order
    ``epsilon**2`` (the linear fourth-order terms cancel in second
    differences).  The fitted coefficients are reported beside the
    closed-form model's, with the maximum relative deviation;
    disagreement is reported, not corrected.
    """
    e2p2 = EQ5_EPSILON**2 * math.pi**2
    h = EQ5_STEP

    def f(d1: float, d2: float) -> float:
        return bb1_fidelity(math.pi, EQ5_EPSILON, (d1, d2))

    f00 = f(0.0, 0.0)
    a_fit = float(-(f(h, 0.0) - 2.0 * f00 + f(-h, 0.0)) / (h * h) / (2.0 * e2p2))
    c_fit = float(-(f(0.0, h) - 2.0 * f00 + f(0.0, -h)) / (h * h) / (2.0 * e2p2))
    b_fit = float(-(f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4.0 * h * h) / e2p2)

    rows = (
        ("dphi1^2", SENSITIVITY_QUAD_COEFFS[0], a_fit),
        ("dphi1*dphi2", SENSITIVITY_QUAD_COEFFS[1], b_fit),
        ("dphi2^2", SENSITIVITY_QUAD_COEFFS[2], c_fit),
    )
    max_rel = max(abs(fit - ref) / abs(ref) for _, ref, fit in rows)
    return PhaseSensitivityReport(
        rows=rows, max_rel_deviation=max_rel, epsilon=EQ5_EPSILON, step=EQ5_STEP
    )


def ensemble_mean_fidelity(sigma_theta: float, nodes: int = 201) -> float:
    """Mean pi-pulse fidelity under a Gaussian spread of absolute angle errors.

    Gauss-Hermite average, on the nodes of ``ensemble_nodes``, of the
    engine fidelity of a pi pulse over-rotated by ``err ~ N(0, sigma^2)``
    (``|cos(err/2)|``); raises ``ValueError`` where the nodes cannot be
    trusted.  For small spreads this approaches ``1 - sigma^2/8``.
    """
    if sigma_theta < 0 or not math.isfinite(sigma_theta):
        raise ValueError("sigma_theta must be finite and >= 0")
    if sigma_theta == 0.0:
        return 1.0
    err, _, w = ensemble_nodes(EnsembleSpec(Gaussian(0.0, sigma_theta), nodes=nodes)).T
    return _weighted_sum(w, _fidelities_over(math.pi, [Pulse(math.pi, 0.0)], err / math.pi))


# ---------------------------------------------------------------------------
# Rotation-error estimation from CP/CPMG echo pairs
# ---------------------------------------------------------------------------


def _even_echoes(signal: Signal) -> np.ndarray:
    return signal.values[1::2]


@lru_cache(maxsize=512)
def _model_ratio(eps: float, n: int, tau: float) -> np.ndarray:
    cp = echo_train("cp", n, eps, tau=tau)
    cpmg = echo_train("cpmg", n, eps, tau=tau)
    return _even_echoes(cp) / _even_echoes(cpmg)


# Coarse grid size and golden-section bracket width of the fit.
FIT_COARSE_POINTS = 31
FIT_TOL = 1e-5

# Largest RMS misfit of the even-echo ratios a fit may return.  Correct
# fits stay below 5e-5; trains recorded on another detuning ensemble, or
# with an error beyond eps_max, leave about 0.1.
FIT_MAX_RESIDUAL = 1e-2


def estimate_rotation_error(cp: Signal, cpmg: Signal, eps_max: float = 0.3) -> tuple[float, float]:
    """Best-fit refocusing-pulse amplitude error from a CP/CPMG pair.

    Fits the per-even-echo amplitude ratio CP/CPMG against the simulated
    simple-pulse decay model in ``|eps|``: a ``FIT_COARSE_POINTS``-point
    bracketed grid on ``[0, eps_max]`` followed by golden-section
    refinement to a bracket of ``FIT_TOL``.  Any decay
    envelope common to both trains divides out of the ratio.  For trains
    recorded with composite refocusing pulses the estimate reads as the
    residual error of the corrected rotation.

    Both trains must sample the echo times ``t_k = 2*tau*k`` (to a
    relative 1e-9), with ``tau`` read from the first CP echo.

    Returns ``(eps_hat, residual)`` as floats, where ``residual`` is the
    RMS misfit of the even-echo ratios at the optimum.  A residual above
    ``FIT_MAX_RESIDUAL`` raises ``ValueError``: the model does not
    describe the data, so ``eps_hat`` would be a wrong answer.  An
    ``eps_max`` outside ``(0, 1)`` raises ``ValueError`` before any train
    is simulated.
    """
    if not 0.0 < eps_max < 1.0:
        raise ValueError(f"eps_max must lie in (0, 1), got {eps_max!r}")
    if len(cp.samples) != len(cpmg.samples):
        raise ValueError("CP and CPMG signals must have the same length")
    if len(cp.samples) < 4:
        raise ValueError("need at least two even echoes to fit")
    n = len(cp.samples)
    tau = cp.samples[0][0] / 2.0
    t_k = 2.0 * tau * np.arange(1, n + 1)
    for name, signal in (("CP", cp), ("CPMG", cpmg)):
        if not np.all(np.abs(signal.x - t_k) <= 1e-9 * np.abs(t_k)):
            raise ValueError(f"{name} echo times must be t_k = 2*tau*k with tau = {tau!r}")
    data_cpmg = _even_echoes(cpmg)
    if np.any(data_cpmg <= 0):
        raise ValueError("CPMG amplitudes must be positive to form the ratio")
    data_ratio = _even_echoes(cp) / data_cpmg

    def sse(eps: float) -> float:
        r = _model_ratio(eps, n, tau)
        return float(np.mean((r - data_ratio) ** 2))

    grid = np.linspace(0.0, eps_max, FIT_COARSE_POINTS)
    costs = [sse(e) for e in grid]
    i = int(np.argmin(costs))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, FIT_COARSE_POINTS - 1)]

    # Golden-section refinement on the bracket.
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = sse(c), sse(d)
    while b - a > FIT_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = sse(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = sse(d)
    eps_hat = float(0.5 * (a + b))
    residual = math.sqrt(sse(eps_hat))
    if residual > FIT_MAX_RESIDUAL:
        raise ValueError(
            f"fit residual {residual:.3g} exceeds {FIT_MAX_RESIDUAL}: likely an ensemble "
            f"mismatch, or an error beyond eps_max = {eps_max!r}"
        )
    return eps_hat, residual


# ---------------------------------------------------------------------------
# Echo-modulation frequency ratios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EseemRatioSpec:
    """Inputs for the modulation-component ratio of an echo-decay spectrum.

    ``mode`` selects the nominal refocusing pulse: ``"pi"`` for a pi
    pulse or ``"magic"`` for twice the magic angle.  ``theta_eps`` is the
    absolute angle error of the refocusing pulse (rad).
    """

    mode: str
    theta_eps: float

    def __post_init__(self):
        if self.mode not in ("pi", "magic"):
            raise ValueError(f"mode must be 'pi' or 'magic', got {self.mode!r}")
        if not math.isfinite(self.theta_eps):
            raise ValueError("theta_eps must be finite")


def eseem_ratio(spec: EseemRatioSpec) -> float:
    """Ratio of the base to the doubled modulation component amplitudes.

    For a nominal pi refocusing pulse with absolute angle error ``t``
    the ratio is ``2 t^2`` (zero for a perfect pulse); for a pulse of
    twice the magic angle it is ``sqrt(2) / t``, which diverges as the
    pulse becomes perfect because the doubled component vanishes there.
    The magic-angle form is returned as printed, so its sign follows the
    sign of ``t``; take the magnitude if only sizes matter.
    """
    t = spec.theta_eps
    if spec.mode == "pi":
        return 2.0 * t * t
    if t == 0.0:
        raise ValueError(
            "ratio diverges for a perfect magic-angle pulse (the doubled component vanishes)"
        )
    return math.sqrt(2.0) / t


def magic_refocus_angle() -> float:
    """Twice the magic angle: ``2*arccos(sqrt(1/3))``, about 0.608*pi."""
    return 2.0 * math.acos(math.sqrt(1.0 / 3.0))
