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
against the simulator's own decay model, in stages: an exact coarse
grid on the first ``min(n, 8)`` echoes, one block, then Gauss-Newton
steps in ``s = eps**2`` (the ratio is even in ``eps``) of one
three-error block each, on those echoes and then on twice as many per
stage up to n, each stage starting from the last one's estimate.  Each
block carries both modes from one echo-kernel run: CPMG shifts every
refocusing phase by pi/2, so its cycle is the CP cycle conjugated by
Rz(pi/2), with the same rotation angle and so the same rotor; only the
readout differs.  The output is deterministic, and noise-free trains
are recovered to rounding, to 1e-9 at ``eps = 0``, from n = 4 to 4095,
the longest default-line pair.
Dividing by CPMG removes any decay shared by both trains, such as a T2
envelope.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NO_ERROR, ErrorModel
from .sequence import Pulse, bb1_phases, bb1_sequence
from .simulator import (
    MAX_SAMPLES,
    Signal,
    _echo_amplitudes,
    _echo_nodes,
    _propagate_nodes,
    _refuse_overflow,
    echo_train,
)
from .su2 import RotationSpec, _fidelities, rotation

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
    "FIT_STEP",
    "FIT_MAX_STEPS",
    "FIT_STEP_TOL",
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


def _fidelities_over(theta: float, pulses, eps: np.ndarray, error=NO_ERROR) -> np.ndarray:
    """Fidelity of ``pulses`` under the phase offsets of ``error`` against the
    ideal ``theta`` rotation about x, for every amplitude error in ``eps``:
    the engine propagates the identity over the whole array at once, after
    the engine's one overflow rule has refused a pulse angle ``theta * (1 +
    eps)`` that is not finite (a NaN error included)."""
    _refuse_overflow(pulses, float(np.abs(1.0 + eps).max()), 0.0)
    a, b = _propagate_nodes(pulses, error, eps, np.zeros(eps.size))
    # the target goes through the public `rotation`, one wrapper per call and
    # none per node: perfbench's program_check needs su2.rotation.calls > 0;
    # its first row is its pair
    return _fidelities(rotation(RotationSpec(theta, 0.0, 0.0)).matrix[0], a, b)


def bb1_fidelity(
    theta: float, epsilon: float, offsets: tuple[float, float] = (0.0, 0.0)
) -> float:
    """Fidelity of the corrected four-pulse sequence against the ideal rotation.

    Every pulse carries the fractional amplitude error ``epsilon``.  Each
    nonzero offset of ``(dphi1, dphi2)`` is an ``ErrorModel`` channel at its
    phase of ``bb1_phases(theta)``, and every pulse at that phase takes it:
    at ``theta = 2pi``, where ``phi2`` is the target pulse's phase 0,
    ``dphi2`` shifts the target pulse too, and at ``4pi``, where ``phi1 =
    phi2 = pi``, two nonzero offsets are refused, as is any ``|dphi| >=
    pi/2``.  With exact phases and zero error the value is 1 to rounding.
    """
    model = ErrorModel(0.0, [(p, d) for p, d in zip(bb1_phases(theta), offsets) if d != 0.0])
    return float(_fidelities_over(theta, bb1_sequence(theta), np.array([epsilon]), model)[0])


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
    degenerate: fewer than two infidelities above ``DEGENERATE_INFIDELITY``
    = 1e-15, the only points the fit takes (a zero-angle target has none).
    """
    lo, hi = eps_range
    if not (0.0 < lo < hi <= 0.3):
        raise ValueError("eps_range must satisfy 0 < lo < hi <= 0.3")
    if type(n_points) is not int or not 5 <= n_points <= MAX_SAMPLES:
        raise ValueError(f"n_points must be an integer in [5, {MAX_SAMPLES}]")
    eps = np.geomspace(lo, hi, n_points)
    pulses = bb1_sequence(theta) if use_bb1 else [Pulse(theta, 0.0)]
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
    offset exceeds 0.05*pi; a value that is not finite raises ``ValueError``.
    """
    d1, d2 = offsets
    a, b, c = SENSITIVITY_QUAD_COEFFS
    p, q = SENSITIVITY_LIN_COEFFS
    e2 = epsilon * epsilon  # not **: a power raises OverflowError
    quad = (a * d1 * d1 + b * d1 * d2 + c * d2 * d2) * e2 * math.pi**2
    fidelity = 1.0 - quad - (p * d1 + q * d2) * (e2 * e2) * math.pi**4
    if not math.isfinite(fidelity):  # a non-finite input, or an overflow
        raise ValueError(f"no finite model value at offsets {offsets!r}, epsilon {epsilon!r}")
    if max(abs(d1), abs(d2)) > OFFSET_WARN_THRESHOLD:
        warnings.warn("phase offsets exceed 0.05*pi; the truncated model loses accuracy", stacklevel=2)
    return fidelity


@dataclass(frozen=True)
class PhaseSensitivityReport:
    """Fitted quadratic phase-sensitivity coefficients beside the reference ones."""

    rows: tuple[tuple[str, float, float], ...]  # (term, reference, fitted)
    max_rel_deviation: float
    epsilon: float
    step: float
    rounding: float  # bound on any fitted coefficient's rounding error


# Amplitude error and offset step of the second differences in
# verify_eq5_coefficients; its report records both.
EQ5_EPSILON = 0.02
EQ5_STEP = 0.002 * math.pi

# Bound on the rounding error of one bb1_fidelity value near these
# offsets, 8 units of 2**-53: against a 40-digit evaluation of the same
# float inputs, the report's nine points miss by at most 1.9 units and 400
# sampled points (eps 0.005-0.05, |dphi| <= 3 EQ5_STEP) by at most 4.0.
_EQ5_F_ROUNDING = 2.0**-50


def verify_eq5_coefficients() -> PhaseSensitivityReport:
    """Extract the quadratic offset coefficients from the direct computation.

    Central second differences of ``bb1_fidelity(pi, EQ5_EPSILON, ...)``
    with offset step ``EQ5_STEP`` isolate the quadratic form at order
    ``epsilon**2`` (the linear fourth-order terms cancel in second
    differences).  The fitted coefficients are reported beside the
    closed-form model's, with the maximum relative deviation;
    disagreement is reported, not corrected.

    The second differences divide by ``2 h**2 epsilon**2 pi**2``, about
    3.1e-7, so the fidelities' rounding reaches the coefficients amplified.
    ``rounding`` bounds it: a difference's weights sum to 4, so its
    fidelities add at most ``4 * _EQ5_F_ROUNDING``, plus one rounding of
    the difference itself, over the squared terms' divisor, the smaller
    one (the divisions' own relative rounding, a few 2**-53, is far below
    it).  Digits below ``rounding`` are not signal.
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
    rounding = (4.0 * _EQ5_F_ROUNDING + 2.0**-53) / (h * h) / (2.0 * e2p2)
    return PhaseSensitivityReport(
        rows=rows, max_rel_deviation=max_rel, epsilon=EQ5_EPSILON, step=EQ5_STEP,
        rounding=rounding,
    )


def ensemble_mean_fidelity(sigma_theta: float) -> float:
    """Mean pi-pulse fidelity under a normal spread of absolute angle errors.

    The exact mean of ``|cos(err/2)|``, the fidelity of a pi pulse
    over-rotated by ``err ~ N(0, sigma^2)``, in closed form.  Up to
    ``sigma = 1/3`` it is ``exp(-sigma^2/8)``, the mean of ``cos(err/2)``,
    exact to 1e-20: the two differ only where ``|err| > pi``, which has
    probability 4.3e-21 at ``sigma = 1/3``.  Above, it is the Fourier
    series of ``|cos|``,
    ``2/pi + (4/pi) sum_k (-1)^(k+1) exp(-k^2 sigma^2/2) / (4k^2 - 1)``,
    summed to ``k = ceil(9/sigma)`` (at most 27 terms); the terms alternate
    and shrink, so the first omitted one, below 2e-19, bounds the
    truncation.  Wide spreads tend to ``2/pi``.  A negative or non-finite
    ``sigma_theta`` raises ``ValueError``.
    """
    if sigma_theta < 0 or not math.isfinite(sigma_theta):
        raise ValueError("sigma_theta must be finite and >= 0")
    var = sigma_theta * sigma_theta  # not **: a power raises OverflowError
    if sigma_theta <= 1.0 / 3.0:
        return math.exp(-var / 8.0)
    terms = (
        (-1) ** (k + 1) * math.exp(-0.5 * (k * k) * var) / (4 * k * k - 1)
        for k in range(1, math.ceil(9.0 / sigma_theta) + 1)
    )
    return 2.0 / math.pi + 4.0 / math.pi * math.fsum(terms)


# ---------------------------------------------------------------------------
# Rotation-error estimation from CP/CPMG echo pairs
# ---------------------------------------------------------------------------


def _model_ratio(
    eps: np.ndarray, n: int, tau: float, delta: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Even-echo CP/CPMG ratios of the simple-pulse model on the detuning
    nodes ``delta`` with ``weights``, one row per amplitude error in
    ``eps``: one echo-kernel run for both modes, which builds the CP cycle
    once, advances one rotor and reads each mode's even echoes from it
    (the CPMG cycle is the CP cycle conjugated by Rz(pi/2))."""
    cp, cpmg = _echo_amplitudes(("cp", "cpmg"), n, eps, delta, weights, False, tau, 2)
    return cp / cpmg


FIT_COARSE_POINTS = 31

# Gauss-Newton refinement in s = eps**2: finite-difference step of the
# Jacobian in s, most steps, and the convergence tolerance, measured in eps
# (a step in s of at most 2 * FIT_STEP_TOL * sqrt(s)).
FIT_STEP = 1e-8
FIT_MAX_STEPS = 12
FIT_STEP_TOL = 1e-12

# Largest RMS misfit of the even-echo ratios a fit may return.  Noise-free
# trains fit to below 2e-14, eps = 0 included (n 4-64, tau 0.5-1.5, eps
# 0-0.29, with and without T2; every default-line pair at n = 96 to 1000,
# tau 0.7 and 1.0, eps 0.005-0.295, which the stages from 8 echoes reach
# from a grid coarser than the basin of all n); trains recorded on another
# detuning ensemble, or with an error beyond eps_max, leave about 0.1.
FIT_MAX_RESIDUAL = 1e-2

# Echoes of a fit's first stage, whose whole exact grid is one block of 4
# kept echoes on 5 members; the later stages double them up to n
_FIT_FIRST_ECHOES = 8


def _gauss_newton(misfit, s: float, lo: float, hi: float) -> float:
    """Least-squares ``s = eps**2`` in ``[lo, hi]`` by Gauss-Newton from ``s``,
    under the stopping rules of ``estimate_rotation_error``."""
    prev, prev_cost = s, math.inf
    for _ in range(FIT_MAX_STEPS):
        below = max(s - FIT_STEP, lo)
        above = below + 2.0 * FIT_STEP
        r_below, r_at, r_above = misfit(np.sqrt([below, s, above]))
        cost = float(r_at @ r_at)
        if not cost < prev_cost:
            return prev
        jac = (r_above - r_below) / (above - below)
        jj = float(jac @ jac)
        if not jj > 0.0:
            raise ValueError(f"the fit's Jacobian vanishes at epsilon = {math.sqrt(s)!r}")
        step = -float(jac @ r_at) / jj
        new = min(max(s + step, lo), hi)
        if abs(step) <= 2.0 * FIT_STEP_TOL * math.sqrt(s) or new == s:
            return new
        prev, prev_cost, s = s, cost, new
    # steps that shrink only linearly leave a residual the model does not explain
    raise ValueError(f"the fit did not converge within {FIT_MAX_STEPS} Gauss-Newton steps: "
                     "likely an ensemble mismatch, or an error beyond eps_max")


def estimate_rotation_error(cp: Signal, cpmg: Signal, eps_max: float = 0.3) -> tuple[float, float]:
    """Best-fit refocusing-pulse amplitude error from a CP/CPMG pair.

    Fits the per-even-echo amplitude ratio CP/CPMG against the simulated
    simple-pulse decay model in ``|eps|``, whose echo blocks reduce only
    the even echoes, in stages of ``m`` echoes.  Echo k does not depend on
    the echoes after it, and the default line of an m-cycle train is exact
    for each of its echoes, so a stage fits the first m echoes of the pair
    with the m-echo model on its own line.  The first stage takes ``m =
    min(n, 8)``: the exact costs of a ``FIT_COARSE_POINTS``-point grid on
    ``[0, eps_max]``, one block, give the best grid point (``np.argmin``,
    the first on a tie), bracketed by its neighbours, ``[lo, hi]``.
    Gauss-Newton refines from it in ``s = eps**2``, where the Jacobian of
    the even ratio does not vanish at 0: each step runs ``sqrt`` of ``b,
    s, b + 2h`` as one block (``h = FIT_STEP``, ``b = max(s - h,
    lo**2)``) and is clamped into ``[lo**2, hi**2]``.  Each later stage
    doubles ``m``, to at most n, and refines from the previous ``s`` in
    ``[0, eps_max**2]``.  The minimum's basin narrows about as 1/m (+-0.004
    in ``eps`` at m = 128, below the grid step ``eps_max / 30``), and a
    stage's estimate lies inside the basin of twice as many echoes
    (continuation in the echo count; Allgower & Georg, *Introduction to
    Numerical Continuation Methods*, SIAM, 2003).  A refinement ends at a
    step of at most ``FIT_STEP_TOL`` in ``eps``, at a bracket edge a
    clamped step does not leave, or at the previous point when a step does
    not lower the cost; a vanishing Jacobian or no end within
    ``FIT_MAX_STEPS`` raises ``ValueError``.  A residual above 1e-12 is
    fitted again, every stage, from the grid neighbour of lower cost (the
    lower on a tie), the lower residual kept: with m = 4 or 8 a minimum
    beside an echo's zero crossing can hold the first start.  Noise-free
    default-line trains are recovered to 1e-12, and to 1e-9 at ``eps =
    0``, from n = 4 to 4095: every pair at tau 0.7 and 1.0, eps 0.005-0.295
    in steps of 0.01, fits at n = 128, 160, 200, 400 and 1000, where a
    start on a grid of all n echoes refused 8, 36, 60 and 60 of the 60 at n
    = 128, 160, 200 and 400.  Any decay envelope common to both trains
    divides out of the ratio.  For trains recorded with composite
    refocusing pulses the estimate reads as the residual error of the
    corrected rotation.

    Both trains must sample the echo times ``t_k = 2*tau*k`` (to a
    relative 1e-9), with ``tau`` read from the first CP echo.

    Returns ``(eps_hat, residual)`` as floats, where ``residual`` is the
    RMS misfit of the even-echo ratios at the optimum, from one
    ``echo_train`` pair of all n echoes.  A residual above
    ``FIT_MAX_RESIDUAL`` raises ``ValueError``: the model does not describe
    the data, so ``eps_hat`` would be a wrong answer, and so does a
    residual that is NaN.  An ``eps_max`` outside ``(0, 1)``, or a pair
    beyond a bound of ``echo_train`` (``MAX_SAMPLES`` echoes,
    ``MAX_MEMBER_ECHOES`` member-echoes of the simple-pulse default line,
    which refuses ``n > 4095``, a ``tau`` that is not finite and
    positive), raises ``ValueError`` before any train is simulated.
    """
    if not 0.0 < eps_max < 1.0:
        raise ValueError(f"eps_max must lie in (0, 1), got {eps_max!r}")
    if len(cp.samples) != len(cpmg.samples):
        raise ValueError("CP and CPMG signals must have the same length")
    if len(cp.samples) < 4:
        raise ValueError("need at least two even echoes to fit")
    n = len(cp.samples)
    tau = cp.samples[0][0] / 2.0
    _, delta, weights = _echo_nodes(n, tau)
    t_k = 2.0 * tau * np.arange(1, n + 1)
    for name, signal in (("CP", cp), ("CPMG", cpmg)):
        if not np.all(np.abs(signal.x - t_k) <= 1e-9 * np.abs(t_k)):
            raise ValueError(f"{name} echo times must be t_k = 2*tau*k with tau = {tau!r}")
    data_cpmg = cpmg.values[1::2]
    if np.any(data_cpmg <= 0):
        raise ValueError("CPMG amplitudes must be positive to form the ratio")
    data_ratio = cp.values[1::2] / data_cpmg

    def stage(m: int, line: tuple[np.ndarray, np.ndarray]):
        """The misfit of the first ``m`` echoes on ``line``, that of ``m`` cycles."""
        return lambda eps: _model_ratio(eps, m, tau, *line) - data_ratio[: m // 2]

    echoes = [min(n, _FIT_FIRST_ECHOES)]
    while echoes[-1] < n:
        echoes.append(min(2 * echoes[-1], n))
    # the full-n line, built above, serves the last stage
    lines = [_echo_nodes(m, tau)[1:] for m in echoes[:-1]] + [(delta, weights)]
    stages = [stage(m, line) for m, line in zip(echoes, lines)]

    grid = np.linspace(0.0, eps_max, FIT_COARSE_POINTS)
    cost = np.mean(stages[0](grid) ** 2, axis=1)
    i = int(np.argmin(cost))
    j_lo, j_hi = max(i - 1, 0), min(i + 1, FIT_COARSE_POINTS - 1)
    lo, hi = float(grid[j_lo]) ** 2, float(grid[j_hi]) ** 2

    def fit_from(j: int) -> tuple[float, float]:
        """(residual, eps_hat) of the stages from grid point ``j``."""
        s = _gauss_newton(stages[0], float(grid[j]) ** 2, lo, hi)
        for misfit in stages[1:]:
            s = _gauss_newton(misfit, s, 0.0, eps_max**2)
        eps = math.sqrt(s)
        fit_cp, fit_cpmg = (echo_train(mode, n, eps, tau=tau) for mode in ("cp", "cpmg"))
        model = fit_cp.values[1::2] / fit_cpmg.values[1::2]
        return math.sqrt(float(np.mean((model - data_ratio) ** 2))), eps

    residual, eps_hat = fit_from(i)
    if residual > 1e-12:
        # echo magnitudes fold the model where an echo crosses zero, and a minimum
        # beside the fold can hold the first start; a second that fails is dropped
        if i in (0, FIT_COARSE_POINTS - 1):
            other = 1 if i == 0 else i - 1
        else:
            other = i + 1 if cost[i + 1] < cost[i - 1] else i - 1
        try:
            residual, eps_hat = min((residual, eps_hat), fit_from(other))
        except ValueError:
            pass
    if not residual <= FIT_MAX_RESIDUAL:  # a NaN residual is refused too
        raise ValueError(
            f"fit residual {residual!r} exceeds {FIT_MAX_RESIDUAL}: likely an ensemble "
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
    sign of ``t``; take the magnitude if only sizes matter.  Both forms are
    taken as given, not derived or simulated here (a non-selective spin-3/2
    Hahn echo does not reproduce them), and an inversion of the ratio into
    a pulse error (ROADMAP item 9) inherits them.
    """
    t = spec.theta_eps
    if spec.mode == "magic" and t == 0.0:
        raise ValueError(
            "ratio diverges for a perfect magic-angle pulse (the doubled component vanishes)"
        )
    ratio = 2.0 * t * t if spec.mode == "pi" else math.sqrt(2.0) / t
    if not math.isfinite(ratio):
        raise ValueError(f"the ratio is not finite for theta_eps={t!r} ({spec.mode} mode)")
    return ratio


def magic_refocus_angle() -> float:
    """Twice the magic angle: ``2*arccos(sqrt(1/3))``, about 0.608*pi."""
    return 2.0 * math.acos(math.sqrt(1.0 / 3.0))
