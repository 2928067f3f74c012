"""Time-domain propagation of pulse programs over error ensembles.

Pulses act as instantaneous rotations; a ``Delay(tau)`` advances the
detuning phase (z-rotation by ``delta * tau``); an ``Acquire`` leaves the
state as it is and nothing reads it; a ``Repeat`` propagates its body
once from the identity and raises it to its count by squaring.  The
engine returns only the final block: the experiments take their
samples from their own products of engine propagators.  One
engine interprets every program: it propagates a batch of ensemble
members at once, each carrying a block of columns - one column is a
state, the two columns of the identity are the whole propagator - and
``propagate``, ``rabi_trace``, ``echo_train`` and the analysis
fidelities all run through it (``propagate`` is the one-member batch).
Its pulse matrices come from the one batched rotation formula in
``su2``, and its members are the rows of ``errors.ensemble_nodes``, the
one member representation.  Ensemble reductions are correctly rounded
(``math.fsum``), so they do not depend on node order and results are
bit-identical run to run.

Experiments:

* ``rabi_trace`` - nutation signal ``-<sz>`` versus nominal drive angle,
  with simple pulses or with long rotations decomposed into corrected
  pi blocks plus a remainder pulse; at most ``MAX_SAMPLES`` samples.
* ``echo_train`` - multi-echo decay for CP (refocusing in phase with the
  excitation) and CPMG (refocusing in quadrature), with optional
  composite refocusing pulses and an optional analytic T2 envelope; at
  most ``MAX_SAMPLES`` echoes and ``MAX_MEMBER_ECHOES`` member-echoes.

Both experiments build their repeated block once on the engine and then
advance by products: ``rabi_trace`` raises the BB1 pi-block propagator
to each gap's power by the engine's ``Repeat`` rule, and ``echo_train``
builds the echo-cycle propagator and advances every member by one 2x2
product per echo.  An echo train is taken in slices of at most
``_SLICE_MEMBER_ECHOES`` member-echoes, each reduced as one array
operation before the next is advanced, so a train never holds more than
one slice.

Echo detection is phase-sensitive, at the phase the ideal sequence
sets: the ideal CP or CPMG train (simple or BB1 pi pulses) keeps every
echo on +-y, so each member's signed ``<sy>`` is ensemble-averaged
first, and the magnitude of that average is the echo amplitude.
Averaging per-member magnitudes instead would hide dephasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Optional

import numpy as np

from .errors import (
    DELTA_ZERO,
    EnsembleSpec,
    ErrorModel,
    NO_ERROR,
    PeriodicUniform,
    ensemble_nodes,
)
from .sequence import MAX_REPETITIONS, Acquire, Delay, Pulse, PulseProgram, Repeat, bb1_sequence
from .su2 import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, TWO_PI, _rotations

__all__ = [
    "SpinState",
    "Signal",
    "propagate",
    "bloch",
    "rabi_trace",
    "echo_train",
    "DEFAULT_TAU",
    "DEFAULT_DETUNING_SPAN",
    "MAX_SAMPLES",
    "MAX_MEMBER_ECHOES",
    "default_echo_ensemble",
]

# Echo-experiment defaults: detuning spread wide enough to fully dephase
# the ensemble between refocusing pulses (span * tau covers 4*pi of
# accumulated phase, four whole periods of delta * tau), averaged by the
# periodic midpoint rule, which is exact for n-cycle trains with at least
# 2n + 1 nodes; echo_train without an ensemble takes exactly 2n + 1.
DEFAULT_TAU = 1.0
DEFAULT_DETUNING_SPAN = 4.0 * math.pi

# Largest number of trace samples, echoes or scan points accepted: the
# workloads use at most a few hundred, and 1e5 already costs tens of MB.
MAX_SAMPLES = 100_000

# Largest n_refocus * members accepted by echo_train.  A train's
# propagation holds at most one slice of echoes, so this bounds time, not
# memory; it is the bound an exact default train (2n + 1 members) meets
# first: n <= 2047.
MAX_MEMBER_ECHOES = 2**23

# Member-echoes per slice of an echo train: the slice buffer holds two
# complex amplitudes per member-echo (1 MB), plus the slice's reduction.
_SLICE_MEMBER_ECHOES = 2**15


class SpinState:
    """A normalized two-component spinor."""

    __slots__ = ("_v",)

    def __init__(self, up: complex, down: complex):
        v = np.array([up, down], dtype=complex)
        self._init_from(v)

    @classmethod
    def from_vector(cls, vector: np.ndarray) -> "SpinState":
        obj = cls.__new__(cls)
        obj._init_from(np.array(vector, dtype=complex))
        return obj

    @classmethod
    def spin_up(cls) -> "SpinState":
        return cls(1.0, 0.0)

    def _init_from(self, v: np.ndarray) -> None:
        if v.shape != (2,):
            raise ValueError("spin state needs exactly two amplitudes")
        v = np.ascontiguousarray(v)
        if not np.all(np.isfinite(v)):
            raise ValueError("amplitudes must be finite")
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError("spin state must be normalized to within 1e-12")
        v.setflags(write=False)
        self._v = v

    @property
    def vector(self) -> np.ndarray:
        return self._v

    def __repr__(self) -> str:
        return f"SpinState({self._v[0]!r}, {self._v[1]!r})"


def bloch(state: SpinState) -> np.ndarray:
    """Bloch vector (<sx>, <sy>, <sz>) of a state."""
    v = state.vector
    return np.array(
        [
            float(np.real(v.conj() @ (SIGMA_X @ v))),
            float(np.real(v.conj() @ (SIGMA_Y @ v))),
            float(np.real(v.conj() @ (SIGMA_Z @ v))),
        ]
    )


@dataclass
class Signal:
    """Sampled experiment output with axis metadata and provenance."""

    axis_label: str
    axis_unit: str
    value_label: str
    samples: list[tuple[float, float]]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not all(math.isfinite(x) and math.isfinite(y) for x, y in self.samples):
            raise ValueError("sample x and y values must be finite")
        xs = [x for x, _ in self.samples]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("sample x values must be strictly increasing")

    @property
    def x(self) -> np.ndarray:
        return np.array([x for x, _ in self.samples])

    @property
    def values(self) -> np.ndarray:
        return np.array([y for _, y in self.samples])


# ---------------------------------------------------------------------------
# Vectorized propagation over ensemble nodes
# ---------------------------------------------------------------------------


def _propagate_nodes(
    elements, error: ErrorModel, eps: np.ndarray, delta: np.ndarray, block0: np.ndarray
) -> np.ndarray:
    """Propagate a (2, K) column block through a program at every node;
    returns the final (M, 2, K) blocks.  ``block0 = IDENTITY`` yields the
    propagators.  A ``Repeat`` body is propagated once, from the identity,
    and raised to ``count`` by squaring."""
    psi = np.broadcast_to(block0, (eps.size, *block0.shape)).copy()
    for el in elements:
        if isinstance(el, Pulse):
            phi = el.phi + error.offset_for(el.phi)
            psi = _rotations(el.theta, phi, eps) @ psi
        elif isinstance(el, Delay):
            phase = np.exp(0.5j * delta * el.tau)
            psi = psi * np.stack([phase, phase.conj()], axis=1)[:, :, None]
        elif isinstance(el, Repeat):
            body = _propagate_nodes(el.body, error, eps, delta, IDENTITY)
            psi = np.linalg.matrix_power(body, el.count) @ psi
        elif not isinstance(el, Acquire):
            raise TypeError(f"unknown sequence element {el!r}")
    return psi


def propagate(
    program: PulseProgram,
    e: ErrorModel = NO_ERROR,
    delta: float = 0.0,
    initial: Optional[SpinState] = None,
) -> SpinState:
    """Apply a program to one spin: rotations per pulse (with the error
    model applied), z-rotation by ``delta * tau`` per delay.

    ``Acquire`` markers leave the state as it is; the experiment functions
    collect sampled signals.
    """
    state = initial if initial is not None else SpinState.spin_up()
    final = _propagate_nodes(
        program.elements, e, np.array([e.epsilon]), np.array([float(delta)]), state.vector[:, None]
    )
    v = final[0, :, 0]
    return SpinState.from_vector(v / np.linalg.norm(v))


def _weighted_sum(weights: np.ndarray, per_node: np.ndarray) -> float:
    # Correctly rounded, so the result does not depend on node order.
    return math.fsum((weights * per_node).tolist())


# ---------------------------------------------------------------------------
# Rabi / nutation traces
# ---------------------------------------------------------------------------


def rabi_trace(
    max_angle: float,
    step: float,
    ensemble: EnsembleSpec,
    use_bb1: bool = False,
) -> Signal:
    """Nutation signal ``-<sz>`` versus nominal drive angle.

    Samples at ``theta_k = k * step`` up to ``max_angle``.  Each sample
    drives spin-up with either a single pulse of angle ``theta_k`` or,
    when ``use_bb1`` is set, with full corrected pi blocks plus a simple
    remainder pulse, then averages ``-<sz>`` over the ensemble.  The
    convention puts the signal at +1 for an ideal pi rotation.  More
    than ``MAX_SAMPLES`` samples are rejected, and so is a BB1 trace
    whose last sample needs more than ``MAX_REPETITIONS`` pi blocks (the
    bound ``bb1_rabi_program`` enforces through its ``Repeat``).  A trace
    runs no delay, so an ensemble whose detuning distribution is not
    ``DELTA_ZERO`` is rejected before any node is built.

    Sample ``theta_k = n*pi + r`` runs ``bb1_rabi_program(n, r)`` (``n = 0``
    for simple pulses) as ``B**n R(r)``, with ``B`` the BB1 pi-block
    propagator built once per call.  ``n`` never decreases along the
    trace, so ``B**n`` is a running product: a gap of ``g`` new blocks
    multiplies it by ``B**g``, raised by squaring as a ``Repeat`` is
    (``np.linalg.matrix_power``, which returns ``B`` itself for ``g = 1``),
    so a trace costs O(K log n) products.
    """
    if not (step > 0) or not math.isfinite(step):
        raise ValueError("step must be positive")
    if not math.isfinite(max_angle) or max_angle < 0:
        raise ValueError("max_angle must be finite and >= 0")
    if max_angle / step >= MAX_SAMPLES:
        raise ValueError(f"max_angle / step asks for more than {MAX_SAMPLES} samples")
    thetas = []
    while len(thetas) * step <= max_angle * (1 + 1e-12):
        thetas.append(len(thetas) * step)
    ns = [int(math.floor(theta / math.pi + 1e-12)) if use_bb1 else 0 for theta in thetas]
    if ns[-1] > MAX_REPETITIONS:
        raise ValueError(f"max_angle asks for more than {MAX_REPETITIONS} BB1 pi blocks")
    if ensemble.detuning_dist != DELTA_ZERO:
        raise ValueError("rabi_trace runs no delay; its detuning_dist must be DELTA_ZERO")
    eps, delta, weights = ensemble_nodes(ensemble).T
    block = _propagate_nodes(bb1_sequence(math.pi), NO_ERROR, eps, delta, IDENTITY) if use_bb1 else None
    power, blocks = IDENTITY, 0

    samples = []
    for theta, n in zip(thetas, ns):
        remainder = theta - n * math.pi
        if n > blocks:
            power, blocks = np.linalg.matrix_power(block, n - blocks) @ power, n
        # the first column of each rotation is its image of spin-up
        final = power @ _rotations(remainder if remainder > 1e-15 else 0.0, 0.0, eps)[:, :, :1]
        sz = np.abs(final[:, 0, 0]) ** 2 - np.abs(final[:, 1, 0]) ** 2
        samples.append((theta, _weighted_sum(weights, -sz)))

    return Signal(
        axis_label="theta",
        axis_unit="rad",
        value_label="signal",
        samples=samples,
        provenance={
            "experiment": "rabi",
            "program": "bb1_rabi" if use_bb1 else "simple",
            "max_angle_rad": max_angle,
            "step_rad": step,
            "ensemble": ensemble.to_dict(),
            "error_model": {"epsilon": "ensemble", "phase_offsets": []},
        },
    )


# ---------------------------------------------------------------------------
# CP / CPMG echo trains
# ---------------------------------------------------------------------------


def _check_tau(tau: float) -> None:
    if not (tau > 0) or not math.isfinite(tau):
        raise ValueError("tau must be positive")


def default_echo_ensemble(tau: float, nodes: int) -> EnsembleSpec:
    """Uniform detuning ensemble spanning ``DEFAULT_DETUNING_SPAN / tau``,
    four whole periods of the echo's ``2*pi/tau``, averaged by the periodic
    midpoint rule; ``tau`` must be finite and positive."""
    _check_tau(tau)
    span = DEFAULT_DETUNING_SPAN / tau
    return EnsembleSpec(
        epsilon_dist=DELTA_ZERO, detuning_dist=PeriodicUniform(-span, span, 4), nodes=nodes
    )


def _echo_cycle(refocus_phase: float, use_bb1: bool, tau: float):
    if use_bb1:
        pulses = tuple(bb1_sequence(math.pi, axis_phase=refocus_phase))
    else:
        pulses = (Pulse(math.pi, refocus_phase),)
    return (Delay(tau), *pulses, Delay(tau))


def echo_train(
    mode: Literal["cp", "cpmg"],
    n_refocus: int,
    epsilon: float,
    ensemble_detuning: Optional[EnsembleSpec] = None,
    use_bb1: bool = False,
    t2_envelope: Optional[float] = None,
    tau: float = DEFAULT_TAU,
) -> Signal:
    """Echo amplitudes of an ``n_refocus``-cycle CP or CPMG train.

    An ideal 90-degree excitation about x is followed by ``n_refocus``
    repetitions of ``tau - refocusing pulse - tau - sample``.  CP
    refocuses about x, CPMG about y.  The refocusing pulse carries the
    fractional amplitude error ``epsilon`` and is either a simple pi
    pulse or its four-pulse corrected block.  The detuning ensemble
    (default: uniform, fully dephasing between pulses) represents the
    inhomogeneously broadened line; the refocusing error is the explicit
    scalar argument, so an ensemble whose epsilon distribution is not
    ``DELTA_ZERO`` is rejected before any node is built.  The default
    ensemble is ``default_echo_ensemble(tau, 2 * n_refocus + 1)``, the
    fewest periodic midpoints whose mean is exact, and a periodic detuning
    rule with fewer nodes is rejected.  A sampled line is a ``Discrete``
    detuning distribution of equal-weight draws.

    Echo amplitude k is the magnitude of the ensemble average of each
    member's signed ``<sy>``, the axis on which the ideal train keeps its
    echoes, optionally multiplied by ``exp(-t_k / t2_envelope)`` with
    ``t_k = 2 * tau * k``.  A train of more than ``MAX_SAMPLES`` echoes, or
    of more than ``MAX_MEMBER_ECHOES`` echoes times members, is rejected
    before propagation.

    The cycle ``tau - refocusing pulse - tau`` runs once on the engine,
    from the identity, for its propagator ``C`` at every member; echo k is
    ``C`` applied to echo k-1, one 2x2 product per member and echo.  The
    echoes are taken in slices of at most ``_SLICE_MEMBER_ECHOES``
    member-echoes, and each slice is reduced before the next is advanced,
    so only the returned samples grow with ``n_refocus``.  They equal, bit
    for bit, those reduced one by one from the running product
    ``psi_k = C @ psi_(k-1)`` of the engine's cycle propagator.
    """
    mode_l = str(mode).lower()
    if mode_l not in ("cp", "cpmg"):
        raise ValueError(f"mode must be 'cp' or 'cpmg', got {mode!r}")
    if not isinstance(n_refocus, int) or not 1 <= n_refocus <= MAX_SAMPLES:
        raise ValueError(f"n_refocus must be an integer in [1, {MAX_SAMPLES}]")
    if not math.isfinite(epsilon) or abs(epsilon) >= 1.0:
        raise ValueError("epsilon must be finite with |epsilon| < 1")
    _check_tau(tau)
    if t2_envelope is not None and not (t2_envelope > 0):
        raise ValueError("t2_envelope must be positive when given")

    spec = ensemble_detuning or default_echo_ensemble(tau, 2 * n_refocus + 1)
    if spec.epsilon_dist != DELTA_ZERO:
        raise ValueError(
            "echo_train takes its amplitude error from epsilon; the ensemble's "
            "epsilon_dist must be DELTA_ZERO"
        )
    _, delta, weights = ensemble_nodes(spec).T
    if n_refocus * delta.size > MAX_MEMBER_ECHOES:
        raise ValueError(f"n_refocus * members exceeds {MAX_MEMBER_ECHOES} member-echoes")
    dist = spec.detuning_dist
    if isinstance(dist, PeriodicUniform):
        # Each echo is a trigonometric polynomial of degree <= 2n in
        # delta * tau, so the midpoint rule over one period 2*pi/tau is
        # exact from 2n + 1 nodes.
        if abs(dist.period * tau - TWO_PI) > 1e-9 * TWO_PI:
            raise ValueError("a periodic detuning rule for echo trains needs a period of 2*pi/tau")
        if spec.nodes < 2 * n_refocus + 1:
            raise ValueError(
                f"a periodic detuning rule is exact for {n_refocus} cycles only with at least "
                f"{2 * n_refocus + 1} nodes, got {spec.nodes}"
            )

    refocus_phase = 0.0 if mode_l == "cp" else math.pi / 2.0
    eps = np.full(delta.shape, float(epsilon))
    cycle = _propagate_nodes(_echo_cycle(refocus_phase, use_bb1, tau), NO_ERROR, eps, delta, IDENTITY)
    a, b, c, d = cycle.reshape(-1, 4).T.copy()  # the entries of each member's C
    psi0 = _rotations(math.pi / 2.0, 0.0, np.zeros(1))[0, :, 0]  # spin-up after the excitation
    u, v = np.full(eps.shape, psi0[0]), np.full(eps.shape, psi0[1])
    rows = min(n_refocus, max(1, _SLICE_MEMBER_ECHOES // eps.size))
    up, down = np.empty((rows, eps.size), complex), np.empty((rows, eps.size), complex)

    samples = []
    for start in range(0, n_refocus, rows):
        count = min(rows, n_refocus - start)
        for j in range(count):
            # both columns are computed before either is stored
            u, v = a * u + b * v, c * u + d * v
            up[j], down[j] = u, v
        # the ideal train keeps every echo on +-y: the signed <sy> of each member
        sy = 2.0 * (np.conj(up[:count]) * down[:count]).imag
        for k, row in enumerate(weights * sy, start=start + 1):
            amp = abs(math.fsum(row.tolist()))
            t_k = 2.0 * tau * k
            if t2_envelope is not None:
                amp *= math.exp(-t_k / t2_envelope)
            samples.append((t_k, amp))

    return Signal(
        axis_label="echo_time",
        axis_unit="s",
        value_label="echo_amplitude",
        samples=samples,
        provenance={
            "experiment": "echo",
            "program": f"{mode_l}{'-bb1' if use_bb1 else ''}(n={n_refocus})",
            "mode": mode_l,
            "n_refocus": n_refocus,
            "epsilon": float(epsilon),
            "use_bb1": bool(use_bb1),
            "tau_s": tau,
            "t2_s": t2_envelope,
            "ensemble": spec.to_dict(),
        },
    )
