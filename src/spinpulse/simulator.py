"""Time-domain propagation of pulse programs over error ensembles.

Pulses act as instantaneous rotations; a ``Delay(tau)`` advances the
detuning phase (z-rotation by ``delta * tau``); ``Acquire`` marks a
sampling point and leaves the state as it is; a ``Repeat`` propagates its
body once from the identity, then costs one 2x2 product per repetition.
The engine returns only the final block: the experiments take their
samples from their own products of engine propagators.  One
engine interprets every program: it propagates a batch of ensemble
members at once, each carrying a block of columns - one column is a
state, the two columns of the identity are the whole propagator - and
``propagate``, ``rabi_trace``, ``echo_train`` and the analysis
fidelities all run through it (``propagate`` is the one-member batch).
Its pulse matrices come from the one batched rotation formula in
``su2``, and its members are the rows of the ``(N, 3)`` node array from
``errors``.  Ensemble reductions are correctly rounded (``math.fsum``),
so they do not depend on node order and results are bit-identical run to
run.

Experiments:

* ``rabi_trace`` - nutation signal ``-<sz>`` versus nominal drive angle,
  with simple pulses or with long rotations decomposed into corrected
  pi blocks plus a remainder pulse; at most ``MAX_SAMPLES`` samples.
* ``echo_train`` - multi-echo decay for CP (refocusing in phase with the
  excitation) and CPMG (refocusing in quadrature), with optional
  composite refocusing pulses and an optional analytic T2 envelope; at
  most ``MAX_MEMBER_ECHOES`` echoes times members.

Both experiments build their repeated block once on the engine and then
advance by products: ``rabi_trace`` raises the BB1 pi-block propagator
to each gap's power, and ``echo_train`` builds the echo-cycle propagator
and advances every member by one 2x2 product per echo.  An echo train is
taken in slices of at most ``_SLICE_MEMBER_ECHOES`` member-echoes, each
reduced as one array operation before the next is advanced, so a train
never holds more than one slice.

Echo detection is phase-sensitive: the signed projection of each
member's transverse magnetization onto the zero-error echo axis is
ensemble-averaged first, and the magnitude of that average is the echo
amplitude.  Averaging per-member magnitudes instead would hide
dephasing.  The zero-error axis comes from one extra member of the same
batch, free of error and detuning and left out of the average.
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
    Uniform,
    ensemble_nodes,
    monte_carlo_nodes,
)
from .sequence import MAX_REPETITIONS, Acquire, Delay, Pulse, PulseProgram, Repeat, bb1_sequence
from .su2 import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, _rotations

__all__ = [
    "SpinState",
    "Signal",
    "propagate",
    "bloch",
    "rabi_trace",
    "echo_train",
    "DEFAULT_TAU",
    "DEFAULT_DETUNING_SPAN",
    "DEFAULT_DETUNING_NODES",
    "MAX_SAMPLES",
    "MAX_MEMBER_ECHOES",
    "default_echo_ensemble",
]

# Echo-experiment defaults: detuning spread wide enough to fully dephase
# the ensemble between refocusing pulses (span * tau covers 4*pi of
# accumulated phase), sampled densely enough that echo trains up to 32
# cycles at 10% amplitude error are converged well below 1e-6.
DEFAULT_TAU = 1.0
DEFAULT_DETUNING_SPAN = 4.0 * math.pi
DEFAULT_DETUNING_NODES = 257

# Largest number of trace samples (or scan points) accepted: the workloads
# use at most a few hundred, and 1e5 already costs tens of megabytes.
MAX_SAMPLES = 100_000

# Largest n_refocus * members accepted by echo_train.  A train holds at
# most one slice of echoes, so this bounds time, not memory.  Each echo
# is one vectorised step (~7 us at a few members), so a one-member train
# at the bound takes about a minute; at the default 257 nodes the bound
# is 32640 echoes, about a second.
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
    and applied ``count`` times as a running product."""
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
            for _ in range(el.count):
                psi = body @ psi
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


def _nodes_for(spec: EnsembleSpec, mc_samples: Optional[int], mc_seed: int) -> np.ndarray:
    """The (eps, delta, weights) node columns, stacked as rows."""
    if mc_samples is None:
        return ensemble_nodes(spec).T
    return monte_carlo_nodes(spec, mc_samples, mc_seed).T


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
    mc_samples: Optional[int] = None,
    mc_seed: int = 0,
) -> Signal:
    """Nutation signal ``-<sz>`` versus nominal drive angle.

    Samples at ``theta_k = k * step`` up to ``max_angle``.  Each sample
    drives spin-up with either a single pulse of angle ``theta_k`` or,
    when ``use_bb1`` is set, with full corrected pi blocks plus a simple
    remainder pulse, then averages ``-<sz>`` over the ensemble.  The
    convention puts the signal at +1 for an ideal pi rotation.  More
    than ``MAX_SAMPLES`` samples are rejected, and so is a BB1 trace
    whose last sample needs more than ``MAX_REPETITIONS`` pi blocks (the
    bound ``bb1_rabi_program`` enforces through its ``Repeat``).

    Sample ``theta_k = n*pi + r`` runs ``bb1_rabi_program(n, r)`` (``n = 0``
    for simple pulses) as ``B**n R(r)``, with ``B`` the BB1 pi-block
    propagator built once per call.  ``n`` never decreases along the
    trace, so ``B**n`` is a running product: a gap of ``g`` new blocks
    multiplies it by ``B**g``, raised by squaring (``np.linalg.matrix_power``,
    which returns ``B`` itself for ``g = 1``), so a trace costs
    O(K log n) products.
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
    eps, delta, weights = _nodes_for(ensemble, mc_samples, mc_seed)
    psi0 = SpinState.spin_up().vector[:, None]
    block = _propagate_nodes(bb1_sequence(math.pi), NO_ERROR, eps, delta, IDENTITY)
    power, blocks = IDENTITY, 0

    samples = []
    for theta, n in zip(thetas, ns):
        remainder = theta - n * math.pi
        if n > blocks:
            power, blocks = np.linalg.matrix_power(block, n - blocks) @ power, n
        final = power @ (_rotations(remainder if remainder > 1e-15 else 0.0, 0.0, eps) @ psi0)
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
            "monte_carlo": None if mc_samples is None else {"samples": mc_samples, "seed": mc_seed},
        },
    )


# ---------------------------------------------------------------------------
# CP / CPMG echo trains
# ---------------------------------------------------------------------------


def _check_tau(tau: float) -> None:
    if not (tau > 0) or not math.isfinite(tau):
        raise ValueError("tau must be positive")


def default_echo_ensemble(tau: float = DEFAULT_TAU, nodes: int = DEFAULT_DETUNING_NODES) -> EnsembleSpec:
    """Uniform detuning ensemble spanning ``DEFAULT_DETUNING_SPAN / tau``;
    ``tau`` must be finite and positive."""
    _check_tau(tau)
    span = DEFAULT_DETUNING_SPAN / tau
    return EnsembleSpec(
        epsilon_dist=DELTA_ZERO, detuning_dist=Uniform(-span, span), nodes=nodes
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
    mc_samples: Optional[int] = None,
    mc_seed: int = 0,
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
    ``DELTA_ZERO`` is rejected before any node is built.

    Echo amplitude k is the magnitude of the ensemble-averaged signed
    projection onto the zero-error echo axis, optionally multiplied by
    ``exp(-t_k / t2_envelope)`` with ``t_k = 2 * tau * k``.  A train whose
    ``n_refocus`` times the member count (ensemble nodes or Monte Carlo
    samples) exceeds ``MAX_MEMBER_ECHOES`` is rejected before propagation.

    The cycle ``tau - refocusing pulse - tau`` runs once on the engine,
    from the identity, for its propagator ``C`` at every member; echo k is
    ``C`` applied to echo k-1, one 2x2 product per member and echo.  The
    echoes are taken in slices of at most ``_SLICE_MEMBER_ECHOES``
    member-echoes, and each slice is reduced before the next is advanced,
    so memory does not grow with ``n_refocus``.  The samples equal, bit
    for bit, those reduced one by one from the running product
    ``psi_k = C @ psi_(k-1)`` of the engine's cycle propagator.
    """
    mode_l = str(mode).lower()
    if mode_l not in ("cp", "cpmg"):
        raise ValueError(f"mode must be 'cp' or 'cpmg', got {mode!r}")
    if not isinstance(n_refocus, int) or n_refocus < 1:
        raise ValueError("n_refocus must be an integer >= 1")
    if not math.isfinite(epsilon) or abs(epsilon) >= 1.0:
        raise ValueError("epsilon must be finite with |epsilon| < 1")
    _check_tau(tau)
    if t2_envelope is not None and not (t2_envelope > 0):
        raise ValueError("t2_envelope must be positive when given")

    spec = ensemble_detuning if ensemble_detuning is not None else default_echo_ensemble(tau)
    if spec.epsilon_dist != DELTA_ZERO:
        raise ValueError(
            "echo_train takes its amplitude error from epsilon; the ensemble's "
            "epsilon_dist must be DELTA_ZERO"
        )
    _, delta, weights = _nodes_for(spec, mc_samples, mc_seed)
    if n_refocus * delta.size > MAX_MEMBER_ECHOES:
        raise ValueError(f"n_refocus * members exceeds {MAX_MEMBER_ECHOES} member-echoes")

    refocus_phase = 0.0 if mode_l == "cp" else math.pi / 2.0
    # One extra member, free of error and detuning, fixes each echo's
    # detection axis; it stays out of the ensemble average.
    eps = np.append(np.full(delta.shape, float(epsilon)), 0.0)
    cycle = _propagate_nodes(
        _echo_cycle(refocus_phase, use_bb1, tau), NO_ERROR, eps, np.append(delta, 0.0), IDENTITY
    )
    a, b, c, d = cycle.reshape(-1, 4).T.copy()  # the entries of each member's C
    psi0 = _rotations(math.pi / 2.0, 0.0, np.zeros(1))[0] @ SpinState.spin_up().vector[:, None]
    u, v = np.full(eps.shape, psi0[0, 0]), np.full(eps.shape, psi0[1, 0])
    rows = min(n_refocus, max(1, _SLICE_MEMBER_ECHOES // eps.size))
    up, down = np.empty((rows, eps.size), complex), np.empty((rows, eps.size), complex)

    samples = []
    for start in range(0, n_refocus, rows):
        count = min(rows, n_refocus - start)
        for j in range(count):
            # both columns are computed before either is stored
            u, v = a * u + b * v, c * u + d * v
            up[j], down[j] = u, v
        cross = np.conj(up[:count]) * down[:count]
        bx, by = 2.0 * cross.real, 2.0 * cross.imag
        r = np.hypot(bx[:, -1:], by[:, -1:])
        proj = bx[:, :-1] * (bx[:, -1:] / r) + by[:, :-1] * (by[:, -1:] / r)
        for k, row in enumerate(weights * proj, start=start + 1):
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
            "monte_carlo": None if mc_samples is None else {"samples": mc_samples, "seed": mc_seed},
        },
    )
