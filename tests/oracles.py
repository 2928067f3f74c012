"""Independent reference implementations used to pin expected test values.

Everything here deliberately avoids the package's own composition and
propagation machinery: rotations come from scipy's matrix exponential or
inline closed forms, and the echo-train oracle is a direct step-by-step
2x2 propagation with its own Bloch-projection bookkeeping.
"""

import math
import random

import numpy as np
from scipy.linalg import expm

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def rotation_expm(theta: float, phi: float, epsilon: float = 0.0) -> np.ndarray:
    """Scaling-and-squaring matrix exponential of the rotation generator."""
    n = SX * math.cos(phi) + SY * math.sin(phi)
    return expm(1j * n * theta * (1.0 + epsilon) / 2.0)


def _rot(theta: float, phi: float, epsilon: float = 0.0) -> np.ndarray:
    a = theta * (1.0 + epsilon) / 2.0
    n = SX * math.cos(phi) + SY * math.sin(phi)
    return math.cos(a) * I2 + 1j * math.sin(a) * n


def _zrot(angle: float) -> np.ndarray:
    return np.array(
        [[np.exp(1j * angle / 2.0), 0.0], [0.0, np.exp(-1j * angle / 2.0)]], dtype=complex
    )


def _bloch_xy(psi: np.ndarray) -> tuple[float, float]:
    x = float(np.real(psi.conj() @ (SX @ psi)))
    y = float(np.real(psi.conj() @ (SY @ psi)))
    return x, y


def bb1_phi1(theta: float) -> float:
    return math.acos(-theta / (4.0 * math.pi))


def echo_train_oracle(
    mode: str,
    n: int,
    eps: float,
    use_bb1: bool = False,
    tau: float = 1.0,
    span: float = 4.0 * math.pi,
    nodes: int = 257,
) -> np.ndarray:
    """Brute-force echo amplitudes: detuning average of the signed
    transverse projection onto the zero-error echo axis, with the phase
    ``delta * tau`` uniform on [-span, span].

    When the span is a whole number of periods (``span`` a multiple of
    pi), the average is exact: every echo is a trigonometric polynomial of
    degree <= 2n in the phase, and ``4n + 3`` midpoints of one period
    (more than the 2n + 1 that suffice) give its mean.  Any other span is
    averaged by Gauss-Legendre of order ``nodes``."""
    refphase = 0.0 if mode == "cp" else math.pi / 2.0
    if use_bb1:
        p1 = bb1_phi1(math.pi)
        pulses = [
            (math.pi, refphase),
            (math.pi, refphase + p1),
            (2.0 * math.pi, refphase + 3.0 * p1),
            (math.pi, refphase + p1),
        ]
    else:
        pulses = [(math.pi, refphase)]

    def refocus_matrix(e: float) -> np.ndarray:
        u = I2
        for th, ph in pulses:
            u = _rot(th, ph, e) @ u
        return u

    psi0 = _rot(math.pi / 2.0, 0.0) @ np.array([1.0, 0.0], dtype=complex)

    axes = []
    psi = psi0.copy()
    u0 = refocus_matrix(0.0)
    for _ in range(n):
        psi = u0 @ psi
        x, y = _bloch_xy(psi)
        r = math.hypot(x, y)
        axes.append((x / r, y / r))

    periods = span / math.pi
    if periods >= 1 and abs(periods - round(periods)) <= 1e-12 * periods:
        count = 4 * n + 3
        deltas = [(-math.pi + (j + 0.5) * 2.0 * math.pi / count) / tau for j in range(count)]
        weights = [1.0 / count] * count
    else:
        gl_x, gl_w = np.polynomial.legendre.leggauss(nodes)
        deltas = span / tau * gl_x
        weights = gl_w / 2.0

    ue = refocus_matrix(eps)
    amps = np.zeros(n)
    for delta, w in zip(deltas, weights):
        z = _zrot(delta * tau)
        psi = psi0.copy()
        for k in range(n):
            psi = z @ psi
            psi = ue @ psi
            psi = z @ psi
            x, y = _bloch_xy(psi)
            amps[k] += w * (x * axes[k][0] + y * axes[k][1])
    return np.abs(amps)


def propagate_oracle(
    elements, epsilon: float, offsets, delta: float, psi0: np.ndarray, snapshots=None
) -> np.ndarray:
    """Brute-force 2x2 product for a pulse program, one spin.

    ``offsets`` is a list of ``(nominal_phase, dphi)`` channels; a pulse
    whose phase lies within 1e-9 of a channel picks up its offset.
    Repeats are fully unrolled.  When ``snapshots`` is a list, the state
    at every ``Acquire`` is appended to it in time order.  Elements are
    recognised by type name, so the package's own interpreter is never
    involved."""
    psi = np.array(psi0, dtype=complex)
    for el in elements:
        kind = type(el).__name__
        if kind == "Pulse":
            dphi = next((d for p, d in offsets if abs(p - el.phi) <= 1e-9), 0.0)
            psi = _rot(el.theta, el.phi + dphi, epsilon) @ psi
        elif kind == "Delay":
            psi = _zrot(delta * el.tau) @ psi
        elif kind == "Repeat":
            for _ in range(el.count):
                psi = propagate_oracle(el.body, epsilon, offsets, delta, psi, snapshots)
        elif kind == "Acquire":
            if snapshots is not None:
                snapshots.append(psi.copy())
        else:
            raise TypeError(f"unknown element {el!r}")
    return psi


def gaussian_rabi_closed_form(theta: float, sigma: float) -> float:
    """Gaussian average of -cos((1+eps)*theta): the damped nutation signal."""
    return -math.cos(theta) * math.exp(-0.5 * sigma * sigma * theta * theta)


# ---------------------------------------------------------------------------
# Random program generation for parser round-trip checks
# ---------------------------------------------------------------------------


def random_program(rng: random.Random, max_elements: int = 6, depth: int = 0):
    """A random valid PulseProgram (imports spinpulse lazily to keep this
    module importable before the package is installed)."""
    from spinpulse import Acquire, Delay, Pulse, PulseProgram, Repeat

    def element(level: int):
        kinds = ["pulse", "delay", "acquire"]
        if level < 4:
            kinds.append("repeat")
        kind = rng.choice(kinds)
        if kind == "pulse":
            return Pulse(rng.uniform(0.0, 4.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi))
        if kind == "delay":
            return Delay(10.0 ** rng.uniform(-7.0, 0.0))
        if kind == "acquire":
            return Acquire()
        body = tuple(element(level + 1) for _ in range(rng.randint(1, 3)))
        return Repeat(rng.randint(1, 4), body)

    elements = tuple(element(depth) for _ in range(rng.randint(0, max_elements)))
    return PulseProgram(elements)


# ---------------------------------------------------------------------------
# Sampled ensembles for statistical cross-checks
# ---------------------------------------------------------------------------


def sampled(dist, count: int, seed: int = 0):
    """A ``Discrete`` of ``count`` seeded draws from a ``Gaussian`` or from
    all of a ``Uniform``'s [lo, hi], each weighted ``1 / count``."""
    from spinpulse import Discrete, Gaussian

    rng = np.random.default_rng(seed)
    if isinstance(dist, Gaussian):
        draws = rng.normal(dist.mean, dist.sigma, size=count)
    else:
        draws = rng.uniform(dist.lo, dist.hi, size=count)
    return Discrete(tuple((d, 1.0 / count) for d in draws.tolist()))
