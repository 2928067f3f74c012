"""Time-domain propagation of pulse programs over error ensembles.

Pulses act as instantaneous rotations; a ``Delay(tau)`` advances the
detuning phase (z-rotation by ``delta * tau``); an ``Acquire`` leaves the
state as it is and nothing reads it; a ``Repeat`` propagates its body
once and raises it to its count by squaring.  One engine interprets
every program: it runs a batch of ensemble members at once from the
identity and returns only their final propagators, and ``propagate``,
``rabi_trace``, ``echo_train`` and the analysis fidelities all run
through it.  A propagator is its Cayley-Klein pair ``(a, b)``, the first
row of ``[[a, b], [-conj(b), conj(a)]]``: pairs compose in four complex
products (``_compose``), and one power rule (``_power``) raises a
``Repeat`` and a Rabi trace's BB1 block.  States and matrices appear
only at the public boundary (``propagate``); the experiments read their
samples from pairs.  Its pulse pairs come from the one batched rotation
formula in ``su2``, and its members are the rows of
``errors.ensemble_nodes``, the one member representation.  Ensemble
reductions are correctly rounded, each the value ``math.fsum`` returns
(``_weighted_sums``: ``math.fsum`` per row on small blocks, certified
error-free extraction in numpy on large ones), so they do not depend on
node order and results are bit-identical run to run; only the
rotation-error fit's grid, which ranks and returns nothing, takes plain
sums with a bound on their distance from the correctly rounded ones.

Experiments:

* ``rabi_trace`` - nutation signal ``-<sz>`` versus nominal drive angle,
  with simple pulses or with long rotations decomposed into corrected
  pi blocks plus a remainder pulse; at most ``MAX_SAMPLES`` samples.
* ``echo_train`` - multi-echo decay for CP (refocusing in phase with the
  excitation) and CPMG (refocusing in quadrature), with optional
  composite refocusing pulses and an optional analytic T2 envelope; at
  most ``MAX_SAMPLES`` echoes and ``MAX_MEMBER_ECHOES`` member-echoes.
  Its default detuning line is its own (``_EchoLine``): the midpoint
  rule on n + 1 members of the half period ``pi/tau``, exact for n
  cycles, of which a simple refocusing pulse runs only the nonnegative
  half.

Both experiments are block kernels: they build their repeated block once
on the engine and then advance by products.  ``rabi_trace`` raises the
BB1 pi-block pair to each new block count by the power rule, takes the
remainder rotations of many samples in one batched ``_rotations`` call,
keeps their images of spin-up, and advances each run of samples that
share a block count by its power.  The echo kernel
(``_echo_amplitudes``) builds the echo-cycle pair once and reads each
member's echoes in closed form from one phase rotor, one complex
product per member and echo; it runs a block of amplitude errors at
once (every error with every detuning node), so the rotation error fit
runs its grid and each refinement step as one call, and ``echo_train``
is its one-error case.
Both take their samples or echoes in slices of at most
``_SLICE_MEMBER_ECHOES`` member-samples, and reduce each slice to one
correctly rounded sum per row (``_weighted_sums``; the fit's grid takes
bounded plain sums), before the next is advanced, so a block never holds
more than one slice.  A slice of at least ``_EXTRACTED_SUM_MIN_PRODUCTS``
products (a 41-node Rabi slice of 99 samples) is reduced by three exact
extraction passes and a certificate, which hands back to ``math.fsum``
only the rows it cannot prove; smaller slices (a fit's blocks at n 16
and 32) take one ``math.fsum`` per row.  A trace costs one numpy round
per slice, plus a BB1 trace's one product per block count: two slices
for the 161 samples of a 41-node trace to 40 pi.

Echo detection is phase-sensitive, at the phase the ideal sequence
sets: the ideal CP or CPMG train (simple or BB1 pi pulses) keeps every
echo on +-y, so each member's signed ``<sy>`` is ensemble-averaged
first, and the magnitude of that average is the echo amplitude.
Averaging per-member magnitudes instead would hide dephasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import Literal, Optional

import numpy as np

from .errors import (
    DELTA_ZERO,
    EnsembleSpec,
    ErrorModel,
    NO_ERROR,
    ensemble_nodes,
)
from .sequence import MAX_REPETITIONS, Delay, Pulse, PulseProgram, Repeat, bb1_sequence
from .su2 import _rotations

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
]

# Echo-experiment defaults: detuning spread wide enough to fully dephase
# the ensemble between refocusing pulses (span * tau covers 4*pi of
# accumulated phase, four whole periods of delta * tau), averaged by the
# periodic midpoint rule of _EchoLine, which is exact for n-cycle trains
# with at least n + 1 nodes of the half period; echo_train without an
# ensemble takes n + 1, and runs ceil((n + 1) / 2) for simple pulses.
DEFAULT_TAU = 1.0
DEFAULT_DETUNING_SPAN = 4.0 * math.pi

# Largest number of trace samples, echoes or scan points accepted: the
# workloads use at most a few hundred, and 1e5 already costs 14-21 MB
# traced (a 41-node Rabi trace 15-18 MB, a one-member echo train 14 MB, a
# scan 21 MB), mostly the Python sample lists: the sliced trace and echo
# kernels hold one slice at a time.
MAX_SAMPLES = 100_000

# Largest n_refocus * members accepted by echo_train, and so by the
# rotation-error fit on its default line, counted on the members a train
# runs.  A train's propagation holds at most one slice of echoes, so this
# bounds time, not memory; it is the bound an exact default train meets
# first: n <= 4095 with simple pulses (ceil((n + 1) / 2) members, the fit's
# limit too) and n <= 2895 with BB1 blocks (n + 1 members).
MAX_MEMBER_ECHOES = 2**23

# Kept member-echoes (member-samples for a Rabi trace) per slice of a
# block: the echo slice buffer holds one complex rotor power per kept
# member-echo (16 B, 64 kB a slice), plus the slice's reduction.  A fit's
# 31-error grid (31 x 17 members at n = 32) peaks at 0.21 MB traced (2.8 MB
# with slices of 2^15, at the same speed).  A Rabi trace slice keeps the
# pairs of its rotations, 24 B per member-sample (32 B once composed with a
# BB1 power): a 41-node BB1 trace peaks at 0.25 MB traced.
_SLICE_MEMBER_ECHOES = 2**12

# Products per block from which _weighted_sums reduces by certified
# error-free extraction instead of one math.fsum per row.  The extraction
# costs ~35 us a call plus little per product; math.fsum costs per row and
# per term.  They break even at 1000-1100 products on the echo line's
# equal-weight rows (9-33 members) and at ~650 on 41 Gauss-Hermite-weighted
# nodes; a 99 x 41 Rabi slice takes 54 us against 241 us, a fit's largest
# block (48 x 17) 49 us against 36 us (BENCH_exact_sums.json, Python 3.11.7,
# numpy 2.4.6, one BLAS thread).
_EXTRACTED_SUM_MIN_PRODUCTS = 1000


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
        up, down = self._v.tolist()  # Python complex values: the repr needs no numpy
        return f"SpinState({up!r}, {down!r})"


def bloch(state: SpinState) -> np.ndarray:
    """Bloch vector (<sx>, <sy>, <sz>) of a state, read from its amplitudes
    ``u, d`` as ``2 Re(conj(u) d)``, ``2 Im(conj(u) d)`` and
    ``|u|^2 - |d|^2``, the closed forms the echo and Rabi kernels read."""
    u, d = state.vector
    ud = np.conj(u) * d
    return np.array([2.0 * ud.real, 2.0 * ud.imag, abs(u) ** 2 - abs(d) ** 2])


@dataclass(frozen=True)
class Signal:
    """Sampled experiment output with axis metadata and provenance.

    Frozen: ``samples``, finite with ``x`` strictly increasing, is checked
    once and kept as a tuple of ``(x, y)`` tuples.  An edited copy is
    ``dataclasses.replace(signal, samples=...)``, which checks it again."""

    axis_label: str
    axis_unit: str
    value_label: str
    samples: tuple[tuple[float, float], ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        samples, last = [], -math.inf
        for sample in self.samples:
            x, y = sample = tuple(sample)  # a tuple is kept, not copied
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError("sample x and y values must be finite")
            if x <= last:
                raise ValueError("sample x values must be strictly increasing")
            samples.append(sample)
            last = x
        object.__setattr__(self, "samples", tuple(samples))

    @property
    def x(self) -> np.ndarray:
        return np.array([x for x, _ in self.samples])

    @property
    def values(self) -> np.ndarray:
        return np.array([y for _, y in self.samples])


# ---------------------------------------------------------------------------
# Vectorized propagation over ensemble nodes
# ---------------------------------------------------------------------------


def _propagate_nodes(elements, error: ErrorModel, eps: np.ndarray, delta: np.ndarray):
    """The Cayley-Klein pairs ``(a, b)`` of a program's propagators, one per
    node, run from the identity.  A ``Repeat`` body is propagated once and
    raised to ``count`` by squaring (``_power``).  ``eps`` and ``delta``
    broadcast: an (E, 1) column of amplitude errors against M detunings
    gives the (E, M) pairs of every error with every detuning, each pulse
    built once per error and each delay once per detuning."""
    a, b = np.ones(eps.shape, complex), np.zeros(eps.shape, complex)
    for el in elements:
        if isinstance(el, Pulse):
            a, b = _compose(*_rotations(el.theta, el.phi + error.offset_for(el.phi), eps), a, b)
        elif isinstance(el, Delay):
            phase = np.exp(0.5j * delta * el.tau)
            a, b = a * phase, b * phase
        elif isinstance(el, Repeat):
            a, b = _power(*_propagate_nodes(el.body, error, eps, delta), el.count, a, b)
    return a, b


def _compose(a2, b2, a1, b1):
    # the pair of U2 @ U1: four complex products, where the 2x2 product takes eight
    return a2 * a1 - b2 * np.conj(b1), a2 * b1 + b2 * np.conj(a1)


def _power(a, b, k: int, a0, b0):
    """The pair of ``U**k @ U0`` for the pairs ``(a, b)`` of ``U`` and
    ``(a0, b0)`` of ``U0``, ``k >= 1``: ``U**k`` is raised by squaring, so
    it costs O(log k) products."""
    while True:
        if k & 1:
            a0, b0 = _compose(a, b, a0, b0)
        k >>= 1
        if not k:
            return a0, b0
        a, b = _compose(a, b, a, b)


def propagate(
    program: PulseProgram,
    e: ErrorModel = NO_ERROR,
    delta: float = 0.0,
    initial: Optional[SpinState] = None,
) -> SpinState:
    """Apply a program to one spin: rotations per pulse (with the error
    model applied), z-rotation by ``delta * tau`` per delay.

    ``Acquire`` markers leave the state as it is.  The engine's one-member
    propagator is applied to ``initial`` (default spin-up) and renormalized.
    """
    up, down = (initial if initial is not None else SpinState.spin_up()).vector
    a, b = _propagate_nodes(program.elements, e, np.array([e.epsilon]), np.array([float(delta)]))
    v = np.concatenate([a * up + b * down, np.conj(a) * down - np.conj(b) * up])
    return SpinState.from_vector(v / np.linalg.norm(v))


def _weighted_sums(weights: np.ndarray, rows: np.ndarray) -> list[float]:
    # One correctly rounded sum of weights * row per row, math.fsum's value,
    # so no result depends on node order: from _EXTRACTED_SUM_MIN_PRODUCTS
    # products by certified extraction (_extracted_sums); below it, or when
    # the largest term is not finite or lies outside [2**-800, 2**800] (so
    # every value and exception is math.fsum's own), one math.fsum per row.
    # Kept out of the kernels' long frames: under tracemalloc each float of
    # the list is charged a scan of its frame's line table.
    products = weights * rows
    if products.size >= _EXTRACTED_SUM_MIN_PRODUCTS:
        top = float(np.abs(products).max())
        if 2.0**-800 <= top <= 2.0**800:  # finite, and no pass under- or overflows
            return _extracted_sums(products, top)
    return list(map(math.fsum, products.tolist()))


def _extracted_sums(products: np.ndarray, top: float) -> list[float]:
    """``math.fsum`` of each row of the 2-D ``products``, whose largest
    magnitude ``top`` lies in [2**-800, 2**800], by error-free extraction
    (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1), 189 and 31(2), 1269
    (2008)).

    For a power of two ``sigma >= 2 M max|p|`` over the M terms of a row,
    ``high = (p + sigma) - sigma`` is exact, a multiple of ``2**-53 sigma``,
    and leaves ``p - high`` exact with ``|p - high| <= 2**-53 sigma``; the
    highs of a row sum to at most ``sigma`` in magnitude, so every partial
    sum is exact, and so is the row's sum in any order.  Three passes, each
    with ``sigma`` shrunk by ``grow = 2**(53 - shift) <= 1 / (2 M 2**-53)``,
    split a row's sum exactly into ``t1 + t2 + t3 + tail``, ``|tail| <= M
    2**-53 sigma_3``.  TwoSum turns ``t1 + t2`` into ``r + e`` and ``r +
    l``, ``l = fl(e + t3)``, into ``s + d``, both exactly, so the row sum
    lies within ``2**-53 |l| + M 2**-53 sigma_3`` of ``s + d``, which
    ``err`` more than doubles.  Where ``s + d +- err`` lies strictly inside
    the rounding cell of ``s``, measured to each neighbour with
    ``np.nextafter``, the row sum rounds to ``s``, which is then
    ``math.fsum``'s value.  Every other row, exact zeros (so their signs)
    included, since the cell of 0 is narrower than ``err``, is reduced by
    ``math.fsum``."""
    members = products.shape[-1]
    shift = (2 * members - 1).bit_length()  # 2**shift >= 2 M
    sigma = math.ldexp(1.0, math.frexp(top)[1] + shift)  # > 2 M top
    rest, highs = products.copy(), np.empty((3, *products.shape))
    for high in highs:
        np.add(rest, sigma, out=high)
        high -= sigma
        rest -= high
        sigma = math.ldexp(sigma, shift - 53)  # sigma / grow
    # multiplying by 1.0 is exact, so a product with ones sums too
    t1, t2, t3 = (highs.reshape(-1, members) @ np.ones(members)).reshape(3, -1)
    r = t1 + t2
    z = r - t1
    low = ((t1 - (r - z)) + (t2 - z)) + t3
    s = r + low
    z = s - r
    d = (r - (s - z)) + (low - z)
    err = 2.0 * (2.0**-52 * np.abs(low) + members * sigma)  # sigma_3 / grow >= 2 M 2**-53 sigma_3
    sure = (d + err < 0.5 * (np.nextafter(s, np.inf) - s)) & (
        d - err > 0.5 * (np.nextafter(s, -np.inf) - s)
    )
    sums = s.tolist()
    if not sure.all():
        for i in np.flatnonzero(~sure).tolist():
            sums[i] = math.fsum(products[i].tolist())
    return sums


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
    pair built once per call.  ``n`` never decreases along the trace, so
    ``B**n`` is a running product: a gap of ``g`` new blocks multiplies it
    by ``B**g``, raised by squaring as a ``Repeat`` is (``_power``), so K
    samples reaching n blocks cost O(K log n) pair products per member.

    The samples run as a block, in slices of at most
    ``_SLICE_MEMBER_ECHOES`` member-samples (at least one sample each).
    A slice's remainder rotations are one batched ``_rotations`` call of
    pairs ``(cos h, i sin h)``, ``h = r(1+eps)/2``, each also its
    rotation's image of spin-up; each run of samples that share a
    block count is composed in place with the running power; and
    ``-<sz> = |b|^2 - |a|^2`` of each pair is reduced to each sample's
    correctly rounded sum (``_weighted_sums``: a slice of at least
    ``_EXTRACTED_SUM_MIN_PRODUCTS`` member-samples, such as 99 samples on
    41 nodes, by certified error-free extraction, whose every sample is
    ``math.fsum``'s value; a smaller one by ``math.fsum`` per sample).
    Each sample equals, bit for bit, the power composed with ``R(r)``'s
    pair and reduced by ``math.fsum`` for that sample alone, and a trace
    costs one numpy round per slice, plus one product per block count
    when ``use_bb1`` is set.
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
    block = _propagate_nodes(bb1_sequence(math.pi), NO_ERROR, eps, delta) if use_bb1 else None
    power, blocks = (1.0, 0.0), 0  # the pair of B**n
    rows = max(1, _SLICE_MEMBER_ECHOES // eps.size)

    samples = []
    for start in range(0, len(thetas), rows):
        stop = start + rows
        remainders = (theta - n * math.pi for theta, n in zip(thetas[start:stop], ns[start:stop]))
        r = [x if x > 1e-15 else 0.0 for x in remainders]
        # the image of spin-up of a pair (u, v) is its matrix's first column (u, -conj(v))
        u, v = _rotations(np.array(r)[:, None], 0.0, eps)
        if block is not None:
            u, i = u.astype(complex), 0
            for n, run in groupby(ns[start:stop]):
                if n > blocks:
                    power, blocks = _power(*block, n - blocks, *power), n
                j = i + len(list(run))
                u[i:j], v[i:j] = _compose(*power, u[i:j], v[i:j])
                i = j
        sz = np.abs(u) ** 2 - np.abs(v) ** 2
        del u, v  # the slice's pairs are not held through its reduction
        samples.extend(zip(thetas[start:stop], _weighted_sums(weights, -sz)))

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


@dataclass(frozen=True)
class _EchoLine:
    """The default detuning line of an echo train: uniform over
    ``DEFAULT_DETUNING_SPAN / tau``, four whole periods ``2*pi/tau`` of
    every echo, so its mean is the mean over one period.  A delay only
    multiplies ``a`` of the cycle pair by ``exp(i delta tau / 2)``, so
    ``delta tau -> delta tau + pi`` turns the cycle into ``-Rz(pi) C
    Rz(pi)^dagger``, which maps +y to -y and back: every echo has period
    ``pi/tau``, a trigonometric polynomial of degree at most n in ``2 delta
    tau``.  The n-point midpoint rule on the central half period, each node
    weighted 1/n, is exact below degree n.  When ``even`` (echoes even in
    ``delta``, as with a simple refocusing pulse), the rule keeps its
    ``ceil(n / 2)`` nonnegative midpoints, each weighted 2/n but a centre
    node 1/n: the same mean on every even function."""

    tau: float
    even: bool = False

    def quadrature(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Midpoints of the central half period and their weights."""
        values = (math.pi / self.tau) * ((np.arange(n) + 0.5) / n - 0.5)
        if not self.even:
            return values, np.full(n, 1.0 / n)
        weights = np.full(n - n // 2, 2.0 / n)
        if n % 2:
            weights[0] = 1.0 / n  # the centre node, its own mirror
        return values[n // 2 :], weights

    def to_dict(self) -> dict:
        span = DEFAULT_DETUNING_SPAN / self.tau
        return {"kind": "uniform", "lo": -span, "hi": span, "rule": "periodic_midpoint", "periods": 4}


def _echo_cycle(refocus_phase: float, use_bb1: bool, tau: float):
    if use_bb1:
        pulses = tuple(bb1_sequence(math.pi, axis_phase=refocus_phase))
    else:
        pulses = (Pulse(math.pi, refocus_phase),)
    return (Delay(tau), *pulses, Delay(tau))


# Phase of the refocusing pulses: CP refocuses about x, CPMG about y.
_REFOCUS_PHASE = {"cp": 0.0, "cpmg": math.pi / 2.0}


def _echo_nodes(
    n_refocus: int, tau: float, spec: Optional[EnsembleSpec] = None, use_bb1: bool = False
) -> tuple[EnsembleSpec, np.ndarray, np.ndarray]:
    """The line, detuning nodes and weights of an ``n_refocus``-cycle train
    on ``spec`` (default: the exact default line of a train with simple or,
    when ``use_bb1``, BB1 refocusing pulses), after the bounds every
    train meets before any work: at most ``MAX_SAMPLES`` echoes, a finite
    positive ``tau``, no amplitude-error distribution, and at most
    ``MAX_MEMBER_ECHOES`` member-echoes, counted on the members it runs."""
    if type(n_refocus) is not int or not 1 <= n_refocus <= MAX_SAMPLES:
        raise ValueError(f"n_refocus must be an integer in [1, {MAX_SAMPLES}]")
    if not (tau > 0) or not math.isfinite(tau):
        raise ValueError("tau must be positive")
    # n + 1 midpoints of the half period give every echo's mean exactly.  CP's
    # mirror x -> -x and CPMG's C2 about y fix the +y start and the y readout,
    # so a simple refocusing pulse's echoes are even in delta; a BB1 block's
    # are not
    spec = spec or EnsembleSpec(DELTA_ZERO, _EchoLine(tau, even=not use_bb1), nodes=n_refocus + 1)
    if spec.epsilon_dist != DELTA_ZERO:
        raise ValueError(
            "echo_train takes its amplitude error from epsilon; the ensemble's "
            "epsilon_dist must be DELTA_ZERO"
        )
    _, delta, weights = ensemble_nodes(spec).T
    if n_refocus * delta.size > MAX_MEMBER_ECHOES:
        raise ValueError(f"n_refocus * members exceeds {MAX_MEMBER_ECHOES} member-echoes")
    return spec, delta, weights


def _echo_amplitudes(
    refocus_phase: float,
    n: int,
    eps_values: np.ndarray,
    delta: np.ndarray,
    weights: np.ndarray,
    use_bb1: bool,
    tau: float,
    stride: int = 1,
    bounded: bool = False,
):
    """Echo amplitudes, before any T2 envelope, of echoes ``stride``,
    ``2 * stride``, ... of an ``n``-cycle train at every amplitude error in
    ``eps_values``: row ``e`` of the ``(E, n // stride)`` result is the
    train at ``eps_values[e]`` on the detuning nodes ``delta`` with
    ``weights``, keeping only the echoes its caller reads (the fit reads
    the even echoes, ``stride = 2``; ``echo_train`` reads all).

    The E * M members run as one block: the cycle pair ``(a, b)`` is built
    once on the engine over the (E, 1) x (1, M) grid of errors and
    detunings, and each member's echoes are read from it in closed form.
    Both are 2-D, so no product pairs a (1, 1) array with a 1-D one, which
    numpy rounds without a fused multiply-add: a one-member train would
    then differ from its row in a block.
    The cycle rotates the Bloch vector by ``2 alpha``, ``cos alpha = Re a``
    and ``sin alpha = sqrt((Im a)**2 + |b|**2)``, about an axis whose y
    component ``n_y`` has ``r = 1 - n_y**2 = ((Im a)**2 + (Im b)**2) /
    sin(alpha)**2`` (0 where ``sin alpha = 0``).  The ideal excitation
    leaves the Bloch vector on +y, so by Rodrigues' formula echo k has
    ``<sy> = 1 - r (1 - Re z**k)`` with the rotor ``z = (Re a + i sin
    alpha)**2 = exp(2i alpha)``, and ``z**k`` is one complex product per
    member and echo, kept or not.  Against a 40-digit evaluation of the
    same inputs, no echo of an n-echo train missed by more than about
    ``n * 2**-53`` (n up to 20000, near-identity cycles included).  The
    kept echoes are taken in slices of at most ``_SLICE_MEMBER_ECHOES``
    member-echoes, and each slice is reduced before the next is advanced,
    so only the returned array grows with ``n``.  Each member's arithmetic
    does not depend on the others or on ``stride``, so a row equals, bit
    for bit, the kept echoes of the train run at that amplitude error
    alone.

    A slice is reduced to one correctly rounded sum (``math.fsum``'s value,
    ``_weighted_sums``) per kept echo and amplitude error, by ``math.fsum``
    below ``_EXTRACTED_SUM_MIN_PRODUCTS`` products (a fit's blocks at n 16
    and 32 hold at most 48 x 17) and by certified error-free extraction
    from it; or, when ``bounded`` (the fit's grid, which only ranks), by
    the plain weighted sum ``flat @ weights`` of its signed ``<sy>`` rows.
    Then the result is the pair ``(amps, beta)`` of plain amplitudes and
    bounds, and each ``math.fsum`` amplitude lies in ``amps +- beta``, for
    any order BLAS sums in: ``beta = 2 (M + 3) 2**-53 (|flat| @ |weights|)`` covers
    the dot product's ``gamma_M`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., 2002, section 3.1), the rounding of
    each product, which ``math.fsum`` adds exactly, and its final
    rounding; the factor 2 covers the rounding of ``beta`` and of the
    ends ``amps +- beta``.
    """
    count_eps, members = eps_values.size, delta.size
    cycle = _echo_cycle(refocus_phase, use_bb1, tau)
    a, b = (x.ravel() for x in _propagate_nodes(cycle, NO_ERROR, eps_values[:, None], delta[None]))
    tilt = a.imag * a.imag + b.imag * b.imag  # sin(alpha)**2 (1 - n_y**2)
    sin2 = tilt + b.real * b.real
    r = np.divide(tilt, sin2, out=np.zeros_like(sin2), where=sin2 > 0.0)
    z = np.empty_like(a)
    z.real, z.imag = a.real * a.real - sin2, 2.0 * a.real * np.sqrt(sin2)
    del a, b, tilt, sin2  # not held through the echo loop, where the block peaks
    kept = n // stride
    rows = max(1, min(kept, _SLICE_MEMBER_ECHOES // z.size))
    powers, power = np.empty((rows, z.size), complex), np.ones(z.size, complex)

    sums, scales = np.empty((kept, count_eps)), np.empty((kept, count_eps))
    for start in range(0, kept, rows):
        count = min(rows, kept - start)
        for j in range(count):
            for _ in range(stride):
                power = np.multiply(power, z, out=powers[j])
        # the ideal train keeps every echo on +-y: the signed <sy> of each member
        flat = (1.0 - r * (1.0 - powers[:count].real)).reshape(-1, members)
        if bounded:
            sums[start : start + count] = (flat @ weights).reshape(count, count_eps)
            scales[start : start + count] = (np.abs(flat) @ np.abs(weights)).reshape(
                count, count_eps
            )
        else:
            sums[start : start + count] = np.reshape(
                _weighted_sums(weights, flat), (count, count_eps)
            )
    if bounded:
        return np.abs(sums.T), (2.0 * (members + 3) * 2.0**-53) * scales.T
    return np.abs(sums.T)


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
    ``DELTA_ZERO`` is rejected before any node is built.  The default line
    spans four whole periods ``2*pi/tau``; every echo has period ``pi/tau``
    in ``delta``, so the line is averaged by the midpoint rule on
    ``n_refocus + 1`` members of the half period, the fewest whose mean is
    exact, recorded as ``periodic_midpoint``.  With a simple refocusing
    pulse every echo is also even in ``delta``, and the train runs only the
    ``ceil((n_refocus + 1) / 2)`` nonnegative midpoints, their weights
    doubled but a centre node's; a BB1 block's echoes are not even, and its
    train runs all ``n_refocus + 1``.  A sampled line is a ``Discrete``
    detuning distribution of equal-weight draws.

    Echo amplitude k is the magnitude of the ensemble average of each
    member's signed ``<sy>``, the axis on which the ideal train keeps its
    echoes, optionally multiplied by ``exp(-t_k / t2_envelope)`` with
    ``t_k = 2 * tau * k``.  A train of more than ``MAX_SAMPLES`` echoes, or
    of more than ``MAX_MEMBER_ECHOES`` echoes times the members it runs, is
    rejected before propagation.

    The train is the one-row case of the echo kernel (``_echo_amplitudes``):
    the cycle ``tau - refocusing pulse - tau`` runs once on the engine, from
    the identity, for its pair at every member, and echo k is read from that
    pair's rotation in closed form: ``<sy> = 1 - r (1 - Re z**k)``, with the
    rotor ``z = exp(2i alpha)`` of the cycle's rotation angle ``2 alpha`` and
    ``r = 1 - n_y**2`` of its axis (Rodrigues' formula), ``z**k`` advanced by
    one complex product per echo and taken in slices of bounded size.  Each
    echo lies within ``8 (k + 1) 2**-53 + k eta`` of the one reduced from
    the running product ``psi_k = C @ psi_(k-1)`` of the cycle matrix ``C``,
    where ``eta`` is the largest ``| |a|**2 + |b|**2 - 1 |``: the product
    scales a state's squared norm by that factor per echo, which the rotor
    leaves out on the echo axis (measured, on trains up to 2500 echoes and
    on cycles near the identity).
    """
    mode_l = str(mode).lower()
    if mode_l not in _REFOCUS_PHASE:
        raise ValueError(f"mode must be 'cp' or 'cpmg', got {mode!r}")
    ErrorModel(epsilon)  # the amplitude-error domain, |epsilon| < 1
    if t2_envelope is not None and not (t2_envelope > 0):
        raise ValueError("t2_envelope must be positive when given")
    spec, delta, weights = _echo_nodes(n_refocus, tau, ensemble_detuning, use_bb1)

    amps = _echo_amplitudes(
        _REFOCUS_PHASE[mode_l], n_refocus, np.array([float(epsilon)]), delta, weights, use_bb1, tau
    )
    samples = []
    for k, amp in enumerate(amps[0].tolist(), start=1):
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
