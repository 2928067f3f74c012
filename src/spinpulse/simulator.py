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
keeps their images of spin-up, and composes them, a slice at a time,
with a table of the slice's block powers in one product.  The echo kernel
(``_echo_amplitudes``) runs one cycle, one rotor and a readout per
mode: CPMG shifts every refocusing phase by pi/2 and every delay is a
z-rotation, so the CPMG cycle is the CP cycle conjugated by Rz(pi/2),
with the same rotation angle.  The kernel builds the CP cycle pair
once, advances each member's phase rotor by one complex product per
echo, and reads each mode's echoes from it in closed form, with that
mode's readout weight.  It runs a block of amplitude errors at once
(every error with every detuning node) and of modes, so the rotation
error fit runs its grid and each refinement step, CP and CPMG, as one
call, and ``echo_train`` is its one-error, one-mode case.
Both cut their block by one slice rule (``_slices``) and reduce each
slice to one correctly rounded sum per row (``_weighted_sums``; the
fit's grid takes bounded plain sums) before the next is advanced, so a
block never holds more than one slice; ``rabi_trace`` and
``_echo_amplitudes`` state their slice shapes and reductions.

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
    ensemble_nodes,
)
from .sequence import MAX_REPETITIONS, Delay, Pulse, PulseProgram, Repeat, bb1_sequence
from .su2 import UNITARITY_TOL, _rotations

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

# Most kept member-echoes (member-samples for a Rabi trace) per slice of a
# block, which _slices cuts into the fewest such slices of near-equal size:
# the echo slice buffer holds one complex rotor power per kept member-echo
# (16 B, at most 64 kB a slice), plus each mode's signed <sy> of the slice
# and its reduction.  A fit's 31-error grid at n = 32 (16 kept echoes of
# 31 x 17 members, CP and CPMG, sliced 5 + 5 + 6) peaks at 0.31 MB traced.
# A Rabi trace slice keeps the pairs of its rotations, 24 B per
# member-sample; a BB1 slice peaks in its one _compose at 128 B per
# member-sample (the rotation pair and the gathered power pair, 64 B, and
# the product's pair and temporaries, 64 B): a 41-node BB1 trace to 40 pi
# (80 + 81 samples) peaks at 0.44 MB traced.
_SLICE_MEMBER_ECHOES = 2**12

# Products per block from which _weighted_sums reduces by certified
# error-free extraction instead of one math.fsum per row.  The extraction
# costs ~35 us a call plus little per product; math.fsum costs per row and
# per term.  They break even at 1000-1100 products on the echo line's
# equal-weight rows (9-33 members) and at ~650 on 41 Gauss-Hermite-weighted
# nodes; nutation's largest Rabi slice, 81 x 41 (a trace to 40 pi runs
# 80 + 81 samples), takes 50 us against 198 us (BENCH_exact_sums.json).  A
# fit's Gauss-Newton block at n = 32, which reduces both modes at once
# (96 x 17, 1632 products), takes 42 us against 58 us, and one mode of it
# (48 x 17) 33 us against 29 us (BENCH_shared_rotor.json; Python 3.11.7,
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
        if abs(np.linalg.norm(v) - 1.0) > UNITARITY_TOL:
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
    A pulse whose angle ``theta * (1 + epsilon)`` or a delay whose phase
    ``delta * tau`` is not finite is refused before it is propagated.
    """
    _refuse_overflow(program.elements, abs(1.0 + e.epsilon), abs(float(delta)))
    up, down = (initial if initial is not None else SpinState.spin_up()).vector
    a, b = _propagate_nodes(program.elements, e, np.array([e.epsilon]), np.array([float(delta)]))
    v = np.concatenate([a * up + b * down, np.conj(a) * down - np.conj(b) * up])
    return SpinState.from_vector(v / np.linalg.norm(v))


_ANGLE_OVERFLOW = "a pulse's rotation angle theta * (1 + epsilon) must be finite"
_PHASE_OVERFLOW = "a delay's phase delta * tau must be finite"


def _refuse_overflow(elements, grow: float, reach: float) -> None:
    """The one overflow rule, run by every engine entry before numpy warns: a
    pulse angle ``theta * grow`` or delay phase ``reach * tau`` that is not
    finite is refused, ``grow`` the members' largest ``|1 + eps|`` and
    ``reach`` their largest ``|delta|`` (NaN if a member's is)."""
    for el in elements:
        if isinstance(el, Repeat):
            _refuse_overflow(el.body, grow, reach)
        elif isinstance(el, Pulse) and not math.isfinite(el.theta * grow):
            raise ValueError(_ANGLE_OVERFLOW)
        elif isinstance(el, Delay) and not math.isfinite(reach * el.tau):
            raise ValueError(_PHASE_OVERFLOW)


def _slices(rows: int, width: int) -> list[slice]:
    """The one slice rule of the block kernels: the fewest slices that cut
    ``rows`` rows of ``width`` member-items each, in order, into at most
    ``_SLICE_MEMBER_ECHOES`` member-items a slice (at least one row), their
    sizes differing by at most one, the last the largest; no rows, no slice."""
    count = -(-rows // max(1, _SLICE_MEMBER_ECHOES // width))
    return [slice(rows * i // count, rows * (i + 1) // count) for i in range(count)]


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


# The relative slack of rabi_trace's two rules: it samples each k * step at
# most max_angle * _RABI_SLACK, as floor(theta / pi * _RABI_SLACK) BB1 pi blocks
_RABI_SLACK = 1 + 1e-12


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
    convention puts the signal at +1 for an ideal pi rotation.  A trace
    of more than ``MAX_SAMPLES`` samples, counted by that sampling rule
    (``k * step <= max_angle`` within a relative 1e-12), is rejected, and
    so is a BB1 trace whose last sample needs more than
    ``MAX_REPETITIONS`` pi blocks (the bound ``bb1_rabi_program`` enforces
    through its ``Repeat``).  A trace runs no delay, so an ensemble whose
    detuning distribution is not ``DELTA_ZERO`` is rejected.  Each is
    rejected before any node is built; a trace whose pulses (the BB1
    block, or the last sample's pulse) have an angle ``theta * (1 +
    epsilon)`` that is not finite on its nodes, before any rotation is.

    Sample ``theta_k = n*pi + r`` runs ``bb1_rabi_program(n, r)`` (``n =
    floor(theta_k / pi)`` within a relative 1e-12, as the sampling rule, so
    a multiple of pi runs whole blocks at any block count; ``n = 0`` for
    simple pulses) as ``B**n R(r)``, with ``B`` the BB1 pi-block
    pair built once per call.  ``n`` never decreases along the trace, so
    ``B**n`` is a running product: a gap of ``g`` new blocks multiplies it
    by ``B**g``, raised by squaring as a ``Repeat`` is (``_power``), so K
    samples reaching n blocks cost O(K log n) pair products per member.

    The sample grid ``k * step``, the block counts and the remainders are
    built in numpy, by the same IEEE operations as for one sample alone,
    the grid by the sampling rule itself: the ``k * step``, k up to
    ``int(bound / step) + 1``, within its bound ``max_angle * (1 + 1e-12)``.
    The samples run as a block, cut by the block kernels' slice rule
    (``_slices``: 121 samples on 41 nodes run as 60 + 61).  A slice's
    remainder rotations are one batched ``_rotations`` call of pairs ``(cos
    h, i sin h)``, ``h = r(1+eps)/2``, each also its rotation's image of
    spin-up; the running power is advanced to each block count of the
    slice in turn and written to a per-slice table, one row per count, and
    the rotations are composed with one table row per sample in one
    ``_compose`` call; and ``-<sz> = |b|^2 - |a|^2`` of each pair is
    reduced to each sample's correctly rounded sum (``_weighted_sums``: a
    slice of at least ``_EXTRACTED_SUM_MIN_PRODUCTS`` member-samples, such
    as every slice of a 41-node trace of 25 samples or more, by certified
    error-free extraction, whose every sample is ``math.fsum``'s value; a
    smaller one by ``math.fsum`` per sample).  Each sample equals, bit for bit, the power composed with ``R(r)``'s
    pair and reduced by ``math.fsum`` for that sample alone, and a trace
    costs one numpy round per slice, plus the products that raise the
    power to each new block count when ``use_bb1`` is set.
    """
    if not (step > 0) or not math.isfinite(step):
        raise ValueError("step must be positive")
    if not math.isfinite(max_angle) or max_angle < 0:
        raise ValueError("max_angle must be finite and >= 0")
    bound = max_angle * _RABI_SLACK
    if MAX_SAMPLES * step <= bound:
        raise ValueError(f"max_angle / step asks for more than {MAX_SAMPLES} samples")
    # fl(k * step) never decreases in k, so the samples are a prefix of this grid
    thetas = np.arange(int(bound / step) + 2) * step
    thetas = thetas[thetas <= bound]
    count = thetas.size
    ns = np.floor(thetas / math.pi * _RABI_SLACK) if use_bb1 else np.zeros(count)
    if ns[-1] > MAX_REPETITIONS:  # a float comparison: no integer cast to warn
        raise ValueError(f"max_angle asks for more than {MAX_REPETITIONS} BB1 pi blocks")
    if ensemble.detuning_dist != DELTA_ZERO:
        raise ValueError("rabi_trace runs no delay; its detuning_dist must be DELTA_ZERO")
    eps, delta, weights = ensemble_nodes(ensemble).T
    # the pulses a trace runs: the BB1 block (at most 2pi), or its last sample's
    pulses = bb1_sequence(math.pi) if use_bb1 else [Pulse(float(thetas[-1]), 0.0)]
    _refuse_overflow(pulses, float(np.abs(1.0 + eps).max()), 0.0)
    r = thetas - ns * math.pi
    r[r <= 1e-15] = 0.0
    if use_bb1:
        block = _propagate_nodes(pulses, NO_ERROR, eps, delta)
        power, blocks = (1.0, 0.0), 0  # the pair of B**n
        # each sample's run of equal block counts, and each run's count
        first = np.empty(count, bool)
        first[0] = True
        np.not_equal(ns[1:], ns[:-1], out=first[1:])
        run = np.cumsum(first) - 1
        counts = ns[first].astype(int).tolist()

    samples, xs = [], thetas.tolist()
    for cut in _slices(count, eps.size):
        # the image of spin-up of a pair (u, v) is its matrix's first column (u, -conj(v))
        u, v = _rotations(r[cut, None], 0.0, eps)
        if use_bb1:
            # B**n of each of the slice's runs, then one row per sample,
            # gathered contiguous (a strided gather costs _compose a temporary)
            lo, hi = run[cut.start], run[cut.stop - 1] + 1
            table = np.empty((2, hi - lo, eps.size), complex)
            for row, n in enumerate(counts[lo:hi]):
                if n > blocks:
                    power, blocks = _power(*block, n - blocks, *power), n
                table[0, row], table[1, row] = power
            powers, u = np.take(table, run[cut] - lo, axis=1), u.astype(complex)
            del table  # _compose, where a slice peaks, holds only its operands
            u, v = _compose(*powers, u, v)
            del powers
        sz = np.abs(u) ** 2 - np.abs(v) ** 2
        del u, v  # the slice's pairs are not held through its reduction
        samples.extend(zip(xs[cut], _weighted_sums(weights, -sz)))
        del sz  # nor is its sz through the next slice's _compose

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


def _echo_nodes(
    n_refocus: int, tau: float, spec: Optional[EnsembleSpec] = None, use_bb1: bool = False
) -> tuple[EnsembleSpec, np.ndarray, np.ndarray]:
    """The line, detuning nodes and weights of an ``n_refocus``-cycle train
    on ``spec`` (default: the exact default line of a train with simple or,
    when ``use_bb1``, BB1 refocusing pulses), after the bounds every
    train meets before any work: at most ``MAX_SAMPLES`` echoes, a finite
    positive ``tau`` and a finite last echo time ``2 * tau * n_refocus``,
    no amplitude-error distribution, at most
    ``MAX_MEMBER_ECHOES`` member-echoes, counted on the members it runs,
    and, on a line the caller passes, a finite delay phase ``delta * tau``."""
    if type(n_refocus) is not int or not 1 <= n_refocus <= MAX_SAMPLES:
        raise ValueError(f"n_refocus must be an integer in [1, {MAX_SAMPLES}]")
    if not (tau > 0) or not math.isfinite(tau):
        raise ValueError("tau must be positive")
    if not math.isfinite(2.0 * tau * n_refocus):
        raise ValueError("the last echo time 2 * tau * n_refocus must be finite")
    # n + 1 midpoints of the half period give every echo's mean exactly.  CP's
    # mirror x -> -x and CPMG's C2 about y fix the +y start and the y readout,
    # so a simple refocusing pulse's echoes are even in delta; a BB1 block's
    # are not
    line = spec or EnsembleSpec(DELTA_ZERO, _EchoLine(tau, even=not use_bb1), nodes=n_refocus + 1)
    if line.epsilon_dist != DELTA_ZERO:
        raise ValueError(
            "echo_train takes its amplitude error from epsilon; the ensemble's "
            "epsilon_dist must be DELTA_ZERO"
        )
    _, delta, weights = ensemble_nodes(line).T
    if n_refocus * delta.size > MAX_MEMBER_ECHOES:
        raise ValueError(f"n_refocus * members exceeds {MAX_MEMBER_ECHOES} member-echoes")
    if spec is not None:  # the default line keeps |delta tau| <= pi/2
        _refuse_overflow([Delay(tau)], 1.0, float(np.abs(delta).max()))
    return line, delta, weights


def _echo_amplitudes(
    modes: tuple[str, ...],
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
    ``2 * stride``, ... of an ``n``-cycle train of every mode in ``modes``
    (``"cp"``, ``"cpmg"``) at every amplitude error in ``eps_values``: row
    ``(m, e)`` of the ``(len(modes), E, n // stride)`` result is the
    ``modes[m]`` train at ``eps_values[e]`` on the detuning nodes ``delta``
    with ``weights``, keeping only the echoes its caller reads (the fit
    reads the even echoes of both modes, ``stride = 2``; ``echo_train``
    reads all echoes of one).

    One cycle, one rotor, a readout per mode.  Every delay is a z-rotation,
    and CPMG shifts every refocusing phase by pi/2 (each pulse of a BB1
    block too), so the CPMG cycle is the CP cycle conjugated by Rz(pi/2),
    with pair ``(a, -i b)``: the same rotation angle, an axis turned by
    pi/2 about z.  So only the CP cycle pair ``(a, b)`` is built, once, on
    the engine over the (E, 1) x (1, M) grid of errors and detunings, and
    each mode's echoes are read from it in closed form.  Both are 2-D, so
    no product pairs a (1, 1) array with a 1-D one, which numpy rounds
    without a fused multiply-add: a one-member train would then differ
    from its row in a block.
    The cycle rotates the Bloch vector by ``2 alpha``, ``cos alpha = Re a``
    and ``sin alpha = sqrt((Im a)**2 + |b|**2)``, about an axis ``n``.  The
    ideal excitation leaves the Bloch vector on +y, so by Rodrigues'
    formula echo k has ``<sy> = 1 - r (1 - Re z**k)`` with the rotor ``z =
    (Re a + i sin alpha)**2 = exp(2i alpha)``, shared by every mode, and
    the mode's readout weight ``r``, 0 where ``sin alpha = 0``: CP reads
    ``1 - n_y**2 = ((Im a)**2 + (Im b)**2) / sin(alpha)**2`` and CPMG, on
    the turned axis, ``1 - n_x**2 = ((Im a)**2 + (Re b)**2) /
    sin(alpha)**2``.  ``z**k`` is one complex product per member and echo,
    kept or not.  Against a 40-digit evaluation of the same inputs, no echo
    of an n-echo train missed by more than about ``n * 2**-53`` (n up to
    20000, near-identity cycles included).  The kept echoes are cut by the
    block kernels' slice rule (``_slices``: the fit's grid at n = 32 runs
    5 + 5 + 6 echoes, and no echo kept means no slice), and each slice is
    reduced, every mode at once, before the next is advanced, so only the
    returned array grows with ``n``.  Each member's arithmetic does not
    depend on the others, on the other modes or on ``stride``, so a row
    equals, bit for bit, the kept echoes of the train run in that mode at
    that amplitude error alone.

    A slice is reduced to one correctly rounded sum (``math.fsum``'s value,
    ``_weighted_sums``) per mode, kept echo and amplitude error, by
    ``math.fsum`` below ``_EXTRACTED_SUM_MIN_PRODUCTS`` products (a train
    at n = 32, 32 x 17, or a fit's two-mode Gauss-Newton block at n = 16,
    48 x 9) and by certified error-free extraction from it (that block at
    n = 32, 96 x 17); or, when ``bounded`` (the fit's grid, which only
    ranks), by the plain weighted sum ``flat @ weights`` of its signed
    ``<sy>`` rows.
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
    pulses = bb1_sequence(math.pi) if use_bb1 else [Pulse(math.pi, 0.0)]
    cycle = (Delay(tau), *pulses, Delay(tau))  # CP's: refocusing about x
    a, b = (x.ravel() for x in _propagate_nodes(cycle, NO_ERROR, eps_values[:, None], delta[None]))
    tilt = a.imag * a.imag
    sin2 = (tilt + b.imag * b.imag) + b.real * b.real
    r = np.zeros((len(modes), a.size))
    for weight, mode in zip(r, modes):
        # sin(alpha)**2 (1 - n_y**2) of CP's pair; CPMG's pair (a, -i b) has Im -Re b
        part = b.imag if mode == "cp" else b.real
        np.divide(tilt + part * part, sin2, out=weight, where=sin2 > 0.0)
    z = np.empty_like(a)
    z.real, z.imag = a.real * a.real - sin2, 2.0 * a.real * np.sqrt(sin2)
    del a, b, tilt, sin2, part  # not held through the echo loop, where the block peaks
    kept = n // stride
    cuts = _slices(kept, z.size)
    rows = max((cut.stop - cut.start for cut in cuts), default=0)
    powers, power = np.empty((rows, z.size), complex), np.ones(z.size, complex)

    shape = (len(modes), kept, count_eps)
    sums, scales = np.empty(shape), np.empty(shape)
    for cut in cuts:
        count = cut.stop - cut.start
        for j in range(count):
            for _ in range(stride):
                power = np.multiply(power, z, out=powers[j])
        # the ideal train keeps every echo on +-y: each mode's signed <sy> of each member
        flat = (1.0 - r[:, None] * (1.0 - powers[:count].real)).reshape(-1, members)
        block = (len(modes), count, count_eps)
        if bounded:
            sums[:, cut] = (flat @ weights).reshape(block)
            scales[:, cut] = (np.abs(flat) @ np.abs(weights)).reshape(block)
        else:
            sums[:, cut] = np.reshape(_weighted_sums(weights, flat), block)
    amps = np.abs(sums.transpose(0, 2, 1))
    if bounded:
        return amps, (2.0 * (members + 3) * 2.0**-53) * scales.transpose(0, 2, 1)
    return amps


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
    of more than ``MAX_MEMBER_ECHOES`` echoes times the members it runs, or
    whose last echo time ``2 * tau * n_refocus`` is not finite, or on a line
    whose delay phase ``delta * tau`` is not finite, is rejected before
    propagation.

    The train is the one-row, one-mode case of the echo kernel
    (``_echo_amplitudes``): the CP cycle ``tau - refocusing pulse - tau``,
    refocusing about x, runs once on the engine, from the identity, for its
    pair at every member,
    and echo k is read from that pair's rotation in closed form: ``<sy> = 1
    - r (1 - Re z**k)``, with the rotor ``z = exp(2i alpha)`` of the cycle's
    rotation angle ``2 alpha``, ``z**k`` advanced by one complex product per
    echo and taken in slices of bounded size, and the mode's readout weight
    ``r`` (Rodrigues' formula).  The CPMG cycle is the CP cycle conjugated
    by Rz(pi/2), the same angle about an axis turned by pi/2 about z, so CP
    reads ``r = 1 - n_y**2`` of the CP axis and CPMG ``r = 1 - n_x**2``.
    Each echo lies within ``8 (k + 1) 2**-53 + k eta`` of the one reduced
    from the running product ``psi_k = C @ psi_(k-1)`` of the mode's cycle
    matrix ``C``, where ``eta`` is the largest ``| |a|**2 + |b|**2 - 1 |``:
    the product scales a state's squared norm by that factor per echo,
    which the rotor leaves out on the echo axis (measured, on trains up to
    2500 echoes and on cycles near the identity).
    """
    mode_l = str(mode).lower()
    if mode_l not in ("cp", "cpmg"):
        raise ValueError(f"mode must be 'cp' or 'cpmg', got {mode!r}")
    ErrorModel(epsilon)  # the amplitude-error domain, |epsilon| < 1
    if t2_envelope is not None and not (t2_envelope > 0):
        raise ValueError("t2_envelope must be positive when given")
    spec, delta, weights = _echo_nodes(n_refocus, tau, ensemble_detuning, use_bb1)

    (amps,) = _echo_amplitudes(
        (mode_l,), n_refocus, np.array([float(epsilon)]), delta, weights, use_bb1, tau
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
