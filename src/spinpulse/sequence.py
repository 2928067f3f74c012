"""Pulse-sequence data model and BB1 composite-pulse construction.

A pulse program is an ordered list of elements: instantaneous rotations
(``Pulse``), free-evolution delays (``Delay``), repetition groups
(``Repeat``) and sampling markers (``Acquire``).  Pulses are modeled as
pure rotations (hard-pulse approximation); delays carry physical time.

The BB1 corrective sequence for a target rotation of angle ``theta``
about x is the four-pulse train

    theta @ 0  --  pi @ phi1  --  2*pi @ phi2  --  pi @ phi1

with ``phi1 = arccos(-theta / (4*pi))`` and ``phi2 = 3*phi1``.  At zero
amplitude error the correction block composes to the exact identity; with
a fractional amplitude error ``epsilon`` on every pulse the net rotation
matches the target with infidelity of order ``epsilon**6``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

from .su2 import TWO_PI

__all__ = [
    "Pulse",
    "Delay",
    "Repeat",
    "Acquire",
    "SequenceElement",
    "PulseProgram",
    "MAX_NESTING_DEPTH",
    "MAX_REPETITIONS",
    "bb1_phases",
    "bb1_sequence",
    "bb1_rabi_program",
]

MAX_NESTING_DEPTH = 16

# Largest count times Acquires per pass of its body (at least 1) that one
# Repeat accepts: a program's Acquires are its sampling points, and the
# engine pays one 2x2 product per repetition (~3 us for one spin), so one
# Repeat at the bound takes ~30 s.  Equal to MAX_MEMBER_ECHOES, the
# echo-train bound.
MAX_REPETITIONS = 2**23


@dataclass(frozen=True)
class Pulse:
    """One RF rotation: nominal angle ``theta`` (rad) and phase ``phi`` (rad).

    ``theta`` must be finite and non-negative (a 2*pi pulse is distinct
    from no pulse); ``phi`` is normalized to [0, 2pi).
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("pulse angles must be finite")
        if self.theta < 0:
            raise ValueError("pulse theta must be >= 0")
        object.__setattr__(self, "phi", self.phi % TWO_PI)


@dataclass(frozen=True)
class Delay:
    """Free evolution for ``tau`` seconds."""

    tau: float

    def __post_init__(self):
        if not math.isfinite(self.tau) or self.tau < 0:
            raise ValueError("delay must be >= 0 and finite")


@dataclass(frozen=True)
class Repeat:
    """``count`` repetitions of a sub-sequence.

    ``count`` times the ``Acquire``s one pass of the body reaches (nested
    repeats unrolled, at least 1) must not exceed ``MAX_REPETITIONS``.
    """

    count: int
    body: tuple["SequenceElement", ...]

    def __post_init__(self):
        if not isinstance(self.count, int) or self.count < 1:
            raise ValueError("repeat count must be >= 1 and an integer")
        object.__setattr__(self, "body", tuple(self.body))
        if self.count * max(1, _acquires(self.body)) > MAX_REPETITIONS:
            raise ValueError(
                f"repeat count times acquires per pass exceeds {MAX_REPETITIONS}"
            )


@dataclass(frozen=True)
class Acquire:
    """Sampling marker; only the simulator interprets it."""


SequenceElement = Union[Pulse, Delay, Repeat, Acquire]


def _acquires(elements) -> int:
    """``Acquire``s reached by one pass of ``elements``, nested repeats unrolled."""
    count = 0
    for el in elements:
        if isinstance(el, Acquire):
            count += 1
        elif isinstance(el, Repeat):
            count += el.count * _acquires(el.body)
    return count


def _nesting_depth(elements) -> int:
    depth = 0
    for el in elements:
        if isinstance(el, Repeat):
            depth = max(depth, 1 + _nesting_depth(el.body))
    return depth


@dataclass(frozen=True)
class PulseProgram:
    """An ordered, immutable sequence of elements with a free-form name.

    The name is metadata only and does not participate in equality.
    Repeat nesting deeper than ``MAX_NESTING_DEPTH`` is rejected.
    """

    elements: tuple[SequenceElement, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if _nesting_depth(self.elements) > MAX_NESTING_DEPTH:
            raise ValueError(f"nesting depth exceeds {MAX_NESTING_DEPTH}")


def bb1_phases(theta: float) -> tuple[float, float]:
    """Correction phases for a BB1 sequence targeting angle ``theta``.

    ``phi1 = arccos(-theta/(4*pi))`` and ``phi2 = 3*phi1``, valid for
    ``0 <= theta <= 4*pi``.  For a pi rotation this gives approximately
    ``(0.580*pi, 1.741*pi)``.

    Raises ``ValueError`` outside the domain.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if theta < 0 or theta > 4.0 * math.pi:
        raise ValueError("theta must lie in [0, 4*pi] for BB1 phases")
    phi1 = math.acos(-theta / (4.0 * math.pi))
    return phi1, 3.0 * phi1


def bb1_sequence(theta: float, axis_phase: float = 0.0) -> list[Pulse]:
    """The four-pulse BB1 train for a target ``theta`` rotation, in time order.

    ``axis_phase`` shifts every pulse phase, steering the target axis away
    from x (e.g. pi/2 for a y rotation).  The returned pulses are
    ``[theta @ a, pi @ a+phi1, 2pi @ a+phi2, pi @ a+phi1]`` with
    ``a = axis_phase``.
    """
    phi1, phi2 = bb1_phases(theta)
    return [
        Pulse(theta, axis_phase),
        Pulse(math.pi, axis_phase + phi1),
        Pulse(2.0 * math.pi, axis_phase + phi2),
        Pulse(math.pi, axis_phase + phi1),
    ]


def bb1_rabi_program(n: int, remainder_theta: float) -> PulseProgram:
    """Long-rotation program: a simple remainder pulse, then ``n`` BB1 pi blocks.

    Decomposing a long rotation as full corrected pi blocks plus one
    simple pulse of angle in [0, pi) lets every block reuse the same two
    correction phases.  The net propagator at zero error equals a simple
    rotation by ``n*pi + remainder_theta`` about x.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("cycle count n must be an integer >= 0")
    if not math.isfinite(remainder_theta) or not (0.0 <= remainder_theta < math.pi):
        raise ValueError("remainder_theta must lie in [0, pi)")
    elements: list[SequenceElement] = []
    if remainder_theta > 0.0:
        elements.append(Pulse(remainder_theta, 0.0))
    if n > 0:
        block = tuple(bb1_sequence(math.pi))
        elements.append(Repeat(n, block))
    return PulseProgram(
        tuple(elements), name=f"bb1_rabi(n={n}, remainder={remainder_theta:.6g})"
    )
