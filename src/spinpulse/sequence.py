"""Pulse-sequence data model and BB1 composite-pulse construction.

A pulse program is an ordered list of elements: instantaneous rotations
(``Pulse``), free-evolution delays (``Delay``), repetition groups
(``Repeat``) and sampling markers (``Acquire``, which nothing reads).
Pulses are modeled as pure rotations (hard-pulse approximation); delays
carry physical time.

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

from .su2 import _wrap_phase

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

# Most times one Repeat may run any one pulse or delay of its body, nested
# repeats included.  Not a time bound, since the engine raises each body
# to its count by squaring (~2 log2(count) products), but a precision
# bound: 2^23 applications of one pulse stay within 1e-10 of the exact
# state, while 2^44 miss it by 1.4e-4.
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
        object.__setattr__(self, "phi", _wrap_phase(self.phi))


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

    ``count`` times the most runs of any one ``Pulse`` or ``Delay`` in the
    body (nested repeats multiply, an ``Acquire`` runs nothing) must not
    exceed ``MAX_REPETITIONS``; so must ``count`` itself.  The repeat and
    the repeats it nests may be at most ``MAX_NESTING_DEPTH`` deep.
    """

    count: int
    body: tuple["SequenceElement", ...]

    def __post_init__(self):
        if type(self.count) is not int or self.count < 1:
            raise ValueError("repeat count must be >= 1 and an integer")
        object.__setattr__(self, "body", tuple(self.body))
        runs, depth = _walk(self.body)
        if 1 + depth > MAX_NESTING_DEPTH:
            raise ValueError(f"nesting depth exceeds {MAX_NESTING_DEPTH}")
        if self.count * max(1, runs) > MAX_REPETITIONS:
            raise ValueError(
                f"repeat count times the runs of one pulse or delay per pass exceeds "
                f"{MAX_REPETITIONS}"
            )


@dataclass(frozen=True)
class Acquire:
    """Sampling marker: the DSL keeps it, propagation passes over it."""


SequenceElement = Union[Pulse, Delay, Repeat, Acquire]


def _walk(elements) -> tuple[int, int]:
    """Most runs of any one ``Pulse`` or ``Delay`` in ``elements``, and the ``Repeat`` depth."""
    runs = depth = 0
    for el in elements:
        if isinstance(el, Repeat):
            body_runs, body_depth = _walk(el.body)
            runs = max(runs, el.count * body_runs)
            depth = max(depth, 1 + body_depth)
        elif isinstance(el, (Pulse, Delay)):
            runs = max(runs, 1)
        elif not isinstance(el, Acquire):
            raise ValueError(f"not a sequence element: {el!r}")
    return runs, depth


@dataclass(frozen=True)
class PulseProgram:
    """An ordered, immutable sequence of elements with a free-form name.

    The name is metadata only and does not participate in equality.  A
    non-element at any depth is rejected; each ``Repeat`` bounds its own
    nesting depth.
    """

    elements: tuple[SequenceElement, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        _walk(self.elements)


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


def bb1_sequence(theta: float) -> list[Pulse]:
    """The four-pulse BB1 train for a target ``theta`` rotation about x,
    in time order: ``[theta @ 0, pi @ phi1, 2pi @ phi2, pi @ phi1]``."""
    phi1, phi2 = bb1_phases(theta)
    return [
        Pulse(theta, 0.0),
        Pulse(math.pi, phi1),
        Pulse(2.0 * math.pi, phi2),
        Pulse(math.pi, phi1),
    ]


def bb1_rabi_program(n: int, remainder_theta: float) -> PulseProgram:
    """Long-rotation program: a simple remainder pulse, then ``n`` BB1 pi blocks.

    Decomposing a long rotation as full corrected pi blocks plus one
    simple pulse of angle in [0, pi) lets every block reuse the same two
    correction phases.  The net propagator at zero error equals a simple
    rotation by ``n*pi + remainder_theta`` about x.
    """
    if type(n) is not int or n < 0:
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
