"""Systematic-error models and deterministic ensemble distributions.

Two systematic error channels are modeled:

* a fractional amplitude error ``epsilon`` (field inhomogeneity or
  miscalibration), uniform across a whole sequence for a given ensemble
  member, scaling every pulse angle by ``1 + epsilon``;
* per-phase-channel offsets: each programmed nominal phase value may
  carry its own miscalibration ``dphi``, applied to every pulse whose
  nominal phase matches that channel.

Ensembles over ``epsilon`` (and optionally over detuning) are evaluated
with deterministic quadrature - Gauss-Hermite for Gaussian weights,
Gauss-Legendre for uniform ones, and the equal-weight midpoint rule on
one period for a uniform spread over whole periods of a periodic
integrand (``PeriodicUniform``, exact for a trigonometric polynomial of
degree below the node count) - so that every downstream number is
bit-reproducible.  Each Gauss rule is solved once per order per process
and kept read-only (``_gauss_rule``); a distribution maps it to fresh
arrays of its own.  A sampled ensemble is a ``Discrete`` of equal-weight
draws.  Each distribution kind owns its quadrature mapping and
provenance record; ``ensemble_nodes`` returns one ``(N, 3)`` array of
(epsilon, delta, weight) rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar, Mapping, Union

import numpy as np

from .su2 import TWO_PI

__all__ = [
    "Gaussian",
    "Uniform",
    "PeriodicUniform",
    "Discrete",
    "Distribution",
    "DELTA_ZERO",
    "ErrorModel",
    "NO_ERROR",
    "EnsembleSpec",
    "PHASE_MATCH_TOL",
    "WEIGHT_SUM_TOL",
    "NODE_WEIGHT_TOL",
    "MAX_NODES",
    "MAX_MEMBERS",
    "ensemble_nodes",
]

# A pulse phase matches an offset channel when within this tolerance (rad).
PHASE_MATCH_TOL = 1e-9

WEIGHT_SUM_TOL = 1e-12
NODE_WEIGHT_TOL = 1e-10

# Largest Gauss rule order accepted (Gaussian and Uniform).  The
# companion-matrix eigensolve grows as n^3 (leggauss takes ~0.1 s at 1024
# nodes, ~0.7 s at 2048) and is paid once per rule and order per process
# (``_gauss_rule``); Gauss-Hermite already fails past ~370 nodes.  The
# midpoint rule of PeriodicUniform solves nothing and is not bound by it.
MAX_NODES = 1024

# Largest node count of a rule that solves nothing (PeriodicUniform,
# Discrete), and largest ensemble grid, accepted: as many members as the
# largest two-Gauss-rule grid (MAX_NODES**2), ~25 MB of nodes.
MAX_MEMBERS = MAX_NODES**2


@functools.lru_cache(maxsize=32)
def _gauss_rule(rule, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical nodes and weights of ``rule`` (``hermgauss`` or
    ``leggauss``) at order ``n``, solved once per process and read-only.

    Overflow at large n leaves non-finite weights, which are cached as
    they are and which ensemble_nodes reports as an error on every call;
    numpy's warnings add nothing.
    """
    with np.errstate(all="ignore"):
        x, w = rule(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@dataclass(frozen=True)
class Gaussian:
    mean: float
    sigma: float

    max_nodes: ClassVar[int] = MAX_NODES

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.sigma)):
            raise ValueError("Gaussian parameters must be finite")
        if self.sigma < 0:
            raise ValueError("Gaussian sigma must be >= 0")

    def quadrature(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Hermite values and weights of order ``n``."""
        x, w = _gauss_rule(np.polynomial.hermite.hermgauss, n)
        return self.mean + math.sqrt(2.0) * self.sigma * x, w / math.sqrt(math.pi)

    def to_dict(self) -> dict:
        return {"kind": "gaussian", "mean": self.mean, "sigma": self.sigma}


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    max_nodes: ClassVar[int] = MAX_NODES

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("Uniform bounds must be finite")
        if self.lo > self.hi:
            raise ValueError("Uniform requires lo <= hi")

    def quadrature(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre values and weights of order ``n``."""
        x, w = _gauss_rule(np.polynomial.legendre.leggauss, n)
        mid = 0.5 * (self.hi + self.lo)
        half = 0.5 * (self.hi - self.lo)
        return mid + half * x, w / 2.0

    def to_dict(self) -> dict:
        return {"kind": "uniform", "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class PeriodicUniform(Uniform):
    """Uniform on [lo, hi], which spans ``periods`` whole periods of the
    integrand.

    The mean of a periodic integrand over whole periods is its mean over
    one, so the quadrature is the n-point midpoint rule on the period
    centred on the middle of [lo, hi], each node weighted 1/n.  It is exact
    for a trigonometric polynomial of degree below n in that period.
    """

    periods: int

    max_nodes: ClassVar[int] = MAX_MEMBERS

    def __post_init__(self):
        super().__post_init__()
        if not self.lo < self.hi:
            raise ValueError("PeriodicUniform requires lo < hi")
        if not isinstance(self.periods, int) or self.periods < 1:
            raise ValueError("PeriodicUniform periods must be an integer >= 1")

    @property
    def period(self) -> float:
        return (self.hi - self.lo) / self.periods

    def quadrature(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Midpoints of one period and their equal weights."""
        mid = 0.5 * (self.hi + self.lo)
        return mid + self.period * ((np.arange(n) + 0.5) / n - 0.5), np.full(n, 1.0 / n)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "rule": "periodic_midpoint", "periods": self.periods}


@dataclass(frozen=True)
class Discrete:
    """Weighted atoms; weights must be positive and sum to 1 within 1e-12."""

    atoms: tuple[tuple[float, float], ...]

    max_nodes: ClassVar[int] = MAX_MEMBERS

    def __post_init__(self):
        atoms = tuple((float(v), float(w)) for v, w in self.atoms)
        if not atoms:
            raise ValueError("Discrete needs at least one atom")
        for v, w in atoms:
            if not (math.isfinite(v) and math.isfinite(w)):
                raise ValueError("Discrete atoms must be finite")
            if w <= 0:
                raise ValueError("Discrete weights must be positive")
        total = math.fsum(w for _, w in atoms)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("Discrete weights must sum to 1 within 1e-12")
        object.__setattr__(self, "atoms", atoms)

    def quadrature(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The atoms' values and weights, whatever ``n``."""
        values, weights = np.array(self.atoms).T
        return values, weights

    def to_dict(self) -> dict:
        return {"kind": "discrete", "atoms": [list(a) for a in self.atoms]}


Distribution = Union[Gaussian, Uniform, Discrete]

DELTA_ZERO = Discrete(((0.0, 1.0),))


@dataclass(frozen=True)
class ErrorModel:
    """Systematic errors: amplitude error plus per-channel phase offsets.

    ``phase_offsets`` maps nominal phase values (rad) to their offsets
    (rad); it accepts a mapping or an iterable of pairs and is stored as
    a sorted tuple with each phase reduced to [0, 2pi), as ``Pulse``
    reduces its phase.  Offsets must satisfy ``|dphi| < pi/2`` and the
    amplitude error ``|epsilon| < 1``.
    """

    epsilon: float = 0.0
    phase_offsets: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if not math.isfinite(self.epsilon) or abs(self.epsilon) >= 1.0:
            raise ValueError("epsilon must be finite with |epsilon| < 1")
        raw = self.phase_offsets
        pairs = raw.items() if isinstance(raw, Mapping) else raw
        offsets = [(float(p), float(d)) for p, d in pairs]
        for p, d in offsets:
            if not (math.isfinite(p) and math.isfinite(d)):
                raise ValueError("phase offsets must be finite")
            if abs(d) >= math.pi / 2:
                raise ValueError("phase offsets must satisfy |dphi| < pi/2")
        offsets = tuple(sorted((p % TWO_PI, d) for p, d in offsets))
        object.__setattr__(self, "phase_offsets", offsets)

    def offset_for(self, phi: float) -> float:
        """Offset of the phase channel within ``PHASE_MATCH_TOL`` of ``phi``
        on the circle, or 0 if none is."""
        for nominal, delta in self.phase_offsets:
            gap = abs(nominal - phi)
            if gap <= PHASE_MATCH_TOL or TWO_PI - gap <= PHASE_MATCH_TOL:
                return delta
        return 0.0


NO_ERROR = ErrorModel()


@dataclass(frozen=True)
class EnsembleSpec:
    """Distributions over amplitude error and detuning, plus node count.

    ``nodes`` is the quadrature order used per continuous distribution,
    an integer from 1 to the smaller ``max_nodes`` of the two
    distributions (``MAX_NODES`` for a Gauss rule, ``MAX_MEMBERS``
    otherwise); ``Discrete`` distributions contribute their atoms
    regardless of it.
    """

    epsilon_dist: Distribution
    detuning_dist: Distribution = DELTA_ZERO
    nodes: int = 41

    def __post_init__(self):
        cap = min(self.epsilon_dist.max_nodes, self.detuning_dist.max_nodes)
        if not isinstance(self.nodes, int) or not 1 <= self.nodes <= cap:
            raise ValueError(f"node count must be an integer in [1, {cap}]")

    def to_dict(self) -> dict:
        """Provenance record: both distributions and the node count."""
        return {
            "epsilon": self.epsilon_dist.to_dict(),
            "detuning": self.detuning_dist.to_dict(),
            "nodes": self.nodes,
        }


def ensemble_nodes(spec: EnsembleSpec) -> np.ndarray:
    """Deterministic nodes for an ensemble, as an ``(N, 3)`` array whose
    columns are epsilon, delta and weight.

    The product grid of the two marginal node sets, epsilon-major, with
    weights multiplying; the weights sum to 1 within 1e-10.  Raises
    ``ValueError`` when the quadrature cannot meet that (Gauss-Hermite
    overflows beyond about 370 nodes), or when the grid would have more
    than ``MAX_MEMBERS`` rows.
    """
    evals, ewts = spec.epsilon_dist.quadrature(spec.nodes)
    dvals, dwts = spec.detuning_dist.quadrature(spec.nodes)
    if evals.size * dvals.size > MAX_MEMBERS:
        raise ValueError(f"an ensemble grid of {evals.size * dvals.size} nodes exceeds {MAX_MEMBERS}")
    weights = np.outer(ewts, dwts).ravel()
    if not np.all(np.isfinite(weights)) or abs(math.fsum(weights.tolist()) - 1.0) > NODE_WEIGHT_TOL:
        raise ValueError(
            f"quadrature with {spec.nodes} nodes gives weights that are not finite "
            "or do not sum to 1 within 1e-10; use fewer nodes"
        )
    return np.column_stack((np.repeat(evals, dvals.size), np.tile(dvals, evals.size), weights))

