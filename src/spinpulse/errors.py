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
Gauss-Legendre for uniform ones - so that every downstream number is
bit-reproducible.  A seeded Monte Carlo sampler exists for cross-checks.
Each distribution kind owns its quadrature rule, sampler and provenance
record; ``ensemble_nodes`` and ``monte_carlo_nodes`` return one
``(N, 3)`` array of (epsilon, delta, weight) rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

__all__ = [
    "Gaussian",
    "Uniform",
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
    "MAX_MC_SAMPLES",
    "ensemble_nodes",
    "monte_carlo_nodes",
]

# A pulse phase matches an offset channel when within this tolerance (rad).
PHASE_MATCH_TOL = 1e-9

WEIGHT_SUM_TOL = 1e-12
NODE_WEIGHT_TOL = 1e-10

# Largest quadrature order accepted.  The companion-matrix eigensolve
# grows as n^3 (leggauss takes ~0.1 s at 1024 nodes, ~0.7 s at 2048),
# Gauss-Hermite already fails past ~370 nodes, and the echo default is 257.
MAX_NODES = 1024

# Largest Monte Carlo sample count accepted: as many members as the
# largest two-rule quadrature grid (MAX_NODES**2), ~25 MB of nodes.
MAX_MC_SAMPLES = MAX_NODES**2


@dataclass(frozen=True)
class Gaussian:
    mean: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.sigma)):
            raise ValueError("Gaussian parameters must be finite")
        if self.sigma < 0:
            raise ValueError("Gaussian sigma must be >= 0")

    def quadrature(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Hermite values and weights of order ``n``."""
        # Overflow at large n leaves non-finite weights, which
        # ensemble_nodes reports as an error; numpy's warnings add nothing.
        with np.errstate(all="ignore"):
            x, w = np.polynomial.hermite.hermgauss(n)
        return self.mean + math.sqrt(2.0) * self.sigma * x, w / math.sqrt(math.pi)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.mean, self.sigma, size=count)

    def to_dict(self) -> dict:
        return {"kind": "gaussian", "mean": self.mean, "sigma": self.sigma}


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("Uniform bounds must be finite")
        if self.lo > self.hi:
            raise ValueError("Uniform requires lo <= hi")

    def quadrature(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre values and weights of order ``n``."""
        x, w = np.polynomial.legendre.leggauss(n)
        mid = 0.5 * (self.hi + self.lo)
        half = 0.5 * (self.hi - self.lo)
        return mid + half * x, w / 2.0

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=count)

    def to_dict(self) -> dict:
        return {"kind": "uniform", "lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class Discrete:
    """Weighted atoms; weights must be positive and sum to 1 within 1e-12."""

    atoms: tuple[tuple[float, float], ...]

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

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        values, weights = np.array(self.atoms).T
        return rng.choice(values, size=count, p=weights / weights.sum())

    def to_dict(self) -> dict:
        return {"kind": "discrete", "atoms": [list(a) for a in self.atoms]}


Distribution = Union[Gaussian, Uniform, Discrete]

DELTA_ZERO = Discrete(((0.0, 1.0),))


@dataclass(frozen=True)
class ErrorModel:
    """Systematic errors: amplitude error plus per-channel phase offsets.

    ``phase_offsets`` maps nominal phase values (rad) to their offsets
    (rad); it accepts a mapping or an iterable of pairs and is stored as
    a sorted tuple.  Offsets must satisfy ``|dphi| < pi/2`` and the
    amplitude error ``|epsilon| < 1``.
    """

    epsilon: float = 0.0
    phase_offsets: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if not math.isfinite(self.epsilon) or abs(self.epsilon) >= 1.0:
            raise ValueError("epsilon must be finite with |epsilon| < 1")
        raw = self.phase_offsets
        pairs = raw.items() if isinstance(raw, Mapping) else raw
        offsets = tuple(sorted((float(p), float(d)) for p, d in pairs))
        for p, d in offsets:
            if not (math.isfinite(p) and math.isfinite(d)):
                raise ValueError("phase offsets must be finite")
            if abs(d) >= math.pi / 2:
                raise ValueError("phase offsets must satisfy |dphi| < pi/2")
        object.__setattr__(self, "phase_offsets", offsets)

    def offset_for(self, phi: float) -> float:
        """Offset of the phase channel matching ``phi``, or 0 if none does."""
        for nominal, delta in self.phase_offsets:
            if abs(nominal - phi) <= PHASE_MATCH_TOL:
                return delta
        return 0.0


NO_ERROR = ErrorModel()


@dataclass(frozen=True)
class EnsembleSpec:
    """Distributions over amplitude error and detuning, plus node count.

    ``nodes`` is the quadrature order used per continuous distribution,
    an integer in [1, ``MAX_NODES``]; ``Discrete`` distributions
    contribute their atoms regardless of it.
    """

    epsilon_dist: Distribution
    detuning_dist: Distribution = DELTA_ZERO
    nodes: int = 41

    def __post_init__(self):
        if not isinstance(self.nodes, int) or not 1 <= self.nodes <= MAX_NODES:
            raise ValueError(f"node count must be an integer in [1, {MAX_NODES}]")

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
    overflows beyond about 370 nodes).
    """
    evals, ewts = spec.epsilon_dist.quadrature(spec.nodes)
    dvals, dwts = spec.detuning_dist.quadrature(spec.nodes)
    weights = np.outer(ewts, dwts).ravel()
    if not np.all(np.isfinite(weights)) or abs(math.fsum(weights.tolist()) - 1.0) > NODE_WEIGHT_TOL:
        raise ValueError(
            f"quadrature with {spec.nodes} nodes gives weights that are not finite "
            "or do not sum to 1 within 1e-10; use fewer nodes"
        )
    return np.column_stack((np.repeat(evals, dvals.size), np.tile(dvals, evals.size), weights))


def monte_carlo_nodes(spec: EnsembleSpec, count: int, seed: int = 0) -> np.ndarray:
    """Seeded equal-weight samples in the layout of ``ensemble_nodes``;
    cross-check companion to the quadrature.  ``count`` must lie in
    [1, ``MAX_MC_SAMPLES``]."""
    if not 1 <= count <= MAX_MC_SAMPLES:
        raise ValueError(f"sample count must be in [1, {MAX_MC_SAMPLES}]")
    rng = np.random.default_rng(seed)
    eps = spec.epsilon_dist.sample(count, rng)
    dlt = spec.detuning_dist.sample(count, rng)
    return np.column_stack((eps, dlt, np.full(count, 1.0 / count)))
