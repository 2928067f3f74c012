"""Exact complex 2x2 unitary algebra for single-spin rotations.

Provides the rotation constructor for an in-plane axis with a fractional
amplitude error, time-ordered composition, the half-trace fidelity metric,
and an axis/angle decomposition for residual-error diagnostics.

Inside the kernels a rotation is its Cayley-Klein pair: an SU(2) matrix
``[[a, b], [-conj(b), conj(a)]]`` is fixed by its first row ``(a, b)``
(Pauly, Le Roux, Nishimura & Macovski, IEEE Trans. Med. Imaging 10, 53
(1991)).  The rotation pairs and their fidelity are each defined once,
batched over an array of amplitude errors (``_rotations`` and
``_fidelities``); the propagation engine and the analysis fidelities use
them directly.  ``rotation`` assembles the matrix of a one-member pair,
validated once at the public boundary; ``fidelity`` takes the trace of
two ``Unitary2``, which need not lie in SU(2), and ``axis_angle`` reads
the pair of one over a square root of its determinant.

Conventions used throughout the package:

* A rotation of nominal angle ``theta`` about the in-plane axis at azimuth
  ``phi``, carrying fractional amplitude error ``epsilon``, is
  ``exp(+i (sx cos(phi) + sy sin(phi)) * theta*(1+epsilon)/2)`` evaluated
  in closed trigonometric form.
* ``compose(first, second)`` is time order: ``first`` acts first, so the
  matrix product is ``second @ first``.
* ``fidelity(A, B) = |Tr(A B^-1)| / 2`` -- the magnitude makes it a
  global-phase-insensitive real number in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IDENTITY",
    "TWO_PI",
    "UNITARITY_TOL",
    "Unitary2",
    "RotationSpec",
    "rotation",
    "compose",
    "fidelity",
    "axis_angle",
]

IDENTITY = np.eye(2, dtype=complex)

TWO_PI = 2.0 * math.pi

# Entrywise tolerance for U^dagger U = I and for | |det U| - 1 |.
UNITARITY_TOL = 1e-12


def _wrap_phase(phi: float) -> float:
    """``phi`` reduced to [0, 2pi): ``phi % TWO_PI``, except that a tiny
    negative phase, whose remainder rounds up to 2pi, gives 0.0."""
    reduced = phi % TWO_PI
    return 0.0 if reduced == TWO_PI else reduced


class Unitary2:
    """A validated complex 2x2 unitary operator.

    Immutable; the wrapped matrix is exposed read-only.  Construction
    checks unitarity entrywise and the determinant magnitude, both to
    ``UNITARITY_TOL``.
    """

    __slots__ = ("_m",)

    def __init__(self, u00: complex, u01: complex, u10: complex, u11: complex):
        m = np.array([[u00, u01], [u10, u11]], dtype=complex)
        self._init_from(m)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "Unitary2":
        obj = cls.__new__(cls)
        obj._init_from(np.array(matrix, dtype=complex))
        return obj

    def _init_from(self, m: np.ndarray) -> None:
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        m = np.ascontiguousarray(m)
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        gram = m.conj().T @ m
        if np.max(np.abs(gram - IDENTITY)) > UNITARITY_TOL:
            raise ValueError("matrix is not unitary to within 1e-12")
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(abs(det) - 1.0) > UNITARITY_TOL:
            raise ValueError("matrix determinant magnitude differs from 1")
        m.setflags(write=False)
        self._m = m

    @property
    def matrix(self) -> np.ndarray:
        """The wrapped 2x2 ndarray (read-only view)."""
        return self._m

    def __repr__(self) -> str:
        # Python complex values, whose repr needs no numpy to evaluate
        return f"Unitary2({', '.join(map(repr, self._m.ravel().tolist()))})"


@dataclass(frozen=True)
class RotationSpec:
    """One rotation: nominal angle, in-plane axis phase, amplitude error.

    ``theta`` must be non-negative and ``phi`` is normalized to [0, 2pi).
    ``epsilon`` is the fractional over/under-rotation: the realized angle
    is ``theta * (1 + epsilon)``, which must be finite.
    """

    theta: float
    phi: float
    epsilon: float = 0.0

    def __post_init__(self):
        for name in ("theta", "phi", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if not math.isfinite(self.theta * (1.0 + self.epsilon)):
            raise ValueError("the rotation angle theta * (1 + epsilon) must be finite")
        object.__setattr__(self, "phi", _wrap_phase(self.phi))


def _rotations(theta, phi: float, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cayley-Klein pairs ``(c, p)`` of one pulse for every amplitude error
    in ``eps``: ``c = cos(a)`` and ``p = i sin(a) e^(-i phi)`` with ``a =
    theta(1+eps)/2``, the first row of the rotation ``[[c, p], [-conj(p),
    c]] = cos(a) I + i sin(a) (sx cos(phi) + sy sin(phi))``.  An array
    ``theta`` broadcasts against ``eps``: an (S, 1) column gives the (S, M)
    pairs of S angles, each row equal to the call at that angle alone."""
    # Halving last keeps the error exactly foldable into the angle, even
    # for subnormal theta.
    a = 0.5 * (theta * (1.0 + eps))
    return np.cos(a), np.sin(a) * complex(math.sin(phi), math.cos(phi))  # i e^(-i phi)


def rotation(spec: RotationSpec) -> Unitary2:
    """Build the unitary for one in-plane rotation with amplitude error.

    Returns ``exp(+i (sx cos(phi) + sy sin(phi)) * theta*(1+epsilon)/2)``
    in closed form, ``[[c, p], [-conj(p), c]]`` from the one-member pair of
    ``_rotations``.  A zero angle gives the identity; a 2*pi rotation
    gives minus the identity (spinor sign).
    """
    (c,), (p,) = _rotations(spec.theta, spec.phi, np.array([spec.epsilon]))
    return Unitary2(c, p, -p.conjugate(), c)


def compose(first: Unitary2, second: Unitary2) -> Unitary2:
    """Propagator of applying ``first`` then ``second`` in time.

    Matrix product ``second @ first``.
    """
    return Unitary2.from_matrix(second.matrix @ first.matrix)


def _fidelities(ideal, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Half-trace overlaps ``|Re(a_i conj(a) + b_i conj(b))|``, clamped to 1,
    of the ideal pair ``(a_i, b_i)`` with each actual pair ``(a, b)``: for
    two SU(2) matrices the trace of ``ideal . actual^dagger`` is twice the
    real part of their first rows' overlap."""
    a_i, b_i = ideal
    return np.minimum(np.abs((a_i * np.conj(a) + b_i * np.conj(b)).real), 1.0)


def fidelity(ideal: Unitary2, actual: Unitary2) -> float:
    """Half-trace overlap |Tr(ideal . actual^-1)| / 2, in [0, 1].

    Insensitive to global phase and symmetric in its arguments.  Equal
    unitaries give 1; for two rotations about the same axis differing by
    an angle ``d`` the value is ``|cos(d/2)|``.  A ``Unitary2`` need not
    have determinant 1, so the trace takes both rows; on two SU(2)
    matrices it is ``_fidelities``' pair overlap.
    """
    return float(min(0.5 * abs(np.trace(ideal.matrix @ actual.matrix.conj().T)), 1.0))


def axis_angle(u: Unitary2) -> tuple[np.ndarray, float]:
    """Decompose a unitary, up to global phase, into rotation axis and angle.

    Returns ``(axis, angle)`` with ``angle`` in [0, pi] and ``axis`` a unit
    3-vector.  The identity (angle 0) returns the conventional axis
    (0, 0, 1).  For an exact pi rotation both signs of the axis describe
    the same operation; the first component of non-negligible magnitude is
    made positive.

    The matrix over a square root of its determinant lies in SU(2): its
    first row is the pair ``(a, b)`` of ``cos(c) I + i sin(c) (n . sigma)``,
    signed so that ``Re a >= 0``.  The angle ``2 atan2(hypot(Im a, |b|),
    Re a)`` keeps its relative precision near the identity.
    """
    m = u.matrix
    a, b = m[0] / np.sqrt(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    if a.real < 0:
        a, b = -a, -b
    sin_c = math.hypot(a.imag, abs(b))
    angle = 2.0 * math.atan2(sin_c, a.real)

    if angle < 1e-15:
        return np.array([0.0, 0.0, 1.0]), 0.0

    # b = sin(c) (n_y + i n_x) and Im a = sin(c) n_z
    n = np.array([b.imag, b.real, a.imag]) / sin_c

    if abs(angle - math.pi) <= 1e-12:
        for comp in n:
            if abs(comp) > 1e-9:
                if comp < 0:
                    n = -n
                break

    return n, angle
