"""Independent references that the benchmark checks the program's outputs against.

Nothing here calls spinpulse: rotations, BB1 phases, the unrolled 2x2
propagation and the Gaussian nutation envelope are written out from their
closed forms.  The echo-train oracle is the repository's own brute-force
oracle in ``tests/oracles.py``, loaded by path.
"""

from __future__ import annotations

import cmath
import importlib.util
import math
import os

# A pulse phase belongs to an offset channel when within this distance (rad),
# the matching rule that ErrorModel documents.
PHASE_MATCH_TOL = 1e-9


def rot(theta: float, phi: float, eps: float = 0.0):
    """cos(a) I + i sin(a) (sx cos phi + sy sin phi), a = theta (1 + eps) / 2."""
    a = 0.5 * theta * (1.0 + eps)
    c, s = math.cos(a), math.sin(a)
    e = cmath.exp(-1j * phi)
    return ((c, 1j * s * e), (1j * s * e.conjugate(), c))


def matmul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def apply(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def bb1_phi1(theta: float) -> float:
    return math.acos(-theta / (4.0 * math.pi))


def bb1_fidelity(theta: float, eps: float, offsets: tuple[float, float]) -> float:
    """|Tr(ideal . actual^dagger)| / 2 for the four-pulse corrected rotation."""
    phi1 = bb1_phi1(theta)
    d1, d2 = offsets
    u = rot(theta, 0.0, eps)
    for th, ph in ((math.pi, phi1 + d1), (2.0 * math.pi, 3.0 * phi1 + d2), (math.pi, phi1 + d1)):
        u = matmul(rot(th, ph, eps), u)
    ideal = rot(theta, 0.0)
    tr = sum(ideal[i][j] * u[i][j].conjugate() for i in range(2) for j in range(2))
    return min(0.5 * abs(tr), 1.0)


def offset_for(phi: float, offsets) -> float:
    for nominal, delta in sorted(offsets):
        if abs(nominal - phi) <= PHASE_MATCH_TOL:
            return delta
    return 0.0


def propagate(elements, eps: float, offsets, delta: float):
    """Final spinor of spin-up driven through ``elements``, one 2x2 product per
    unrolled element.  ``elements`` is the nested tuple form the program
    generator builds: ("pulse", theta, phi), ("delay", tau), ("acquire",),
    ("repeat", count, body)."""
    v = (1.0 + 0j, 0j)
    for el in unrolled(elements):
        if el[0] == "pulse":
            v = apply(rot(el[1], el[2] + offset_for(el[2], offsets), eps), v)
        elif el[0] == "delay":
            half = 0.5 * delta * el[1]
            v = (v[0] * cmath.exp(1j * half), v[1] * cmath.exp(-1j * half))
    return v


def unrolled(elements):
    for el in elements:
        if el[0] == "repeat":
            for _ in range(el[1]):
                yield from unrolled(el[2])
        else:
            yield el


def gaussian_rabi(theta: float, sigma: float) -> float:
    """Gaussian average of -cos((1 + eps) theta) for eps ~ N(0, sigma^2)."""
    return -math.cos(theta) * math.exp(-0.5 * sigma * sigma * theta * theta)


def lsq_slope(xs, ys) -> float:
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    return sxy / sxx


def echo_train_oracle(root: str):
    """The brute-force echo-train oracle from the repository's test suite."""
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("spinpulse_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.echo_train_oracle
