import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from spinpulse import (
    RotationSpec,
    Unitary2,
    axis_angle,
    bb1_phases,
    compose,
    fidelity,
    rotation,
)
from spinpulse import su2
from oracles import rotation_expm

angles = st.floats(0.0, 4.0 * math.pi)
phases = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
errors = st.floats(-0.5, 0.5)


def test_zero_angle_is_identity():
    u = rotation(RotationSpec(0.0, 0.0, 0.0))
    assert np.allclose(u.matrix, np.eye(2), atol=1e-15)


def test_pi_pulse_closed_form():
    u = rotation(RotationSpec(math.pi, 0.0, 0.0))
    assert np.allclose(u.matrix, np.array([[0, 1j], [1j, 0]]), atol=1e-15)


def test_two_pi_is_minus_identity():
    for phi in (0.0, 1.0, 5.1):
        u = rotation(RotationSpec(2.0 * math.pi, phi, 0.0))
        assert np.allclose(u.matrix, -np.eye(2), atol=1e-12)


@pytest.mark.parametrize(
    "theta,phi,eps",
    [
        (math.pi, 0.0, 0.1),
        (2.3, 1.1, 0.05),
        (0.7, 4.0, -0.2),
        (4.0 * math.pi, 5.5, 0.3),
    ],
)
def test_rotation_matches_matrix_exponential(theta, phi, eps):
    u = rotation(RotationSpec(theta, phi, eps))
    assert np.max(np.abs(u.matrix - rotation_expm(theta, phi, eps))) < 1e-13


@given(angles, phases, errors)
def test_rotation_is_unitary(theta, phi, eps):
    u = rotation(RotationSpec(theta, phi, eps)).matrix
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12


@given(angles, phases, errors)
@example(theta=2.225073858507203e-309, phi=0.0, eps=0.125)  # subnormal theta
def test_error_folds_into_angle_exactly(theta, phi, eps):
    a = rotation(RotationSpec(theta, phi, eps))
    b = rotation(RotationSpec(theta * (1.0 + eps), phi, 0.0))
    assert np.array_equal(a.matrix, b.matrix)


@given(
    st.lists(angles, min_size=1, max_size=6),
    phases,
    st.lists(errors, min_size=1, max_size=9),
)
@example(thetas=[0.0, 2.225073858507203e-309, 5e-324, 1.3], phi=0.0, eps=[-0.5, 0.0, 0.125])
def test_column_of_angles_equals_stacked_scalar_calls(thetas, phi, eps):
    # theta = 0 and subnormal angles included: each row is the scalar call
    eps = np.array(eps)
    block = su2._rotations(np.array(thetas)[:, None], phi, eps)
    want = [su2._rotations(theta, phi, eps) for theta in thetas]
    for got, rows in zip(block, zip(*want)):
        assert got.shape == (len(thetas), eps.size)
        assert np.array_equal(got.view(np.uint64), np.stack(rows).view(np.uint64))


class _CountingNumpy:
    """Stands in for ``su2.np`` and records every numpy name looked up."""

    def __init__(self):
        self.names = []

    def __getattr__(self, name):
        self.names.append(name)
        return getattr(np, name)


@pytest.mark.parametrize("theta", [1.3, np.array([[0.2], [1.3]])])
def test_rotations_call_numpy_twice(monkeypatch, theta):
    # broadcasting costs the scalar path (the engine's pulses) no numpy call,
    # and the pair needs no buffer
    counting = _CountingNumpy()
    monkeypatch.setattr(su2, "np", counting)
    su2._rotations(theta, 0.4, np.array([0.0, 0.1]))
    assert counting.names == ["cos", "sin"]


def test_compose_same_axis_adds_angles():
    half = rotation(RotationSpec(math.pi / 2, 0.0, 0.0))
    full = rotation(RotationSpec(math.pi, 0.0, 0.0))
    assert np.allclose(compose(half, half).matrix, full.matrix, atol=1e-15)


def test_compose_with_identity():
    u = rotation(RotationSpec(1.234, 0.77, 0.0))
    ident = Unitary2(1, 0, 0, 1)
    assert np.allclose(compose(u, ident).matrix, u.matrix, atol=1e-15)


def test_compose_order_is_time_order():
    # second argument acts later: compose(A, B) = B @ A
    a = rotation(RotationSpec(math.pi / 2, 0.0, 0.0))
    b = rotation(RotationSpec(math.pi / 2, math.pi / 2, 0.0))
    assert np.allclose(compose(a, b).matrix, b.matrix @ a.matrix, atol=1e-15)


def test_bb1_block_at_zero_error_composes_to_plain_rotation():
    for theta in (0.3, math.pi, 2.0):
        phi1, phi2 = bb1_phases(theta)
        net = rotation(RotationSpec(theta, 0.0, 0.0))
        for th, ph in [(math.pi, phi1), (2 * math.pi, phi2), (math.pi, phi1)]:
            net = compose(net, rotation(RotationSpec(th, ph, 0.0)))
        assert np.max(np.abs(net.matrix - rotation(RotationSpec(theta, 0, 0)).matrix)) < 1e-12


def test_fidelity_of_equal_unitaries():
    u = rotation(RotationSpec(2.2, 0.4, 0.0))
    assert fidelity(u, u) == pytest.approx(1.0, abs=1e-15)


def test_fidelity_global_phase_insensitive():
    ident = Unitary2(1, 0, 0, 1)
    rotated = Unitary2(1j, 0, 0, 1j)
    assert fidelity(ident, rotated) == pytest.approx(1.0, abs=1e-15)


def test_fidelity_same_axis_value():
    # |cos(eps*pi/2)| for a pi pulse over/under-rotated by 10%
    f = fidelity(
        rotation(RotationSpec(math.pi, 0, 0)), rotation(RotationSpec(math.pi, 0, 0.1))
    )
    assert f == pytest.approx(math.cos(0.05 * math.pi), abs=1e-12)
    assert f == pytest.approx(0.987688340595, abs=1e-9)


@given(st.floats(1.0, 3.0 * math.pi), phases, st.floats(-1.0, 1.0))
def test_fidelity_same_axis_closed_form(theta, phi, delta):
    a = rotation(RotationSpec(theta, phi, 0.0))
    b = rotation(RotationSpec(theta + delta, phi, 0.0))
    assert fidelity(a, b) == pytest.approx(abs(math.cos(delta / 2.0)), abs=1e-12)


@given(angles, phases, angles, phases)
def test_fidelity_symmetric(t1, p1, t2, p2):
    a = rotation(RotationSpec(t1, p1, 0.0))
    b = rotation(RotationSpec(t2, p2, 0.0))
    assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)


@given(angles, phases, st.floats(0.0, 2.0 * math.pi))
def test_fidelity_ignores_global_phase(theta, phi, gamma):
    u = rotation(RotationSpec(theta, phi, 0.0))
    v = Unitary2.from_matrix(np.exp(1j * gamma) * u.matrix)
    assert fidelity(u, v) == pytest.approx(1.0, abs=1e-12)


@given(angles, phases, errors, angles, phases, errors)
def test_fidelity_of_rotations_is_the_pair_overlap(t1, p1, e1, t2, p2, e2):
    # the kernels' pair fidelity is the public half-trace on SU(2) matrices
    ideal = rotation(RotationSpec(t1, p1, e1))
    actual = su2._rotations(t2, p2, np.array([e2]))
    pair = su2._fidelities(ideal.matrix[0], *actual)[0]
    assert pair == pytest.approx(fidelity(ideal, rotation(RotationSpec(t2, p2, e2))), abs=1e-15)


def test_rotation_assembles_its_pair():
    c, p = su2._rotations(1.3, 0.7, np.array([0.1]))
    m = rotation(RotationSpec(1.3, 0.7, 0.1)).matrix
    assert m.tolist() == [[c[0], p[0]], [-np.conj(p[0]), c[0]]]


def test_axis_angle_identity():
    axis, angle = axis_angle(Unitary2(1, 0, 0, 1))
    assert angle == 0.0
    assert np.allclose(axis, [0, 0, 1])


def test_axis_angle_pi_about_x():
    # phase pi is the axis -x: a pi rotation's axis is reported with its
    # first nonzero component positive, so it too comes back as +x
    for phi in (0.0, math.pi):
        axis, angle = axis_angle(rotation(RotationSpec(math.pi, phi, 0.0)))
        assert angle == pytest.approx(math.pi, abs=1e-12)
        assert np.allclose(axis, [1, 0, 0], atol=1e-12)


@given(st.floats(0.1, math.pi - 0.1), phases)
def test_axis_angle_recovers_rotation(theta, phi):
    axis, angle = axis_angle(rotation(RotationSpec(theta, phi, 0.0)))
    assert angle == pytest.approx(theta, abs=1e-9)
    assert np.allclose(axis, [math.cos(phi), math.sin(phi), 0.0], atol=1e-9)


def test_bb1_residual_rotation_angle():
    # Residual of the corrected pi pulse at 10% error, against a direct
    # composition oracle: about 6.08e-3 rad (infidelity ~4.6e-6).
    phi1, phi2 = bb1_phases(math.pi)
    net = rotation(RotationSpec(math.pi, 0.0, 0.1))
    for th, ph in [(math.pi, phi1), (2 * math.pi, phi2), (math.pi, phi1)]:
        net = compose(net, rotation(RotationSpec(th, ph, 0.1)))
    ideal = rotation(RotationSpec(math.pi, 0.0, 0.0)).matrix
    residual = compose(net, Unitary2.from_matrix(ideal.conj().T))  # net times the ideal's adjoint
    _, angle = axis_angle(residual)
    assert angle == pytest.approx(6.081079e-3, rel=1e-4)
    assert angle <= 6.1e-3


@pytest.mark.parametrize("epsilon, rel", [(1e-2, 1e-9), (1e-3, 1e-7), (1e-4, 1e-4)])
def test_bb1_residual_angle_below_the_trace_floor(epsilon, rel):
    # the BB1 pi residual against a 40-digit product of the exact rotations:
    # about 6.13e-9 rad at epsilon = 1e-3 and 6.13e-12 at 1e-4, both below
    # 3e-8, the smallest angle a float cos(angle/2) tells from 0.  At 1e-4
    # the float composition's own rounding sets the limit.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    phi1, phi2 = bb1_phases(math.pi)
    net = rotation(RotationSpec(math.pi, 0.0, epsilon))
    for th, ph in [(math.pi, phi1), (2 * math.pi, phi2), (math.pi, phi1)]:
        net = compose(net, rotation(RotationSpec(th, ph, epsilon)))
    ideal = rotation(RotationSpec(math.pi, 0.0, 0.0)).matrix
    residual = compose(net, Unitary2.from_matrix(ideal.conj().T))  # net times the ideal's adjoint
    _, angle = axis_angle(residual)

    phi1 = mp.acos(mp.mpf(-1) / 4)
    a, b = mp.mpf(1), mp.mpf(0)
    for theta, phi in [(mp.pi, 0), (mp.pi, phi1), (2 * mp.pi, 3 * phi1), (mp.pi, phi1)]:
        half = theta * (1 + mp.mpf(epsilon)) / 2
        c, p = mp.cos(half), mp.mpc(0, 1) * mp.sin(half) * mp.expj(-phi)
        a, b = c * a - p * mp.conj(b), c * b + p * mp.conj(a)
    # undo the ideal pi pulse about x, whose pair is (0, i): its inverse's is (0, -i)
    a, b = -1j * mp.conj(b), 1j * mp.conj(a)
    exact = 2 * mp.atan2(mp.sqrt(mp.im(a) ** 2 + abs(b) ** 2), abs(mp.re(a)))
    assert abs(angle - exact) <= rel * exact, float(exact)


@given(st.floats(0.1, math.pi - 0.1), phases, phases)
def test_axis_angle_ignores_global_phase(theta, phi, gamma):
    u = Unitary2.from_matrix(complex(math.cos(gamma), math.sin(gamma))
                             * rotation(RotationSpec(theta, phi, 0.0)).matrix)
    axis, angle = axis_angle(u)
    assert angle == pytest.approx(theta, abs=1e-12)
    assert np.allclose(axis, [math.cos(phi), math.sin(phi), 0.0], atol=1e-12)


def test_axis_angle_traceless():
    # det -1 and det +1: pi about x and about y
    for u, axis_want in [(Unitary2(0, 1, 1, 0), [1, 0, 0]), (Unitary2(0, 1, -1, 0), [0, 1, 0])]:
        axis, angle = axis_angle(u)
        assert angle == pytest.approx(math.pi, abs=1e-12)
        assert np.allclose(axis, axis_want, atol=1e-12)


def test_unitary2_rejects_non_unitary():
    with pytest.raises(ValueError):
        Unitary2(1, 0, 0, 2)
    with pytest.raises(ValueError):
        Unitary2.from_matrix(np.array([[1, 0.001], [0, 1]]))


def test_unitary2_rejects_non_finite():
    with pytest.raises(ValueError):
        Unitary2(math.nan, 0, 0, 1)


def test_unitary2_rejects_wrong_shape():
    with pytest.raises(ValueError, match="expected a 2x2 matrix, got shape \\(3, 3\\)"):
        Unitary2.from_matrix(np.eye(3))


def test_unitary2_determinant_check():
    # Entrywise unitarity within t bounds |det| to [sqrt(1 - 2t), 1 + t],
    # so only rounding at the tolerance edge reaches this check: here each
    # diagonal entry's |u|^2 rounds to within 1e-12 of 1 and |det| past it.
    a = complex(-0.992729765673042, 0.12036449787103735)
    b = complex(-0.4879940450109755, 0.872846957968478)
    with pytest.raises(ValueError, match="determinant magnitude differs from 1"):
        Unitary2(a, 0, 0, b)


def test_unitary2_repr_round_trips():
    u = rotation(RotationSpec(1.0, 0.3, 0.1))
    back = eval(repr(u), {"Unitary2": Unitary2})
    assert isinstance(back, Unitary2)
    assert np.array_equal(back.matrix, u.matrix)


def test_unitary2_matrix_is_read_only():
    u = rotation(RotationSpec(1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        u.matrix[0, 0] = 5.0


def test_rotation_spec_validation():
    with pytest.raises(ValueError):
        RotationSpec(-0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        RotationSpec(math.inf, 0.0, 0.0)
    with pytest.raises(ValueError):
        RotationSpec(1.0, 0.0, math.nan)
    # finite inputs whose realized angle overflows are refused before any matrix
    with pytest.raises(ValueError, match=r"rotation angle theta \* \(1 \+ epsilon\) must be finite"):
        RotationSpec(math.pi, 0.0, 1e308)
    assert RotationSpec(1.0, -math.pi / 2, 0.0).phi == pytest.approx(1.5 * math.pi)
    assert RotationSpec(1.0, 2.0 * math.pi, 0.0).phi == 0.0
    assert RotationSpec(1.0, -1e-300, 0.0).phi == 0.0


@given(st.floats(-1e6, 1e6))
@example(-1e-300)
@example(-5e-324)
@example(-2.0 * math.pi)
def test_wrapped_phase_is_the_remainder_in_range(phi):
    wrapped = su2._wrap_phase(phi)
    assert 0.0 <= wrapped < su2.TWO_PI
    # every phase keeps its remainder bit for bit, but one that rounds up to 2pi
    assert wrapped == phi % su2.TWO_PI or (wrapped == 0.0 and phi % su2.TWO_PI == su2.TWO_PI)
