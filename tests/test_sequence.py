import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinpulse import (
    Acquire,
    Delay,
    Pulse,
    PulseProgram,
    Repeat,
    RotationSpec,
    MAX_NESTING_DEPTH,
    MAX_REPETITIONS,
    bb1_phases,
    bb1_rabi_program,
    bb1_sequence,
    compose,
    rotation,
)


def net_unitary(pulses, eps=0.0):
    u = rotation(RotationSpec(0.0, 0.0, 0.0))
    for p in pulses:
        u = compose(u, rotation(RotationSpec(p.theta, p.phi, eps)))
    return u


def unroll(elements):
    out = []
    for el in elements:
        if isinstance(el, Repeat):
            out.extend(unroll(el.body) * el.count)
        elif isinstance(el, Pulse):
            out.append(el)
    return out


class TestBb1Phases:
    def test_pi_pulse_phases(self):
        phi1, phi2 = bb1_phases(math.pi)
        assert phi1 / math.pi == pytest.approx(0.580, abs=1e-3)
        assert phi2 / math.pi == pytest.approx(1.741, abs=1e-3)

    def test_magic_rotation_phases(self):
        phi1, phi2 = bb1_phases(0.608 * math.pi)
        assert phi1 / math.pi == pytest.approx(0.549, abs=1e-3)
        assert phi2 / math.pi == pytest.approx(1.646, abs=1e-3)

    def test_zero_angle(self):
        assert bb1_phases(0.0) == (math.pi / 2.0, 3.0 * math.pi / 2.0)

    @given(st.floats(0.0, 4.0 * math.pi))
    def test_ratio_is_exactly_three(self, theta):
        phi1, phi2 = bb1_phases(theta)
        assert phi2 == 3.0 * phi1

    @pytest.mark.parametrize("theta", [-0.1, 4.0 * math.pi + 0.1, math.inf, math.nan])
    def test_domain_errors(self, theta):
        with pytest.raises(ValueError):
            bb1_phases(theta)


class TestBb1Sequence:
    def test_structure_for_pi(self):
        seq = bb1_sequence(math.pi)
        phi1, phi2 = bb1_phases(math.pi)
        assert [p.theta for p in seq] == [math.pi, math.pi, 2 * math.pi, math.pi]
        assert [p.phi for p in seq] == [0.0, phi1, phi2, phi1]

    def test_correction_block_is_identity_at_zero_error(self):
        # the trailing pi, 2pi, pi block alone
        for theta in (0.0, 0.5, math.pi, 2.7):
            block = bb1_sequence(theta)[1:]
            u = net_unitary(block)
            assert np.max(np.abs(u.matrix - np.eye(2))) < 1e-12

    @given(st.floats(0.0, 4.0 * math.pi))
    def test_net_propagator_matches_plain_rotation(self, theta):
        u = net_unitary(bb1_sequence(theta))
        ref = rotation(RotationSpec(theta, 0.0, 0.0))
        assert np.max(np.abs(u.matrix - ref.matrix)) < 1e-12

    def test_total_nominal_angle(self):
        for theta in (0.0, 1.0, math.pi, 3.3):
            assert sum(p.theta for p in bb1_sequence(theta)) == pytest.approx(
                theta + 4.0 * math.pi, abs=1e-12
            )

    def test_axis_phase_shift(self):
        # every pulse of the x block turned by pi/2 gives the y rotation
        shifted = [Pulse(p.theta, p.phi + math.pi / 2) for p in bb1_sequence(math.pi)]
        u = net_unitary(shifted)
        ref = rotation(RotationSpec(math.pi, math.pi / 2, 0.0))
        assert np.max(np.abs(u.matrix - ref.matrix)) < 1e-12


class TestBb1RabiProgram:
    def test_zero_cycles_is_single_pulse(self):
        p = bb1_rabi_program(0, math.pi / 2)
        assert p.elements == (Pulse(math.pi / 2, 0.0),)

    def test_one_cycle_zero_remainder(self):
        p = bb1_rabi_program(1, 0.0)
        assert len(p.elements) == 1
        assert isinstance(p.elements[0], Repeat)
        assert p.elements[0].count == 1
        assert sum(x.theta for x in p.elements[0].body) == pytest.approx(5 * math.pi)

    def test_net_rotation_four_blocks_plus_remainder(self):
        p = bb1_rabi_program(4, 0.3 * math.pi)
        u = net_unitary(unroll(p.elements))
        ref = rotation(RotationSpec(4.3 * math.pi, 0.0, 0.0))
        assert np.max(np.abs(u.matrix - ref.matrix)) < 1e-11

    def test_validation(self):
        with pytest.raises(ValueError):
            bb1_rabi_program(-1, 0.0)
        with pytest.raises(ValueError):
            bb1_rabi_program(2, math.pi)
        with pytest.raises(ValueError):
            bb1_rabi_program(2, -0.1)
        with pytest.raises(ValueError, match="integer"):
            bb1_rabi_program(True, 0.0)


class TestElements:
    def test_pulse_normalizes_phase(self):
        assert Pulse(1.0, 2.0 * math.pi).phi == 0.0
        assert Pulse(1.0, -math.pi / 2).phi == pytest.approx(1.5 * math.pi)
        # the remainder of a tiny negative phase rounds up to 2pi
        assert Pulse(1.0, -1e-300).phi == 0.0

    def test_pulse_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Pulse(-1.0, 0.0)
        with pytest.raises(ValueError):
            Pulse(math.nan, 0.0)

    def test_delay_rejects_negative(self):
        with pytest.raises(ValueError):
            Delay(-1e-9)

    def test_repeat_rejects_bad_count(self):
        with pytest.raises(ValueError):
            Repeat(0, (Acquire(),))
        with pytest.raises(ValueError, match="integer"):
            Repeat(True, (Acquire(),))

    @pytest.mark.parametrize(
        "build,culprit",
        [
            (lambda: PulseProgram(("junk",)), "'junk'"),
            (lambda: PulseProgram((Repeat(2, (None,)),)), "None"),
            (lambda: Repeat(2, (Pulse(1.0, 0.0), "x")), "'x'"),
        ],
        ids=["top-level", "nested", "repeat-body"],
    )
    def test_non_element_rejected(self, build, culprit):
        with pytest.raises(ValueError, match=f"not a sequence element: {culprit}"):
            build()

    def test_repeat_bounded_by_nested_repetitions(self):
        assert MAX_REPETITIONS == 2**23
        Repeat(MAX_REPETITIONS, (Acquire(),))
        Repeat(MAX_REPETITIONS, (Pulse(1.0, 0.0),))
        for body in ((Acquire(),), (Pulse(1.0, 0.0),), ()):
            with pytest.raises(ValueError, match=str(MAX_REPETITIONS)):
                Repeat(MAX_REPETITIONS + 1, body)
        # Acquires run nothing, so they do not count
        Repeat(MAX_REPETITIONS, (Pulse(1.0, 0.0), Acquire(), Acquire()))
        # nested counts multiply: the bound is on the runs of one element
        inner = Repeat(1024, (Acquire(), Repeat(1024, (Delay(1.0),)), Acquire()))
        Repeat(8, (inner, Delay(1.0)))
        for count in (9, MAX_REPETITIONS - 2048):
            with pytest.raises(ValueError, match="runs of one pulse or delay"):
                Repeat(count, (inner, Delay(1.0)))
        with pytest.raises(ValueError, match=str(MAX_REPETITIONS)):
            Repeat(2, (Repeat(MAX_REPETITIONS, (Pulse(1.0, 0.0),)),))
        # siblings run one after the other: the busiest one counts
        siblings = (Repeat(2**21, (Pulse(1.0, 0.0),)), Repeat(2**20, (Delay(1.0),)))
        Repeat(4, siblings)
        for count in (5, 2**22):
            with pytest.raises(ValueError, match=str(MAX_REPETITIONS)):
                Repeat(count, siblings)
        # repeats of acquires alone run nothing, however deep
        Repeat(1000, (Repeat(1000, (Repeat(1000, (Acquire(),)),)),))

    def test_program_name_excluded_from_equality(self):
        a = PulseProgram((Pulse(1.0, 0.0),), name="a")
        b = PulseProgram((Pulse(1.0, 0.0),), name="b")
        assert a == b

    def test_repeat_bounds_its_own_nesting_depth(self):
        nested = Pulse(1.0, 0.0)
        for level in range(1, MAX_NESTING_DEPTH + 1):
            nested = Repeat(1, (nested,))
        assert level == 16
        with pytest.raises(ValueError, match=f"nesting depth exceeds {MAX_NESTING_DEPTH}"):
            Repeat(1, (nested,))  # level 17

    def test_program_depth_guard(self):
        inner: tuple = (Acquire(),)
        for _ in range(16):
            inner = (Repeat(2, inner),)
        PulseProgram(inner)  # depth 16 is fine
        with pytest.raises(ValueError):
            PulseProgram((Repeat(2, inner),))
