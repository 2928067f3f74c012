import math
import random
import struct
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinpulse import (
    DELTA_ZERO,
    Acquire,
    Delay,
    Discrete,
    EnsembleSpec,
    ErrorModel,
    Gaussian,
    Pulse,
    PulseProgram,
    Repeat,
    SpinState,
    Signal,
    MAX_REPETITIONS,
    Uniform,
    bb1_rabi_program,
    bb1_sequence,
    bloch,
    echo_train,
    estimate_rotation_error,
    propagate,
    rabi_trace,
)
from spinpulse import cli, simulator
from spinpulse.dsl import parse_program
from spinpulse.errors import NO_ERROR, ensemble_nodes
from spinpulse.simulator import MAX_MEMBER_ECHOES, MAX_SAMPLES, _propagate_nodes
from spinpulse.su2 import IDENTITY, Unitary2, _rotations
from oracles import (
    echo_train_oracle,
    gaussian_rabi_closed_form,
    periodic_line,
    propagate_oracle,
    random_program,
    sampled,
)

ZERO_WIDTH = EnsembleSpec(Discrete(((0.0, 1.0),)), nodes=1)
GAUSS5 = EnsembleSpec(Gaussian(0.0, 0.05), nodes=41)


def sampled_line(count, seed):
    """The default detuning line at tau = 1 as ``count`` seeded equal-weight
    draws from all of it."""
    return EnsembleSpec(DELTA_ZERO, sampled(Uniform(-4 * math.pi, 4 * math.pi), count, seed))


def with_depth(elements, depth=0):
    """Every element of a program tree with its Repeat nesting depth."""
    for el in elements:
        yield el, depth
        if isinstance(el, Repeat):
            yield from with_depth(el.body, depth + 1)


def random_elements(rng, n):
    out = []
    for _ in range(n):
        r = rng.random()
        if r < 0.7:
            out.append(Pulse(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)))
        elif r < 0.9:
            out.append(Delay(rng.uniform(0, 1)))
        else:
            out.append(Acquire())
    return tuple(out)


def matrices(a, b):
    """The (M, 2, 2) SU(2) matrices ``[[a, b], [-conj(b), conj(a)]]`` of
    the engine's Cayley-Klein pairs."""
    return np.stack([np.stack([a, b], -1), np.stack([-np.conj(b), np.conj(a)], -1)], -2)


class TestPropagate:
    def test_empty_program_returns_initial(self):
        s = propagate(PulseProgram(()))
        assert np.allclose(s.vector, [1, 0])

    def test_overflowing_angle_or_phase_refused(self):
        # refused before numpy computes them, so with no RuntimeWarning
        # (which the suite's warning filter would raise)
        with pytest.raises(ValueError, match=r"theta \* \(1 \+ epsilon\) must be finite"):
            propagate(PulseProgram((Pulse(1.7e308, 0.0),)), ErrorModel(0.5))
        with pytest.raises(ValueError, match=r"delta \* tau must be finite"):
            propagate(PulseProgram((Repeat(2, (Delay(1e300),)),)), delta=1e10)
        # a finite angle runs
        propagate(PulseProgram((Pulse(1.7e308, 0.0),)))

    def test_pi_pulse_inverts(self):
        s = propagate(PulseProgram((Pulse(math.pi, 0.0),)))
        assert bloch(s)[2] == pytest.approx(-1.0, abs=1e-12)

    def test_delay_rotates_about_z(self):
        plus_x = SpinState(1 / math.sqrt(2), 1 / math.sqrt(2))
        s = propagate(PulseProgram((Delay(1.0),)), delta=math.pi, initial=plus_x)
        assert bloch(s)[0] == pytest.approx(-1.0, abs=1e-12)

    def test_repeat_unrolls(self):
        quarter = PulseProgram((Repeat(2, (Pulse(math.pi / 2, 0.0),)),))
        straight = PulseProgram((Pulse(math.pi, 0.0),))
        a = propagate(quarter)
        b = propagate(straight)
        assert np.allclose(a.vector, b.vector, atol=1e-12)

    def test_error_model_applies(self):
        s = propagate(PulseProgram((Pulse(math.pi, 0.0),)), ErrorModel(epsilon=0.1))
        assert bloch(s)[2] == pytest.approx(-math.cos(0.1 * math.pi), abs=1e-12)

    def test_norm_preserved_through_long_program(self):
        # the engine itself, not propagate, which normalises its result:
        # the propagator stays unitary
        rng = random.Random(99)
        elements = random_elements(rng, 1000)
        pair = _propagate_nodes(elements, ErrorModel(epsilon=0.2), np.array([0.2]), np.array([0.7]))
        u = matrices(*pair)[0]
        assert np.max(np.abs(u.conj().T @ u - IDENTITY)) < 1e-10

    def test_pair_norm_preserved_through_long_program(self):
        # the engine's pair stays on the unit sphere: |a|^2 + |b|^2 = 1
        rng = random.Random(99)
        elements = random_elements(rng, 1000)
        (a,), (b,) = _propagate_nodes(elements, ErrorModel(0.2), np.array([0.2]), np.array([0.7]))
        assert abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) < 1e-13

    def test_propagate_reads_engine_propagator_columns(self):
        # the public boundary: propagate from each basis state is that
        # column of the engine's one-member propagator (to 1e-14, since
        # propagate renormalizes its result)
        rng = random.Random(23)
        eps = np.array([-0.2, 0.0, 0.15])
        delta = np.array([1.3, -4.0, 2.5])
        basis = (SpinState(1.0, 0.0), SpinState(0.0, 1.0))
        for _ in range(40):
            program = random_program(rng)
            phases = sorted({el.phi for el in program.elements if isinstance(el, Pulse)})
            offsets = [(p, rng.uniform(-0.2, 0.2)) for p in phases]
            pairs = _propagate_nodes(program.elements, ErrorModel(0.0, offsets), eps, delta)
            block = matrices(*pairs)
            for u, e, d in zip(block, eps, delta):
                for col, initial in enumerate(basis):
                    state = propagate(program, ErrorModel(e, offsets), d, initial)
                    assert np.max(np.abs(state.vector - u[:, col])) < 1e-14

    def test_engine_matches_oracle_on_random_programs(self):
        # the oracle unrolls every Repeat; the engine walks each body once
        rng = random.Random(5)
        nested_repeats = 0
        for _ in range(100):
            program = random_program(rng)
            tree = list(with_depth(program.elements))
            phases = sorted({el.phi for el, _ in tree if isinstance(el, Pulse)})
            offsets = [(p, rng.uniform(-0.2, 0.2)) for p in phases if rng.random() < 0.7]
            model = ErrorModel(rng.uniform(-0.3, 0.3), offsets)
            delta = rng.uniform(-5.0, 5.0)
            initial = SpinState(math.cos(0.4), math.sin(0.4) * np.exp(0.3j))
            got = propagate(program, model, delta, initial).vector
            ref = propagate_oracle(program.elements, model.epsilon, offsets, delta, initial.vector)
            assert np.max(np.abs(got - ref)) < 1e-12
            nested_repeats += any(isinstance(el, Repeat) and d >= 2 for el, d in tree)
        assert nested_repeats >= 10

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_engine_pairs_match_oracle_propagators(self, seed):
        # the engine's pairs, assembled, are the oracle's propagators at every
        # node; a Repeat nested two deep closes each program
        rng = random.Random(seed)
        inner = random_program(rng, 3, depth=2).elements or (Pulse(1.0, 0.0),)
        nested = Repeat(rng.randint(1, 4), (Repeat(rng.randint(1, 4), inner),))
        program = PulseProgram(random_program(rng).elements + (nested,))
        phases = sorted({el.phi for el, _ in with_depth(program.elements) if isinstance(el, Pulse)})
        offsets = [(p, rng.uniform(-0.2, 0.2)) for p in phases if rng.random() < 0.7]
        eps = np.array([rng.uniform(-0.3, 0.3) for _ in range(3)])
        delta = np.array([rng.uniform(-5.0, 5.0) for _ in range(3)])
        got = matrices(*_propagate_nodes(program.elements, ErrorModel(0.0, offsets), eps, delta))
        for u, e, d in zip(got, eps, delta):
            want = propagate_oracle(program.elements, e, offsets, d, np.eye(2))
            assert np.max(np.abs(u - want)) < 1e-13

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_power_equals_k_fold_product(self, k, seed):
        # on a general pair (pulses and a delay), against k products taken one by one
        rng = random.Random(seed)
        body = random_elements(rng, 4) + (Delay(0.3),)
        eps, delta = np.array([0.0, 0.1, -0.25]), np.array([0.0, 1.7, -3.1])
        a, b = _propagate_nodes(body, NO_ERROR, eps, delta)
        start = _propagate_nodes(random_elements(rng, 3), NO_ERROR, eps, delta)
        want = start
        for _ in range(k):
            want = simulator._compose(a, b, *want)
        got = simulator._power(a, b, k, *start)
        assert np.max(np.abs(matrices(*got) - matrices(*want))) < 1e-13

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, MAX_REPETITIONS),
        theta=st.floats(0.0, 4 * math.pi),
        phi=st.floats(0.0, 2 * math.pi, exclude_max=True),
    )
    @example(k=MAX_REPETITIONS, theta=0.1234567 * math.pi, phi=0.0)
    def test_power_equals_k_fold_rotation(self, k, theta, phi):
        # up to MAX_REPETITIONS: k pulses of half angle h are one pulse of
        # half angle k*h, taken exactly as k*hi + k*lo with h = hi + lo and hi
        # a float32; the power's rounding grows as k does (1.84e-16 k at worst
        # on 4500 sampled pulses against a 40-digit reference)
        eps = np.array([0.0, 0.1, -0.25])
        a, b = simulator._power(*_rotations(theta, phi, eps), k, 1.0, 0.0)
        axis = complex(math.cos(phi), -math.sin(phi))
        for h, got in zip(0.5 * (theta * (1.0 + eps)), zip(a, b)):
            hi = float(np.float32(h))
            x, y = k * hi, k * (h - hi)
            c = math.cos(x) * math.cos(y) - math.sin(x) * math.sin(y)
            s = math.sin(x) * math.cos(y) + math.cos(x) * math.sin(y)
            assert np.max(np.abs(np.array(got) - [c, 1j * s * axis])) < 5e-16 * k + 1e-14

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.0, 2 * math.pi))
    def test_global_phase_has_no_effect(self, seed, alpha):
        rng = random.Random(seed)
        program = random_program(rng)
        phases = sorted({el.phi for el in program.elements if isinstance(el, Pulse)})
        model = ErrorModel(rng.uniform(-0.3, 0.3), [(p, rng.uniform(-0.2, 0.2)) for p in phases])
        delta = rng.uniform(-5.0, 5.0)
        a = rng.uniform(0.0, math.pi)
        psi = SpinState(math.cos(a), math.sin(a) * np.exp(1j * rng.uniform(0.0, 2 * math.pi)))
        phase = np.exp(1j * alpha)
        got = propagate(program, model, delta, SpinState.from_vector(phase * psi.vector))
        want = phase * propagate(program, model, delta, psi).vector
        assert np.max(np.abs(got.vector - want)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        theta=st.floats(0.0, 4 * math.pi),
        shift=st.floats(0.0, 2 * math.pi, exclude_max=True),
        epsilon=st.floats(-0.3, 0.3),
    )
    def test_bb1_axis_phase_is_covariant(self, theta, shift, epsilon):
        # turning every phase by `shift` conjugates the propagator with the
        # z-rotation that carries phase 0 to phase `shift`
        eps, delta = np.array([epsilon]), np.zeros(1)
        block = bb1_sequence(theta)
        turned = [Pulse(p.theta, p.phi + shift) for p in block]
        shifted = matrices(*_propagate_nodes(turned, NO_ERROR, eps, delta))
        base = matrices(*_propagate_nodes(block, NO_ERROR, eps, delta))
        z = np.diag([np.exp(-0.5j * shift), np.exp(0.5j * shift)])
        assert np.max(np.abs(shifted[0] - z @ base[0] @ z.conj().T)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        body=st.lists(
            st.one_of(
                st.builds(
                    Pulse,
                    st.floats(0.0, 4 * math.pi),
                    st.floats(0.0, 2 * math.pi, exclude_max=True),
                ),
                st.builds(Delay, st.floats(0.0, 1.0)),
                st.just(Acquire()),
            ),
            min_size=1,
            max_size=5,
        ),
        count=st.integers(1, 6),
        epsilon=st.floats(-0.3, 0.3),
        delta=st.floats(-5.0, 5.0),
    )
    # the ends of the body propagator: -I, +I and a zero-angle pulse
    @example(body=[Pulse(2 * math.pi, 0.0)], count=5, epsilon=0.0, delta=0.0)
    @example(body=[Pulse(4 * math.pi, 1.0), Acquire()], count=4, epsilon=0.0, delta=0.0)
    @example(body=[Pulse(0.0, 0.3)], count=6, epsilon=0.2, delta=1.5)
    def test_repeat_equals_unrolled_body(self, body, count, epsilon, delta):
        model = ErrorModel(epsilon)
        repeated = propagate(PulseProgram((Repeat(count, tuple(body)),)), model, delta)
        unrolled = propagate(PulseProgram(tuple(body) * count), model, delta)
        assert np.max(np.abs(repeated.vector - unrolled.vector)) < 1e-12
        # an Acquire leaves the state as it is
        bare = tuple(el for el in body if not isinstance(el, Acquire))
        without = propagate(PulseProgram((Repeat(count, bare),)), model, delta)
        assert np.all(without.vector == repeated.vector)

    def test_memory_does_not_grow_with_acquires(self):
        program = parse_program("repeat 65536 { pulse theta=1pi phase=0pi\n acquire }")
        tracemalloc.start()
        try:
            propagate(program)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an engine that keeps a state per Acquire needs 12.1 MB here
        assert peak < 1e6

    def test_sibling_repeats_at_the_bound_are_fast(self):
        # the repetition bound holds per Repeat, not per program; each
        # Repeat raises its body to its count by squaring, so this takes
        # milliseconds, where one product per repetition would take ~25 min
        program = parse_program("repeat 8388608 { pulse theta=1pi phase=0pi }\n" * 100)
        start = time.perf_counter()
        final = propagate(program)
        assert time.perf_counter() - start < 2.0
        # an even number of pi pulses: spin-up again, up to a global phase
        assert 1.0 - abs(final.vector[0]) <= 1e-12

    @pytest.mark.parametrize(
        "text",
        [
            "repeat 8388608 { pulse theta=0.1234567pi phase=0pi }",
            "repeat 4096 { repeat 2048 { pulse theta=0.1234567pi phase=0pi } }",
        ],
    )
    def test_repetition_bound_keeps_the_state_exact(self, text):
        # MAX_REPETITIONS applications of one pulse, the most a Repeat accepts
        theta = MAX_REPETITIONS * 0.1234567 * math.pi
        exact = np.array([math.cos(theta / 2.0), 1j * math.sin(theta / 2.0)])
        assert np.max(np.abs(propagate(parse_program(text)).vector - exact)) < 1e-9


class TestBloch:
    @pytest.mark.parametrize(
        "state,expected",
        [
            (SpinState(1, 0), [0, 0, 1]),
            (SpinState(1 / math.sqrt(2), 1 / math.sqrt(2)), [1, 0, 0]),
            (SpinState(1 / math.sqrt(2), 1j / math.sqrt(2)), [0, 1, 0]),
        ],
    )
    def test_cardinal_states(self, state, expected):
        assert np.allclose(bloch(state), expected, atol=1e-12)

    def test_norm_bounded(self):
        s = SpinState(math.cos(0.3), math.sin(0.3) * np.exp(1j * 0.9))
        assert np.linalg.norm(bloch(s)) <= 1 + 1e-12

    def test_repr_round_trips(self):
        s = SpinState(math.cos(0.3), math.sin(0.3) * np.exp(1j * 0.9))
        back = eval(repr(s), {"SpinState": SpinState})
        assert isinstance(back, SpinState)
        assert np.array_equal(back.vector, s.vector)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            SpinState(1.0, 1.0)
        with pytest.raises(ValueError):
            SpinState(math.nan, 0.0)
        with pytest.raises(ValueError, match="exactly two amplitudes"):
            SpinState.from_vector(np.ones(3) / math.sqrt(3))


class TestRabi:
    def test_overflowing_angle_refused(self):
        # the last sample's angle, or a BB1 block's 2pi, times 1 + epsilon
        with pytest.raises(ValueError, match=r"theta \* \(1 \+ epsilon\) must be finite"):
            rabi_trace(1.5e308, 1e304, EnsembleSpec(Gaussian(0.0, 0.05), nodes=41))
        huge = EnsembleSpec(Discrete(((1e308, 1.0),)), nodes=1)
        with pytest.raises(ValueError, match=r"theta \* \(1 \+ epsilon\) must be finite"):
            rabi_trace(1.0, 0.5, huge, use_bb1=True)
        assert len(rabi_trace(1.0, 0.5, huge).samples) == 3

    def test_ideal_trace_is_minus_cos(self):
        sig = rabi_trace(4 * math.pi, 0.25 * math.pi, ZERO_WIDTH)
        for x, y in sig.samples:
            assert y == pytest.approx(-math.cos(x), abs=1e-12)

    def test_trace_starts_at_minus_one_and_x_increases(self):
        sig = rabi_trace(2 * math.pi, 0.5 * math.pi, GAUSS5)
        assert sig.samples[0] == (0.0, pytest.approx(-1.0, abs=1e-12))
        xs = sig.x
        assert np.all(np.diff(xs) > 0)

    def test_gaussian_envelope_matches_closed_form(self):
        sig = rabi_trace(40 * math.pi, 0.25 * math.pi, GAUSS5)
        worst = max(
            abs(y - gaussian_rabi_closed_form(x, 0.05)) for x, y in sig.samples
        )
        assert worst < 1e-3  # contract tolerance
        assert worst < 1e-9  # actual quadrature accuracy

    def test_bb1_equals_simple_at_zero_error(self):
        simple = rabi_trace(6 * math.pi, 0.25 * math.pi, ZERO_WIDTH)
        corrected = rabi_trace(6 * math.pi, 0.25 * math.pi, ZERO_WIDTH, use_bb1=True)
        diffs = np.abs(simple.values - corrected.values)
        assert np.max(diffs) < 1e-9

    def test_bb1_removes_inhomogeneity_decay(self):
        sig = rabi_trace(20 * math.pi, 0.5 * math.pi, GAUSS5, use_bb1=True)
        value_20pi = dict(sig.samples)[20 * math.pi]
        assert abs(value_20pi) >= 0.98
        # simple pulses have lost nearly all contrast by then
        simple = rabi_trace(20 * math.pi, 0.5 * math.pi, GAUSS5)
        assert abs(dict(simple.samples)[20 * math.pi]) < 0.1

    def test_monte_carlo_cross_check(self):
        quad = rabi_trace(4 * math.pi, 0.5 * math.pi, GAUSS5)
        draws = EnsembleSpec(sampled(Gaussian(0.0, 0.05), 20000, 3))
        mc = rabi_trace(4 * math.pi, 0.5 * math.pi, draws)
        assert np.max(np.abs(quad.values - mc.values)) < 0.02

    def test_step_validation(self):
        with pytest.raises(ValueError):
            rabi_trace(1.0, 0.0, GAUSS5)
        with pytest.raises(ValueError):
            rabi_trace(-1.0, 0.1, GAUSS5)

    def test_sample_count_bounded(self):
        # checked before any node is built: this quadrature overflows, so
        # a trace within the bound fails on its nodes instead
        bad_nodes = EnsembleSpec(Gaussian(0.0, 0.05), nodes=400)
        too_many = [(0.5 * MAX_SAMPLES, 0.5), (40 * math.pi, 1e-7 * math.pi), (1.0, 5e-324)]
        for max_angle, step in too_many:
            with pytest.raises(ValueError, match=f"{MAX_SAMPLES} samples"):
                rabi_trace(max_angle, step, bad_nodes)
        with pytest.raises(ValueError, match="400 nodes"):
            rabi_trace(0.5 * (MAX_SAMPLES - 1), 0.5, bad_nodes)

    def test_sample_count_is_the_sampling_rule(self):
        # the count is the sampling loop's own: 1e5 steps less 5e-8 admit a
        # sample at 1e5 within its 1e-12 slack, the 100001st, refused before
        # any node is built; 99999 steps give exactly MAX_SAMPLES samples
        bad_nodes = EnsembleSpec(Gaussian(0.0, 0.05), nodes=400)
        with pytest.raises(ValueError, match=f"{MAX_SAMPLES} samples"):
            rabi_trace(1e5 - 5e-8, 1.0, bad_nodes)
        with pytest.raises(ValueError, match=f"{MAX_SAMPLES} samples"):
            rabi_trace(1e5 - 5e-8, 1.0, ZERO_WIDTH)
        assert len(rabi_trace(99999.0, 1.0, ZERO_WIDTH).samples) == MAX_SAMPLES

    @settings(max_examples=100, deadline=None)
    @given(
        step=st.floats(1e-3, 10.0) | st.integers(1, 10000).map(lambda m: m / 1000),
        multiple=st.integers(0, 2000),
        slack=st.sampled_from([0.0, 1e-13, -1e-13, 1e-11, -1e-11]),
        ulps=st.integers(-3, 3),
    )
    # max_angle = 0; the quotient max_angle / step lands on the wrong side of
    # the rule's edge; steps beside max_angle / MAX_SAMPLES on either side
    @example(step=0.25 * math.pi, multiple=0, slack=0.0, ulps=0)
    @example(step=9.547, multiple=1908, slack=0.0, ulps=0)
    @example(step=1.122, multiple=196, slack=0.0, ulps=-1)
    @example(step=1.0, multiple=MAX_SAMPLES - 1, slack=1e-11, ulps=0)
    @example(step=1.0, multiple=MAX_SAMPLES, slack=0.0, ulps=-1)
    @example(step=0.1, multiple=MAX_SAMPLES, slack=0.0, ulps=-3)
    @example(step=0.1, multiple=MAX_SAMPLES, slack=0.0, ulps=0)
    @example(step=math.pi / 7, multiple=MAX_SAMPLES - 1, slack=0.0, ulps=3)
    @example(step=5e-324, multiple=MAX_SAMPLES - 1, slack=0.0, ulps=0)
    @example(step=5e-324, multiple=MAX_SAMPLES - 1, slack=0.0, ulps=1)
    def test_sample_count_is_the_sampling_loops(self, step, multiple, slack, ulps):
        # max_angle within a few ulps of where the rule's bound max_angle *
        # (1 + 1e-12) meets multiple * step, or off it by a relative slack:
        # the samples are the sampling loop's, and a count beyond
        # MAX_SAMPLES is refused where the loop refused it
        max_angle = multiple * step / (1 + 1e-12) * (1.0 + slack)
        for _ in range(abs(ulps)):
            max_angle = math.nextafter(max_angle, math.copysign(math.inf, ulps))
        max_angle = max(max_angle, 0.0)
        thetas = []
        while len(thetas) * step <= max_angle * (1 + 1e-12):
            if len(thetas) == MAX_SAMPLES:
                with pytest.raises(ValueError, match=f"{MAX_SAMPLES} samples"):
                    rabi_trace(max_angle, step, ZERO_WIDTH)
                return
            thetas.append(len(thetas) * step)
        samples = rabi_trace(max_angle, step, ZERO_WIDTH).samples
        assert [x for x, _ in samples] == thetas

    def test_bb1_block_count_bounded(self):
        # checked before any node is built, as the sample count is, and
        # without a warning: the last of 15001 samples to 1.5e308 asks for
        # ~4.8e307 blocks, more than an integer array cast takes
        bad_nodes = EnsembleSpec(Gaussian(0.0, 0.05), nodes=400)
        over = (MAX_REPETITIONS + 1.5) * math.pi
        cases = [
            (over, over, bad_nodes),
            (1e9 * math.pi, 1e5 * math.pi, bad_nodes),
            (1.5e308, 1e304, GAUSS5),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for max_angle, step, spec in cases:
                with pytest.raises(ValueError, match=f"{MAX_REPETITIONS} BB1 pi blocks"):
                    rabi_trace(max_angle, step, spec, use_bb1=True)
        # the last sample of this trace needs exactly MAX_REPETITIONS blocks
        within = (MAX_REPETITIONS + 0.5) * math.pi
        with pytest.raises(ValueError, match="400 nodes"):
            rabi_trace(within, within, bad_nodes, use_bb1=True)
        # simple pulses need no blocks
        with pytest.raises(ValueError, match="400 nodes"):
            rabi_trace(1e9 * math.pi, 1e5 * math.pi, bad_nodes)

    @pytest.mark.parametrize(
        "max_angle,step,sigma,samples",
        [
            (40 * math.pi, 0.25 * math.pi, 0.05, None),
            (40 * math.pi, 0.25 * math.pi, 0.12, None),
            (13.7, 0.037 * math.pi, 0.05, None),
            (20 * math.pi, 0.25 * math.pi, 0.05, 500),
        ],
    )
    def test_bb1_trace_equals_reference_programs(self, max_angle, step, sigma, samples):
        # each sample is bb1_rabi_program(n, r) run from spin-up at every
        # node, however the trace reaches it
        dist = Gaussian(0.0, sigma)
        spec = EnsembleSpec(dist if samples is None else sampled(dist, samples, 5), nodes=41)
        sig = rabi_trace(max_angle, step, spec, use_bb1=True)
        assert max_reference_miss(sig, spec) < 1e-13

    @pytest.mark.parametrize(
        "sigma,nodes,max_angle,step",
        [
            (0.12, 9, 40 * math.pi, 0.037 * math.pi),
            (0.05, 41, 40 * math.pi, 0.25 * math.pi),
            (0.01, 41, 20 * math.pi, 3.5),
            (0.08, 9, 6.5, 0.3),
        ],
    )
    def test_bb1_samples_within_the_stated_bound(self, sigma, nodes, max_angle, step):
        mp = pytest.importorskip("mpmath")
        spec = EnsembleSpec(Gaussian(0.0, sigma), nodes=nodes)
        assert_within_rabi_bound(mp, rabi_trace(max_angle, step, spec, use_bb1=True), spec)

    @pytest.mark.parametrize(
        "dist",
        [
            Gaussian(-1.0, 0.05),  # its centre node is eps = -1
            Discrete(((-1.0, 0.5), (0.0, 0.5))),
            Discrete(((1.0, 1.0),)),
            Discrete(((3.0, 1.0),)),
        ],
    )
    def test_blocks_at_plus_or_minus_identity(self, dist):
        # at eps = -1 every pulse turns by 0, so the block is I exactly and
        # has no axis; at eps = 1 and 3 it is -I and I within rounding, its
        # axis set by the rounding alone
        mp = pytest.importorskip("mpmath")
        spec = EnsembleSpec(dist, nodes=41)
        eps = ensemble_nodes(spec)[:, 0]
        assert -1.0 in eps or eps.min() >= 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sig = rabi_trace(6 * math.pi, 0.25 * math.pi, spec, use_bb1=True)
        assert len(sig.samples) == 25
        assert_within_rabi_bound(mp, sig, spec)

    def test_detuning_distribution_rejected_before_nodes(self, monkeypatch):
        # a trace runs no delay: a detuning spread would multiply the
        # members for nothing
        def no_nodes(*args):
            raise AssertionError("built nodes for a rejected ensemble")

        monkeypatch.setattr(simulator, "ensemble_nodes", no_nodes)
        wide = Uniform(-1.0, 1.0)
        for detuning in (wide, Discrete(((0.5, 1.0),)), sampled(wide, 16)):
            spec = EnsembleSpec(Gaussian(0.0, 0.05), detuning_dist=detuning, nodes=41)
            for use_bb1 in (False, True):
                with pytest.raises(ValueError, match="detuning_dist must be DELTA_ZERO"):
                    rabi_trace(4 * math.pi, 0.25 * math.pi, spec, use_bb1=use_bb1)

    def test_simple_trace_builds_no_bb1_block(self, monkeypatch):
        def no_block(*args, **kwargs):
            raise AssertionError("built the BB1 pi block for a simple trace")

        monkeypatch.setattr(simulator, "bb1_sequence", no_block)
        sig = rabi_trace(4 * math.pi, 0.25 * math.pi, GAUSS5)
        assert sig.provenance["program"] == "simple"

    def test_bb1_trace_with_multi_block_gaps(self):
        # 410 blocks between samples, each sample read at its own count
        mp = pytest.importorskip("mpmath")
        sig = rabi_trace(4096 * math.pi, 409.6 * math.pi, GAUSS5, use_bb1=True)
        assert len(sig.samples) == 11
        assert_within_rabi_bound(mp, sig, GAUSS5)

    def test_bb1_block_count_at_a_large_multiple_of_pi(self):
        # 20870 pi / pi computes as 20870 - 3.6e-12, further below 20870
        # than an absolute 1e-12 reaches: the sample is 20870 blocks, not
        # 20869 and a simple pi pulse, which reads 7e-3 away
        mp = pytest.importorskip("mpmath")
        spec = EnsembleSpec(Gaussian(0.0, 0.01), nodes=41)
        sig = rabi_trace(20870 * math.pi, 20870 * math.pi, spec, use_bb1=True)
        assert len(sig.samples) == 2
        assert_within_rabi_bound(mp, sig, spec)
        (short,) = mp_rabi_samples(mp, [(20869, math.pi)], spec)
        assert abs(sig.samples[1][1] - short) > 5e-3

    @pytest.mark.parametrize("use_bb1", [False, True])
    @pytest.mark.parametrize(
        "max_angle,step,spec",
        [
            (40 * math.pi, 0.25 * math.pi, GAUSS5),  # two slices of 41 nodes
            (13.7, 0.037 * math.pi, GAUSS5),  # a step that does not divide pi
            (4096 * math.pi, 409.6 * math.pi, GAUSS5),  # 410-block gaps
            (0.0, 0.25 * math.pi, GAUSS5),  # one sample
            (3 * math.pi, 0.25 * math.pi, ZERO_WIDTH),  # one member: every sample in one slice
            (2 * math.pi, 0.25 * math.pi, EnsembleSpec(sampled(Gaussian(0.0, 0.05), 5000, 2))),
        ],
    )
    def test_trace_equals_engine_samples_bitwise(self, max_angle, step, spec, use_bb1):
        # the last case holds more members than a slice: one sample per slice
        got = rabi_trace(max_angle, step, spec, use_bb1).samples
        assert list(got) == rodrigues_rabi_samples(max_angle, step, spec, use_bb1)

    @settings(max_examples=20, deadline=None)
    @given(
        use_bb1=st.booleans(),
        rows=st.integers(1, 12),
        offset=st.integers(-2, 2),
        extra=st.integers(0, 2),
        step_pi=st.sampled_from([0.25, 0.3, 0.037, 1.0, 2.5]),
        seed=st.integers(0, 2**16),
    )
    # 121 samples of 41 members: two slices, of 60 and 61 samples
    @example(use_bb1=True, rows=121, offset=8, extra=0, step_pi=0.25, seed=0)
    def test_slices_equal_engine_samples_bitwise(
        self, use_bb1, rows, offset, extra, step_pi, seed
    ):
        # members around the count at which a slice holds `rows` samples,
        # over one or more slice boundaries
        members = simulator._SLICE_MEMBER_ECHOES // rows + offset
        samples = rows * (1 + extra) + offset % 2
        spec = EnsembleSpec(sampled(Gaussian(0.0, 0.05), members, seed))
        step = step_pi * math.pi
        max_angle = (samples - 1) * step
        got = rabi_trace(max_angle, step, spec, use_bb1).samples
        assert len(got) == samples
        assert list(got) == rodrigues_rabi_samples(max_angle, step, spec, use_bb1)

    def test_memory_stays_within_the_per_sample_loop(self):
        # 2^14 members, beyond a slice: each sample is its own slice; one
        # block of all 41 samples peaks at 70 MB (simple) and 130 MB (BB1)
        spec = EnsembleSpec(sampled(Gaussian(0.0, 0.05), 2**14, 1))
        # the running per-sample product peaked at 2.894 MB (simple) and
        # 4.989 MB (BB1) traced on this trace, and the sliced Rodrigues
        # reading peaks at 1.978 and 3.822 MB (Python 3.11.7, numpy 2.4.6)
        for use_bb1, parent_peak in ((False, 2.894e6), (True, 4.989e6)):
            tracemalloc.start()
            try:
                rabi_trace(10 * math.pi, 0.25 * math.pi, spec, use_bb1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= parent_peak

    def test_bb1_slice_holds_one_column_per_member_sample(self):
        # 41 nodes to 40 pi, two slices: a slice reads its samples from
        # tables of its distinct remainders and block counts, gathered per
        # sample (0.208 MB traced); one _compose of the slice's rotation
        # pairs with a gathered power pair per sample peaked at 0.443 MB,
        # each run of one block count composed in place at 0.231 MB, and
        # full rotations plus a gathered per-sample matrix stack at 0.859 MB
        # (Python 3.11.7, numpy 2.4.6)
        tracemalloc.start()
        try:
            rabi_trace(40 * math.pi, 0.25 * math.pi, GAUSS5, use_bb1=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.6e6

    def test_no_pair_product_beyond_the_block(self, monkeypatch):
        # 41 nodes to 40 pi, 80 + 81 samples: the block's own propagation
        # composes its pulses, and every sample is read from its rotation
        callers = []

        def spy(name):
            kernel = getattr(simulator, name)

            def recorded(*args):
                callers.append((name, sys._getframe(1).f_code.co_name))
                return kernel(*args)

            monkeypatch.setattr(simulator, name, recorded)

        spy("_compose")
        spy("_power")
        sig = rabi_trace(40 * math.pi, 0.25 * math.pi, GAUSS5, use_bb1=True)
        assert len(sig.samples) == 161
        assert callers == [("_compose", "_propagate_nodes")] * len(bb1_sequence(math.pi))


def split_sample(theta, use_bb1=True):
    """Sample ``theta = n*pi + r`` as a Rabi trace runs it: ``n`` BB1 pi
    blocks, ``floor(theta / pi)`` within a relative 1e-12 (0 for simple
    pulses), and a remainder pulse ``r``, 0 below 1e-15."""
    n = int(math.floor(theta / math.pi * (1 + 1e-12))) if use_bb1 else 0
    r = theta - n * math.pi
    return n, r if r > 1e-15 else 0.0


def rodrigues_rabi_samples(max_angle, step, spec, use_bb1):
    """A Rabi trace sample by sample, each read on its own and reduced by
    ``math.fsum`` (``rodrigues_rabi_products``)."""
    products = rodrigues_rabi_products(max_angle, step, spec, use_bb1)
    return [(theta, math.fsum(row.tolist())) for theta, row in products]


def rodrigues_rabi_products(max_angle, step, spec, use_bb1):
    """A Rabi trace's weighted ``-<sz>`` rows, sample by sample, each read
    on its own: a simple pulse takes spin-up to ``-<sz> = -cos(theta (1 +
    eps))``; a BB1 sample's remainder pulse R(r) takes it to the Bloch
    vector v = (0, sin x, cos x), x = r (1 + eps), and n pi blocks of the
    engine's pair (a, b) turn v by 2 n alpha about k = (Im b, Re b, Im a) /
    sin alpha (0 where sin alpha = 0), sin alpha = hypot(Im a, |b|), alpha
    = atan2(sin alpha, Re a), so by Rodrigues' formula ``-<sz> = -(kz (k.v)
    + (vz - kz (k.v)) cos 2n alpha - kx vy sin 2n alpha)``."""
    thetas = []
    while len(thetas) * step <= max_angle * (1 + 1e-12):
        thetas.append(len(thetas) * step)
    eps, delta, weights = ensemble_nodes(spec).T
    a, b = _propagate_nodes(bb1_sequence(math.pi), NO_ERROR, eps, delta)
    sin_a = np.hypot(a.imag, np.abs(b))
    turn = 2.0 * np.arctan2(sin_a, a.real)
    axis = np.array([b.imag, b.real, a.imag])
    kx, ky, kz = np.divide(axis, sin_a, out=np.zeros_like(axis), where=sin_a > 0.0)
    samples = []
    for theta in thetas:
        if use_bb1:
            n, remainder = split_sample(theta)
            x = remainder * (1.0 + eps)
            vy, vz = np.sin(x), np.cos(x)
            parallel = kz * (ky * vy + kz * vz)
            phase = n * turn
            minus_sz = kx * vy * np.sin(phase) - parallel - (vz - parallel) * np.cos(phase)
        else:
            minus_sz = -np.cos(theta * (1.0 + eps))
        samples.append((theta, weights * minus_sz))
    return samples


def mp_rabi_samples(mp, blocks_and_remainders, spec):
    """40-digit BB1 Rabi samples, one per ``(n, r)``: the engine's float
    pulse pairs (``_rotations``) of the BB1 pi block, raised to n by
    squaring, times the remainder pulse's, applied to spin-up, with
    ``-<sz>`` read from the normalized state (the float pairs are unitary
    only to rounding) and averaged with the ensemble's weights."""
    eps, _, weights = ensemble_nodes(spec).T
    remainders = np.array([r for _, r in blocks_and_remainders])
    rem_c, rem_p = _rotations(remainders[:, None], 0.0, eps)

    def compose(second, first):
        (a2, b2), (a1, b1) = second, first
        return a2 * a1 - b2 * mp.conj(b1), a2 * b1 + b2 * mp.conj(a1)

    def pair(c, p):
        return mp.mpf(float(c)), mp.mpc(complex(p))

    def power(square, n):
        out = (mp.mpf(1), mp.mpf(0))
        while n:
            out = compose(square, out) if n & 1 else out
            n >>= 1
            square = compose(square, square)
        return out

    sums = [mp.mpf(0)] * len(remainders)
    with mp.workdps(40):
        for m, e in enumerate(eps.tolist()):
            block = (mp.mpf(1), mp.mpf(0))
            for pulse in bb1_sequence(math.pi):
                (c,), (p,) = _rotations(pulse.theta, pulse.phi, np.array([e]))
                block = compose(pair(c, p), block)
            powers = {}
            for j, (n, _) in enumerate(blocks_and_remainders):
                if n not in powers:
                    powers[n] = power(block, n)
                a, b = compose(powers[n], pair(rem_c[j, m], rem_p[j, m]))
                up, down = abs(a) ** 2, abs(b) ** 2
                sums[j] += mp.mpf(float(weights[m])) * (down - up) / (up + down)
    return sums


def rabi_bound(n):
    """The stated bound of a BB1 Rabi sample of n pi blocks against the
    40-digit reference of the same float pulses, weights summing to 1 (see
    ``rabi_trace``)."""
    return (56 * n + 64) * 2.0**-53


def assert_within_rabi_bound(mp, sig, spec):
    """Every sample of the BB1 trace ``sig`` within its stated bound of the
    40-digit reference, scaled by the sum of the weights' magnitudes."""
    split = [split_sample(theta) for theta, _ in sig.samples]
    scale = math.fsum(np.abs(ensemble_nodes(spec)[:, 2]).tolist())
    for (theta, value), (n, _), want in zip(sig.samples, split, mp_rabi_samples(mp, split, spec)):
        miss = abs(mp.mpf(value) - want)
        assert miss <= rabi_bound(n) * scale, (theta, float(miss))


def max_reference_miss(sig, spec):
    """Largest distance of a BB1 trace from bb1_rabi_program(n, r) run at
    every node."""
    eps, delta, weights = ensemble_nodes(spec).T
    worst = 0.0
    for theta, value in sig.samples:
        program = bb1_rabi_program(*split_sample(theta))
        # the propagator's first column (a, -conj(b)) is its image of spin-up
        a, b = _propagate_nodes(program.elements, NO_ERROR, eps, delta)
        minus_sz = np.abs(b) ** 2 - np.abs(a) ** 2
        worst = max(worst, abs(value - math.fsum((weights * minus_sz).tolist())))
    return worst


def refocusing_pulses(mode, use_bb1):
    """A ``mode`` train's refocusing pulses from their own phase: CP
    refocuses about x, CPMG about y, each pulse of a BB1 block turned by
    pi/2.  The echo kernel builds only CP's and reads CPMG as its cycle
    conjugated by Rz(pi/2), which the references built on these check."""
    phase = 0.0 if mode == "cp" else math.pi / 2
    pulses = bb1_sequence(math.pi) if use_bb1 else [Pulse(math.pi, 0.0)]
    return [Pulse(p.theta, p.phi + phase) for p in pulses]


def echo_cycle(mode, use_bb1):
    """The cycle ``tau - refocusing pulses - tau`` of a ``mode`` train at tau = 1."""
    return (Delay(1.0), *refocusing_pulses(mode, use_bb1), Delay(1.0))


def engine_echo_samples(mode, n, epsilon, use_bb1=False, spec=None, reference_member=False):
    """An echo train as the running product psi_k = C @ psi_(k-1) of the
    engine's cycle propagator C on ``spec`` (default: the train's own
    members), each echo reduced on its own: the weighted sum of
    every member's signed <sy>, the axis the ideal train keeps its echoes
    on.  With ``reference_member`` the detection axis is instead that of an
    extra zero-error, zero-detuning member, left out of the sum.

    The echo kernel reads echo k from the rotor z**k of the same cycle pair
    instead, so the two round differently and agree within the bound of
    ``assert_within_oracle_bound``."""
    _, delta, weights = simulator._echo_nodes(n, 1.0, spec, use_bb1)
    eps = np.full(delta.shape, float(epsilon))
    if reference_member:
        eps, delta = np.append(eps, 0.0), np.append(delta, 0.0)
    excitation = matrices(*_rotations(math.pi / 2, 0.0, np.zeros(1)))[0]
    psi0 = excitation @ SpinState.spin_up().vector[:, None]
    cycle = matrices(*_propagate_nodes(echo_cycle(mode, use_bb1), NO_ERROR, eps, delta))
    psi = np.broadcast_to(psi0, (eps.size, 2, 1))
    samples = []
    for k in range(1, n + 1):
        psi = cycle @ psi
        cross = np.conj(psi[:, 0, 0]) * psi[:, 1, 0]
        bx, by = 2.0 * cross.real, 2.0 * cross.imag
        if reference_member:
            r = np.hypot(bx[-1], by[-1])
            by = bx[:-1] * (bx[-1] / r) + by[:-1] * (by[-1] / r)
        samples.append((2.0 * k, abs(math.fsum((weights * by).tolist()))))
    return samples


def assert_within_oracle_bound(signal, mode, n, epsilon, use_bb1=False, spec=None):
    """``signal`` against ``engine_echo_samples``: the same echo times, and
    echo k within ``8 (k + 1) 2**-53 + k * drift``.  The running product
    scales a state's squared norm by ``|a|**2 + |b|**2`` of its cycle pair
    per echo, which the rotor readout leaves out on the echo axis, so
    ``drift`` is the largest ``| |a|**2 + |b|**2 - 1 |`` (up to 13 2**-53
    for a BB1 cycle).  Beyond that the two forms both round about once per
    echo and member: on 800 seeded trains (eps up to +-0.999, default and
    sampled lines, one-member lines near the identity) the rest stayed
    within ``3.6 (k + 1) 2**-53``."""
    want = engine_echo_samples(mode, n, epsilon, use_bb1, spec)
    _, delta, _ = simulator._echo_nodes(n, 1.0, spec, use_bb1)
    eps = np.full(delta.shape, float(epsilon))
    a, b = _propagate_nodes(echo_cycle(mode, use_bb1), NO_ERROR, eps, delta)
    drift = np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0))
    k = np.arange(1, n + 1)
    assert signal.x.tolist() == [x for x, _ in want]
    miss = np.abs(signal.values - np.array([y for _, y in want]))
    assert np.all(miss <= 8.0 * (k + 1) * 2.0**-53 + k * drift), miss.max()


def unsliced(*args, **kwargs):
    """The echo train of ``args`` with every echo in one slice."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(simulator, "_SLICE_MEMBER_ECHOES", 2**62)
        return echo_train(*args, **kwargs)


# Frozen values computed with the brute-force oracle before wiring the
# simulator: CP/CPMG at eps=0.1, n=32, default detuning ensemble.
CP_FINAL_EVEN = 0.2468429436416173
CPMG_MIN_EVEN = 0.9860587675952664


class TestEchoTrain:
    def test_overflowing_delay_phase_refused(self):
        # only a line the caller passes: the default one keeps |delta tau| <= pi/2
        line = EnsembleSpec(DELTA_ZERO, Uniform(-1e307, 1e307), nodes=3)
        with pytest.raises(ValueError, match=r"delta \* tau must be finite"):
            echo_train("cp", 4, 0.0, line, tau=100.0)

    def test_perfect_pulses_give_unit_echoes(self):
        for mode in ("cp", "cpmg"):
            sig = echo_train(mode, 8, 0.0)
            assert np.max(np.abs(sig.values - 1.0)) < 1e-10

    def test_matches_brute_force_oracle(self):
        for mode, use_bb1 in (("cp", False), ("cpmg", False), ("cp", True)):
            sim = echo_train(mode, 8, 0.1, use_bb1=use_bb1)
            ref = echo_train_oracle(mode, 8, 0.1, use_bb1=use_bb1)
            assert np.max(np.abs(sim.values - ref)) < 1e-9

    def test_cp_frozen_values(self):
        sig = echo_train("cp", 32, 0.1)
        assert sig.values[-1] == pytest.approx(CP_FINAL_EVEN, abs=1e-9)
        even = sig.values[1::2]
        # decays below 0.5 by echo 6 and stays there (with beating, not
        # monotonically)
        assert all(v < 0.5 for v in even[2:])
        assert even[0] > 0.85

    def test_cpmg_frozen_values(self):
        sig = echo_train("cpmg", 32, 0.1)
        even = sig.values[1::2]
        assert min(even) == pytest.approx(CPMG_MIN_EVEN, abs=1e-9)
        assert all(v > 0.98 for v in even)

    def test_bb1_refocusing_restores_cp(self):
        cp = echo_train("cp", 32, 0.1, use_bb1=True)
        cpmg = echo_train("cpmg", 32, 0.1)
        rel = abs(cp.values[-1] - cpmg.values[-1]) / cpmg.values[-1]
        assert rel < 0.01

    def test_t2_envelope_multiplies(self):
        bare = echo_train("cpmg", 8, 0.05)
        damped = echo_train("cpmg", 8, 0.05, t2_envelope=40.0)
        expected = bare.values * np.exp(-bare.x / 40.0)
        assert np.max(np.abs(damped.values - expected)) < 1e-12

    def test_quadrature_converged_beyond_default(self):
        def run(nodes):
            spec = EnsembleSpec(
                Discrete(((0.0, 1.0),)),
                detuning_dist=Uniform(-4 * math.pi, 4 * math.pi),
                nodes=nodes,
            )
            return echo_train("cp", 32, 0.1, ensemble_detuning=spec).values

        base = run(256)
        doubled = run(512)
        assert np.max(np.abs(base - doubled)) < 1e-6

    @settings(max_examples=10, deadline=None)
    @given(
        mode=st.sampled_from(["cp", "cpmg"]),
        use_bb1=st.booleans(),
        n=st.integers(1, 64),
        epsilon=st.floats(-0.3, 0.3),
        tau=st.floats(0.1, 3.0),
    )
    @example(mode="cpmg", use_bb1=False, n=32, epsilon=0.25, tau=1.0)
    def test_default_train_is_exact(self, mode, use_bb1, n, epsilon, tau):
        # n + 1 midpoints of the half period (the nonnegative half of them for
        # simple pulses) give the same mean as 4n + 3 midpoints of the full
        # period and as the oracle's own midpoint loop
        got = echo_train(mode, n, epsilon, use_bb1=use_bb1, tau=tau)
        finer = echo_train(mode, n, epsilon, periodic_line(tau, 4 * n + 3), use_bb1, tau=tau)
        assert got.provenance["ensemble"]["nodes"] == n + 1
        assert np.max(np.abs(got.values - finer.values)) < 1e-12
        oracle = echo_train_oracle(mode, n, epsilon, use_bb1=use_bb1, tau=tau)
        assert np.max(np.abs(got.values - oracle)) < 1e-12

    def test_default_line_is_one_member_build(self, monkeypatch):
        # the default line goes through ensemble_nodes, once, on n + 1 rows
        # with BB1 refocusing pulses and on the nonnegative half of them with
        # simple ones
        rows = []

        def spy(spec):
            nodes = ensemble_nodes(spec)
            rows.append(nodes.shape)
            return nodes

        monkeypatch.setattr(simulator, "ensemble_nodes", spy)
        echo_train("cpmg", 16, 0.1, use_bb1=True, tau=0.7)
        assert rows == [(17, 3)]
        echo_train("cpmg", 16, 0.1, tau=0.7)
        echo_train("cp", 32, 0.1, tau=0.7)
        assert rows == [(17, 3), (9, 3), (17, 3)]

    def test_exact_default_train_up_to_the_member_echo_bound(self):
        # the bound counts the members a train runs: ceil((n + 1) / 2) for
        # simple refocusing pulses (n + 1 for BB1 blocks: see below)
        assert len(echo_train("cp", 4095, 0.1).samples) == 4095
        with pytest.raises(ValueError, match=f"{MAX_MEMBER_ECHOES} member-echoes"):
            echo_train("cp", 4096, 0.1)
        with pytest.raises(ValueError, match=f"in \\[1, {MAX_SAMPLES}\\]"):
            echo_train("cp", 600_000, 0.1)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 12),
        use_bb1=st.booleans(),
        tau=st.floats(0.1, 3.0),
        span=st.floats(0.5, 20.0),
        nodes=st.integers(1, 64),
    )
    def test_cp_equals_cpmg_without_error(self, n, use_bb1, tau, span, nodes):
        spec = EnsembleSpec(
            Discrete(((0.0, 1.0),)), detuning_dist=Uniform(-span, span), nodes=nodes
        )
        cp = echo_train("cp", n, 0.0, ensemble_detuning=spec, use_bb1=use_bb1, tau=tau)
        cpmg = echo_train("cpmg", n, 0.0, ensemble_detuning=spec, use_bb1=use_bb1, tau=tau)
        assert cp.x.tolist() == cpmg.x.tolist()
        assert np.max(np.abs(cp.values - cpmg.values)) < 1e-12

    def test_echo_times_are_2k_tau(self):
        sig = echo_train("cp", 4, 0.0, tau=0.5)
        assert sig.x.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_monte_carlo_cross_check(self):
        quad = echo_train("cpmg", 4, 0.1)
        mc = echo_train("cpmg", 4, 0.1, sampled_line(20000, 11))
        assert np.max(np.abs(quad.values - mc.values)) < 0.02
        # a sampled line's member count is not tied to n: 8 members run 16 cycles
        assert len(echo_train("cp", 16, 0.1, sampled_line(8, 0)).samples) == 16

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            echo_train("hahn", 4, 0.0)
        with pytest.raises(ValueError):
            echo_train("cp", 0, 0.0)
        with pytest.raises(ValueError):
            echo_train("cp", 4, 1.5)
        with pytest.raises(ValueError):
            echo_train("cp", 4, 0.1, t2_envelope=-1.0)
        for tau in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="tau must be positive"):
                echo_train("cp", 4, 0.1, tau=tau)

    def test_overflowing_echo_time_refused(self):
        # t_k = 2 * tau * k overflows at the last echo, refused naming tau
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"2 \* tau \* n_refocus must be finite"):
                echo_train("cp", 4, 0.1, tau=1e308)
        assert echo_train("cp", 1, 0.1, tau=8e307).x.tolist() == [1.6e308]

    def test_overflowing_default_line_rejected(self):
        # the default line's period 2*pi/tau overflows at tau = 1e-310
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                echo_train("cp", 4, 0.1, tau=1e-310)

    @pytest.mark.parametrize("n", [1, 2, 32])
    @pytest.mark.parametrize("use_bb1", [False, True])
    @pytest.mark.parametrize("mode", ["cp", "cpmg"])
    def test_equals_engine_program_bitwise(self, mode, use_bb1, n):
        # the rotor readout against the running product of the same cycle
        # pair: within the measured bound, no longer bit for bit
        got = echo_train(mode, n, 0.1, use_bb1=use_bb1)
        assert_within_oracle_bound(got, mode, n, 0.1, use_bb1)

    @pytest.mark.parametrize(
        "mode,n,members",
        [
            ("cp", 305, 400),  # at most ten echoes per slice: 31 slices of 9 or 10
            ("cp", 305, 3000),  # one echo per slice: 305 slices
            ("cpmg", 4, 40000),  # more members than a slice holds: one echo each
        ],
    )
    def test_sliced_train_equals_engine_program_bitwise(self, mode, n, members):
        # slicing changes no bit: the sliced train equals the train run as one
        # slice, and both stay within the bound of the running product
        assert simulator._SLICE_MEMBER_ECHOES // members < n
        line = sampled_line(members, 7)
        got = echo_train(mode, n, 0.1, line)
        assert list(got.samples) == list(unsliced(mode, n, 0.1, line).samples)
        assert_within_oracle_bound(got, mode, n, 0.1, spec=line)

    @settings(max_examples=20, deadline=None)
    @given(
        mode=st.sampled_from(["cp", "cpmg"]),
        epsilon=st.floats(-0.3, 0.3),
        use_bb1=st.booleans(),
        rows=st.integers(1, 64),
        offset=st.integers(-2, 2),
        extra=st.integers(0, 2),
        seed=st.integers(0, 2**16),
    )
    def test_slices_equal_engine_program_bitwise(
        self, mode, epsilon, use_bb1, rows, offset, extra, seed
    ):
        # members around the count at which a slice holds `rows` echoes,
        # over one or more slice boundaries: bit for bit the unsliced train
        members = simulator._SLICE_MEMBER_ECHOES // rows + offset
        n = rows * (1 + extra) + offset % 2
        line = sampled_line(members, seed)
        got = echo_train(mode, n, epsilon, line, use_bb1)
        want = unsliced(mode, n, epsilon, line, use_bb1)
        assert list(got.samples) == list(want.samples)

    @settings(max_examples=40, deadline=None)
    @given(
        mode=st.sampled_from(["cp", "cpmg"]),
        use_bb1=st.booleans(),
        epsilon=st.one_of(st.floats(-0.999, 0.999), st.sampled_from([-0.999, 0.999])),
        turn=st.sampled_from([0.0, math.pi]),
        offset=st.one_of(st.floats(-1e-3, 1e-3), st.just(0.0)),
        n=st.integers(1, 400),
    )
    @example(mode="cpmg", use_bb1=False, epsilon=-0.999, turn=0.0, offset=0.0, n=400)
    @example(mode="cp", use_bb1=True, epsilon=0.999, turn=math.pi, offset=1e-9, n=400)
    # the running product's norm drifts by 8 2**-53 per echo here
    @example(mode="cpmg", use_bb1=True, epsilon=4.528e-4, turn=0.0, offset=-4.528e-4, n=400)
    def test_readout_near_identity_cycles(self, mode, use_bb1, epsilon, turn, offset, n):
        # one member whose delays (tau = 1) turn by delta near 0 or pi, with
        # pulses near 0 or 2 pi: a cycle near +-I, where sin(alpha) nearly vanishes
        line = EnsembleSpec(DELTA_ZERO, Discrete(((turn + offset, 1.0),)), nodes=1)
        got = echo_train(mode, n, epsilon, line, use_bb1)
        assert_within_oracle_bound(got, mode, n, epsilon, use_bb1, line)

    @pytest.mark.parametrize("use_bb1", [False, True])
    @pytest.mark.parametrize("mode", ["cp", "cpmg"])
    def test_long_train_within_the_oracle_bound(self, mode, use_bb1):
        legendre = EnsembleSpec(DELTA_ZERO, Uniform(-4 * math.pi, 4 * math.pi), nodes=65)
        got = echo_train(mode, 2500, 0.1, legendre, use_bb1)
        assert_within_oracle_bound(got, mode, 2500, 0.1, use_bb1, legendre)

    @settings(max_examples=25, deadline=None)
    @given(
        mode=st.sampled_from(["cp", "cpmg"]),
        use_bb1=st.booleans(),
        line=st.sampled_from(["default", "legendre", "discrete"]),
        n=st.integers(1, 41),
        stride=st.sampled_from([1, 2]),
        size=st.integers(16, 600),
        rows=st.integers(4, 8),
        side=st.integers(0, 1),
        tau=st.sampled_from([0.7, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_block_rows_equal_trains_bitwise(
        self, mode, use_bb1, line, n, stride, size, rows, side, tau, seed
    ):
        # E amplitude errors in one block, E on either side of the count at
        # which a slice holds `rows` kept echoes; a strided block keeps
        # echoes stride, 2 * stride, ... of the train, odd n included
        spec = {
            "default": None,
            "legendre": EnsembleSpec(DELTA_ZERO, Uniform(-3.0, 3.0), nodes=min(size, 128)),
            "discrete": sampled_line(size, seed),
        }[line]
        _, delta, weights = simulator._echo_nodes(n, tau, spec, use_bb1)
        count = max(1, simulator._SLICE_MEMBER_ECHOES // rows // delta.size + side)
        eps = np.random.default_rng(seed).uniform(-0.3, 0.3, count)
        eps[0] = 0.0
        (block,) = simulator._echo_amplitudes((mode,), n, eps, delta, weights, use_bb1, tau, stride)
        assert block.shape == (count, n // stride)
        for e, row in zip(eps, block):
            train = echo_train(mode, n, float(e), spec, use_bb1, tau=tau)
            assert row.tolist() == train.values[stride - 1 :: stride].tolist()

    @settings(max_examples=25, deadline=None)
    @given(
        use_bb1=st.booleans(),
        line=st.sampled_from(["default", "legendre", "discrete"]),
        n=st.integers(1, 41),
        stride=st.sampled_from([1, 2]),
        size=st.integers(16, 600),
        rows=st.integers(4, 8),
        side=st.integers(0, 1),
        tau=st.sampled_from([0.7, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_mode_rows_equal_one_mode_blocks_bitwise(
        self, use_bb1, line, n, stride, size, rows, side, tau, seed
    ):
        # CP and CPMG share one cycle and one rotor and differ in the readout:
        # each mode's rows of a two-mode block are, bit for bit, the block run
        # in that mode alone, with E on either side of the count at which a
        # slice holds `rows` kept echoes (the two-mode slice may cross to
        # extracted sums where the one-mode slice takes math.fsum)
        spec = {
            "default": None,
            "legendre": EnsembleSpec(DELTA_ZERO, Uniform(-3.0, 3.0), nodes=min(size, 128)),
            "discrete": sampled_line(size, seed),
        }[line]
        _, delta, weights = simulator._echo_nodes(n, tau, spec, use_bb1)
        count = max(1, simulator._SLICE_MEMBER_ECHOES // rows // delta.size + side)
        eps = np.random.default_rng(seed).uniform(-0.3, 0.3, count)
        eps[0] = 0.0
        modes = ("cp", "cpmg")
        both = simulator._echo_amplitudes(modes, n, eps, delta, weights, use_bb1, tau, stride)
        assert both.shape == (2, count, n // stride)
        for mode, block in zip(modes, both):
            (alone,) = simulator._echo_amplitudes(
                (mode,), n, eps, delta, weights, use_bb1, tau, stride
            )
            assert block.tolist() == alone.tolist()

    @pytest.mark.parametrize("use_bb1", [False, True])
    @pytest.mark.parametrize("mode", ["cp", "cpmg"])
    def test_ideal_axis_equals_reference_member_axis(self, mode, use_bb1):
        # the ideal train keeps its echoes on +-y, the axis an extra
        # zero-error, zero-detuning member finds to rounding: the oracle's
        # two detection axes agree
        legendre = EnsembleSpec(DELTA_ZERO, Uniform(-4 * math.pi, 4 * math.pi), nodes=65)
        for spec in (None, sampled_line(3000, 3), legendre):
            on_y = engine_echo_samples(mode, 128, 0.1, use_bb1, spec)
            want = engine_echo_samples(mode, 128, 0.1, use_bb1, spec, True)
            assert [x for x, _ in on_y] == [x for x, _ in want]
            assert max(abs(y - w) for (_, y), (_, w) in zip(on_y, want)) <= 2.3e-16

    def test_memory_does_not_grow_with_the_train(self):
        # 257 Legendre members: an exact default train of 4000 echoes would
        # run 2001, near the member-echo bound
        spec = EnsembleSpec(DELTA_ZERO, Uniform(-4 * math.pi, 4 * math.pi), nodes=257)
        echo_train("cp", 8, 0.1, ensemble_detuning=spec)  # the rule is cached outside the peak
        tracemalloc.start()
        try:
            echo_train("cp", 4000, 0.1, ensemble_detuning=spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a train that holds every echo's state needs 34 MB here
        assert peak < 8e6

    def test_member_echoes_bounded_before_propagation(self, monkeypatch):
        def no_propagation(*args):
            raise AssertionError("propagated a train above the bound")

        monkeypatch.setattr(simulator, "_propagate_nodes", no_propagation)
        too_long = MAX_MEMBER_ECHOES // 257 + 1
        with pytest.raises(ValueError, match=f"{MAX_MEMBER_ECHOES} member-echoes"):
            echo_train("cp", too_long, 0.1)
        with pytest.raises(ValueError, match=f"{MAX_MEMBER_ECHOES} member-echoes"):
            echo_train("cp", MAX_MEMBER_ECHOES // 1024 + 1, 0.1, sampled_line(1024, 0))
        # at the bound the train runs (no propagation here)
        with pytest.raises(AssertionError, match="propagated"):
            echo_train("cp", 2**16, 0.1, sampled_line(128, 0))
        # an exact default BB1 train runs n + 1 members: up to n = 2895
        with pytest.raises(ValueError, match=f"{MAX_MEMBER_ECHOES} member-echoes"):
            echo_train("cp", 2896, 0.1, use_bb1=True)
        with pytest.raises(AssertionError, match="propagated"):
            echo_train("cp", 2895, 0.1, use_bb1=True)
        # one member, but more echoes than MAX_SAMPLES
        one = EnsembleSpec(Discrete(((0.0, 1.0),)), nodes=1)
        with pytest.raises(ValueError, match=f"in \\[1, {MAX_SAMPLES}\\]"):
            echo_train("cp", MAX_SAMPLES + 1, 0.1, ensemble_detuning=one)

    def test_epsilon_distribution_rejected_before_nodes(self, monkeypatch):
        def no_nodes(*args):
            raise AssertionError("built nodes for a rejected ensemble")

        monkeypatch.setattr(simulator, "ensemble_nodes", no_nodes)
        for eps_dist in (Gaussian(0.0, 0.1), sampled(Gaussian(0.0, 0.1), 16)):
            spec = EnsembleSpec(eps_dist, detuning_dist=Uniform(-1.0, 1.0), nodes=65)
            with pytest.raises(ValueError, match="DELTA_ZERO"):
                echo_train("cp", 4, 0.1, ensemble_detuning=spec)


class TestEchoLine:
    """The default echo line's rule: the midpoint rule on the half period
    pi/tau, exact for trigonometric polynomials of degree below n in
    2 delta tau, and its fold onto the nonnegative midpoints."""

    def test_midpoints_of_the_central_period(self):
        values, weights = simulator._EchoLine(math.pi).quadrature(4)  # half period 1
        assert values.tolist() == [-0.375, -0.125, 0.125, 0.375]
        assert weights.tolist() == [0.25] * 4
        values, weights = simulator._EchoLine(math.pi, even=True).quadrature(4)
        assert values.tolist() == [0.125, 0.375]
        assert weights.tolist() == [0.5] * 2
        values, weights = simulator._EchoLine(math.pi, even=True).quadrature(5)
        assert values[0] == 0.0 and values.tolist() == pytest.approx([0.0, 0.2, 0.4], abs=1e-16)
        assert weights.tolist() == [0.2, 0.4, 0.4]  # the centre node is its own mirror

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_exact_below_degree_n(self, n):
        values, weights = simulator._EchoLine(1.0).quadrature(n)  # half period pi
        folded = simulator._EchoLine(1.0, even=True).quadrature(n)
        for k in range(-(n - 1), n):
            want = math.cos(0.3) if k == 0 else 0.0
            got = math.fsum((weights * np.cos(2 * k * values + 0.3)).tolist())
            assert got == pytest.approx(want, abs=1e-13)
            # the fold keeps the mean of every even function
            got = math.fsum((folded[1] * np.cos(2 * k * folded[0]) * math.cos(0.3)).tolist())
            assert got == pytest.approx(want, abs=1e-13)


def one_member_line(delta):
    return EnsembleSpec(DELTA_ZERO, Discrete(((delta, 1.0),)), nodes=1)


def mp_echo_train(mp, mode, n, epsilon, use_bb1, tau):
    """A 40-digit mean of the default line: ``2n + 1`` midpoints of the full
    period ``2*pi/tau``, exact for echoes of degree <= 2n in ``delta tau``,
    each member run as the running product of its cycle pair on a state.
    Its inputs are the engine's float pulse pairs (``_rotations``): a BB1
    CP echo amplifies their rounding to about 3 n 2**-53 against exact
    pairs (n = 120, eps 0.1 or 1e-3), on the full period as on the half."""
    pulses = refocusing_pulses(mode, use_bb1)
    with mp.workdps(40):
        i = mp.mpc(0, 1)
        refocus_a, refocus_b = mp.mpf(1), mp.mpf(0)
        for pulse in pulses:
            (c,), (p,) = _rotations(pulse.theta, pulse.phi, np.array([float(epsilon)]))
            c, p = mp.mpf(float(c)), mp.mpc(complex(p))
            refocus_a, refocus_b = (c * refocus_a - p * mp.conj(refocus_b),
                                    c * refocus_b + p * mp.conj(refocus_a))
        count = 2 * n + 1
        sums = [mp.mpf(0)] * n
        for m in range(count):
            # the delays either side of the pulses: a -> a e^(i delta tau), b kept
            turn = mp.expj(mp.pi * ((m + mp.mpf(0.5)) / count - mp.mpf(0.5)))
            a, b = refocus_a * turn * turn, refocus_b * turn * mp.conj(turn)
            u, d = 1 / mp.sqrt(2), i / mp.sqrt(2)  # the ideal excitation's +y
            for k in range(n):
                u, d = a * u + b * d, -mp.conj(b) * u + mp.conj(a) * d
                sums[k] += 2 * mp.im(mp.conj(u) * d)
        return [abs(total / count) for total in sums]


class TestEchoSymmetry:
    """The facts the default line rests on: every echo has period pi/tau in
    delta, and with a simple refocusing pulse it is also even in delta; a
    BB1 block's echoes are not, so BB1 trains run the whole half period."""

    @settings(max_examples=30, deadline=None)
    @given(
        mode=st.sampled_from(["cp", "cpmg"]),
        use_bb1=st.booleans(),
        n=st.integers(1, 64),
        epsilon=st.floats(-0.9, 0.9),
        delta=st.floats(-6.0, 6.0),
        tau=st.floats(0.2, 3.0),
    )
    def test_echoes_have_period_pi_over_tau(self, mode, use_bb1, n, epsilon, delta, tau):
        at = echo_train(mode, n, epsilon, one_member_line(delta), use_bb1, tau=tau)
        turned = one_member_line(delta + math.pi / tau)
        shifted = echo_train(mode, n, epsilon, turned, use_bb1, tau=tau)
        assert np.max(np.abs(at.values - shifted.values)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        mode=st.sampled_from(["cp", "cpmg"]),
        n=st.integers(1, 64),
        epsilon=st.floats(-0.9, 0.9),
        delta=st.floats(-6.0, 6.0),
        tau=st.floats(0.2, 3.0),
    )
    def test_simple_pulse_echoes_are_even_in_delta(self, mode, n, epsilon, delta, tau):
        at = echo_train(mode, n, epsilon, one_member_line(delta), tau=tau)
        mirrored = echo_train(mode, n, epsilon, one_member_line(-delta), tau=tau)
        assert np.max(np.abs(at.values - mirrored.values)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 15, 16])
    @pytest.mark.parametrize("mode", ["cp", "cpmg"])
    def test_folded_rule_equals_the_whole_rule(self, mode, n):
        # n + 1 midpoints: n = 1 has no centre node, n = 2 has one
        whole = EnsembleSpec(DELTA_ZERO, simulator._EchoLine(0.7), nodes=n + 1)
        _, delta, _ = simulator._echo_nodes(n, 0.7)
        assert delta.size == (n + 2) // 2 and np.all(delta >= 0.0)
        assert (delta[0] == 0.0) == (n % 2 == 0)
        for epsilon in (0.0, 0.1, -0.25, 0.9):
            got = echo_train(mode, n, epsilon, tau=0.7)
            want = echo_train(mode, n, epsilon, whole, tau=0.7)
            assert got.provenance == want.provenance
            assert np.max(np.abs(got.values - want.values)) <= 1e-14

    @pytest.mark.parametrize("mode", ["cp", "cpmg"])
    def test_bb1_trains_are_never_folded(self, mode):
        whole = EnsembleSpec(DELTA_ZERO, simulator._EchoLine(0.7), nodes=17)
        folded = EnsembleSpec(DELTA_ZERO, simulator._EchoLine(0.7, even=True), nodes=17)
        _, delta, _ = simulator._echo_nodes(16, 0.7, use_bb1=True)
        assert delta.size == 17 and np.sum(delta < 0.0) == 8
        got = echo_train(mode, 16, 0.2, use_bb1=True, tau=0.7)
        assert got.samples == echo_train(mode, 16, 0.2, whole, True, tau=0.7).samples
        # a BB1 echo is not even in delta: the fold would miss its mean
        wrong = echo_train(mode, 16, 0.2, folded, True, tau=0.7)
        assert np.max(np.abs(got.values - wrong.values)) > 1e-4

    @pytest.mark.parametrize(
        "mode,use_bb1,epsilon,n",
        [("cp", False, 0.1, 120), ("cpmg", False, -0.999, 121), ("cp", True, 1e-3, 120),
         ("cpmg", True, 0.3, 119)],
    )
    def test_default_train_within_the_rounding_unit(self, mode, use_bb1, epsilon, n):
        # every echo of the default train within 2 n 2**-53 of a 40-digit mean
        # of the line it stands for, on the same float pulse pairs
        mp = pytest.importorskip("mpmath")
        want = mp_echo_train(mp, mode, n, epsilon, use_bb1, 0.7)
        got = echo_train(mode, n, epsilon, use_bb1=use_bb1, tau=0.7)
        miss = max(abs(mp.mpf(y) - w) for y, w in zip(got.values.tolist(), want))
        assert miss <= 2 * n * 2.0**-53, float(miss)


def assert_slice_rule(rows, width, parts):
    """``parts`` cut ``rows`` rows of ``width`` member-items, in order, into
    the fewest slices of at most ``_SLICE_MEMBER_ECHOES`` member-items and
    at least one row each, their sizes differing by at most one; returns
    the sizes."""
    bound = max(1, simulator._SLICE_MEMBER_ECHOES // width)
    sizes = [part.stop - part.start for part in parts]
    assert [i for part in parts for i in range(rows)[part]] == list(range(rows))
    assert len(parts) == -(-rows // bound)
    assert all(max(sizes) - 1 <= size <= bound for size in sizes)
    return sizes


class TestSliceRule:
    """Both block kernels cut a block by one rule (``simulator._slices``)."""

    @staticmethod
    def cuts(monkeypatch, run):
        """Each block the kernels cut while ``run`` runs, as ``(rows, width,
        sizes)``, checked against the rule, and the rows of every
        ``_weighted_sums`` call."""
        blocks, reduced = [], []
        slices, weighted_sums = simulator._slices, simulator._weighted_sums

        def cut(rows, width):
            parts = slices(rows, width)
            blocks.append((rows, width, assert_slice_rule(rows, width, parts)))
            return parts

        def sums(weights, rows):
            reduced.append(rows.shape[0])
            return weighted_sums(weights, rows)

        monkeypatch.setattr(simulator, "_slices", cut)
        monkeypatch.setattr(simulator, "_weighted_sums", sums)
        run()
        return blocks, reduced

    @pytest.mark.parametrize("use_bb1", [False, True])
    @pytest.mark.parametrize("samples", [81, 101, 121, 141, 161])
    def test_rabi_trace_slices(self, monkeypatch, samples, use_bb1):
        # nutation's traces, 20-40 pi in quarter-pi steps on 41 nodes: one
        # slice, then two of 50 + 51 up to 80 + 81 samples
        step = 0.25 * math.pi
        blocks, reduced = self.cuts(
            monkeypatch, lambda: rabi_trace((samples - 1) * step, step, GAUSS5, use_bb1)
        )
        ((rows, width, sizes),) = blocks
        assert (rows, width) == (samples, 41)
        assert sizes == ([samples] if samples <= 99 else [samples // 2, samples - samples // 2])
        assert reduced == sizes

    def test_fit_grid_slices(self, monkeypatch):
        # the fit's grid at n = 32 is its first stage's, 4 kept echoes of 31
        # errors x 5 members, one slice; its Gauss-Newton blocks of 3 errors
        # on 8, 16 and 32 echoes (5, 9 and 17 members) take one slice each
        cp, cpmg = (echo_train(mode, 32, 0.1) for mode in ("cp", "cpmg"))
        blocks, _ = self.cuts(monkeypatch, lambda: estimate_rotation_error(cp, cpmg))
        assert blocks[0] == (4, 155, [4])
        for kept, members in ((4, 5), (8, 9), (16, 17)):
            steps = [sizes for _, width, sizes in blocks if width == 3 * members]
            assert steps and all(sizes == [kept] for sizes in steps)

    @pytest.mark.parametrize("mode", ["cp", "cpmg"])
    def test_a_block_of_no_kept_echo_takes_no_slice(self, monkeypatch, mode):
        # n = 1 at stride 2 keeps no echo
        _, delta, weights = simulator._echo_nodes(1, 1.0)
        eps = np.array([0.0, 0.1])
        run = lambda: simulator._echo_amplitudes((mode,), 1, eps, delta, weights, False, 1.0, 2)
        blocks, reduced = self.cuts(monkeypatch, run)
        assert blocks == [(0, 2 * delta.size, [])] and reduced == []
        assert run().shape == (1, 2, 0)

    @pytest.mark.parametrize("width", [1, 17, 41, 527, 4096, 4097, 40000])
    def test_slices_cover_any_block(self, width):
        bound = max(1, simulator._SLICE_MEMBER_ECHOES // width)
        for rows in (0, 1, 2, bound - 1, bound, bound + 1, 2 * bound + 1, 3 * bound + 2):
            assert_slice_rule(rows, width, simulator._slices(rows, width))


def test_experiments_build_no_validated_wrappers(monkeypatch):
    # SpinState and Unitary2 belong at the public boundary, not in the
    # kernels the experiments run on
    def no_wrapper(*args):
        raise AssertionError("built a validated wrapper inside an experiment")

    monkeypatch.setattr(SpinState, "_init_from", no_wrapper)
    monkeypatch.setattr(Unitary2, "_init_from", no_wrapper)
    for use_bb1 in (False, True):
        rabi_trace(4 * math.pi, 0.25 * math.pi, GAUSS5, use_bb1=use_bb1)
        for mode in ("cp", "cpmg"):
            echo_train(mode, 4, 0.1, use_bb1=use_bb1)
            echo_train(mode, 4, 0.1, sampled_line(64, 1), use_bb1)
    with pytest.raises(AssertionError, match="validated wrapper"):
        SpinState.spin_up()


class TestSignal:
    def test_rejects_non_increasing_x(self):
        with pytest.raises(ValueError):
            Signal("x", "s", "y", [(0.0, 1.0), (0.0, 2.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Signal("x", "s", "y", [(0.0, 1.0), (1.0, bad)])
        with pytest.raises(ValueError, match="finite"):
            Signal("x", "s", "y", [(0.0, 1.0), (bad, 2.0)])

    @staticmethod
    def built_by(source, tmp_path):
        if source == "rabi_trace":
            return rabi_trace(2 * math.pi, 0.5 * math.pi, GAUSS5, use_bb1=True)
        if source == "echo_train":
            return echo_train("cpmg", 8, 0.1)
        path = tmp_path / "cp.csv"
        path.write_text("echo_time_s,echo_amplitude\n2.0,0.9\n4.0,0.8\n6.0,0.7\n")
        return cli._read_signal_csv(str(path))

    @pytest.mark.parametrize("source", ["rabi_trace", "echo_train", "csv"])
    def test_samples_cannot_be_edited_in_place(self, source, tmp_path):
        # a Signal is checked once, when built, so nothing may change it after
        sig = self.built_by(source, tmp_path)
        kept = list(sig.samples)
        with pytest.raises(AttributeError):
            sig.samples = [(0.0, math.nan)]
        with pytest.raises(TypeError):
            sig.samples[1] = (sig.samples[1][0], math.nan)
        with pytest.raises(TypeError):
            sig.samples[:] = [(0.0, math.nan)]
        assert list(sig.samples) == kept
        assert all(type(sample) is tuple for sample in sig.samples)

    @pytest.mark.parametrize("source", ["rabi_trace", "echo_train", "csv"])
    def test_replace_checks_the_new_samples(self, source, tmp_path):
        sig = self.built_by(source, tmp_path)
        (x0, y0), (x1, y1) = sig.samples[:2]
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^sample x and y values must be finite$"):
                replace(sig, samples=[(x0, y0), (x1, bad), *sig.samples[2:]])
        with pytest.raises(ValueError, match="^sample x values must be strictly increasing$"):
            replace(sig, samples=[(x1, y0), (x0, y1), *sig.samples[2:]])
        edited = replace(sig, samples=[(x0, 0.5 * y0), *sig.samples[1:]])
        assert edited.samples[1:] == sig.samples[1:] and edited.samples[0] == (x0, 0.5 * y0)
        assert edited.provenance == sig.provenance

    def test_provenance_present(self):
        sig = echo_train("cp", 2, 0.05)
        assert sig.provenance["mode"] == "cp"
        assert sig.provenance["epsilon"] == 0.05
        assert sig.provenance["ensemble"]["detuning"] == {
            "kind": "uniform", "lo": -4 * math.pi, "hi": 4 * math.pi,
            "rule": "periodic_midpoint", "periods": 4,
        }
        assert sig.provenance["ensemble"]["nodes"] == 3


def fsum_rows(weights, rows):
    """One ``math.fsum`` per row of ``weights * rows``, or the exception
    the first row that cannot be summed raises."""
    try:
        return [math.fsum(row) for row in (weights * rows).tolist()]
    except (ValueError, OverflowError) as exc:
        return exc


def assert_sums_as_fsum(weights, rows):
    """``simulator._weighted_sums`` against ``fsum_rows``: bit for bit (a
    plain ``==`` would take -0.0 for 0.0), NaN for NaN, and the same
    exception type and message."""
    want = fsum_rows(weights, rows)
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as raised:
            simulator._weighted_sums(weights, rows)
        assert str(raised.value) == str(want)
        return
    got = simulator._weighted_sums(weights, rows)
    assert list(map(float_bits, got)) == list(map(float_bits, want))


def float_bits(x):
    return "nan" if math.isnan(x) else struct.pack("<d", x)


def wide_rows(rng, count, members):
    """Rows whose terms spread over 10**+-30, with big pairs that cancel
    exactly, so a row's sum may rest on terms far below its block's
    largest."""
    rows = rng.standard_normal((count, members)) * 10.0 ** rng.integers(-30, 31, (count, members))
    pairs = min(members // 2, 3)
    big = rng.standard_normal((count, pairs)) * 1e30
    rows[:, :pairs], rows[:, pairs : 2 * pairs] = big, -big
    return rows


def tie_rows(rng, count, members):
    """1 plus a half unit in the last place (a tie), the tie broken or
    restored by terms 2**-60 to 2**-200 below."""
    rows = np.zeros((count, members))
    rows[:, 0] = 1.0
    if members > 1:
        rows[:, 1] = rng.choice([-1.0, 1.0, 3.0], count) * 2.0**-53
    if members > 2:
        scales = 2.0 ** -rng.integers(60, 201, (count, members - 2)).astype(float)
        rows[:, 2:] = rng.choice([-1.0, 1.0], (count, members - 2)) * scales
    return rows


def cancelling_rows(rng, count, members):
    """Rows whose last term, the others' rounded sum negated plus 0, 1e-16
    or -3e-17, cancels them to about 1e-16, every third row of terms in
    +- pairs (an exact 0), and every other row negated term by term."""
    rows = rng.standard_normal((count, members))
    rows[:, -1] = 0.0
    rows[:, -1] = -rows.sum(axis=1) + rng.choice([0.0, 1e-16, -3e-17], count)
    half = members // 2
    rows[::3, half : 2 * half] = -rows[::3, :half]
    rows[::3, 2 * half :] = 0.0
    rows[::2] *= -1.0
    return rows


def exact_sum_at_a_tie(terms):
    """Whether the exact sum of ``terms`` is 0 or lies halfway between two
    floats, where ``math.fsum`` rounds to even and no certificate decides."""
    exact, rounded = sum(map(Fraction, terms)), math.fsum(terms)
    beside = math.nextafter(rounded, math.copysign(math.inf, exact - Fraction(rounded)))
    return exact == 0 or 2 * exact == Fraction(rounded) + Fraction(beside)


def rabi_half_period_rows(count):
    """The 41 Gauss-Hermite weights of sigma 0.02 and the -<sz> of a
    simple pulse at (k + 1/2) pi on their nodes, k < count: each weighted
    sum cancels to about 1e-16, since the mean is 0."""
    eps, _, weights = ensemble_nodes(EnsembleSpec(Gaussian(0.0, 0.02), nodes=41)).T
    return weights, -np.cos((np.arange(count)[:, None] + 0.5) * math.pi * (1.0 + eps))


class TestWeightedSums:
    """``_weighted_sums`` is one ``math.fsum`` per row, however it sums:
    below ``_EXTRACTED_SUM_MIN_PRODUCTS`` products by ``math.fsum``, from
    it by certified error-free extraction."""

    THRESHOLD = simulator._EXTRACTED_SUM_MIN_PRODUCTS
    GAUSS41_WEIGHTS = ensemble_nodes(EnsembleSpec(Gaussian(0.0, 0.04), nodes=41))[:, 2]

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["normal", "wide", "ties", "cancel", "gauss41"]),
        members=st.integers(1, 60),
        extra=st.sampled_from([-1, 0, 1, 17, 2000, 4000]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_fsum_bitwise(self, kind, members, extra, seed):
        rng = np.random.default_rng(seed)
        # row counts just below, at and well above the threshold
        count = max(1, -(-(self.THRESHOLD + extra) // members))
        weights = rng.random(members)
        if kind == "normal":
            rows = rng.standard_normal((count, members))
        elif kind == "wide":
            rows, weights = wide_rows(rng, count, members), np.ones(members)
        elif kind == "ties":
            rows, weights = tie_rows(rng, count, members), np.ones(members)
        elif kind == "cancel":
            rows, weights = cancelling_rows(rng, count, members), np.ones(members)
        else:
            rows = np.cos(rng.random((count, 41)) * 7.0)
            weights = self.GAUSS41_WEIGHTS
        assert_sums_as_fsum(weights, rows)

    def test_a_tie_broken_below_three_passes(self):
        # five members and a largest term of 2**95: sigma is 2**100, 2**51
        # and 4, so the second pass takes 1.0 and the third (multiples of
        # 2**-51) takes nothing, leaving 2**-53 + 2**-80 to the tail.  The
        # passes sum to 1.0 exactly, and only the tail bound keeps them from
        # certifying it where math.fsum rounds the tie up to 1 + 2**-52
        row = [2.0**95, -(2.0**95), 1.0, 2.0**-53, 2.0**-80]
        rows = np.array([row, [-x for x in row]] * (self.THRESHOLD // 2 // len(row) + 1))
        assert rows.size >= self.THRESHOLD
        assert simulator._weighted_sums(np.ones(5), rows)[:2] == [1.0 + 2.0**-52, -1.0 - 2.0**-52]
        assert_sums_as_fsum(np.ones(5), rows)

    @pytest.mark.parametrize("count", [25, 99, 161])
    def test_rabi_samples_at_half_periods(self, count):
        weights, rows = rabi_half_period_rows(count)
        assert max(map(abs, fsum_rows(weights, rows))) < 1e-14
        assert_sums_as_fsum(weights, rows)

    def test_exact_zeros_keep_their_sign(self):
        rows = np.tile([0.5, -0.5, 0.25, -0.25], (self.THRESHOLD, 1))
        rows[1::2] = -0.0
        assert_sums_as_fsum(np.ones(4), rows)

    @pytest.mark.parametrize(
        "special",
        [
            [math.nan],
            [math.inf],
            [-math.inf],
            [math.inf, -math.inf],  # inf - inf
            [1e308, 1e308],  # finite terms whose sum overflows
            [2.0**800],
            [2.0**800 * (1.0 + 2.0**-52)],
            [2.0**-1074, -(2.0**-1070)],  # subnormal terms in a normal block
        ],
    )
    def test_special_values(self, special):
        rng = np.random.default_rng(len(special))
        rows = rng.standard_normal((self.THRESHOLD // 8 + 1, 8))
        rows[3, : len(special)] = special
        assert_sums_as_fsum(np.ones(8), rows)

    @pytest.mark.parametrize("scale", [2.0**-1074, 2.0**-1000, 2.0**-801, 2.0**-800, 2.0**-700])
    def test_tiny_blocks(self, scale):
        rng = np.random.default_rng(7)
        rows = rng.integers(-8, 9, (self.THRESHOLD // 6 + 1, 6)) * scale
        assert_sums_as_fsum(np.ones(6), rows)

    def test_one_member_rows(self):
        rows = np.random.default_rng(3).standard_normal((self.THRESHOLD + 1, 1))
        assert_sums_as_fsum(np.array([0.3]), rows)

    @pytest.mark.parametrize("size", [THRESHOLD - 1, THRESHOLD])
    @pytest.mark.parametrize("make", [tie_rows, wide_rows, cancelling_rows])
    def test_blocks_beside_the_threshold(self, size, make):
        members = next(m for m in range(41, 0, -1) if size % m == 0)
        rows = make(np.random.default_rng(size), size // members, members)
        assert rows.size == size
        assert_sums_as_fsum(np.ones(members), rows)

    @pytest.mark.parametrize("sigma", [0.02, 0.06])
    @pytest.mark.parametrize("max_pi", [20, 40])
    @pytest.mark.parametrize("use_bb1", [False, True])
    def test_nutation_traces_take_no_row_fallback(self, monkeypatch, sigma, max_pi, use_bb1):
        # both slices of a 41-node trace to 20 or 40 pi hold at least the
        # threshold's products, so every sample is certified, and math.fsum
        # is never called, but on a sample whose exact sum is 0 or a rounding
        # tie, which no certificate decides (one, the simple trace's 2.5 pi
        # at sigma 0.02; a sub-threshold echo block shows the count works)
        calls = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def fsum(self, values):
                calls.append(1)
                return math.fsum(values)

        monkeypatch.setattr(simulator, "math", CountingMath())
        spec = EnsembleSpec(Gaussian(0.0, sigma), nodes=41)
        trace = rabi_trace(max_pi * math.pi, 0.25 * math.pi, spec, use_bb1)
        products = rodrigues_rabi_products(max_pi * math.pi, 0.25 * math.pi, spec, use_bb1)
        ties = sum(exact_sum_at_a_tie(row.tolist()) for _, row in products)
        assert len(calls) == ties == (not use_bb1 and sigma == 0.02)
        assert list(trace.samples) == [(theta, math.fsum(row.tolist())) for theta, row in products]
        echo_train("cp", 4, 0.1)
        assert len(calls) == ties + 4
