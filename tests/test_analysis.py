import inspect
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spinpulse import (
    DELTA_ZERO,
    EnsembleSpec,
    EseemRatioSpec,
    Pulse,
    RotationSpec,
    Uniform,
    bb1_fidelity,
    bb1_phases,
    bb1_sequence,
    echo_train,
    ensemble_mean_fidelity,
    eseem_ratio,
    estimate_rotation_error,
    fidelity,
    magic_refocus_angle,
    phase_sensitivity_prediction,
    rotation,
    scan_order,
    verify_eq5_coefficients,
)
from spinpulse import analysis, simulator
from spinpulse.analysis import FIT_MAX_RESIDUAL, FidelityScan
from spinpulse.errors import _gauss_rule
from spinpulse.simulator import MAX_SAMPLES

from oracles import gaussian_mean_abs_cos_half

# True values of the corrected-pulse figures of merit at eps = 0.1,
# frozen from the matrix-composition oracle (cross-checked against the
# scipy matrix exponential in test_su2).  The leading infidelity
# coefficient is about 4.69 * eps**6 for a pi rotation.
BB1_PI_INFIDELITY_AT_10PCT = 4.622436554191367e-06
BB1_MEASURED_PHASE_FIDELITY = 0.9999460011510224


def with_sample(signal, index, sample):
    """A copy of ``signal`` with sample ``index`` replaced; a Signal is frozen."""
    samples = list(signal.samples)
    samples[index] = sample
    return replace(signal, samples=samples)


def bb1_fidelity_expm(theta, eps, d1=0.0, d2=0.0):
    """Positional-offset oracle: matrix exponentials composed with raw
    numpy products; the two pi pulses carry d1, the 2pi pulse d2."""
    from oracles import rotation_expm

    phi1 = math.acos(-theta / (4 * math.pi))
    net = rotation_expm(theta, 0.0, eps)
    for th, ph in [(math.pi, phi1 + d1), (2 * math.pi, 3 * phi1 + d2), (math.pi, phi1 + d1)]:
        net = rotation_expm(th, ph, eps) @ net
    target = rotation_expm(theta, 0.0, 0.0)
    return abs(np.trace(target @ net.conj().T)) / 2.0


def bb1_fidelity_channels(theta, eps, d1=0.0, d2=0.0):
    """Channel-offset oracle: the BB1 pulses through the brute-force
    product, each pulse taking the offset of the channel its phase matches
    on the circle, with the channels phi1 and 3 * phi1."""
    from oracles import propagate_oracle, rotation_expm

    phi1 = math.acos(-theta / (4 * math.pi))
    offsets = [(p, d) for p, d in ((phi1, d1), (3 * phi1, d2)) if d]
    net = propagate_oracle(bb1_sequence(theta), eps, offsets, 0.0, np.eye(2))
    target = rotation_expm(theta, 0.0, 0.0)
    return abs(np.trace(target @ net.conj().T)) / 2.0


class TestBb1Fidelity:
    def test_exact_at_zero_error(self):
        for theta in (0.2, math.pi / 2, math.pi, 2.5):
            assert 1.0 - bb1_fidelity(theta, 0.0) < 1e-12

    def test_peak_correction_true_value(self):
        infid = 1.0 - bb1_fidelity(math.pi, 0.1)
        assert infid == pytest.approx(BB1_PI_INFIDELITY_AT_10PCT, rel=1e-6)

    def test_peak_correction_against_expm_route(self):
        # fully independent route: matrix exponentials composed with raw
        # numpy products, no package algebra involved
        from oracles import rotation_expm

        phi1 = math.acos(-0.25)
        net = rotation_expm(math.pi, 0.0, 0.1)
        for th, ph in [(math.pi, phi1), (2 * math.pi, 3 * phi1), (math.pi, phi1)]:
            net = rotation_expm(th, ph, 0.1) @ net
        target = rotation_expm(math.pi, 0.0, 0.0)
        f_oracle = abs(np.trace(target @ net.conj().T)) / 2.0
        assert bb1_fidelity(math.pi, 0.1) == pytest.approx(f_oracle, abs=1e-12)

    @pytest.mark.parametrize("d1,d2", [(0.01, -0.02), (0.03, 0.01), (-0.02, 0.0), (0.0, 0.02)])
    def test_offsets_by_channel_at_two_pi(self, d1, d2):
        # phi2 = 3 * phi1 is the target pulse's phase 0 on the circle, so the
        # phi2 channel shifts the target pulse as well as the 2pi pulse
        theta = 2 * math.pi
        for eps in (0.0, 0.05, 0.1):
            assert bb1_fidelity(theta, eps, (d1, d2)) == pytest.approx(
                bb1_fidelity_channels(theta, eps, d1, d2), abs=1e-12
            )
        if d2:
            moved = bb1_fidelity(theta, 0.05, (d1, d2)) - bb1_fidelity_expm(theta, 0.05, d1, d2)
            assert abs(moved) > 1e-6

    def test_coinciding_channels_at_four_pi(self):
        # phi1 = phi2 = pi: one nonzero offset is the one channel of all three
        # correction pulses; two nonzero offsets are two channels at one phase
        theta = 4 * math.pi
        for eps in (0.0, 0.05, 0.1):
            for d1, d2 in ((0.03, 0.0), (0.0, -0.02), (0.0, 0.0)):
                assert bb1_fidelity(theta, eps, (d1, d2)) == pytest.approx(
                    bb1_fidelity_channels(theta, eps, d1, d2), abs=1e-12
                )
        with pytest.raises(ValueError, match=r"channels 3\.141592653589793 and 3\.141592653589793"):
            bb1_fidelity(theta, 0.05, (0.01, 0.02))

    @settings(max_examples=200, deadline=None)
    @given(
        theta=st.floats(0.0, 4 * math.pi),
        eps=st.floats(-0.3, 0.3),
        d1=st.floats(-0.05, 0.05),
        d2=st.floats(-0.05, 0.05),
    )
    def test_matches_expm_route(self, theta, eps, d1, d2):
        # away from 2pi and 4pi the BB1 phases 0, phi1, phi2 are distinct
        # channels, so offsets by channel are offsets by position
        assume(abs(theta - 2 * math.pi) > 4e-9 and theta != 4 * math.pi)
        assert bb1_fidelity(theta, eps, (d1, d2)) == pytest.approx(
            bb1_fidelity_expm(theta, eps, d1, d2), abs=1e-12
        )

    def test_non_finite_error_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            bb1_fidelity(math.pi, math.nan)

    def test_overflowing_angle_rejected(self):
        # theta * (1 + epsilon) overflows, or is NaN: an error, not a fidelity
        # of nan, with the engine's one overflow message, before numpy warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (
                lambda: bb1_fidelity(math.pi, 1e308),
                lambda: bb1_fidelity(math.pi, math.nan),
                lambda: scan_order(1.7e308, (0.01, 0.1), 9, use_bb1=False),
            ):
                with pytest.raises(ValueError, match=r"theta \* \(1 \+ epsilon\) must be finite"):
                    call()

    def test_measured_phase_scenario(self):
        f = bb1_fidelity(math.pi, 0.1, (0.007 * math.pi, 0.001 * math.pi))
        assert f == pytest.approx(BB1_MEASURED_PHASE_FIDELITY, rel=1e-9)
        assert f == pytest.approx(0.9999, abs=1e-4)

    def test_never_worse_than_uncorrected(self):
        for theta in (0.3, 1.0, math.pi / 2, math.pi):
            for eps in (0.01, 0.05, 0.1, 0.2):
                uncorrected = abs(math.cos(eps * theta / 2.0))
                assert bb1_fidelity(theta, eps) >= uncorrected - 1e-12

    def test_offset_placement_symmetric_in_pi_pulses(self):
        # both pi pulses share one channel, so one offset moves both
        f1 = bb1_fidelity(math.pi, 0.1, (0.01, 0.0))
        phi1, phi2 = bb1_phases(math.pi)
        assert f1 < 1.0 - 1e-6  # the offset visibly degrades
        assert phi2 == pytest.approx(3 * phi1)

    def test_target_pulse_placement_equivalent(self):
        # correction block before or after the target pulse: identical
        # fidelity at the corrected order (checked, not assumed)
        from spinpulse import RotationSpec, compose, fidelity, rotation

        for theta in (0.3 * math.pi, math.pi):
            for eps in (0.05, 0.1, 0.2):
                phi1, phi2 = bb1_phases(theta)
                block = [(math.pi, phi1), (2 * math.pi, phi2), (math.pi, phi1)]
                first = rotation(RotationSpec(theta, 0.0, eps))
                for th, ph in block:
                    first = compose(first, rotation(RotationSpec(th, ph, eps)))
                last = rotation(RotationSpec(0.0, 0.0, 0.0))
                for th, ph in block:
                    last = compose(last, rotation(RotationSpec(th, ph, eps)))
                last = compose(last, rotation(RotationSpec(theta, 0.0, eps)))
                target = rotation(RotationSpec(theta, 0.0, 0.0))
                assert fidelity(target, first) == pytest.approx(
                    fidelity(target, last), abs=1e-12
                )


class TestScanOrder:
    def test_bb1_slope_is_six(self):
        _, slope = scan_order(math.pi, (1e-2, 1e-1), 9)
        assert 5.7 <= slope <= 6.3

    def test_simple_slope_is_two(self):
        _, slope = scan_order(math.pi, (1e-2, 1e-1), 9, use_bb1=False)
        assert 1.9 <= slope <= 2.1

    def test_zero_angle_is_degenerate(self):
        scan, slope = scan_order(0.0, (1e-2, 1e-1), 9)
        assert slope is None
        assert all(infid < 1e-15 for _, infid in scan.points)

    def test_scan_points_increase(self):
        scan, _ = scan_order(math.pi, (1e-2, 1e-1), 7)
        eps = [e for e, _ in scan.points]
        assert eps == sorted(eps)
        assert len(eps) == 7

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            scan_order(math.pi, (0.0, 0.1), 9)
        with pytest.raises(ValueError):
            scan_order(math.pi, (0.01, 0.4), 9)
        with pytest.raises(ValueError):
            scan_order(math.pi, (0.01, 0.1), 4)
        with pytest.raises(ValueError, match="n_points"):
            scan_order(math.pi, (0.01, 0.1), MAX_SAMPLES + 1)

    def test_fidelity_scan_validation(self):
        with pytest.raises(ValueError):
            FidelityScan(1.0, ((0.1, 0.0), (0.1, 0.0)))
        with pytest.raises(ValueError):
            FidelityScan(1.0, ((0.1, -1e-9),))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: echo_train("cp", True, 0.1), "n_refocus"),
        (lambda: scan_order(math.pi, (0.01, 0.1), 9.0), "n_points"),
        (lambda: EnsembleSpec(Uniform(-1.0, 1.0), nodes=True), "node count"),
    ],
    ids=["echo_train", "scan_order", "EnsembleSpec"],
)
def test_counts_must_be_integers(call, message):
    with pytest.raises(ValueError, match=f"{message} must be an integer"):
        call()


class TestPhaseSensitivity:
    def test_zero_offsets_give_unity(self):
        for eps in (0.0, 0.05, 0.2):
            assert phase_sensitivity_prediction((0.0, 0.0), eps) == 1.0

    def test_measured_scenario_consistent_with_quoted_value(self):
        pred = phase_sensitivity_prediction((0.007 * math.pi, 0.001 * math.pi), 0.1)
        assert pred == pytest.approx(0.9999, abs=1e-4)
        # and close to the direct computation
        direct = bb1_fidelity(math.pi, 0.1, (0.007 * math.pi, 0.001 * math.pi))
        assert pred == pytest.approx(direct, abs=5e-6)

    def test_agreement_with_direct_computation_small_errors(self):
        # Where the truncated expansion is valid (eps <= 0.05) agreement
        # is better than 5e-6 across the offset grid; at eps = 0.1 the
        # omitted eps^6 and higher offset terms reach about 1.2e-5.
        worst_small = 0.0
        worst_full = 0.0
        for d1 in np.linspace(-0.01 * math.pi, 0.01 * math.pi, 5):
            for d2 in np.linspace(-0.01 * math.pi, 0.01 * math.pi, 5):
                for eps in (0.02, 0.05, 0.1):
                    dev = abs(
                        bb1_fidelity(math.pi, eps, (d1, d2))
                        - phase_sensitivity_prediction((d1, d2), eps)
                    )
                    worst_full = max(worst_full, dev)
                    if eps <= 0.05:
                        worst_small = max(worst_small, dev)
        assert worst_small < 5e-6
        assert worst_full == pytest.approx(1.164e-5, rel=1e-2)

    def test_unanswerable_inputs_rejected(self):
        # non-finite inputs, a result that overflows to -inf, and a power past
        # the largest double: each is a ValueError, never nan, inf or OverflowError
        for offsets, eps in (
            ((math.nan, 0.0), 0.1),
            ((0.0, 0.0), math.inf),
            ((1e200, 0.0), 1e-3),
            ((0.01, 0.0), 1e100),
            ((0.0, 0.0), 1e200),
        ):
            with pytest.raises(ValueError, match="no finite model value"):
                phase_sensitivity_prediction(offsets, eps)

    def test_large_offsets_warn(self):
        with pytest.warns(UserWarning):
            phase_sensitivity_prediction((0.06 * math.pi, 0.0), 0.1)


class TestVerifyEq5:
    def test_quadratic_coefficients_within_two_percent(self):
        report = verify_eq5_coefficients()
        fitted = {term: fit for term, _, fit in report.rows}
        assert fitted["dphi1^2"] == pytest.approx(0.75, rel=0.02)
        assert fitted["dphi1*dphi2"] == pytest.approx(-1.125, rel=0.02)
        assert fitted["dphi2^2"] == pytest.approx(0.5, rel=0.02)
        assert report.max_rel_deviation < 0.02

    def test_rounding_bounds_the_worst_fidelity_perturbation(self, monkeypatch):
        # every fidelity moved by _EQ5_F_ROUNDING, with the signs that add up
        # in each second difference, moves no coefficient by more than the
        # report's bound, and the squared terms by nearly all of it
        report = verify_eq5_coefficients()
        delta = analysis._EQ5_F_ROUNDING

        def perturbed(theta, epsilon, offsets):
            d1, d2 = offsets
            sign = -1.0 if d1 * d2 < 0.0 or d1 == d2 == 0.0 else 1.0
            return bb1_fidelity(theta, epsilon, offsets) + sign * delta

        monkeypatch.setattr(analysis, "bb1_fidelity", perturbed)
        moved = verify_eq5_coefficients()
        assert moved.rounding == report.rounding
        shifts = {term: abs(fit - was) for (term, _, fit), (_, _, was) in zip(moved.rows, report.rows)}
        assert max(shifts.values()) <= report.rounding
        assert shifts["dphi1^2"] >= 0.9 * report.rounding
        assert shifts["dphi2^2"] >= 0.9 * report.rounding

    def test_fidelities_within_the_rounding_unit(self):
        # bb1_fidelity at the report's nine points against a 40-digit
        # evaluation of the same float inputs
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40

        def pair(theta, phi):
            half = mp.mpf(theta) * (1 + mp.mpf(analysis.EQ5_EPSILON)) / 2
            return mp.cos(half), mp.mpc(0, 1) * mp.sin(half) * mp.expj(-mp.mpf(phi))

        phi1, phi2 = bb1_phases(math.pi)
        h = analysis.EQ5_STEP
        for d1 in (-h, 0.0, h):
            for d2 in (-h, 0.0, h):
                a, b = mp.mpf(1), mp.mpf(0)
                phases = (0.0, phi1 + d1, phi2 + d2, phi1 + d1)  # the engine's float phases
                for theta, phi in zip((math.pi, math.pi, 2 * math.pi, math.pi), phases):
                    c, p = pair(theta, phi)
                    a, b = c * a - p * mp.conj(b), c * b + p * mp.conj(a)
                # the ideal pi pulse about x has the pair (cos(pi/2), i)
                ideal_a = mp.cos(mp.mpf(math.pi) / 2)
                exact = abs(mp.re(ideal_a * mp.conj(a) + mp.mpc(0, 1) * mp.conj(b)))
                got = bb1_fidelity(math.pi, analysis.EQ5_EPSILON, (d1, d2))
                assert abs(got - exact) <= analysis._EQ5_F_ROUNDING


class TestEnsembleMeanFidelity:
    def test_zero_width(self):
        assert ensemble_mean_fidelity(0.0) == 1.0
        assert ensemble_mean_fidelity(5e-324) == 1.0

    def test_wide_spread_reproduces_quoted_value(self):
        f = ensemble_mean_fidelity(0.1 * math.pi)
        assert f == pytest.approx(0.988, abs=0.001)
        # c06's value, pinned bit for bit
        assert f == 0.9877387833616438

    def test_small_spread_closed_form(self):
        # for spreads far from the |cos| kink the average is exactly exp(-sigma^2/8)
        sigma = 0.02
        assert ensemble_mean_fidelity(sigma) == pytest.approx(math.exp(-sigma**2 / 8), abs=1e-12)

    @pytest.mark.parametrize(
        "sigma", np.geomspace(0.01, 10.0, 31).tolist() + [1.0 / 3.0, 0.3333334, 0.1 * math.pi]
    )
    def test_matches_quadrature_oracle(self, sigma):
        assert abs(ensemble_mean_fidelity(sigma) - gaussian_mean_abs_cos_half(sigma)) <= 1e-14

    @settings(max_examples=50, deadline=None)
    @given(sigma=st.floats(0.01, 10.0))
    def test_matches_quadrature_oracle_property(self, sigma):
        assert abs(ensemble_mean_fidelity(sigma) - gaussian_mean_abs_cos_half(sigma)) <= 1e-14

    @pytest.mark.parametrize("sigma", [1e6, 1e200, 1e308])
    def test_wide_spread_tends_to_two_over_pi(self, sigma):
        assert abs(ensemble_mean_fidelity(sigma) - 2.0 / math.pi) <= 1e-15

    def test_averages_the_engine_fidelity(self):
        # the closed form averages |cos(err/2)|, the engine's pi-pulse fidelity
        err = np.linspace(-3.0 * math.pi, 3.0 * math.pi, 601)
        engine = analysis._fidelities_over(math.pi, [Pulse(math.pi, 0.0)], err / math.pi)
        assert np.max(np.abs(engine - np.abs(np.cos(err / 2.0)))) <= 1e-15

    def test_deterministic_small_error(self):
        # a fixed absolute angle error t = 0.01pi gives F = cos(t/2)
        f = fidelity(
            rotation(RotationSpec(math.pi, 0.0)), rotation(RotationSpec(math.pi, 0.0, 0.01))
        )
        assert abs(f - math.cos(0.005 * math.pi)) <= 1e-15

    def test_takes_only_the_spread(self):
        assert list(inspect.signature(ensemble_mean_fidelity).parameters) == ["sigma_theta"]

    def test_validation(self):
        for sigma in (-0.1, -5e-324, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="sigma_theta"):
                ensemble_mean_fidelity(sigma)


class TestEstimator:
    def test_identical_signals_give_zero(self):
        sig = echo_train("cp", 8, 0.07)
        eps_hat, _ = estimate_rotation_error(sig, sig)
        assert eps_hat == 0.0

    @pytest.mark.parametrize("eps_true", [0.05, 0.1])
    def test_round_trip(self, eps_true):
        cp = echo_train("cp", 16, eps_true)
        cpmg = echo_train("cpmg", 16, eps_true)
        eps_hat, residual = estimate_rotation_error(cp, cpmg)
        assert abs(eps_hat - eps_true) <= 0.1 * eps_true
        assert residual < 1e-3

    def test_round_trip_with_shared_envelope(self):
        cp = echo_train("cp", 16, 0.1, t2_envelope=64.0)
        cpmg = echo_train("cpmg", 16, 0.1, t2_envelope=64.0)
        eps_hat, _ = estimate_rotation_error(cp, cpmg)
        assert abs(eps_hat - 0.1) <= 0.01

    @pytest.mark.parametrize("t2", [None, 30.0])
    @pytest.mark.parametrize("eps_true", [0.023, 0.123, 0.247])
    @pytest.mark.parametrize("tau", [0.7, 1.0])
    @pytest.mark.parametrize("n", [16, 32])
    def test_noise_free_round_trip_to_rounding(self, n, tau, eps_true, t2):
        cp = echo_train("cp", n, eps_true, t2_envelope=t2, tau=tau)
        cpmg = echo_train("cpmg", n, eps_true, t2_envelope=t2, tau=tau)
        eps_hat, residual = estimate_rotation_error(cp, cpmg)
        assert abs(eps_hat - eps_true) <= 1e-12
        assert residual <= 1e-12

    @pytest.mark.parametrize("t2", [None, 30.0])
    @pytest.mark.parametrize("tau", [0.7, 1.0])
    @pytest.mark.parametrize("n", [16, 32])
    def test_zero_error_recovered(self, n, tau, t2):
        # the ratio is even in eps, so the fit runs in s = eps**2, where the
        # Jacobian does not vanish at 0
        cp = echo_train("cp", n, 0.0, t2_envelope=t2, tau=tau)
        cpmg = echo_train("cpmg", n, 0.0, t2_envelope=t2, tau=tau)
        eps_hat, residual = estimate_rotation_error(cp, cpmg)
        assert 0.0 <= eps_hat <= 1e-9
        assert residual <= 1e-12

    def test_step_held_at_the_bracket_edge_is_not_convergence(self):
        # the best grid point is eps = 0, the low edge of the bracket; the
        # one-sided first step leaves it
        cp = echo_train("cp", 64, 0.001, tau=0.7)
        cpmg = echo_train("cpmg", 64, 0.001, tau=0.7)
        eps_hat, residual = estimate_rotation_error(cp, cpmg)
        assert abs(eps_hat - 0.001) <= 1e-12
        assert residual <= 1e-12

    def test_truth_past_eps_max_returns_the_bracket_edge(self):
        # every step points past the top grid point, where the clamp holds it
        cp = echo_train("cp", 32, 0.1)
        cpmg = echo_train("cpmg", 32, 0.1)
        eps_hat, _ = estimate_rotation_error(cp, cpmg, eps_max=0.0999999)
        assert eps_hat == 0.0999999

    @pytest.mark.parametrize("n,eps_true", [(4, 0.194), (4, 0.196), (8, 0.216), (8, 0.218)])
    def test_minimum_beside_a_folded_echo_is_passed_over(self, n, eps_true):
        # an echo magnitude folds where the model echo crosses zero; from the
        # best grid point the steps end in a minimum beside the fold (n = 4,
        # eps = 0.194 at 0.1914 with residual 6e-3), from its better
        # neighbour at the truth
        cp = echo_train("cp", n, eps_true, tau=0.7)
        cpmg = echo_train("cpmg", n, eps_true, tau=0.7)
        eps_hat, residual = estimate_rotation_error(cp, cpmg)
        assert abs(eps_hat - eps_true) <= 1e-12
        assert residual <= 1e-12

    @pytest.mark.parametrize("tau", [0.7, 1.0, 1.3])
    @pytest.mark.parametrize("n", [4, 5, 16, 17])
    def test_model_rows_equal_the_residual_trains(self, n, tau):
        # the fit's residual is taken from an echo_train pair: each row of the
        # even-echo model block must be that pair's ratio, bit for bit
        eps = np.array([0.0, 1e-4, 0.0371, 0.123, 0.29])
        _, delta, weights = analysis._echo_nodes(n, tau)
        model = analysis._model_ratio(eps, n, tau, delta, weights)
        assert model.shape == (eps.size, n // 2)
        for e, row in zip(eps.tolist(), model):
            cp, cpmg = (echo_train(mode, n, e, tau=tau) for mode in ("cp", "cpmg"))
            want = cp.values[1::2] / cpmg.values[1::2]
            assert row.tolist() == want.tolist()

    @pytest.mark.parametrize("n", [32, 33])
    def test_extracted_model_rows_equal_the_residual_trains(self, monkeypatch, n):
        # a Gauss-Newton block at n = 32 holds 3 errors x 16 even echoes x 2
        # modes on 17 members, 1632 products, and takes extracted sums, where
        # each train (544 products) takes math.fsum: the same bits
        extracted, original = [], simulator._extracted_sums

        def spy(products, top):
            extracted.append(products.shape)
            return original(products, top)

        monkeypatch.setattr(simulator, "_extracted_sums", spy)
        _, delta, weights = analysis._echo_nodes(n, 1.0)
        for s in (0.0, 0.0123**2, 0.1**2, 0.29**2):
            eps = np.sqrt([max(s - analysis.FIT_STEP, 0.0), s, s + analysis.FIT_STEP])
            extracted.clear()
            model = analysis._model_ratio(eps, n, 1.0, delta, weights)
            assert extracted == [(96, 17)]
            for e, row in zip(eps.tolist(), model):
                cp, cpmg = (echo_train(mode, n, e) for mode in ("cp", "cpmg"))
                assert row.tolist() == (cp.values[1::2] / cpmg.values[1::2]).tolist()

    @pytest.mark.parametrize("bounded", [False, True])
    def test_one_engine_run_per_model_call(self, monkeypatch, bounded):
        # the CPMG cycle is the CP cycle conjugated by Rz(pi/2): one model call
        # builds one cycle on the engine and reduces both modes of a slice in
        # one call (a 31-error grid block at n = 16 is one slice)
        calls = {"_propagate_nodes": 0, "_weighted_sums": 0}

        def counted(name):
            def spy(*args):
                calls[name] += 1
                return original(*args)

            original = getattr(simulator, name)
            return spy

        for name in calls:
            monkeypatch.setattr(simulator, name, counted(name))
        _, delta, weights = analysis._echo_nodes(16, 1.0)
        grid = np.linspace(0.0, 0.3, analysis.FIT_COARSE_POINTS)
        analysis._model_ratio(grid, 16, 1.0, delta, weights, bounded=bounded)
        assert calls == {"_propagate_nodes": 1, "_weighted_sums": 0 if bounded else 1}

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_grid_start_is_the_exact_grid_argmin(self, n):
        # 75 seeded pairs per n, noise-free and noisy, eps_max 0.2-0.95, with
        # the echo folds of n = 4 and 8 near 0.195 and 0.217 among them: the
        # bounded ranking starts where np.argmin of the full exact grid does,
        # and a second start takes the neighbour the exact costs order first
        rng = np.random.default_rng(n)
        for pair in range(75):
            tau, eps_max = rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.95)
            eps_true = rng.uniform(0.0, eps_max)
            if n <= 8 and pair % 3 == 0:
                tau, eps_true = 0.7, rng.uniform(-0.003, 0.003) + (0.195 if n == 4 else 0.217)
            noise = (0.0, 1e-4, 1e-3, 1e-2)[pair % 4]
            cp, cpmg = (
                replace(s, samples=[(t, v * (1.0 + noise * rng.standard_normal()))
                                    for t, v in s.samples])
                for s in (echo_train(mode, n, eps_true, tau=tau) for mode in ("cp", "cpmg"))
            )
            data = cp.values[1::2] / cpmg.values[1::2]
            _, delta, weights = analysis._echo_nodes(n, tau)
            grid = np.linspace(0.0, eps_max, analysis.FIT_COARSE_POINTS)
            model = analysis._model_ratio(grid, n, tau, delta, weights)
            cost = np.mean((model - data) ** 2, axis=1)
            want = int(np.argmin(cost))
            neighbours = [j for j in (max(want - 1, 0), min(want + 1, grid.size - 1)) if j != want]
            i, neighbour = analysis._grid_start(grid, data, n, tau, delta, weights)
            assert i == want
            assert neighbour() == min(neighbours, key=lambda j: cost[j])

    def test_ratio_ends_unknown_where_cpmg_may_vanish(self, monkeypatch):
        # a CPMG amplitude within its bound of 0 may be 0, and then the exact
        # ratio may be NaN: both ends are NaN; a CP lower end clips at 0
        blocks = {
            "cp": (np.array([[0.5, 0.05, 0.5, 0.5]]), np.full((1, 4), 0.1)),
            "cpmg": (np.array([[0.5, 0.5, 0.1, 0.05]]), np.full((1, 4), 0.1)),
        }
        monkeypatch.setattr(
            analysis, "_echo_amplitudes",
            lambda modes, *args: tuple(np.stack(ends) for ends in zip(*map(blocks.get, modes))),
        )
        lo, hi = analysis._model_ratio(np.zeros(1), 8, 1.0, None, None, bounded=True)
        assert lo[0, :2].tolist() == [(0.5 - 0.1) / (0.5 + 0.1), 0.0]
        assert hi[0, :2].tolist() == [(0.5 + 0.1) / (0.5 - 0.1), (0.05 + 0.1) / (0.5 - 0.1)]
        assert np.isnan(lo[0, 2:]).all() and np.isnan(hi[0, 2:]).all()

    @settings(max_examples=60, deadline=None)
    @example(
        # row 3 fits exactly on loose ends whose misfit holds 0; row 10 misses by
        # 2**-52 on exact ends: the lower end of row 3 must be 0 for it to win
        values=[2.0] * 6 + [1.0, 1.0] + [2.0] * 12 + [1.0 + 2**-52, 1.0] + [2.0] * 40,
        slack=[0.0] * 6 + [0.3] * 2 + [0.0] * 54,
        data=[1.0, 1.0],
    )
    @given(
        values=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0 + 2**-52, 2.0, math.inf, math.nan]),
                        min_size=62, max_size=62),
        slack=st.lists(st.sampled_from([0.0, 1e-16, 0.3, 2.0]), min_size=62, max_size=62),
        data=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]), min_size=2, max_size=2),
    )
    def test_grid_start_keeps_argmin_ties_and_nans(self, values, slack, data):
        # a model whose rows tie, or are NaN or infinite, on ends that
        # enclose them loosely or exactly: the start is still np.argmin of the
        # exact costs, its first-index and NaN rules included, and a block of
        # candidates costs each row as the full grid does
        grid = np.linspace(0.0, 0.3, analysis.FIT_COARSE_POINTS)
        table, width = np.reshape(values, (grid.size, 2)), np.reshape(slack, (grid.size, 2))

        def model(eps, n, tau, delta, weights, bounded=False):
            rows = np.searchsorted(grid, eps)
            if bounded:
                return table[rows] - width[rows], table[rows] + width[rows]
            return table[rows]

        data = np.array(data)
        cost = np.mean((table - data) ** 2, axis=1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_model_ratio", model)
            i, _ = analysis._grid_start(grid, data, 4, 1.0, None, None)
        assert i == int(np.argmin(cost))

    def test_steps_that_do_not_converge_raise(self, monkeypatch):
        monkeypatch.setattr(analysis, "FIT_MAX_STEPS", 1)
        cp = echo_train("cp", 16, 0.123, tau=0.7)
        cpmg = echo_train("cpmg", 16, 0.123, tau=0.7)
        with pytest.raises(ValueError, match="did not converge within 1 Gauss-Newton steps"):
            estimate_rotation_error(cp, cpmg)

    def test_flat_model_raises_vanishing_jacobian(self, monkeypatch):
        # a model ratio that does not depend on epsilon gives the refinement
        # no direction to step in; its bounded ends, which rank the grid, are
        # flat too
        def flat(eps, n, tau, delta, weights, bounded=False):
            ones = np.ones((eps.size, n // 2))
            return (ones, ones) if bounded else ones

        monkeypatch.setattr(analysis, "_model_ratio", flat)
        cp = echo_train("cp", 8, 0.1)
        cpmg = echo_train("cpmg", 8, 0.1)
        with pytest.raises(ValueError, match="Jacobian vanishes at epsilon = 0.0"):
            estimate_rotation_error(cp, cpmg)

    @settings(max_examples=25, deadline=None)
    @given(
        eps_true=st.one_of(
            st.floats(0.0, 0.29), st.floats(0.0, 1e-3), st.sampled_from([0.0, 1e-4, 0.29])
        ),
        n=st.sampled_from([4, 8, 16, 32, 64]),
        tau=st.sampled_from([0.7, 1.0]),
        t2=st.sampled_from([None, 30.0]),
    )
    def test_noise_free_round_trip_property(self, eps_true, n, tau, t2):
        cp = echo_train("cp", n, eps_true, t2_envelope=t2, tau=tau)
        cpmg = echo_train("cpmg", n, eps_true, t2_envelope=t2, tau=tau)
        eps_hat, _ = estimate_rotation_error(cp, cpmg)
        assert abs(eps_hat - eps_true) <= 1e-9

    @pytest.mark.xfail(strict=True, raises=ValueError, reason=(
        "from n ~ 128 the minimum's basin, about +-0.004 in eps, is narrower than the "
        "coarse grid step of 0.01, so the grid can start the fit in another valley"))
    def test_noise_free_pair_at_n_128_fits(self):
        # inside eps_max, yet the grid's best point is 0.25 (cost 3.01e-3 against
        # 3.22e-3 and 3.08e-3 at 0.22 and 0.23), and the better of the fits from
        # it and from its better neighbour leaves a residual of 0.055
        cp, cpmg = (echo_train(mode, 128, 0.225, tau=0.7) for mode in ("cp", "cpmg"))
        eps_hat, _ = estimate_rotation_error(cp, cpmg)
        assert abs(eps_hat - 0.225) <= 1e-9

    @pytest.mark.parametrize(
        "n,eps_true,noise",
        [(32, 0.0, 1e-4), (64, 0.002, 3e-4), (16, 0.004, 1e-3), (8, 0.05, 3e-3),
         (4, 0.123, 1e-3), (32, 0.247, 1e-4), (4, 0.194, 3e-4), (8, 0.216, 1e-3),
         # residuals 5.2e-3 and 7.3e-3: the second start runs FIT_MAX_STEPS blocks,
         # and at 0.26 raises and is dropped
         (64, 0.26, 2e-2), (64, 0.2, 2.5e-2)],
    )
    def test_noisy_pair_ends_at_a_local_minimum(self, n, eps_true, noise):
        rng = np.random.default_rng(round(1e6 * eps_true) + n)
        tau, eps_max = 0.7, 0.3
        cp, cpmg = (echo_train(mode, n, eps_true, tau=tau) for mode in ("cp", "cpmg"))
        cp, cpmg = (
            replace(s, samples=[(t, v * (1.0 + noise * rng.standard_normal())) for t, v in s.samples])
            for s in (cp, cpmg)
        )
        eps_hat, residual = estimate_rotation_error(cp, cpmg, eps_max=eps_max)
        data = cp.values[1::2] / cpmg.values[1::2]

        def cost(eps):
            fit_cp, fit_cpmg = (echo_train(mode, n, eps, tau=tau) for mode in ("cp", "cpmg"))
            return float(np.mean((fit_cp.values[1::2] / fit_cpmg.values[1::2] - data) ** 2))

        at = cost(eps_hat)
        assert math.sqrt(at) == pytest.approx(residual, rel=1e-12)
        for neighbour in (eps_hat - 1e-6, eps_hat + 1e-6):
            if 0.0 <= neighbour <= eps_max:
                assert cost(neighbour) >= at * (1.0 - 1e-12)

    def test_cold_and_warm_rule_cache_agree_bitwise(self):
        def run():
            cp = echo_train("cp", 32, 0.1)
            cpmg = echo_train("cpmg", 32, 0.1)
            return cp.samples, estimate_rotation_error(cp, cpmg)

        _gauss_rule.cache_clear()
        cold = run()
        # the default echo ensemble's periodic midpoint rule solves no Gauss rule
        assert _gauss_rule.cache_info().currsize == 0
        assert run() == cold
        # the epsilon_hat of the README's example, bit for bit
        assert cold[1][0] == 0.1
        assert abs(cold[1][0] - 0.1) <= 1e-12

    def test_returns_plain_floats(self):
        cp = echo_train("cp", 4, 0.05)
        cpmg = echo_train("cpmg", 4, 0.05)
        eps_hat, residual = estimate_rotation_error(cp, cpmg)
        assert type(eps_hat) is float and type(residual) is float

    def test_mismatched_time_axes_rejected(self):
        cp = echo_train("cp", 8, 0.1, tau=1.0)
        cpmg = echo_train("cpmg", 8, 0.1, tau=1.3)
        with pytest.raises(ValueError, match="CPMG echo times"):
            estimate_rotation_error(cp, cpmg)

    def test_uneven_time_axis_rejected(self):
        cp = echo_train("cp", 4, 0.1)
        cpmg = echo_train("cpmg", 4, 0.1)
        cp = with_sample(cp, 2, (6.5, cp.samples[2][1]))
        with pytest.raises(ValueError, match="CP echo times"):
            estimate_rotation_error(cp, cpmg)

    def test_mismatched_lengths_rejected(self):
        cp = echo_train("cp", 8, 0.1)
        cpmg = echo_train("cpmg", 6, 0.1)
        with pytest.raises(ValueError):
            estimate_rotation_error(cp, cpmg)

    def test_fewer_than_four_echoes_rejected(self):
        cp = echo_train("cp", 3, 0.1)
        cpmg = echo_train("cpmg", 3, 0.1)
        with pytest.raises(ValueError, match="at least two even echoes"):
            estimate_rotation_error(cp, cpmg)

    def test_ensemble_mismatch_raises(self):
        # trains recorded on a narrower detuning line than the model's
        spec = EnsembleSpec(DELTA_ZERO, Uniform(-2.0, 2.0), nodes=65)
        cp = echo_train("cp", 32, 0.1, ensemble_detuning=spec)
        cpmg = echo_train("cpmg", 32, 0.1, ensemble_detuning=spec)
        with pytest.raises(ValueError, match="ensemble mismatch"):
            estimate_rotation_error(cp, cpmg)

    def test_error_beyond_eps_max_raises(self):
        # the best fit in [0, 0.3] is 0.251, inside the bracket, not on its edge
        cp = echo_train("cp", 32, 0.35)
        cpmg = echo_train("cpmg", 32, 0.35)
        with pytest.raises(ValueError, match=f"exceeds {FIT_MAX_RESIDUAL}"):
            estimate_rotation_error(cp, cpmg)

    def test_refused_residual_reads_above_its_bound(self, monkeypatch):
        # a residual a hair above the bound must not print as the bound or below it
        rng = np.random.default_rng(2)
        cp, cpmg = (
            replace(s, samples=[(t, v * (1.0 + 3e-3 * rng.standard_normal())) for t, v in s.samples])
            for s in (echo_train(mode, 16, 0.1) for mode in ("cp", "cpmg"))
        )
        _, residual = estimate_rotation_error(cp, cpmg)
        monkeypatch.setattr(analysis, "FIT_MAX_RESIDUAL", residual * (1.0 - 1e-6))
        with pytest.raises(ValueError, match="exceeds") as info:
            estimate_rotation_error(cp, cpmg)
        printed, bound = re.match(r"fit residual (\S+) exceeds (\S+):", str(info.value)).groups()
        assert float(printed) == residual
        assert float(printed) > float(bound)

    @pytest.mark.parametrize("eps_max", [-0.3, 0.0, 1.0, math.inf, math.nan])
    def test_eps_max_outside_unit_interval_rejected(self, monkeypatch, eps_max):
        def no_model(*args):
            raise AssertionError("simulated a train for a rejected eps_max")

        cp = echo_train("cp", 8, 0.1)
        cpmg = echo_train("cpmg", 8, 0.1)
        for name in ("_model_ratio", "_echo_amplitudes", "echo_train"):
            monkeypatch.setattr(analysis, name, no_model)
        with pytest.raises(ValueError, match=r"eps_max must lie in \(0, 1\)"):
            estimate_rotation_error(cp, cpmg, eps_max=eps_max)

    def test_nonpositive_cpmg_rejected(self):
        cp = echo_train("cp", 4, 0.1)
        bad = echo_train("cpmg", 4, 0.1)
        bad = with_sample(bad, 1, (bad.samples[1][0], 0.0))
        with pytest.raises(ValueError):
            estimate_rotation_error(cp, bad)

    @pytest.mark.parametrize("name,index", [("CP", 3), ("CPMG", 3), ("CP", 0), ("CPMG", 2)])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_amplitude_rejected(self, monkeypatch, name, index, value):
        # a Signal is frozen and checked when built, so a NaN echo is refused
        # before any fit: it must not become a (0.0, nan) fit with exit 0
        def no_model(*args):
            raise AssertionError("simulated a train for a non-finite amplitude")

        pair = {"CP": echo_train("cp", 16, 0.1), "CPMG": echo_train("cpmg", 16, 0.1)}
        for fn in ("_model_ratio", "_echo_amplitudes", "echo_train"):
            monkeypatch.setattr(analysis, fn, no_model)
        with pytest.raises(ValueError, match="^sample x and y values must be finite$"):
            pair[name] = with_sample(pair[name], index, (pair[name].samples[index][0], value))
            estimate_rotation_error(pair["CP"], pair["CPMG"])


class TestEseem:
    def test_pi_refocus_perfect_pulse(self):
        assert eseem_ratio(EseemRatioSpec("pi", 0.0)) == 0.0

    def test_pi_refocus_small_error(self):
        ratio = eseem_ratio(EseemRatioSpec("pi", 0.1))
        assert ratio == 2.0 * 0.1 * 0.1
        assert ratio == pytest.approx(0.02, abs=1e-15)

    def test_magic_refocus_value(self):
        assert eseem_ratio(EseemRatioSpec("magic", 0.1)) == pytest.approx(14.142, abs=1e-3)

    def test_magic_refocus_diverges_at_zero(self):
        with pytest.raises(ValueError):
            eseem_ratio(EseemRatioSpec("magic", 0.0))

    @pytest.mark.parametrize("mode,theta_eps", [("pi", 1e308), ("magic", 1e-320)])
    def test_non_finite_ratio_rejected(self, mode, theta_eps):
        with pytest.raises(ValueError, match="not finite"):
            eseem_ratio(EseemRatioSpec(mode, theta_eps))

    def test_parity(self):
        for t in (0.03, 0.1, 0.2):
            assert eseem_ratio(EseemRatioSpec("pi", -t)) == eseem_ratio(EseemRatioSpec("pi", t))
            assert eseem_ratio(EseemRatioSpec("magic", -t)) == -eseem_ratio(
                EseemRatioSpec("magic", t)
            )

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            EseemRatioSpec("hahn", 0.1)

    @pytest.mark.parametrize("theta_eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_eps_rejected(self, theta_eps):
        with pytest.raises(ValueError, match="theta_eps must be finite"):
            EseemRatioSpec("pi", theta_eps)


class TestMagicAngle:
    def test_value_in_quoted_window(self):
        assert 0.607 <= magic_refocus_angle() / math.pi <= 0.609

    def test_defining_identity(self):
        assert math.cos(magic_refocus_angle() / 2.0) == pytest.approx(
            math.sqrt(1.0 / 3.0), abs=1e-12
        )

    def test_bb1_phases_at_magic_angle(self):
        phi1, phi2 = bb1_phases(magic_refocus_angle())
        assert phi1 / math.pi == pytest.approx(0.549, abs=1e-3)
        assert phi2 / math.pi == pytest.approx(1.646, abs=1e-3)
