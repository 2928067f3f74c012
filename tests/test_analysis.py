import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinpulse import (
    DELTA_ZERO,
    EnsembleSpec,
    EseemRatioSpec,
    Uniform,
    bb1_fidelity,
    bb1_phases,
    echo_train,
    ensemble_mean_fidelity,
    eseem_ratio,
    estimate_rotation_error,
    magic_refocus_angle,
    phase_sensitivity_prediction,
    scan_order,
    verify_eq5_coefficients,
)
from spinpulse import analysis
from spinpulse.analysis import FIT_MAX_RESIDUAL, FidelityScan, _model_ratio
from spinpulse.errors import _gauss_rule
from spinpulse.simulator import MAX_SAMPLES

# True values of the corrected-pulse figures of merit at eps = 0.1,
# frozen from the matrix-composition oracle (cross-checked against the
# scipy matrix exponential in test_su2).  The leading infidelity
# coefficient is about 4.69 * eps**6 for a pi rotation.
BB1_PI_INFIDELITY_AT_10PCT = 4.622436554191367e-06
BB1_MEASURED_PHASE_FIDELITY = 0.9999460011510224


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

    @pytest.mark.parametrize("theta", [2 * math.pi, 4 * math.pi])
    def test_offsets_by_position_at_coinciding_phases(self, theta):
        # At 2pi the 2pi pulse's phase coincides with the target pulse's,
        # and at 4pi phi1 and phi2 coincide: offsets still follow position.
        for eps in (0.0, 0.05, 0.1):
            for d1, d2 in ((0.01, -0.02), (0.03, 0.01), (-0.02, 0.0)):
                assert bb1_fidelity(theta, eps, (d1, d2)) == pytest.approx(
                    bb1_fidelity_expm(theta, eps, d1, d2), abs=1e-12
                )

    @settings(max_examples=200, deadline=None)
    @given(
        theta=st.floats(0.0, 4 * math.pi),
        eps=st.floats(-0.3, 0.3),
        d1=st.floats(-0.05, 0.05),
        d2=st.floats(-0.05, 0.05),
    )
    def test_matches_expm_route(self, theta, eps, d1, d2):
        assert bb1_fidelity(theta, eps, (d1, d2)) == pytest.approx(
            bb1_fidelity_expm(theta, eps, d1, d2), abs=1e-12
        )

    def test_non_finite_error_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            bb1_fidelity(math.pi, math.nan)

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


class TestEnsembleMeanFidelity:
    def test_zero_width(self):
        assert ensemble_mean_fidelity(0.0) == 1.0

    def test_wide_spread_reproduces_quoted_value(self):
        f = ensemble_mean_fidelity(0.1 * math.pi)
        assert f == pytest.approx(0.988, abs=0.001)

    def test_small_spread_closed_form(self):
        # for spreads far from the |cos| kink the average is exactly exp(-sigma^2/8)
        sigma = 0.02
        assert ensemble_mean_fidelity(sigma) == pytest.approx(math.exp(-sigma**2 / 8), abs=1e-12)

    def test_deterministic_small_error(self):
        # a fixed absolute angle error t gives F = cos(t/2)
        assert math.cos(0.005 * math.pi) >= 0.9993
        assert math.cos(0.005 * math.pi) == pytest.approx(0.999877, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            ensemble_mean_fidelity(-0.1)
        # Gauss-Hermite weights overflow at 400 nodes: an error, not nan
        with pytest.raises(ValueError, match="400 nodes"):
            ensemble_mean_fidelity(0.1, nodes=400)


class TestEstimator:
    def test_identical_signals_give_zero(self):
        sig = echo_train("cp", 8, 0.07)
        eps_hat, _ = estimate_rotation_error(sig, sig)
        assert abs(eps_hat) < 1e-4

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

    def test_cold_and_warm_rule_cache_agree_bitwise(self):
        def run():
            _model_ratio.cache_clear()
            cp = echo_train("cp", 32, 0.1)
            cpmg = echo_train("cpmg", 32, 0.1)
            return cp.samples, estimate_rotation_error(cp, cpmg)

        _gauss_rule.cache_clear()
        cold = run()
        assert _gauss_rule.cache_info().currsize > 0
        assert run() == cold

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
        cp.samples[2] = (6.5, cp.samples[2][1])
        with pytest.raises(ValueError, match="CP echo times"):
            estimate_rotation_error(cp, cpmg)

    def test_mismatched_lengths_rejected(self):
        cp = echo_train("cp", 8, 0.1)
        cpmg = echo_train("cpmg", 6, 0.1)
        with pytest.raises(ValueError):
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

    @pytest.mark.parametrize("eps_max", [-0.3, 0.0, 1.0, math.inf, math.nan])
    def test_eps_max_outside_unit_interval_rejected(self, monkeypatch, eps_max):
        def no_model(*args):
            raise AssertionError("simulated a train for a rejected eps_max")

        cp = echo_train("cp", 8, 0.1)
        cpmg = echo_train("cpmg", 8, 0.1)
        monkeypatch.setattr(analysis, "_model_ratio", no_model)
        with pytest.raises(ValueError, match=r"eps_max must lie in \(0, 1\)"):
            estimate_rotation_error(cp, cpmg, eps_max=eps_max)

    def test_nonpositive_cpmg_rejected(self):
        cp = echo_train("cp", 4, 0.1)
        bad = echo_train("cpmg", 4, 0.1)
        bad.samples[1] = (bad.samples[1][0], 0.0)
        with pytest.raises(ValueError):
            estimate_rotation_error(cp, bad)


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

    def test_parity(self):
        for t in (0.03, 0.1, 0.2):
            assert eseem_ratio(EseemRatioSpec("pi", -t)) == eseem_ratio(EseemRatioSpec("pi", t))
            assert eseem_ratio(EseemRatioSpec("magic", -t)) == -eseem_ratio(
                EseemRatioSpec("magic", t)
            )

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            EseemRatioSpec("hahn", 0.1)


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
