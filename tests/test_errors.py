import math
import warnings

import numpy as np
import pytest

from spinpulse import (
    DELTA_ZERO,
    Discrete,
    EnsembleSpec,
    ErrorModel,
    Gaussian,
    Pulse,
    PulseProgram,
    RotationSpec,
    Uniform,
    bb1_phases,
    bb1_sequence,
    ensemble_nodes,
    propagate,
    rotation,
)
from spinpulse.errors import MAX_MEMBERS, MAX_NODES, _gauss_rule


class TestApplyError:
    """How an ErrorModel acts on a pulse: the angle is scaled by
    ``1 + epsilon`` and the phase picks up ``offset_for(phi)``."""

    def test_no_error_is_identity(self):
        assert ErrorModel().offset_for(0.7) == 0.0
        assert ErrorModel().epsilon == 0.0

    def test_amplitude_error_scales_effective_angle(self):
        got = propagate(PulseProgram((Pulse(math.pi, 0.0),)), ErrorModel(epsilon=0.1)).vector
        want = rotation(RotationSpec(1.1 * math.pi, 0.0, 0.0)).matrix[:, 0]
        assert np.max(np.abs(got - want)) < 1e-15

    def test_offsets_shift_only_matching_channels(self):
        phi1 = 0.580 * math.pi
        phi2 = 1.741 * math.pi
        model = ErrorModel(
            epsilon=0.0,
            phase_offsets={phi1: 0.007 * math.pi, phi2: 0.001 * math.pi},
        )
        assert model.offset_for(phi1) == pytest.approx(0.007 * math.pi)
        assert model.offset_for(phi2) == pytest.approx(0.001 * math.pi)
        assert model.offset_for(0.0) == 0.0

    def test_phase_match_tolerance(self):
        model = ErrorModel(phase_offsets={1.0: 0.01})
        assert model.offset_for(1.0 + 5e-10) == 0.01
        assert model.offset_for(1.0 - 0.999e-9) == 0.01
        assert model.offset_for(1.0 + 1.001e-9) == 0.0
        assert model.offset_for(1.0 + 5e-8) == 0.0

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ErrorModel(epsilon=1.0)
        with pytest.raises(ValueError):
            ErrorModel(phase_offsets={0.0: math.pi / 2})
        for offsets in ({0.0: math.nan}, {math.inf: 0.1}):
            with pytest.raises(ValueError, match="phase offsets must be finite"):
                ErrorModel(phase_offsets=offsets)


class TestPhaseChannels:
    """Channel keys are phases on the circle, reduced mod 2pi as a pulse's
    phase is, and matched by circular distance."""

    def test_negative_key_matches_its_pulse(self):
        model = ErrorModel(0.0, {-math.pi / 2: 0.1})
        assert model.offset_for(Pulse(1.0, -math.pi / 2).phi) == 0.1

    def test_bb1_two_pi_channel_matches_across_zero(self):
        key = 3 * bb1_phases(2 * math.pi)[0]
        assert key >= 2 * math.pi  # the stored pulse phase is ~8.9e-16
        pulse = bb1_sequence(2 * math.pi)[2]
        assert pulse.phi < 1e-15
        assert ErrorModel(0.0, {key: 0.01}).offset_for(pulse.phi) == 0.01

    def test_keys_stored_reduced(self):
        model = ErrorModel(0.0, {-math.pi / 2: 0.1, 2.5 * math.pi: 0.2})
        assert model.phase_offsets == ((0.5 * math.pi, 0.2), (1.5 * math.pi, 0.1))
        assert ErrorModel(0.0, {-1e-300: 0.1}).phase_offsets == ((0.0, 0.1),)

    @pytest.mark.parametrize(
        "offsets",
        [
            ((0.0, 0.1), (0.0, 0.2)),
            {0.0: 0.2, 2 * math.pi - 1e-12: 0.1},
            [(1.0, 0.3), (1.0 + 5e-10, -0.3)],
        ],
    )
    def test_channels_one_phase_could_match_rejected(self, offsets):
        with pytest.raises(ValueError, match="2 \\* PHASE_MATCH_TOL apart"):
            ErrorModel(0.0, offsets)

    def test_channels_just_apart_accepted(self):
        model = ErrorModel(0.0, {1.0: 0.1, 1.0 + 2.5e-9: 0.2, 1.2e-9: 0.3, -1.2e-9: 0.4})
        phases = (1.0, 1.0 + 2.5e-9, 1.2e-9, 2 * math.pi - 1.2e-9)
        assert [model.offset_for(p) for p in phases] == [0.1, 0.2, 0.3, 0.4]

    def test_match_wraps_at_zero(self):
        model = ErrorModel(0.0, {1e-10: 0.01})
        assert model.offset_for(2 * math.pi - 5e-10) == 0.01
        assert model.offset_for(2 * math.pi - 2e-9) == 0.0


class TestDistributions:
    def test_discrete_single_node(self):
        spec = EnsembleSpec(Discrete(((0.0, 1.0),)), nodes=7)
        assert ensemble_nodes(spec).tolist() == [[0.0, 0.0, 1.0]]

    def test_discrete_validation(self):
        with pytest.raises(ValueError):
            Discrete(())
        with pytest.raises(ValueError):
            Discrete(((0.0, 0.5), (1.0, 0.6)))
        with pytest.raises(ValueError):
            Discrete(((0.0, -0.1), (1.0, 1.1)))

    @pytest.mark.parametrize(
        "make,args,message",
        [
            (Gaussian, (math.nan, 0.1), "Gaussian parameters must be finite"),
            (Gaussian, (0.0, math.inf), "Gaussian parameters must be finite"),
            (Gaussian, (0.0, -0.1), "sigma must be >= 0"),
            (Uniform, (-math.inf, 1.0), "Uniform bounds must be finite"),
            (Uniform, (0.0, math.nan), "Uniform bounds must be finite"),
            (Uniform, (1.0, 0.0), "lo <= hi"),
            (Discrete, (((math.nan, 1.0),),), "atoms must be finite"),
            (Discrete, (((0.0, math.inf),),), "atoms must be finite"),
        ],
    )
    def test_parameter_validation(self, make, args, message):
        with pytest.raises(ValueError, match=message):
            make(*args)

    def test_gaussian_single_node_at_mean(self):
        spec = EnsembleSpec(Gaussian(0.02, 0.05), nodes=1)
        nodes = ensemble_nodes(spec)
        assert len(nodes) == 1
        assert nodes[0][0] == pytest.approx(0.02, abs=1e-15)
        assert nodes[0][2] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "dist",
        [Gaussian(0.0, 0.05), Uniform(-0.1, 0.1), Discrete(((-0.1, 0.25), (0.0, 0.5), (0.1, 0.25)))],
    )
    @pytest.mark.parametrize("n", [1, 2, 11, 41])
    def test_weights_sum_to_one(self, dist, n):
        spec = EnsembleSpec(dist, nodes=n)
        total = math.fsum(w for _, _, w in ensemble_nodes(spec))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_moments(self):
        spec = EnsembleSpec(Gaussian(0.0, 0.05), nodes=21)
        nodes = ensemble_nodes(spec)
        mean = math.fsum(w * e for e, _, w in nodes)
        var = math.fsum(w * (e - mean) ** 2 for e, _, w in nodes)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(0.05**2, rel=1e-6)

    def test_uniform_moments(self):
        spec = EnsembleSpec(Uniform(-0.3, 0.5), nodes=11)
        nodes = ensemble_nodes(spec)
        mean = math.fsum(w * e for e, _, w in nodes)
        var = math.fsum(w * (e - mean) ** 2 for e, _, w in nodes)
        assert mean == pytest.approx(0.1, abs=1e-12)
        assert var == pytest.approx(0.8**2 / 12.0, rel=1e-10)

    def test_product_grid_over_both_axes(self):
        spec = EnsembleSpec(
            Discrete(((0.0, 0.5), (0.1, 0.5))),
            detuning_dist=Discrete(((-1.0, 0.25), (0.0, 0.5), (1.0, 0.25))),
            nodes=5,
        )
        nodes = ensemble_nodes(spec)
        assert len(nodes) == 6
        assert math.fsum(w for _, _, w in nodes) == pytest.approx(1.0, abs=1e-12)
        # epsilon-major ordering
        assert [e for e, _, _ in nodes] == [0.0, 0.0, 0.0, 0.1, 0.1, 0.1]

    def test_node_count_validation(self):
        with pytest.raises(ValueError):
            EnsembleSpec(Gaussian(0, 0.1), nodes=0)

    def test_node_count_bounded(self, rule_calls):
        # the spec constructs; the Gauss rule refuses the order before solving it
        spec = EnsembleSpec(Uniform(-1.0, 1.0), nodes=10**6)
        with pytest.raises(ValueError, match="node count"):
            ensemble_nodes(spec)
        assert rule_calls == []

    @pytest.mark.parametrize(
        "spec",
        [
            EnsembleSpec(Uniform(-1e308, 1e308), nodes=3),
            EnsembleSpec(Gaussian(1e308, 1e308), nodes=3),
            EnsembleSpec(DELTA_ZERO, Uniform(-1e308, 1e308), nodes=3),
        ],
    )
    def test_overflowing_members_rejected(self, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                ensemble_nodes(spec)

    def test_overflowing_quadrature_rejected(self):
        # Gauss-Hermite weights are all zero at 371 nodes and nan from 372; 300 is fine
        nodes = ensemble_nodes(EnsembleSpec(Gaussian(0.0, 0.05), nodes=300))
        assert math.fsum(w for _, _, w in nodes) == pytest.approx(1.0, abs=1e-10)
        with pytest.raises(ValueError, match="400 nodes"):
            ensemble_nodes(EnsembleSpec(Gaussian(0.0, 0.05), nodes=400))


def equal_atoms(count: int) -> Discrete:
    return Discrete(tuple((k / count, 1.0 / count) for k in range(count)))


class TestDiscreteBounds:
    """A Discrete solves no rule: the Gauss order bound does not apply
    beside it, the bound on members does."""

    def test_gauss_bound_does_not_apply(self, rule_calls):
        line = equal_atoms(4095)
        assert len(ensemble_nodes(EnsembleSpec(DELTA_ZERO, line, nodes=4095))) == 4095
        assert rule_calls == []
        with pytest.raises(ValueError, match="node count"):
            ensemble_nodes(EnsembleSpec(Gaussian(0.0, 0.1), line, nodes=MAX_NODES + 1))
        assert rule_calls == []

    def test_grid_bounded(self):
        # 1025 x 1025 atoms is more than MAX_MEMBERS = 1024**2
        wide = equal_atoms(MAX_NODES + 1)
        with pytest.raises(ValueError, match=f"exceeds {MAX_MEMBERS}"):
            ensemble_nodes(EnsembleSpec(wide, wide, nodes=1))


@pytest.fixture
def rule_calls(monkeypatch):
    """Orders numpy's two Gauss rules are asked for, from a cold cache."""
    calls = []
    for module, name in ((np.polynomial.legendre, "leggauss"), (np.polynomial.hermite, "hermgauss")):

        def counted(n, rule=getattr(module, name), name=name):
            calls.append((name, n))
            return rule(n)

        monkeypatch.setattr(module, name, counted)
    _gauss_rule.cache_clear()
    yield calls
    _gauss_rule.cache_clear()


class TestRuleCache:
    """Each Gauss rule is solved once per order and shared read-only;
    every distribution maps it to its own fresh arrays."""

    def test_each_rule_solved_once_per_order(self, rule_calls):
        for lo, hi in ((-1.0, 1.0), (-2.0, 3.0)):
            ensemble_nodes(EnsembleSpec(DELTA_ZERO, Uniform(lo, hi), nodes=33))
        for sigma in (0.05, 0.1):
            ensemble_nodes(EnsembleSpec(Gaussian(0.0, sigma), nodes=33))
        assert rule_calls == [("leggauss", 33), ("hermgauss", 33)]

    def test_rows_equal_a_freshly_solved_rule(self):
        n = 17
        x, w = np.polynomial.legendre.leggauss(n)
        legendre = np.column_stack((np.zeros(n), 0.5 + 2.5 * x, w / 2.0))
        x, w = np.polynomial.hermite.hermgauss(n)
        hermite = np.column_stack((0.01 + math.sqrt(2.0) * 0.2 * x, np.zeros(n), w / math.sqrt(math.pi)))
        _gauss_rule.cache_clear()
        for _ in ("cold", "warm"):
            assert np.array_equal(ensemble_nodes(EnsembleSpec(DELTA_ZERO, Uniform(-2.0, 3.0), nodes=n)), legendre)
            assert np.array_equal(ensemble_nodes(EnsembleSpec(Gaussian(0.01, 0.2), nodes=n)), hermite)

    def test_returned_arrays_do_not_reach_the_cache(self):
        for dist in (Uniform(-1.0, 2.0), Gaussian(0.1, 0.2)):
            first = dist.quadrature(9)
            want = [a.copy() for a in first]
            for a in first:
                a[:] = 7.0
            assert all(np.array_equal(a, b) for a, b in zip(dist.quadrature(9), want))
        for a in _gauss_rule(np.polynomial.legendre.leggauss, 9):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 7.0

    def test_order_above_bound_refused_unsolved(self, rule_calls):
        rule = np.polynomial.legendre.leggauss
        for cache in ("cold", "warm"):
            with pytest.raises(ValueError, match=f"node count of {MAX_NODES + 1} exceeds {MAX_NODES}"):
                _gauss_rule(rule, MAX_NODES + 1)
            assert _gauss_rule.cache_info().currsize == {"cold": 0, "warm": 1}[cache]
            _gauss_rule(rule, MAX_NODES)
        assert rule_calls == [("leggauss", MAX_NODES)]

    def test_overflowed_rule_rejected_cold_and_warm(self):
        # Gauss-Hermite holds to 370 nodes; at 371 its weights are finite and
        # all zero, so only the sum clause refuses them; from 372 they are not finite
        _gauss_rule.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in ("cold", "warm"):
                nodes = ensemble_nodes(EnsembleSpec(Gaussian(0.0, 0.05), nodes=370))
                assert math.fsum(nodes[:, 2].tolist()) == pytest.approx(1.0, abs=1e-10)
                for n in (371, 372, 400):
                    with pytest.raises(ValueError, match=f"{n} nodes"):
                        ensemble_nodes(EnsembleSpec(Gaussian(0.0, 0.05), nodes=n))
        w = _gauss_rule(np.polynomial.hermite.hermgauss, 371)[1]
        assert np.all(np.isfinite(w)) and not np.any(w)
        assert not np.all(np.isfinite(_gauss_rule(np.polynomial.hermite.hermgauss, 372)[1]))
