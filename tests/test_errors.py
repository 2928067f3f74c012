import math

import numpy as np
import pytest

from spinpulse import (
    Discrete,
    EnsembleSpec,
    ErrorModel,
    Gaussian,
    Pulse,
    PulseProgram,
    RotationSpec,
    Uniform,
    ensemble_nodes,
    monte_carlo_nodes,
    propagate,
    rotation,
)
from spinpulse.errors import MAX_NODES


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

    def test_node_count_bounded(self):
        # constructing the spec alone must refuse; no quadrature is built
        assert EnsembleSpec(Uniform(-1.0, 1.0), nodes=MAX_NODES).nodes == MAX_NODES
        with pytest.raises(ValueError, match=f"\\[1, {MAX_NODES}\\]"):
            EnsembleSpec(Uniform(-1.0, 1.0), nodes=10**6)

    def test_overflowing_quadrature_rejected(self):
        # Gauss-Hermite weights overflow to nan near 373 nodes; 300 is fine
        nodes = ensemble_nodes(EnsembleSpec(Gaussian(0.0, 0.05), nodes=300))
        assert math.fsum(w for _, _, w in nodes) == pytest.approx(1.0, abs=1e-10)
        with pytest.raises(ValueError, match="400 nodes"):
            ensemble_nodes(EnsembleSpec(Gaussian(0.0, 0.05), nodes=400))


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        spec = EnsembleSpec(Gaussian(0.0, 0.05), detuning_dist=Uniform(-1, 1), nodes=3)
        a = monte_carlo_nodes(spec, 100, seed=42)
        b = monte_carlo_nodes(spec, 100, seed=42)
        assert np.array_equal(a, b)
        c = monte_carlo_nodes(spec, 100, seed=43)
        assert not np.array_equal(a, c)

    def test_equal_weights(self):
        spec = EnsembleSpec(Gaussian(0.0, 0.05))
        nodes = monte_carlo_nodes(spec, 50, seed=1)
        assert all(w == pytest.approx(1 / 50) for _, _, w in nodes)

    def test_sample_moments_near_distribution(self):
        spec = EnsembleSpec(Gaussian(0.0, 0.05))
        nodes = monte_carlo_nodes(spec, 20000, seed=7)
        eps = np.array([e for e, _, _ in nodes])
        assert abs(eps.mean()) < 5 * 0.05 / math.sqrt(20000)
        assert eps.std() == pytest.approx(0.05, rel=0.05)
