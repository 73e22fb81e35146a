import io
import math

import numpy as np
import pytest

from wvsim import (
    GridSpec,
    InvalidParameterError,
    MemoryGuardError,
    PRESETS,
    ProtocolParams,
    TruncationError,
    cdf,
    conditional_moments,
    evolve_joint,
    evolve_sequential,
    final_amplitudes,
    moments,
    write_density,
)
from wvsim.analytic import coupling_weights
from wvsim.grid import GridWavefunction, _check_joint_budget, apply_block, init_gaussian, shift


def small_spec(width=1.0, dx=0.05, margin=2.0):
    return GridSpec(dx=dx, half_span=margin + 8.0 * width)


def block(wf, alpha, beta):
    """apply_block with the coupling weights of the angles (alpha, beta)."""
    w = coupling_weights(ProtocolParams(n=1, alpha=alpha, beta=beta, delta=1.0))
    return apply_block(wf, w.mu, w.nu)


class TestGridSpec:
    def test_unit_shift_divisibility(self):
        with pytest.raises(InvalidParameterError):
            GridSpec(dx=0.3, half_span=10.0)
        assert GridSpec(dx=0.25, half_span=10.0).nodes_per_unit == 4

    def test_half_span_rounds_up_to_node(self):
        spec = GridSpec(dx=0.05, half_span=10.02)
        assert spec.half_span == pytest.approx(10.05, abs=1e-12)
        assert spec.node_count == 2 * spec.half_nodes + 1

    def test_for_protocol_default(self):
        p = PRESETS["a"]
        spec = GridSpec.for_protocol(p)
        assert spec.dx == 0.01
        assert spec.half_span >= p.n + 8 * p.delta - 1e-12

    def test_positions_symmetric(self):
        x = GridSpec(dx=0.1, half_span=5.0).positions()
        assert x[0] == -x[-1]
        assert x[len(x) // 2] == 0.0


class TestInitGaussian:
    def test_moments_and_norm(self):
        spec = GridSpec(dx=0.05, half_span=60.0)
        wf = init_gaussian(spec, width=5.84, center=0.0)
        mean, std = moments(wf)
        assert abs(mean) < 1e-10
        assert std == pytest.approx(5.84, abs=1e-6)
        assert wf.squared_norm() == pytest.approx(1.0, abs=1e-12)

    def test_centered_at_plus_one(self):
        spec = small_spec(width=1.0, margin=3.0)
        mean, _ = moments(init_gaussian(spec, width=1.0, center=1.0))
        assert mean == pytest.approx(1.0, abs=1e-10)

    def test_domain_too_small(self):
        spec = GridSpec(dx=0.05, half_span=5.0)
        with pytest.raises(TruncationError):
            init_gaussian(spec, width=1.0, center=0.0)  # needs 8 sigma = 8


class TestShift:
    def test_mean_moves_by_displacement(self):
        spec = GridSpec(dx=0.05, half_span=60.0)
        wf = init_gaussian(spec, width=5.84)
        mean, _ = moments(shift(wf, 1.0).normalized())
        assert mean == pytest.approx(1.0, abs=1e-10)

    def test_zero_shift_is_identity(self):
        spec = small_spec()
        wf = init_gaussian(spec, width=1.0)
        out = shift(wf, 0.0)
        assert out is not wf
        assert np.array_equal(out.amplitudes, wf.amplitudes)

    def test_round_trip_is_exact(self):
        spec = small_spec()
        wf = init_gaussian(spec, width=1.0)
        back = shift(shift(wf, 1.0), -1.0)
        assert np.array_equal(back.amplitudes, wf.amplitudes)

    def test_norm_preserved_bit_exactly(self):
        spec = small_spec()
        wf = init_gaussian(spec, width=1.0)
        assert shift(wf, 1.0).squared_norm() == wf.squared_norm()

    def test_non_node_displacement_rejected(self):
        spec = small_spec()
        wf = init_gaussian(spec, width=1.0)
        with pytest.raises(InvalidParameterError):
            shift(wf, 0.5 * spec.dx)

    def test_support_leaving_domain(self):
        spec = small_spec(width=1.0, margin=1.0)
        wf = init_gaussian(spec, width=1.0)
        with pytest.raises(TruncationError):
            shift(wf, 2.0)


class TestApplyBlock:
    def test_pure_h_passes_whole(self):
        spec = small_spec(width=1.0, margin=3.0)
        wf = init_gaussian(spec, width=1.0)
        out, weight = block(wf, 0.0, 0.0)
        assert weight == pytest.approx(1.0, abs=1e-12)
        mean, _ = moments(out.normalized())
        assert mean == pytest.approx(1.0, abs=1e-10)

    def test_antisymmetric_superposition_loses_weight(self):
        # alpha = pi/4, beta = 3 pi/4 gives mu = -nu: destructive overlap.
        delta = 1.5
        spec = small_spec(width=delta, margin=3.0)
        wf = init_gaussian(spec, width=delta)
        _, weight = block(wf, math.pi / 4, 3 * math.pi / 4)
        expected = 0.5 - 0.5 * math.exp(-0.5 / (delta * delta))
        assert weight < 1.0
        assert weight == pytest.approx(expected, abs=1e-9)

    def test_block_weight_matches_single_denominator(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = rng.uniform(0, 2 * math.pi, size=2)
            delta = float(rng.uniform(0.5, 3.0))
            spec = small_spec(width=delta, margin=3.0)
            wf = init_gaussian(spec, width=delta)
            _, weight = block(wf, float(a), float(b))
            mu = math.cos(a) * math.cos(b)
            nu = math.sin(a) * math.sin(b)
            expected = mu * mu + nu * nu + 2 * mu * nu * math.exp(-0.5 / (delta * delta))
            assert weight == pytest.approx(expected, abs=1e-9)

    def test_repeated_blocks_match_final_amplitudes(self):
        # n grid blocks vs the closed-form superposition recombined on the grid.
        params = ProtocolParams(n=4, alpha=0.7, beta=1.1, delta=2.0)
        spec = GridSpec.for_protocol(params, dx=0.05)
        wf = init_gaussian(spec, width=params.delta)
        chi = wf.amplitudes.copy()
        for _ in range(params.n):
            wf, _ = block(wf, params.alpha, params.beta)
        sup = final_amplitudes(params)
        recombined = np.zeros_like(chi)
        for shift_units, amp in zip(sup.shifts, sup.amplitudes):
            k = int(shift_units) * spec.nodes_per_unit
            moved = np.zeros_like(chi)
            if k >= 0:
                moved[k:] = chi[: chi.size - k] if k else chi
            else:
                moved[:k] = chi[-k:]
            recombined += amp * moved
        l2 = math.sqrt(float(np.sum(np.abs(wf.amplitudes - recombined) ** 2)) * spec.dx)
        assert l2 < 1e-9


class TestEvolveSequential:
    def test_trivial_single_block(self):
        params = ProtocolParams(n=1, alpha=0.0, beta=0.0, delta=2.0)
        spec = GridSpec.for_protocol(params, dx=0.05)
        wf, prob = evolve_sequential(params, spec)
        assert prob == pytest.approx(1.0, abs=1e-12)
        mean, std = moments(wf)
        assert mean == pytest.approx(1.0, abs=1e-10)
        assert std == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("label", ["a", "b", "c", "d"])
    def test_matches_closed_forms(self, label):
        params = PRESETS[label]
        spec = GridSpec.for_protocol(params, dx=0.02)
        wf, prob = evolve_sequential(params, spec)
        mean, std = moments(wf)
        m = conditional_moments(params)
        assert abs(mean - m.mean) < 1e-6
        assert abs(std - m.std) < 1e-6
        assert abs(prob - m.probability) < 1e-9

    def test_domain_guard(self):
        params = PRESETS["a"]
        with pytest.raises(TruncationError):
            evolve_sequential(params, GridSpec(dx=0.05, half_span=20.0))


class TestEvolveJoint:
    def test_two_blocks_pure_h(self):
        params = ProtocolParams(n=2, alpha=0.0, beta=0.0, delta=1.5)
        spec = GridSpec.for_protocol(params, dx=0.05)
        wf, prob = evolve_joint(params, spec)
        assert prob == pytest.approx(1.0, abs=1e-12)
        mean, _ = moments(wf)
        assert mean == pytest.approx(2.0, abs=1e-10)

    def test_symmetric_weights_zero_mean(self):
        params = ProtocolParams(n=7, alpha=math.pi / 4, beta=math.pi / 4, delta=5.84)
        spec = GridSpec.for_protocol(params, dx=0.05)
        wf, _ = evolve_joint(params, spec)
        mean, _ = moments(wf)
        assert abs(mean) < 1e-9

    def test_equivalence_with_sequential_random(self):
        # The protocol's central equivalence: one qubit recycled n times is
        # the same pointer evolution as n qubits coupled at once.
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 20:
            a, b = rng.uniform(0, 2 * math.pi, size=2)
            n = int(rng.integers(1, 6))
            delta = float(rng.uniform(0.5, 4.0))
            params = ProtocolParams(n=n, alpha=float(a), beta=float(b), delta=delta)
            try:
                if conditional_moments(params).probability <= 1e-9:
                    continue
            except Exception:
                continue
            checked += 1
            spec = GridSpec.for_protocol(params, dx=0.05)
            seq, p_seq = evolve_sequential(params, spec)
            joint, p_joint = evolve_joint(params, spec)
            l2 = math.sqrt(
                float(np.sum(np.abs(seq.amplitudes - joint.amplitudes) ** 2)) * spec.dx
            )
            assert l2 < 1e-9
            assert abs(p_seq - p_joint) < 1e-12

    @pytest.mark.parametrize("label", ["a", "b", "c", "d"])
    def test_equivalence_on_presets(self, label):
        params = PRESETS[label]
        spec = GridSpec.for_protocol(params, dx=0.02)
        seq, p_seq = evolve_sequential(params, spec)
        joint, p_joint = evolve_joint(params, spec)
        l2 = math.sqrt(
            float(np.sum(np.abs(seq.amplitudes - joint.amplitudes) ** 2)) * spec.dx
        )
        assert l2 < 1e-9
        assert abs(p_seq - p_joint) < 1e-12

    def test_memory_guard(self):
        params = ProtocolParams(n=40, alpha=0.3, beta=0.5, delta=1.0)
        spec = GridSpec.for_protocol(params, dx=0.05)
        with pytest.raises(MemoryGuardError):
            evolve_joint(params, spec)

    def test_memory_guard_in_bytes(self):
        # n = 13 at dx = 0.001 would be 8192 x 119441 entries, 14.6 GiB, and is
        # refused before allocating; the n = 7 oracle grid (~245 MB) fits.
        fits = ProtocolParams(n=7, alpha=0.62, beta=2.53, delta=5.84)
        _check_joint_budget(fits, GridSpec.for_protocol(fits, dx=0.001))
        too_big = ProtocolParams(n=13, alpha=0.62, beta=2.53, delta=5.84)
        with pytest.raises(MemoryGuardError):
            _check_joint_budget(too_big, GridSpec.for_protocol(too_big, dx=0.001))


class TestMomentsAndCdf:
    def test_moments_of_plain_gaussian(self):
        spec = GridSpec(dx=0.05, half_span=30.0)
        wf = init_gaussian(spec, width=3.0, center=2.0)
        mean, std = moments(wf)
        assert mean == pytest.approx(2.0, abs=1e-6)
        assert std == pytest.approx(3.0, abs=1e-6)

    def test_symmetric_superposition_zero_mean(self):
        spec = GridSpec(dx=0.05, half_span=20.0)
        wf = init_gaussian(spec, width=1.0, center=0.0)
        sym = GridWavefunction(
            spec, shift(wf, 1.0).amplitudes + shift(wf, -1.0).amplitudes
        ).normalized()
        mean, _ = moments(sym)
        assert abs(mean) < 1e-12

    def test_cdf_endpoints_and_monotonicity(self):
        params = PRESETS["a"]
        spec = GridSpec.for_protocol(params, dx=0.02)
        wf, _ = evolve_sequential(params, spec)
        c = cdf(wf)
        assert abs(c[-1] - 1.0) < 1e-10
        assert np.all(np.diff(c) >= 0)

    def test_cdf_symmetric_half_at_zero(self):
        spec = GridSpec(dx=0.05, half_span=20.0)
        wf = init_gaussian(spec, width=2.0, center=0.0)
        c = cdf(wf)
        center = spec.half_nodes
        assert c[center] == pytest.approx(0.5, abs=1e-9)


class TestDensityDump:
    def test_two_column_format(self):
        spec = GridSpec(dx=0.5, half_span=10.0)
        wf = init_gaussian(spec, width=1.0)
        buf = io.StringIO()
        write_density(wf, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# x density"
        assert len(lines) == 1 + spec.node_count
        x, dens = np.loadtxt(io.StringIO("\n".join(lines[1:]))).T
        assert np.array_equal(x, spec.positions())
        assert math.fsum(dens) * spec.dx == pytest.approx(1.0, abs=1e-12)


class TestConvergenceStudy:
    def test_errors_stay_below_tolerance_while_refining(self):
        # Exact node shifts leave no interpolation error, so the moment
        # errors sit at the truncation floor at every resolution; each must
        # already beat the 1e-6 tolerance, and refining must not grow them.
        params = PRESETS["c"]
        m = conditional_moments(params)
        wv, std = m.mean, m.std
        errors = []
        for dx in (0.1, 0.05, 0.025):
            spec = GridSpec.for_protocol(params, dx=dx)
            wf, _ = evolve_sequential(params, spec)
            mean_g, std_g = moments(wf)
            errors.append(max(abs(mean_g - wv), abs(std_g - std)))
        assert all(err < 1e-6 for err in errors)
        assert errors[-1] <= errors[0] * 1.5 + 1e-12
