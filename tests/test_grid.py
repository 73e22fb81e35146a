import io
import math
import tracemalloc

import numpy as np
import pytest

from wvsim import (
    GridSpec,
    InvalidParameterError,
    MemoryGuardError,
    PostselectionError,
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
from wvsim import grid
from wvsim.grid import (
    BLOCK_NODES,
    MAX_GRID_NODES,
    SUPPORT_SIGMAS,
    GridWavefunction,
    _block_into,
    _exact_sum,
    _require_domain,
    _translation,
    init_gaussian,
    initial_state,
)
from wvsim.montecarlo import _conditional_sampler

from conftest import translated


def small_spec(width=1.0, dx=0.05, margin=2.0):
    return GridSpec(dx=dx, half_span=margin + 8.0 * width)


def block(spec, delta, alpha, beta):
    """One block of the angles (alpha, beta) on the width-delta Gaussian,
    through evolve_sequential at n = 1: the normalized output and the
    block's pass weight."""
    return evolve_sequential(ProtocolParams(n=1, alpha=alpha, beta=beta, delta=delta), spec)


def translated_wf(wf, units):
    """`wf` moved `units` pointer units, through `translated`."""
    return GridWavefunction(wf.spec, translated(wf.amplitudes, wf.spec, units))


def complex_sequential(params, spec):
    """evolve_sequential as it ran on complex128 amplitudes: both block
    shifts as zeroed copies, mu * plus + nu * minus in complex arithmetic,
    and normalization by dividing by the norm."""
    def normalized(amps):
        squared = _exact_sum(amps.real ** 2 + amps.imag ** 2) * spec.dx
        return amps / math.sqrt(squared), squared

    x = spec.positions()
    inside = np.abs(x) <= SUPPORT_SIGMAS * params.delta
    amps = np.zeros(spec.node_count, dtype=complex)
    amps[inside] = np.exp(-(x[inside] ** 2) / (4.0 * params.delta * params.delta))
    amps, _ = normalized(amps)
    w = coupling_weights(params)
    k = spec.nodes_per_unit
    for _ in range(params.n):
        plus = np.zeros_like(amps)
        plus[k:] = amps[:-k]
        minus = np.zeros_like(amps)
        minus[:-k] = amps[k:]
        amps = w.mu * plus + w.nu * minus
    return normalized(amps)


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


class TestGridWavefunction:
    def test_amplitudes_are_real(self):
        spec = small_spec()
        assert init_gaussian(spec, width=1.0).amplitudes.dtype == np.float64
        wf = GridWavefunction(spec, np.ones(spec.node_count, dtype=np.float32))
        assert wf.amplitudes.dtype == np.float64

    def test_complex_input_is_refused(self):
        # Even with a zero imaginary part: the state is real throughout.
        spec = small_spec()
        for imag in (0.0, 1e-300):
            amps = init_gaussian(spec, width=1.0).amplitudes.astype(complex)
            amps[spec.half_nodes] += imag * 1j
            with pytest.raises(InvalidParameterError, match="real"):
                GridWavefunction(spec, amps)


class TestInitGaussian:
    def test_moments_and_norm(self):
        spec = GridSpec(dx=0.05, half_span=60.0)
        wf = init_gaussian(spec, width=5.84)
        mean, std = moments(wf)
        assert abs(mean) < 1e-10
        assert std == pytest.approx(5.84, abs=1e-6)
        assert wf.squared_norm() == pytest.approx(1.0, abs=1e-12)

    def test_domain_too_small(self):
        spec = GridSpec(dx=0.05, half_span=5.0)
        with pytest.raises(TruncationError):
            init_gaussian(spec, width=1.0)  # needs 8 sigma = 8


class TestShift:
    # Every whole-unit move goes through _translation.
    def test_mean_moves_by_displacement(self):
        spec = GridSpec(dx=0.05, half_span=60.0)
        wf = init_gaussian(spec, width=5.84)
        mean, _ = moments(translated_wf(wf, 1))
        assert mean == pytest.approx(1.0, abs=1e-10)

    def test_zero_shift_is_identity(self):
        spec = small_spec()
        amps = init_gaussian(spec, width=1.0).amplitudes
        assert _translation(amps, spec, 0) == (slice(None), slice(None))
        assert np.array_equal(translated(amps, spec, 0), amps)

    def test_round_trip_is_exact(self):
        spec = small_spec()
        wf = init_gaussian(spec, width=1.0)
        back = translated_wf(translated_wf(wf, 1), -1)
        assert np.array_equal(back.amplitudes, wf.amplitudes)

    def test_norm_preserved_bit_exactly(self):
        spec = small_spec()
        wf = init_gaussian(spec, width=1.0)
        assert translated_wf(wf, 1).squared_norm() == wf.squared_norm()
        assert translated_wf(wf, -1).squared_norm() == wf.squared_norm()

    def test_support_leaving_domain(self):
        spec = small_spec(width=1.0, margin=0.5)
        wf = init_gaussian(spec, width=1.0)
        with pytest.raises(TruncationError, match="past \\+half_span"):
            _translation(wf.amplitudes, spec, 1)
        out, scratch = np.empty(spec.node_count), np.empty(BLOCK_NODES)
        with pytest.raises(TruncationError, match="past \\+half_span"):
            _block_into(out, wf.amplitudes, spec, 1.0, 0.0, scratch)


class TestApplyBlock:
    def test_pure_h_passes_whole(self):
        spec = small_spec(width=1.0, margin=3.0)
        out, weight = block(spec, 1.0, 0.0, 0.0)
        assert weight == pytest.approx(1.0, abs=1e-12)
        mean, _ = moments(out)
        assert mean == pytest.approx(1.0, abs=1e-10)

    def test_antisymmetric_superposition_loses_weight(self):
        # alpha = pi/4, beta = 3 pi/4 gives mu = -nu: destructive overlap.
        delta = 1.5
        spec = small_spec(width=delta, margin=3.0)
        _, weight = block(spec, delta, math.pi / 4, 3 * math.pi / 4)
        expected = 0.5 - 0.5 * math.exp(-0.5 / (delta * delta))
        assert weight < 1.0
        assert weight == pytest.approx(expected, abs=1e-9)

    def test_block_weight_matches_single_denominator(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = rng.uniform(0, 2 * math.pi, size=2)
            delta = float(rng.uniform(0.5, 3.0))
            spec = small_spec(width=delta, margin=3.0)
            _, weight = block(spec, delta, float(a), float(b))
            mu = math.cos(a) * math.cos(b)
            nu = math.sin(a) * math.sin(b)
            expected = mu * mu + nu * nu + 2 * mu * nu * math.exp(-0.5 / (delta * delta))
            assert weight == pytest.approx(expected, abs=1e-9)

    def test_repeated_blocks_match_final_amplitudes(self):
        # n grid blocks vs the closed-form superposition recombined on the grid.
        params = ProtocolParams(n=4, alpha=0.7, beta=1.1, delta=2.0)
        spec = GridSpec.for_protocol(params, dx=0.05)
        chi = init_gaussian(spec, width=params.delta).amplitudes
        wf, prob = evolve_sequential(params, spec)
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
        unnormalized = wf.amplitudes * math.sqrt(prob)
        l2 = math.sqrt(float(np.sum(np.abs(unnormalized - recombined) ** 2)) * spec.dx)
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

    @pytest.mark.parametrize("label, dx", [
        ("a", 0.01), ("b", 0.01), ("c", 0.01), ("d", 0.01), ("a", 0.001),
    ])
    def test_equals_complex_evolution(self, label, dx):
        # The real state is the former complex state's real part, bit for bit.
        params = PRESETS[label]
        spec = GridSpec.for_protocol(params, dx=dx)
        wf, prob = evolve_sequential(params, spec)
        ref, ref_prob = complex_sequential(params, spec)
        assert wf.amplitudes.dtype == np.float64
        assert not np.any(ref.imag)
        assert np.array_equal(wf.amplitudes, ref.real)
        assert prob == ref_prob

    def test_node_budget(self):
        # Refused from the node count alone, before any node array exists.
        params = PRESETS["a"]
        fits = GridSpec(dx=1.0, half_span=(MAX_GRID_NODES - 1) // 2)
        assert fits.node_count in (MAX_GRID_NODES - 1, MAX_GRID_NODES)
        _require_domain(params, fits)
        too_big = GridSpec(dx=1.0, half_span=fits.half_span + 1)
        assert too_big.node_count == fits.node_count + 2
        with pytest.raises(MemoryGuardError, match=f"over the {MAX_GRID_NODES}-node budget"):
            _require_domain(params, too_big)
        huge = GridSpec.for_protocol(params, dx=1e-9)
        for evolve in (evolve_sequential, evolve_joint):
            with pytest.raises(MemoryGuardError, match="node budget"):
                evolve(params, huge)

    def test_one_norm_per_evolution(self, monkeypatch):
        # The pass probability is the final state's squared norm, so the
        # number of compensated sums does not grow with the block count.
        calls = []
        real = GridWavefunction.squared_norm

        def counting(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(GridWavefunction, "squared_norm", counting)
        counts = []
        for n in (1, 7):
            params = ProtocolParams(n=n, alpha=0.62, beta=2.53, delta=2.0)
            calls.clear()
            evolve_sequential(params, GridSpec.for_protocol(params, dx=0.05))
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 3

    def test_probability_is_product_of_block_weights(self):
        # Reference: the product of the per-block pass weights
        # |_block_into(psi)|^2 / |psi|^2, which telescopes to the final norm.
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 20:
            a, b = rng.uniform(0, 2 * math.pi, size=2)
            n = int(rng.integers(1, 11))
            delta = float(rng.uniform(0.5, 4.0))
            params = ProtocolParams(n=n, alpha=float(a), beta=float(b), delta=delta)
            try:
                conditional_moments(params)
            except PostselectionError:
                continue
            checked += 1
            spec = GridSpec.for_protocol(params, dx=0.05)
            w = coupling_weights(params)
            wf = init_gaussian(spec, width=delta)
            scratch = np.empty(BLOCK_NODES)
            product = 1.0
            for _ in range(n):
                out = GridWavefunction(spec, np.empty(spec.node_count))
                _block_into(out.amplitudes, wf.amplitudes, spec, w.mu, w.nu, scratch)
                product *= out.squared_norm() / wf.squared_norm()
                wf = out
            _, prob = evolve_sequential(params, spec)
            assert prob == pytest.approx(product, rel=1e-12, abs=0)


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
        # A grid over the node budget is refused from its node count alone,
        # before any node array exists: n = 40 at dx = 1e-6 has 96 million.
        params = ProtocolParams(n=40, alpha=0.3, beta=0.5, delta=1.0)
        spec = GridSpec.for_protocol(params, dx=1e-6)
        assert spec.node_count > MAX_GRID_NODES
        tracemalloc.start()
        try:
            with pytest.raises(MemoryGuardError, match=f"over the {MAX_GRID_NODES}-node budget"):
                evolve_joint(params, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    def test_memory_guard_in_bytes(self):
        # The node budget is the joint route's only size guard: its memory
        # is O(nodes) whatever n is.  n = 13 at dx = 0.001 (8192 x 119441
        # bitstring entries, 15.7 GB as a materialized complex128 joint
        # state) holds the state, the initial Gaussian and n + 1 rows of
        # BLOCK_NODES, and every n up to 16 at dx 0.01 and 0.001 is admitted.
        params = ProtocolParams(n=13, alpha=0.62, beta=2.53, delta=5.84)
        spec = GridSpec.for_protocol(params, dx=0.001)
        tracemalloc.start()
        try:
            evolve_joint(params, spec, initial=initial_state(params, spec))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * spec.node_count + (params.n + 1) * 8 * BLOCK_NODES + 2 ** 20
        for dx in (0.01, 0.001):
            for n in range(1, 17):
                params = ProtocolParams(n=n, alpha=0.62, beta=2.53, delta=5.84)
                _require_domain(params, GridSpec.for_protocol(params, dx=dx))

    def test_matches_materialized_projection(self, monkeypatch):
        # Reference: fill the full 2^n x nodes coupled state first, each row
        # over the whole domain and projected, then sum the rows pairwise in
        # bitstring order (adjacent rows, then adjacent pairs, ...), the
        # order the joint route's tree levels reproduce.  The state is real,
        # so it is filled in float64.
        def materialized(params, spec):
            chi = init_gaussian(spec, params.delta).amplitudes
            n = params.n
            ca, sa = math.cos(params.alpha), math.sin(params.alpha)
            cb, sb = math.cos(params.beta), math.sin(params.beta)
            shifted = [translated(chi, spec, 2 * h - n) for h in range(n + 1)]
            state = np.empty((2 ** n, spec.node_count))
            for b in range(2 ** n):
                h = bin(b).count("1")
                state[b] = (cb ** h * sb ** (n - h)) * ((ca ** h * sa ** (n - h)) * shifted[h])
            for _ in range(n):
                state = state[0::2] + state[1::2]
            wf = GridWavefunction(spec, state[0])
            return wf, wf._normalize()

        def touched(params, spec):
            support = np.flatnonzero(init_gaussian(spec, params.delta).amplitudes)
            reach = params.n * spec.nodes_per_unit
            return slice(support[0] - reach, support[-1] + 1 + reach)

        def touched_nodes(params, spec):
            window = touched(params, spec)
            return window.stop - window.start

        def check(params, dx):
            spec = GridSpec.for_protocol(params, dx=dx)
            wf, prob = evolve_joint(params, spec)
            ref, ref_prob = materialized(params, spec)
            assert np.array_equal(wf.amplitudes, ref.amplitudes)
            # Off the touched window the route leaves +0.0, where the
            # reference's zero rows can sum to -0.0.
            window = touched(params, spec)
            assert np.array_equal(np.signbit(wf.amplitudes[window]),
                                  np.signbit(ref.amplitudes[window]))
            assert prob == ref_prob

        # The bench grid: its touched range spans several blocks, and its
        # unit shift of 1000 nodes is no divisor of the block size.
        bench = PRESETS["a"]
        bench_spec = GridSpec.for_protocol(bench, dx=0.001)
        assert touched_nodes(bench, bench_spec) > 3 * BLOCK_NODES
        assert BLOCK_NODES % bench_spec.nodes_per_unit != 0
        check(bench, 0.001)
        # A range shorter than one block; n = 1; n = 16 at dx 0.5, where
        # the Gaussian has a single nonzero node.
        settings = [(PRESETS[label], 0.05) for label in "abcd"]
        settings.append((ProtocolParams(n=1, alpha=0.62, beta=2.53, delta=1.3), 0.05))
        settings.append((ProtocolParams(n=16, alpha=0.62, beta=2.53, delta=0.05), 0.5))
        rng = np.random.default_rng(17)
        while len(settings) < 20:
            a, b = rng.uniform(0, 2 * math.pi, size=2)
            params = ProtocolParams(
                n=int(rng.integers(1, 9)), alpha=float(a), beta=float(b),
                delta=float(rng.uniform(0.5, 4.0)),
            )
            try:
                conditional_moments(params)
            except PostselectionError:
                continue
            settings.append((params, 0.05))
        # Every row negative (n odd, cos a cos b < 0 and sin a sin b < 0) and
        # a support narrower than the 2-unit row spacing: the gaps between
        # the rows inside the window sum to -0.0.
        settings.append((ProtocolParams(n=3, alpha=2.0, beta=-0.5, delta=0.1), 0.05))
        for params, dx in settings:
            assert touched_nodes(params, GridSpec.for_protocol(params, dx=dx)) < BLOCK_NODES
            check(params, dx)
        # Many short blocks of a prime 97 nodes, whose edges cut the rows
        # at offsets that no unit shift divides.
        monkeypatch.setattr(grid, "BLOCK_NODES", 97)
        for params, dx in settings:
            check(params, dx)

    @pytest.mark.parametrize("n, bound", [(7, 1e-13), (10, 2e-12), (12, 1e-11)])
    def test_rounding_against_exact_sum(self, n, bound):
        # The joint route against the correctly rounded (math.fsum) sum of
        # its 2^n row values per node, at preset a's angles and width on a
        # dx 0.5 grid.  max |joint - exact| / max |exact| measured 2.8e-14,
        # 6.1e-13 and 3.6e-12 at n = 7, 10 and 12 (a left-to-right sum:
        # 1.8e-14, 2.7e-13 and 1.7e-12); each bound is about three times
        # that.  The rows cancel (mu and nu have opposite signs, and
        # sum |row| / |sum| reaches 2e5 at n = 12), so the pairwise order is
        # not the more accurate one here; the textbook pairwise bound,
        # n u sum |row|, is 37-73 times looser than what is measured.
        preset = PRESETS["a"]
        params = ProtocolParams(n=n, alpha=preset.alpha, beta=preset.beta, delta=preset.delta)
        spec = GridSpec.for_protocol(params, dx=0.5)
        chi = init_gaussian(spec, params.delta).amplitudes
        ca, sa = math.cos(params.alpha), math.sin(params.alpha)
        cb, sb = math.cos(params.beta), math.sin(params.beta)
        rows = np.array([
            (cb ** h * sb ** (n - h)) * ((ca ** h * sa ** (n - h)) * translated(chi, spec, 2 * h - n))
            for h in range(n + 1)
        ])
        leaves = rows[[bin(b).count("1") for b in range(2 ** n)]]
        exact = GridWavefunction(spec, [math.fsum(node) for node in leaves.T])
        exact._normalize()
        wf, _ = evolve_joint(params, spec)
        error = np.max(np.abs(wf.amplitudes - exact.amplitudes))
        assert error / np.max(np.abs(exact.amplitudes)) < bound

    @pytest.mark.parametrize("support, side", [
        (slice(None), "-"), (slice(-1, None), "+"), (slice(0, 1), "-"),
    ])
    def test_support_near_an_edge_is_refused(self, support, side):
        # An initial state on the protocol's own grid whose support comes
        # within n units of an edge: some row would leave the grid, so both
        # routes refuse it.
        params = ProtocolParams(n=3, alpha=0.62, beta=2.53, delta=1.0)
        spec = GridSpec.for_protocol(params, dx=0.05)
        amps = np.zeros(spec.node_count)
        amps[support] = 1.0
        initial = GridWavefunction(spec, amps)
        with pytest.raises(TruncationError, match=f"past \\{side}half_span"):
            evolve_joint(params, spec, initial=initial)
        with pytest.raises(TruncationError, match="past"):
            evolve_sequential(params, spec, initial=initial)

    def test_no_memory_per_bitstring(self):
        # n = 16 has 65536 bitstrings but a 67-node grid: the route holds
        # O(nodes) memory plus the exact sum's fixed bins, nothing of length
        # 2^n (a list of 2^n references alone would take 8 * 2^n bytes).
        params = ProtocolParams(n=16, alpha=0.62, beta=2.53, delta=0.05)
        spec = GridSpec.for_protocol(params, dx=0.5)
        assert spec.node_count < 100
        tracemalloc.start()
        try:
            evolve_joint(params, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** params.n

    def test_memory_stays_linear_in_nodes(self):
        # 2^10 bitstring rows, but only a few node-sized arrays alive at once.
        params = ProtocolParams(n=10, alpha=0.62, beta=2.53, delta=1.0)
        spec = GridSpec.for_protocol(params, dx=0.01)
        tracemalloc.start()
        try:
            evolve_joint(params, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * spec.node_count * 16


class TestSharedInitialState:
    @pytest.mark.parametrize("label, dx", [("a", 0.01), ("d", 0.001)])
    def test_routes_never_write_the_initial_state(self, label, dx):
        # One Gaussian feeds both routes (the oracle's setup); each route
        # returns the same bits as when it builds its own.
        params = PRESETS[label]
        spec = GridSpec.for_protocol(params, dx=dx)
        initial = initial_state(params, spec)
        before = initial.amplitudes.copy()
        initial.amplitudes.flags.writeable = False
        for evolve in (evolve_joint, evolve_sequential):
            wf, prob = evolve(params, spec, initial=initial)
            ref, ref_prob = evolve(params, spec)
            assert np.array_equal(wf.amplitudes, ref.amplitudes)
            assert prob == ref_prob
        assert np.array_equal(initial.amplitudes, before)
        assert np.array_equal(initial.amplitudes, init_gaussian(spec, params.delta).amplitudes)

    def test_initial_state_on_another_grid_is_refused(self):
        params = PRESETS["a"]
        spec = GridSpec.for_protocol(params, dx=0.05)
        other = initial_state(params, GridSpec.for_protocol(params, dx=0.1))
        for evolve in (evolve_joint, evolve_sequential):
            with pytest.raises(InvalidParameterError, match="initial state"):
                evolve(params, spec, initial=other)

    def test_guards_run_before_the_gaussian_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(grid, "init_gaussian", lambda *a: built.append(a))
        params = ProtocolParams(n=13, alpha=0.62, beta=2.53, delta=5.84)
        with pytest.raises(MemoryGuardError, match=f"over the {MAX_GRID_NODES}-node budget"):
            initial_state(params, GridSpec.for_protocol(params, dx=1e-6))
        with pytest.raises(TruncationError, match="n \\+ 8 delta"):
            initial_state(params, GridSpec(dx=0.05, half_span=20.0))
        assert built == []


class TestMemoryBudget:
    def test_sampler_build_bytes_per_node(self):
        # MAX_GRID_NODES and README's bytes-per-node figure rest on this
        # peak: four node arrays at once in `cdf`, 32.0 bytes per node plus
        # a few kB of fixed objects, measured with tracemalloc.
        params = PRESETS["a"]
        spec = GridSpec.for_protocol(params, dx=0.0001)
        assert spec.node_count >= 10 ** 6
        tracemalloc.start()
        try:
            _conditional_sampler.__wrapped__(params, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * spec.node_count + 2 ** 16


class TestMomentsAndCdf:
    def test_moments_of_plain_gaussian(self):
        spec = GridSpec(dx=0.05, half_span=30.0)
        mean, std = moments(translated_wf(init_gaussian(spec, width=3.0), 2))
        assert mean == pytest.approx(2.0, abs=1e-6)
        assert std == pytest.approx(3.0, abs=1e-6)

    def test_symmetric_superposition_zero_mean(self):
        spec = GridSpec(dx=0.05, half_span=20.0)
        out, _ = block(spec, 1.0, math.pi / 4, math.pi / 4)
        assert abs(moments(out)[0]) < 1e-12

    def test_cdf_endpoints_and_monotonicity(self):
        params = PRESETS["a"]
        spec = GridSpec.for_protocol(params, dx=0.02)
        wf, _ = evolve_sequential(params, spec)
        c = cdf(wf)
        assert abs(c[-1] - 1.0) < 1e-10
        assert np.all(np.diff(c) >= 0)

    def test_cdf_symmetric_half_at_zero(self):
        spec = GridSpec(dx=0.05, half_span=20.0)
        wf = init_gaussian(spec, width=2.0)
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
