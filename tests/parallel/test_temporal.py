"""Tests for communication-avoiding temporal blocking."""

import numpy as np
import pytest

from repro.parallel import ClusterRuntime, distribute, temporal_halo_bytes
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_iterate


class TestExactness:
    @pytest.mark.parametrize("boundary", ["constant", "periodic"])
    @pytest.mark.parametrize("block_steps", [1, 2, 3])
    def test_matches_reference_trajectory(self, rng, boundary, block_steps):
        w = get_kernel("Box-2D9P").weights
        x = rng.normal(size=(24, 30))
        cluster = ClusterRuntime(
            distribute(w, x.shape, (2, 2), boundary=boundary)
        )
        out = cluster.run(x, 6, block_steps=block_steps).field
        ref = reference_iterate(x, w, 6, boundary=boundary)
        assert np.allclose(out, ref, atol=1e-9)

    def test_matches_per_step_exchange(self, rng):
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(20, 20))
        cluster = ClusterRuntime(distribute(w, x.shape, (2, 2)))
        blocked = cluster.run(x, 4, block_steps=2).field
        per_step = cluster.run(x, 4).field
        assert np.allclose(blocked, per_step, atol=1e-10)

    def test_radius3_kernel(self, rng):
        w = get_kernel("Box-2D49P").weights
        x = rng.normal(size=(32, 32))
        cluster = ClusterRuntime(distribute(w, x.shape, (2, 2)))
        out = cluster.run(x, 4, block_steps=2).field
        ref = reference_iterate(x, w, 4)
        assert np.allclose(out, ref, atol=1e-9)

    def test_single_device(self, rng):
        w = get_kernel("Box-2D9P").weights
        x = rng.normal(size=(16, 16))
        cluster = ClusterRuntime(distribute(w, x.shape, (1, 1)))
        result = cluster.run(x, 4, block_steps=4)
        assert np.allclose(result.field, reference_iterate(x, w, 4), atol=1e-10)
        assert result.exchanged_bytes == 0


class TestCommunication:
    def test_blocking_reduces_message_rounds(self, rng):
        w = get_kernel("Box-2D9P").weights
        cluster = ClusterRuntime(distribute(w, (64, 64), (2, 2)))
        per_step, blocked = temporal_halo_bytes(cluster, steps=8, block_steps=4)
        # deep halo is larger per exchange but there are 4x fewer rounds;
        # total bytes stay at least comparable and rounds drop 4x
        assert blocked < 2 * per_step
        result = cluster.run(np.zeros((64, 64)), 8, block_steps=4)
        assert result.exchanged_bytes == blocked
        assert result.rounds == 2

    def test_bytes_model_matches_measurement(self, rng):
        w = get_kernel("Heat-2D").weights
        x = rng.normal(size=(32, 32))
        cluster = ClusterRuntime(distribute(w, x.shape, (2, 2)))
        measured = cluster.run(x, 6, block_steps=3).exchanged_bytes
        _, modelled = temporal_halo_bytes(cluster, steps=6, block_steps=3)
        assert measured == modelled


class TestRaggedRounds:
    @pytest.mark.parametrize("boundary", ["constant", "periodic"])
    @pytest.mark.parametrize("steps,block_steps", [(5, 2), (7, 3), (1, 4)])
    def test_indivisible_steps_run_ragged_final_round(
        self, rng, boundary, steps, block_steps
    ):
        # regression: steps % block_steps != 0 used to raise ValueError;
        # it now ends with a ragged round advancing the remainder
        w = get_kernel("Box-2D9P").weights
        x = rng.normal(size=(24, 24))
        plan = distribute(w, x.shape, (2, 2), boundary=boundary)
        out = ClusterRuntime(plan).run(x, steps, block_steps=block_steps)
        ref = reference_iterate(x, w, steps, boundary=boundary)
        assert np.allclose(out.field, ref, atol=1e-9)
        # and bit-identical to the per-step exchange trajectory
        per_step = ClusterRuntime(plan).run(x, steps)
        assert np.array_equal(out.field, per_step.field)

    def test_ragged_round_count_and_bytes(self, rng):
        w = get_kernel("Heat-2D").weights
        cluster = ClusterRuntime(distribute(w, (24, 24), (2, 2)))
        schedule = cluster.plan.schedule
        # 7 steps at block_steps=3 -> rounds of 3, 3, 1
        from dataclasses import replace

        assert replace(schedule, block_steps=3).phases(7) == (3, 3, 1)
        measured = cluster.run(
            rng.normal(size=(24, 24)), 7, block_steps=3
        ).exchanged_bytes
        _, modelled = temporal_halo_bytes(cluster, steps=7, block_steps=3)
        assert measured == modelled


class TestValidation:

    def test_bad_block_steps_rejected(self):
        w = get_kernel("Box-2D9P").weights
        cluster = ClusterRuntime(distribute(w, (16, 16), (1, 1)))
        with pytest.raises(ValueError):
            cluster.run(np.zeros((16, 16)), 4, block_steps=0)
