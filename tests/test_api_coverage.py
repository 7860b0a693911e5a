"""Coverage for public-API corners not exercised elsewhere."""

import numpy as np
import pytest

from repro.core.autotune import DEFAULT_TRAITS, autotune_2d
from repro.core.driver import SimulationDriver
from repro.core.engine2d import LoRAStencil2D
from repro.core.lowrank import svd_decompose
from repro.parallel import ClusterRuntime, distribute
from repro.stencil.kernels import get_kernel
from repro.stencil.reference import reference_apply


class TestCustomDecomposition:
    def test_engine_accepts_forced_svd(self, rng):
        """Callers can bypass PMA (the ablation hook)."""
        w = get_kernel("Box-2D49P").weights
        forced = svd_decompose(w.as_matrix())
        eng = LoRAStencil2D(w.as_matrix(), decomposition=forced)
        assert eng.decomposition.method == "svd"
        x = rng.normal(size=(20, 20))
        out, _ = eng.apply_simulated(x)
        assert np.allclose(out, reference_apply(x, w), atol=1e-11)

    def test_mismatched_decomposition_rejected(self, rng):
        w9 = get_kernel("Box-2D9P").weights
        w49 = get_kernel("Box-2D49P").weights
        wrong = svd_decompose(w9.as_matrix())
        with pytest.raises(ValueError):
            LoRAStencil2D(w49.as_matrix(), decomposition=wrong)


class TestDriverCustomEngine:
    def test_driver_with_tuned_engine(self, rng):
        """The autotuner's engine plugs straight into the driver."""
        k = get_kernel("Box-2D49P")
        tuned = autotune_2d(
            k.weights,
            fusion_options=(1,),
            tile_options=((8, 8), (16, 16)),
            measure_grid=(24, 24),
        )
        engine = tuned.build_engine(k.weights)
        driver = SimulationDriver(k.weights, engine=engine)
        x0 = rng.normal(size=(16, 16))
        report = driver.run(x0, 2)
        from repro.stencil.reference import reference_iterate

        assert np.allclose(
            report.final, reference_iterate(x0, k.weights, 2), atol=1e-10
        )

    def test_default_traits_sane(self):
        assert 0 < DEFAULT_TRAITS.tcu_efficiency <= 1


class TestClusterTimingsFields:
    def test_comm_fraction_zero_single_device(self):
        w = get_kernel("Box-2D9P").weights
        t = ClusterRuntime(distribute(w, (256, 256), (1, 1))).timings()
        assert t.comm_s == 0.0
        assert t.comm_fraction == 0.0
        assert t.num_devices == 1

    def test_step_decomposition(self):
        w = get_kernel("Box-2D9P").weights
        t = ClusterRuntime(distribute(w, (256, 256), (2, 2))).timings(steps=3)
        assert t.step_s == pytest.approx(t.compute_s + t.comm_s)
        assert t.total_s == pytest.approx(3 * t.step_s)


class TestFig8ResultHelpers:
    @pytest.fixture(scope="class")
    def res(self):
        from repro.experiments import run_fig8

        return run_fig8(kernels=["Heat-2D"], methods=["cuDNN", "LoRAStencil"])

    def test_by_kernel(self, res):
        rows = res.by_kernel("Heat-2D")
        assert {r.method for r in rows} == {"cuDNN", "LoRAStencil"}

    def test_speedup_floor_is_one(self, res):
        assert min(r.speedup for r in res.rows) == pytest.approx(1.0)

    def test_table_rows_header(self, res):
        header = res.table_rows()[0]
        assert header[0] == "Kernel"
        assert "LoRAStencil" in header


class TestCountersDerived:
    def test_shared_total_includes_conflict_free(self):
        from repro.tcu.counters import EventCounters

        c = EventCounters(
            shared_load_requests=5,
            shared_store_requests=2,
            shared_bank_conflicts=3,
        )
        # conflicts are replays, not extra requests
        assert c.shared_total_requests == 7

    def test_scaled_preserves_new_field(self):
        from repro.tcu.counters import EventCounters

        c = EventCounters(shared_bank_conflicts=10).scaled(2.5)
        assert c.shared_bank_conflicts == 25
