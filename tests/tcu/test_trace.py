"""Tests for execution tracing and the scheduling properties it proves."""

import numpy as np
import pytest

from repro.core.config import OptimizationConfig
from repro.core.engine2d import LoRAStencil2D
from repro.stencil.kernels import get_kernel
from repro.tcu import Device, trace
from repro.tcu.counters import EventCounters
from repro.tcu.layouts import FragmentKind


@pytest.fixture
def traced_device():
    device = Device()
    recorder = trace.install(device.counters)
    yield device, recorder
    trace.uninstall(device.counters)


def _one_tile_sweep(device, config=None):
    w = get_kernel("Box-2D49P").weights
    eng = LoRAStencil2D(w.as_matrix(), config=config)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(14, 14))  # exactly one 8x8 tile
    eng.apply_simulated(x, device=device)


class TestRecorder:
    def test_disabled_by_default(self):
        device = Device()
        _one_tile_sweep(device)
        # no recorder installed: nothing crashes, nothing recorded
        assert id(device.counters) not in trace._RECORDERS

    def test_counts_match_counters(self, traced_device):
        device, recorder = traced_device
        _one_tile_sweep(device)
        assert recorder.count("mma") == device.counters.mma_ops == 36
        assert recorder.count("load_matrix") == 8
        assert recorder.count("bvs_split") == 6  # 3 terms x 2 window blocks

    def test_render(self, traced_device):
        device, recorder = traced_device
        _one_tile_sweep(device)
        text = recorder.render(limit=5)
        assert "load_matrix" in text or "smem_store" in text
        assert "more" in text

    def test_first_last_index(self, traced_device):
        device, recorder = traced_device
        _one_tile_sweep(device)
        assert recorder.first_index("mma") < recorder.last_index("mma")
        with pytest.raises(ValueError):
            recorder.first_index("naive_split")

    def test_uninstall_stops_recording(self):
        counters = EventCounters()
        recorder = trace.install(counters)
        trace.maybe_trace(counters, "mma")
        trace.uninstall(counters)
        trace.maybe_trace(counters, "mma")
        assert recorder.count("mma") == 1


class TestRingBuffer:
    def test_unbounded_by_default(self):
        recorder = trace.TraceRecorder()
        for i in range(100):
            recorder.record("op", str(i))
        assert len(recorder) == recorder.total == 100
        assert recorder.dropped == 0

    def test_ring_keeps_most_recent(self):
        recorder = trace.TraceRecorder(max_events=3)
        for i in range(10):
            recorder.record("op", str(i))
        assert recorder.total == 10
        assert len(recorder) == 3
        assert recorder.dropped == 7
        assert [e.detail for e in recorder.events] == ["7", "8", "9"]

    def test_indices_stay_global(self):
        """The first retained event of a saturated ring keeps its global
        position, not a rebased 0."""
        recorder = trace.TraceRecorder(max_events=2)
        for _ in range(5):
            recorder.record("mma")
        assert [e.index for e in recorder.events] == [3, 4]
        assert recorder.first_index("mma") == 3
        assert recorder.last_index("mma") == 4

    def test_render_reports_dropped(self):
        recorder = trace.TraceRecorder(max_events=2)
        for _ in range(5):
            recorder.record("mma")
        text = recorder.render()
        assert "3 earlier events dropped" in text

    def test_max_events_validated(self):
        with pytest.raises(ValueError):
            trace.TraceRecorder(max_events=0)

    def test_install_with_max_events(self):
        counters = EventCounters()
        recorder = trace.install(counters, max_events=4)
        try:
            for _ in range(10):
                trace.maybe_trace(counters, "mma")
        finally:
            trace.uninstall(counters)
        assert recorder.total == 10
        assert recorder.count("mma") == 4  # retained only
        assert recorder.dropped == 6

    def test_bounded_sweep_keeps_the_tail(self):
        """A real sweep through a small ring retains the final warp ops
        (the CUDA-core apex) and counts everything it shed."""
        device = Device()
        recorder = trace.install(device.counters, max_events=8)
        try:
            _one_tile_sweep(device)
        finally:
            trace.uninstall(device.counters)
        assert recorder.dropped == recorder.total - 8
        assert recorder.total > 8
        assert recorder.ops()[-1] == "cuda_axpy"


class TestEventDetail:
    """Detail strings name what an op touched, formatted only on record."""

    def test_load_matrix_details_name_kind_and_origin(self, traced_device):
        device, recorder = traced_device
        _one_tile_sweep(device)
        loads = [e.detail for e in recorder.events if e.op == "load_matrix"]
        assert loads == [
            "B@(0,0)", "B@(0,8)", "B@(4,0)", "B@(4,8)",
            "B@(8,0)", "B@(8,8)", "B@(12,0)", "B@(12,8)",
        ]
        stores = [e.detail for e in recorder.events if e.op == "smem_store"]
        assert stores == ["(14, 14)"]

    def test_direct_fragment_load_detail(self, traced_device):
        device, recorder = traced_device
        smem = device.shared((16, 16))
        device.warp().load_matrix_sync(FragmentKind.A, smem, 0, 0)
        device.warp().load_matrix_sync(FragmentKind.B, smem, 4, 8)
        assert [e.detail for e in recorder.events] == ["A@(0,0)", "B@(4,8)"]

    def test_unrecorded_detail_is_never_formatted(self):
        class Unformattable:
            def __format__(self, spec):
                raise AssertionError("detail formatted with no recorder")

        trace.maybe_trace(EventCounters(), "load_matrix", "{}", Unformattable())


class TestSchedulingProperties:
    """Ordering facts of the paper's pipeline (Fig. 3), proven on trace."""

    def test_block_store_precedes_everything(self, traced_device):
        device, recorder = traced_device
        _one_tile_sweep(device)
        assert recorder.first_index("smem_store") < recorder.first_index(
            "load_matrix"
        )

    def test_inputs_loaded_before_any_mma(self, traced_device):
        """Fragment reuse requires all window loads to happen up front."""
        device, recorder = traced_device
        _one_tile_sweep(device)
        assert recorder.last_index("load_matrix") < recorder.first_index("mma")

    def test_bvs_sits_between_the_two_gathers(self, traced_device):
        """Each BVS split comes after Step-1 MMAs and before Step-2's."""
        device, recorder = traced_device
        _one_tile_sweep(device)
        assert recorder.first_index("mma") < recorder.first_index("bvs_split")
        assert recorder.first_index("bvs_split") < recorder.last_index("mma")

    def test_scalar_apex_is_last_compute(self, traced_device):
        device, recorder = traced_device
        _one_tile_sweep(device)
        assert recorder.first_index("cuda_axpy") > recorder.last_index("mma")

    def test_no_bvs_config_traces_naive_splits(self, traced_device):
        device, recorder = traced_device
        _one_tile_sweep(device, config=OptimizationConfig(use_bvs=False))
        assert recorder.count("naive_split") == 6
        assert recorder.count("bvs_split") == 0

    def test_convstencil_trace_shows_no_reuse(self, traced_device):
        """ConvStencil's trace: loads and MMAs strictly interleave (one
        fresh view load per MMA — the dimension residue as a schedule)."""
        import numpy as np

        from repro.baselines.convstencil import ConvStencil2D

        device, recorder = traced_device
        eng = ConvStencil2D(get_kernel("Box-2D49P").weights.as_matrix())
        eng.apply_simulated(np.zeros((14, 14)), device=device)
        assert recorder.count("load_view") == recorder.count("mma") == 26
        ops = [op for op in recorder.ops() if op in ("load_view", "mma")]
        assert ops == ["load_view", "mma"] * 26
