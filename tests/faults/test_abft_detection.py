"""The chaos matrix: fault kinds × kernels × dimensionality.

The guarantee under ``verify="abft"`` is absolute, not statistical:

* the recovered output is **bit-identical** to the fault-free sweep;
* every *effective* fault (one that, without verification, corrupts
  the output — established per-spec by the negative control) is
  detected and recovered;
* nothing is ever left unrecovered without a typed
  :class:`~repro.errors.FaultError`.

Faults landing in architecturally dead register slots (halo rows or
cropped columns of intermediate accumulators) are *benign*: they sit
outside the ABFT protected domain — exactly as on real hardware — and
the same negative control proves they are also harmless.
"""

import numpy as np
import pytest

import repro
from repro.core.config import OptimizationConfig
from repro.faults import MMA_KINDS, FaultInjector, FaultPlan, FaultSpec
from tests.faults.conftest import padded_grid

pytestmark = [
    # corrupted operands legitimately overflow / produce NaN mid-chain
    pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning"),
    pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"),
]

#: one kernel per dimensionality, plus a high-radius 2D kernel
KERNELS = ["1D5P", "Box-2D9P", "Star-2D13P", "Heat-3D"]
SIZES = {"1D5P": 32, "Box-2D9P": 32, "Star-2D13P": 32, "Heat-3D": 24}

#: the seeded fault matrix: every mechanism, early deterministic sites
SPECS = [
    FaultSpec(kind="flip_a", site=0, lane=5),
    FaultSpec(kind="flip_a", site=7, lane=13),
    FaultSpec(kind="flip_b", site=3, lane=21),
    FaultSpec(kind="flip_acc", site=1, lane=9, reg=1),
    FaultSpec(kind="flip_acc", site=11, lane=2),
    FaultSpec(kind="nan_acc", site=2, lane=17),
    FaultSpec(kind="flip_smem", site=0, lane=40),
    FaultSpec(kind="flip_smem", site=1, lane=3),
    FaultSpec(kind="drop_commit", site=0),
    FaultSpec(kind="nan_smem", site=1, lane=12),
]


#: the MMA-fault rows again under the naive accumulator split, whose
#: shuffled halves carry a poisoned or flipped accumulator to the guard
NAIVE_SPECS = [spec for spec in SPECS if spec.kind in MMA_KINDS]


def _clean(kernel_name, config=None):
    k, x = padded_grid(kernel_name, size=SIZES[kernel_name])
    compiled = repro.compile(k.weights, config=config)
    out, _ = compiled.apply_simulated(x)
    return compiled, x, out


@pytest.mark.parametrize("kernel_name", KERNELS)
class TestChaosMatrix:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
    def test_injected_fault_never_corrupts_verified_output(
        self, kernel_name, spec
    ):
        self._check(kernel_name, spec)

    @pytest.mark.parametrize("spec", NAIVE_SPECS, ids=lambda s: s.describe())
    def test_naive_split_fault_never_corrupts_verified_output(
        self, kernel_name, spec
    ):
        self._check(kernel_name, spec, OptimizationConfig(use_bvs=False))

    def _check(self, kernel_name, spec, config=None):
        compiled, x, clean = _clean(kernel_name, config)
        plan = FaultPlan(specs=(spec,))

        # negative control: does this fault, unverified, reach the output?
        control = FaultInjector(plan)
        corrupted, _ = compiled.apply_simulated(x, faults=control)
        fired = control.report.total_injected > 0
        effective = fired and not np.array_equal(corrupted, clean)

        # guarded run: recovery must restore bit-exactness
        guarded = FaultInjector(plan)
        out, _ = compiled.apply_simulated(x, verify="abft", faults=guarded)
        report = guarded.report.as_dict()

        assert np.array_equal(out, clean), (
            f"{spec.describe()} on {kernel_name}: recovered output is not "
            "bit-identical to the fault-free sweep"
        )
        assert report["unrecovered"] == 0
        if effective:
            assert guarded.report.total_detected >= 1, (
                f"{spec.describe()} on {kernel_name} corrupts the "
                "unverified output but ABFT did not detect it"
            )
            assert guarded.report.total_recovered >= 1

    def test_campaign_all_mechanisms_at_once(self, kernel_name):
        compiled, x, clean = _clean(kernel_name)
        plan = FaultPlan(specs=tuple(SPECS), seed=123)
        inj = FaultInjector(plan)
        out, _ = compiled.apply_simulated(x, verify="abft", faults=inj)
        assert np.array_equal(out, clean)
        assert inj.report.total_injected >= 3
        assert inj.report.as_dict()["unrecovered"] == 0

    def test_negative_control_campaign_reaches_output(self, kernel_name):
        # without verification the same campaign corrupts the result
        compiled, x, clean = _clean(kernel_name)
        inj = FaultInjector(FaultPlan(specs=tuple(SPECS), seed=123))
        corrupted, _ = compiled.apply_simulated(x, faults=inj)
        assert inj.report.total_injected >= 3
        assert not np.array_equal(corrupted, clean)
        assert inj.report.total_detected == 0  # nobody was looking


class TestVerifiedCleanSweep:
    """Tolerance 0 means zero false positives on fault-free runs."""

    @pytest.mark.parametrize("kernel_name", KERNELS)
    def test_no_false_positives(self, kernel_name):
        compiled, x, clean = _clean(kernel_name)
        out, _ = compiled.apply_simulated(x, verify="abft")
        report = compiled.last_fault_report
        assert np.array_equal(out, clean)
        assert report.total_detected == 0
        assert report.total_recovered == 0

    def test_verify_true_means_abft(self):
        compiled, x, clean = _clean("Box-2D9P")
        out, _ = compiled.apply_simulated(x, verify=True)
        assert np.array_equal(out, clean)

    def test_unknown_verify_mode_rejected(self):
        from repro.errors import InputValidationError

        compiled, x, _ = _clean("Box-2D9P")
        with pytest.raises(InputValidationError, match="verify mode"):
            compiled.apply_simulated(x, verify="triple-modular")


class TestStickyExhaustion:
    """Sticky faults corrupt every recovery attempt → typed FaultError."""

    def test_sticky_stage_fault_exhausts_restages(self):
        from repro.errors import FaultError

        compiled, x, _ = _clean("Box-2D9P")
        spec = FaultSpec(kind="nan_smem", site=0, sticky=True)
        with pytest.raises(FaultError, match="re-stage"):
            compiled.apply_simulated(
                x, verify="abft", faults=FaultPlan(specs=(spec,))
            )
        assert compiled.last_fault_report.as_dict()["unrecovered"] == 1

    def test_sticky_mma_fault_exhausts_tile_ladder(self):
        from repro.errors import FaultError
        from repro.faults import RecoveryPolicy

        compiled, x, clean = _clean("Box-2D9P")
        # an effective site/lane (verified by the matrix above)
        spec = FaultSpec(kind="nan_acc", site=2, lane=17, sticky=True)
        once = FaultSpec(kind="nan_acc", site=2, lane=17)
        control = FaultInjector(FaultPlan(specs=(once,)))
        corrupted, _ = compiled.apply_simulated(x, faults=control)
        assert not np.array_equal(corrupted, clean), "site must be effective"
        with pytest.raises(FaultError, match="ABFT verification"):
            compiled.apply_simulated(
                x,
                verify="abft",
                faults=FaultPlan(specs=(spec,)),
                policy=RecoveryPolicy(max_tile_retries=1),
            )
        report = compiled.last_fault_report.as_dict()
        assert report["unrecovered"] == 1
        assert report["retries"]["tile"] >= 1


class TestRecoveryLedger:
    def test_counts_are_coherent(self):
        compiled, x, clean = _clean("Box-2D9P")
        plan = FaultPlan(specs=tuple(SPECS))
        inj = FaultInjector(plan)
        out, _ = compiled.apply_simulated(x, verify="abft", faults=inj)
        assert np.array_equal(out, clean)
        rep = inj.report.as_dict()
        assert rep["injected_total"] == sum(rep["injected"].values())
        # every detection resolved through one of the recovery mechanisms
        assert (
            rep["recovered"]["tile_retry"]
            + rep["recovered"]["oracle_fallback"]
            == rep["detected"]["tile"]
        )
        assert rep["recovered"]["restage"] == rep["detected"]["stage"]
        assert rep["unrecovered"] == 0
        assert compiled.last_fault_report is inj.report
