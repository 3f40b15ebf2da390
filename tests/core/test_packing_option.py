"""The pack_allocations ablation knob."""

from repro.core.pipeline import RewriteOptions
from repro.frontend.tool import instrument_elf
from repro.synth.generator import SynthesisParams, synthesize
from repro.vm.machine import run_elf


class TestPackingOption:
    def test_default_is_fragment_then_group(self):
        assert RewriteOptions().pack_allocations is False

    def test_packing_still_correct(self):
        """Packing changes placement, never semantics."""
        binary = synthesize(SynthesisParams(
            n_jump_sites=30, n_write_sites=15, seed=31415, loop_iters=2))
        orig = run_elf(binary.data)
        report = instrument_elf(
            binary.data, "jumps",
            options=RewriteOptions(mode="loader", pack_allocations=True))
        assert report.stats.success_pct == 100.0
        assert run_elf(report.result.data).observable == orig.observable

    def test_packing_usually_loses_to_grouping(self):
        binary = synthesize(SynthesisParams(
            n_jump_sites=120, n_write_sites=40, seed=31416))
        phys = {}
        for pack in (False, True):
            report = instrument_elf(
                binary.data, "jumps",
                options=RewriteOptions(mode="loader", pack_allocations=pack))
            phys[pack] = report.result.grouping.grouped_physical_bytes
        assert phys[False] <= phys[True]
