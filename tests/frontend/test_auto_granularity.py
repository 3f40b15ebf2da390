"""Auto-tuned page-grouping granularity (Section 4's mapping-limit
trade-off)."""

from repro.core.pipeline import RewriteOptions
from repro.frontend.tool import instrument_elf, instrument_elf_auto
from repro.synth.generator import SynthesisParams, synthesize
from repro.vm.machine import run_elf


def workload():
    return synthesize(SynthesisParams(
        n_jump_sites=120, n_write_sites=40, seed=555, loop_iters=1))


class TestAutoGranularity:
    def test_respects_mapping_limit(self):
        binary = workload()
        baseline = instrument_elf(binary.data, "jumps",
                                  options=RewriteOptions(mode="loader"))
        base_mappings = baseline.result.grouping.mapping_count
        assert base_mappings > 10  # otherwise the test is vacuous

        # Pick a limit that coarsening can actually reach (pun scatter
        # puts a floor on the number of distinct blocks).
        coarse = instrument_elf(binary.data, "jumps",
                                options=RewriteOptions(mode="loader",
                                                       granularity=16))
        limit = coarse.result.grouping.mapping_count
        assert limit < base_mappings
        report = instrument_elf_auto(binary.data, "jumps",
                                     max_mappings=limit)
        assert report.result.grouping.mapping_count <= limit
        assert report.result.grouping.block_pages <= 16

    def test_behaviour_preserved_at_coarse_granularity(self):
        binary = workload()
        orig = run_elf(binary.data)
        report = instrument_elf_auto(binary.data, "jumps", max_mappings=8)
        assert run_elf(report.result.data).observable == orig.observable

    def test_no_tuning_needed_returns_first_run(self):
        binary = workload()
        report = instrument_elf_auto(binary.data, "jumps",
                                     max_mappings=10**9)
        assert report.result.grouping.block_pages == 1

    def test_coarser_blocks_cost_physical_memory(self):
        binary = workload()
        fine = instrument_elf(binary.data, "jumps",
                              options=RewriteOptions(mode="loader",
                                                     granularity=1))
        coarse = instrument_elf(binary.data, "jumps",
                                options=RewriteOptions(mode="loader",
                                                       granularity=16))
        assert (coarse.result.grouping.mapping_count
                <= fine.result.grouping.mapping_count)
        assert (coarse.result.grouping.grouped_physical_bytes
                >= fine.result.grouping.grouped_physical_bytes)
