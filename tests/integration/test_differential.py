"""The central correctness property of the whole system:

    for any workload, matcher, tactic mix, emission mode, and grouping
    granularity, the rewritten binary's observable behaviour (exit code +
    output) equals the original's.

These are the tests that catch pun-math, eviction, relocation, lock,
grouping, and loader bugs — each failure is a semantic corruption the
rewriter introduced.
"""

import pytest

from repro.core.pipeline import RewriteOptions
from repro.core.strategy import TacticToggles
from repro.frontend.tool import instrument_elf
from repro.synth.generator import SynthesisParams, synthesize
from repro.vm.machine import Machine, run_elf


def check(params: SynthesisParams, matcher: str, options: RewriteOptions):
    binary = synthesize(params)
    orig = run_elf(binary.data)
    assert orig.exit_code == 0
    report = instrument_elf(binary.data, matcher, options=options)
    patched = run_elf(report.result.data)
    assert patched.observable == orig.observable, (
        f"behaviour diverged (tactics: {report.stats})"
    )
    return report, orig, patched


class TestAcrossSeeds:
    @pytest.mark.parametrize("seed", range(1, 13))
    def test_jumps_loader_mode(self, seed):
        params = SynthesisParams(n_jump_sites=30, n_write_sites=20,
                                 seed=seed, loop_iters=2)
        check(params, "jumps", RewriteOptions(mode="loader"))

    @pytest.mark.parametrize("seed", range(20, 28))
    def test_heap_writes(self, seed):
        params = SynthesisParams(n_jump_sites=15, n_write_sites=40,
                                 seed=seed, loop_iters=2)
        check(params, "heap-writes", RewriteOptions(mode="loader"))

    @pytest.mark.parametrize("seed", range(40, 44))
    def test_patch_everything(self, seed):
        """Limitation L3 stress: instrument every instruction; whatever
        was successfully patched must preserve behaviour."""
        params = SynthesisParams(n_jump_sites=10, n_write_sites=10,
                                 seed=seed, loop_iters=1)
        check(params, "all", RewriteOptions(mode="loader"))


class TestAcrossModes:
    PARAMS = SynthesisParams(n_jump_sites=25, n_write_sites=25, seed=99,
                             loop_iters=2)

    @pytest.mark.parametrize("mode,grouping,granularity", [
        ("phdr", False, 1),
        ("loader", False, 1),
        ("loader", True, 1),
        ("loader", True, 2),
        ("loader", True, 16),
        ("loader", True, 64),
    ])
    def test_emission_matrix(self, mode, grouping, granularity):
        check(self.PARAMS, "jumps",
              RewriteOptions(mode=mode, grouping=grouping,
                             granularity=granularity))

    def test_pie(self):
        params = SynthesisParams(n_jump_sites=25, n_write_sites=25,
                                 seed=100, pie=True, loop_iters=2)
        check(params, "jumps", RewriteOptions(mode="loader"))


class TestAcrossTactics:
    PARAMS = SynthesisParams(n_jump_sites=35, n_write_sites=20, seed=200,
                             loop_iters=2, short_jump_frac=0.8)

    @pytest.mark.parametrize("toggles", [
        TacticToggles(t1=False, t2=False, t3=False),
        TacticToggles(t1=True, t2=False, t3=False),
        TacticToggles(t1=True, t2=True, t3=False),
        TacticToggles(t1=True, t2=True, t3=True),
        TacticToggles(t1=False, t2=False, t3=True),
    ])
    def test_tactic_subsets_preserve_behaviour(self, toggles):
        check(self.PARAMS, "jumps",
              RewriteOptions(mode="loader", toggles=toggles))

    def test_more_tactics_more_coverage(self):
        binary = synthesize(self.PARAMS)
        coverages = []
        for toggles in (TacticToggles(t1=False, t2=False, t3=False),
                        TacticToggles(t1=True, t2=False, t3=False),
                        TacticToggles(t1=True, t2=True, t3=False),
                        TacticToggles(t1=True, t2=True, t3=True)):
            report = instrument_elf(
                binary.data, "jumps",
                options=RewriteOptions(mode="loader", toggles=toggles))
            coverages.append(report.stats.success_pct)
        assert coverages == sorted(coverages)
        assert coverages[-1] > coverages[0]


class TestGroupingEquivalence:
    def test_grouped_and_naive_execute_identically(self):
        params = SynthesisParams(n_jump_sites=40, n_write_sites=30, seed=77,
                                 loop_iters=2)
        binary = synthesize(params)
        orig = run_elf(binary.data)
        runs = {}
        for grouping in (False, True):
            report = instrument_elf(
                binary.data, "jumps",
                options=RewriteOptions(mode="loader", grouping=grouping))
            result = run_elf(report.result.data)
            assert result.observable == orig.observable
            runs[grouping] = (report, result)
        # Same patching decisions, smaller file.
        assert (runs[True][0].stats.row() == runs[False][0].stats.row())
        assert len(runs[True][0].result.data) <= len(runs[False][0].result.data)

    def test_grouped_uses_fewer_physical_frames(self):
        params = SynthesisParams(n_jump_sites=60, n_write_sites=40, seed=78,
                                 loop_iters=1)
        binary = synthesize(params)
        frames = {}
        for grouping in (False, True):
            report = instrument_elf(
                binary.data, "jumps",
                options=RewriteOptions(mode="loader", grouping=grouping))
            machine = Machine(report.result.data)
            machine.run()
            frames[grouping] = machine.mem.physical_frames()
        assert frames[True] <= frames[False]


class TestB0Fallback:
    def test_b0_preserves_behaviour_in_vm(self):
        params = SynthesisParams(n_jump_sites=20, n_write_sites=10, seed=55,
                                 loop_iters=1)
        binary = synthesize(params)
        orig = run_elf(binary.data)
        report = instrument_elf(
            binary.data, "jumps",
            options=RewriteOptions(
                mode="loader",
                toggles=TacticToggles(t1=False, t2=False, t3=False,
                                      b0_fallback=True)))
        machine = Machine(report.result.data)
        # Register trap handlers for B0 sites.
        from repro.vm.machine import TrapHandler

        site_insns = {i.address: i for i in
                      __import__("repro.frontend.lineardisasm",
                                 fromlist=["disassemble_text"]).disassemble_text(
                          __import__("repro.elf.reader",
                                     fromlist=["ElfFile"]).ElfFile(binary.data))}
        for site in report.result.b0_sites:
            machine.register_trap(site, TrapHandler(insn_bytes=site_insns[site].raw))
        patched = machine.run()
        assert patched.observable == orig.observable
        if report.result.b0_sites:
            assert patched.traps > 0
            assert patched.cost > patched.instructions
