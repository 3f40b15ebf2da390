"""Shared-object rewriting (paper Section 5.1): positive offsets only,
loader-mode emission, unchanged behaviour."""

from repro.core.pipeline import RewriteContext, RewriteOptions
from repro.core.strategy import PatchRequest
from repro.core.trampoline import Empty
from repro.elf.reader import ElfFile
from repro.frontend.lineardisasm import disassemble_text
from repro.frontend.matchers import match_jumps
from repro.synth.generator import SynthesisParams, synthesize
from repro.vm.machine import run_elf


def shared_workload():
    # Shared objects are ET_DYN position-independent code (same codegen
    # as PIE); the *rewriter* treats them differently.
    return synthesize(SynthesisParams(
        n_jump_sites=30, n_write_sites=20, seed=700, pie=True, loop_iters=2))


class TestSharedObjectMode:
    def test_trampolines_positive_only(self):
        binary = shared_workload()
        elf = ElfFile(binary.data)
        instructions = disassemble_text(elf)
        sites = [i for i in instructions if match_jumps(i)]
        ctx = RewriteContext(elf, RewriteOptions(mode="loader", shared=True),
                             instructions=instructions)
        result = ctx.rewrite(
            [PatchRequest(insn=i, instrumentation=Empty()) for i in sites])
        assert result.trampolines
        assert all(t.vaddr >= 0 for t in result.trampolines)

    def test_pie_executable_may_go_negative(self):
        binary = shared_workload()
        elf = ElfFile(binary.data)
        instructions = disassemble_text(elf)
        sites = [i for i in instructions if match_jumps(i)]
        ctx = RewriteContext(elf, RewriteOptions(mode="loader", shared=False),
                             instructions=instructions)
        ctx.rewrite([PatchRequest(insn=i, instrumentation=Empty())
                     for i in sites])
        assert ctx.space.lo_bound < 0  # the paper's doubled window

    def test_shared_mode_behaviour_unchanged(self):
        binary = shared_workload()
        orig = run_elf(binary.data)
        elf = ElfFile(binary.data)
        instructions = disassemble_text(elf)
        sites = [i for i in instructions if match_jumps(i)]
        ctx = RewriteContext(elf, RewriteOptions(mode="loader", shared=True),
                             instructions=instructions)
        result = ctx.rewrite(
            [PatchRequest(insn=i, instrumentation=Empty()) for i in sites])
        assert run_elf(result.data).observable == orig.observable

    def test_shared_coverage_not_worse_than_nonpie(self):
        """Positive-only geometry: baseline comparable to non-PIE, and
        the tactic ladder still reaches ~100%."""
        binary = shared_workload()
        elf = ElfFile(binary.data)
        instructions = disassemble_text(elf)
        sites = [i for i in instructions if match_jumps(i)]
        ctx = RewriteContext(elf, RewriteOptions(mode="loader", shared=True),
                             instructions=instructions)
        result = ctx.rewrite(
            [PatchRequest(insn=i, instrumentation=Empty()) for i in sites])
        assert result.stats.success_pct >= 95.0
