"""Hypothesis-driven whole-pipeline properties.

Random workloads, random instrumentation mixes — the rewritten binary
must stay behaviourally identical, its patched stream must decode to
jumps reaching the right trampolines, and punned bytes must keep their
original values.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.pipeline import PlanPass, RewriteContext, RewriteOptions
from repro.core.strategy import PatchRequest
from repro.core.tactics import Tactic
from repro.core.trampoline import Counter, Empty
from repro.elf.reader import ElfFile
from repro.frontend.lineardisasm import disassemble_text
from repro.frontend.matchers import match_heap_writes, match_jumps
from repro.synth.generator import SynthesisParams, synthesize
from repro.vm.machine import run_elf
from repro.x86.decoder import decode

fast = settings(max_examples=12, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def workload_params(draw):
    return SynthesisParams(
        n_jump_sites=draw(st.integers(5, 40)),
        n_write_sites=draw(st.integers(5, 40)),
        seed=draw(st.integers(0, 10**6)),
        pie=draw(st.booleans()),
        short_jump_frac=draw(st.floats(0.0, 1.0)),
        short_store_frac=draw(st.floats(0.0, 1.0)),
        loop_iters=1,
    )


class TestBehaviourPreservation:
    @fast
    @given(workload_params(), st.sampled_from(["jumps", "heap-writes"]))
    def test_random_workloads_unchanged(self, params, matcher_name):
        binary = synthesize(params)
        orig = run_elf(binary.data)
        assert orig.exit_code == 0

        elf = ElfFile(binary.data)
        instructions = disassemble_text(elf)
        matcher = match_jumps if matcher_name == "jumps" else match_heap_writes
        sites = [i for i in instructions if matcher(i)]
        ctx = RewriteContext(elf, RewriteOptions(mode="loader"),
                             instructions=instructions)
        result = ctx.rewrite(
            [PatchRequest(insn=i, instrumentation=Empty()) for i in sites])
        patched = run_elf(result.data)
        assert patched.observable == orig.observable


class TestStructuralInvariants:
    @fast
    @given(workload_params())
    def test_patched_sites_decode_to_jumps(self, params):
        """Every successfully patched site must now decode (in the current
        image) to a jmp; following at most one short hop lands on a jump
        whose target is one of the site's trampolines."""
        binary = synthesize(params)
        elf = ElfFile(binary.data)
        instructions = disassemble_text(elf)
        sites = [i for i in instructions if match_jumps(i)]
        ctx = RewriteContext(elf, RewriteOptions(mode="loader"),
                             instructions=instructions)
        PlanPass([PatchRequest(insn=i, instrumentation=Empty())
                  for i in sites]).run(ctx)
        plan = ctx.plan

        for patch in plan.patches:
            if patch.tactic == Tactic.B0:
                continue
            raw = ctx.image.read(patch.site, 15)
            insn = decode(raw, 0, address=patch.site)
            assert insn.mnemonic == "jmp", patch.tactic
            target = insn.target
            tramp_addrs = {t.vaddr for t in patch.trampolines}
            if target not in tramp_addrs:
                # T3 short hop: one more jump through J_patch.
                assert patch.tactic == Tactic.T3
                hop = decode(ctx.image.read(target, 15), 0, address=target)
                assert hop.mnemonic == "jmp"
                assert hop.target in tramp_addrs

    @fast
    @given(workload_params())
    def test_punned_bytes_keep_values(self, params):
        """PUNNED bytes must be byte-identical to the original image."""
        binary = synthesize(params)
        elf = ElfFile(binary.data)
        instructions = disassemble_text(elf)
        sites = [i for i in instructions if match_jumps(i)]
        ctx = RewriteContext(elf, RewriteOptions(mode="loader"),
                             instructions=instructions)
        ctx.prepare_workspace()
        original = {r.base: bytes(r.data) for r in ctx.image.ranges}
        PlanPass([PatchRequest(insn=i, instrumentation=Empty())
                  for i in sites]).run(ctx)
        for r in ctx.image.ranges:
            orig = original[r.base]
            for i in range(len(r.data)):
                if r.locks.state(r.base + i) == 2:  # PUNNED
                    assert r.data[i] == orig[i]

    @fast
    @given(workload_params())
    def test_trampolines_disjoint_and_outside_image(self, params):
        binary = synthesize(params)
        elf = ElfFile(binary.data)
        instructions = disassemble_text(elf)
        sites = [i for i in instructions if match_jumps(i)]
        ctx = RewriteContext(elf, RewriteOptions(mode="loader"),
                             instructions=instructions)
        PlanPass([PatchRequest(insn=i, instrumentation=Empty())
                  for i in sites]).run(ctx)
        plan = ctx.plan
        extents = sorted(
            (t.vaddr, t.end) for p in plan.patches for t in p.trampolines)
        for (a_lo, a_hi), (b_lo, b_hi) in zip(extents, extents[1:]):
            assert a_hi <= b_lo  # disjoint
        image_lo, image_hi = elf.image_base, elf.image_end
        for lo, hi in extents:
            assert hi <= image_lo or lo >= image_hi  # never inside the image


class TestInstrumentationTransparency:
    def test_flags_survive_counter_instrumentation(self):
        """A patched jcc must still see the flags set before it; the
        Counter body saves/restores rflags around its inc."""
        from repro.elf import constants as elfc
        from repro.elf.builder import TinyProgram

        prog = TinyProgram()
        a = prog.text
        a.mov_imm32(1, 3)  # rcx = 3
        a.cmp_imm(1, 3)  # sets ZF
        a.jcc(0x4, "good")  # je good   <- patch site
        a.mov_imm32(7, 1)
        a.mov_imm32(0, elfc.SYS_EXIT)
        a.syscall()
        a.label("good")
        a.mov_imm32(7, 0)
        a.mov_imm32(0, elfc.SYS_EXIT)
        a.syscall()
        image = prog.build()

        elf = ElfFile(image)
        instructions = disassemble_text(elf)
        sites = [i for i in instructions if match_jumps(i)]
        assert len(sites) == 1
        ctx = RewriteContext(elf, RewriteOptions(mode="loader"),
                             instructions=instructions)
        counter = ctx.add_runtime_data(4096)
        result = ctx.rewrite(
            [PatchRequest(insn=sites[0], instrumentation=Counter(counter))])
        assert run_elf(result.data).exit_code == 0

    def test_registers_survive_call_instrumentation(self):
        """CallFunction saves all caller-saved registers around the call."""
        from repro.core.trampoline import CallFunction
        from repro.elf import constants as elfc
        from repro.elf.builder import TinyProgram
        from repro.x86 import encoder as enc

        # Injected no-op function that clobbers rax/rdi/rsi before ret.
        prog = TinyProgram()
        a = prog.text
        a.mov_imm32(enc.RDI, 13)
        a.mov_imm32(enc.RSI, 14)
        site_off = len(a.buf)
        a.raw(b"\x48\x89\xf0")  # mov rax, rsi  <- patch site
        # exit(rdi + rax) == 13 + 14 iff both survived
        a.raw(b"\x48\x01\xc7")  # add rdi, rax
        a.mov_imm32(enc.RAX, elfc.SYS_EXIT)
        a.syscall()
        image = prog.build()
        site_vaddr = prog.text_vaddr + site_off

        elf = ElfFile(image)
        instructions = disassemble_text(elf)
        site = next(i for i in instructions if i.address == site_vaddr)
        ctx = RewriteContext(elf, RewriteOptions(mode="loader"),
                             instructions=instructions)

        def clobberer(vaddr: int) -> bytes:
            f = enc.Assembler(base=vaddr)
            f.mov_imm64(enc.RAX, 0xDEAD)
            f.mov_imm64(enc.RDI, 0xDEAD)
            f.mov_imm64(enc.RSI, 0xDEAD)
            f.ret()
            return f.bytes()

        func = ctx.add_runtime_code(clobberer, len(clobberer(0)))
        result = ctx.rewrite(
            [PatchRequest(insn=site, instrumentation=CallFunction(func))])
        assert run_elf(result.data).exit_code == 27
