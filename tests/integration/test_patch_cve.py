"""Binary patching in the Figure 2 / CVE-2019-18408 shape.

The paper fixes a use-after-free by inserting ``rar->start_new_table=1``
*at the binary level* right after the call to ``free``.  We reproduce
the experiment's shape: a buggy program forgets to set a flag after
releasing a resource; the binary patch injects the missing store at the
instruction following the call — with no control-flow knowledge, via a
trampoline — and the program's observable bug disappears.
"""

from repro.core.pipeline import RewriteContext, RewriteOptions
from repro.core.strategy import PatchRequest
from repro.core.trampoline import Instrumentation
from repro.elf import constants as elfc
from repro.elf.builder import TinyProgram
from repro.elf.reader import ElfFile
from repro.frontend.lineardisasm import disassemble_text
from repro.vm.machine import run_elf
from repro.x86 import encoder as enc
from tests.conftest import requires_native


class SetFlag(Instrumentation):
    """The developer patch, as a trampoline body: ``*flag = 1``."""

    name = "set-flag"

    def __init__(self, flag_vaddr: int) -> None:
        self.flag_vaddr = flag_vaddr

    def emit(self, asm: enc.Assembler, insn) -> None:
        asm.raw(b"\x48\x8d\x64\x24\x80")  # lea -0x80(%rsp), %rsp
        asm.pushfq()
        asm.push(enc.RAX)
        asm.mov_imm64(enc.RAX, self.flag_vaddr)
        asm.raw(b"\xc6\x00\x01")  # mov byte [rax], 1
        asm.pop(enc.RAX)
        asm.popfq()
        asm.raw(b"\x48\x8d\xa4\x24\x80\x00\x00\x00")  # lea 0x80(%rsp), %rsp


def buggy_program() -> tuple[bytes, int]:
    """Build the "vulnerable" binary; returns (image, patch_site_vaddr).

    Shape mirrors the CVE: ``call release`` followed by a short mov; the
    missing behaviour is setting a flag right after that call.  Exit code
    1 = bug manifested, 0 = healthy.
    """
    prog = TinyProgram()
    prog.add_data("flag", b"\x00" * 8)
    a = prog.text
    a.jmp("main")
    a.label("release")  # stand-in for ppmd7.free
    a.mov_imm32(enc.RDX, 0)
    a.ret()
    a.label("main")
    a.call("release")
    patch_marker = len(a.buf)
    a.raw(b"\x89\xdd")  # mov %ebx,%ebp -- the 2-byte CVE patch site
    # ... later: the program only works if the flag was set.
    a.mov_label64(enc.RSI, "flag")
    a.raw(b"\x48\x0f\xb6\x3e")  # movzx rdi, byte [rsi]
    a.raw(b"\x48\x83\xf7\x01")  # xor rdi, 1  -> exit 0 iff flag==1
    a.mov_imm32(enc.RAX, elfc.SYS_EXIT)
    a.syscall()
    a.labels["flag"] = prog.data_vaddr("flag") - a.base
    image = prog.build()
    return image, prog.text_vaddr + patch_marker


class TestCvePatch:
    def test_bug_manifests_unpatched(self):
        image, _ = buggy_program()
        assert run_elf(image).exit_code == 1

    def test_binary_patch_fixes_bug_in_vm(self):
        image, site_vaddr = buggy_program()
        elf = ElfFile(image)
        insns = disassemble_text(elf)
        site = next(i for i in insns if i.address == site_vaddr)
        assert site.raw == b"\x89\xdd"  # the CVE's exact instruction
        flag_vaddr = elf.section(".data").vaddr
        ctx = RewriteContext(elf, RewriteOptions(mode="loader"),
                             instructions=insns)
        result = ctx.rewrite(
            [PatchRequest(insn=site, instrumentation=SetFlag(flag_vaddr))]
        )
        assert result.stats.success_pct == 100.0
        assert run_elf(result.data).exit_code == 0

    @requires_native
    def test_binary_patch_fixes_bug_natively(self, run_native):
        image, site_vaddr = buggy_program()
        assert run_native(image)[0] == 1
        elf = ElfFile(image)
        insns = disassemble_text(elf)
        site = next(i for i in insns if i.address == site_vaddr)
        flag_vaddr = elf.section(".data").vaddr
        ctx = RewriteContext(elf, RewriteOptions(mode="loader"),
                             instructions=insns)
        result = ctx.rewrite(
            [PatchRequest(insn=site, instrumentation=SetFlag(flag_vaddr))]
        )
        assert run_native(result.data)[0] == 0

    def test_locality_only_patch_region_modified(self):
        """Figure 2's point: only the patch site (and possibly a nearby
        victim) change; every other original byte is untouched."""
        image, site_vaddr = buggy_program()
        elf = ElfFile(image)
        insns = disassemble_text(elf)
        site = next(i for i in insns if i.address == site_vaddr)
        flag_vaddr = elf.section(".data").vaddr
        ctx = RewriteContext(elf, RewriteOptions(mode="loader"),
                             instructions=insns)
        ctx.rewrite([PatchRequest(insn=site, instrumentation=SetFlag(flag_vaddr))])
        dirty = ctx.image.dirty_patches()
        text = elf.section(".text")
        total_changed = sum(len(d) for _, d in dirty)
        assert total_changed <= 16  # a couple of jumps at most
        for vaddr, data in dirty:
            assert text.vaddr <= vaddr < text.vaddr + text.size
