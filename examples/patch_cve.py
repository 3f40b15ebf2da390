#!/usr/bin/env python3
"""Binary patching walkthrough in the shape of the paper's Figure 2
(CVE-2019-18408).

A "vulnerable" program frees a resource but forgets to set
``start_new_table = 1`` afterwards, so a later consistency check fails
(exit code 1).  Without source code — and without recovering any control
flow — we patch the first instruction after the call (the paper patches
``mov %ebx,%ebp`` at 422a61) to divert through a trampoline that applies
the developer's fix, then falls back into the original stream.

Run:  python3 examples/patch_cve.py
"""

from repro.core.pipeline import RewriteContext
from repro.core.strategy import PatchRequest
from repro.core.trampoline import Instrumentation
from repro.elf import constants as elfc
from repro.elf.builder import TinyProgram
from repro.elf.reader import ElfFile
from repro.frontend.lineardisasm import disassemble_text
from repro.vm.machine import run_elf
from repro.x86 import encoder as enc
from repro.x86.decoder import decode_buffer


class DeveloperFix(Instrumentation):
    """The source-level patch, compiled into a trampoline body:
    ``rar->start_new_table = 1``."""

    name = "cve-fix"

    def __init__(self, flag_vaddr: int) -> None:
        self.flag_vaddr = flag_vaddr

    def emit(self, asm: enc.Assembler, insn) -> None:
        asm.raw(b"\x48\x8d\x64\x24\x80")  # lea -0x80(%rsp), %rsp (red zone)
        asm.pushfq()
        asm.push(enc.RAX)
        asm.mov_imm64(enc.RAX, self.flag_vaddr)
        asm.raw(b"\xc6\x00\x01")  # mov byte [rax], 1
        asm.pop(enc.RAX)
        asm.popfq()
        asm.raw(b"\x48\x8d\xa4\x24\x80\x00\x00\x00")  # restore %rsp


def build_vulnerable_program() -> tuple[bytes, int]:
    prog = TinyProgram()
    prog.add_data("start_new_table", b"\x00" * 8)
    a = prog.text
    a.jmp("main")

    a.label("ppmd7_free")  # stand-in for the archive library's free
    a.mov_imm32(enc.RDX, 0)
    a.ret()

    a.label("main")
    a.call("ppmd7_free")
    patch_off = len(a.buf)
    a.raw(b"\x89\xdd")  # mov %ebx,%ebp — the CVE's patch site, verbatim
    # The missing fix: start_new_table should have been set to 1 here.
    a.mov_label64(enc.RSI, "start_new_table")
    a.raw(b"\x48\x0f\xb6\x3e")  # movzx rdi, byte [rsi]
    a.raw(b"\x48\x83\xf7\x01")  # xor rdi, 1  (exit 0 iff flag was set)
    a.mov_imm32(enc.RAX, elfc.SYS_EXIT)
    a.syscall()

    a.labels["start_new_table"] = prog.data_vaddr("start_new_table") - a.base
    return prog.build(), prog.text_vaddr + patch_off


def main() -> None:
    image, site_vaddr = build_vulnerable_program()
    buggy = run_elf(image)
    print(f"unpatched binary: exit code {buggy.exit_code} "
          f"(1 = use-after-free bug manifests)\n")

    elf = ElfFile(image)
    instructions = disassemble_text(elf)
    site = next(i for i in instructions if i.address == site_vaddr)
    print(f"patch site (first instruction after the call to free):")
    print(f"  {site}\n")

    flag_vaddr = elf.section(".data").vaddr
    ctx = RewriteContext(elf, instructions=instructions)
    result = ctx.rewrite(
        [PatchRequest(insn=site, instrumentation=DeveloperFix(flag_vaddr))]
    )
    patch = result.plan.patches[0]
    print(f"tactic used: {patch.tactic.value}")

    print("\nrewritten bytes around the patch site:")
    raw = ctx.image.read(site_vaddr - 7, 16)
    for insn in decode_buffer(raw, address=site_vaddr - 7):
        marker = "  <- was 'mov %ebx,%ebp'" if insn.address == site_vaddr else ""
        print(f"  {insn}{marker}")

    print("\ntrampolines:")
    for tramp in patch.trampolines:
        print(f"  [{tramp.tag}] @ {tramp.vaddr:#x} ({tramp.size} bytes)")
        for insn in decode_buffer(tramp.code, address=tramp.vaddr)[:8]:
            print(f"    {insn}")

    fixed = run_elf(result.data)
    print(f"\npatched binary: exit code {fixed.exit_code} (0 = bug fixed)")
    assert fixed.exit_code == 0


if __name__ == "__main__":
    main()
