#!/usr/bin/env python3
"""Quickstart: instrument every jump in a binary with a counter.

Builds a small self-contained executable, rewrites it so every direct
jmp/jcc bumps a counter through a trampoline (with zero control-flow
knowledge), and runs original + patched side by side in the bundled VM.

Run:  python3 examples/quickstart.py
"""

from repro.core.pipeline import RewriteContext
from repro.core.strategy import PatchRequest
from repro.core.trampoline import Counter
from repro.elf import constants as elfc
from repro.elf.builder import TinyProgram
from repro.elf.reader import ElfFile
from repro.frontend.lineardisasm import disassemble_text
from repro.frontend.matchers import match_jumps
from repro.vm.machine import Machine, run_elf


def build_demo_program() -> bytes:
    """A loop that prints ten lines, with a conditional branch per
    iteration."""
    prog = TinyProgram()
    msg = prog.add_data("msg", b"tick\n")
    a = prog.text
    a.mov_imm32(1, 10)  # rcx = 10
    a.label("loop")
    a.push(1)
    a.mov_imm32(7, 1)  # rdi = stdout
    a.mov_imm64(6, msg)  # rsi = message
    a.mov_imm32(2, 5)  # rdx = length
    a.mov_imm32(0, elfc.SYS_WRITE)
    a.syscall()
    a.pop(1)
    a.sub_imm(1, 1)
    a.cmp_imm(1, 0)
    a.jcc(0x5, "loop")  # jne loop   <- this is a patch site
    a.mov_imm32(7, 0)
    a.mov_imm32(0, elfc.SYS_EXIT)
    a.syscall()
    return prog.build()


def main() -> None:
    image = build_demo_program()
    original = run_elf(image)
    print(f"original: exit={original.exit_code}, "
          f"{original.instructions} instructions, "
          f"output={original.stdout.count(b'tick')}x tick")

    # 1. Frontend: linear disassembly + the A1 (jumps) matcher.
    elf = ElfFile(image)
    instructions = disassemble_text(elf)
    sites = [i for i in instructions if match_jumps(i)]
    print(f"\npatch sites ({len(sites)}):")
    for insn in sites:
        print(f"  {insn}")

    # 2. Rewrite: counter instrumentation at every site.
    ctx = RewriteContext(elf, instructions=instructions)
    counter_vaddr = ctx.add_runtime_data(4096)
    result = ctx.rewrite(
        [PatchRequest(insn=i, instrumentation=Counter(counter_vaddr))
         for i in sites]
    )
    print(f"\nrewrite: {result.stats}")
    print(f"output size: {result.input_size} -> {result.output_size} bytes "
          f"({result.size_pct:.1f}%)")

    # 3. Run the patched binary and read the counter out of VM memory.
    machine = Machine(result.data)
    patched = machine.run()
    assert patched.observable == original.observable, "behaviour changed!"
    count = machine.mem.read_u64(counter_vaddr)
    print(f"\npatched : exit={patched.exit_code}, "
          f"{patched.instructions} instructions "
          f"(+{patched.instructions - original.instructions} for trampolines)")
    print(f"counter : the loop branch executed {count} times")


if __name__ == "__main__":
    main()
