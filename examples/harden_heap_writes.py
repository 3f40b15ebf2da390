#!/usr/bin/env python3
"""Binary heap-write hardening with low-fat pointers (paper Section 6.3).

Instruments every heap-write instruction of a workload binary with a
redzone check: the trampoline recomputes the store's effective address
(``lea``), passes it to an injected machine-code checker, and the
checker aborts with exit code 42 if the pointer lands inside an object's
redzone.  We demonstrate both a benign run (unchanged behaviour, higher
instruction count) and an overflowing run (caught).

Run:  python3 examples/harden_heap_writes.py
"""

from repro.core.pipeline import RewriteContext
from repro.core.strategy import PatchRequest
from repro.elf.reader import ElfFile
from repro.frontend.lineardisasm import disassemble_text
from repro.frontend.matchers import match_heap_writes
from repro.lowfat import (
    LowFatAllocator,
    LowFatLayout,
    install_lowfat_heap,
    lowfat_instrumentation,
)
from repro.synth.generator import BUFFER_SIZE, SynthesisParams, synthesize
from repro.vm.machine import run_elf


def harden(image: bytes, layout: LowFatLayout):
    elf = ElfFile(image)
    instructions = disassemble_text(elf)
    sites = [i for i in instructions if match_heap_writes(i)]
    ctx = RewriteContext(elf, instructions=instructions)
    checker = install_lowfat_heap(ctx, layout)
    result = ctx.rewrite(
        [PatchRequest(insn=i, instrumentation=lowfat_instrumentation(checker))
         for i in sites]
    )
    return result, len(sites)


def main() -> None:
    layout = LowFatLayout()
    allocator = LowFatAllocator(layout)

    # --- benign workload -------------------------------------------------
    buf = allocator.malloc(BUFFER_SIZE)  # low-fat payload pointer
    print(f"allocated buffer: payload {buf:#x}, "
          f"object base {layout.base(buf):#x}, "
          f"size class {layout.size(buf)}")
    workload = synthesize(SynthesisParams(
        n_jump_sites=20, n_write_sites=40, seed=2024, loop_iters=3,
        buffer_addr=buf))
    original = run_elf(workload.data)
    print(f"original run  : exit={original.exit_code}, "
          f"{original.instructions} instructions")

    result, n_sites = harden(workload.data, layout)
    print(f"hardened      : {n_sites} heap-write sites, {result.stats}")
    hardened = run_elf(result.data)
    assert hardened.observable == original.observable
    print(f"hardened run  : exit={hardened.exit_code}, "
          f"{hardened.instructions} instructions "
          f"({100 * hardened.instructions / original.instructions:.0f}% of "
          "original — the cost of checking every store)")

    # --- overflowing workload ---------------------------------------------
    # Point the workload at a pointer inside an object's redzone: every
    # store now violates the redzone property p - base(p) >= 16.
    evil_ptr = layout.base(buf) + 4  # inside the redzone
    attack = synthesize(SynthesisParams(
        n_jump_sites=5, n_write_sites=5, seed=2025, loop_iters=1,
        buffer_addr=evil_ptr))
    unprotected = run_elf(attack.data)
    print(f"\nattack, unprotected: exit={unprotected.exit_code} "
          "(corruption goes unnoticed)")

    result, _ = harden(attack.data, layout)
    caught = run_elf(result.data)
    print(f"attack, hardened   : exit={caught.exit_code} "
          f"stderr={caught.stdout.decode(errors='replace').strip()!r}")
    assert caught.exit_code == 42


if __name__ == "__main__":
    main()
