"""Correctness checks the benchmark applies to every rewrite it times.

They read the *output file*, not the rewriter's in-memory image, so a
byte changed between emission and disk (or by a later simplification)
shows here even when the rewriter's own VerifyPass passed.
"""

from __future__ import annotations

import hashlib

ENDBR64 = b"\xf3\x0f\x1e\xfa"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def site_chain_errors(result, limit: int = 5) -> list[str]:
    """Follow each patched site's jump chain through the output bytes.

    A B0 site must hold ``int3``.  Every other site must reach the start
    of its own ``patch@<site>`` trampoline in at most two direct jumps
    (B1/B2/T1/T2: one; T3: a short jump into a punned neighbour, then
    its jump).  Returns up to *limit* error messages; empty means every
    site checks out.
    """
    from repro.core.tactics import Tactic
    from repro.elf.reader import ElfFile
    from repro.errors import DecodeError, ElfError
    from repro.x86.decoder import decode
    from repro.x86.tables import Flow

    out = ElfFile(result.data)
    errors: list[str] = []
    for patch in result.plan.patches:
        site = patch.site
        if patch.tactic == Tactic.B0:
            if out.read_vaddr(site, 1) != b"\xcc":
                errors.append(f"B0 site {site:#x} is not int3")
        else:
            tag = f"patch@{site:#x}"
            goal = {t.vaddr for t in patch.trampolines if t.tag == tag}
            at = site
            for _hop in range(2):
                try:
                    insn = decode(out.read_vaddr(at, 16), 0, at)
                except (DecodeError, ElfError) as exc:
                    errors.append(f"site {site:#x}: hop at {at:#x}: {exc}")
                    break
                if insn.flow != Flow.JMP or insn.target is None:
                    errors.append(f"site {site:#x}: {insn.mnemonic} at "
                                  f"{at:#x} is not a direct jump")
                    break
                at = insn.target
                if at in goal:
                    break
            else:
                errors.append(f"site {site:#x} ({patch.tactic.name}) does "
                              f"not reach its trampoline")
        if len(errors) >= limit:
            break
    return errors


def endbr_offsync(elf, instructions) -> int:
    """Byte-scanned ``endbr64`` offsets in ``.text`` that are not
    instruction boundaries of the linear sweep (0 expected)."""
    text = elf.section(".text")
    region = elf.section_bytes(".text")
    starts = set(instructions.addresses_list())
    count = 0
    pos = region.find(ENDBR64)
    while pos != -1:
        count += text.vaddr + pos not in starts
        pos = region.find(ENDBR64, pos + 1)
    return count
