"""Execution tracing (the paper's debugging use case).

Each instrumented site appends its address to a ring buffer in an
appended read-write segment — a control-flow trace recorded by a binary
that was never recompiled.  The buffer layout is::

    +0x00: u64 head        (total records written; monotonically grows)
    +0x08: u64 capacity    (power of two)
    +0x10: u64 entries[capacity]

The trampoline body preserves flags and registers, so traced and
untraced runs behave identically (checked by the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.observe import Observer
from repro.core.pipeline import MatchPass, RewriteContext, RewriteOptions, RewriteResult
from repro.core.strategy import PatchRequest
from repro.core.trampoline import Instrumentation
from repro.frontend.matchers import Matcher, resolve_matcher
from repro.frontend.tool import prepare_binary
from repro.vm.machine import Machine
from repro.x86 import encoder as enc

HEADER_SIZE = 16


class TraceRecord(Instrumentation):
    """Append the site address to the ring buffer."""

    name = "trace"

    def __init__(self, buffer_vaddr: int, capacity: int) -> None:
        if capacity & (capacity - 1):
            raise ValueError("capacity must be a power of two")
        self.buffer_vaddr = buffer_vaddr
        self.capacity = capacity

    def emit(self, asm: enc.Assembler, insn) -> None:
        asm.raw(b"\x48\x8d\x64\x24\x80")  # lea -0x80(%rsp), %rsp
        asm.pushfq()
        asm.push(enc.RAX)
        asm.push(enc.RCX)
        asm.push(enc.RDX)
        asm.push(enc.R11)
        asm.mov_imm64(enc.RAX, self.buffer_vaddr)
        asm.mov_load(enc.RCX, enc.RAX, 0)  # rcx = head
        asm.mov_reg(enc.RDX, enc.RCX)
        # rdx = head & (capacity - 1)
        asm.raw(b"\x48\x81\xe2" + (self.capacity - 1).to_bytes(4, "little"))
        asm.mov_imm64(enc.R11, insn.address)  # the record
        # entries[rdx] = r11:  mov [rax + rdx*8 + 16], r11
        asm.raw(b"\x4c\x89\x5c\xd0\x10")
        asm.add_imm(enc.RCX, 1)
        asm.mov_store(enc.RAX, enc.RCX, 0)  # head = rcx
        asm.pop(enc.R11)
        asm.pop(enc.RDX)
        asm.pop(enc.RCX)
        asm.pop(enc.RAX)
        asm.popfq()
        asm.raw(b"\x48\x8d\xa4\x24\x80\x00\x00\x00")  # lea 0x80(%rsp), %rsp


@dataclass
class Tracer:
    """Instrument a binary so matched sites record an execution trace."""

    matcher: Matcher | str = "jumps"
    capacity: int = 4096
    options: RewriteOptions = field(default_factory=RewriteOptions)
    observer: Observer | None = None

    def instrument(self, data: bytes) -> "TracedBinary":
        base = prepare_binary(data, observer=self.observer)
        MatchPass(resolve_matcher(self.matcher)).run(base)
        sites = base.sites

        ctx = RewriteContext(base.elf, self.options, observer=base.observer,
                             instructions=base.instructions)
        size = HEADER_SIZE + 8 * self.capacity
        buffer_vaddr = ctx.add_runtime_data(size)
        instr = TraceRecord(buffer_vaddr, self.capacity)
        result = ctx.rewrite(
            [PatchRequest(insn=i, instrumentation=instr) for i in sites]
        )
        return TracedBinary(result=result, buffer_vaddr=buffer_vaddr,
                            capacity=self.capacity)


@dataclass
class TracedBinary:
    result: RewriteResult
    buffer_vaddr: int
    capacity: int

    @property
    def data(self) -> bytes:
        return self.result.data

    def run_with_trace(self, **machine_kwargs) -> "Trace":
        machine = Machine(self.data, **machine_kwargs)
        # Pre-set the capacity header so natively-run binaries could
        # share the layout (the VM map is zero-filled; head starts 0).
        machine.mem.write_u64(self.buffer_vaddr + 8, self.capacity)
        run = machine.run()
        head = machine.mem.read_u64(self.buffer_vaddr)
        count = min(head, self.capacity)
        start = head - count
        records = []
        for i in range(start, head):
            slot = self.buffer_vaddr + HEADER_SIZE + 8 * (i % self.capacity)
            records.append(machine.mem.read_u64(slot))
        return Trace(run=run, total=head, records=records)


@dataclass
class Trace:
    """The recovered execution trace."""

    run: object
    total: int  # records ever written (may exceed len(records))
    records: list[int]

    @property
    def truncated(self) -> bool:
        return self.total > len(self.records)

    def transitions(self) -> list[tuple[int, int]]:
        """Consecutive (from_site, to_site) pairs — a dynamic edge list
        recovered with zero static control-flow knowledge."""
        return list(zip(self.records, self.records[1:]))
