"""Coverage-map instrumentation (the fuzzing use case of the paper's
introduction, citing full-speed coverage-guided tracing).

Every matched site gets its **own** 64-bit counter in a shared coverage
map segment — an AFL-style bitmap, but with exact hit counts.  Because
E9Patch-style rewriting has no basic-block information by design, sites
are selected with the control-flow-agnostic A1 matcher (direct jumps),
the paper's stand-in for basic-block counting.

The map lives in an appended read-write segment of the patched binary,
so it exists in native runs too; the VM-based :class:`CoverageReport`
reads it back after execution for analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.observe import Observer
from repro.core.pipeline import MatchPass, RewriteContext, RewriteOptions, RewriteResult
from repro.core.strategy import PatchRequest
from repro.core.trampoline import Counter
from repro.frontend.matchers import Matcher, resolve_matcher
from repro.frontend.tool import prepare_binary
from repro.vm.machine import Machine

SLOT_SIZE = 8
PAGE = 4096


@dataclass
class CoverageInstrumenter:
    """Instrument a binary with one counter slot per matched site."""

    matcher: Matcher | str = "jumps"
    options: RewriteOptions = field(default_factory=RewriteOptions)
    observer: Observer | None = None

    def instrument(self, data: bytes) -> "InstrumentedBinary":
        base = prepare_binary(data, observer=self.observer)
        MatchPass(resolve_matcher(self.matcher)).run(base)
        sites = base.sites

        ctx = RewriteContext(base.elf, self.options, observer=base.observer,
                             instructions=base.instructions)
        map_bytes = max(PAGE, -(-len(sites) * SLOT_SIZE // PAGE) * PAGE)
        map_vaddr = ctx.add_runtime_data(map_bytes)
        # ET_DYN images relocate at load time: rip-relative increments.
        pic = base.elf.is_pie

        requests = []
        slots: dict[int, int] = {}
        for index, insn in enumerate(sites):
            slot_vaddr = map_vaddr + index * SLOT_SIZE
            slots[insn.address] = slot_vaddr
            requests.append(
                PatchRequest(insn=insn,
                             instrumentation=Counter(slot_vaddr, pic=pic))
            )
        result = ctx.rewrite(requests)
        return InstrumentedBinary(
            result=result, map_vaddr=map_vaddr, slots=slots
        )


@dataclass
class InstrumentedBinary:
    """A coverage-instrumented binary plus its map layout."""

    result: RewriteResult
    map_vaddr: int
    slots: dict[int, int]  # site vaddr -> counter slot link-time vaddr

    @property
    def data(self) -> bytes:
        return self.result.data

    def run_with_coverage(self, **machine_kwargs) -> "CoverageReport":
        """Execute in the VM and collect the map."""
        machine = Machine(self.data, **machine_kwargs)
        run = machine.run()
        counts = {
            site: machine.mem.read_u64(machine.load_base + slot)
            for site, slot in self.slots.items()
        }
        return CoverageReport(run=run, counts=counts)


@dataclass
class CoverageReport:
    """Hit counts per instrumented site."""

    run: object
    counts: dict[int, int]

    @property
    def total_sites(self) -> int:
        return len(self.counts)

    @property
    def covered_sites(self) -> int:
        return sum(1 for c in self.counts.values() if c)

    @property
    def coverage_pct(self) -> float:
        if not self.counts:
            return 0.0
        return 100.0 * self.covered_sites / self.total_sites

    def uncovered(self) -> list[int]:
        """Site addresses never executed (fuzzing targets)."""
        return sorted(a for a, c in self.counts.items() if not c)

    def hottest(self, n: int = 10) -> list[tuple[int, int]]:
        return sorted(self.counts.items(), key=lambda kv: -kv[1])[:n]

    def diff(self, other: "CoverageReport") -> list[int]:
        """Sites this run covered that *other* did not (new coverage —
        the signal a fuzzer maximizes)."""
        return sorted(
            a for a, c in self.counts.items()
            if c and not other.counts.get(a)
        )
