"""Figure 4 harness: Dromaeo DOM browser benchmark overheads.

The paper instruments Chrome and FireFox with the A2 (heap write)
application and measures relative slowdowns across 14 Dromaeo DOM
suites.  We reproduce the *experiment shape* with 14 synthetic DOM-like
kernels: each suite has its own mix of store density (attribute/DOM
mutation suites write heavily; query/traversal suites are read-mostly).
FireFox's lower sensitivity — the paper attributes it to time spent in
JIT code and non-instrumented shared objects — is modelled by
instrumenting only a fraction of each kernel's write sites.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import RewriteContext
from repro.core.strategy import PatchRequest
from repro.core.trampoline import Empty
from repro.elf.reader import ElfFile
from repro.frontend.lineardisasm import disassemble_text
from repro.frontend.matchers import match_heap_writes
from repro.synth.generator import SynthesisParams, synthesize
from repro.vm.machine import run_elf

TRANSFER_WEIGHT = 2

# Suite name -> (write_sites, jump_sites): mutation-heavy suites store
# more; query/traverse suites branch more and store less.
DROMAEO_SUITES: dict[str, tuple[int, int]] = {
    "Attrib": (90, 40),
    "Attrib.Proto": (80, 45),
    "Attrib.jQuery": (70, 50),
    "Modify": (110, 35),
    "Modify.Proto": (95, 40),
    "Modify.jQuery": (85, 45),
    "Query": (30, 80),
    "Style.Proto": (75, 50),
    "Style.jQuery": (65, 55),
    "Events.Proto": (55, 65),
    "Events.jQuery": (50, 70),
    "Traverse": (25, 90),
    "Traverse.Proto": (35, 85),
    "Traverse.jQuery": (40, 80),
}

# Fraction of each kernel's write sites actually instrumented: Chrome's
# whole binary is patched; for FireFox the paper's workload spends much
# of its time in JIT'ed code and non-patched shared objects.
BROWSER_COVERAGE = {"Chrome": 1.0, "FireFox": 0.35}

LOOP_ITERS = 3


@dataclass
class DromaeoResult:
    suite: str
    browser: str
    overhead_pct: float  # relative runtime, 100 = parity


def _run_suite(suite: str, browser: str, seed: int) -> DromaeoResult:
    writes, jumps = DROMAEO_SUITES[suite]
    params = SynthesisParams(
        n_jump_sites=jumps,
        n_write_sites=writes,
        pie=True,  # both browsers are PIE
        seed=seed,
        loop_iters=LOOP_ITERS,
    )
    binary = synthesize(params)
    orig = run_elf(binary.data)

    elf = ElfFile(binary.data)
    instructions = disassemble_text(elf)
    sites = [i for i in instructions if match_heap_writes(i)]
    coverage = BROWSER_COVERAGE[browser]
    n_instrumented = int(len(sites) * coverage)
    sites = sites[:n_instrumented]

    result = RewriteContext(elf, instructions=instructions).rewrite(
        [PatchRequest(insn=i, instrumentation=Empty()) for i in sites]
    )
    patched = run_elf(result.data)
    if patched.observable != orig.observable:
        raise AssertionError(f"behaviour changed in suite {suite}/{browser}")
    overhead = 100.0 * patched.weighted_cost(TRANSFER_WEIGHT) / max(
        1, orig.weighted_cost(TRANSFER_WEIGHT)
    )
    return DromaeoResult(suite=suite, browser=browser, overhead_pct=overhead)


def run_dromaeo(
    browsers: tuple[str, ...] = ("Chrome", "FireFox"),
    suites: list[str] | None = None,
) -> list[DromaeoResult]:
    """Reproduce Figure 4: per-suite relative overheads + geometric mean."""
    suites = suites or list(DROMAEO_SUITES)
    results: list[DromaeoResult] = []
    for browser in browsers:
        for i, suite in enumerate(suites):
            results.append(_run_suite(suite, browser, seed=1000 + i))
    return results


def geometric_mean(values: list[float]) -> float:
    prod = 1.0
    for v in values:
        prod *= v
    return prod ** (1.0 / len(values)) if values else 0.0


def format_dromaeo(results: list[DromaeoResult]) -> str:
    browsers = sorted({r.browser for r in results})
    suites = list(dict.fromkeys(r.suite for r in results))
    lines = ["  ".join([f"{'suite':<18}"] + [f"{b:>10}" for b in browsers])]
    table = {(r.suite, r.browser): r.overhead_pct for r in results}
    for suite in suites:
        cells = [f"{suite:<18}"]
        for b in browsers:
            cells.append(f"{table.get((suite, b), 0):>9.1f}%")
        lines.append("  ".join(cells))
    cells = [f"{'Geom.Mean':<18}"]
    for b in browsers:
        vals = [r.overhead_pct for r in results if r.browser == b]
        cells.append(f"{geometric_mean(vals):>9.1f}%")
    lines.append("  ".join(cells))
    return "\n".join(lines)
