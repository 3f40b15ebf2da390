"""Rewrite-plan linter: clean rewrites pass, corrupted artifacts and the
injected displacement miscompile are caught statically."""

import random

import pytest

from repro.analysis.lint import LintError, lint_context
from repro.check.campaign import _draw_params, synthesize
from repro.core.pipeline import RewriteContext, RewriteOptions
from repro.core.strategy import PatchRequest, TacticToggles
from repro.core.tactics import Tactic
from repro.core.trampoline import Empty
from repro.elf.builder import TinyProgram
from repro.elf.reader import ElfFile
from repro.frontend.lineardisasm import disassemble_text
from repro.frontend.tool import instrument_elf


def synthetic_binary(seed: int = 7, profile: str = "bzip2") -> bytes:
    return synthesize(_draw_params(random.Random(seed), profile)).data


def rewrite_jumps(data: bytes, *, toggles: TacticToggles | None = None,
                  limit: int = 10):
    """Rewrite up to ``limit`` jump sites; returns the live context."""
    elf = ElfFile(data)
    instructions = disassemble_text(elf)
    sites = [i for i in instructions if i.mnemonic.startswith("j")][:limit]
    options = RewriteOptions(mode="loader", toggles=toggles or TacticToggles())
    ctx = RewriteContext(elf, options, instructions=instructions)
    ctx.rewrite([PatchRequest(insn=i, instrumentation=Empty())
                 for i in sites])
    return ctx


def file_offset(ctx, vaddr: int) -> int:
    """Where ``vaddr``'s byte lives in the output file (blob maps first,
    then the output's own program headers)."""
    for base, size, off in ctx.blob_maps:
        if base <= vaddr < base + size:
            return off + (vaddr - base)
    return ElfFile(ctx.output).vaddr_to_offset(vaddr)


def corrupt(ctx, offset: int, mask: int = 0x80) -> None:
    out = bytearray(ctx.output)
    out[offset] ^= mask
    ctx.output = bytes(out)


class TestCleanRewrites:
    def test_clean_rewrite_reports_ok(self):
        ctx = rewrite_jumps(synthetic_binary())
        report = lint_context(ctx)
        assert report.ok
        assert report.sites_checked == 10
        assert report.trampolines_checked >= 10
        assert report.findings == []

    def test_lint_pass_publishes_counters(self):
        report = instrument_elf(
            synthetic_binary(), "jumps", instrumentation="counter",
            options=RewriteOptions(mode="loader", lint=True, liveness=True),
        )
        counters = report.result.counters
        # Zero-delta counters are dropped from the per-run snapshot.
        assert counters.get("lint.errors", 0) == 0
        assert counters["lint.sites"] > 0
        assert counters["lint.trampolines"] > 0
        assert report.result.lint is not None
        assert report.result.lint.ok

    def test_report_to_dict_is_json_shaped(self):
        report = lint_context(rewrite_jumps(synthetic_binary()))
        d = report.to_dict()
        assert d["ok"] is True
        assert d["sites_checked"] == report.sites_checked
        assert d["findings"] == []


class TestInjectedMiscompile:
    def test_injected_bug_raises_with_jump_back_finding(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INJECT_BUG", "1")
        with pytest.raises(LintError) as excinfo:
            instrument_elf(
                synthetic_binary(), "jumps", instrumentation="counter",
                options=RewriteOptions(mode="loader", lint=True),
            )
        report = excinfo.value.report
        backs = [f for f in report.errors if f.check == "jump-back"]
        assert backs, "displacement miscompile must be caught statically"
        assert all(isinstance(f.vaddr, int) for f in backs)
        assert "expected" in backs[0].message

    def test_lint_error_message_counts_errors(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INJECT_BUG", "1")
        with pytest.raises(LintError, match=r"lint: \d+ error"):
            instrument_elf(
                synthetic_binary(), "jumps", instrumentation="counter",
                options=RewriteOptions(mode="loader", lint=True),
            )


class TestCorruption:
    def test_trampoline_byte_corruption_is_image_bytes_error(self):
        ctx = rewrite_jumps(synthetic_binary())
        patch = next(p for p in ctx.plan.patches if p.tactic != Tactic.B0)
        tramp = next(t for t in patch.trampolines
                     if t.tag.startswith("patch"))
        corrupt(ctx, file_offset(ctx, tramp.vaddr))
        report = lint_context(ctx)
        assert not report.ok
        assert any(f.check == "image-bytes" and f.vaddr == tramp.vaddr
                   for f in report.errors)

    def test_site_displacement_corruption_is_reach_error(self):
        ctx = rewrite_jumps(synthetic_binary())
        patch = next(p for p in ctx.plan.patches if p.tactic != Tactic.B0)
        # Flip the high bit of the jmp rel32 displacement: the chain now
        # points ~2 GiB away from the trampoline.
        corrupt(ctx, file_offset(ctx, patch.site) + 4)
        report = lint_context(ctx)
        assert any(f.check == "reach" for f in report.errors)

    def test_overlap_with_data_segment_is_error(self):
        ctx = rewrite_jumps(synthetic_binary())
        tramp = ctx.trampolines[0]
        ctx.data_segments.append((tramp.vaddr, 8))
        report = lint_context(ctx)
        assert any(f.check == "overlap" for f in report.errors)


class TestEndbrWarning:
    def test_patched_endbr64_warns_but_passes(self):
        prog = TinyProgram()
        a = prog.text
        a.label("pad")
        a.raw(b"\xf3\x0f\x1e\xfa")  # endbr64  <- the patch site
        a.raw(b"\x48\x31\xff")  # xor rdi, rdi
        a.mov_imm32(0, 60)  # mov eax, SYS_EXIT
        a.syscall()
        data = prog.build()
        elf = ElfFile(data)
        instructions = disassemble_text(elf)
        site = next(i for i in instructions
                    if i.address == prog.text_vaddr + a.labels["pad"])
        # cet=False forced: auto-detection would see the endbr64 and
        # refuse the patch outright (tests/analysis/test_cet.py covers
        # that); this test pins the non-CET warn-only path.
        ctx = RewriteContext(elf, RewriteOptions(mode="loader", cet=False),
                             instructions=instructions)
        ctx.rewrite([PatchRequest(insn=site, instrumentation=Empty())])
        report = lint_context(ctx)
        assert report.ok  # warnings do not fail the gate
        assert any(f.check == "endbr" and f.severity == "warn"
                   for f in report.warnings)
