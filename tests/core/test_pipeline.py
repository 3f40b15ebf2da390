"""Staged pipeline: context, passes, observability, and the batch API."""

import itertools
import json

import pytest

from repro.core.observe import Observer
from repro.core.pipeline import (
    DecodePass,
    MatchPass,
    RewriteContext,
    RewriteOptions,
    VerifyPass,
)
from repro.core.strategy import PatchRequest, TacticToggles
from repro.core.trampoline import Empty
from repro.elf.reader import ElfFile
from repro.errors import PatchError
from repro.frontend.matchers import match_jumps
from repro.frontend.tool import (
    RewriteConfig,
    instrument_elf,
    main,
    prepare_binary,
    rewrite_many,
)
from repro.synth.generator import SynthesisParams, synthesize
from repro.vm.machine import run_elf


def small_binary(seed: int = 11, n_jump_sites: int = 24) -> bytes:
    return synthesize(SynthesisParams(
        n_jump_sites=n_jump_sites, n_write_sites=8, seed=seed, loop_iters=1
    )).data


class TestObserver:
    def test_counters_accumulate(self):
        obs = Observer()
        obs.count("x")
        obs.count("x", 4)
        assert obs.counters["x"] == 5

    def test_measure_records_time_and_runs(self):
        obs = Observer()
        with obs.measure("demo"):
            pass
        with obs.measure("demo"):
            pass
        assert obs.runs("demo") == 2
        assert obs.timings["demo"] >= 0.0

    def test_trace_hooks_receive_events(self):
        obs = Observer()
        events = []
        obs.add_hook(lambda event, payload: events.append((event, payload)))
        with obs.measure("demo"):
            obs.emit("custom", detail=1)
        assert [e for e, _ in events] == ["pass:start", "custom", "pass:end"]
        assert events[-1][1]["seconds"] >= 0.0

    def test_as_dict_shape(self):
        obs = Observer()
        with obs.measure("demo"):
            obs.count("n", 3)
        snap = obs.as_dict()
        assert snap["counters"]["n"] == 3
        assert "demo" in snap["timings"]
        assert "pass" not in snap["timings"]

    def test_format_timings(self):
        obs = Observer()
        with obs.measure("demo"):
            pass
        assert "demo" in obs.format_timings()
        assert Observer().format_timings() == "(no passes ran)"


class TestExplicitPipeline:
    """Decoding and matching by hand, then ``RewriteContext.rewrite``."""

    def test_explicit_passes_match_instrument_elf(self):
        data = small_binary()
        ctx = RewriteContext(ElfFile(data))

        # Decode and match explicitly, then build requests between passes.
        DecodePass().run(ctx)
        MatchPass(match_jumps).run(ctx)
        result = ctx.rewrite([PatchRequest(insn=i, instrumentation=Empty())
                              for i in ctx.sites])

        assert result.data == instrument_elf(data, "jumps").result.data

    @pytest.mark.parametrize("lint,verify,check",
                             list(itertools.product((False, True), repeat=3)))
    def test_rewrite_runs_the_passes_the_options_ask_for(self, lint, verify,
                                                         check):
        data = small_binary(n_jump_sites=6)
        started = []

        def record(event, payload):
            if event == "pass:start":
                started.append(payload["name"])

        obs = Observer()
        obs.add_hook(record)
        ctx = RewriteContext(
            ElfFile(data),
            RewriteOptions(lint=lint, verify=verify, check=check),
            observer=obs, instructions=prepare_binary(data).instructions)
        ctx.rewrite([PatchRequest(insn=i, instrumentation=Empty())
                     for i in ctx.instructions if match_jumps(i)])

        expected = ["plan", "group", "emit"] + [
            name for name, on in (("lint", lint), ("verify", verify),
                                  ("check", check)) if on]
        assert started == expected
        for name in expected:
            assert obs.runs(name) == 1
        assert sorted(key for key in obs.counters
                      if key.startswith("pass.")) == sorted(
            f"pass.{name}.runs" for name in expected)

    def test_pass_counters_recorded(self):
        data = small_binary()
        report = instrument_elf(data, "jumps",
                                options=RewriteOptions(mode="loader"))
        counters = report.counters
        assert counters["decode.instructions"] > 0
        assert counters["match.sites"] == report.n_sites
        assert counters["plan.sites"] == report.n_sites
        assert counters["plan.alloc_probes"] > 0
        assert counters["emit.output_bytes"] == report.result.output_size
        # Every standard pass ran exactly once.
        for name in ("decode", "match", "plan", "group", "emit"):
            assert counters[f"pass.{name}.runs"] == 1

    def test_pass_timings_recorded(self):
        data = small_binary()
        report = instrument_elf(data, "jumps",
                                options=RewriteOptions(mode="loader"))
        for name in ("decode", "match", "plan", "group", "emit"):
            assert report.timings[name] >= 0.0


class TestVerifyPass:
    def test_verify_checks_every_patched_site(self):
        data = small_binary()
        report = instrument_elf(
            data, "jumps", options=RewriteOptions(mode="loader", verify=True)
        )
        assert report.counters["verify.sites"] == len(report.result.plan.patches)
        # Verification does not change the output.
        plain = instrument_elf(data, "jumps",
                               options=RewriteOptions(mode="loader"))
        assert report.result.data == plain.result.data

    def test_verify_detects_clobbered_site(self):
        data = small_binary()
        ctx = prepare_binary(data)
        result = ctx.rewrite([PatchRequest(insn=i, instrumentation=Empty())
                              for i in ctx.instructions if match_jumps(i)])
        # Corrupt one patched site after the fact: verification must notice.
        site = result.plan.patches[0].site
        ctx.image.write_unchecked(site, b"\x90" * 2)
        with pytest.raises(PatchError, match="verify"):
            VerifyPass().run(ctx)


class TestBatchApi:
    """rewrite_many: shared decode, cached matching, identical bytes."""

    CONFIGS = staticmethod(lambda: [
        RewriteOptions(mode="loader"),
        RewriteOptions(mode="loader", grouping=False),
        RewriteOptions(mode="loader",
                       toggles=TacticToggles(t3=False)),
    ])

    def test_batch_matches_independent_runs_byte_for_byte(self):
        data = small_binary()
        obs = Observer()
        reports = rewrite_many(data, self.CONFIGS(), matcher="jumps",
                               observer=obs)
        singles = [instrument_elf(data, "jumps", options=o)
                   for o in self.CONFIGS()]
        assert len(reports) == 3
        for batch, single in zip(reports, singles):
            assert batch.result.data == single.result.data

    def test_batch_decodes_exactly_once(self):
        data = small_binary()
        obs = Observer()
        rewrite_many(data, self.CONFIGS(), matcher="jumps", observer=obs)
        assert obs.runs("decode") == 1
        assert obs.runs("match") == 1  # same matcher -> cached sites
        assert obs.runs("plan") == 3
        assert obs.runs("emit") == 3

    def test_batch_distinct_matchers_rematch(self):
        data = small_binary()
        obs = Observer()
        rewrite_many(
            data,
            [RewriteConfig(matcher="jumps"),
             RewriteConfig(matcher="heap-writes"),
             RewriteConfig(matcher="jumps")],
            observer=obs,
        )
        assert obs.runs("decode") == 1
        assert obs.runs("match") == 2

    def test_batch_runs_behave_like_originals(self):
        data = small_binary()
        orig = run_elf(data)
        for report in rewrite_many(data, self.CONFIGS(), matcher="jumps"):
            assert run_elf(report.result.data).observable == orig.observable

    def test_prepared_context_reuse_across_calls(self):
        data = small_binary()
        base = prepare_binary(data)
        rewrite_many(base, [RewriteOptions(mode="loader")])
        rewrite_many(base, [RewriteOptions(mode="phdr", grouping=False)])
        assert base.observer.runs("decode") == 1

    def test_labels_and_config_defaults(self):
        data = small_binary()
        reports = rewrite_many(
            data,
            [RewriteConfig(options=RewriteOptions(mode="loader"),
                           label="baseline")],
            matcher="jumps",
        )
        assert reports[0].label == "baseline"
        assert reports[0].n_sites > 0


class TestCliJson:
    def test_json_flag_emits_stats_and_timings(self, tmp_path, capsys):
        src = tmp_path / "in.elf"
        dst = tmp_path / "out.elf"
        src.write_bytes(small_binary())
        rc = main([str(src), str(dst), "--mode", "loader", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "loader"
        assert payload["n_sites"] > 0
        assert payload["stats"]["succ_pct"] > 0
        for key in ("b0_pct", "failed", "trampoline_count",
                    "trampoline_bytes"):
            assert key in payload["stats"]
        assert set(payload["timings"]) >= {"decode", "match", "plan",
                                           "group", "emit"}
        assert payload["counters"]["pass.decode.runs"] == 1
        assert dst.read_bytes()  # output still written

    def test_trace_flag_streams_pass_events(self, tmp_path, capsys):
        src = tmp_path / "in.elf"
        dst = tmp_path / "out.elf"
        src.write_bytes(small_binary())
        rc = main([str(src), str(dst), "--mode", "loader", "--trace",
                   "--verify"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "[trace] pass:start decode" in err
        assert "[trace] pass:end verify" in err


class TestStreamDecode:
    """The zero-copy InstructionStream path must be observationally
    identical to the legacy eager-list path, bytes out included."""

    def test_stream_and_list_rewrites_byte_identical(self):
        from repro.frontend.lineardisasm import disassemble_text

        data = small_binary(seed=23, n_jump_sites=40)
        stream_report = instrument_elf(
            data, "jumps", options=RewriteOptions(mode="loader"))

        ctx = RewriteContext(elf=ElfFile(data),
                             options=RewriteOptions(mode="loader"))
        ctx.instructions = disassemble_text(ctx.elf)  # eager list
        [list_report] = rewrite_many(
            ctx, [RewriteOptions(mode="loader")], matcher="jumps")
        assert stream_report.result.data == list_report.result.data

    def test_decode_pass_produces_stream_with_counters(self):
        from repro.x86.fastscan import InstructionStream

        data = small_binary(seed=23)
        obs = Observer()
        ctx = RewriteContext(elf=ElfFile(data), options=RewriteOptions(),
                             observer=obs)
        DecodePass().run(ctx)
        assert isinstance(ctx.instructions, InstructionStream)
        assert obs.counters["decode.chunks"] >= 1
        assert "decode.reconcile_retries" in obs.counters
        assert obs.counters["decode.bytes"] == ctx.instructions.total_bytes

    def test_match_pass_uses_stream_select(self):
        data = small_binary(seed=23)
        ctx = RewriteContext(elf=ElfFile(data), options=RewriteOptions())
        DecodePass().run(ctx)
        MatchPass(match_jumps).run(ctx)
        assert ctx.sites == [i for i in ctx.instructions if match_jumps(i)]

    def test_rewritten_binary_still_runs(self):
        data = small_binary(seed=29, n_jump_sites=16)
        report = instrument_elf(data, "jumps",
                                options=RewriteOptions(mode="loader"))
        before, after = run_elf(data), run_elf(report.result.data)
        assert (before.exit_code, before.stdout) == (
            after.exit_code, after.stdout)
