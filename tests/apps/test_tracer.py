"""Execution tracing: order-preserving control-flow records."""

from repro.apps.tracer import Tracer
from repro.frontend.tool import instrument_elf
from repro.synth.generator import SynthesisParams, synthesize
from repro.vm.machine import run_elf
from tests.conftest import requires_native


def workload(**kw):
    defaults = dict(n_jump_sites=15, n_write_sites=10, seed=9090,
                    loop_iters=3)
    defaults.update(kw)
    return synthesize(SynthesisParams(**defaults))


class TestTracer:
    def test_behaviour_preserved(self):
        binary = workload()
        orig = run_elf(binary.data)
        traced = Tracer().instrument(binary.data)
        trace = traced.run_with_trace()
        assert trace.run.observable == orig.observable

    def test_records_are_site_addresses(self):
        binary = workload()
        traced = Tracer().instrument(binary.data)
        trace = traced.run_with_trace()
        assert trace.total > 0
        sites = set(binary.jump_sites)
        extra = {r for r in trace.records if r not in sites}
        # Records are always instrumented-site addresses (the generator's
        # ground truth plus main's own loop branch).
        assert len(extra) <= 3

    def test_order_is_execution_order(self):
        """A hand-built two-site loop must trace as a strict alternation
        (A, B, A, B, ...) — counters could never prove this."""
        from repro.elf import constants as elfc
        from repro.elf.builder import TinyProgram

        prog = TinyProgram()
        a = prog.text
        a.mov_imm32(1, 4)  # rcx = 4 iterations
        a.label("loop")
        site_a = a.here
        a.jmp("mid")  # site A (unconditional: deterministic)
        a.label("mid")
        a.nop(3)
        a.sub_imm(1, 1)
        a.cmp_imm(1, 0)
        site_b = a.here
        a.jcc(0x5, "loop")  # site B (taken 3x, falls through once)
        a.mov_imm32(7, 0)
        a.mov_imm32(0, elfc.SYS_EXIT)
        a.syscall()
        binary_data = prog.build()

        traced = Tracer().instrument(binary_data)
        trace = traced.run_with_trace()
        expected = [site_a, site_b] * 4
        assert trace.records == expected

    def test_expression_matcher(self):
        """A match expression resolves like it does for ``instrument_elf``."""
        binary = workload()
        expr = 'mnemonic == "jmp"'
        trace = Tracer(matcher=expr).instrument(binary.data).run_with_trace()
        assert trace.run.observable == run_elf(binary.data).observable
        report = instrument_elf(binary.data, expr)
        assert report.n_sites > 0
        sites = {patch.site for patch in report.result.plan.patches}
        assert trace.records and set(trace.records) <= sites

    def test_ring_buffer_wraps(self):
        binary = workload(loop_iters=12)
        traced = Tracer(capacity=32).instrument(binary.data)
        trace = traced.run_with_trace()
        assert trace.truncated
        assert len(trace.records) == 32
        assert trace.total > 32

    def test_transitions_edge_list(self):
        binary = workload()
        traced = Tracer().instrument(binary.data)
        trace = traced.run_with_trace()
        edges = trace.transitions()
        assert len(edges) == len(trace.records) - 1

    @requires_native
    def test_traced_binary_runs_natively(self, run_native):
        binary = workload()
        code0, out0 = run_native(binary.data)
        traced = Tracer().instrument(binary.data)
        code1, out1 = run_native(traced.data)
        assert (code1, out1) == (code0, out0)
