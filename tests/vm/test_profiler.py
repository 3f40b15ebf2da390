"""Dynamic profiling over the VM."""

from repro.core.pipeline import RewriteOptions
from repro.frontend.tool import instrument_elf
from repro.synth.generator import SynthesisParams, synthesize
from repro.vm.profiler import profile_elf


def workload(**kw):
    defaults = dict(n_jump_sites=20, n_write_sites=20, seed=606, loop_iters=2)
    defaults.update(kw)
    return synthesize(SynthesisParams(**defaults))


class TestProfiler:
    def test_total_matches_run(self):
        p = profile_elf(workload().data)
        assert p.total == p.run.instructions
        assert p.run.exit_code == 0

    def test_mnemonic_mix_recorded(self):
        p = profile_elf(workload().data)
        assert p.mnemonics["syscall"] == 2  # write + exit
        assert p.mnemonics["call"] > 0
        assert p.mnemonics["ret"] > 0
        assert 0.0 < p.branch_fraction < 0.5

    def test_hottest_sites_are_loop_body(self):
        p = profile_elf(workload(loop_iters=8).data)
        (addr, count), *_ = p.hottest(1)
        assert count >= 8  # executed every iteration

    def test_instrumented_run_executes_more_jumps(self):
        binary = workload()
        before = profile_elf(binary.data)
        report = instrument_elf(binary.data, "jumps",
                                options=RewriteOptions(mode="loader"))
        after = profile_elf(report.result.data)
        assert after.run.observable == before.run.observable
        # Each patched site adds trampoline jmp(s).
        assert after.mnemonics["jmp"] > before.mnemonics["jmp"]
        assert after.total > before.total

    def test_store_density_tracks_write_sites(self):
        sparse = profile_elf(workload(n_write_sites=5, seed=1).data)
        dense = profile_elf(workload(n_write_sites=60, seed=1).data)
        assert dense.store_fraction > sparse.store_fraction
