"""In-text claims of Section 6.1 as ablation benchmarks.

Produces ``benchmarks/out/ablations.txt``:

* coverage with and without tactic T3 ("merely ~90.5% ... rather than
  ~100%" for A1);
* file size with grouping on vs the naive 1:1 mapping ("balloons to
  +2239.83%/+568.96% for A1/A2");
* grouping granularity sweep: mappings vs physical bytes (M>=64 stays
  under vm.max_map_count);
* B0 signal-handler baseline vs jump-based patching ("orders of
  magnitude" slower);
* PIE vs non-PIE baseline coverage;
* scale invariance of the coverage percentages (validating the
  scaled-down corpus).
"""

import pytest

from benchmarks.conftest import save_artifact
from repro.core.grouping import DEFAULT_MAX_MAP_COUNT
from repro.core.pipeline import RewriteOptions
from repro.eval.ablation import (
    b0_slowdown,
    coverage_without_t3,
    grouping_size_blowup,
    pie_effect,
    scale_invariance,
)
from repro.frontend.tool import instrument_elf
from repro.synth.generator import SynthesisParams, synthesize
from repro.synth.profiles import profile_by_name

T3_HEAVY = ("gamess", "zeusmp", "tonto", "leslie3d", "GemsFDTD")


@pytest.mark.benchmark(group="ablation")
def test_no_t3_coverage(benchmark, artifact_dir):
    def run():
        return {name: coverage_without_t3(profile_by_name(name))
                for name in T3_HEAVY}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'binary':<12}{'Succ% full':>12}{'Succ% no-T3':>13}"]
    for name, (full, no_t3) in results.items():
        lines.append(f"{name:<12}{full:>11.2f}%{no_t3:>12.2f}%")
    lines.append("paper (A1 overall): ~100% with T3, ~90.5% without")
    save_artifact(artifact_dir, "ablation_no_t3.txt", "\n".join(lines))
    drops = [full - no_t3 for full, no_t3 in results.values()]
    assert max(drops) > 3.0  # T3 is load-bearing on T3-heavy rows


@pytest.mark.benchmark(group="ablation")
def test_grouping_size_blowup(benchmark, artifact_dir):
    names = ("bzip2", "gcc", "povray")

    def run():
        out = {}
        for name in names:
            for app in ("A1", "A2"):
                out[(name, app)] = grouping_size_blowup(
                    profile_by_name(name), app)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'binary/app':<16}{'Size% grouped':>14}{'Size% naive':>13}"]
    for (name, app), (grouped, naive) in results.items():
        lines.append(f"{name + '/' + app:<16}{grouped:>13.2f}%{naive:>12.2f}%")
    lines.append("paper: grouped +57.43%/+30.90% (A1/A2); "
                 "naive +2239.83%/+568.96%")
    save_artifact(artifact_dir, "ablation_grouping.txt", "\n".join(lines))
    for grouped, naive in results.values():
        assert naive > grouped


@pytest.mark.benchmark(group="ablation")
def test_granularity_sweep(benchmark, artifact_dir):
    """Mappings vs physical bytes as M grows (Section 4)."""
    binary = synthesize(SynthesisParams.from_profile(profile_by_name("gcc")))

    def run():
        out = {}
        for m in (1, 4, 16, 64):
            report = instrument_elf(
                binary.data, "jumps",
                options=RewriteOptions(granularity=m))
            g = report.result.grouping
            out[m] = (g.mapping_count, g.grouped_physical_bytes)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'M':>4}{'mappings':>10}{'physical KiB':>14}"]
    for m, (mappings, phys) in results.items():
        lines.append(f"{m:>4}{mappings:>10}{phys // 1024:>14}")
    lines.append(f"(vm.max_map_count default = {DEFAULT_MAX_MAP_COUNT})")
    save_artifact(artifact_dir, "ablation_granularity.txt", "\n".join(lines))
    # Coarser granularity -> fewer mappings, more physical memory.
    mappings = [results[m][0] for m in (1, 4, 16, 64)]
    assert mappings == sorted(mappings, reverse=True)
    assert results[64][0] < DEFAULT_MAX_MAP_COUNT


@pytest.mark.benchmark(group="ablation")
def test_b0_vs_jumps(benchmark, artifact_dir):
    jump_pct, b0_pct = benchmark.pedantic(
        lambda: b0_slowdown(n_sites=30, loop_iters=2), rounds=1, iterations=1)
    text = (f"jump-based patching : {jump_pct:.1f}% of original runtime\n"
            f"B0 signal handlers  : {b0_pct:.1f}% of original runtime\n"
            f"B0/jump cost ratio  : {b0_pct / jump_pct:.1f}x\n"
            "paper: B0 'suffers from poor performance (sometimes by orders "
            "of magnitude)'")
    save_artifact(artifact_dir, "ablation_b0.txt", text)
    assert b0_pct > 10 * jump_pct


@pytest.mark.benchmark(group="ablation")
def test_pie_effect(benchmark, artifact_dir):
    names = ("gcc", "perlbench", "xalancbmk")

    def run():
        return {name: pie_effect(profile_by_name(name)) for name in names}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'binary':<12}{'Base% nonPIE':>13}{'Base% PIE':>11}"]
    for name, (nonpie, pie) in results.items():
        lines.append(f"{name:<12}{nonpie:>12.2f}%{pie:>10.2f}%")
    lines.append("paper: 'Even the baseline (Base%) for PIE binaries is >93%'")
    save_artifact(artifact_dir, "ablation_pie.txt", "\n".join(lines))
    for nonpie, pie in results.values():
        assert pie > nonpie
        assert pie > 93.0


@pytest.mark.benchmark(group="ablation")
def test_scale_invariance(benchmark, artifact_dir):
    def run():
        return {
            name: scale_invariance(profile_by_name(name),
                                   factors=(0.5, 1.0, 2.0))
            for name in ("bzip2", "gcc")
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Succ% at workload scales 0.5x / 1x / 2x:"]
    for name, values in results.items():
        lines.append(f"{name:<10}" + "  ".join(f"{v:.2f}%" for v in values))
    lines.append("(coverage percentages are scale-free, justifying the "
                 "scaled-down Table 1 corpus)")
    save_artifact(artifact_dir, "ablation_scale.txt", "\n".join(lines))
    for values in results.values():
        assert max(values) - min(values) < 6.0


@pytest.mark.benchmark(group="ablation")
def test_cost_model_sensitivity(benchmark, artifact_dir):
    """Time% orderings must not depend on the transfer-weight knob."""
    from repro.eval.sensitivity import format_sensitivity, run_sensitivity
    from repro.synth.profiles import profile_by_name

    profiles = [profile_by_name(n)
                for n in ("perlbench", "bzip2", "milc", "lbm", "sjeng")]
    result = benchmark.pedantic(
        lambda: run_sensitivity(profiles), rounds=1, iterations=1)
    save_artifact(artifact_dir, "ablation_cost_model.txt",
                  format_sensitivity(result))
    assert result.ranking_stable()


@pytest.mark.benchmark(group="ablation")
def test_packing_vs_grouping(benchmark, artifact_dir):
    """Design-insight ablation: packing trampolines into shared pages at
    allocation time *hurts* — dense pages cannot merge under physical
    page grouping, so the physical footprint grows.  Fragment-then-group
    (the paper's way) wins."""
    binary = synthesize(SynthesisParams.from_profile(profile_by_name("gcc")))

    def run():
        out = {}
        for pack in (False, True):
            report = instrument_elf(
                binary.data, "jumps",
                options=RewriteOptions(pack_allocations=pack))
            g = report.result.grouping
            out[pack] = (len(g.blocks), len(g.groups),
                         g.grouped_physical_bytes, report.result.size_pct)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{'policy':<22}{'vpages':>8}{'phys pages':>12}"
             f"{'phys KiB':>10}{'Size%':>8}"]
    for pack, (blocks, groups, phys, size_pct) in results.items():
        label = "pack-then-group" if pack else "fragment-then-group"
        lines.append(f"{label:<22}{blocks:>8}{groups:>12}"
                     f"{phys // 1024:>10}{size_pct:>7.1f}%")
    lines.append("(dense pages cannot merge: grouping thrives on the very "
                 "fragmentation packing tries to prevent)")
    save_artifact(artifact_dir, "ablation_packing.txt", "\n".join(lines))
    assert results[False][2] <= results[True][2]
