"""Per-pass timing smoke bench with a machine-readable result file.

Runs the staged pipeline over a mid-sized synthetic binary six ways —
single rewrite, verified rewrite, 3-config batch, serial-vs-parallel
8-config batch, chunked-vs-serial decode, cold-vs-warm artifact cache —
prints the per-pass wall-time breakdown, and writes every measurement
as JSON (default ``benchmarks/out/BENCH_passes.json``, schema
``repro-bench/1``).

``--large [PROFILE]`` switches to the browser-scale mode instead: it
decodes a 50-100 MB :class:`~repro.synth.profiles.LargeTextProfile`
section serially and chunked, requires both to be byte-identical to
each other *and* to a full ``decode_reference`` oracle walk, and writes
``benchmarks/out/BENCH_large.json`` (CI's scheduled ``bench-large``
job).

CI uses it twice: as a smoke job that exits nonzero if the pipeline or
its accounting regresses (success rate, shared decode, parallel
byte-identity, warm-cache decode count), and as the producer for the
``bench-gate`` job, which compares the JSON against the committed
baseline ``benchmarks/BENCH_passes.json`` (see ``bench_gate.py``).

``BENCH_INJECT_SLOWDOWN=<factor>`` multiplies every reported wall time
before writing — the documented way to prove the regression gate trips
(set it to 2, watch ``bench_gate.py`` fail, unset it).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import tempfile
import time

from repro.core.cache import ArtifactStore
from repro.core.observe import Observer
from repro.core.pipeline import RewriteOptions
from repro.core.strategy import TacticToggles
from repro.frontend.tool import instrument_elf, rewrite_many
from repro.synth.generator import SynthesisParams, synthesize

N_SITES = 2000
#: Sites per config for the parallel batch (kept lighter: 8 configs).
N_PARALLEL_SITES = 1000
PARALLEL_JOBS = 4
SCHEMA = "repro-bench/1"


def section(title: str, obs: Observer) -> None:
    print(f"== {title} ==")
    print(obs.format_timings())
    interesting = ("decode.instructions", "match.sites", "plan.sites",
                   "plan.trampoline_bytes", "plan.alloc_probes",
                   "group.physical_bytes", "emit.output_bytes",
                   "verify.sites")
    for name in interesting:
        if name in obs.counters:
            print(f"  {name} = {obs.counters[name]}")
    print()


def parallel_batch_configs() -> list[RewriteOptions]:
    """Eight distinct configurations over one binary."""
    return [
        RewriteOptions(granularity=g,
                       toggles=TacticToggles(t3=t3))
        for g in (1, 2, 4, 8) for t3 in (True, False)
    ]


def bench_serial_vs_parallel(data: bytes, jobs: int,
                             metrics: dict) -> str | None:
    """Measure the same 8-config batch serially and with *jobs* workers;
    any output byte difference is a hard failure."""
    from repro.core.parallel import BatchExecutor

    configs = parallel_batch_configs()
    # How many workers the pool can actually use here (folds in the CPU
    # count): the gate skips the speedup rule when this is <= 1, since a
    # serial-fallback host measures pure overhead, not parallelism.
    metrics["parallel.effective_workers"] = (
        BatchExecutor(jobs).effective_workers(len(configs)))

    t0 = time.perf_counter()
    serial = rewrite_many(data, list(configs), matcher="jumps", jobs=1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = rewrite_many(data, list(configs), matcher="jumps", jobs=jobs)
    parallel_s = time.perf_counter() - t0

    if [r.result.data for r in serial] != [r.result.data for r in parallel]:
        return "parallel batch output differs from serial"
    speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
    metrics["parallel.batch_configs"] = len(configs)
    metrics["parallel.jobs"] = jobs
    metrics["parallel.serial_s"] = serial_s
    metrics["parallel.parallel_s"] = parallel_s
    metrics["parallel.speedup"] = round(speedup, 3)
    cpus = os.cpu_count() or 1
    print(f"== serial vs parallel ({len(configs)} configs, "
          f"jobs={jobs}, cpus={cpus}) ==")
    print(f"serial   {serial_s:8.3f} s")
    print(f"parallel {parallel_s:8.3f} s   speedup {speedup:.2f}x")
    print()
    # The >=1.5x claim holds on multi-core hosts (the CI runners); a
    # single-core container can only run the determinism check.
    if cpus >= 4 and jobs >= 4 and speedup < 1.5:
        return f"parallel speedup {speedup:.2f}x < 1.5x on a {cpus}-cpu host"
    return None


def check_decode_identity(data: bytes, metrics: dict) -> str | None:
    """The fast-path decoder must agree with the reference oracle —
    fields, bytes, and error messages — on every instruction of the
    bench binary (see INTERNALS.md §7)."""
    from repro.errors import DecodeError
    from repro.x86.decoder import decode, decode_reference

    checked = mismatches = 0
    offset, n = 0, len(data)
    while offset < n:
        fast = ref = None
        fast_err = ref_err = None
        try:
            fast = decode(data, offset)
        except DecodeError as exc:
            fast_err = str(exc)
        try:
            ref = decode_reference(data, offset)
        except DecodeError as exc:
            ref_err = str(exc)
        if fast_err != ref_err or (fast is not None
                                   and (fast != ref or fast.raw != ref.raw)):
            mismatches += 1
        checked += 1
        if fast is not None:
            offset += fast.length
        elif ref is not None:
            offset += ref.length
        else:
            offset += 1
    metrics["decode.identity_checked"] = checked
    print(f"== decoder identity (fast vs reference) ==")
    print(f"{checked} instructions compared, {mismatches} mismatches")
    print()
    if mismatches:
        return (f"fast/reference decoder mismatch on {mismatches} of "
                f"{checked} instructions")
    return None


def bench_chunked(data: bytes, metrics: dict) -> str | None:
    """Chunked intra-binary decode vs the serial sweep: identical
    instruction starts required, throughput and boundary-reconciliation
    counters reported (see docs/PERF.md).  Skipped without numpy (the
    fast path is an optional extra; the scalar decoder has no chunked
    mode)."""
    from repro.x86.fastscan import HAVE_NUMPY, decode_stream

    if not HAVE_NUMPY:
        print("== chunked decode == skipped (numpy unavailable)\n")
        return None
    from repro.elf.reader import ElfFile

    # Tile the bench binary's .text to a few MB so per-chunk overhead
    # amortizes and the throughput number is stable run to run.
    text = bytes(ElfFile(data).section_view(".text"))
    text = text * max(1, (4 << 20) // len(text))

    t0 = time.perf_counter()
    serial = decode_stream(text)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    chunked = decode_stream(text, chunk_size=256 << 10)
    chunked_s = time.perf_counter() - t0

    metrics["chunked.decode_mb_s"] = (
        round(len(text) / chunked_s / 1e6, 3) if chunked_s else 0.0)
    metrics["chunked.chunks"] = chunked.chunks
    metrics["chunked.reconcile_steps"] = chunked.reconcile_retries
    print(f"== chunked decode ({len(text) >> 20} MB, {chunked.chunks} "
          f"chunks, {chunked.reconcile_retries} reconcile steps) ==")
    print(f"serial  {len(text) / serial_s / 1e6:8.2f} MB/s   "
          f"chunked {len(text) / chunked_s / 1e6:8.2f} MB/s")
    print()
    if chunked.start_offsets() != serial.start_offsets():
        return "chunked decode starts differ from the serial sweep"
    return None


def check_stream_reference_identity(blob, stream, metrics: dict,
                                    sample: int = 1000) -> str | None:
    """Walk ``decode_reference`` over the whole *blob* and require the
    stream to agree on every instruction boundary (plus full field
    equality on every *sample*-th instruction — boundaries already pin
    lengths, so sampling the deep compare keeps the walk O(reference)).

    Mirrors ``decode_buffer``'s error handling: a reference
    ``DecodeError`` is a 1-byte ``(bad)`` pseudo-instruction.
    """
    from repro.errors import DecodeError
    from repro.x86.decoder import decode_reference

    starts = stream.start_offsets()
    n = len(blob)
    off = i = mismatches = 0
    while off < n and i < len(starts):
        if starts[i] != off:
            mismatches += 1
            break
        try:
            ref = decode_reference(blob, off)
            length = ref.length
        except DecodeError:
            ref, length = None, 1
        if i % sample == 0:
            insn = stream[i]
            ok = (insn == ref and insn.raw == ref.raw) if ref is not None \
                else (insn.mnemonic == "(bad)" and len(insn.raw) == 1)
            if not ok:
                mismatches += 1
                break
        off += length
        i += 1
    if mismatches == 0 and (off != n or i != len(starts)):
        mismatches += 1  # one side ended early: boundary drift
    metrics["large.reference_checked"] = i
    print("== stream vs reference oracle ==")
    print(f"{i} instruction boundaries compared, {mismatches} mismatches")
    print()
    if mismatches:
        return (f"stream diverged from decode_reference at instruction "
                f"{i} (offset {off:#x})")
    return None


def bench_large(profile_name: str, metrics: dict) -> str | None:
    """The browser-scale section: serial + chunked decode of a
    ``LargeTextProfile`` (50-100 MB of synthetic code), identity-checked
    against the serial sweep *and* the reference oracle."""
    from repro.synth.profiles import LARGE_TEXT_PROFILES
    from repro.x86.fastscan import HAVE_NUMPY, decode_stream

    profile = LARGE_TEXT_PROFILES[profile_name]
    t0 = time.perf_counter()
    blob = profile.build()
    build_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    serial = decode_stream(blob)
    serial_s = time.perf_counter() - t0
    metrics["large.bytes"] = len(blob)
    metrics["large.build_s"] = build_s
    metrics["large.decode_mb_s"] = round(len(blob) / serial_s / 1e6, 3)
    print(f"== large decode ({profile.name}: {len(blob) >> 20} MB, "
          f"numpy={HAVE_NUMPY}) ==")
    print(f"build  {build_s:8.3f} s")
    print(f"serial {serial_s:8.3f} s   "
          f"{len(blob) / serial_s / 1e6:8.2f} MB/s")

    if HAVE_NUMPY:
        t0 = time.perf_counter()
        chunked = decode_stream(blob, chunk_size=8 << 20)
        chunked_s = time.perf_counter() - t0
        metrics["large.chunked_mb_s"] = round(len(blob) / chunked_s / 1e6, 3)
        metrics["large.chunks"] = chunked.chunks
        metrics["large.reconcile_steps"] = chunked.reconcile_retries
        print(f"chunked {chunked_s:7.3f} s   "
              f"{len(blob) / chunked_s / 1e6:8.2f} MB/s   "
              f"({chunked.chunks} chunks, "
              f"{chunked.reconcile_retries} reconcile steps)")
        print()
        if chunked.start_offsets() != serial.start_offsets():
            return "large chunked decode starts differ from serial sweep"
    else:
        print()

    return check_stream_reference_identity(blob, serial, metrics)


def bench_cache(data: bytes, metrics: dict) -> str | None:
    """Cold-vs-warm artifact cache; a warm run must do zero decode work."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cold_cache = ArtifactStore(tmp)
        obs_cold = Observer()
        t0 = time.perf_counter()
        cold = rewrite_many(data, [RewriteOptions()],
                            matcher="jumps", observer=obs_cold,
                            cache=cold_cache)
        cold_s = time.perf_counter() - t0

        warm_cache = ArtifactStore(tmp)
        obs_warm = Observer()
        t0 = time.perf_counter()
        warm = rewrite_many(data, [RewriteOptions()],
                            matcher="jumps", observer=obs_warm,
                            cache=warm_cache)
        warm_s = time.perf_counter() - t0

    if warm[0].result.data != cold[0].result.data:
        return "warm-cache output differs from cold run"
    warm_decode_runs = obs_warm.runs("decode") + obs_warm.runs("match")
    metrics["cache.cold_s"] = cold_s
    metrics["cache.warm_s"] = warm_s
    metrics["cache.warm_speedup"] = round(cold_s / warm_s, 3) if warm_s else 0.0
    metrics["cache.warm_decode_runs"] = warm_decode_runs
    metrics["cache.warm_hits"] = warm_cache.stats.hits
    print("== artifact cache (cold vs warm) ==")
    print(f"cold {cold_s:8.3f} s   warm {warm_s:8.3f} s   "
          f"warm hits {warm_cache.stats.hits}")
    print()
    if warm_decode_runs != 0:
        return f"warm cache ran {warm_decode_runs} decode/match passes"
    if warm_cache.stats.hits == 0:
        return "warm cache reported zero hits"
    return None


def write_result(path: pathlib.Path, metrics: dict) -> None:
    inject = float(os.environ.get("BENCH_INJECT_SLOWDOWN", "1") or "1")
    if inject != 1.0:
        def scale(k: str, v):
            if k.endswith(("_mb_s", "_sites_s")):
                return v / inject  # throughput falls when time grows
            if k.endswith("_s"):
                return v * inject
            return v

        metrics = {k: scale(k, v) for k, v in metrics.items()}
        print(f"(BENCH_INJECT_SLOWDOWN={inject}: wall times scaled)")
    payload = {
        "schema": SCHEMA,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count() or 1,
        },
        "metrics": {
            k: round(v, 6) if isinstance(v, float) else v
            for k, v in sorted(metrics.items())
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=None,
        help="result JSON path (schema repro-bench/1); defaults to "
        "benchmarks/out/BENCH_passes.json, or BENCH_large.json "
        "under --large",
    )
    parser.add_argument("--jobs", type=int, default=PARALLEL_JOBS,
                        help="worker count for the parallel section")
    parser.add_argument(
        "--large", nargs="?", const="bigtext-50", metavar="PROFILE",
        help="run ONLY the browser-scale decode section on the named "
        "LargeTextProfile (default bigtext-50): serial + chunked decode "
        "with a full reference-oracle identity walk",
    )
    args = parser.parse_args(argv)
    out = pathlib.Path(args.out) if args.out else (
        pathlib.Path(__file__).parent / "out"
        / ("BENCH_large.json" if args.large else "BENCH_passes.json"))

    metrics: dict = {}
    failures: list[str] = []

    if args.large:
        failure = bench_large(args.large, metrics)
        if failure:
            failures.append(failure)
        write_result(out, metrics)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("OK")
        return 0

    binary = synthesize(SynthesisParams(
        n_jump_sites=N_SITES, n_write_sites=N_SITES // 2, seed=4242))

    # Untimed warm-up: the first rewrite in a process pays one-off
    # costs (numpy ufunc initialization, allocator growth) that would
    # otherwise be billed to whichever pass runs first and swamp the
    # steady-state rates the gate tracks.
    instrument_elf(binary.data, "jumps")

    obs = Observer()
    t0 = time.perf_counter()
    report = instrument_elf(binary.data, "jumps",
                            options=RewriteOptions(),
                            observer=obs)
    metrics["single.total_s"] = time.perf_counter() - t0
    for name in ("decode", "match", "plan", "group", "emit"):
        metrics[f"single.{name}_s"] = obs.timings.get(name, 0.0)
    throughput = obs.throughput()
    metrics["single.decode_mb_s"] = throughput.get("decode_mb_s", 0.0)
    metrics["single.plan_sites_s"] = throughput.get("plan_sites_s", 0.0)
    metrics["single.alloc_span_visits"] = throughput.get(
        "alloc_span_visits", 0)
    metrics["single.succ_pct"] = round(report.stats.success_pct, 3)
    if report.stats.success_pct <= 99.0:
        failures.append("success rate regressed")
    section(f"single rewrite ({report.n_sites} sites, loader mode)", obs)

    obs = Observer()
    t0 = time.perf_counter()
    instrument_elf(binary.data, "jumps",
                   options=RewriteOptions(verify=True),
                   observer=obs)
    metrics["verified.total_s"] = time.perf_counter() - t0
    metrics["verified.verify_s"] = obs.timings.get("verify", 0.0)
    if obs.counters.get("verify.sites", 0) == 0:
        failures.append("verify pass checked no sites")
    section("verified rewrite", obs)

    obs = Observer()
    t0 = time.perf_counter()
    rewrite_many(
        binary.data,
        [RewriteOptions(),
         RewriteOptions(grouping=False),
         RewriteOptions(toggles=TacticToggles(t3=False))],
        matcher="jumps", observer=obs,
    )
    metrics["batch3.total_s"] = time.perf_counter() - t0
    if obs.runs("decode") != 1 or obs.runs("plan") != 3:
        failures.append("batch rewrite did not share the decode pass")
    section("3-config batch (decode/match shared)", obs)

    parallel_binary = synthesize(SynthesisParams(
        n_jump_sites=N_PARALLEL_SITES,
        n_write_sites=N_PARALLEL_SITES // 2, seed=1717))
    failure = bench_serial_vs_parallel(parallel_binary.data, args.jobs,
                                       metrics)
    if failure:
        failures.append(failure)

    failure = bench_chunked(binary.data, metrics)
    if failure:
        failures.append(failure)

    failure = bench_cache(binary.data, metrics)
    if failure:
        failures.append(failure)

    failure = check_decode_identity(binary.data, metrics)
    if failure:
        failures.append(failure)

    write_result(out, metrics)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
