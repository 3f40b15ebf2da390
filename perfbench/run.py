"""Real-binary rewrite benchmark.

Rewrites pinned ELF files installed on the host through the same public
API the ``e9patch`` CLI uses (``instrument_elf`` -> ``rewrite_many`` ->
``prepare_binary``, serial, one process), checks every output, runs the
rewritten programs natively against the originals on seeded inputs, and
prints every metric by name with its unit.  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root)::

    python3 perfbench/run.py --workload sysbin --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-benchmark-json

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from rewrites traced span by span (see tracing.py),
with the untraced rewrite time alongside so the tracing overhead shows.
Workloads, metrics and the layer map live in spec.py; pinned inputs,
recorded output hashes and the known-failure ledger in corpus.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import native  # noqa: E402
import spec  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

# Share of --seconds spent repeating the rewrite; the rest runs the
# native differential.
REWRITE_SHARE = 0.75
MIN_REPS = 3
SETUP_SAMPLES = 5
SETUP_IMPORT = ("import repro.frontend.tool, repro.analysis.lint, "
                "repro.analysis.liveness")


@dataclass(frozen=True)
class Target:
    """One pinned input and how the workload rewrites it."""

    key: str  # corpus.json input key
    install: str  # where the output goes, relative to the run directory
    instrumentation: str = "empty"
    options: dict = field(default_factory=dict)


SYSBIN = ("true", "ls", "gzip", "objdump", "as")
LOADER = {"mode": "loader", "verify": True}
SQLITE_LIB = "lib/libsqlite3.so.0"
TARGETS = {
    "sysbin": [Target(k, f"bin/{k}", options=LOADER) for k in SYSBIN],
    # The library path is relative, so the output bytes do not depend on
    # where the checkout lives; native runs start in the run directory.
    "sqlite-so": [Target("libsqlite3", SQLITE_LIB, options=dict(
        LOADER, shared=True, library_path=SQLITE_LIB))],
    "as-slim": [Target("as", "bin/as", instrumentation="counter",
                       options=dict(LOADER, liveness=True, lint=True))],
}


@functools.cache
def load_corpus() -> dict:
    """Pinned inputs, recorded output hashes and the known-failure ledger."""
    with open(BENCH / "corpus.json") as f:
        return json.load(f)


def corpus_path(key: str) -> str:
    return load_corpus()["inputs"][key]["path"]


def pin_problem(targets: list[Target], corpus: dict) -> str | None:
    """Why a pinned input cannot be used (missing or changed), or None."""
    for t in targets:
        pin = corpus["inputs"][t.key]
        path = pin["path"]
        if not os.path.exists(path):
            return f"input {t.key} ({path}) is missing"
        data = Path(path).read_bytes()
        if len(data) != pin["size"] or checks.sha256(data) != pin["sha256"]:
            return (f"input {t.key} ({path}) changed: size {len(data)}, "
                    f"sha256 {checks.sha256(data)}; pinned size "
                    f"{pin['size']}, sha256 {pin['sha256']}")
    return None


# -- set-up time --------------------------------------------------------


def measure_setup() -> list[float]:
    """Wall time from a fresh interpreter to ``repro`` imported and ready
    (fastscan's import-time tables included), several times."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_IMPORT]
    # Untimed first import: writes bytecode caches in a fresh checkout.
    subprocess.run(cmd, env=env, check=True, timeout=120)
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120)
        samples.append(time.perf_counter() - start)
    return samples


# -- host-speed yardstick -------------------------------------------------


def reference_job() -> float:
    """Wall time of a fixed pure-Python job doing the rewriter's kind of
    work: dict, list, sort and bytes operations.

    The host's speed can stay 1.7x slower for half a minute or more, so
    whole runs of identical code differ that much in absolute time.
    The time of the rewrites next to the jobs run before and after them
    tracks the host's speed (correlation 0.87 measured over 2.5 minutes),
    so the ratio of the two stays steady where seconds do not.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for chunk in range(15):  # in chunks: the job must not raise peak RSS
        values = []
        for i in range(chunk * 100_000, (chunk + 1) * 100_000):
            key = (i * 2654435761) & 0xFFFF
            table[key] = table.get(key, 0) + 1
            values.append(key ^ i)
        values.sort()
        blob = b"".join(v.to_bytes(4, "little") for v in values[::3])
        blob.count(b"\x00\x01")
    return time.perf_counter() - start


# -- rewriting ------------------------------------------------------------


@dataclass
class Rep:
    seconds: float
    hashes: dict[str, str]
    errors: list[str]
    reports: dict = field(default_factory=dict)


def rewrite_all(targets, inputs, tracer: Tracer | None = None,
                keep: bool = False) -> Rep:
    """Rewrite every input once; time the rewrites alone.  The reports
    are returned only with *keep*: a timed repetition frees them, so
    every repetition starts from the same heap."""
    from repro.core.pipeline import RewriteOptions
    from repro.errors import ReproError
    from repro.frontend.tool import instrument_elf

    reports, errors = {}, []
    gc.collect()
    uninstall = tracer.install() if tracer else None
    try:
        start = time.perf_counter()
        root = tracer.open_span("rewrite") if tracer else None
        for t in targets:
            try:
                reports[t.key] = instrument_elf(
                    inputs[t.key], "jumps", t.instrumentation,
                    RewriteOptions(**t.options))
            except ReproError as exc:
                errors.append(f"{t.key}: {type(exc).__name__}: {exc}")
        if tracer:
            tracer.close_span(root)
        seconds = time.perf_counter() - start
    finally:
        if uninstall:
            uninstall()
    hashes = {k: checks.sha256(r.result.data) for k, r in reports.items()}
    return Rep(seconds, hashes, errors, reports if keep else {})


@dataclass
class Facts:
    """What the metrics need from the first repetition's reports, kept so
    the reports themselves are freed before the timed repetitions."""

    counters: Counter
    sites: int
    jump_patched: int  # sites patched by B1/B2/T1/T2/T3
    input_bytes: int
    output_bytes: int
    mappings: int

    @classmethod
    def of(cls, reports: dict) -> "Facts":
        from repro.core.tactics import Tactic

        counters: Counter = Counter()
        for r in reports.values():
            counters.update(r.counters)
        return cls(
            counters=counters,
            sites=sum(r.n_sites for r in reports.values()),
            jump_patched=sum(r.stats.succeeded - r.stats.count(Tactic.B0)
                             for r in reports.values()),
            input_bytes=sum(r.result.input_size for r in reports.values()),
            output_bytes=sum(r.result.output_size for r in reports.values()),
            mappings=sum(r.result.grouping.mapping_count
                         for r in reports.values()
                         if r.result.grouping is not None),
        )


def check_outputs(rep: Rep) -> list[str]:
    """Independent checks of one repetition's output files."""
    problems = list(rep.errors)
    for key, report in rep.reports.items():
        if report.n_sites == 0:
            problems.append(f"{key}: no sites matched")
        for err in checks.site_chain_errors(report.result):
            problems.append(f"{key}: {err}")
    return problems


def install_outputs(rep: Rep, targets, run_dir: Path) -> None:
    for t in targets:
        report = rep.reports.get(t.key)
        if report is None:
            continue
        path = run_dir / t.install
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(report.result.data)
        path.chmod(0o755)


# -- native differential ----------------------------------------------------


def native_cases(workload: str, run_dir: Path, seed: int, keys):
    """Generate the seeded inputs; return (cases, startup case)."""
    rng = random.Random(seed)
    py = [sys.executable, "-I", "-S"]
    C = native.Command

    def tool(key, *args, outfile=None, name=None):
        return native.Case(
            name or key, C([corpus_path(key), *args]),
            C([str(run_dir / "bin" / key), *args]), outfile)

    if workload == "sysbin":
        native.make_tree(str(run_dir / "tree"), rng)
        native.make_text(str(run_dir / "text.txt"), rng)
        native.make_asm(str(run_dir / "prog.s"), rng)
        # objdump's input: an object the original assembler builds.
        subprocess.run([corpus_path("as"), "-o", "obj.o", "prog.s"],
                       cwd=run_dir, check=True, timeout=60)
        cases = [
            tool("ls", "-lR", "tree"),
            tool("gzip", "-c", "text.txt"),
            tool("objdump", "-d", "obj.o"),
            tool("as", "-o", "out.o", "prog.s", outfile="out.o"),
        ]
        # The self-test's tiny run keeps only true: it is then its own case.
        cases = [c for c in cases if c.name in keys] or [tool("true")]
        return cases, tool("true", name="startup")
    if workload == "sqlite-so":
        native.make_sql(str(run_dir / "query.sql"), rng)
        lib = {"LD_LIBRARY_PATH": str((run_dir / SQLITE_LIB).parent)}
        script = str(BENCH / "sql_query.py")
        sql = native.Case("sql", C(py + [script, "query.sql"]),
                          C(py + [script, "query.sql"], lib))
        load = py + ["-c", "import sqlite3"]
        return [sql], native.Case("startup", C(load), C(load, lib))
    native.make_asm(str(run_dir / "prog.s"), rng, functions=2000)
    return ([tool("as", "-o", "out.o", "prog.s", outfile="out.o")],
            tool("as", "--version", name="startup"))


# -- metrics ----------------------------------------------------------------


def layer_metrics(summaries: list[dict], facts: Facts, tracer_rss: dict,
                  untraced: list[float], traced: list[float], refs,
                  spans: int, natives: native.NativeResult,
                  startup_name: str, case_names, offsync: int) -> dict:
    """Every per-layer metric of spec.PER_LAYER, by name."""
    counters = facts.counters

    def med(layer: str, key: str) -> float:
        return statistics.median(s.get(layer, {}).get(key, 0.0)
                                 for s in summaries)

    def ratio(layer: str, which: str) -> float:
        calls = med(layer, "calls")
        ok = med(layer, "ok")
        if calls == 0:
            return 0.0
        return (ok if which == "ok" else calls - ok) / calls

    tactic = {name: counters[f"plan.tactic.{name}"]
              for name in ("B1", "B2", "T1", "T2", "T3", "B0")}
    sites = counters["plan.sites"]
    failed = counters["plan.failed"]
    hits = counters["plan.pun_cache_hits"]
    misses = counters["plan.pun_cache_misses"]
    decode_s = med("decode", "total_s")
    plan_s = med("plan", "total_s")
    untraced_s = statistics.median(untraced)
    traced_s = statistics.median(traced)
    m = {
        "decode.s": decode_s,
        "decode_mb_s": (counters["decode.bytes"] / 1e6 / decode_s
                        if decode_s else 0.0),
        "decode.instructions": counters["decode.instructions"],
        "decode.endbr_offsync": offsync,
        "match.s": med("match", "total_s"),
        "match.sites": counters["match.sites"],
        "plan.s": plan_s,
        "plan.self_s": med("plan", "self_s"),
        "plan_sites_s": sites / plan_s if plan_s else 0.0,
        **{f"plan.tactic.{k}": v for k, v in tactic.items()},
        "plan.failed": failed,
        "plan.b0_pct": 100.0 * (tactic["B0"] + failed) / sites if sites else 0.0,
        "plan.direct.calls": med("plan.direct", "calls"),
        "plan.direct.s": med("plan.direct", "self_s"),
        "plan.direct.ok_ratio": ratio("plan.direct", "ok"),
        "plan.evict.calls": med("plan.evict", "calls"),
        "plan.evict.s": med("plan.evict", "self_s"),
        "plan.evict.ok_ratio": ratio("plan.evict", "ok"),
        "plan.int3.calls": med("plan.int3", "calls"),
        "plan.pun_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "plan.alloc.calls": med("plan.alloc", "calls"),
        "plan.alloc.s": med("plan.alloc", "self_s"),
        "plan.alloc.fail_ratio": ratio("plan.alloc", "fail"),
        "plan.alloc_span_visits": counters["plan.alloc_span_visits"],
        "plan.tramp.calls": med("plan.tramp", "calls"),
        "plan.tramp.s": med("plan.tramp", "self_s"),
        "plan.trampoline_bytes": counters["plan.trampoline_bytes"],
        "plan.liveness.calls": med("plan.liveness", "calls"),
        "plan.liveness_s": med("plan.liveness", "self_s"),
        "plan.trampoline_saved_bytes": counters["plan.trampoline_saved_bytes"],
        "group.s": med("group", "total_s"),
        "group.self_s": med("group", "self_s"),
        "group.split_s": med("group.split", "self_s"),
        "group.admit_s": med("group.admit", "self_s"),
        "group.blocks": counters["group.blocks"],
        "group.groups": counters["group.groups"],
        "group.mappings": facts.mappings,
        "group.physical_bytes": counters["group.physical_bytes"],
        "emit.s": med("emit", "total_s"),
        "emit.self_s": med("emit", "self_s"),
        "emit.loader_s": med("emit.loader", "self_s"),
        "emit.output_bytes": counters["emit.output_bytes"],
        "emit.segments": counters["emit.segments"],
        "lint.s": med("lint", "total_s"),
        "lint.findings": (counters["lint.errors"]
                          + counters["lint.warnings"]),
        "verify.s": med("verify", "total_s"),
        "rewrite_s": untraced_s,
        "rewrite_s_tail": max(untraced),
        "sites_per_s": facts.sites / untraced_s,
        "reference_s": statistics.median(refs),
        "rewrite.traced_s": traced_s,
        "rewrite.unaccounted_s": med("rewrite", "self_s"),
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        "trace.spans": spans,
        "native.orig_s": natives.means(natives.orig_s, case_names),
        "native.rewritten_s": natives.means(natives.new_s, case_names),
        "native.orig_startup_s": natives.means(natives.orig_s, [startup_name]),
        "native.startup_s": natives.means(natives.new_s, [startup_name]),
    }
    for layer in ("decode", "match", "plan", "group", "emit", "lint", "verify"):
        m[f"{layer}.rss_delta_mb"] = tracer_rss.get(layer, 0.0)
    return m


# -- one run ------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 only=None, log=print) -> dict:
    targets = [t for t in TARGETS[workload] if only is None or t.key in only]
    inputs = {t.key: Path(corpus_path(t.key)).read_bytes() for t in targets}
    setup = measure_setup()

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        return _run(workload, seed, seconds, trace, targets, inputs, setup,
                    run_dir, log)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(workload, seed, seconds, trace, targets, inputs, setup, run_dir,
         log) -> dict:
    from repro.frontend.tool import prepare_binary

    # The first repetition is a timed sample like the rest (a CLI user
    # pays its first-call costs on every run), and its outputs are the
    # ones checked in depth and run natively.  Untraced, it gives the
    # peak RSS of a process that rewrote the workload once; traced, the
    # per-pass peak-RSS rises of a fresh process.
    first_tracer = Tracer(rss=True) if trace else None
    refs = [reference_job()]
    first = rewrite_all(targets, inputs, first_tracer, keep=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    refs.append(reference_job())
    problems = check_outputs(first)
    failed = len({p.split(":")[0] for p in problems})
    input_ok = {t.key: t.key in first.reports
                and not any(p.startswith(f"{t.key}:") for p in problems)
                for t in targets}
    install_outputs(first, targets, run_dir)
    facts = Facts.of(first.reports)
    first.reports = {}
    offsync = 0
    for t in targets:
        ctx = prepare_binary(inputs[t.key])
        offsync += checks.endbr_offsync(ctx.elf, ctx.instructions)
    del ctx
    attempted = len(targets)

    # More repetitions until the rewrite share of --seconds is used; a
    # traced run alternates untraced and traced ones.
    # Every repetition is followed by a reference job; an untraced one is
    # also timed relative to the jobs on either side of it.
    untraced, traced, summaries, rel = [], [], [], []
    if trace:
        traced.append(first.seconds)
        summaries.append(summarize(first_tracer.spans, 0))
    else:
        untraced.append(first.seconds)
        rel.append(first.seconds / statistics.fmean(refs))
    last_tracer = first_tracer
    costs = [first.seconds + refs[1]]
    budget = REWRITE_SHARE * seconds - refs[0] - costs[0]
    start = time.perf_counter()
    while True:
        done = untraced + traced
        if (len(done) >= MIN_REPS and time.perf_counter() - start
                + statistics.median(costs) > budget):
            break
        tracer = Tracer() if trace and len(traced) <= len(untraced) else None
        rep = rewrite_all(targets, inputs, tracer)
        refs.append(reference_job())
        costs.append(rep.seconds + refs[-1])
        attempted += len(targets)
        (traced if tracer else untraced).append(rep.seconds)
        if tracer:
            summaries.append(summarize(tracer.spans, 0))
            last_tracer = tracer
        else:
            rel.append(rep.seconds / statistics.fmean(refs[-2:]))
        problems += rep.errors
        failed += len(rep.errors)
        for key, ok in input_ok.items():
            if ok and rep.hashes.get(key) != first.hashes.get(key):
                input_ok[key] = False
                failed += 1
                problems.append(
                    f"{key}: output of repetition {len(done) + 1} "
                    f"({'traced' if tracer else 'untraced'}) differs from "
                    "the first")

    cases, startup = native_cases(workload, run_dir, seed,
                                  {t.key for t in targets})
    base_env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
                "LC_ALL": "C", "TMPDIR": str(run_dir), "HOME": str(run_dir)}
    natives = native.differential(cases, startup, str(run_dir), base_env,
                                  (1 - REWRITE_SHARE) * seconds)
    attempted += natives.runs
    failed += natives.failed
    problems += natives.mismatches
    names = [c.name for c in cases]

    log(f"workload {workload} seed {seed}: {len(targets)} inputs, "
        f"{len(untraced)} untraced + {len(traced)} traced timed "
        f"repetitions, {natives.runs} native runs")
    recorded = load_corpus()["outputs"].get(workload, {})
    for key, digest in first.hashes.items():
        verdict = ("same as recorded" if recorded.get(key) == digest
                   else f"recorded {recorded.get(key)}")
        log(f"  output {key}: sha256 {digest} ({verdict})")
    log(f"  decode.endbr_offsync {offsync} (0 expected)")
    for name in names + [startup.name]:
        orig, new = natives.orig_s[name], natives.new_s[name]
        log(f"  native {name}: original {statistics.fmean(orig):.4f} s "
            f"(mean of {len(orig)}), rewritten {statistics.fmean(new):.4f} s "
            f"(mean of {len(new)})")
    for p in problems[:20]:
        log(f"  PROBLEM {p}")

    if trace:
        path = WORK / f"trace-{workload}-seed{seed}.jsonl"
        last_tracer.dump(str(path))
        log(f"  spans of the last traced repetition: {path.relative_to(ROOT)}")
        metrics = layer_metrics(summaries, facts, first_tracer.rss_rise,
                                untraced, traced, refs, len(last_tracer.spans),
                                natives, startup.name, names, offsync)
        units = {n: u for n, u, _ in spec.PER_LAYER}
    else:
        # A run holds 3-10 repetitions: too few for a percentile with
        # ten samples beyond it to sit above the median, so the tail
        # reported is the slowest repetition.
        log(f"  rewrite s of {len(untraced)} repetitions: "
            + " ".join(f"{t:.3f}" for t in untraced))
        log("  reference job s: " + " ".join(f"{t:.3f}" for t in refs))
        log("  rewrite / reference: " + " ".join(f"{r:.3f}" for r in rel))
        metrics = {
            "rewrite_rel": statistics.median(rel),
            "rewrite_rel_tail": max(rel),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
            "site_success_pct": 100.0 * facts.jump_patched / facts.sites,
            "size_pct": 100.0 * facts.output_bytes / facts.input_bytes,
            "inputs_ok_pct": 100.0 * sum(input_ok.values()) / len(input_ok),
            "native_overhead": natives.overhead(names),
            "native_ok_pct": (100.0 * (natives.runs - natives.failed)
                              / natives.runs),
        }
        units = {n: u for n, u, _, _ in spec.END_TO_END}
    return {
        "correct": not problems and all(input_ok.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }


# -- self-test ------------------------------------------------------------------


def self_test() -> int:
    """Check the benchmark itself: BENCHMARK.json matches spec.py, a tiny
    run on ``true`` emits every named metric with its unit, and a
    corrupted output fails the correctness check."""
    failures = []
    with open(ROOT / "BENCHMARK.json") as f:
        if json.load(f) != spec.benchmark_json():
            failures.append("BENCHMARK.json differs from spec.py "
                            "(run --write-benchmark-json)")
    for trace, wanted in ((False, [(n, u) for n, u, _, _ in spec.END_TO_END]),
                          (True, [(n, u) for n, u, _ in spec.PER_LAYER])):
        result = run_workload("sysbin", 1, 1.0, trace, only={"true"},
                              log=lambda *_: None)
        got = [(n, m["unit"]) for n, m in result["metrics"].items()]
        if sorted(got) != sorted(wanted):
            failures.append(f"trace {int(trace)}: metrics {sorted(got)} != "
                            f"{sorted(wanted)}")
        if not result["correct"]:
            failures.append(f"trace {int(trace)}: tiny run not correct")

    target = TARGETS["sysbin"][0]
    rep = rewrite_all([target], {"true": Path(corpus_path("true")).read_bytes()},
                      keep=True)
    report = rep.reports["true"]
    if checks.site_chain_errors(report.result):
        failures.append("clean output of true fails the site check")
    from repro.elf.reader import ElfFile

    patch = report.result.plan.patches[0]
    corrupted = bytearray(report.result.data)
    corrupted[ElfFile(report.result.data).vaddr_to_offset(patch.site + 1)] ^= 0xFF
    bad = dataclasses.replace(report.result, data=bytes(corrupted))
    if not checks.site_chain_errors(bad):
        failures.append("a flipped byte at a patched site passed the check")

    for f in failures:
        print(f"self-test FAILED: {f}")
    print("self-test ok" if not failures else "self-test failed")
    return 1 if failures else 0


# -- entry point ------------------------------------------------------------------


def ledger_lines(corpus: dict) -> list[str]:
    return [f"known failure (not run): {e['input']} ({e['path']}, "
            f"{e['options']}): {e['outcome']}; re-admitted by {e['readmit']}"
            for e in corpus["known_failures"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(TARGETS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        with open(ROOT / "BENCHMARK.json", "w") as f:
            json.dump(spec.benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"error: no rewriter sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")

    problem = pin_problem(TARGETS[args.workload], load_corpus())
    if problem:
        print(f"skip {args.workload}: {problem}")
        return 3
    for line in ledger_lines(load_corpus()):
        print(line)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
