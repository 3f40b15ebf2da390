"""What the real-binary benchmark measures: workloads, metrics, layers.

This module is the single source of the metric vocabulary.  The
repository's ``BENCHMARK.json`` is generated from it
(``python3 perfbench/run.py --write-benchmark-json``) and the self-test
checks that the two agree and that a run emits every metric with its
unit.  Names follow the rewriter's own ``--json``/``repro-bench/1``
counter vocabulary (``decode.instructions``, ``plan.tactic.B1``,
``group.blocks`` ...).
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS = [
    {
        "name": "sysbin",
        "why": "common real input class (true, ls, gzip, objdump, as; "
               "-M jumps -i empty): sites are >=98% B1/B2, so the direct "
               "tactic, the allocator and per-input fixed costs dominate",
    },
    {
        "name": "sqlite-so",
        "why": "largest input that completes and runs natively: "
               "libsqlite3.so.0 in shared mode, 35k sites with 17% T1-T3, "
               "so eviction, pun windows and grouping's first-fit dominate",
    },
    {
        "name": "as-slim",
        "why": "only workload with liveness, lint and non-empty "
               "instrumentation (PIC counters in as); sysbin and sqlite-so "
               "are its bypass",
    },
]

# (name, unit, better, bound).  Deterministic metrics get tight bounds.
# Rewrite time is bounded as a ratio to the benchmark's own reference
# job, timed right around each repetition (run.reference_job): on a
# shared 2-CPU VM the speed of identical code stays up to 1.7x lower
# for a whole run at a time, so medians of rewrite seconds spread by
# 12-27% between runs and are reported per layer, unbounded.
# native_overhead alternates original and rewritten runs, so it needs
# no reference; setup_s, timed from fresh interpreters, must stay in
# seconds and gets the largest bound.
END_TO_END = [
    ("rewrite_rel", "ratio", "lower", 0.25),
    ("rewrite_rel_tail", "ratio", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
    ("site_success_pct", "%", "higher", 0.01),
    ("size_pct", "%", "lower", 0.02),
    ("inputs_ok_pct", "%", "higher", 0.01),
    ("native_overhead", "ratio", "lower", 0.25),
    ("native_ok_pct", "%", "higher", 0.01),
]

# Per-layer metrics, grouped by the module (layer) they measure.  Each
# group records the end-to-end metrics it should move and where; the
# traced run (--trace 1) reports every one of them on every workload.
LAYERS = {
    "x86/frontend.lineardisasm": {
        "moves": "rewrite_s; decode is <=4% of every workload, so no "
                 "visible change is predicted",
        "metrics": [
            ("decode.s", "s", "lower"),
            ("decode_mb_s", "MB/s", "higher"),
            ("decode.instructions", "count", "higher"),
            ("decode.endbr_offsync", "count", "lower"),
            ("decode.rss_delta_mb", "MB", "lower"),
        ],
    },
    "frontend.matchers": {
        "moves": "rewrite_s; predicted flat everywhere",
        "metrics": [
            ("match.s", "s", "lower"),
            ("match.sites", "count", "higher"),
            ("match.rss_delta_mb", "MB", "lower"),
        ],
    },
    "core.strategy/tactics/puns": {
        "moves": "rewrite_s and sites_per_s (direct: mostly sysbin; "
                 "evict: sqlite-so, flat on sysbin); site_success_pct",
        "metrics": [
            ("plan.s", "s", "lower"),
            ("plan.self_s", "s", "lower"),
            ("plan_sites_s", "sites/s", "higher"),
            ("plan.tactic.B1", "count", "higher"),
            ("plan.tactic.B2", "count", "higher"),
            ("plan.tactic.T1", "count", "higher"),
            ("plan.tactic.T2", "count", "higher"),
            ("plan.tactic.T3", "count", "higher"),
            ("plan.tactic.B0", "count", "lower"),
            ("plan.failed", "count", "lower"),
            ("plan.b0_pct", "%", "lower"),
            ("plan.direct.calls", "count", "lower"),
            ("plan.direct.s", "s", "lower"),
            ("plan.direct.ok_ratio", "ratio", "higher"),
            ("plan.evict.calls", "count", "lower"),
            ("plan.evict.s", "s", "lower"),
            ("plan.evict.ok_ratio", "ratio", "higher"),
            ("plan.int3.calls", "count", "lower"),
            ("plan.pun_cache_hit_ratio", "ratio", "higher"),
            ("plan.rss_delta_mb", "MB", "lower"),
        ],
    },
    "core.allocator": {
        "moves": "rewrite_s on all three, growing with site count "
                 "(sqlite-so)",
        "metrics": [
            ("plan.alloc.calls", "count", "lower"),
            ("plan.alloc.s", "s", "lower"),
            ("plan.alloc.fail_ratio", "ratio", "lower"),
            ("plan.alloc_span_visits", "count", "lower"),
        ],
    },
    "core.trampoline": {
        "moves": "rewrite_s on as-slim; size_pct and native_overhead on "
                 "all three",
        "metrics": [
            ("plan.tramp.calls", "count", "lower"),
            ("plan.tramp.s", "s", "lower"),
            ("plan.trampoline_bytes", "B", "lower"),
        ],
    },
    "analysis.liveness": {
        "moves": "rewrite_s, size_pct and native_overhead on as-slim "
                 "only; zero elsewhere",
        "metrics": [
            ("plan.liveness.calls", "count", "lower"),
            ("plan.liveness_s", "s", "lower"),
            ("plan.trampoline_saved_bytes", "B", "higher"),
        ],
    },
    "core.grouping": {
        "moves": "rewrite_s through group.admit_s (sqlite-so most, then "
                 "sysbin, as-slim); native_overhead through "
                 "group.mappings (startup mmaps, mostly sysbin)",
        "metrics": [
            ("group.s", "s", "lower"),
            ("group.self_s", "s", "lower"),
            ("group.split_s", "s", "lower"),
            ("group.admit_s", "s", "lower"),
            ("group.blocks", "count", "lower"),
            ("group.groups", "count", "lower"),
            ("group.mappings", "count", "lower"),
            ("group.physical_bytes", "B", "lower"),
            ("group.rss_delta_mb", "MB", "lower"),
        ],
    },
    "elf (writer/loader/dynamic) + EmitPass": {
        "moves": "size_pct, and rewrite_s (small)",
        "metrics": [
            ("emit.s", "s", "lower"),
            ("emit.self_s", "s", "lower"),
            ("emit.loader_s", "s", "lower"),
            ("emit.output_bytes", "B", "lower"),
            ("emit.segments", "count", "lower"),
            ("emit.rss_delta_mb", "MB", "lower"),
        ],
    },
    "analysis.lint": {
        "moves": "rewrite_s on as-slim only",
        "metrics": [
            ("lint.s", "s", "lower"),
            ("lint.findings", "count", "lower"),
            ("lint.rss_delta_mb", "MB", "lower"),
        ],
    },
    "VerifyPass": {
        "moves": "rewrite_s (~10% on all)",
        "metrics": [
            ("verify.s", "s", "lower"),
            ("verify.rss_delta_mb", "MB", "lower"),
        ],
    },
    "rewrite (outside every pass) + tracing": {
        "moves": "rewrite_rel, through absolute rewrite seconds; the "
                 "reference job's seconds show the host's speed, the "
                 "unaccounted remainder is work no traced layer covers, "
                 "the overhead is what tracing itself costs",
        "metrics": [
            ("rewrite_s", "s", "lower"),
            ("rewrite_s_tail", "s", "lower"),
            ("sites_per_s", "sites/s", "higher"),
            ("reference_s", "s", "lower"),
            ("rewrite.traced_s", "s", "lower"),
            ("rewrite.unaccounted_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("trace.overhead_pct", "%", "lower"),
            ("trace.spans", "count", "lower"),
        ],
    },
    "native (rewritten program run natively)": {
        "moves": "native_overhead",
        "metrics": [
            ("native.orig_s", "s", "lower"),
            ("native.rewritten_s", "s", "lower"),
            ("native.orig_startup_s", "s", "lower"),
            ("native.startup_s", "s", "lower"),
        ],
    },
}

PER_LAYER = [m for layer in LAYERS.values() for m in layer["metrics"]]


def benchmark_json() -> dict:
    """The repository's ``BENCHMARK.json`` contents."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [dict(w) for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
