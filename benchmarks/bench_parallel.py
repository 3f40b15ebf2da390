"""Worker-scaling bench: 1/2/4 workers, cold vs warm artifact cache.

For each worker count, rewrites the synthetic corpus (two binaries x
eight configurations) twice: once against a fresh cache directory
(cold — every worker pays for its own decode) and once against the
populated cache (warm — decode and match come off disk).  Outputs must
be byte-identical across every worker count; the wall times land in
``benchmarks/out/BENCH_parallel.json`` using the same ``repro-bench/1``
schema the bench gate consumes.

Usage: ``python benchmarks/bench_parallel.py [--jobs 1 2 4] [--sites N]``
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
from repro.core.pipeline import RewriteOptions
from repro.core.strategy import TacticToggles
from repro.frontend.tool import rewrite_many
from repro.synth.generator import SynthesisParams, synthesize

SCHEMA = "repro-bench/1"
DEFAULT_SITES = 1000


def corpus(sites: int) -> list[bytes]:
    """Two synthetic binaries with different shapes/seeds."""
    return [
        synthesize(SynthesisParams(
            n_jump_sites=sites, n_write_sites=sites // 2, seed=91)).data,
        synthesize(SynthesisParams(
            n_jump_sites=sites // 2, n_write_sites=sites, seed=92)).data,
    ]


def configs() -> list[RewriteOptions]:
    return [
        RewriteOptions(granularity=g,
                       toggles=TacticToggles(t3=t3))
        for g in (1, 2, 4, 8) for t3 in (True, False)
    ]


def run_corpus(binaries: list[bytes], jobs: int,
               cache: ArtifactStore | None) -> tuple[float, list[bytes]]:
    """(wall seconds, concatenated output bytes) for one full sweep."""
    t0 = time.perf_counter()
    outputs: list[bytes] = []
    for data in binaries:
        reports = rewrite_many(data, configs(), matcher="jumps",
                               jobs=jobs, cache=cache)
        outputs.extend(r.result.data for r in reports)
    return time.perf_counter() - t0, outputs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--sites", type=int, default=DEFAULT_SITES)
    parser.add_argument(
        "--out", default=str(pathlib.Path(__file__).parent
                             / "out" / "BENCH_parallel.json"),
    )
    args = parser.parse_args(argv)

    binaries = corpus(args.sites)
    n_tasks = len(binaries) * len(configs())
    metrics: dict = {"corpus.binaries": len(binaries),
                     "corpus.tasks": n_tasks}
    reference: list[bytes] | None = None

    print(f"corpus: {len(binaries)} binaries x {len(configs())} configs "
          f"({n_tasks} rewrites), cpus={os.cpu_count()}")
    for jobs in args.jobs:
        with tempfile.TemporaryDirectory(prefix="repro-bench-par-") as tmp:
            cold_s, outputs = run_corpus(binaries, jobs, ArtifactStore(tmp))
            warm_s, warm_outputs = run_corpus(binaries, jobs,
                                              ArtifactStore(tmp))
        if reference is None:
            reference = outputs
        if outputs != reference or warm_outputs != reference:
            print(f"FAIL: jobs={jobs} output differs from jobs="
                  f"{args.jobs[0]}", file=sys.stderr)
            return 1
        metrics[f"jobs{jobs}.cold_s"] = cold_s
        metrics[f"jobs{jobs}.warm_s"] = warm_s
        print(f"jobs={jobs}:  cold {cold_s:7.3f} s   warm {warm_s:7.3f} s")

    base = metrics.get(f"jobs{args.jobs[0]}.cold_s")
    for jobs in args.jobs[1:]:
        metrics[f"jobs{jobs}.cold_speedup"] = round(
            base / metrics[f"jobs{jobs}.cold_s"], 3)

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
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
