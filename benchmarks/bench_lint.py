"""The static-lint merge gate: a fixed-seed rewrite-and-lint sweep.

Rewrites a deterministic corpus of synthetic binaries — by default 200
across the three Table-1 profiles (non-PIE SPEC, PIE system, PIE
browser), alternating empty and counter instrumentation with
liveness-driven trampoline slimming on — with the rewrite-plan linter
(:mod:`repro.analysis.lint`) enabled, and exits nonzero if *any* run
produces an error-severity finding.  Unlike ``bench_check.py``'s VM
oracle this gate never executes an instruction: every invariant (site
jump chains, trampoline layout and image bytes, displaced-instruction
replay, jump-back targets) is re-derived statically from the emitted
file, so the whole sweep runs in seconds.

Results are written as JSON (default ``benchmarks/out/BENCH_lint.json``,
schema ``repro-lint/1``) with per-profile finding counts.

``--self-test`` proves the gate can fail: it re-runs a small sweep with
``REPRO_CHECK_INJECT_BUG=1`` (the deliberate jump-back-displacement
miscompile in ``core/trampoline.py``) and exits nonzero unless the
linter catches the bug *statically* with a ``jump-back`` finding that
names a vaddr.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import random
import sys
import time

from repro.analysis.lint import LintError
from repro.check.campaign import _draw_params, synthesize
from repro.core.observe import Observer
from repro.core.pipeline import RewriteOptions
from repro.errors import PatchError
from repro.frontend.tool import instrument_elf

SCHEMA = "repro-lint/1"
DEFAULT_OUT = pathlib.Path(__file__).parent / "out" / "BENCH_lint.json"
DEFAULT_SEED = 1
DEFAULT_COUNT = 200
SELF_TEST_COUNT = 4

PROFILES = ("bzip2", "vim", "FireFox")
INSTRUMENTATIONS = ("empty", "counter")


def lint_one(data: bytes, instrumentation: str):
    """Rewrite one binary with the linter on; returns its LintReport."""
    options = RewriteOptions(lint=True, liveness=True)
    try:
        return instrument_elf(
            data, "all", instrumentation=instrumentation, options=options,
        ).result.lint
    except LintError as exc:
        return exc.report


def run(seed: int, count: int, verbose: bool) -> tuple[dict, int]:
    """One sweep; returns (payload, total error-finding count)."""
    rng = random.Random(seed)
    observer = Observer()
    errors = 0
    warnings = 0
    sites = 0
    trampolines = 0
    failures: list[dict] = []
    skipped = 0

    t0 = time.perf_counter()
    for index in range(count):
        profile = PROFILES[index % len(PROFILES)]
        instrumentation = INSTRUMENTATIONS[index % len(INSTRUMENTATIONS)]
        params = _draw_params(rng, profile)
        data = synthesize(params).data
        try:
            report = lint_one(data, instrumentation)
        except PatchError as exc:
            # A rewrite the engine rejects outright has nothing to lint;
            # the check campaign owns that failure mode.
            skipped += 1
            if verbose:
                print(f"  [{index + 1}/{count}] skipped ({exc})")
            continue
        errors += len(report.errors)
        warnings += len(report.warnings)
        sites += report.sites_checked
        trampolines += report.trampolines_checked
        if not report.ok:
            failures.append({
                "index": index,
                "profile": profile,
                "instrumentation": instrumentation,
                "seed": params.seed,
                "findings": [f.to_dict() for f in report.findings],
            })
        if verbose and ((index + 1) % 25 == 0 or not report.ok):
            verdict = "ok" if report.ok else f"{len(report.errors)} error(s)"
            print(f"  [{index + 1}/{count}] {profile}/{instrumentation}: "
                  f"{verdict}")
    wall_s = time.perf_counter() - t0

    payload = {
        "schema": SCHEMA,
        "host": {"python": platform.python_version(),
                 "machine": platform.machine()},
        "metrics": {
            "lint_wall_s": round(wall_s, 3),
            "lint_binaries": count,
            "lint_skipped": skipped,
            "lint_sites": sites,
            "lint_trampolines": trampolines,
            "lint_errors": errors,
            "lint_warnings": warnings,
            "lint_binaries_s": round(count / wall_s, 2) if wall_s else 0.0,
        },
        "failures": failures,
        "counters": {k: v for k, v in observer.counters.items()
                     if k.startswith("lint.")},
    }
    return payload, errors


def self_test() -> int:
    """Prove the gate can fail: inject the displacement bug and demand a
    static ``jump-back`` finding with a vaddr."""
    print(f"self-test: REPRO_CHECK_INJECT_BUG=1, {SELF_TEST_COUNT} binaries")
    rng = random.Random(DEFAULT_SEED)
    os.environ["REPRO_CHECK_INJECT_BUG"] = "1"
    caught = 0
    try:
        for index in range(SELF_TEST_COUNT):
            profile = PROFILES[index % len(PROFILES)]
            data = synthesize(_draw_params(rng, profile)).data
            report = lint_one(data, "counter")
            backs = [f for f in report.errors if f.check == "jump-back"]
            if backs and all(isinstance(f.vaddr, int) for f in backs):
                caught += 1
    finally:
        del os.environ["REPRO_CHECK_INJECT_BUG"]
    if caught != SELF_TEST_COUNT:
        print(f"self-test FAILED: injected miscompile caught statically on "
              f"{caught}/{SELF_TEST_COUNT} binaries", file=sys.stderr)
        return 1
    print(f"self-test OK: jump-back finding with vaddr on "
          f"{caught}/{SELF_TEST_COUNT} binaries")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--count", type=int, default=DEFAULT_COUNT,
                        help=f"binaries to lint (default {DEFAULT_COUNT})")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="result JSON path")
    parser.add_argument("--self-test", action="store_true",
                        help="inject a miscompile and require the linter "
                        "to catch it statically (exit 1 if it does not)")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    print(f"lint sweep: seed={args.seed} count={args.count}")
    payload, errors = run(args.seed, args.count, verbose=not args.quiet)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    m = payload["metrics"]
    print(f"  {m['lint_binaries']} binaries in {m['lint_wall_s']}s "
          f"({m['lint_binaries_s']}/s): {m['lint_sites']} sites, "
          f"{m['lint_trampolines']} trampolines, "
          f"{m['lint_errors']} errors, {m['lint_warnings']} warnings")
    print(f"  result: {out}")

    if errors:
        print(f"\n{errors} error finding(s) — the emitted rewrites violate "
              "their static invariants (see the failures list in "
              f"{out}).", file=sys.stderr)
        return 1
    print("lint gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
