#!/usr/bin/env python3
"""Instrument the system glibc and run real programs against it.

The hardest practical target in the paper's Table 1, taken one step
further: not just *patching* libc.so but *running* against the patched
copy.  Uses the full hardened recipe (see EXPERIMENTS.md): symbol-guided
frontend, ifunc-resolver/pre-init exclusions, DT_INIT_ARRAY hijack,
trampoline-span reservations.

Run:  python3 examples/instrument_libc.py   (x86-64 Linux only)
"""

import os
import subprocess
import sys
import tempfile

from repro import RewriteOptions
from repro.frontend.tool import instrument_elf

LIBC = "/lib/x86_64-linux-gnu/libc.so.6"


def main() -> None:
    if not os.path.exists(LIBC):
        print(f"{LIBC} not found (x86-64 Linux required)")
        return
    with open(LIBC, "rb") as f:
        data = f.read()

    libdir = tempfile.mkdtemp(prefix="patched-libc-")
    out_path = os.path.join(libdir, "libc.so.6")
    print(f"rewriting {LIBC} ({len(data) >> 20} MiB)...")
    report = instrument_elf(
        data, "jumps",
        options=RewriteOptions(shared=True,
                               library_path=out_path),
        frontend="symbols",
    )
    with open(out_path, "wb") as f:
        f.write(report.result.data)
    print(f"  {report.summary()}")
    grouping = report.result.grouping
    print(f"  page grouping: {len(grouping.blocks)} virtual blocks -> "
          f"{len(grouping.groups)} physical "
          f"({100 * grouping.savings_ratio:.0f}% RAM/file saved)")

    env = dict(os.environ, LD_LIBRARY_PATH=libdir)
    demos = [
        (["/bin/echo", "hello from a fully instrumented glibc"], b""),
        (["/usr/bin/sort", "-r"], b"alpha\nbeta\ngamma\n"),
        ([sys.executable, "-c", "print('python on patched libc:', 6*7)"], b""),
    ]
    print("\nrunning against the patched copy:")
    for cmd, stdin in demos:
        if not os.path.exists(cmd[0]):
            continue
        r = subprocess.run(cmd, capture_output=True, input=stdin, env=env,
                           timeout=60)
        status = "ok" if r.returncode == 0 else f"rc={r.returncode}"
        print(f"  [{status}] {' '.join(cmd[:2])}: "
              f"{r.stdout.decode(errors='replace').strip()!r}")
    print(f"\npatched library left at {out_path}")


if __name__ == "__main__":
    main()
