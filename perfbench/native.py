"""Seeded native inputs and the native differential run.

Every generator is a pure function of its ``random.Random`` — the same
seed writes the same files — and the rewritten programs receive only
these generated files.  A differential case runs the original and the
rewritten program on identical arguments, one child process at a time,
and compares exit code, standard output and any output file byte for
byte.
"""

from __future__ import annotations

import hashlib
import os
import random
import statistics
import subprocess
import time
from dataclasses import dataclass, field

CHILD_TIMEOUT_S = 120

REGS = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi", "r8", "r9", "r10", "r11")
OPS = ("addq", "subq", "xorq", "andq", "orq", "movq", "imulq", "cmpq")


def _word(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                   for _ in range(rng.randint(2, 10)))


def make_tree(root: str, rng: random.Random, dirs: int = 40,
              files: int = 150) -> None:
    """A directory tree of *dirs* x *files* small files."""
    for d in range(dirs):
        sub = os.path.join(root, f"{_word(rng)}-{d}")
        os.makedirs(sub)
        for f in range(files):
            name = os.path.join(sub, f"{_word(rng)}-{f}.{_word(rng)[:3]}")
            with open(name, "w") as fh:
                fh.write(_word(rng) * rng.randint(0, 40))


def make_text(path: str, rng: random.Random, size: int = 2_000_000) -> None:
    """About *size* bytes of words drawn from a seeded vocabulary."""
    vocab = [_word(rng) for _ in range(4000)]
    lines, total = [], 0
    while total < size:
        line = " ".join(rng.choice(vocab) for _ in range(12))
        lines.append(line)
        total += len(line) + 1
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def make_asm(path: str, rng: random.Random, functions: int = 800) -> None:
    """An x86-64 GNU assembler source of *functions* random functions."""
    out = ["\t.text"]
    for fn in range(functions):
        out.append(f"\t.globl f{fn}\n\t.type f{fn}, @function\nf{fn}:")
        for k in range(40):
            a, b = rng.sample(REGS, 2)
            out.append(f"\t{rng.choice(OPS)} %{a}, %{b}")
            if k % 7 == 0:
                disp = rng.randrange(1 << 20)
                out.append(f"\tjne .L{fn}_{k}\n"
                           f"\tleaq {disp}(%{a},%{b},4), %{b}\n"
                           f".L{fn}_{k}:")
            elif k % 11 == 0:
                out.append(f"\tcall f{rng.randrange(functions)}")
        out.append("\tret")
    out.append("\t.data\nvalues:")
    out.extend(f"\t.quad {rng.randrange(1 << 62)}" for _ in range(2000))
    with open(path, "w") as f:
        f.write("\n".join(out) + "\n")


def make_sql(path: str, rng: random.Random, rows: int = 150_000) -> None:
    """A query whose time is spent inside libsqlite3: rows generated by a
    recursive CTE, then grouped, joined and sorted."""
    mul = rng.randrange(1 << 20, 1 << 30) | 1
    inc = rng.randrange(1 << 16)
    mod = rng.randrange(50, 200)
    sql = f"""
WITH RECURSIVE gen(i, v) AS (
  SELECT 1, {rng.randrange(1 << 30)}
  UNION ALL
  SELECT i + 1, (v * {mul} + {inc}) % 2147483647 FROM gen WHERE i < {rows}
),
agg AS (
  SELECT v % {mod} AS k, count(*) AS n, sum(v % 1000) AS s,
         min(v) AS lo, max(v) AS hi,
         group_concat(substr(hex(v), 1, 2), '') AS tag
  FROM gen GROUP BY k
)
SELECT a.k, a.n, a.s, a.lo, a.hi, length(a.tag), b.n
FROM agg AS a JOIN agg AS b ON b.k = (a.k * 7 + 3) % {mod}
ORDER BY a.s DESC, a.k;
"""
    with open(path, "w") as f:
        f.write(sql)


# -- the differential run ---------------------------------------------------


@dataclass
class Command:
    argv: list[str]
    env: dict[str, str] = field(default_factory=dict)


@dataclass
class Case:
    """One native program on one generated input, original vs rewritten.

    *outfile*, relative to the run directory, is a file the program
    writes; its bytes are compared too.
    """

    name: str
    orig: Command
    new: Command
    outfile: str | None = None


@dataclass
class Outcome:
    key: tuple[int, str, str]  # exit code, stdout hash, outfile hash
    seconds: float


def run_once(cmd: Command, cwd: str, base_env: dict[str, str],
             outfile: str | None) -> Outcome:
    """Run *cmd* to completion in *cwd* and fingerprint what it did."""
    out_path = os.path.join(cwd, outfile) if outfile else None
    if out_path and os.path.exists(out_path):
        os.unlink(out_path)
    env = dict(base_env, **cmd.env)
    start = time.perf_counter()
    proc = subprocess.run(cmd.argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    seconds = time.perf_counter() - start
    produced = ""
    if out_path:
        try:
            with open(out_path, "rb") as f:
                produced = hashlib.sha256(f.read()).hexdigest()
        except FileNotFoundError:
            produced = "missing"
    stdout = hashlib.sha256(proc.stdout).hexdigest()
    return Outcome((proc.returncode, stdout, produced), seconds)


@dataclass
class NativeResult:
    runs: int = 0
    failed: int = 0
    orig_s: dict[str, list[float]] = field(default_factory=dict)
    new_s: dict[str, list[float]] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)

    def means(self, which: dict[str, list[float]], names) -> float:
        return sum(statistics.fmean(which[n]) for n in names)

    def overhead(self, names) -> float:
        """Mean rewritten ÷ mean original time of one pass over *names*."""
        return self.means(self.new_s, names) / self.means(self.orig_s, names)


#: Most original runs in one batch (a rewritten run may be far slower).
MAX_BATCH = 50


def differential(cases: list[Case], startup: Case, cwd: str,
                 base_env: dict[str, str], budget_s: float,
                 min_rounds: int = 3) -> NativeResult:
    """Run original and rewritten programs in turn until *budget_s* has
    passed (at least *min_rounds* rounds).

    The host's speed swings within a second, and a short original run
    lands wholly in a fast or a slow spell.  So each round runs the
    rewritten program once and the original as many times as it takes
    for both sides to have run equally long; both then sample the
    host's speed alike, and their mean times compare fairly.  Rounds
    alternate which side goes first.
    """
    res = NativeResult()
    reference: dict[str, tuple] = {}
    start = time.perf_counter()
    rounds = 0

    def run(case: Case, side: str) -> None:
        cmd = case.orig if side == "orig" else case.new
        outcome = run_once(cmd, cwd, base_env, case.outfile)
        res.runs += 1
        times = res.orig_s if side == "orig" else res.new_s
        times.setdefault(case.name, []).append(outcome.seconds)
        ref = reference.setdefault(case.name, outcome.key)
        if ref[0] != 0 or outcome.key != ref:
            res.failed += 1
            res.mismatches.append(f"{case.name} ({side}, round {rounds}): "
                                  f"{outcome.key} != {ref}")

    def originals(case: Case) -> None:
        for _ in range(MAX_BATCH):
            run(case, "orig")
            if (sum(res.orig_s[case.name])
                    >= sum(res.new_s.get(case.name, ()))):
                break

    while rounds < min_rounds or time.perf_counter() - start < budget_s:
        for case in cases + [startup]:
            if rounds % 2:
                run(case, "new")
                originals(case)
            else:
                originals(case)
                run(case, "new")
        rounds += 1
    return res
