"""Trend tracking over the evaluation matrix: where are we weak?

:mod:`repro.eval.matrix` answers "what are the numbers"; this module
answers the two questions CI actually asks:

* **trend** — per cell and per metric, did this run *improve*, stay
  *stable*, or *regress* against the committed baseline
  (``benchmarks/BENCH_matrix.json``)?  This generalizes
  ``bench_gate.py`` from one flat metric dict to a matrix of cells.
* **weakness** — independent of any baseline, which cells are *weak*
  right now (low success rate, high B0 fraction, high dynamic-
  instruction overhead, failed equivalence, a cache that does not pay
  for itself)?  Weak cells are the feedback loop into ROADMAP items
  2-4: they name the profile x configuration corners to attack next.

A run is additionally appended to a JSONL *history* file so scheduled
full-matrix runs accumulate a time series; the report shows each cell's
recent ``rewrite_s`` trajectory from it.

Classification rules, by metric name (direction-aware, unlike the flat
gate):

* ``*_mb_s`` / ``*_sites_s`` / ``*_rps`` / ``*speedup`` — higher is
  better, relative threshold;
* ``*_s`` (wall time, checked after the rate suffixes) — lower is
  better, relative threshold plus an absolute ``min_delta`` noise floor;
* ``succ_pct`` / ``check_equivalent`` — higher is better, absolute band;
* ``b0_pct`` / ``size_pct`` — lower is better, absolute band;
* ``vm_overhead_ratio`` / ``*_visits`` — lower is better, relative;
* anything else is informational and never moves a cell.

A cell whose ``meta.output_sha256`` differs from a baseline that
records one is reported as *output changed* (different rewrite bytes).

Exit status: nonzero when any cell regressed, or — with ``--strict`` —
when a baseline cell or metric is missing from the current run
(mirroring ``bench_gate.py --strict``) or a cell's output changed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from dataclasses import dataclass, field

SCHEMA = "repro-matrix/1"
TREND_SCHEMA = "repro-trend/1"
HISTORY_SCHEMA = "repro-trend-history/1"

DEFAULT_BASELINE = pathlib.Path(__file__).parents[3] / "benchmarks" / "BENCH_matrix.json"
DEFAULT_CURRENT = (
    pathlib.Path(__file__).parents[3] / "benchmarks" / "out" / "BENCH_matrix.json"
)

#: Absolute band (percentage points) for the exact *_pct metrics.
PCT_BAND = 0.5

#: Weakness thresholds: a cell is weak when any of these hold, no
#: matter how the trend looks (see docs/EVAL.md).
WEAK_SUCC_PCT = 99.0
WEAK_B0_PCT = 5.0
WEAK_OVERHEAD_RATIO = 8.0
WEAK_WARM_SPEEDUP = 1.0

#: Rate suffixes must be classified before the bare ``_s`` rule —
#: ``decode_mb_s`` ends in ``_s`` too, and its direction is inverted.
RATE_SUFFIXES = ("_mb_s", "_sites_s", "_rps")

#: Rates and speedups divide two wall times, so their run-to-run noise
#: is roughly double a single timing's; their gate band is widened
#: accordingly (an injected 2x slowdown still trips a 25% x 2 band).
RATE_NOISE_FACTOR = 2.0

#: History entries shown per cell in the markdown report.
HISTORY_WINDOW = 8


def classify_metric(
    name: str,
    base: float,
    cur: float,
    *,
    threshold: float = 0.25,
    min_delta: float = 0.05,
) -> tuple[str, str]:
    """``(status, detail)`` for one metric pair; status is
    ``improved`` / ``stable`` / ``regressed`` / ``info``."""
    if name.endswith(RATE_SUFFIXES) or name.endswith("speedup"):
        band = threshold * RATE_NOISE_FACTOR
        if cur < base / (1.0 + band):
            return "regressed", f"{base:g} -> {cur:g} (higher is better)"
        if cur > base * (1.0 + band):
            return "improved", f"{base:g} -> {cur:g}"
        return "stable", f"{base:g} -> {cur:g}"
    if name in ("succ_pct", "check_equivalent"):
        if cur < base - PCT_BAND:
            return "regressed", f"{base:g} -> {cur:g} (higher is better)"
        if cur > base + PCT_BAND:
            return "improved", f"{base:g} -> {cur:g}"
        return "stable", f"{base:g} -> {cur:g}"
    if name in ("b0_pct", "size_pct"):
        if cur > base + PCT_BAND:
            return "regressed", f"{base:g} -> {cur:g} (lower is better)"
        if cur < base - PCT_BAND:
            return "improved", f"{base:g} -> {cur:g}"
        return "stable", f"{base:g} -> {cur:g}"
    if name == "vm_overhead_ratio" or name.endswith("_visits"):
        if cur > base * (1.0 + threshold):
            return "regressed", f"{base:g} -> {cur:g} (lower is better)"
        if cur < base / (1.0 + threshold):
            return "improved", f"{base:g} -> {cur:g}"
        return "stable", f"{base:g} -> {cur:g}"
    if name.endswith("_s"):
        if cur > base * (1.0 + threshold) and cur - base > min_delta:
            return "regressed", f"{base:.3f}s -> {cur:.3f}s"
        if cur < base / (1.0 + threshold) and base - cur > min_delta:
            return "improved", f"{base:.3f}s -> {cur:.3f}s"
        return "stable", f"{base:.3f}s -> {cur:.3f}s"
    return "info", f"{base} -> {cur}"


def weaknesses(metrics: dict) -> list[str]:
    """Baseline-independent weakness flags for one cell's metrics."""
    weak = []
    succ = metrics.get("succ_pct")
    if succ is not None and succ < WEAK_SUCC_PCT:
        weak.append(f"succ_pct {succ:g} < {WEAK_SUCC_PCT:g}")
    b0 = metrics.get("b0_pct")
    if b0 is not None and b0 > WEAK_B0_PCT:
        weak.append(f"b0_pct {b0:g} > {WEAK_B0_PCT:g}")
    ratio = metrics.get("vm_overhead_ratio")
    if ratio is not None and ratio > WEAK_OVERHEAD_RATIO:
        weak.append(f"vm_overhead_ratio {ratio:g} > {WEAK_OVERHEAD_RATIO:g}")
    check = metrics.get("check_equivalent")
    if check is not None and check < 1:
        weak.append("check_equivalent 0 (equivalence violated)")
    warm = metrics.get("warm_speedup")
    if warm is not None and warm < WEAK_WARM_SPEEDUP:
        weak.append(f"warm_speedup {warm:g} < {WEAK_WARM_SPEEDUP:g}")
    return weak


@dataclass
class CellTrend:
    """One cell's classification against the baseline."""

    cell_id: str
    status: str  # "improved" | "stable" | "regressed" | "new" | "missing"
    weak: list[str] = field(default_factory=list)
    failed: str | None = None  # non-ok cell verdict from the run itself
    #: "<baseline hash> -> <current hash>" when the output bytes changed.
    output_changed: str | None = None
    metrics: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "cell": self.cell_id,
            "status": self.status,
            "weak": self.weak,
            "failed": self.failed,
            "output_changed": self.output_changed,
            "metrics": self.metrics,
        }


@dataclass
class TrendReport:
    """Aggregate trend verdict for one matrix run."""

    cells: list[CellTrend] = field(default_factory=list)
    missing_metrics: list[str] = field(default_factory=list)

    def by_status(self, status: str) -> list[CellTrend]:
        return [c for c in self.cells if c.status == status]

    @property
    def regressed(self) -> list[CellTrend]:
        return self.by_status("regressed")

    @property
    def missing(self) -> list[CellTrend]:
        return self.by_status("missing")

    @property
    def weak_cells(self) -> list[CellTrend]:
        return [c for c in self.cells if c.weak]

    @property
    def failed_cells(self) -> list[CellTrend]:
        return [c for c in self.cells if c.failed]

    @property
    def changed_outputs(self) -> list[CellTrend]:
        return [c for c in self.cells if c.output_changed]

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for cell in self.cells:
            counts[cell.status] = counts.get(cell.status, 0) + 1
        counts["weak"] = len(self.weak_cells)
        counts["failed"] = len(self.failed_cells)
        return counts

    def to_dict(self) -> dict:
        return {
            "schema": TREND_SCHEMA,
            "counts": self.counts(),
            "missing_metrics": self.missing_metrics,
            "cells": [c.to_dict() for c in self.cells],
        }


def load_matrix(path: pathlib.Path) -> dict:
    payload = json.loads(path.read_text())
    if payload.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: unexpected schema {payload.get('schema')!r}")
    return payload


def compare(
    current: dict,
    baseline: dict,
    *,
    threshold: float = 0.25,
    min_delta: float = 0.05,
) -> TrendReport:
    """Classify every cell of *current* against *baseline*."""
    report = TrendReport()
    cur_cells = current.get("cells", {})
    base_cells = baseline.get("cells", {})

    for cell_id in sorted(set(base_cells) | set(cur_cells)):
        cur = cur_cells.get(cell_id)
        base = base_cells.get(cell_id)
        if cur is None:
            report.cells.append(CellTrend(cell_id=cell_id, status="missing"))
            continue
        cur_metrics = cur.get("metrics", {})
        trend = CellTrend(cell_id=cell_id, status="new")
        if cur.get("verdict") not in (None, "ok", "unsupported"):
            trend.failed = f"{cur.get('verdict')}: {cur.get('error') or ''}".strip()
        trend.weak = weaknesses(cur_metrics)
        if base is not None:
            base_hash = base.get("meta", {}).get("output_sha256")
            cur_hash = cur.get("meta", {}).get("output_sha256")
            if base_hash and cur_hash != base_hash:
                trend.output_changed = f"{base_hash[:12]} -> {(cur_hash or 'none')[:12]}"
            base_metrics = base.get("metrics", {})
            statuses = []
            for name in sorted(base_metrics):
                if name not in cur_metrics:
                    report.missing_metrics.append(f"{cell_id}:{name}")
                    continue
                status, detail = classify_metric(
                    name,
                    base_metrics[name],
                    cur_metrics[name],
                    threshold=threshold,
                    min_delta=min_delta,
                )
                trend.metrics[name] = {
                    "baseline": base_metrics[name],
                    "current": cur_metrics[name],
                    "status": status,
                    "detail": detail,
                }
                statuses.append(status)
            if "regressed" in statuses:
                trend.status = "regressed"
            elif "improved" in statuses:
                trend.status = "improved"
            else:
                trend.status = "stable"
        report.cells.append(trend)
    return report


# -- history -----------------------------------------------------------------


def load_history(path: pathlib.Path) -> list[dict]:
    """Parse the JSONL history file (missing file -> empty history)."""
    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if entry.get("schema") == HISTORY_SCHEMA:
            entries.append(entry)
    return entries


def append_history(path: pathlib.Path, payload: dict, report: TrendReport) -> dict:
    """Append this run's per-cell key metrics and verdict to *path*."""
    import datetime

    entry = {
        "schema": HISTORY_SCHEMA,
        "when": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "suite": payload.get("suite"),
        "counts": report.counts(),
        "cells": {
            cell_id: {
                name: cell.get("metrics", {}).get(name)
                for name in ("rewrite_s", "succ_pct", "vm_overhead_ratio")
                if name in cell.get("metrics", {})
            }
            for cell_id, cell in payload.get("cells", {}).items()
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def _history_line(history: list[dict], cell_id: str) -> str:
    values = [
        entry.get("cells", {}).get(cell_id, {}).get("rewrite_s")
        for entry in history[-HISTORY_WINDOW:]
    ]
    shown = [f"{v:.3f}" if isinstance(v, (int, float)) else "-" for v in values]
    return " -> ".join(shown) if shown else "(no history)"


# -- rendering ---------------------------------------------------------------

_STATUS_MARK = {
    "improved": "+",
    "stable": "=",
    "regressed": "!",
    "new": "*",
    "missing": "?",
}


def render_markdown(report: TrendReport, history: list[dict] | None = None) -> str:
    """The human-facing trend report (uploaded as a CI artifact)."""
    counts = report.counts()
    lines = ["# Evaluation-matrix trend report", ""]
    summary = ", ".join(
        f"{counts.get(k, 0)} {k}"
        for k in ("improved", "stable", "regressed", "new", "missing", "weak", "failed")
    )
    lines += [f"**Cells:** {summary}", ""]
    lines += [
        "| cell | trend | weak | notes |",
        "|---|---|---|---|",
    ]
    for cell in report.cells:
        notes = []
        for name, m in cell.metrics.items():
            if m["status"] in ("regressed", "improved"):
                notes.append(f"{name}: {m['detail']}")
        if cell.failed:
            notes.append(f"run failed ({cell.failed})")
        if cell.output_changed:
            notes.append(f"output changed ({cell.output_changed})")
        lines.append(
            f"| `{cell.cell_id}` | {_STATUS_MARK.get(cell.status, '?')} {cell.status} "
            f"| {'; '.join(cell.weak) or '-'} | {'; '.join(notes) or '-'} |"
        )
    if report.missing_metrics:
        lines += ["", "## Missing metrics", ""]
        lines += [f"- `{name}` (missing-metric)" for name in report.missing_metrics]
    if report.weak_cells:
        lines += ["", "## Weak cells (targets for ROADMAP items 2-4)", ""]
        for cell in report.weak_cells:
            lines.append(f"- `{cell.cell_id}`: {'; '.join(cell.weak)}")
    if history:
        lines += ["", f"## History (rewrite_s, last {HISTORY_WINDOW} runs)", ""]
        for cell in report.cells:
            if cell.status in ("regressed", "improved") or cell.weak:
                lines.append(f"- `{cell.cell_id}`: {_history_line(history, cell.cell_id)}")
    lines.append("")
    return "\n".join(lines)


def print_console(report: TrendReport) -> None:
    width = max((len(c.cell_id) for c in report.cells), default=10)
    for cell in report.cells:
        # "missing" only fails under --strict; flag it distinctly so a
        # vanished cell cannot read as a healthy one.
        flag = {"regressed": "FAIL", "missing": "MISS"}.get(cell.status, "ok  ")
        weak = f"  WEAK: {'; '.join(cell.weak)}" if cell.weak else ""
        failed = f"  RUN-FAILED: {cell.failed}" if cell.failed else ""
        changed = f"  OUTPUT-CHANGED: {cell.output_changed}" if cell.output_changed else ""
        print(f"  {cell.cell_id.ljust(width)}  {flag}  {cell.status}{weak}{failed}{changed}")
    for name in report.missing_metrics:
        print(f"  missing-metric: {name}")


# -- CLI ---------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", default=str(DEFAULT_CURRENT))
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE))
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("BENCH_GATE_THRESHOLD", "0.25")),
        help="allowed relative regression (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--min-delta",
        type=float,
        default=0.05,
        help="absolute seconds a timing must move before the relative "
        "threshold applies (noise floor, default 0.05)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail when a baseline cell or metric is missing from "
        "the current run, or when a cell's output bytes changed",
    )
    parser.add_argument(
        "--fail-weak",
        action="store_true",
        help="also fail when any cell is weak (scheduled full-matrix "
        "runs report weakness without failing by default)",
    )
    parser.add_argument("--report", metavar="PATH", help="write the markdown report")
    parser.add_argument("--json", metavar="PATH", help="write the JSON classification")
    parser.add_argument(
        "--history",
        metavar="PATH",
        help="append this run to a JSONL history file and fold recent "
        "runs into the report",
    )
    args = parser.parse_args(argv)

    current = load_matrix(pathlib.Path(args.current))
    baseline = load_matrix(pathlib.Path(args.baseline))
    report = compare(
        current, baseline, threshold=args.threshold, min_delta=args.min_delta
    )

    history: list[dict] = []
    if args.history:
        history_path = pathlib.Path(args.history)
        history = load_history(history_path)
        append_history(history_path, current, report)

    counts = report.counts()
    print(
        f"matrix trend: threshold {args.threshold:.0%}, "
        f"{len(report.cells)} cell(s), suite {current.get('suite')!r}"
    )
    print_console(report)

    if args.report:
        path = pathlib.Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_markdown(report, history))
        print(f"wrote {path}")
    if args.json:
        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"wrote {path}")

    failures = []
    if report.regressed:
        failures.append(
            f"{len(report.regressed)} cell(s) regressed: "
            + ", ".join(c.cell_id for c in report.regressed)
        )
    if report.failed_cells:
        failures.append(
            f"{len(report.failed_cells)} cell(s) failed to run: "
            + ", ".join(c.cell_id for c in report.failed_cells)
        )
    if args.strict and (report.missing or report.missing_metrics):
        failures.append(
            f"strict: {len(report.missing)} missing cell(s), "
            f"{len(report.missing_metrics)} missing metric(s)"
        )
    if args.strict and report.changed_outputs:
        failures.append(f"strict: {len(report.changed_outputs)} cell(s) changed output")
    if args.fail_weak and report.weak_cells:
        failures.append(
            f"{len(report.weak_cells)} weak cell(s): "
            + ", ".join(c.cell_id for c in report.weak_cells)
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        print(
            "If intentional, apply the 'bench-regression-ok' PR label or "
            "regenerate benchmarks/BENCH_matrix.json.",
            file=sys.stderr,
        )
        return 1
    print(f"\nmatrix trend: OK ({counts})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
