"""Unit tests for the matrix trend classifier on synthetic cell pairs."""

from __future__ import annotations

import json

import pytest

from repro.eval import trend
from repro.eval.trend import (
    CellTrend,
    classify_metric,
    compare,
    load_history,
    render_markdown,
    weaknesses,
)


def status(name, base, cur, **kw):
    return classify_metric(name, base, cur, **kw)[0]


class TestClassifyMetric:
    """Direction and banding per metric family."""

    def test_rate_drop_regresses_only_past_widened_band(self):
        # Rates get threshold * RATE_NOISE_FACTOR; at 25% that is a 50%
        # band, so a 40% drop is stable and a 2.2x drop regresses.
        assert status("decode_mb_s", 2.0, 1.35) == "stable"
        assert status("decode_mb_s", 2.2, 1.0) == "regressed"
        assert status("plan_sites_s", 1000.0, 2000.0) == "improved"

    def test_rate_routes_before_wall_time(self):
        # A 2x throughput gain must not be read as a 2x slowdown.
        assert status("decode_mb_s", 2.0, 4.0) == "improved"

    def test_speedup_is_higher_better(self):
        assert status("warm_speedup", 4.0, 1.0) == "regressed"
        assert status("warm_speedup", 1.0, 4.0) == "improved"

    def test_succ_pct_absolute_band(self):
        assert status("succ_pct", 100.0, 99.0) == "regressed"
        assert status("succ_pct", 99.8, 100.0) == "stable"
        assert status("succ_pct", 99.0, 100.0) == "improved"

    def test_b0_pct_is_lower_better(self):
        assert status("b0_pct", 1.0, 3.0) == "regressed"
        assert status("b0_pct", 3.0, 1.0) == "improved"

    def test_size_pct_is_lower_better(self):
        assert status("size_pct", 30.0, 45.0) == "regressed"

    def test_overhead_ratio_is_lower_better(self):
        assert status("vm_overhead_ratio", 2.0, 3.0) == "regressed"
        assert status("vm_overhead_ratio", 3.0, 2.0) == "improved"

    def test_wall_time_with_noise_floor(self):
        assert status("rewrite_s", 1.0, 2.0) == "regressed"
        # Relative blowup under the absolute min_delta floor: stable.
        assert status("rewrite_s", 0.010, 0.030) == "stable"
        assert status("rewrite_s", 2.0, 1.0) == "improved"

    def test_unknown_metric_is_info(self):
        assert status("sites", 100, 999) == "info"
        assert status("input_bytes", 1, 2) == "info"


class TestWeaknesses:
    def test_healthy_cell_has_no_flags(self):
        assert weaknesses({"succ_pct": 100.0, "b0_pct": 0.0,
                           "vm_overhead_ratio": 2.0}) == []

    def test_each_threshold_flags(self):
        assert weaknesses({"succ_pct": 95.0})
        assert weaknesses({"b0_pct": 10.0})
        assert weaknesses({"vm_overhead_ratio": 9.0})
        assert weaknesses({"check_equivalent": 0})
        assert weaknesses({"warm_speedup": 0.8})

    def test_absent_metrics_do_not_flag(self):
        assert weaknesses({}) == []


def matrix(cells):
    return {"schema": "repro-matrix/1", "suite": "pr", "cells": cells}


def cell(metrics, verdict="ok", error=None, output_sha256=None):
    meta = {"output_sha256": output_sha256} if output_sha256 else {}
    return {"verdict": verdict, "error": error, "metrics": metrics,
            "meta": meta}


class TestCompare:
    def test_stable_pair(self):
        base = matrix({"a/full-jumps/serial": cell({"rewrite_s": 1.0})})
        report = compare(matrix({"a/full-jumps/serial":
                                 cell({"rewrite_s": 1.05})}), base)
        assert [c.status for c in report.cells] == ["stable"]
        assert not report.regressed

    def test_injected_slowdown_regresses_cell(self):
        # Mirrors BENCH_INJECT_SLOWDOWN=2: times double, rates halve.
        base_metrics = {"rewrite_s": 1.0, "decode_mb_s": 4.0}
        slowed = {"rewrite_s": 2.0, "decode_mb_s": 2.0}
        report = compare(
            matrix({"x/full-jumps/serial": cell(slowed)}),
            matrix({"x/full-jumps/serial": cell(base_metrics)}),
        )
        (trend_cell,) = report.cells
        assert trend_cell.status == "regressed"
        assert trend_cell.metrics["rewrite_s"]["status"] == "regressed"
        assert trend_cell.metrics["decode_mb_s"]["status"] == "regressed"

    def test_missing_cell_and_metric_are_tracked(self):
        base = matrix({
            "gone/full-jumps/serial": cell({"rewrite_s": 1.0}),
            "kept/full-jumps/serial": cell({"rewrite_s": 1.0,
                                            "vm_overhead_ratio": 2.0}),
        })
        cur = matrix({"kept/full-jumps/serial": cell({"rewrite_s": 1.0})})
        report = compare(cur, base)
        assert [c.cell_id for c in report.missing] == ["gone/full-jumps/serial"]
        assert report.missing_metrics == [
            "kept/full-jumps/serial:vm_overhead_ratio"]

    def test_new_cell_is_new_not_regressed(self):
        report = compare(
            matrix({"new/full-jumps/serial": cell({"rewrite_s": 1.0})}),
            matrix({}),
        )
        assert [c.status for c in report.cells] == ["new"]

    def test_failed_verdict_is_surfaced(self):
        report = compare(
            matrix({"a/full-jumps/serial":
                    cell({}, verdict="divergent", error="boom")}),
            matrix({}),
        )
        (trend_cell,) = report.cells
        assert trend_cell.failed == "divergent: boom"
        assert report.failed_cells

    def test_changed_output_hash_is_reported(self):
        base = matrix({
            "a/full-jumps/serial": cell({}, output_sha256="aa" * 32),
            "b/full-jumps/serial": cell({}, output_sha256="bb" * 32),
            "c/full-jumps/serial": cell({}),
        })
        cur = matrix({
            "a/full-jumps/serial": cell({}, output_sha256="aa" * 32),
            "b/full-jumps/serial": cell({}, output_sha256="cc" * 32),
            "c/full-jumps/serial": cell({}, output_sha256="dd" * 32),
        })
        report = compare(cur, base)
        assert [c.cell_id for c in report.changed_outputs] == [
            "b/full-jumps/serial"]
        assert report.changed_outputs[0].output_changed == (
            f"{'bb' * 6} -> {'cc' * 6}")
        assert "output changed" in render_markdown(report)

    def test_counts(self):
        base = matrix({"a/full-jumps/serial": cell({"rewrite_s": 1.0})})
        cur = matrix({
            "a/full-jumps/serial": cell({"rewrite_s": 1.0}),
            "b/full-jumps/serial": cell({"succ_pct": 90.0}),
        })
        counts = compare(cur, base).counts()
        assert counts["stable"] == 1
        assert counts["new"] == 1
        assert counts["weak"] == 1


def write_matrix(path, cells):
    path.write_text(json.dumps(matrix(cells)))


class TestMainExitCodes:
    """The CLI gate: regression and strict-missing must exit nonzero."""

    @pytest.fixture
    def base_path(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_matrix(path, {"a/full-jumps/serial":
                            cell({"rewrite_s": 1.0, "decode_mb_s": 4.0})})
        return path

    def run(self, base_path, tmp_path, cells, *extra):
        cur = tmp_path / "current.json"
        write_matrix(cur, cells)
        return trend.main(["--current", str(cur),
                           "--baseline", str(base_path), *extra])

    def test_clean_run_exits_zero(self, base_path, tmp_path):
        rc = self.run(base_path, tmp_path,
                      {"a/full-jumps/serial":
                       cell({"rewrite_s": 1.0, "decode_mb_s": 4.0})})
        assert rc == 0

    def test_regression_exits_nonzero(self, base_path, tmp_path):
        rc = self.run(base_path, tmp_path,
                      {"a/full-jumps/serial":
                       cell({"rewrite_s": 3.0, "decode_mb_s": 1.0})})
        assert rc == 1

    def test_missing_cell_needs_strict(self, base_path, tmp_path):
        assert self.run(base_path, tmp_path,
                        {"b/full-jumps/serial": cell({"rewrite_s": 1.0})}) == 0
        assert self.run(base_path, tmp_path,
                        {"b/full-jumps/serial": cell({"rewrite_s": 1.0})},
                        "--strict") == 1

    def test_changed_output_needs_strict(self, tmp_path):
        base_path = tmp_path / "baseline.json"
        write_matrix(base_path, {"a/full-jumps/serial":
                                 cell({}, output_sha256="aa" * 32)})
        changed = {"a/full-jumps/serial": cell({}, output_sha256="bb" * 32)}
        assert self.run(base_path, tmp_path, changed) == 0
        assert self.run(base_path, tmp_path, changed, "--strict") == 1

    def test_failed_cell_exits_nonzero(self, base_path, tmp_path):
        rc = self.run(base_path, tmp_path,
                      {"a/full-jumps/serial":
                       cell({"rewrite_s": 1.0, "decode_mb_s": 4.0},
                            verdict="error", error="PatchError")})
        assert rc == 1

    def test_fail_weak(self, base_path, tmp_path):
        cells = {"a/full-jumps/serial":
                 cell({"rewrite_s": 1.0, "decode_mb_s": 4.0,
                       "succ_pct": 90.0})}
        assert self.run(base_path, tmp_path, cells) == 0
        assert self.run(base_path, tmp_path, cells, "--fail-weak") == 1

    def test_report_and_history_written(self, base_path, tmp_path):
        cur = tmp_path / "current.json"
        write_matrix(cur, {"a/full-jumps/serial":
                           cell({"rewrite_s": 1.0, "decode_mb_s": 4.0})})
        report_md = tmp_path / "report.md"
        history = tmp_path / "history.jsonl"
        for _ in range(2):
            rc = trend.main(["--current", str(cur),
                             "--baseline", str(base_path),
                             "--report", str(report_md),
                             "--history", str(history)])
            assert rc == 0
        assert "Evaluation-matrix trend report" in report_md.read_text()
        entries = load_history(history)
        assert len(entries) == 2
        assert entries[0]["cells"]["a/full-jumps/serial"]["rewrite_s"] == 1.0


class TestRendering:
    def test_markdown_lists_weak_and_missing(self):
        report = compare(
            matrix({"weak/full-jumps/serial": cell({"succ_pct": 90.0})}),
            matrix({"gone/full-jumps/serial": cell({"rewrite_s": 1.0})}),
        )
        text = render_markdown(report)
        assert "`weak/full-jumps/serial`" in text
        assert "Weak cells" in text
        assert "`gone/full-jumps/serial`" in text

    def test_history_line_windows(self):
        entries = [
            {"schema": trend.HISTORY_SCHEMA,
             "cells": {"a": {"rewrite_s": float(i)}}}
            for i in range(12)
        ]
        line = trend._history_line(entries, "a")
        assert line.count("->") == trend.HISTORY_WINDOW - 1
        assert line.endswith("11.000")

    def test_console_flags(self, capsys):
        report = trend.TrendReport(cells=[
            CellTrend(cell_id="a", status="regressed"),
            CellTrend(cell_id="b", status="missing"),
            CellTrend(cell_id="c", status="stable"),
        ])
        trend.print_console(report)
        out = capsys.readouterr().out
        assert "FAIL" in out and "MISS" in out
