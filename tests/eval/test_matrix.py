"""Tests for the declarative evaluation matrix: cell axes, the cell-id
parser, slowdown injection, and one real (tiny) cell run end to end."""

from __future__ import annotations

import pytest

from repro.eval.matrix import (
    MIN_WORKLOAD_SITES,
    OPTION_COMBOS,
    PATCH_CONFIGS,
    MatrixCell,
    cells_for,
    inject_slowdown,
    parse_cells,
    run_cell,
    run_matrix,
    workload_params,
)


class TestAxes:
    def test_pr_suite_meets_acceptance_floor(self):
        # The issue's acceptance bar: >= 12 cells spanning >= 3 profiles
        # and >= 4 option combos.
        cells = cells_for("pr")
        assert len(cells) >= 12
        assert len({c.profile for c in cells}) >= 3
        assert len({c.combo for c in cells}) >= 4

    def test_full_suite_is_superset_of_pr(self):
        assert {c.cell_id for c in cells_for("pr")} <= {
            c.cell_id for c in cells_for("full")
        }

    def test_cell_ids_are_unique(self):
        cells = cells_for("full")
        assert len({c.cell_id for c in cells}) == len(cells)

    def test_every_axis_point_is_wired(self):
        full = cells_for("full")
        assert {c.patch_config for c in full} == set(PATCH_CONFIGS)
        assert {c.combo for c in full} == set(OPTION_COMBOS)

    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError, match="unknown suite"):
            cells_for("nightly")


class TestParseCells:
    def test_suite_names(self):
        assert parse_cells("pr") == cells_for("pr")
        assert parse_cells("full") == cells_for("full")

    def test_explicit_ids(self):
        cells = parse_cells("bzip2/full-jumps/serial, vim/g16-writes/cached")
        assert cells == [
            MatrixCell("bzip2", "full-jumps", "serial"),
            MatrixCell("vim", "g16-writes", "cached"),
        ]

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError):
            parse_cells("nonesuch/full-jumps/serial")

    def test_unknown_patch_config_raises(self):
        with pytest.raises(ValueError, match="unknown patch config"):
            parse_cells("bzip2/nonesuch/serial")

    def test_unknown_combo_raises(self):
        with pytest.raises(ValueError, match="unknown option combo"):
            parse_cells("bzip2/full-jumps/nonesuch")

    def test_malformed_id_raises(self):
        with pytest.raises(ValueError, match="bad cell id"):
            parse_cells("bzip2/serial")

    def test_empty_spec_raises(self):
        with pytest.raises(ValueError, match="no cells"):
            parse_cells(" , ")


class TestWorkloadParams:
    def test_large_profile_is_capped(self):
        # gcc's scaled site count (>1500) exceeds the cap.
        params = workload_params("gcc", max_sites=500)
        assert params.n_jump_sites == 500
        assert params.bss_bytes == 0

    def test_floor_applies_to_small_profiles(self):
        # bzip2 scales to ~23 sites — far too little timed work for a
        # stable rate measurement, so the floor takes over.
        params = workload_params("bzip2")
        assert params.n_jump_sites >= MIN_WORKLOAD_SITES

    def test_pie_character_is_kept(self):
        assert workload_params("FireFox").pie
        assert not workload_params("bzip2").pie


class TestInjectSlowdown:
    def test_scales_times_up_and_rates_down(self):
        payload = {
            "cells": {
                "a": {"metrics": {"rewrite_s": 1.0, "decode_mb_s": 4.0,
                                  "plan_sites_s": 100.0, "succ_pct": 100.0}}
            }
        }
        out = inject_slowdown(payload, 2.0)
        metrics = out["cells"]["a"]["metrics"]
        assert metrics["rewrite_s"] == 2.0
        assert metrics["decode_mb_s"] == 2.0
        assert metrics["plan_sites_s"] == 50.0
        assert metrics["succ_pct"] == 100.0  # untouched

    def test_factor_one_is_identity(self):
        payload = {"cells": {}}
        assert inject_slowdown(payload, 1.0) is payload


@pytest.mark.slow
class TestRunCell:
    """One real cell, scaled down, through the production rewrite path."""

    def test_serial_cell_metrics(self):
        result = run_cell(
            MatrixCell("bzip2", "full-jumps", "serial"),
            max_sites=64, oracle=False, repeats=1,
        )
        assert result.ok
        for name in ("rewrite_s", "sites", "succ_pct", "b0_pct",
                     "size_pct", "decode_mb_s", "plan_sites_s"):
            assert name in result.metrics, name
        assert result.metrics["succ_pct"] > 0

    def test_cached_cell_reports_warm_metrics(self):
        result = run_cell(
            MatrixCell("bzip2", "full-jumps", "cached"),
            max_sites=64, oracle=False, repeats=1,
        )
        assert result.ok
        assert "warm_s" in result.metrics
        assert result.metrics["cache_hits"] > 0

    def test_run_matrix_payload_schema(self):
        payload = run_matrix(
            [MatrixCell("bzip2", "full-jumps", "serial")],
            suite="custom", max_sites=64, oracle=False, repeats=1,
        )
        assert payload["schema"] == "repro-matrix/1"
        assert payload["suite"] == "custom"
        assert set(payload["host"]) == {"python", "machine", "cpus"}
        cell = payload["cells"]["bzip2/full-jumps/serial"]
        assert cell["verdict"] == "ok"
        assert cell["metrics"]["sites"] > 0

    def test_cell_meta_reports_elf_type_and_cet(self):
        """Cell metadata carries the binary's kind (ET_EXEC/ET_DYN) and
        CET note presence — strings live in meta, never in the numeric
        metrics the trend gate compares."""
        exec_cell = run_cell(
            MatrixCell("bzip2", "full-jumps", "serial"),
            max_sites=64, oracle=False, repeats=1,
        )
        assert exec_cell.meta["elf_type"] == "ET_EXEC"
        assert exec_cell.meta["cet"] is False
        so_cell = run_cell(
            MatrixCell("libsynth-cet.so", "full-jumps", "serial"),
            max_sites=64, oracle=False, repeats=1,
        )
        assert so_cell.ok
        output_sha256 = so_cell.meta.pop("output_sha256")
        assert len(output_sha256) == 64
        assert so_cell.meta == {"elf_type": "ET_DYN", "cet": True,
                                "cet_note": True}
        payload = so_cell.to_dict()
        assert payload["meta"]["elf_type"] == "ET_DYN"
        assert all(not isinstance(v, str)
                   for v in payload["metrics"].values())

    def test_shared_cell_oracle_runs_at_nonzero_base(self):
        """The .so column's oracle combo is a dlopen-style run at a high
        load base; the verdict must still be equivalent."""
        result = run_cell(
            MatrixCell("libsynth-cet.so", "full-jumps", "checked"),
            max_sites=64, repeats=1,
        )
        assert result.verdict == "ok"  # divergence would flip the verdict
        assert result.metrics["oracle_events"] > 0
        assert "vm_overhead_ratio" in result.metrics
