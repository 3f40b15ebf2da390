"""The real-binary benchmark (``perfbench/``) reaches into ``repro`` by
name: its tracer rebinds layer entry points given as strings, and its
driver imports the rewrite API inside functions.  A refactor that
renames one of them breaks the benchmark without failing anything else,
so these tests pin every such name."""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

from repro.core import tactics
from repro.core.pipeline import PipelinePass
from repro.frontend.tool import instrument_elf
from repro.synth.generator import SynthesisParams, synthesize

PERFBENCH = pathlib.Path(__file__).resolve().parents[2] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def repro_imports() -> list[tuple[str, str, str]]:
    """``(file, module, name)`` for every ``from repro... import name``
    anywhere in ``perfbench/*.py``, function bodies included."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("repro")):
                found += [(path.name, node.module, a.name) for a in node.names]
    return found


def test_imported_repro_names_resolve(perfbench):
    imports = repro_imports()
    names = {name for _, _, name in imports}
    assert {"instrument_elf", "prepare_binary", "RewriteOptions"} <= names
    missing = [(f, module, name) for f, module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
    importlib.import_module("run")


def test_tracer_wraps_every_entry_point_and_restores_it(perfbench):
    tracing = importlib.import_module("tracing")
    originals = (PipelinePass.run, tactics.try_direct)
    tracer = tracing.Tracer()
    uninstall = tracer.install()
    try:
        assert PipelinePass.run is not originals[0]
        binary = synthesize(SynthesisParams(
            n_jump_sites=8, n_write_sites=2, seed=5, loop_iters=1))
        instrument_elf(binary.data, "jumps")
    finally:
        uninstall()
    assert (PipelinePass.run, tactics.try_direct) == originals
    spans = {span[0] for span in tracer.spans}
    assert {"pass.plan", "pass.group", "pass.emit", "direct",
            "alloc"} <= spans
