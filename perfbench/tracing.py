"""Span tracing around calls into the rewriter's layers, from outside it.

The rewriter carries no spans of its own below the pass level, so the
benchmark wraps each layer's public entry point for the length of a
traced rewrite and restores the originals afterwards.  A span is
``[name, start, end, parent, ok]``: ``parent`` indexes the span that was
open when this one began (-1 for a root) and ``ok`` records whether a
call that may decline (a tactic, an allocation) returned a result.
Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from collections import defaultdict

# (module, attribute, span name, records ok).  Module-level functions
# are rebound in every ``repro`` module that imported them by name.
ENTRY_POINTS = [
    ("repro.core.tactics", "try_direct", "direct", True),
    ("repro.core.tactics", "try_successor_eviction", "evict", True),
    ("repro.core.tactics", "try_neighbour_eviction", "evict", True),
    ("repro.core.tactics", "apply_int3", "int3", True),
    ("repro.core.allocator", "AddressSpace.allocate", "alloc", True),
    ("repro.core.trampoline", "build_trampoline", "tramp", False),
    ("repro.analysis.liveness", "LivenessAnalysis.at", "liveness", False),
    ("repro.core.grouping", "split_into_blocks", "split", False),
    ("repro.core.grouping", "group_blocks", "admit", False),
    ("repro.elf.loader", "build_loader", "loader", False),
    ("repro.analysis.lint", "lint_context", "lint_context", False),
]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder.  With ``rss=True`` each pass span also
    records how far the process's peak RSS rose while it ran."""

    def __init__(self, rss: bool = False) -> None:
        self.spans: list[list] = []
        self.rss_rise: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._rss = rss

    def open_span(self, name: str) -> list:
        stack = self._stack
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                True]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close_span(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, records_ok: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open_span(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = False
                raise
            finally:
                self.close_span(span)
            if records_ok:
                span[4] = result is not None
            return result

        return traced

    def wrap_pass_run(self, run):
        @functools.wraps(run)
        def traced(pass_, ctx):
            name = f"pass.{pass_.name}"
            before = _peak_rss_mb() if self._rss else 0.0
            span = self.open_span(name)
            try:
                return run(pass_, ctx)
            finally:
                self.close_span(span)
                if self._rss:
                    self.rss_rise[pass_.name] += _peak_rss_mb() - before

        return traced

    def install(self):
        """Wrap every entry point; returns a function that undoes it."""
        undo: list[tuple[object, str, object]] = []

        def rebind(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        pipeline = importlib.import_module("repro.core.pipeline")
        run = pipeline.PipelinePass.run
        rebind(pipeline.PipelinePass, "run", self.wrap_pass_run(run))
        for module_name, attr, name, records_ok in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                rebind(cls, meth, self.wrap(getattr(cls, meth), name,
                                            records_ok))
                continue
            original = getattr(module, attr)
            traced = self.wrap(original, name, records_ok)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("repro")
                        and getattr(mod, attr, None) is original):
                    rebind(mod, attr, traced)

        def uninstall():
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

        return uninstall

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def summarize(spans: list[list], root: int) -> dict[str, dict[str, float]]:
    """Aggregate the spans under *root* by layer.

    A sub-pass span is named after the pass that encloses it
    (``plan.alloc``, ``emit.alloc``); pass spans keep their pass name.
    Returns ``{layer: {"calls", "total_s", "self_s", "ok"}}`` plus an
    entry for *root*'s own self time under ``"rewrite"``.
    """
    end = len(spans)
    child_s = defaultdict(float)
    for i in range(root + 1, end):
        _, start, stop, parent, _ = spans[i]
        child_s[parent] += stop - start

    owner: dict[int, str] = {root: "rewrite"}
    layers: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "ok": 0})
    for i in range(root, end):
        name, start, stop, parent, ok = spans[i]
        if i == root:
            layer = "rewrite"
        elif name.startswith("pass."):
            layer = owner[i] = name[5:]
        else:
            enclosing = owner.get(parent, "rewrite")
            owner[i] = enclosing
            layer = f"{enclosing}.{name}"
        rec = layers[layer]
        rec["calls"] += 1
        rec["total_s"] += stop - start
        rec["self_s"] += stop - start - child_s[i]
        rec["ok"] += bool(ok)
    return dict(layers)
